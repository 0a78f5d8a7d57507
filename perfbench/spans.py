"""Span recorder for the traced benchmark runs.

Each public function defined in a ``qpmforge`` module is replaced, at run
time and in every package module that holds a reference to it, by a
wrapper that records one span per call: its name, start, end and the
span that was open when it was called.  A layer's self time is the span
duration minus the time covered by its child spans.  Nothing under
``src/`` is edited.

Run as a script, this file is the traced form of one CLI stage::

    python3 perfbench/spans.py SPANS.json design --config c.cfg --out d --seed 0

It imports ``qpmforge.cli`` (timed as ``import_s``), installs the wrappers,
calls ``cli.main`` with the remaining arguments, writes the spans to
``SPANS.json`` and exits with the stage's exit code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

PACKAGE_MODULES = (
    "crystal",
    "biphoton",
    "analysis",
    "interference",
    "measurement",
    "tomography",
    "config",
    "defaults",
    "cli",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Keeps spans in memory; the open-span stack is per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, observe=None):
        stack = self._stack()
        span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            if observe is None:
                return fn(*args, **kwargs)
            return observe(span, fn, args, kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def to_json(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self": selfs[i],
                "attrs": s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]


# --- per-call observations ------------------------------------------------
# Each takes (span, fn, args, kwargs), calls fn and records attributes of
# the call that a span alone does not carry.


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _observe_pmf_terms(span, fn, args, kwargs):
    import numpy as np  # not at the top: numpy's import belongs in import_s

    a = _bound(fn, args, kwargs)
    span.attrs["terms"] = int(np.size(a["delta_k"]) * len(a["config"].widths))
    return fn(*args, **kwargs)


def _observe_alloc(span, fn, args, kwargs):
    # numpy reports its buffers to tracemalloc, so the traced peak is the
    # peak allocation made during the call
    tracemalloc.start()
    try:
        return fn(*args, **kwargs)
    finally:
        span.attrs["alloc_bytes"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


def _observe_bytes_written(span, fn, args, kwargs):
    path = _bound(fn, args, kwargs)["path"]
    result = fn(*args, **kwargs)
    span.attrs["bytes"] = os.path.getsize(path)
    return result


def _observe_resamples(span, fn, args, kwargs):
    span.attrs["resamples"] = int(_bound(fn, args, kwargs)["n_resamples"])
    return fn(*args, **kwargs)


OBSERVERS = {
    "crystal.pmf_of_domains": _observe_pmf_terms,
    "crystal.design_overlap": _observe_alloc,
    "biphoton.save_jsa": _observe_bytes_written,
    "biphoton.save_jsi": _observe_bytes_written,
    "measurement.save_counts": _observe_bytes_written,
    "analysis.monte_carlo_uncertainty": _observe_resamples,
}


def _wrap(recorder: SpanRecorder, name: str, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, observe)

    return wrapper


def install(recorder: SpanRecorder, modules) -> dict[str, object]:
    """Wrap every public function defined in ``modules``.

    Every module attribute that refers to a wrapped function, including
    names imported with ``from .x import f``, is rebound to the wrapper.
    Returns the wrappers by span name.
    """
    originals: dict[int, tuple[str, object]] = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                originals[id(value)] = (f"{short}.{attr}", value)
    wrappers = {key: _wrap(recorder, name, fn) for key, (name, fn) in originals.items()}
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and originals[id(value)][1] is value:
                setattr(module, attr, wrappers[id(value)])
    return {originals[key][0]: w for key, w in wrappers.items()}


def _main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    cli = importlib.import_module("qpmforge.cli")
    import_s = time.perf_counter() - t0
    modules = [importlib.import_module(f"qpmforge.{m}") for m in PACKAGE_MODULES]
    recorder = SpanRecorder()
    install(recorder, modules)
    code = cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": recorder.to_json()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
