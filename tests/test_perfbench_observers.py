"""The benchmark's span observers against the package functions they wrap.

``perfbench/spans.py`` times each CLI stage by wrapping the package's
public functions, and a few wrappers (its ``OBSERVERS``) bind arguments
of the wrapped call by name to record what the call did.  Each observer
runs here on a small real call, so a renamed parameter fails this suite
rather than only the traced benchmark run.  ``spans.py`` is loaded from
its file and not edited.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from qpmforge.biphoton import FrequencyGrid, build_jsa
from qpmforge.measurement import simulate_counts

SPANS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.fixture(scope="module")
def calls(comb, pump, dispersion, spectro, designed_crystal, tmp_path_factory):
    """Span name -> (args, kwargs, attribute, its expected value or a predicate)."""
    tmp = tmp_path_factory.mktemp("observers")
    jsa = build_jsa(comb, pump, dispersion, FrequencyGrid.symmetric(64, 2.5e12))
    counts = simulate_counts(
        jsa.intensity, jsa.grid, spectro, jsa.center_frequency_hz, 10_000,
        seed=0, max_alias_fraction=0.02,
    )
    dk = comb.center + np.linspace(-1e3, 1e3, 5)
    paths = {name: str(tmp / name) for name in ("jsa.csv", "jsi.csv", "counts.csv")}

    def size_of(name):
        return lambda value: value == os.path.getsize(paths[name])

    return {
        "crystal.pmf_of_domains": (
            (designed_crystal, dk), {}, "terms", dk.size * designed_crystal.widths.size,
        ),
        "crystal.design_overlap": (
            (designed_crystal, comb), {}, "alloc_bytes", lambda value: value > 0,
        ),
        "biphoton.save_jsa": ((jsa, paths["jsa.csv"]), {}, "bytes", size_of("jsa.csv")),
        "biphoton.save_jsi": ((jsa, paths["jsi.csv"]), {}, "bytes", size_of("jsi.csv")),
        "measurement.save_counts": (
            (counts, paths["counts.csv"]), {}, "bytes", size_of("counts.csv"),
        ),
        "analysis.monte_carlo_uncertainty": (
            (counts.values,), {"n_resamples": 3, "seed": 1}, "resamples", 3,
        ),
    }


@pytest.mark.parametrize("name", sorted(spans.OBSERVERS))
def test_observer_runs_against_wrapped_function(name, calls):
    assert name in calls, f"no example call for the observer of {name}"
    module, attr = name.split(".")
    fn = getattr(importlib.import_module(f"qpmforge.{module}"), attr)
    args, kwargs, key, expected = calls[name]
    span = spans.Span(name, 0.0, 0.0, None)
    spans.OBSERVERS[name](span, fn, args, kwargs)
    value = span.attrs[key]
    if callable(expected):
        assert expected(value), (key, value)
    else:
        assert value == expected
