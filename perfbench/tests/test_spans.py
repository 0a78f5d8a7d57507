"""Span recorder, wrapper installation and per-layer aggregation."""

import json
import os
import time
import types

import pytest

import metrics
import spans
import workloads


def _module(name: str, source: str, **globs) -> types.ModuleType:
    mod = types.ModuleType(name)
    mod.__dict__.update(globs)
    exec(source, mod.__dict__)
    return mod


def test_self_time_is_span_minus_children():
    rec = spans.SpanRecorder()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        rec.call("m.inner", inner, (), {})
        rec.call("m.inner", inner, (), {})
        time.sleep(0.01)

    rec.call("m.outer", outer, (), {})
    out, a, b = rec.spans[0], rec.spans[1], rec.spans[2]
    assert (out.name, out.parent, a.parent, b.parent) == ("m.outer", None, 0, 0)
    selfs = rec.self_times()
    assert selfs[0] == pytest.approx(out.duration - a.duration - b.duration, abs=1e-12)
    assert selfs[1] == pytest.approx(a.duration, abs=1e-12)
    assert selfs[0] >= 0.02


def test_install_rebinds_imported_names():
    lower = _module("pkg.lower", "def leaf(x):\n    return x + 1\n\ndef _private():\n    return 0\n")
    upper = _module(
        "pkg.upper",
        "def top(x):\n    return leaf(x) * 2\n",
        leaf=lower.leaf,
    )
    rec = spans.SpanRecorder()
    wrapped = spans.install(rec, [lower, upper])
    assert sorted(wrapped) == ["lower.leaf", "upper.top"]
    assert upper.leaf is lower.leaf is wrapped["lower.leaf"]
    assert upper.top(3) == 8
    assert [(s.name, s.parent) for s in rec.spans] == [("upper.top", None), ("lower.leaf", 0)]


def test_observers_record_call_attributes(tmp_path):
    path = tmp_path / "f.txt"
    src = "def save_jsa(jsa, path):\n    open(path, 'w').write('x' * jsa)\n"
    biphoton = _module("pkg.biphoton", src)
    rec = spans.SpanRecorder()
    spans.install(rec, [biphoton])
    biphoton.save_jsa(7, path=str(path))
    assert rec.spans[0].attrs == {"bytes": 7}


def _trace(command, seconds, import_s, span_list):
    return {"command": command, "seconds": seconds,
            "trace": {"import_s": import_s, "spans": span_list}}


def _span(name, start, end, parent, self_s, **attrs):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "self": self_s, "attrs": attrs}


def test_layer_round_aggregates_spans():
    runs = [
        _trace("tofs-sim", 2.0, 0.8, [
            _span("cli.main", 0.0, 1.0, None, 0.25),
            _span("config.parse_config", 0.0, 0.01, 0, 0.01),
            _span("measurement.save_counts", 0.5, 0.74, 0, 0.24, bytes=100),
        ]),
        _trace("tofs-analyze", 3.0, 0.6, [
            _span("cli.main", 0.0, 2.0, None, 0.5),
            _span("config.parse_config", 0.0, 0.03, 0, 0.03),
            _span("analysis.monte_carlo_uncertainty", 0.1, 1.1, 0, 0.2, resamples=10),
            _span("analysis.schmidt_decompose", 0.2, 0.3, 2, 0.1),
            _span("analysis.schmidt_decompose", 0.3, 0.4, 2, 0.1),
        ]),
    ]
    out = metrics.layer_round(runs, wall_s=5.5)
    assert set(out) == {name for name, _, _ in metrics.PER_LAYER}
    assert out["analysis.schmidt_decompose.calls"] == 2
    assert out["analysis.schmidt_decompose.self_s"] == pytest.approx(0.2)
    assert out["analysis.resample_s"] == pytest.approx(0.1)
    assert out["measurement.bytes_written"] == 100
    assert out["config.parse_config.s"] == pytest.approx(0.02)
    assert out["cli.import_s"] == pytest.approx(0.7)
    assert out["cli.tofs-analyze.untraced_s"] == 0.5
    assert out["stage.tofs-sim.s"] == 2.0
    assert out["traced.wall_s"] == 5.5
    assert out["crystal.design_overlap.self_s"] == 0.0


def test_benchmark_json_matches_metric_definitions():
    path = os.path.join(os.path.dirname(os.path.dirname(metrics.__file__)), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
