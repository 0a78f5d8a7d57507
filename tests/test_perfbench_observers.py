"""The benchmark's span observers and report readers against the package.

``perfbench/spans.py`` times each CLI stage by wrapping the package's
public functions, and a few wrappers (its ``OBSERVERS``) bind arguments
of the wrapped call by name to record what the call did.  Each observer
runs here on a small real call, so a renamed parameter fails this suite
rather than only the traced benchmark run.  Likewise ``tomo-fit``'s
report is read here by ``perfbench/checks.py``'s own reader, so a row
it cannot parse fails this suite rather than the benchmark's checks.
Both files are loaded from their paths and not edited.
"""

import importlib
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from qpmforge import cli
from qpmforge.biphoton import FrequencyGrid, build_jsa
from qpmforge.config import default_config
from qpmforge.measurement import simulate_counts
from qpmforge.tomography import analyze_tomography, load_tomography_bundle

import oracles

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# spans the benchmark still observes whose function moved out of the
# package into the test oracles; no stage calls them
MOVED = {"analysis.monte_carlo_uncertainty": oracles.monte_carlo_uncertainty}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
checks = _load("checks")


@pytest.fixture(scope="module")
def calls(comb, pump, dispersion, spectro, designed_crystal, tmp_path_factory):
    """Span name -> (args, kwargs, attribute, its expected value or a predicate)."""
    tmp = tmp_path_factory.mktemp("observers")
    grid = FrequencyGrid.symmetric(64, 2.5e12)
    jsa = build_jsa(comb, pump, dispersion, grid)
    counts = simulate_counts(
        jsa.intensity, spectro, 10_000, seed=0, max_alias_fraction=0.02,
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
    fn = MOVED.get(name) or getattr(importlib.import_module(f"qpmforge.{module}"), attr)
    args, kwargs, key, expected = calls[name]
    span = spans.Span(name, 0.0, 0.0, None)
    spans.OBSERVERS[name](span, fn, args, kwargs)
    value = span.attrs[key]
    if callable(expected):
        assert expected(value), (key, value)
    else:
        assert value == expected


def test_tomo_fit_report_reads_as_the_benchmark_reads_it(tmp_path):
    # every row carries both stds in the 7-token form the reader takes,
    # and each parsed value is the analysis's own, to the report's digits
    cfg = default_config()
    cfg.sections["crystal"]["length_m"] = 0.005
    cfg.sections["grid"]["points"] = 128
    cfg.sections["tomography"]["events_per_projection"] = 10_000
    cfg.sections["tomography"]["drift_rad"] = tuple(np.linspace(0.0, 1.4, 8))
    config = tmp_path / "run.cfg"
    config.write_text(cfg.resolved_text())
    out = tmp_path / "tomo"
    for stage in ("tomo-sim", "tomo-fit"):
        assert cli.main([stage, "--config", str(config), "--out", str(out)]) == 0, stage
    rows = checks.read_tomography_report(out / "report.txt")
    results = analyze_tomography(
        load_tomography_bundle(out / "tomo"), 4, cfg["crystal"]["bin_spacing_hz"],
        cfg["tomography"]["gate_width_s"],
    )
    assert sorted(rows) == checks.bin_labels(4) == [r.label for r in results]
    for r in results:
        row = rows[r.label]
        assert row["events"] == r.events
        for key in ("purity", "purity_std", "fidelity", "fidelity_std", "phase"):
            assert row[key] == pytest.approx(getattr(r, key), abs=5e-5), key
        assert row["purity_std"] > 0 and row["fidelity_std"] > 0
