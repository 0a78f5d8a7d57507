"""Smoke runs of the command-line scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

from qpmforge.config import parse_config

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_purity_scan_tabulates_each_step(tmp_path):
    result = run_script("purity_scan.py", "--steps", "2", "--grid", "128", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["purity", "K", "F8", "gvm_slope_s_per_m"]
    assert len(rows) == 2
    assert all(len(row.split()) == 4 for row in rows)


def small_config(tmp_path, **sections):
    """A 256-point copy of configs/defaults.cfg with `sections` overriding keys."""
    cfg = parse_config(ROOT / "configs" / "defaults.cfg")
    cfg.sections["grid"]["points"] = 256
    for name, values in sections.items():
        cfg.sections[name].update(values)
    config = tmp_path / "small.cfg"
    config.write_text(cfg.resolved_text())
    return config


def test_full_pipeline_quick_runs_every_stage(tmp_path):
    config = small_config(tmp_path)
    out = tmp_path / "out"
    result = run_script(
        "run_full_pipeline.py", "--quick", "--config", str(config), "--out", str(out),
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    rows = (out / "tomo_fit" / "report.txt").read_text().splitlines()[1:]
    assert len(rows) == 8


def test_stage_peaks_reports_every_stage(tmp_path):
    config = small_config(
        tmp_path,
        spectrometer={"events": 100_000},
        tomography={"events_per_projection": 10_000, "resamples": 10},
    )
    out = tmp_path / "out"
    result = run_script(
        "stage_peaks.py", "--config", str(config), "--out", str(out), "--seed", "3",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split() == ["stage", "wall_s", "peak_rss_mb"]
    assert [row.split()[0] for row in rows] == [
        "design", "simulate", "hom", "heralded",
        "tofs-sim", "tofs-analyze", "tomo-sim", "tomo-fit",
    ]
    for row in rows:
        seconds, peak_mb = map(float, row.split()[1:])
        # every stage imports numpy, which alone holds more than 10 MB
        assert seconds > 0.0 and peak_mb > 10.0
    assert len((out / "tofs" / "report.txt").read_text().splitlines()) == 3
    assert len((out / "tomo" / "report.txt").read_text().splitlines()) == 9
