"""Metric definitions and their computation from one round of stage runs.

A round runs a workload's stage chain once.  Untraced rounds give the
end-to-end metrics; traced rounds give the per-layer metrics from the
spans each stage process wrote.  A run reports the median over its
rounds of every metric.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

STAGES = ("design", "simulate", "hom", "heralded",
          "tofs-sim", "tofs-analyze", "tomo-sim", "tomo-fit")

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("artefact_mb", "MB", "lower", 0.05),
]

PER_LAYER = [
    ("crystal.design_domains.self_s", "s", "lower"),
    ("crystal.design_overlap.self_s", "s", "lower"),
    ("crystal.design_overlap.alloc_mb", "MB", "lower"),
    ("crystal.pmf_of_domains.self_s", "s", "lower"),
    ("crystal.pmf_of_domains.calls", "count", "lower"),
    ("crystal.pmf_terms", "count", "lower"),
    ("biphoton.build_jsa.self_s", "s", "lower"),
    ("biphoton.save_jsa.s", "s", "lower"),
    ("biphoton.save_jsi.s", "s", "lower"),
    ("biphoton.bytes_written", "bytes", "lower"),
    ("analysis.schmidt_decompose.self_s", "s", "lower"),
    ("analysis.schmidt_decompose.calls", "count", "lower"),
    ("analysis.monte_carlo_uncertainty.self_s", "s", "lower"),
    ("analysis.resample_s", "s", "lower"),
    ("measurement.build_transfer.self_s", "s", "lower"),
    ("measurement.build_transfer.calls", "count", "lower"),
    ("measurement.project_to_spectrometer.self_s", "s", "lower"),
    ("measurement.project_to_spectrometer.calls", "count", "lower"),
    ("measurement.simulate_counts.self_s", "s", "lower"),
    ("measurement.save_counts.s", "s", "lower"),
    ("measurement.load_counts.s", "s", "lower"),
    ("measurement.bytes_written", "bytes", "lower"),
    ("tomography.split_bins.self_s", "s", "lower"),
    ("tomography.simulate_tomography.self_s", "s", "lower"),
    ("tomography.analyze_tomography.self_s", "s", "lower"),
    ("tomography.resample_tomography.self_s", "s", "lower"),
    ("tomography.save_tomography_bundle.s", "s", "lower"),
    ("tomography.load_tomography_bundle.s", "s", "lower"),
    ("interference.closed_curve.s", "s", "lower"),
    ("interference.fit_hom.s", "s", "lower"),
    ("config.parse_config.s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    *((f"cli.{s}.untraced_s", "s", "lower") for s in STAGES),
    *((f"stage.{s}.s", "s", "lower") for s in STAGES),
    ("traced.wall_s", "s", "lower"),
]

MB = 1e6


def end_to_end_round(stage_runs: list[dict], wall_s: float, artefact_bytes: int) -> dict[str, float]:
    """``stage_runs``: one dict per stage process with ``rss_bytes``."""
    return {
        "wall_s": wall_s,
        "peak_rss_mb": max(r["rss_bytes"] for r in stage_runs) / MB,
        "artefact_mb": artefact_bytes / MB,
    }


def layer_round(stage_runs: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced round.

    Each stage run carries ``command``, ``seconds`` and the ``trace`` its
    process wrote (``import_s`` and ``spans``).  Layers the round never
    entered read 0.
    """
    spans = defaultdict(list)
    for run in stage_runs:
        for span in run["trace"]["spans"]:
            spans[span["name"]].append(span)

    def total(name, key="self"):
        if key == "self":
            return sum(s["self"] for s in spans[name])
        return sum(s["end"] - s["start"] for s in spans[name])

    def attr_sum(names, attr):
        return sum(s["attrs"].get(attr, 0) for n in names for s in spans[n])

    out: dict[str, float] = {}
    for name in spans:
        out[f"{name}.self_s"] = total(name)
        out[f"{name}.s"] = total(name, "duration")
        out[f"{name}.calls"] = len(spans[name])

    parse = [s["end"] - s["start"] for s in spans["config.parse_config"]]
    mc = spans["analysis.monte_carlo_uncertainty"]
    resamples = attr_sum(["analysis.monte_carlo_uncertainty"], "resamples")
    out.update({
        "crystal.pmf_terms": attr_sum(["crystal.pmf_of_domains"], "terms"),
        "crystal.design_overlap.alloc_mb": max(
            (s["attrs"]["alloc_bytes"] for s in spans["crystal.design_overlap"]), default=0
        ) / MB,
        "biphoton.bytes_written": attr_sum(["biphoton.save_jsa", "biphoton.save_jsi"], "bytes"),
        "measurement.bytes_written": attr_sum(["measurement.save_counts"], "bytes"),
        "analysis.resample_s": (
            sum(s["end"] - s["start"] for s in mc) / resamples if resamples else 0.0
        ),
        "config.parse_config.s": statistics.median(parse) if parse else 0.0,
        "cli.import_s": statistics.median(r["trace"]["import_s"] for r in stage_runs),
        "traced.wall_s": wall_s,
    })
    for stage in STAGES:
        runs = [r for r in stage_runs if r["command"] == stage]
        out[f"cli.{stage}.untraced_s"] = sum(
            s["self"] for r in runs for s in r["trace"]["spans"] if s["name"] == "cli.main"
        )
        out[f"stage.{stage}.s"] = sum(r["seconds"] for r in runs)
    return {name: float(out.get(name, 0.0)) for name, _, _ in PER_LAYER}


def medians(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
