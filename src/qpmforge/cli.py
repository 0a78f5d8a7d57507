"""Batch command-line front-end.

Every subcommand reads one config file, writes its outputs plus a
manifest echoing the fully resolved configuration into the output
directory, and is bit-reproducible: the same config and seed produce
byte-identical files.  Exit codes: 0 success, 2 configuration problem,
3 numeric failure during the run.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import monte_carlo_uncertainty, report_from_jsa, schmidt_number
from .biphoton import build_jsa, save_jsa, save_jsi
from .config import ConfigError, RunConfig, parse_config
from .crystal import design_domains, design_overlap, pmf_of_domains, save_domains, target_pmf
from .interference import (
    FitError,
    HomCurve,
    closed_curve,
    delta_from_bin_hz,
    fit_hom,
    save_curve,
)
from .measurement import (
    MeasurementError,
    amplitude_from_counts,
    load_counts,
    reconstruct_jsi,
    save_counts,
    simulate_counts,
)
from .tomography import (
    HyperState,
    analyze_tomography,
    default_bin_labels,
    load_tomography_bundle,
    save_tomography_bundle,
    simulate_tomography,
    split_bins,
    tomography_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _write_manifest(out_dir: str, command: str, cfg: RunConfig) -> None:
    head = f"command = {command}\n\n"
    _write_text(os.path.join(out_dir, "manifest.txt"), head + cfg.resolved_text())


def _source(cfg: RunConfig):
    comb = cfg.comb_spec()
    if cfg["crystal"]["source"] == "designed":
        return design_domains(comb, cfg["crystal"]["domain_width_m"])
    return comb


def _jsa(cfg: RunConfig):
    return build_jsa(
        _source(cfg), cfg.pump_spec(), cfg.dispersion_map(), cfg.frequency_grid()
    )


def cmd_design(cfg: RunConfig, out_dir: str) -> None:
    comb = cfg.comb_spec()
    width = cfg["crystal"]["domain_width_m"]
    domains = design_domains(comb, width)
    save_domains(domains, os.path.join(out_dir, "domains.tsv"))

    half_span = (comb.pair_count + 0.5) * (comb.spacing or 1.0 / comb.peak_width) \
        + 8.0 / comb.peak_width
    dk = comb.center + np.linspace(-half_span, half_span, 4001)
    target = target_pmf(comb, dk)
    designed = pmf_of_domains(domains, dk)
    table = np.column_stack([dk, np.abs(target), np.abs(designed)])
    np.savetxt(
        os.path.join(out_dir, "pmf_curve.tsv"),
        table,
        fmt="%.12g",
        delimiter="\t",
        header="dk_rad_per_m\ttarget_abs\tdesigned_abs",
    )

    flips = int(np.sum(domains.orientations[1:] != domains.orientations[:-1]))
    overlap = design_overlap(domains, comb)
    _write_text(
        os.path.join(out_dir, "report.txt"),
        "\n".join(
            [
                f"domain_count = {domains.widths.size}",
                f"orientation_flips = {flips}",
                f"target_overlap = {overlap:.6f}",
                f"total_length_m = {domains.total_length:.12g}",
            ]
        ),
    )


def cmd_simulate(cfg: RunConfig, out_dir: str) -> None:
    jsa = _jsa(cfg)
    save_jsa(jsa, os.path.join(out_dir, "jsa.csv"))
    save_jsi(jsa, os.path.join(out_dir, "jsi.csv"))
    n_modes = 2 * cfg["crystal"]["pair_count"]
    report = report_from_jsa(jsa, n_modes=n_modes)
    proxy = 1.0 / report.schmidt_number
    _write_text(
        os.path.join(out_dir, "report.txt"),
        report.to_text() + f"heralded_purity_proxy = {proxy:.6f}\n",
    )


def _cmd_hom(cfg: RunConfig, out_dir: str, kind: str) -> None:
    hom = cfg["hom"]
    taus = np.linspace(hom["tau_min_s"], hom["tau_max_s"], hom["points"])
    n_pairs = cfg["crystal"]["pair_count"]
    delta = delta_from_bin_hz(cfg["crystal"]["bin_spacing_hz"])
    sigma = cfg.pump_spec().sigma
    curve = closed_curve(kind, taus, n_pairs, delta, sigma)
    save_curve(curve, os.path.join(out_dir, "curve.tsv"))

    counts_per_point = hom["counts_per_point"]
    if counts_per_point > 0:
        rng = np.random.default_rng(cfg["run"]["seed"])
        expected = 2.0 * counts_per_point * curve.values
        noisy = HomCurve(
            delays=taus,
            values=rng.poisson(expected).astype(float),
            kind=kind,
            metadata={"counts_per_point": counts_per_point},
        )
        save_curve(noisy, os.path.join(out_dir, "counts.tsv"))
        # a heralded curve carries no beat, so its fit holds delta at the
        # configured spacing; the two-photon fit recovers it from the beat
        initial = {"delta": delta} if kind == "heralded" else None
        fit = fit_hom(noisy, n_pairs=n_pairs, initial=initial)
        _write_text(os.path.join(out_dir, "fit.txt"), fit.to_text())


def cmd_hom(cfg: RunConfig, out_dir: str) -> None:
    _cmd_hom(cfg, out_dir, "two_photon")


def cmd_heralded(cfg: RunConfig, out_dir: str) -> None:
    _cmd_hom(cfg, out_dir, "heralded")


def cmd_tofs_sim(cfg: RunConfig, out_dir: str) -> None:
    jsa = _jsa(cfg)
    spectro = cfg["spectrometer"]
    counts = simulate_counts(
        jsa,
        cfg.spectrometer_spec(),
        int(spectro["events"]),
        seed=cfg["run"]["seed"],
        max_alias_fraction=spectro["max_alias_fraction"],
    )
    save_counts(counts, os.path.join(out_dir, "counts.csv"))


def cmd_tofs_analyze(cfg: RunConfig, out_dir: str) -> None:
    path = cfg["run"]["input"] or os.path.join(out_dir, "counts.csv")
    counts = load_counts(path)
    rec = reconstruct_jsi(counts)
    t = counts.time_centers
    np.savetxt(
        os.path.join(out_dir, "marginals.tsv"),
        np.column_stack([t, rec.signal_marginal, rec.idler_marginal]),
        fmt="%.12g",
        delimiter="\t",
        header="time_s\tsignal_marginal\tidler_marginal",
    )
    k_point = schmidt_number(amplitude_from_counts(counts))
    resamples = cfg["spectrometer"]["resamples"]
    k_mean, k_std = monte_carlo_uncertainty(
        counts.values,
        metric="schmidt_number",
        n_resamples=resamples,
        seed=cfg["run"]["seed"],
    )
    _write_text(
        os.path.join(out_dir, "report.txt"),
        "\n".join(
            [
                f"total_events = {counts.total}",
                f"schmidt_number = {k_point:.6f}",
                f"schmidt_number_resampled_mean = {k_mean:.6f}",
                f"schmidt_number_std = {k_std:.6f}",
                f"resamples = {resamples}",
            ]
        ),
    )


def _hyper_state(cfg: RunConfig, weights: np.ndarray, labels: np.ndarray) -> HyperState:
    n = labels.size
    return HyperState(
        phases=cfg.bin_values("phases_rad", n),
        weights=weights,
        labels=labels,
        drift=cfg.bin_values("drift_rad", n),
    )


def cmd_tomo_sim(cfg: RunConfig, out_dir: str) -> None:
    jsa = _jsa(cfg)
    spacing_hz = cfg["crystal"]["bin_spacing_hz"]
    labels, parts, weights = split_bins(
        jsa, spacing_hz=spacing_hz, pair_count=cfg["crystal"]["pair_count"]
    )
    hyper = _hyper_state(cfg, weights, labels)
    tomo = cfg["tomography"]
    counts = simulate_tomography(
        hyper,
        parts,
        jsa.grid,
        cfg.spectrometer_spec(),
        events=tomo["events_per_projection"],
        seed=cfg["run"]["seed"],
        max_alias_fraction=cfg["spectrometer"]["max_alias_fraction"],
    )
    bundle = os.path.join(out_dir, "tomo")
    save_tomography_bundle(
        bundle,
        counts,
        manifest={
            "events_per_projection": tomo["events_per_projection"],
            "seed": cfg["run"]["seed"],
            "bin_spacing_hz": f"{spacing_hz:.12g}",
            "phases_rad": ",".join(f"{p:.12g}" for p in hyper.phases),
            "drift_rad": ",".join(f"{d:.12g}" for d in hyper.drift),
        },
    )


def cmd_tomo_fit(cfg: RunConfig, out_dir: str) -> None:
    bundle = cfg["run"]["input"] or os.path.join(out_dir, "tomo")
    counts = load_tomography_bundle(bundle)
    tomo = cfg["tomography"]
    results = analyze_tomography(
        counts,
        labels=default_bin_labels(cfg["crystal"]["pair_count"]),
        spacing_hz=cfg["crystal"]["bin_spacing_hz"],
        width=tomo["gate_width_s"],
        n_resamples=tomo["resamples"],
        seed=cfg["run"]["seed"],
    )
    _write_text(os.path.join(out_dir, "report.txt"), tomography_report(results))
    rows = np.array([np.concatenate([[r.label], r.probabilities]) for r in results])
    np.savetxt(
        os.path.join(out_dir, "probabilities.tsv"),
        rows,
        fmt="%.12g",
        delimiter="\t",
        header="bin\t" + "\t".join(f"p_{j}{k}" for j in range(1, 5) for k in range(1, 5)),
    )


_COMMANDS = {
    "design": cmd_design,
    "simulate": cmd_simulate,
    "hom": cmd_hom,
    "heralded": cmd_heralded,
    "tofs-sim": cmd_tofs_sim,
    "tofs-analyze": cmd_tofs_analyze,
    "tomo-sim": cmd_tomo_sim,
    "tomo-fit": cmd_tomo_fit,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpmforge",
        description="Frequency-bin biphoton source design and analysis pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run configuration file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override [run] seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg.sections["run"]["seed"] = args.seed
        os.makedirs(args.out, exist_ok=True)
        _COMMANDS[args.command](cfg, args.out)
        _write_manifest(args.out, args.command, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeasurementError, FitError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
