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

from .analysis import report_from_jsa, schmidt_number, schmidt_number_std
from .artefact import write_table
from .biphoton import build_jsa, build_jsi, save_jsa, save_jsi
from .config import ConfigError, RunConfig, _check_seed, parse_config
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
    load_counts,
    marginals,
    save_counts,
    simulate_counts,
)
from .tomography import (
    GateError,
    HyperState,
    analyze_tomography,
    load_tomography_bundle,
    save_tomography_bundle,
    simulate_tomography,
    tomography_report,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _write_columns(path: str, names: list[str], table: np.ndarray) -> None:
    """A numeric table, ``%.12g`` tab-separated, below a ``# columns=...`` header."""
    write_table(path, {"columns": ",".join(names)}, "\t".join(["%.12g"] * len(names)), table)


def _write_manifest(out_dir: str, command: str, cfg: RunConfig) -> None:
    """The resolved config, in UTF-8 as parse_config reads it: the echo of
    a value such as an input path is the config's own text."""
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"command = {command}\n\n" + cfg.resolved_text())


def _source(cfg: RunConfig):
    comb = cfg.comb_spec()
    if cfg["crystal"]["source"] == "designed":
        return design_domains(comb, cfg["crystal"]["domain_width_m"])
    return comb


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
    _write_columns(
        os.path.join(out_dir, "pmf_curve.tsv"),
        ["dk_rad_per_m", "target_abs", "designed_abs"],
        np.column_stack([dk, np.abs(target), np.abs(designed)]),
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
    jsa = build_jsa(_source(cfg), cfg.pump_spec(), cfg.dispersion_map(), cfg.frequency_grid())
    save_jsa(jsa, os.path.join(out_dir, "jsa.csv"))
    save_jsi(jsa, os.path.join(out_dir, "jsi.csv"))
    n_modes = 2 * cfg["crystal"]["pair_count"]
    report = report_from_jsa(jsa, n_modes=n_modes)
    proxy = 1.0 / report.schmidt_number
    _write_text(
        os.path.join(out_dir, "report.txt"),
        report.to_text() + f"heralded_purity_proxy = {proxy:.6f}\n",
    )


def _require_bin_spacing(cfg: RunConfig) -> float:
    """The bin spacing of a stage that tells the bins apart: a HOM beat
    or a time gate per bin.  parse_config allows a zero spacing, which
    merges a single pair into one peak, for the stages that need no bins."""
    spacing = cfg["crystal"]["bin_spacing_hz"]
    if spacing == 0:
        raise ConfigError(
            f"{cfg.path}: [crystal] bin_spacing_hz = 0 merges the bins into one peak;"
            " hom, heralded, tomo-sim and tomo-fit need it > 0"
        )
    return spacing


def _cmd_hom(cfg: RunConfig, out_dir: str, kind: str) -> None:
    spacing = _require_bin_spacing(cfg)
    hom = cfg["hom"]
    taus = np.linspace(hom["tau_min_s"], hom["tau_max_s"], hom["points"])
    n_pairs = cfg["crystal"]["pair_count"]
    delta = delta_from_bin_hz(spacing)
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
        )
        save_curve(noisy, os.path.join(out_dir, "counts.tsv"))
        # a heralded curve carries no beat, so its fit holds delta at the
        # configured spacing; the two-photon fit recovers it from the beat
        fit = fit_hom(noisy, n_pairs, delta if kind == "heralded" else None)
        _write_text(os.path.join(out_dir, "fit.txt"), fit.to_text())


def cmd_hom(cfg: RunConfig, out_dir: str) -> None:
    _cmd_hom(cfg, out_dir, "two_photon")


def cmd_heralded(cfg: RunConfig, out_dir: str) -> None:
    _cmd_hom(cfg, out_dir, "heralded")


def cmd_tofs_sim(cfg: RunConfig, out_dir: str) -> None:
    grid = cfg.frequency_grid()
    # the readout is phase-blind: it needs |JSA|^2, never the amplitude
    intensity, center, _ = build_jsi(_source(cfg), cfg.pump_spec(), cfg.dispersion_map(), grid)
    spectro = cfg["spectrometer"]
    counts = simulate_counts(
        intensity,
        grid,
        cfg.spectrometer_spec(),
        center,
        int(spectro["events"]),
        seed=cfg["run"]["seed"],
        max_alias_fraction=spectro["max_alias_fraction"],
    )
    save_counts(counts, os.path.join(out_dir, "counts.csv"))


def cmd_tofs_analyze(cfg: RunConfig, out_dir: str) -> None:
    path = cfg["run"]["input"] or os.path.join(out_dir, "counts.csv")
    counts = load_counts(path)
    _write_columns(
        os.path.join(out_dir, "marginals.tsv"),
        ["time_s", "signal_marginal", "idler_marginal"],
        np.column_stack([counts.spec.time_centers, *marginals(counts)]),
    )
    _write_text(
        os.path.join(out_dir, "report.txt"),
        "\n".join(
            [
                f"total_events = {counts.total}",
                f"schmidt_number = {schmidt_number(np.sqrt(counts.values)):.6f}",
                f"schmidt_number_std = {schmidt_number_std(counts.values):.6f}",
            ]
        ),
    )


def cmd_tomo_sim(cfg: RunConfig, out_dir: str) -> None:
    spacing = _require_bin_spacing(cfg)
    grid = cfg.frequency_grid()
    # as in tofs-sim, the readout needs |JSA|^2 only
    intensity, center, _ = build_jsi(_source(cfg), cfg.pump_spec(), cfg.dispersion_map(), grid)
    n = 2 * cfg["crystal"]["pair_count"]
    projections = simulate_tomography(
        HyperState(cfg.bin_values("phases_rad", n), cfg.bin_values("drift_rad", n)),
        intensity,
        grid,
        cfg.spectrometer_spec(),
        center,
        spacing_hz=spacing,
        events=cfg["tomography"]["events_per_projection"],
        seed=cfg["run"]["seed"],
        max_alias_fraction=cfg["spectrometer"]["max_alias_fraction"],
    )
    save_tomography_bundle(os.path.join(out_dir, "tomo"), projections)


def cmd_tomo_fit(cfg: RunConfig, out_dir: str) -> None:
    spacing = _require_bin_spacing(cfg)
    bundle = cfg["run"]["input"] or os.path.join(out_dir, "tomo")
    tomo = cfg["tomography"]
    try:
        # each file is checked on its own calibration as it is read, before
        # any output is written
        results = analyze_tomography(
            load_tomography_bundle(bundle),
            pair_count=cfg["crystal"]["pair_count"],
            spacing_hz=spacing,
            width=tomo["gate_width_s"],
            n_resamples=tomo["resamples"],
            seed=cfg["run"]["seed"],
        )
    except GateError as exc:
        raise ConfigError(
            f"{cfg.path}: [tomography] gate_width_s = {tomo['gate_width_s']:.4g} s is"
            f" wider than the {exc.gap:.4g} s between adjacent bins at [crystal]"
            f" bin_spacing_hz = {spacing:.4g}"
        ) from exc
    _write_text(os.path.join(out_dir, "report.txt"), tomography_report(results))
    rows = np.array([np.concatenate([[r.label], r.probabilities]) for r in results])
    _write_columns(
        os.path.join(out_dir, "probabilities.tsv"),
        ["bin"] + [f"p_{j}{k}" for j in range(1, 5) for k in range(1, 5)],
        rows,
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


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_is_new = not os.path.exists(args.out)
    code = _run(args)
    # a failed run leaves no empty output directory of its own behind;
    # one that existed before the run is never removed
    if code != EXIT_OK and out_is_new:
        try:
            os.rmdir(args.out)
        except OSError:  # never made, or the stage wrote into it
            pass
    return code


if __name__ == "__main__":
    sys.exit(main())
