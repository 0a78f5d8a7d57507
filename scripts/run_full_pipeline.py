#!/usr/bin/env python3
"""Drive every pipeline stage in sequence from one config.

Runs the stages of stage_peaks.STAGES, design -> simulate -> hom ->
heralded -> tofs-sim -> tofs-analyze -> tomo-sim -> tomo-fit, in one
process into their subdirectories of --out, then prints each
directory's report.txt and fit.txt.  With --quick the event counts are
scaled down so the whole chain finishes in well under a minute.

The readout pairs share a directory, tofs/ and tomo/, so tofs-analyze
and tomo-fit read what tofs-sim and tomo-sim wrote (unless the config's
[run] input names other data).
"""

import argparse
import os

from stage_peaks import STAGES

from qpmforge import cli
from qpmforge.config import parse_config


def run(stage: str, config: str, out: str, seed: int | None) -> None:
    argv = [stage, "--config", config, "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"stage {stage} failed with exit code {code}")


def show(path: str, name: str = "report.txt") -> None:
    full = os.path.join(path, name)
    if not os.path.exists(full):
        return
    print(f"--- {full}")
    with open(full, "r", encoding="ascii") as fh:
        print(fh.read().rstrip())


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--config",
        default=os.path.join(os.path.dirname(__file__), "..", "configs", "defaults.cfg"),
    )
    ap.add_argument("--out", default="pipeline_out")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument(
        "--quick",
        action="store_true",
        help="scale event counts down for a fast end-to-end check",
    )
    args = ap.parse_args()

    config = args.config
    if args.quick:
        cfg = parse_config(args.config)
        cfg.sections["spectrometer"]["events"] = 2_000_000
        cfg.sections["tomography"]["events_per_projection"] = 500_000
        cfg.sections["hom"]["counts_per_point"] = 3000
        os.makedirs(args.out, exist_ok=True)
        config = os.path.join(args.out, "quick.cfg")
        with open(config, "w", encoding="utf-8") as fh:  # as parse_config reads it
            fh.write(cfg.resolved_text())

    for stage, sub in STAGES.items():
        run(stage, config, os.path.join(args.out, sub), args.seed)
    for sub in dict.fromkeys(STAGES.values()):
        show(os.path.join(args.out, sub))
        show(os.path.join(args.out, sub), "fit.txt")


if __name__ == "__main__":
    main()
