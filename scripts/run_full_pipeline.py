#!/usr/bin/env python3
"""Drive every pipeline stage in sequence from one config.

Runs design -> simulate -> hom -> heralded -> tofs-sim -> tofs-analyze
-> tomo-sim -> tomo-fit into subdirectories of --out and prints the
headline numbers from each stage.  With --quick the event counts are
scaled down so the whole chain finishes in well under a minute.
"""

import argparse
import os

from qpmforge import cli
from qpmforge.config import parse_config


def run(stage: str, config: str, out_root: str, seed: int | None) -> str:
    out = os.path.join(out_root, stage.replace("-", "_"))
    argv = [stage, "--config", config, "--out", out]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"stage {stage} failed with exit code {code}")
    return out


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

    for stage in ("design", "simulate", "hom", "heralded"):
        show(run(stage, config, args.out, args.seed))
        if stage == "hom":
            show(os.path.join(args.out, "hom"), "fit.txt")

    tofs = run("tofs-sim", config, args.out, args.seed)
    # the analyzer defaults to counts.csv inside its own --out directory
    counts = os.path.join(tofs, "counts.csv")
    show(run_on_input("tofs-analyze", config, args.out, args.seed, counts, "analyze.cfg"))

    bundle = os.path.join(run("tomo-sim", config, args.out, args.seed), "tomo")
    show(run_on_input("tomo-fit", config, args.out, args.seed, bundle, "fit.cfg"))


def run_on_input(stage: str, config: str, out_root: str, seed: int | None,
                 data: str, config_name: str) -> str:
    """Run an analysis stage on `data` through a copy of the config with [run] input set."""
    cfg = parse_config(config)
    cfg.sections["run"]["input"] = data
    out = os.path.join(out_root, stage.replace("-", "_"))
    os.makedirs(out, exist_ok=True)
    resolved = os.path.join(out, config_name)
    with open(resolved, "w", encoding="utf-8") as fh:  # as parse_config reads it
        fh.write(cfg.resolved_text())
    return run(stage, resolved, out_root, seed)


if __name__ == "__main__":
    main()
