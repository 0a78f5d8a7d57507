#!/usr/bin/env python3
"""Each CLI stage's own wall time and peak resident memory.

Runs the eight stages in pipeline order on one config, each as its own
``python -m qpmforge.cli`` process, and prints one line per stage: its
wall seconds and the peak resident set of that process in MB (10^6
bytes), read from ``os.wait4``.  On Linux a child's peak starts from its
parent's resident set at the fork, so this parent imports neither numpy
nor the package and the floor under every stage is a bare interpreter.

    python3 scripts/stage_peaks.py --config configs/defaults.cfg --out runs/peaks --seed 1

With ``--repeat N`` the chain runs N times over the same directories, and
each stage's line gives the median of its N wall times and the largest of
its N peaks.

The readout pairs share a directory, so ``tofs-analyze`` and
``tomo-fit`` read what ``tofs-sim`` and ``tomo-sim`` wrote (unless the
config's ``[run] input`` names other data).
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# stage -> output subdirectory
STAGES = {
    "design": "design",
    "simulate": "simulate",
    "hom": "hom",
    "heralded": "heralded",
    "tofs-sim": "tofs",
    "tofs-analyze": "tofs",
    "tomo-sim": "tomo",
    "tomo-fit": "tomo",
}

# ru_maxrss is in KiB on Linux and in bytes on macOS
_RSS_BYTES = 1 if sys.platform == "darwin" else 1024


def spawn(args: list[str], env: dict) -> tuple[int, float, float]:
    """Run one stage; returns (exit code, wall seconds, peak RSS in MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "qpmforge.cli", *args], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss * _RSS_BYTES / 1e6


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--config", required=True, help="run configuration file")
    ap.add_argument("--out", required=True, help="output directory, one subdirectory per stage")
    ap.add_argument("--seed", type=int, default=None, help="override [run] seed")
    ap.add_argument("--repeat", type=int, default=1, help="chains to run (default 1)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    runs = {stage: [] for stage in STAGES}
    for _ in range(args.repeat):
        for stage, sub in STAGES.items():
            argv = [stage, "--config", args.config, "--out", os.path.join(args.out, sub)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            code, seconds, peak_mb = spawn(argv, env)
            if code != 0:
                print(f"{stage} exited {code}", file=sys.stderr)
                return code if code > 0 else 1
            runs[stage].append((seconds, peak_mb))
    print(f"{'stage':<14s}{'wall_s':>8s}{'peak_rss_mb':>13s}")
    for stage, samples in runs.items():
        seconds = statistics.median(s for s, _ in samples)
        peak_mb = max(p for _, p in samples)
        print(f"{stage:<14s}{seconds:8.2f}{peak_mb:13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
