"""Benchmark of the qpmforge pipeline: design -> JSA -> readout -> tomography.

Run from the root of a checkout::

    python3 perfbench/run.py --workload designed-source --seed 0 --seconds 20 --trace 0

Each stage runs as its own ``python -m qpmforge.cli <stage>`` process,
with ``src/`` on ``PYTHONPATH``.  The run first times a few fresh
interpreters that import ``qpmforge.cli`` and parse the workload's config
(``setup_s``), then repeats whole rounds of the workload's stage chain
until ``--seconds`` have passed, checking every stage's outputs after
each round.  ``--trace 1`` runs the stages through ``perfbench/spans.py``
and reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every stage process is one
operation; a non-zero exit or a failed check counts it as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ("src/qpmforge/cli.py", "configs/defaults.cfg", "configs/designed_crystal.cfg")

SETUP_PROBES = 5     # timed set-up probes per run, after one untimed warm-up
STAGE_LIMIT_S = 120  # a stage still running after this is killed and counted failed

PROBE = (
    "import sys\n"
    "import qpmforge.cli\n"
    "from qpmforge.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
)


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _spawn(cmd: list[str], env: dict, log_path: str) -> tuple[int, float, int]:
    """Run one process; returns (exit code, wall seconds, peak RSS bytes)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(STAGE_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted: end the child before leaving, so none outlives the run
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss * 1024


def _tail(path: str, lines: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:]).rstrip()


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def setup_times(plan: workloads.Plan, env: dict, work: str) -> list[float]:
    cmd = [sys.executable, "-c", PROBE, plan.probe_config]
    times = []
    for i in range(SETUP_PROBES + 1):
        code, seconds, _ = _spawn(cmd, env, os.path.join(work, "setup.log"))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {_tail(os.path.join(work, 'setup.log'))}")
        if i:
            times.append(seconds)
    return times


def run_round(plan: workloads.Plan, env: dict, work: str, seed: int, trace: bool) -> dict:
    for d in plan.out_dirs:
        shutil.rmtree(d, ignore_errors=True)
    runs = []
    start = time.perf_counter()
    for i, stage in enumerate(plan.stages):
        args = [stage.command, "--config", stage.config, "--out", stage.out, "--seed", str(seed)]
        spans_path = os.path.join(work, f"spans_{i}.json")
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "spans.py"), spans_path, *args]
        else:
            cmd = [sys.executable, "-m", "qpmforge.cli", *args]
        log = os.path.join(work, f"stage_{i}.log")
        code, seconds, rss = _spawn(cmd, env, log)
        run = {"command": stage.command, "seconds": seconds, "rss_bytes": rss, "exit": code}
        if code != 0:
            _log(f"{stage.command} exited {code}: {_tail(log)}")
        elif trace:
            with open(spans_path, "r", encoding="utf-8") as fh:
                run["trace"] = json.load(fh)
        runs.append(run)
    wall = time.perf_counter() - start

    failures = []
    for stage, run in zip(plan.stages, runs):
        if run["exit"] == 0:
            found = stage.check(stage.out, plan.configs[stage.config])
            for msg in found:
                _log(f"{stage.command} check failed: {msg}")
            run["check_failed"] = bool(found)
            failures += found
    return {
        "runs": runs,
        "wall": wall,
        "artefact_bytes": sum(_dir_bytes(d) for d in plan.out_dirs),
        "check_failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        _log(f"{ROOT} is not a qpmforge checkout: missing {', '.join(missing)}")
        return 2

    work = os.path.join(HERE, "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    plan = workloads.build(args.workload, ROOT, work, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )

    setup = setup_times(plan, env, work)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(plan, env, work, args.seed, bool(args.trace)))
        _log(f"{args.workload} round {len(rounds)}: {rounds[-1]['wall']:.3f} s")

    attempted = sum(len(r["runs"]) for r in rounds)
    failed = sum(
        1 for r in rounds for run in r["runs"] if run["exit"] != 0 or run.get("check_failed")
    )
    complete = [r for r in rounds if all(run["exit"] == 0 for run in r["runs"])]
    values: dict[str, float] = {}
    if args.trace:
        units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        if complete:
            values = metrics.medians([metrics.layer_round(r["runs"], r["wall"]) for r in complete])
    else:
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        if complete:
            values = metrics.medians([
                metrics.end_to_end_round(r["runs"], r["wall"], r["artefact_bytes"])
                for r in complete
            ])
            values["setup_s"] = statistics.median(setup)

    result = {
        "correct": not any(r["check_failures"] for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units if name in values},
    }
    for name, m in result["metrics"].items():
        print(f"{name:46s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}  failed {failed}  rounds {len(rounds)}")
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
