"""Fixtures for the benchmark's own tests.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The artefact fixtures run each workload's stage chain once (about 30 s
in total) so the checks are tested against real program output.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def _artefacts(tmp_path_factory, workload: str):
    work = str(tmp_path_factory.mktemp(workload))
    plan = workloads.build(workload, run.ROOT, work, seed=0)
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    result = run.run_round(plan, env, work, seed=0, trace=False)
    assert all(r["exit"] == 0 for r in result["runs"]), result["runs"]
    assert result["check_failures"] == []
    return plan


@pytest.fixture(scope="session")
def designed(tmp_path_factory):
    return _artefacts(tmp_path_factory, "designed-source")


@pytest.fixture(scope="session")
def tofs(tmp_path_factory):
    return _artefacts(tmp_path_factory, "tofs-readout")


@pytest.fixture(scope="session")
def tomo(tmp_path_factory):
    return _artefacts(tmp_path_factory, "tomography")
