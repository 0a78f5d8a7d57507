"""Shared fixtures and the acceptance-criteria terminal summary.

Heavy objects (designed crystal, 1024^2 amplitudes) are session-scoped
so the whole suite builds them once.  Tests marked with
``criterion(num, label)`` feed a one-line-per-criterion verdict table
printed after the run.
"""

import pytest

from qpmforge.biphoton import build_jsa
from qpmforge.config import default_config
from qpmforge.crystal import design_domains

_CRITERIA: dict[int, dict] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, label): ties a test to one acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, label = marker.args
    entry = _CRITERIA.setdefault(int(num), {"label": label, "outcomes": []})
    if hasattr(rep, "wasxfail"):
        entry["outcomes"].append("xfail" if rep.skipped else "xpass")
    elif rep.passed:
        entry["outcomes"].append("pass")
    elif rep.skipped:
        entry["outcomes"].append("skip")
    else:
        entry["outcomes"].append("fail")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        entry = _CRITERIA[num]
        outcomes = set(entry["outcomes"])
        if outcomes <= {"pass"}:
            verdict = "PASS"
        elif outcomes <= {"pass", "xfail"}:
            verdict = "FAIL (documented)"
        else:
            verdict = "FAIL"
        tr.write_line(f"criterion {num}: {verdict:18s} {entry['label']}")


# --- session-scoped physics objects ----------------------------------


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def comb(cfg):
    return cfg.comb_spec()


@pytest.fixture(scope="session")
def pump(cfg):
    return cfg.pump_spec()


@pytest.fixture(scope="session")
def dispersion(cfg):
    return cfg.dispersion_map()


@pytest.fixture(scope="session")
def grid(cfg):
    return cfg.frequency_grid()


@pytest.fixture(scope="session")
def comb_jsa(comb, pump, dispersion, grid):
    return build_jsa(comb, pump, dispersion, grid)


@pytest.fixture(scope="session")
def comb_jsi(comb_jsa):
    """The readout's factored intensity of comb_jsa."""
    return comb_jsa.intensity


@pytest.fixture(scope="session")
def designed_crystal(cfg, comb):
    return design_domains(comb, cfg["crystal"]["domain_width_m"])


@pytest.fixture(scope="session")
def designed_jsa(designed_crystal, pump, dispersion, grid):
    return build_jsa(designed_crystal, pump, dispersion, grid)


@pytest.fixture(scope="session")
def spectro(cfg):
    return cfg.spectrometer_spec()
