"""The three benchmark workloads: generated configs and stage chains.

Configs are derived from the repository's ``configs/defaults.cfg`` and
``configs/designed_crystal.cfg`` and written under the run's own work
directory.  The program receives only a generated config and ``--seed``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import checks

# Two-photon fit: Poisson noise at 10^6 counts per point keeps the fitted
# spacing within 1.2e-4 of 500 GHz on seeds 0-11, well inside the 0.1%
# criterion.  Heralded fit: at 10^4 counts per point the closed-form
# residual (2.2e-4 in visibility) is 0.07 sigma, so the 4-sigma check
# tests the noise model rather than the residual.
HOM_COUNTS_PER_POINT = 1_000_000
HERALDED_COUNTS_PER_POINT = 10_000

# Bootstrap resamples for tofs-analyze: enough that the bootstrap is most
# of the stage, few enough that several rounds fit in one run.
TOFS_RESAMPLES = 40

# Uniform singlet phase range and per-bin drift values for tomography.
# With phases in [0.6, 2.4] rad no SIC projection's bin mixture exceeds
# 1.6% aliasing for any assignment of these drifts to bins, below the
# 2% limit simulate_tomography enforces per projection.
TOMO_PHASE_RANGE = (0.6, 2.4)
TOMO_DRIFTS = np.round(np.linspace(0.0, 1.4, 8), 6)


@dataclass
class Stage:
    command: str
    config: str
    out: str
    check: object  # (out_dir, cfg) -> list[str]


@dataclass
class Plan:
    stages: list[Stage]
    configs: dict[str, dict]  # config path -> parsed sections
    probe_config: str         # config the set-up probe parses
    out_dirs: list[str]


def read_config(path) -> dict[str, dict[str, str]]:
    """Sections of an INI-subset config as strings, comments dropped."""
    sections: dict[str, dict[str, str]] = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                current = sections.setdefault(line[1:-1].strip(), {})
            else:
                key, _, value = line.partition("=")
                current[key.strip()] = value.strip()
    return sections


def with_overrides(base: dict, overrides: dict) -> dict:
    out = {s: dict(kv) for s, kv in base.items()}
    for section, kv in overrides.items():
        out.setdefault(section, {}).update({k: str(v) for k, v in kv.items()})
    return out


def write_config(cfg: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for section, kv in cfg.items():
            fh.write(f"[{section}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in kv.items())
            fh.write("\n")


def _designed_source(root: str, work: str, seed: int) -> Plan:
    base = read_config(os.path.join(root, "configs", "designed_crystal.cfg"))
    cfgs = {
        "designed.cfg": base,
        "hom.cfg": with_overrides(base, {"hom": {"counts_per_point": HOM_COUNTS_PER_POINT}}),
        "heralded.cfg": with_overrides(base, {"hom": {"counts_per_point": HERALDED_COUNTS_PER_POINT}}),
    }
    stages = [
        ("design", "designed.cfg", "design", checks.check_design),
        ("simulate", "designed.cfg", "simulate", checks.check_simulate),
        ("hom", "hom.cfg", "hom", checks.check_hom),
        ("heralded", "heralded.cfg", "heralded", checks.check_heralded),
    ]
    return _plan(work, cfgs, stages, "designed.cfg")


def _tofs_readout(root: str, work: str, seed: int) -> Plan:
    base = read_config(os.path.join(root, "configs", "defaults.cfg"))
    cfg = with_overrides(base, {"spectrometer": {
        "resamples": TOFS_RESAMPLES,
        "reference_wavelength_m": "1555.7e-9",
    }})
    source_k = checks.schmidt_number(checks.schmidt_weights(checks.ideal_comb_jsa(cfg)))

    def analyze(out, c):
        return checks.check_tofs_analyze(out, c, source_k)

    stages = [
        ("tofs-sim", "tofs.cfg", "tofs", checks.check_tofs_sim),
        ("tofs-analyze", "tofs.cfg", "tofs", analyze),
    ]
    return _plan(work, {"tofs.cfg": cfg}, stages, "tofs.cfg")


def _tomography(root: str, work: str, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 0x70])
    phase = round(float(rng.uniform(*TOMO_PHASE_RANGE)), 6)
    drift = rng.permutation(TOMO_DRIFTS)
    base = read_config(os.path.join(root, "configs", "defaults.cfg"))
    cfg = with_overrides(base, {"tomography": {
        "phases_rad": repr(phase),
        "drift_rad": ",".join(repr(float(d)) for d in drift),
    }})
    stages = [
        ("tomo-sim", "tomo.cfg", "tomo", checks.check_tomo_sim),
        ("tomo-fit", "tomo.cfg", "tomo", checks.check_tomo_fit),
    ]
    return _plan(work, {"tomo.cfg": cfg}, stages, "tomo.cfg")


def _plan(work, cfgs, stages, probe) -> Plan:
    paths = {}
    for fname, cfg in cfgs.items():
        paths[fname] = os.path.join(work, fname)
        write_config(cfg, paths[fname])
    out = [
        Stage(cmd, paths[c], os.path.join(work, "out", d), check)
        for cmd, c, d, check in stages
    ]
    return Plan(
        stages=out,
        configs={paths[f]: cfg for f, cfg in cfgs.items()},
        probe_config=paths[probe],
        out_dirs=sorted({s.out for s in out}),
    )


WORKLOADS = {
    "designed-source": _designed_source,
    "tofs-readout": _tofs_readout,
    "tomography": _tomography,
}


def build(workload: str, root: str, work: str, seed: int) -> Plan:
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[workload](root, work, seed)
