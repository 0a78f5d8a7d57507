"""Flat-sectioned key=value run configuration.

The format is a deliberately small INI subset: ``[section]`` headers,
``key = value`` lines, ``#`` comments, blank lines.  Every key carries
its SI unit as a name suffix (``length_m``, ``bin_spacing_hz``) so files
stay unit-unambiguous and diff-friendly.  Unknown sections or keys are
rejected with file:line precision rather than ignored, because a typo'd
key silently falling back to a default is the worst failure mode a batch
run can have.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biphoton import DispersionMap, FrequencyGrid, PumpSpec
from .crystal import CombSpec
from .interference import MIN_FIT_POINTS
from .measurement import SpectrometerSpec

__all__ = ["ConfigError", "RunConfig", "parse_config", "default_config"]


class ConfigError(ValueError):
    """Malformed or invalid run configuration."""


# [spectrometer] key -> SpectrometerSpec field.  The field defaults are
# the schema defaults, so the spectrometer defaults live in one place.
_SPECTROMETER_FIELDS = {
    "dispersion_ps_per_nm_km": "dispersion_ps_per_nm_km",
    "fiber_length_km": "fiber_length_km",
    "jitter_fwhm_s": "jitter_fwhm",
    "time_bin_s": "time_bin",
    "window_s": "window",
    "reference_wavelength_m": "reference_wavelength",
}
_SPECTROMETER_DEFAULTS = SpectrometerSpec()

# Section -> key -> default.  The default's type drives value parsing;
# tuples mark comma-separated float lists (the tuple holds the default).
# The crystal, pump and grid defaults describe one device: a 30 mm
# crystal pumped at 777.85 nm by 1.3 ps pulses, emitting four bin pairs.
_SCHEMA: dict[str, dict[str, object]] = {
    "crystal": {
        "length_m": 30e-3,
        "domain_width_m": 23e-6,
        "pair_count": 4,
        "bin_spacing_hz": 500e9,  # Hz between adjacent single-photon bins
        "bin_purity": 0.979,
        "source": "comb",  # comb | designed
    },
    "pump": {
        "wavelength_m": 777.85e-9,
        "fwhm_duration_s": 1.3e-12,
    },
    "grid": {
        "points": 1024,
        "half_span_hz": 2.5e12,
    },
    "spectrometer": {
        **{
            key: getattr(_SPECTROMETER_DEFAULTS, name)
            for key, name in _SPECTROMETER_FIELDS.items()
        },
        "events": 43_000_000,
        "max_alias_fraction": 0.02,  # share of the spectrum allowed outside the window
        "resamples": 1000,  # read by no stage; kept as perfbench's configs set it
    },
    "tomography": {
        "events_per_projection": 20_000_000,
        "gate_width_s": 1.52e-9,  # matches an 8-bin comb with disjoint gates
        "phases_rad": (0.0,),
        "drift_rad": (0.0,),
    },
    "hom": {
        "tau_min_s": -5e-12,
        "tau_max_s": 5e-12,
        "points": 81,
        "counts_per_point": 0,
    },
    "run": {
        "seed": 0,
        "input": "",
    },
}


_INT_LIMIT = 2**63  # event counts and sizes reach numpy as int64
# numpy's Poisson draw refuses a mean above about 9.22e18.  hom and
# heralded draw means up to 2 * counts_per_point, and tomo-sim up to
# 4 * events_per_projection (a Born probability is at most 1 and a
# setting's in-window flux a share of the source's); each limit keeps a
# factor of 2 for rounding.
_POISSON_LIMITS = {
    ("hom", "counts_per_point"): 2**61,
    ("tomography", "events_per_projection"): 2**60,
}


def _parse_value(raw: str, default, where: str):
    """Typed value of one key; a number that is not finite, or an integer
    outside int64, is rejected like any other malformed value."""
    if isinstance(default, tuple):
        try:
            values = tuple(float(tok) for tok in raw.split(","))
        except ValueError as exc:
            raise ConfigError(f"{where}: expected comma-separated numbers, got {raw!r}") from exc
        if not all(np.isfinite(values)):
            raise ConfigError(f"{where}: expected comma-separated finite numbers, got {raw!r}")
        return values
    if isinstance(default, bool):
        raise AssertionError("no boolean keys in schema")
    if isinstance(default, int):
        try:
            if raw.lstrip("+-").replace("_", "").isdigit():
                value = int(raw)  # exact, however many digits
            else:
                number = float(raw)
                value = int(number)
                if number != value:
                    raise ValueError
        except (ValueError, OverflowError) as exc:  # OverflowError: int(inf)
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc
        if abs(value) >= _INT_LIMIT:
            raise ConfigError(f"{where}: integer {raw!r} does not fit in 64 bits")
        return value
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
        return value
    return raw


@dataclass
class RunConfig:
    """Parsed configuration with every key resolved (defaults included)."""

    sections: dict = field(default_factory=dict)
    path: str = "<defaults>"

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]

    # --- builders -------------------------------------------------------

    def peak_width(self) -> float:
        return self.sections["crystal"]["length_m"] / 4.5

    def gvm_slope(self) -> float:
        """Group-velocity-mismatch slope (s/m) calibrated from the bin purity.

        A Gaussian pump and phasematching peak give a single-bin purity of
        2r / (1 + r^2), r the phasematching-to-pump bandwidth ratio, so the
        purity pins r and with it the slope.  The default 0.979 puts the
        reference comb on K = 8.07(10) and eight-mode fidelity 0.985(5).
        """
        cfg = self.sections["crystal"]
        purity = cfg["bin_purity"]
        if not 0.0 < purity < 1.0:
            raise ConfigError(f"{self.path}: bin_purity must lie in (0, 1)")
        ratio = (1.0 - np.sqrt(1.0 - purity**2)) / purity
        return 1.0 / (self.peak_width() * ratio * self.pump_spec().sigma)

    def comb_spec(self) -> CombSpec:
        cfg = self.sections["crystal"]
        center = np.pi / cfg["domain_width_m"]
        spacing = 4.0 * np.pi * self.gvm_slope() * cfg["bin_spacing_hz"]
        return CombSpec(
            pair_count=cfg["pair_count"],
            spacing=spacing,
            peak_width=self.peak_width(),
            center=center,
            length=cfg["length_m"],
        )

    def pump_spec(self) -> PumpSpec:
        cfg = self.sections["pump"]
        return PumpSpec.from_duration(cfg["wavelength_m"], cfg["fwhm_duration_s"])

    def dispersion_map(self) -> DispersionMap:
        return DispersionMap(
            slope=self.gvm_slope(),
            center=np.pi / self.sections["crystal"]["domain_width_m"],
        )

    def frequency_grid(self) -> FrequencyGrid:
        cfg = self.sections["grid"]
        return FrequencyGrid.symmetric(cfg["points"], cfg["half_span_hz"])

    def spectrometer_spec(self) -> SpectrometerSpec:
        cfg = self.sections["spectrometer"]
        return SpectrometerSpec(
            **{name: cfg[key] for key, name in _SPECTROMETER_FIELDS.items()}
        )

    def bin_values(self, key: str, n_bins: int) -> np.ndarray:
        """Per-bin list keys: a single value broadcasts to every bin."""
        values = self.sections["tomography"][key]
        if len(values) == 1:
            return np.full(n_bins, values[0])
        if len(values) != n_bins:
            raise ConfigError(
                f"{self.path}: [tomography] {key} needs 1 or {n_bins} comma-separated values,"
                f" got {len(values)}"
            )
        return np.asarray(values, dtype=float)

    def resolved_text(self) -> str:
        """Manifest echo: every section and key, defaults included."""
        lines = []
        for section in _SCHEMA:
            lines.append(f"[{section}]")
            for key, value in self.sections[section].items():
                if isinstance(value, tuple):
                    rendered = ",".join(f"{v:.12g}" for v in value)
                elif isinstance(value, float):
                    rendered = f"{value:.12g}"
                else:
                    rendered = str(value)
                lines.append(f"{key} = {rendered}")
            lines.append("")
        return "\n".join(lines)


def default_config() -> RunConfig:
    return RunConfig(sections={s: dict(kv) for s, kv in _SCHEMA.items()})


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; every diagnostic carries file:line."""
    cfg = default_config()
    cfg.path = str(path)
    seen: set[tuple[str, str]] = set()
    section = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if line.startswith("["):
                if not line.endswith("]"):
                    raise ConfigError(f"{where}: unterminated section header {line!r}")
                name = line[1:-1].strip()
                if name not in _SCHEMA:
                    raise ConfigError(f"{where}: unknown section [{name}]")
                section = name
                continue
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
            if section is None:
                raise ConfigError(f"{where}: key outside any [section]")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{where}: unknown key '{key}' in [{section}]")
            if (section, key) in seen:
                raise ConfigError(f"{where}: duplicate key '{key}' in [{section}]")
            seen.add((section, key))
            cfg.sections[section][key] = _parse_value(
                value, _SCHEMA[section][key], where
            )
    _validate(cfg)
    return cfg


def _check_seed(seed: int, where: str) -> None:
    """numpy takes no seed < 0, and no config holds one >= 2**63; ``where`` names its source."""
    if seed < 0:
        raise ConfigError(f"{where} must be >= 0, got {seed}")
    if seed >= _INT_LIMIT:
        raise ConfigError(f"{where} = {seed} does not fit in 64 bits")


def _validate(cfg: RunConfig) -> None:
    _check_seed(cfg.sections["run"]["seed"], f"{cfg.path}: [run] seed")
    crystal = cfg.sections["crystal"]
    if crystal["source"] not in ("comb", "designed"):
        raise ConfigError(f"{cfg.path}: crystal source must be 'comb' or 'designed'")
    for section, key in (
        ("crystal", "length_m"),
        ("crystal", "domain_width_m"),
        ("pump", "wavelength_m"),
        ("pump", "fwhm_duration_s"),
        ("grid", "half_span_hz"),
        ("tomography", "gate_width_s"),
    ):
        if cfg.sections[section][key] <= 0:
            raise ConfigError(f"{cfg.path}: {key} must be > 0")
    # a zero bin spacing collapses the comb to one peak, legal only for a
    # single pair; the CombSpec built below enforces the pairing rule
    if crystal["bin_spacing_hz"] < 0:
        raise ConfigError(f"{cfg.path}: bin_spacing_hz must be >= 0")
    if cfg.sections["grid"]["points"] < 2:
        raise ConfigError(f"{cfg.path}: grid points must be >= 2")
    if cfg.sections["hom"]["points"] < 2:
        raise ConfigError(f"{cfg.path}: hom points must be >= 2")
    if cfg.sections["hom"]["tau_max_s"] <= cfg.sections["hom"]["tau_min_s"]:
        raise ConfigError(f"{cfg.path}: hom range must have tau_max_s > tau_min_s")
    for section, key in (
        ("spectrometer", "events"),
        ("tomography", "events_per_projection"),
        ("hom", "counts_per_point"),
    ):
        if cfg.sections[section][key] < 0:
            raise ConfigError(f"{cfg.path}: {key} must be >= 0")
    for (section, key), limit in _POISSON_LIMITS.items():
        if cfg.sections[section][key] > limit:
            raise ConfigError(
                f"{cfg.path}: [{section}] {key} = {cfg.sections[section][key]} asks for"
                f" Poisson means numpy cannot draw; it must be <= {limit}"
            )
    # counts_per_point > 0 fits the sampled curve, which needs enough delays
    hom = cfg.sections["hom"]
    if hom["counts_per_point"] > 0 and hom["points"] < MIN_FIT_POINTS:
        raise ConfigError(
            f"{cfg.path}: hom points must be >= {MIN_FIT_POINTS} when counts_per_point > 0"
        )
    if not 0.0 <= cfg.sections["spectrometer"]["max_alias_fraction"] <= 1.0:
        raise ConfigError(f"{cfg.path}: max_alias_fraction must lie in [0, 1]")
    if crystal["domain_width_m"] > crystal["length_m"]:
        raise ConfigError(f"{cfg.path}: domain_width_m must not exceed length_m")
    # the device's own types hold the other rules (pair count, bin purity,
    # whole time bins): build each, so no stage starts on a device it cannot
    try:
        cfg.comb_spec()
        cfg.dispersion_map()
        cfg.frequency_grid()
        cfg.spectrometer_spec()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{cfg.path}: {exc}") from exc
    # tomo-sim gives each of the 2 * pair_count bins its own phase and drift
    n_bins = 2 * crystal["pair_count"]
    cfg.bin_values("phases_rad", n_bins)
    if np.any(cfg.bin_values("drift_rad", n_bins) < 0):
        raise ConfigError(f"{cfg.path}: [tomography] drift_rad must be >= 0")
