"""Joint spectral amplitude construction for collinear downconversion.

Conventions used throughout:

* Detunings nu_s, nu_i are angular frequencies (rad/s) measured from the
  degenerate photon frequency; the pump detuning is their sum.
* The phase mismatch is linearised around the first-order QPM point,
  dk = center + slope * (nu_s - nu_i).  The antisymmetric form places the
  comb peaks on the energy-conservation antidiagonal, which is what turns
  a mismatch comb into frequency bins.
* JSA arrays are indexed values[idler, signal].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .crystal import CombSpec, DomainConfig, pmf_of_domains, target_pmf

__all__ = [
    "C_LIGHT",
    "PumpSpec",
    "DispersionMap",
    "FrequencyGrid",
    "JointSpectralAmplitude",
    "pump_envelope",
    "bin_centers",
    "bin_spacing_from_comb",
    "build_jsa",
    "save_jsa",
    "load_jsa",
    "save_jsi",
    "load_jsi",
]

C_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class PumpSpec:
    """Transform-limited Gaussian pump pulse.

    `sigma` is the 1/e half-width of the field amplitude spectrum in rad/s;
    for a Gaussian pulse of intensity-FWHM duration t this is
    2 sqrt(ln 2) / t.
    """

    center_wavelength: float  # m
    sigma: float              # rad/s

    def __post_init__(self) -> None:
        if self.center_wavelength <= 0:
            raise ValueError("center_wavelength must be > 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be > 0")

    @classmethod
    def from_duration(cls, center_wavelength: float, fwhm_duration: float) -> "PumpSpec":
        """Build from the intensity-FWHM pulse duration in seconds."""
        sigma = 2.0 * np.sqrt(np.log(2.0)) / fwhm_duration
        return cls(center_wavelength=center_wavelength, sigma=sigma)


@dataclass(frozen=True)
class DispersionMap:
    """Linearised phase mismatch dk(nu_s, nu_i) = center + slope (nu_s - nu_i).

    `slope` is the group-velocity mismatch between the pump and the
    degenerate downconverted photons, in s/m.
    """

    slope: float   # s/m
    center: float  # rad/m

    def __post_init__(self) -> None:
        if self.slope == 0:
            raise ValueError("slope must be nonzero")
        if self.center <= 0:
            raise ValueError("center must be > 0")

    def mismatch(self, nu_signal, nu_idler):
        return self.center + self.slope * (np.asarray(nu_signal) - np.asarray(nu_idler))


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform rectangular detuning grid, rad/s, one axis per photon."""

    nu_signal: np.ndarray
    nu_idler: np.ndarray

    def __post_init__(self) -> None:
        for name in ("nu_signal", "nu_idler"):
            ax = np.asarray(getattr(self, name), dtype=float)
            if ax.ndim != 1 or ax.size < 2:
                raise ValueError(f"{name} must hold at least two samples")
            steps = np.diff(ax)
            if np.any(steps <= 0):
                raise ValueError(f"{name} must be strictly increasing")
            if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
                raise ValueError(f"{name} must be uniformly spaced")
            object.__setattr__(self, name, ax)

    @classmethod
    def symmetric(cls, n: int, half_span_hz: float) -> "FrequencyGrid":
        """Square grid of n x n points spanning +/- half_span_hz on both axes."""
        if n < 2:
            raise ValueError("n must be >= 2")
        nu = 2.0 * np.pi * np.linspace(-half_span_hz, half_span_hz, n)
        return cls(nu_signal=nu, nu_idler=nu.copy())

    @property
    def d_nu_signal(self) -> float:
        return float(self.nu_signal[1] - self.nu_signal[0])

    @property
    def d_nu_idler(self) -> float:
        return float(self.nu_idler[1] - self.nu_idler[0])

    @property
    def shape(self) -> tuple[int, int]:
        """(n_idler, n_signal), matching JSA array layout."""
        return (self.nu_idler.size, self.nu_signal.size)

    def is_square(self) -> bool:
        return (
            self.nu_signal.size == self.nu_idler.size
            and np.allclose(self.nu_signal, self.nu_idler, rtol=0.0, atol=1e-6 * abs(self.d_nu_signal))
        )


@dataclass
class JointSpectralAmplitude:
    """Discretised JSA: values[idler, signal] on a FrequencyGrid."""

    grid: FrequencyGrid
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def norm_squared(self) -> float:
        """L2 norm with the grid measure: sum |f|^2 dnu_s dnu_i."""
        return float(
            np.sum(self.intensity) * self.grid.d_nu_signal * self.grid.d_nu_idler
        )

    def normalized(self) -> "JointSpectralAmplitude":
        n2 = self.norm_squared()
        if n2 <= 0:
            raise ValueError("cannot normalise a zero amplitude")
        return JointSpectralAmplitude(
            grid=self.grid,
            values=self.values / np.sqrt(n2),
            metadata=dict(self.metadata),
        )

    def signal_marginal(self) -> np.ndarray:
        """Spectral intensity of the signal photon, integrated over the idler."""
        return self.intensity.sum(axis=0) * self.grid.d_nu_idler

    def idler_marginal(self) -> np.ndarray:
        return self.intensity.sum(axis=1) * self.grid.d_nu_signal


def pump_envelope(pump: PumpSpec, nu_sum) -> np.ndarray:
    """Gaussian pump amplitude at a given sum detuning (rad/s)."""
    nu = np.asarray(nu_sum, dtype=float)
    return np.exp(-(nu ** 2) / (2.0 * pump.sigma ** 2))


def bin_centers(pair_count: int, bin_spacing_hz: float) -> np.ndarray:
    """Per-photon bin centre detunings in rad/s, ascending.

    2 * pair_count bins sit symmetrically about degeneracy at
    +/- (2j+1) * bin_spacing / 2.
    """
    j = np.arange(pair_count)
    pos = (2.0 * j + 1.0) * np.pi * bin_spacing_hz
    return np.concatenate([-pos[::-1], pos])


def bin_spacing_from_comb(spacing: float, dispersion: DispersionMap) -> float:
    """Per-photon bin spacing in Hz implied by a mismatch comb spacing.

    The mismatch comb lives on nu_s - nu_i, which changes twice as fast as
    either photon detuning along the energy-conservation line, and the Hz
    conversion contributes another 2 pi.
    """
    return spacing / (4.0 * np.pi * abs(dispersion.slope))


def _phasematching_on_grid(source, dispersion: DispersionMap, grid: FrequencyGrid) -> np.ndarray:
    """Evaluate the PMF of `source` at every grid point.

    When both axes share one spacing the mismatch takes only
    n_s + n_i - 1 distinct values, indexed by the column-row difference;
    domain-resolved PMFs are evaluated once per distinct value.
    """
    ds = grid.d_nu_signal
    di = grid.d_nu_idler
    n_i, n_s = grid.shape
    same_step = abs(ds - di) <= 1e-9 * ds

    if isinstance(source, CombSpec):
        diff = grid.nu_signal[None, :] - grid.nu_idler[:, None]
        return target_pmf(source, dispersion.center + dispersion.slope * diff)

    if not isinstance(source, DomainConfig):
        raise TypeError("source must be a CombSpec or DomainConfig")

    if same_step:
        # nu_s[c] - nu_i[r] = (nu_s[0] - nu_i[0]) + (c - r) * step
        base = grid.nu_signal[0] - grid.nu_idler[0]
        d = np.arange(-(n_i - 1), n_s)
        dk = dispersion.center + dispersion.slope * (base + d * ds)
        pmf_vals = pmf_of_domains(source, dk)
        idx = np.arange(n_s)[None, :] - np.arange(n_i)[:, None] + (n_i - 1)
        return pmf_vals[idx]

    diff = grid.nu_signal[None, :] - grid.nu_idler[:, None]
    out = np.empty(diff.shape, dtype=complex)
    for r in range(n_i):
        out[r] = pmf_of_domains(source, dispersion.center + dispersion.slope * diff[r])
    return out


def build_jsa(
    source,
    pump: PumpSpec,
    dispersion: DispersionMap,
    grid: FrequencyGrid,
    normalize: bool = True,
    edge_mass_warn: float = 1e-3,
) -> JointSpectralAmplitude:
    """JSA = pump envelope x phasematching on the grid.

    Parameters
    ----------
    source : CombSpec or DomainConfig
        Analytic comb target or a concrete poled crystal.
    normalize : bool
        L2-normalise with the grid measure (default).
    edge_mass_warn : float
        Warn if more than this fraction of the intensity sits in the two
        outermost rows or columns, a sign the grid is clipping the state.
    """
    nu_sum = grid.nu_signal[None, :] + grid.nu_idler[:, None]
    values = pump_envelope(pump, nu_sum) * _phasematching_on_grid(source, dispersion, grid)
    # zero detuning is the degenerate frequency, half the pump's
    jsa = JointSpectralAmplitude(
        grid=grid,
        values=values,
        metadata={"center_frequency_hz": C_LIGHT / (2.0 * pump.center_wavelength)},
    )

    inten = jsa.intensity
    total = inten.sum()
    if total > 0:
        edge = (
            inten[:2, :].sum() + inten[-2:, :].sum()
            + inten[2:-2, :2].sum() + inten[2:-2, -2:].sum()
        )
        edge_fraction = float(edge / total)
        jsa.metadata["edge_mass_fraction"] = edge_fraction
        if edge_fraction > edge_mass_warn:
            warnings.warn(
                f"{edge_fraction:.2%} of the joint intensity sits at the grid edge; "
                "the frequency span is probably too small",
                stacklevel=2,
            )
    if normalize:
        jsa = jsa.normalized()
        jsa.metadata["normalized"] = True
    return jsa


# ---------------------------------------------------------------------------
# File IO
#
# JSA and JSI files are plain CSV with a one-line header:
#   # ns=<int> ni=<int> dnu_s_hz=<float> dnu_i_hz=<float> nu0_hz=<float>
# Rows are idler samples, columns signal samples; axes are centred on zero
# detuning.  JSA entries are Python complex literals, JSI entries floats.
# nu0_hz records the absolute degenerate frequency for wavelength mapping.
# ---------------------------------------------------------------------------


def _header_line(jsa: JointSpectralAmplitude) -> str:
    n_i, n_s = jsa.grid.shape
    nu0 = jsa.metadata.get("center_frequency_hz")
    if nu0 is None:
        raise ValueError("amplitude carries no center_frequency_hz to write as nu0_hz")
    return (
        f"# ns={n_s} ni={n_i}"
        f" dnu_s_hz={jsa.grid.d_nu_signal / (2.0 * np.pi):.12g}"
        f" dnu_i_hz={jsa.grid.d_nu_idler / (2.0 * np.pi):.12g}"
        f" nu0_hz={nu0:.12g}"
    )


def _parse_header(line: str, path) -> dict:
    if not line.startswith("#"):
        raise ValueError(f"{path}: missing header line")
    fields = {}
    for token in line[1:].split():
        key, _, value = token.partition("=")
        fields[key] = value
    try:
        return {
            "ns": int(fields["ns"]),
            "ni": int(fields["ni"]),
            "dnu_s_hz": float(fields["dnu_s_hz"]),
            "dnu_i_hz": float(fields["dnu_i_hz"]),
            "nu0_hz": float(fields["nu0_hz"]),
        }
    except KeyError as exc:
        raise ValueError(f"{path}: header missing field {exc}") from exc


def _grid_from_header(h: dict) -> FrequencyGrid:
    def axis(n: int, d_hz: float) -> np.ndarray:
        return 2.0 * np.pi * d_hz * (np.arange(n) - (n - 1) / 2.0)

    return FrequencyGrid(
        nu_signal=axis(h["ns"], h["dnu_s_hz"]),
        nu_idler=axis(h["ni"], h["dnu_i_hz"]),
    )


def save_jsa(jsa: JointSpectralAmplitude, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_header_line(jsa) + "\n")
        for row in jsa.values:
            fh.write(",".join(repr(complex(v)) for v in row) + "\n")


def load_jsa(path) -> JointSpectralAmplitude:
    with open(path, "r", encoding="ascii") as fh:
        header = _parse_header(fh.readline().rstrip("\n"), path)
        rows = [
            [complex(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    values = np.array(rows, dtype=complex)
    if values.shape != (header["ni"], header["ns"]):
        raise ValueError(f"{path}: data shape {values.shape} does not match header")
    return JointSpectralAmplitude(
        grid=_grid_from_header(header),
        values=values,
        metadata={"center_frequency_hz": header["nu0_hz"]},
    )


def save_jsi(jsa: JointSpectralAmplitude, path) -> None:
    """Write the joint spectral intensity |JSA|^2."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_header_line(jsa) + "\n")
        for row in jsa.intensity:
            fh.write(",".join(f"{v:.12e}" for v in row) + "\n")


def load_jsi(path) -> tuple[FrequencyGrid, np.ndarray, dict]:
    """Read a JSI file; returns (grid, intensity, metadata)."""
    with open(path, "r", encoding="ascii") as fh:
        header = _parse_header(fh.readline().rstrip("\n"), path)
        rows = [
            [float(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    intensity = np.array(rows, dtype=float)
    if intensity.shape != (header["ni"], header["ns"]):
        raise ValueError(f"{path}: data shape {intensity.shape} does not match header")
    if np.any(intensity < 0):
        raise ValueError(f"{path}: intensity must be nonnegative")
    return _grid_from_header(header), intensity, {"center_frequency_hz": header["nu0_hz"]}
