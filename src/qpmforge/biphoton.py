"""Joint spectral amplitude construction for collinear downconversion.

Conventions used throughout:

* Detunings nu_s, nu_i are angular frequencies (rad/s) measured from the
  degenerate photon frequency; the pump detuning is their sum.  The
  source is degenerate, so both photons share one uniform axis,
  FrequencyGrid.nu, and the grid is square.  On it nu_s - nu_i depends
  only on the column-row difference, so anything that is a function of
  it (the phasematching, a bin assignment) is a (2n - 1)-vector that
  FrequencyGrid.toeplitz spreads over the grid with no copy.
* The phase mismatch is linearised around the first-order QPM point,
  dk = center + slope * (nu_s - nu_i).  The antisymmetric form places the
  comb peaks on the energy-conservation antidiagonal, which is what turns
  a mismatch comb into frequency bins.
* JSA arrays are indexed values[idler, signal].
* An amplitude carries its band center center_frequency_hz, the
  degenerate frequency (Hz) the detunings are measured from; the JSA and
  JSI files record it as nu0_hz.
* A phase-blind readout needs only |JSA|^2: build_jsi makes it from the
  same rows as build_jsa, bit for bit, without building the amplitude.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .artefact import read_table, write_table
from .crystal import CombSpec, DomainConfig, pmf_of_domains, target_pmf

__all__ = [
    "C_LIGHT",
    "PumpSpec",
    "DispersionMap",
    "FrequencyGrid",
    "JointSpectralAmplitude",
    "pump_envelope",
    "build_jsa",
    "build_jsi",
    "save_jsa",
    "load_jsa",
    "save_jsi",
    "load_jsi",
]

C_LIGHT = 299_792_458.0  # m/s
_EDGE_MASS_WARN = 1e-3
# idler rows per step of the JSA row loop: enough to amortise the per-call
# overhead of numpy, few enough to keep the buffers small beside the grid
_ROWS_PER_STEP = 4


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


@dataclass(frozen=True)
class FrequencyGrid:
    """Square detuning grid, rad/s: one uniform axis shared by both photons."""

    nu: np.ndarray

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=float)
        if nu.ndim != 1 or nu.size < 2:
            raise ValueError("nu must hold at least two samples")
        steps = np.diff(nu)
        if np.any(steps <= 0):
            raise ValueError("nu must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("nu must be uniformly spaced")
        object.__setattr__(self, "nu", nu)

    @classmethod
    def symmetric(cls, n: int, half_span_hz: float) -> "FrequencyGrid":
        """Grid of n x n points spanning +/- half_span_hz."""
        if n < 2:
            raise ValueError("n must be >= 2")
        return cls(nu=2.0 * np.pi * np.linspace(-half_span_hz, half_span_hz, n))

    @property
    def d_nu(self) -> float:
        return float(self.nu[1] - self.nu[0])

    @property
    def shape(self) -> tuple[int, int]:
        """(n_idler, n_signal), matching JSA array layout."""
        return (self.nu.size, self.nu.size)

    @property
    def differences(self) -> np.ndarray:
        """The 2n - 1 values of nu_s - nu_i on the grid, (c - r) * d_nu for
        column c and row r, from c - r = -(n - 1) up to n - 1."""
        n = self.nu.size
        return np.arange(-(n - 1), n) * self.d_nu

    def toeplitz(self, diagonals) -> np.ndarray:
        """Read-only (n, n) view of a (2n - 1)-vector indexed like
        ``differences``: entry [r, c] is diagonals[c - r + n - 1], so each
        value fills one diagonal of the grid and no (n, n) array is made."""
        diagonals = np.asarray(diagonals)
        n = self.nu.size
        if diagonals.shape != (2 * n - 1,):
            raise ValueError(f"expected {2 * n - 1} diagonal values, got shape {diagonals.shape}")
        return np.lib.stride_tricks.sliding_window_view(diagonals, n)[::-1]


@dataclass
class JointSpectralAmplitude:
    """Discretised JSA: values[idler, signal] on a FrequencyGrid around the
    band center; ``metadata`` holds diagnostics (``edge_mass_fraction``)."""

    grid: FrequencyGrid
    values: np.ndarray
    center_frequency_hz: float  # Hz
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


def pump_envelope(pump: PumpSpec, nu_sum) -> np.ndarray:
    """Gaussian pump amplitude at a given sum detuning (rad/s)."""
    nu = np.asarray(nu_sum, dtype=float)
    return np.exp(-(nu ** 2) / (2.0 * pump.sigma ** 2))


def _phasematching_on_grid(source, dispersion: DispersionMap, grid: FrequencyGrid) -> np.ndarray:
    """The PMF of `source` at every grid point, as a read-only view.

    The mismatch depends only on nu_s - nu_i, which on the shared axis
    takes only the 2n - 1 values of grid.differences: the PMF of either
    source is evaluated once per value and spread over the grid by
    grid.toeplitz.
    """
    if isinstance(source, CombSpec):
        pmf = target_pmf
    elif isinstance(source, DomainConfig):
        pmf = pmf_of_domains
    else:
        raise TypeError("source must be a CombSpec or DomainConfig")

    return grid.toeplitz(pmf(source, dispersion.center + dispersion.slope * grid.differences))


def _jsa_rows(pmf: np.ndarray, pump: PumpSpec, grid: FrequencyGrid):
    """The unnormalised JSA, pump envelope x ``pmf``, a few idler rows at a
    time: yields (rows, block), each block written into one complex buffer
    that the next step overwrites."""
    n = grid.nu.size
    buffer = np.empty((_ROWS_PER_STEP, n), dtype=complex)
    for start in range(0, n, _ROWS_PER_STEP):
        rows = slice(start, min(start + _ROWS_PER_STEP, n))
        block = buffer[: rows.stop - start]
        np.multiply(pmf[rows], pump_envelope(pump, grid.nu + grid.nu[rows, None]), out=block)
        yield rows, block


def _normalization(inten: np.ndarray, grid: FrequencyGrid) -> tuple[float, float]:
    """(scale, edge_mass_fraction) of an unnormalised joint intensity: the
    amplitude's L2 norm with the grid measure and the share of the
    intensity in the two outermost rows and columns.  Warns when that
    share exceeds _EDGE_MASS_WARN, a sign the grid is clipping the state,
    on behalf of the builder's caller."""
    total = inten.sum()
    if total <= 0:
        raise ValueError("cannot normalise a zero amplitude")
    edge = (
        inten[:2, :].sum() + inten[-2:, :].sum()
        + inten[2:-2, :2].sum() + inten[2:-2, -2:].sum()
    )
    edge_fraction = float(edge / total)
    if edge_fraction > _EDGE_MASS_WARN:
        warnings.warn(
            f"{edge_fraction:.2%} of the joint intensity sits at the grid edge; "
            "the frequency span is probably too small",
            stacklevel=3,
        )
    return float(np.sqrt(float(total * grid.d_nu * grid.d_nu))), edge_fraction


def _band_center(pump: PumpSpec) -> float:
    """Zero detuning is the degenerate frequency, half the pump's."""
    return C_LIGHT / (2.0 * pump.center_wavelength)


def build_jsa(
    source,
    pump: PumpSpec,
    dispersion: DispersionMap,
    grid: FrequencyGrid,
) -> JointSpectralAmplitude:
    """JSA = pump envelope x phasematching on the grid, L2-normalised with
    the grid measure.

    ``source`` is the analytic comb target (CombSpec) or a concrete poled
    crystal (DomainConfig).  Warns when more than _EDGE_MASS_WARN of the
    intensity sits in the two outermost rows or columns, a sign the grid
    is clipping the state.  The pump is multiplied in a few idler rows at
    a time, so the amplitude is the only (n, n) array kept.
    """
    pmf = _phasematching_on_grid(source, dispersion, grid)
    values = np.empty(grid.shape, dtype=complex)
    for rows, block in _jsa_rows(pmf, pump, grid):
        values[rows] = block
    jsa = JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=_band_center(pump))
    scale, edge_fraction = _normalization(jsa.intensity, grid)
    jsa.metadata["edge_mass_fraction"] = edge_fraction
    jsa.values /= scale
    return jsa


def build_jsi(
    source,
    pump: PumpSpec,
    dispersion: DispersionMap,
    grid: FrequencyGrid,
) -> tuple[np.ndarray, float, float]:
    """The normalised joint intensity |JSA|^2 of build_jsa, without the
    amplitude: (intensity, center_frequency_hz, edge_mass_fraction).

    A phase-blind readout needs only this.  The same rows as build_jsa's
    are made twice, a few at a time: the first pass writes their
    unnormalised |row|^2 for the norm and the edge check (with the same
    warning), the second divides each complex row by the norm and squares
    it in place, so the intensity is bit-identical to
    ``build_jsa(...).intensity`` and the only (n, n) array built.
    """
    pmf = _phasematching_on_grid(source, dispersion, grid)
    inten = np.empty(grid.shape)
    for rows, block in _jsa_rows(pmf, pump, grid):
        np.square(np.abs(block, out=inten[rows]), out=inten[rows])
    scale, edge_fraction = _normalization(inten, grid)
    for rows, block in _jsa_rows(pmf, pump, grid):
        block /= scale
        np.square(np.abs(block, out=inten[rows]), out=inten[rows])
    return inten, _band_center(pump), edge_fraction


_HEADER_FIELDS = {"ns": int, "ni": int, "dnu_s_hz": float, "dnu_i_hz": float, "nu0_hz": float}


def _header(jsa: JointSpectralAmplitude) -> dict:
    n = jsa.grid.nu.size
    d_nu_hz = jsa.grid.d_nu / (2.0 * np.pi)
    # the format keeps a key pair per photon; one axis writes both, equal
    return {"ns": n, "ni": n, "dnu_s_hz": d_nu_hz, "dnu_i_hz": d_nu_hz,
            "nu0_hz": jsa.center_frequency_hz}


def _load_grid_table(path, dtype) -> tuple[FrequencyGrid, np.ndarray, float]:
    h, values = read_table(path, _HEADER_FIELDS, dtype)
    n, d_hz = h["ns"], h["dnu_s_hz"]
    if (h["ni"], h["dnu_i_hz"]) != (n, d_hz):
        raise ValueError(
            f"{path}: signal axis (ns={n}, dnu_s_hz={d_hz:.12g}) and idler axis "
            f"(ni={h['ni']}, dnu_i_hz={h['dnu_i_hz']:.12g}) differ; the grid is one shared axis"
        )
    if values.shape != (n, n):
        raise ValueError(f"{path}: data shape {values.shape} does not match header")
    try:
        grid = FrequencyGrid(nu=2.0 * np.pi * d_hz * (np.arange(n) - (n - 1) / 2.0))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return grid, values, h["nu0_hz"]


def _save_grid_table(jsa: JointSpectralAmplitude, path, values: np.ndarray, cell: str) -> None:
    """Write `values` below the grid header, one `cell` % entry per column."""
    row_format = ",".join([cell] * values.shape[1])
    # a complex row views as its interleaved real and imaginary parts,
    # which "%.17g%+.17gj" takes two at a time
    write_table(path, _header(jsa), row_format, np.ascontiguousarray(values).view(float))


def save_jsa(jsa: JointSpectralAmplitude, path) -> None:
    """Write the amplitude; 17 significant digits read back bit-identical."""
    _save_grid_table(jsa, path, jsa.values, "%.17g%+.17gj")


def load_jsa(path) -> JointSpectralAmplitude:
    grid, values, center = _load_grid_table(path, complex)
    return JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=center)


def save_jsi(jsa: JointSpectralAmplitude, path) -> None:
    """Write the joint spectral intensity |JSA|^2."""
    _save_grid_table(jsa, path, jsa.intensity, "%.12e")


def load_jsi(path) -> tuple[FrequencyGrid, np.ndarray, float]:
    """Read a JSI file; returns (grid, intensity, center_frequency_hz)."""
    grid, intensity, center = _load_grid_table(path, float)
    if np.any(intensity < 0):
        raise ValueError(f"{path}: intensity must be nonnegative")
    return grid, intensity, center
