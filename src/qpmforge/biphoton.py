"""Joint spectral amplitude construction for collinear downconversion.

Conventions used throughout:

* Detunings nu_s, nu_i are angular frequencies (rad/s) measured from the
  degenerate photon frequency; the pump detuning is their sum.  The
  source is degenerate, so both photons share one uniform axis,
  FrequencyGrid.nu, and the grid is square.  On it nu_s - nu_i depends
  only on the column-row difference and nu_s + nu_i only on their sum,
  so anything that is a function of one of them is a (2n - 1)-vector
  that FrequencyGrid.toeplitz (the phasematching, a bin assignment) or
  FrequencyGrid.hankel (the pump) spreads over the grid with no copy.
  The JSA is the product of those two views.
* The phase mismatch is linearised around the first-order QPM point,
  dk = center + slope * (nu_s - nu_i).  The antisymmetric form places the
  comb peaks on the energy-conservation antidiagonal, which is what turns
  a mismatch comb into frequency bins.
* An amplitude is kept as those two factors (JointSpectralAmplitude):
  the PMF on the diagonals and the pump on the antidiagonals, each a
  (2n - 1)-vector.  Its (n, n) array, indexed values[idler, signal], is
  formed only when asked for, by the JSA writer and the JSI writer.
* An amplitude carries its band center center_frequency_hz, the
  degenerate frequency (Hz) the detunings are measured from; the JSA and
  JSI files record it as nu0_hz.
* A phase-blind readout needs only |JSA|^2, and never as an array:
  JointSpectralAmplitude.intensity is it as its two factors,
  |phasematching|^2 on the diagonals and pump^2 on the antidiagonals
  (JointSpectralIntensity).  Its masses per diagonal, its total and its
  edge rows and columns are sums over those factors, so no (n, n)
  intensity is formed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .artefact import read_table, write_table
from .crystal import CombSpec, DomainConfig, pmf_of_domains, target_pmf

__all__ = [
    "C_LIGHT",
    "PumpSpec",
    "DispersionMap",
    "FrequencyGrid",
    "JointSpectralAmplitude",
    "JointSpectralIntensity",
    "pump_envelope",
    "build_jsa",
    "save_jsa",
    "load_jsa",
    "save_jsi",
    "load_jsi",
]

C_LIGHT = 299_792_458.0  # m/s
_EDGE_MASS_WARN = 1e-3


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

    def _windows(self, values, kind: str) -> np.ndarray:
        """Read-only (n, n) view of a (2n - 1)-vector: entry [r, c] is
        values[r + c]."""
        values = np.asarray(values)
        n = self.nu.size
        if values.shape != (2 * n - 1,):
            raise ValueError(f"expected {2 * n - 1} {kind} values, got shape {values.shape}")
        return np.lib.stride_tricks.sliding_window_view(values, n)

    def toeplitz(self, diagonals) -> np.ndarray:
        """Read-only (n, n) view of a (2n - 1)-vector indexed like
        ``differences``: entry [r, c] is diagonals[c - r + n - 1], so each
        value fills one diagonal of the grid and no (n, n) array is made."""
        return self._windows(diagonals, "diagonal")[::-1]

    def hankel(self, antidiagonals) -> np.ndarray:
        """Read-only (n, n) view of a (2n - 1)-vector: entry [r, c] is
        antidiagonals[r + c], so each value fills one antidiagonal, the
        cells of one nu_s + nu_i, and no (n, n) array is made."""
        return self._windows(antidiagonals, "antidiagonal")


def _factor(values, dtype, view) -> np.ndarray:
    """A read-only copy of one factor, a (2n - 1)-vector; ``view``,
    grid.toeplitz or grid.hankel, refuses any other shape."""
    values = np.array(values, dtype=dtype)
    view(values)
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """A joint amplitude on ``grid`` as its two factors: cell [idler r,
    signal c] is diagonals[c - r + n - 1] * antidiagonals[r + c], the
    complex phasematching on grid.differences times the real pump on
    nu_s + nu_i, both (2n - 1)-vectors kept as read-only copies;
    ``center_frequency_hz`` is the band center the detunings are measured
    from.
    """

    grid: FrequencyGrid
    diagonals: np.ndarray
    antidiagonals: np.ndarray
    center_frequency_hz: float  # Hz

    def __post_init__(self) -> None:
        object.__setattr__(self, "diagonals", _factor(self.diagonals, complex, self.grid.toeplitz))
        object.__setattr__(
            self, "antidiagonals", _factor(self.antidiagonals, float, self.grid.hankel)
        )

    @property
    def values(self) -> np.ndarray:
        """The (n, n) amplitude values[idler, signal], the product of the
        two factors' views, formed anew on every call."""
        return self.grid.toeplitz(self.diagonals) * self.grid.hankel(self.antidiagonals)

    @property
    def intensity(self) -> JointSpectralIntensity:
        """|JSA|^2 as its factors, |diagonals|^2 and antidiagonals^2."""
        return JointSpectralIntensity(
            self.grid, np.abs(self.diagonals) ** 2, self.antidiagonals**2, self.center_frequency_hz
        )


@dataclass(frozen=True)
class JointSpectralIntensity:
    """A joint intensity on ``grid`` as its two nonnegative factors: cell
    [idler r, signal c] is diagonals[c - r + n - 1] * antidiagonals[r + c],
    so grid.toeplitz(diagonals) * grid.hankel(antidiagonals) is the (n, n)
    array that this object replaces.  ``diagonals`` is indexed like
    grid.differences and ``antidiagonals`` by nu_s + nu_i, both
    (2n - 1)-vectors, kept as read-only copies; ``center_frequency_hz``
    is the band center the detunings are measured from.
    """

    grid: FrequencyGrid
    diagonals: np.ndarray
    antidiagonals: np.ndarray
    center_frequency_hz: float  # Hz

    def __post_init__(self) -> None:
        for name, view in (("diagonals", self.grid.toeplitz), ("antidiagonals", self.grid.hankel)):
            values = _factor(getattr(self, name), float, view)
            if np.any(values < 0):
                raise ValueError("intensity must be nonnegative")
            object.__setattr__(self, name, values)

    def diagonal_masses(self) -> np.ndarray:
        """The (2n - 1)-vector of the intensity summed over each diagonal:
        entry d is diagonals[d] times the sum of antidiagonals[|k| : 2n - 1
        - |k| : 2], k = d - (n - 1) the diagonal's column-row difference.
        Those sums are taken from the grid's center outwards, each the
        last plus the pair of values that lengthens its diagonal, so every
        step adds nonnegative terms and a short corner diagonal keeps its
        few values' precision."""
        n = self.grid.nu.size
        anti = self.antidiagonals
        # pairs[m] = anti[m] + anti[2n - 2 - m], the center m = n - 1 once
        pairs = anti[:n] + anti[n - 1:][::-1]
        pairs[n - 1] = anti[n - 1]
        # lengthened[m]: the sum over pairs[m], pairs[m + 2], ... up to the center
        lengthened = np.empty(n)
        lengthened[n - 1::-2] = np.cumsum(pairs[n - 1::-2])
        lengthened[n - 2::-2] = np.cumsum(pairs[n - 2::-2])
        return self.diagonals * np.concatenate([lengthened[:0:-1], lengthened])

    @property
    def total(self) -> float:
        """The intensity summed over the grid: its diagonal masses' sum."""
        return float(self.diagonal_masses().sum())

    @property
    def edge_mass_fraction(self) -> float:
        """The share of the intensity in the two outermost rows and
        columns, each edge cell once, summed row by row and column by
        column; NaN for a spectrum that carries no intensity."""
        n = self.grid.nu.size
        d, a = self.diagonals, self.antidiagonals
        edges = sorted({0, 1, n - 2, n - 1})
        # row r is d[n - 1 - r : 2n - 1 - r] * a[r : r + n]
        edge = sum(float(d[n - 1 - r:2 * n - 1 - r] @ a[r:r + n]) for r in edges)
        # column c is d[c : c + n][::-1] * a[c : c + n]; the rows between
        # the edge rows, which exist from five points on
        edge += sum(float(d[c + 2:c + n - 2][::-1] @ a[c + 2:c + n - 2]) for c in edges)
        total = self.total
        return edge / total if total > 0 else float("nan")


def pump_envelope(pump: PumpSpec, nu_sum) -> np.ndarray:
    """Gaussian pump amplitude at a given sum detuning (rad/s)."""
    nu = np.asarray(nu_sum, dtype=float)
    return np.exp(-(nu ** 2) / (2.0 * pump.sigma ** 2))


def _normalization(intensity: JointSpectralIntensity) -> float:
    """The amplitude's L2 norm with the grid measure, from its unnormalised
    joint ``intensity``.  Warns when the intensity's share in the two
    outermost rows and columns exceeds _EDGE_MASS_WARN, a sign the grid is
    clipping the state, on behalf of the caller of build_jsa.  An
    intensity that is zero on every grid point, such as one that
    underflows between comb teeth the grid steps over, is a numeric
    failure: FloatingPointError."""
    total = intensity.total
    if total <= 0:
        raise FloatingPointError(
            "cannot normalise a zero amplitude: the joint intensity is 0 on every grid point"
        )
    edge_fraction = intensity.edge_mass_fraction
    if edge_fraction > _EDGE_MASS_WARN:
        warnings.warn(
            f"{edge_fraction:.2%} of the joint intensity sits at the grid edge; "
            "the frequency span is probably too small",
            stacklevel=3,
        )
    d_nu = intensity.grid.d_nu
    return float(np.sqrt(float(total * d_nu * d_nu)))


def build_jsa(
    source,
    pump: PumpSpec,
    dispersion: DispersionMap,
    grid: FrequencyGrid,
) -> JointSpectralAmplitude:
    """JSA = pump envelope x phasematching on the grid, L2-normalised with
    the grid measure, as its two factors.

    ``source`` is the analytic comb target (CombSpec) or a concrete poled
    crystal (DomainConfig).  Its PMF is evaluated on grid.differences and
    the pump on the 2n - 1 values of nu_s + nu_i, centred on the grid.
    The norm is summed over the factors of the intensity, and the PMF is
    divided by it, so no (n, n) array is made.  Warns when more than
    _EDGE_MASS_WARN of the intensity sits in the two outermost rows or
    columns, a sign the grid is clipping the state.
    """
    if isinstance(source, CombSpec):
        pmf = target_pmf
    elif isinstance(source, DomainConfig):
        pmf = pmf_of_domains
    else:
        raise TypeError("source must be a CombSpec or DomainConfig")
    differences = grid.differences
    phasematching = pmf(source, dispersion.center + dispersion.slope * differences)
    envelope = pump_envelope(pump, grid.nu[0] + grid.nu[-1] + differences)
    # zero detuning is the degenerate frequency, half the pump's
    raw = JointSpectralAmplitude(
        grid, phasematching, envelope, C_LIGHT / (2.0 * pump.center_wavelength)
    )
    return replace(raw, diagonals=raw.diagonals / _normalization(raw.intensity))


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
    """Write the amplitude's (n, n) values; 17 significant digits read
    back bit-identical."""
    _save_grid_table(jsa, path, jsa.values, "%.17g%+.17gj")


def load_jsa(path) -> tuple[FrequencyGrid, np.ndarray, float]:
    """Read a JSA file; returns (grid, values, center_frequency_hz), the
    table as it was written, not factored."""
    return _load_grid_table(path, complex)


def save_jsi(jsa: JointSpectralAmplitude, path) -> None:
    """Write the joint spectral intensity |JSA|^2 of the amplitude's (n, n)
    values."""
    magnitude = np.abs(jsa.values)
    _save_grid_table(jsa, path, np.square(magnitude, out=magnitude), "%.12e")


def load_jsi(path) -> tuple[FrequencyGrid, np.ndarray, float]:
    """Read a JSI file; returns (grid, intensity, center_frequency_hz)."""
    grid, intensity, center = _load_grid_table(path, float)
    if np.any(intensity < 0):
        raise ValueError(f"{path}: intensity must be nonnegative")
    return grid, intensity, center
