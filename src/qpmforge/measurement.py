"""Time-of-flight fiber spectrometer: forward model and inverse analysis.

Chromatic dispersion in a long fiber maps photon wavelength linearly to
arrival time; two detectors (signal/idler) yield a 2-d histogram of the
joint spectrum.  The forward model here is exact in the mass-transport
sense: each frequency cell is an interval in arrival time, blurred by a
Gaussian detector jitter and integrated over the time bins using the
closed-form integral of the Gaussian CDF, so no sampling error enters
before the Poisson draw.  The blur is cut at +-9 sigma, where the
Gaussian tail holds less than 1e-19 of a cell's mass: a cell's transfer
column is exactly zero outside the time bins within that reach, and
projections multiply only inside that band.

Arrival times are measured relative to the reference wavelength's, with
the acquisition window centered on it: t in [-window/2, +window/2).
detuning_to_time is the one arrival-time map: the transfer's cell edges
and every bin gate go through it.

Detunings are measured from the band center, the degenerate frequency
half the pump frequency: the pump sets the center, each amplitude
carries it as ``center_frequency_hz``, and count matrices and their
files (``nu0_hz``) carry it on, so every projection and every gate maps
a detuning to the arrival time of the source's own photons.

One SpectrometerSpec is the whole calibration.  A count matrix carries
the spec it was recorded with, its file header records that spec, and
load_counts rebuilds it; tomography.bin_gates cuts every bin's gates on
the spec's own time grid.  A simulated tomography projection also
carries, and its file records, the bin layout it was drawn with.

spectrum_projector is the one projection: it checks one joint spectrum
once and then projects it as often as asked, optionally times a weight
per cell, such as a read-only Toeplitz view of one weight per diagonal,
multiplied in block by block.  simulate_counts draws from one unweighted
call of it, tomography.simulate_tomography from one weighted call per
SIC setting.  Each projection returns the detection probabilities,
scaled to unit sum in the projector's one image buffer, and the alias
fraction, the share of the spectrum outside the window; no other code
scales an image or computes an alias fraction, and the draws take the
probabilities as they are.  It keeps only the transfer's band, and the
readout stages hand it |JSA|^2 alone (biphoton.build_jsi), since a
time-of-flight readout is phase-blind.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .artefact import read_table, write_table
from .biphoton import C_LIGHT, FrequencyGrid

__all__ = [
    "MeasurementError",
    "SpectrometerSpec",
    "CountMatrix",
    "detuning_to_time",
    "build_transfer",
    "spectrum_projector",
    "simulate_counts",
    "marginals",
    "save_counts",
    "load_counts",
]


class MeasurementError(ValueError):
    """Numeric failure of the forward model or of the count analysis."""


@dataclass(frozen=True)
class SpectrometerSpec:
    """Dispersive-fiber spectrometer parameters.

    Defaults describe 20 km of fiber at 20 ps/(nm km) (0.4 ns/nm total),
    50 ps FWHM detector jitter, and a 500 x 500 grid of 25 ps bins
    spanning a 12.5 ns window.
    """

    dispersion_ps_per_nm_km: float = 20.0
    fiber_length_km: float = 20.0
    jitter_fwhm: float = 50e-12     # s
    time_bin: float = 25e-12        # s
    window: float = 12.5e-9         # s
    reference_wavelength: float = 1555.7e-9  # m

    def __post_init__(self) -> None:
        for name in ("dispersion_ps_per_nm_km", "fiber_length_km", "time_bin",
                     "window", "reference_wavelength"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0 <= self.jitter_fwhm < np.inf:
            raise ValueError("jitter_fwhm must be finite and >= 0")
        ratio = self.window / self.time_bin
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("window must be an integer number of time bins")

    @property
    def n_bins(self) -> int:
        return int(round(self.window / self.time_bin))

    @property
    def time_rate(self) -> float:
        """Arrival-time shift per unit wavelength, s/m (0.4 ns/nm at defaults)."""
        return self.dispersion_ps_per_nm_km * self.fiber_length_km * 1e-3

    @property
    def jitter_sigma(self) -> float:
        return self.jitter_fwhm / (2.0 * np.sqrt(2.0 * np.log(2.0)))

    @property
    def time_edges(self) -> np.ndarray:
        return -self.window / 2.0 + self.time_bin * np.arange(self.n_bins + 1)

    @property
    def time_centers(self) -> np.ndarray:
        return -self.window / 2.0 + self.time_bin * (np.arange(self.n_bins) + 0.5)


def detuning_to_time(spec: SpectrometerSpec, detuning, center_frequency_hz: float):
    """Arrival time, relative to the reference wavelength's, of a photon at
    a given detuning (rad/s) from the band center.

    Linear in the photon's exact wavelength, lambda = 2 pi c / (omega0 +
    nu): t = rate * (lambda - lambda_ref), so the slight nonlinearity of
    the frequency-to-time map across the band is kept.  Values outside
    [-window/2, window/2) indicate aliasing; they are returned as-is
    (never wrapped) so the caller can detect and account for them.
    """
    omega0 = 2.0 * np.pi * center_frequency_hz
    lam = 2.0 * np.pi * C_LIGHT / (omega0 + np.asarray(detuning, dtype=float))
    out = spec.time_rate * (lam - spec.reference_wavelength)
    return out if out.ndim else float(out)


# the jitter blur is cut at this many standard deviations; the Gaussian
# tail beyond it, Phi(-9) = 1.1e-19, is below double rounding of a unit mass
_BLUR_CUT_SIGMAS = 9.0
# time rows per block of a banded projection
_BLOCK_ROWS = 50

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _box_blur_integral(edges: np.ndarray, a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Mass of unit boxes [a_k, b_k] blurred by N(0, sigma) into bins given by edges.

    Uses G(x) = x Phi(x/sigma) + sigma phi(x/sigma), the antiderivative of
    the Gaussian CDF; the mass of box k landing in [edges_m, edges_m+1] is
    (G(v-a) - G(u-a) - G(v-b) + G(u-b)) / (b - a).  For sigma = 0, G(x) =
    max(x, 0) recovers exact interval overlap.  G is evaluated only on the
    band of bins that reach [a_k - 9 sigma, b_k + 9 sigma]; every other
    entry is exactly zero, and the cut drops at most Phi(-9) = 1.1e-19 of
    the box's mass on each side.
    """
    n = edges.size - 1
    reach = _BLUR_CUT_SIGMAS * sigma
    # box k reaches bins lo[k] <= m < hi[k]
    lo = np.maximum(np.searchsorted(edges, a - reach, side="right") - 1, 0)
    hi = np.minimum(np.searchsorted(edges, b + reach, side="left"), n)
    width = int((hi - lo).max(initial=0))

    def g(x: np.ndarray) -> np.ndarray:
        if sigma == 0.0:
            return np.maximum(x, 0.0)
        # for |x| >> sigma the z*z overflow is the correct limit
        # (exp term -> 0), so silence the spurious warning
        with np.errstate(over="ignore"):
            z = x / sigma
            cdf = 0.5 * _erfc(-z / np.sqrt(2.0)).astype(float)
            return x * cdf + sigma * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

    rows = lo[None, :] + np.arange(width + 1)[:, None]
    x = edges[np.minimum(rows, n)]
    band = (np.diff(g(x - a), axis=0) - np.diff(g(x - b), axis=0)) / (b - a)
    inside = rows[:-1] < hi[None, :]
    out = np.zeros((n, a.size))
    out[rows[:-1][inside], np.nonzero(inside)[1]] = band[inside]
    return out


def build_transfer(
    spec: SpectrometerSpec,
    nu_axis: np.ndarray,
    center_frequency_hz: float,
) -> np.ndarray:
    """Transfer matrix T[m, k] of one detector: frequency cell k -> time bin m.

    Both photons share the grid's axis, so one matrix serves the signal
    and the idler detector alike.  Cell k spans the arrival times of its
    two frequency edges (exact wavelength map, no linearization), then
    the jitter blur integral spreads it over the time bins.  Columns sum
    to <= 1; the deficit is the cell's out-of-window (aliased plus
    blurred-out) mass.
    """
    nu = np.asarray(nu_axis, dtype=float)
    d_nu = nu[1] - nu[0]
    cell_edges = np.concatenate([nu - d_nu / 2.0, [nu[-1] + d_nu / 2.0]])
    t_edges = detuning_to_time(spec, cell_edges, center_frequency_hz)
    a = np.minimum(t_edges[:-1], t_edges[1:])
    b = np.maximum(t_edges[:-1], t_edges[1:])
    return _box_blur_integral(spec.time_edges, a, b, spec.jitter_sigma)


def spectrum_projector(
    intensity: np.ndarray,
    grid: FrequencyGrid,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
):
    """The spectrometer's map of one joint spectrum on ``grid``, as a function.

    Checks the (n_idler, n_signal) spectrum ``intensity`` once and returns
    ``project(weights=None) -> (probabilities, alias_fraction)``.  It maps
    the spectrum, cell by cell times the nonnegative ``weights`` when
    given, onto the time grid, rows the idler detector and columns the
    signal detector: image = T (I w) T^T / mass for the transfer matrix T
    that both detectors share, so that image.sum() is the share of the
    spectrum inside the window.  ``probabilities`` is that image scaled to
    unit sum, the detection probabilities conditioned on landing in the
    window, and ``alias_fraction`` the share outside it, 1 - image.sum().
    Raises MeasurementError when the spectrum carries no intensity or none
    of it lands in the window.  This is the one place that scales an image
    or computes an alias fraction.  ``probabilities`` is the projector's
    one n x n buffer, which the next call overwrites.

    T is zero outside its band, so only its blocks are kept: for each
    block of _BLOCK_ROWS time rows, the contiguous span of frequency
    columns that reaches it and a copy of T on those rows and columns.
    The image is formed one block of rows at a time: an idler block's
    transfer times its rows of the spectrum, over only the signal columns
    that some block reaches and with the weights multiplied in there,
    then that product times each signal block's transfer.  Neither the
    dense T nor a full-size product is held, and ``weights`` may be a
    read-only view such as FrequencyGrid.toeplitz gives.
    """
    inten = np.asarray(intensity, dtype=float)
    _check_spectrum("intensity", inten, grid)
    total = inten.sum()
    blocks = _transfer_blocks(build_transfer(spec, grid.nu, center_frequency_hz))
    # the signal columns that some block reaches
    lo = min((cols.start for _, cols, _ in blocks), default=0)
    span = slice(lo, max((cols.stop for _, cols, _ in blocks), default=0))
    # every call writes the same blocks, so the cells outside them stay zero
    image = np.zeros((spec.n_bins, spec.n_bins))

    def project(weights=None) -> tuple[np.ndarray, float]:
        if weights is not None:
            _check_spectrum("weights", weights, grid)
        mass = total if weights is None else np.einsum("ij,ij->", inten, weights)
        if mass <= 0:
            raise MeasurementError("joint spectrum carries no intensity")
        for rows, cols, block in blocks:
            part = inten[cols, span]
            part = block @ (part if weights is None else part * weights[cols, span])
            for rows_s, cols_s, block_s in blocks:
                image[rows, rows_s] = part[:, cols_s.start - lo:cols_s.stop - lo] @ block_s.T
        np.divide(image, mass, out=image)
        # the blur integral is nonnegative analytically; floating cancellation
        # can leave -1e-18-level residue that multinomial sampling rejects
        np.clip(image, 0.0, None, out=image)
        kept = float(image.sum())
        if kept <= 0:
            raise MeasurementError("entire joint spectrum maps outside the time window")
        np.divide(image, kept, out=image)
        return image, max(1.0 - kept, 0.0)

    return project


def _check_spectrum(name: str, array: np.ndarray, grid: FrequencyGrid) -> None:
    """A joint spectrum or weight map must fill the grid and be nonnegative;
    ``min`` makes no full-size temporary and, like ``any(array < 0)``,
    lets NaN through."""
    if array.shape != grid.shape:
        raise ValueError(f"{name} shape {array.shape} does not match grid {grid.shape}")
    if array.min() < 0:
        raise ValueError(f"{name} must be nonnegative")


def _transfer_blocks(transfer: np.ndarray) -> list[tuple[slice, slice, np.ndarray]]:
    """(rows, cols, transfer[rows, cols]) of each block of time rows, with
    the contiguous span of frequency columns that reaches it and a
    contiguous copy of the transfer there; blocks no column reaches are
    left out."""
    reached = transfer != 0
    blocks = []
    for start in range(0, transfer.shape[0], _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        cols = np.flatnonzero(reached[rows].any(axis=0))
        if cols.size:
            cols = slice(int(cols[0]), int(cols[-1]) + 1)
            blocks.append((rows, cols, np.ascontiguousarray(transfer[rows, cols])))
    return blocks


@dataclass
class CountMatrix:
    """Detected coincidence histogram on the spectrometer time grid.

    ``spec`` is the spectrometer the histogram was recorded with: its time
    grid indexes both axes, rows the idler detector and columns the
    signal detector, and detuning_to_time on it places every gate.
    """

    values: np.ndarray            # (n_idler_bins, n_signal_bins) nonnegative ints
    spec: SpectrometerSpec
    center_frequency_hz: float    # Hz, the band center that detunings are measured from
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        n = self.spec.n_bins
        if self.values.shape != (n, n):
            raise ValueError(
                f"values of shape {self.values.shape} do not fill the {n} x {n} time grid"
            )
        if np.any(self.values < 0):
            raise ValueError("counts must be nonnegative")
        if not np.issubdtype(self.values.dtype, np.integer):
            if np.any(self.values != np.round(self.values)):
                raise ValueError("counts must be integers")
            self.values = self.values.astype(np.int64)

    @property
    def total(self) -> int:
        return int(self.values.sum())


def simulate_counts(
    intensity: np.ndarray,
    grid: FrequencyGrid,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    total_events: int,
    seed: int,
    max_alias_fraction: float,
) -> CountMatrix:
    """Poissonian acquisition of the joint spectrum ``intensity`` (|JSA|^2
    on ``grid``, its detunings measured from the band center
    center_frequency_hz), projected once by spectrum_projector.

    Draws the detected events multinomially over the time-grid cells, so
    the matrix total equals the event count exactly.  Raises
    MeasurementError when more than max_alias_fraction of the spectrum
    falls outside the acquisition window, reporting the mass; smaller
    alias fractions are recorded in the metadata instead.
    """
    if total_events < 0:
        raise ValueError("total_events must be >= 0")
    probs, alias = spectrum_projector(intensity, grid, spec, center_frequency_hz)()
    _check_alias(alias, spec, max_alias_fraction)
    counts = _draw_counts(probs, spec, center_frequency_hz, total_events, seed)
    counts.metadata["alias_fraction"] = alias
    return counts


def _check_alias(alias: float, spec: SpectrometerSpec, max_alias_fraction: float) -> None:
    if alias > max_alias_fraction:
        raise MeasurementError(
            f"{alias:.4%} of the joint spectrum lies outside the {spec.window * 1e9:.3g} ns "
            f"window (limit {max_alias_fraction:.2%}); widen the window or narrow the grid"
        )


def _draw_counts(
    probs: np.ndarray,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    total_events: int,
    seed,
) -> CountMatrix:
    """Multinomial draw of the detected events over the time-grid cells of
    ``probs``, which sums to 1 as a projector's probabilities do."""
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(int(total_events), probs.ravel())
    return CountMatrix(
        values=draws.reshape(probs.shape),
        spec=spec,
        center_frequency_hz=center_frequency_hz,
        metadata={"seed": seed, "requested_events": int(total_events)},
    )


def marginals(counts: CountMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(signal, idler) marginals of the counts: the column and row sums of
    the counts over their total, scaled so the tallest peak is 1."""
    total = counts.total
    if total <= 0:
        raise MeasurementError("count matrix is empty")
    share = counts.values.astype(float) / total
    sig, idl = share.sum(axis=0), share.sum(axis=1)
    return sig / sig.max(), idl / idl.max()


_COUNTS_FIELDS = {
    "nt": int, "dt_ps": float, "t0_ns": float, "disp_ns_per_nm": float, "ref_wavelength_m": float,
    "nu0_hz": float,
}
# the bin layout a simulated tomography projection was drawn with
_LAYOUT_FIELDS = {"bin_spacing_hz": float, "pair_count": int}


def save_counts(counts: CountMatrix, path) -> None:
    """CSV of the counts below one ``# key=value`` header line that
    carries the whole time calibration and the band center, and the bin
    layout (``bin_spacing_hz``, ``pair_count``) when the metadata holds it."""
    spec = counts.spec
    header = {
        "nt": spec.n_bins,
        "dt_ps": spec.time_bin * 1e12,
        "t0_ns": -spec.window / 2.0 * 1e9,
        "disp_ns_per_nm": spec.time_rate,
        "ref_wavelength_m": spec.reference_wavelength,
        # all 17 digits, so the gates land where the simulation put them
        "nu0_hz": f"{counts.center_frequency_hz:.17g}",
    }
    if "bin_spacing_hz" in counts.metadata:
        header["bin_spacing_hz"] = f"{counts.metadata['bin_spacing_hz']:.17g}"
    if "pair_count" in counts.metadata:
        header["pair_count"] = int(counts.metadata["pair_count"])
    row_format = ",".join(["%d"] * counts.values.shape[1])
    write_table(path, header, row_format, counts.values)


def load_counts(path) -> CountMatrix:
    """Count matrix and the spectrometer its header describes.

    The header records the total dispersion, not how it was reached, so
    the spectrometer reads as 1 km of fiber with that dispersion.
    Detector jitter is not recorded and reads 0; the time maps and the
    gates do not use it.  The window is centered on the reference
    wavelength, so ``t0_ns`` must be -nt * dt / 2.  The metadata holds
    ``path`` and, when the header records them, ``bin_spacing_hz`` and
    ``pair_count``.
    """
    header, values = read_table(path, _COUNTS_FIELDS, np.int64, optional=_LAYOUT_FIELDS)
    time_bin = header["dt_ps"] * 1e-12
    try:
        spec = SpectrometerSpec(
            dispersion_ps_per_nm_km=header["disp_ns_per_nm"] * 1e3,
            fiber_length_km=1.0,
            jitter_fwhm=0.0,
            time_bin=time_bin,
            window=header["nt"] * time_bin,
            reference_wavelength=header["ref_wavelength_m"],
        )
        if abs(header["t0_ns"] * 1e-9 + spec.window / 2.0) > 1e-9 * spec.window:
            raise ValueError(
                f"t0_ns={header['t0_ns']:.12g} does not center the "
                f"{spec.window * 1e9:.12g} ns window on the reference wavelength"
            )
        metadata = {key: header[key] for key in _LAYOUT_FIELDS if key in header}
        return CountMatrix(
            values=values, spec=spec, center_frequency_hz=header["nu0_hz"],
            metadata={"path": os.fspath(path), **metadata},
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
