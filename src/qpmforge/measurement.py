"""Time-of-flight fiber spectrometer: forward model and inverse analysis.

Chromatic dispersion in a long fiber maps photon wavelength linearly to
arrival time; two detectors (signal/idler) yield a 2-d histogram of the
joint spectrum.  The forward model here is exact in the mass-transport
sense: each frequency cell is an interval in arrival time, blurred by a
Gaussian detector jitter and integrated over the time bins using the
closed-form integral of the Gaussian CDF, so no kernel truncation or
sampling error enters before the Poisson draw.

Arrival times are measured relative to the reference wavelength's, with
the acquisition window centered on it: t in [-window/2, +window/2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .biphoton import C_LIGHT, FrequencyGrid, JointSpectralAmplitude

__all__ = [
    "MeasurementError",
    "SpectrometerSpec",
    "CountMatrix",
    "wavelength_to_time",
    "time_to_wavelength",
    "detuning_to_time",
    "build_transfer",
    "project_to_spectrometer",
    "simulate_counts",
    "reconstruct_jsi",
    "JsiReconstruction",
    "amplitude_from_jsi",
    "amplitude_from_counts",
    "gate_interval",
    "gate_sum",
    "save_counts",
    "load_counts",
    "DEFAULT_GATE_WIDTH",
]

DEFAULT_GATE_WIDTH = 1.52e-9  # s; matches an 8-bin comb with disjoint gates


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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if self.jitter_fwhm < 0:
            raise ValueError("jitter_fwhm must be >= 0")
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


def wavelength_to_time(spec: SpectrometerSpec, wavelength) -> np.ndarray:
    """Arrival time relative to the reference wavelength's.

    Linear in wavelength: t = rate * (lambda - lambda_ref).  Values
    outside [-window/2, window/2) indicate aliasing; they are returned
    as-is (never wrapped) so the caller can detect and account for them.
    """
    lam = np.asarray(wavelength, dtype=float)
    out = spec.time_rate * (lam - spec.reference_wavelength)
    return out if out.ndim else float(out)


def time_to_wavelength(spec: SpectrometerSpec, time) -> np.ndarray:
    t = np.asarray(time, dtype=float)
    out = spec.reference_wavelength + t / spec.time_rate
    return out if out.ndim else float(out)


def detuning_to_time(spec: SpectrometerSpec, detuning, center_frequency_hz: float | None = None):
    """Arrival time for a photon at a given detuning (rad/s) from band center.

    Uses the exact wavelength of the detuned photon, lambda = 2 pi c /
    (omega0 + nu), so the slight nonlinearity of the frequency-to-time map
    across the band is kept.  Without a center frequency the band center
    is the reference wavelength, so zero detuning arrives at t = 0.
    """
    if center_frequency_hz is None:
        center_frequency_hz = C_LIGHT / spec.reference_wavelength
    omega0 = 2.0 * np.pi * center_frequency_hz
    lam = 2.0 * np.pi * C_LIGHT / (omega0 + np.asarray(detuning, dtype=float))
    return wavelength_to_time(spec, lam)


def _box_blur_integral(edges: np.ndarray, a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Mass of unit boxes [a_k, b_k] blurred by N(0, sigma) into bins given by edges.

    Uses G(x) = x Phi(x/sigma) + sigma phi(x/sigma), the antiderivative of
    the Gaussian CDF; the mass of box k landing in [edges_m, edges_m+1] is
    (G(v-a) - G(u-a) - G(v-b) + G(u-b)) / (b - a).  For sigma = 0, G(x) =
    max(x, 0) recovers exact interval overlap.  Mass is conserved over the
    whole real line by construction.
    """
    def g(x: np.ndarray) -> np.ndarray:
        if sigma == 0.0:
            return np.maximum(x, 0.0)
        # for |x| >> sigma the z*z overflow is the correct limit
        # (exp term -> 0), so silence the spurious warning
        with np.errstate(over="ignore"):
            z = x / sigma
            return x * ndtr(z) + sigma * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

    ga = g(edges[:, None] - a[None, :])
    gb = g(edges[:, None] - b[None, :])
    return (np.diff(ga, axis=0) - np.diff(gb, axis=0)) / (b - a)[None, :]


def build_transfer(
    spec: SpectrometerSpec,
    nu_axis: np.ndarray,
    center_frequency_hz: float | None,
) -> np.ndarray:
    """Per-axis transfer matrix T[m, k]: frequency cell k -> time bin m.

    Cell k spans the arrival times of its two frequency edges (exact
    wavelength map, no linearization), then the jitter blur integral
    spreads it over the time bins.  Columns sum to <= 1; the deficit is
    the cell's out-of-window (aliased plus blurred-out) mass.
    """
    nu = np.asarray(nu_axis, dtype=float)
    d_nu = nu[1] - nu[0]
    cell_edges = np.concatenate([nu - d_nu / 2.0, [nu[-1] + d_nu / 2.0]])
    t_edges = detuning_to_time(spec, cell_edges, center_frequency_hz)
    a = np.minimum(t_edges[:-1], t_edges[1:])
    b = np.maximum(t_edges[:-1], t_edges[1:])
    return _box_blur_integral(spec.time_edges, a, b, spec.jitter_sigma)


def _intensity_and_grid(source, grid: FrequencyGrid | None):
    """Accept either a JointSpectralAmplitude or an (intensity, grid) pair."""
    if isinstance(source, JointSpectralAmplitude):
        return source.intensity, source.grid, source.metadata
    inten = np.asarray(source, dtype=float)
    if grid is None:
        raise ValueError("a bare intensity matrix needs an explicit frequency grid")
    if np.any(inten < 0):
        raise ValueError("intensity must be nonnegative")
    if inten.shape != grid.shape:
        raise ValueError(f"intensity shape {inten.shape} does not match grid {grid.shape}")
    return inten, grid, {}


def project_to_spectrometer(
    jsa,
    spec: SpectrometerSpec,
    center_frequency_hz: float | None = None,
    grid: FrequencyGrid | None = None,
) -> tuple[np.ndarray, float]:
    """Deterministic forward map of a joint spectrum onto the time grid.

    Accepts a JointSpectralAmplitude, or a nonnegative intensity matrix
    together with its frequency grid.  Returns (probabilities,
    alias_fraction): the n x n matrix of per-cell detection probabilities
    conditioned on landing in the window (sums to 1), and the fraction of
    the input intensity that fell outside it.  Rows index the idler
    detector, columns the signal detector, matching the JSA layout.  The
    band center is center_frequency_hz, else the amplitude's own, else
    the spectrometer's reference wavelength (see detuning_to_time).
    """
    inten, grid, metadata = _intensity_and_grid(jsa, grid)
    if center_frequency_hz is None:
        center_frequency_hz = metadata.get("center_frequency_hz")
    total = inten.sum()
    if total <= 0:
        raise ValueError("joint spectrum carries no intensity")
    t_signal = build_transfer(spec, grid.nu_signal, center_frequency_hz)
    t_idler = build_transfer(spec, grid.nu_idler, center_frequency_hz)
    mapped = t_idler @ (inten / total) @ t_signal.T
    # the blur integral is nonnegative analytically; floating cancellation
    # can leave -1e-18-level residue that multinomial sampling rejects
    np.clip(mapped, 0.0, None, out=mapped)
    kept = mapped.sum()
    alias = float(1.0 - kept)
    if kept <= 0:
        raise MeasurementError("entire joint spectrum maps outside the time window")
    return mapped / kept, max(alias, 0.0)


@dataclass
class CountMatrix:
    """Detected coincidence histogram on the spectrometer time grid."""

    values: np.ndarray            # (n_idler_bins, n_signal_bins) nonnegative ints
    time_bin: float               # s
    window_start: float           # s, left edge of first bin on both axes
    dispersion_ns_per_nm: float   # time_rate in ns/nm, for wavelength calibration
    reference_wavelength: float   # m, the wavelength that arrives at t = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ValueError("values must be 2-d")
        if np.any(self.values < 0):
            raise ValueError("counts must be nonnegative")
        if not np.issubdtype(self.values.dtype, np.integer):
            if np.any(self.values != np.round(self.values)):
                raise ValueError("counts must be integers")
            self.values = self.values.astype(np.int64)

    @property
    def total(self) -> int:
        return int(self.values.sum())

    @property
    def time_centers(self) -> np.ndarray:
        n = self.values.shape[0]
        return self.window_start + self.time_bin * (np.arange(n) + 0.5)

    def spectrometer_spec(self) -> SpectrometerSpec:
        """The calibration the histogram carries, as a spectrometer.

        The total dispersion is expressed as 1 km of fiber.  Detector
        jitter is not recorded and reads 0; the time maps and the gates
        do not use it.
        """
        return SpectrometerSpec(
            dispersion_ps_per_nm_km=self.dispersion_ns_per_nm * 1e3,
            fiber_length_km=1.0,
            jitter_fwhm=0.0,
            time_bin=self.time_bin,
            window=self.values.shape[0] * self.time_bin,
            reference_wavelength=self.reference_wavelength,
        )


def simulate_counts(
    jsa,
    spec: SpectrometerSpec,
    total_events: int,
    seed: int,
    center_frequency_hz: float | None = None,
    max_alias_fraction: float = 0.02,
    efficiency: float | None = None,
    grid: FrequencyGrid | None = None,
) -> CountMatrix:
    """Poissonian acquisition of the projected joint spectrum.

    Accepts a JointSpectralAmplitude or an intensity matrix with a grid.
    Draws the detected events multinomially over the time-grid cells, so
    the matrix total equals the (possibly efficiency-thinned) event count
    exactly.  Raises MeasurementError when more than max_alias_fraction of
    the spectrum falls outside the acquisition window, reporting the mass;
    smaller alias fractions are recorded in the metadata instead.
    """
    if total_events < 0:
        raise ValueError("total_events must be >= 0")
    probs, alias = project_to_spectrometer(jsa, spec, center_frequency_hz, grid=grid)
    _check_alias(alias, spec, max_alias_fraction)
    counts = _draw_counts(probs, spec, total_events, seed, efficiency)
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
    total_events: int,
    seed,
    efficiency: float | None = None,
) -> CountMatrix:
    """Multinomial draw of the detected events over the time-grid cells."""
    rng = np.random.default_rng(seed)
    n_detected = int(total_events)
    if efficiency is not None:
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        n_detected = int(rng.binomial(n_detected, efficiency))
    flat = probs.ravel()
    draws = rng.multinomial(n_detected, flat / flat.sum())
    return CountMatrix(
        values=draws.reshape(probs.shape),
        time_bin=spec.time_bin,
        window_start=-spec.window / 2.0,
        dispersion_ns_per_nm=spec.time_rate,
        reference_wavelength=spec.reference_wavelength,
        metadata={"seed": seed, "requested_events": int(total_events)},
    )


@dataclass(frozen=True)
class JsiReconstruction:
    """Normalized joint spectral intensity estimate with peak-normalized marginals."""

    jsi: np.ndarray
    signal_marginal: np.ndarray
    idler_marginal: np.ndarray


def reconstruct_jsi(counts: CountMatrix) -> JsiReconstruction:
    """Counts normalized to a probability matrix, plus its marginals.

    Marginals are the column (signal) and row (idler) sums scaled so the
    tallest peak is 1, the usual display convention.
    """
    total = counts.total
    if total <= 0:
        raise MeasurementError("count matrix is empty")
    jsi = counts.values.astype(float) / total
    sig = jsi.sum(axis=0)
    idl = jsi.sum(axis=1)
    return JsiReconstruction(
        jsi=jsi,
        signal_marginal=sig / sig.max(),
        idler_marginal=idl / idl.max(),
    )


def amplitude_from_jsi(jsi: np.ndarray, grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Flat-phase amplitude: entrywise square root of a JSI, renormalized.

    The measured intensity carries no phase information, so the returned
    amplitude is the one consistent with a flat spectral phase; metadata
    records the assumption.
    """
    jsi = np.asarray(jsi, dtype=float)
    if np.any(jsi < 0):
        raise ValueError("intensity must be nonnegative")
    jsa = JointSpectralAmplitude(grid=grid, values=np.sqrt(jsi))
    out = jsa.normalized()
    out.metadata["flat_phase"] = True
    return out


def amplitude_from_counts(counts: CountMatrix) -> JointSpectralAmplitude:
    """Flat-phase amplitude from a measured count matrix.

    Each time pixel is treated as one spectral mode; the pseudo-detuning
    axis comes from the linearized wavelength map (exact to ~1% across the
    default window), flipped so detuning increases with the index.  Schmidt
    metrics are invariant under that relabeling.
    """
    rate = counts.dispersion_ns_per_nm  # ns/nm == s/m numerically
    d_lambda = counts.time_bin / rate
    d_nu = 2.0 * np.pi * C_LIGHT / counts.reference_wavelength**2 * d_lambda
    n_i, n_s = counts.values.shape

    def axis(n: int) -> np.ndarray:
        return d_nu * (np.arange(n) - (n - 1) / 2.0)

    grid = FrequencyGrid(nu_signal=axis(n_s), nu_idler=axis(n_i))
    jsi = counts.values.astype(float)[::-1, ::-1]
    total = jsi.sum()
    if total <= 0:
        raise MeasurementError("count matrix is empty")
    out = amplitude_from_jsi(jsi / total, grid)
    out.metadata["pseudo_detuning_axes"] = True
    return out


def gate_interval(spec: SpectrometerSpec, detuning: float,
                  width: float = DEFAULT_GATE_WIDTH,
                  center_frequency_hz: float | None = None) -> tuple[float, float]:
    """Time gate [lo, hi) centered on a bin's arrival time.

    Gates that partially overhang the acquisition window are truncated to
    it (the overhung counts were never recorded); a gate falling entirely
    outside the window is an error.
    """
    center = detuning_to_time(spec, detuning, center_frequency_hz)
    lo, hi = center - width / 2.0, center + width / 2.0
    edge = spec.window / 2.0
    if hi <= -edge or lo >= edge:
        raise MeasurementError(
            f"gate [{lo * 1e9:.3f}, {hi * 1e9:.3f}] ns lies outside the acquisition window"
        )
    return max(lo, -edge), min(hi, edge)


def _gate_cells(time_centers: np.ndarray, signal_gate: tuple[float, float],
                idler_gate: tuple[float, float]):
    """(idler rows, signal columns) index of the cells whose centers lie in both gates."""
    t = time_centers
    return np.ix_((t >= idler_gate[0]) & (t < idler_gate[1]),
                  (t >= signal_gate[0]) & (t < signal_gate[1]))


def gate_sum(counts: CountMatrix, signal_gate: tuple[float, float],
             idler_gate: tuple[float, float]) -> int:
    """Total counts with both arrival times inside their gates (cell-center rule)."""
    return int(counts.values[_gate_cells(counts.time_centers, signal_gate, idler_gate)].sum())


def save_counts(counts: CountMatrix, path) -> None:
    """CSV of the counts below one ``# key=value`` header line that
    carries the whole time calibration."""
    header = (
        f"# nt={counts.values.shape[0]}"
        f" dt_ps={counts.time_bin * 1e12:.12g}"
        f" t0_ns={counts.window_start * 1e9:.12g}"
        f" disp_ns_per_nm={counts.dispersion_ns_per_nm:.12g}"
        f" ref_wavelength_m={counts.reference_wavelength:.12g}"
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for row in counts.values:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


def load_counts(path) -> CountMatrix:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#"):
            raise ValueError(f"{path}: missing header line")
        fields = {}
        for token in header[1:].split():
            key, _, value = token.partition("=")
            fields[key] = value
        try:
            nt = int(fields["nt"])
            dt = float(fields["dt_ps"]) * 1e-12
            t0 = float(fields["t0_ns"]) * 1e-9
            disp = float(fields["disp_ns_per_nm"])
            ref = float(fields["ref_wavelength_m"])
        except KeyError as exc:
            raise ValueError(f"{path}: header missing field {exc}") from exc
        rows = [
            [int(tok) for tok in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    values = np.array(rows, dtype=np.int64)
    if values.shape != (nt, nt):
        raise ValueError(f"{path}: data shape {values.shape} does not match header nt={nt}")
    return CountMatrix(
        values=values,
        time_bin=dt,
        window_start=t0,
        dispersion_ns_per_nm=disp,
        reference_wavelength=ref,
    )
