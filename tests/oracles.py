"""Test oracles: plain, dense statements of what the package computes.

No pipeline stage calls these.  Each states a quantity directly, as a
Born rule, a dense stack or a closed form, and tests compare the
package's own structured or streamed code against it.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from qpmforge.analysis import schmidt_number
from qpmforge.biphoton import (
    C_LIGHT,
    DispersionMap,
    FrequencyGrid,
    JointSpectralAmplitude,
    JointSpectralIntensity,
    pump_envelope,
)
from qpmforge.config import default_config
from qpmforge.crystal import CombSpec, pmf_of_domains, target_pmf
from qpmforge.interference import HomCurve
from qpmforge.measurement import (
    MeasurementError,
    SpectrometerSpec,
    build_transfer,
    detuning_to_time,
)
from qpmforge.tomography import (
    HyperState,
    _born_table,
    _pair_operator,
    _rho,
    bin_detuning,
    bin_gates,
    default_bin_labels,
)

# band center of every amplitude built from the default pump
NU0 = C_LIGHT / (2.0 * default_config()["pump"]["wavelength_m"])


def percent_rows(row_format: str, table) -> bytes:
    """A table body by its definition: one ``row_format % tuple(row)``
    line per row, each row's values as Python numbers."""
    return "".join(row_format % tuple(row.tolist()) + "\n" for row in table).encode("ascii")


@dataclass(frozen=True)
class DenseAmplitude:
    """An amplitude given cell by cell, values[idler, signal] on ``grid``:
    what save_jsa and save_jsi read of a JointSpectralAmplitude, for the
    tables that are no product of a diagonal and an antidiagonal factor."""

    grid: FrequencyGrid
    values: np.ndarray
    center_frequency_hz: float


def norm_squared(values, grid: FrequencyGrid) -> float:
    """L2 norm of an (n, n) amplitude with the grid measure:
    sum |f|^2 dnu_s dnu_i."""
    return float(np.sum(np.abs(values) ** 2) * grid.d_nu * grid.d_nu)


def normalized(values, grid: FrequencyGrid) -> np.ndarray:
    """The (n, n) amplitude scaled to unit norm_squared."""
    n2 = norm_squared(values, grid)
    if n2 <= 0:
        raise ValueError("cannot normalise a zero amplitude")
    return np.asarray(values) / np.sqrt(n2)


def project_probability(rho, j: int, k: int) -> float:
    """Born probability Tr[rho (M_j x M_k)], j on signal, k on idler."""
    return float(np.real(np.trace(_rho(rho) @ _pair_operator(j, k))))


def split_bins(
    jsa: JointSpectralAmplitude,
    spacing_hz: float,
    pair_count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition a joint intensity into per-bin-pair components, as one stack.

    Cells are assigned to the bin pair whose difference-frequency center
    is nearest nu_s - nu_i, taken as (column - row) * d_nu, so every
    diagonal lies in one bin.  Returns (labels, intensities, weights)
    with intensities[i] normalized to unit sum and weights the mass
    fractions.
    """
    inten, grid = np.abs(jsa.values) ** 2, jsa.grid
    labels = default_bin_labels(pair_count)
    centers = np.array([2.0 * bin_detuning(lab, spacing_hz) for lab in labels])
    n = grid.nu.size
    diff = (np.arange(n)[None, :] - np.arange(n)[:, None]) * grid.d_nu
    nearest = np.digitize(diff, 0.5 * (centers[1:] + centers[:-1]))
    total = inten.sum()
    if total <= 0:
        raise ValueError("joint spectrum carries no intensity")
    parts = np.zeros((labels.size,) + inten.shape)
    weights = np.zeros(labels.size)
    for i, part in enumerate(parts):
        np.copyto(part, inten, where=nearest == i)
        mass = part.sum()
        weights[i] = mass / total
        if mass > 0:
            part /= mass
    return labels, parts, weights


def dense(intensity: JointSpectralIntensity) -> np.ndarray:
    """The (n, n) joint intensity of a factored one: the product of its
    diagonal factor's toeplitz view and its pump's hankel view, cell by
    cell."""
    grid = intensity.grid
    return grid.toeplitz(intensity.diagonals) * grid.hankel(intensity.antidiagonals)


def edge_fraction(intensity: np.ndarray) -> float:
    """The share of an (n, n) intensity in its two outermost rows and
    columns, by masking a copy of the array: every edge cell once."""
    inten = np.asarray(intensity, dtype=float)
    edge = np.zeros(inten.shape, dtype=bool)
    edge[:2] = edge[-2:] = edge[:, :2] = edge[:, -2:] = True
    return float(inten[edge].sum() / inten.sum())


def cell_times(spec: SpectrometerSpec, nu, center_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Arrival-time interval [a_k, b_k] of each frequency cell."""
    d_nu = nu[1] - nu[0]
    t = detuning_to_time(spec, np.append(nu - d_nu / 2.0, nu[-1] + d_nu / 2.0), center_hz)
    return np.minimum(t[:-1], t[1:]), np.maximum(t[:-1], t[1:])


def dense_transfer(spec: SpectrometerSpec, nu, center_hz: float) -> np.ndarray:
    """The blur integral on every (time bin, cell) pair, with scipy's ndtr
    and no cut: the dense (n_bins, n) transfer that build_transfer's
    blocks stand for.  Zero jitter is exact interval overlap."""
    a, b = cell_times(spec, nu, center_hz)
    sigma = spec.jitter_sigma

    def g(x):
        if sigma == 0.0:
            return np.maximum(x, 0.0)
        with np.errstate(over="ignore"):
            z = x / sigma
            return x * ndtr(z) + sigma * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)

    x = spec.time_edges[:, None]
    return (np.diff(g(x - a), axis=0) - np.diff(g(x - b), axis=0)) / (b - a)


def transfer_matrix(blocks, n_bins: int, n: int) -> np.ndarray:
    """The (n_bins, n) transfer of build_transfer's blocks: each block
    scattered to its rows and columns, zero elsewhere."""
    transfer = np.zeros((n_bins, n))
    for rows, cols, block in blocks:
        transfer[rows, cols] = block
    return transfer


def project_stack(intensities, grid: FrequencyGrid, spec: SpectrometerSpec,
                  center_frequency_hz: float, weights=None) -> tuple[np.ndarray, np.ndarray]:
    """Each (n, n) spectrum of a (..., n, n) stack by the dense map of the
    spectrometer: image = T (I w) T^T / mass, with T build_transfer's
    blocks assembled into the whole matrix, w = grid.toeplitz(weights)
    (ones when None) and mass the sum of I w, clipped at zero.

    Returns (probabilities, alias): probabilities[...] that image scaled
    to unit sum and alias[...] 1 - its sum, the share of the spectrum
    outside the window.  Raises MeasurementError for a spectrum with no
    intensity or none inside the window.
    """
    inten = np.asarray(intensities, dtype=float)
    if weights is not None:
        inten = inten * grid.toeplitz(weights)
    transfer = transfer_matrix(
        build_transfer(spec, grid.nu, center_frequency_hz), spec.n_bins, grid.nu.size
    )
    probs = np.empty(inten.shape[:-2] + (spec.n_bins, spec.n_bins))
    alias = np.empty(inten.shape[:-2])
    for index in np.ndindex(inten.shape[:-2]):
        mass = inten[index].sum()
        if mass <= 0:
            raise MeasurementError("joint spectrum carries no intensity")
        image = np.clip(transfer @ inten[index] @ transfer.T / mass, 0.0, None)
        kept = image.sum()
        if kept <= 0:
            raise MeasurementError("entire joint spectrum maps outside the time window")
        probs[index], alias[index] = image / kept, max(1.0 - kept, 0.0)
    return probs, alias


def bin_images(
    jsa: JointSpectralAmplitude,
    spec: SpectrometerSpec,
    spacing_hz: float,
    pair_count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Each bin pair's spectrum of split_bins projected on its own:
    (images, weights) in default_bin_labels order, images[i] scaled to
    unit mass on the time grid and weights the mass fractions.  Any mix
    of the bins projects to the same mix of these images."""
    _, parts, weights = split_bins(jsa, spacing_hz, pair_count)
    probs, alias = project_stack(parts, jsa.grid, spec, jsa.center_frequency_hz)
    return probs * (1.0 - alias)[:, None, None], weights


def expected_tomography(
    hyper: HyperState,
    images: np.ndarray,
    weights: np.ndarray,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    spacing_hz: float,
    width: float,
) -> dict[int, np.ndarray]:
    """Infinite-statistics gated SIC probabilities for every bin.

    The expected gated count for (label, j, k) factorizes as
    sum_i weights_i * Born_i(j,k) * G[label, i], with weights_i bin i's
    emission weight and G the share of bin i's image (as bin_images
    projects it) inside the label's gates, as bin_gates cuts them.  This
    is the deterministic limit of simulate_tomography ->
    analyze_tomography, exposing the gating cross-talk with no sampling
    noise on top.
    """
    born = _born_table(hyper)
    out: dict[int, np.ndarray] = {}
    pair_count = hyper.n_bins // 2
    gates = bin_gates(spec, center_frequency_hz, pair_count, spacing_hz, width)
    for label, (rows, cols) in zip(default_bin_labels(pair_count), gates):
        capture = images[:, rows, cols].sum(axis=(1, 2))
        gated = born @ (weights * capture)
        out[int(label)] = 4.0 * gated / gated.sum()
    return out


def gathered_jsa(source, pump, dispersion: DispersionMap, grid: FrequencyGrid) -> np.ndarray:
    """Normalized JSA values by the dense construction: the PMF on the
    2n - 1 mismatches and the pump envelope on the 2n - 1 sums
    nu_s + nu_i, each gathered onto the grid through an (n, n) index array
    (column minus row for the PMF, row plus column for the pump), times
    each other."""
    pmf = target_pmf if isinstance(source, CombSpec) else pmf_of_domains
    n = grid.nu.size
    rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
    diff = np.arange(-(n - 1), n) * grid.d_nu
    values = pmf(source, dispersion.center + dispersion.slope * diff)[cols - rows + (n - 1)]
    values = values * pump_envelope(pump, grid.nu[0] + grid.nu[-1] + diff)[rows + cols]
    values = np.asarray(values, dtype=complex)
    total = (np.abs(values) ** 2).sum()
    return values / np.sqrt(float(total * grid.d_nu * grid.d_nu))


def diagonal_sums(array) -> np.ndarray:
    """Sums of an (n, n) array over its 2n - 1 diagonals, indexed by
    column minus row + n - 1, by bincount through an (n, n) index array;
    a complex array sums its real and imaginary parts apart."""
    array = np.asarray(array)
    n = array.shape[0]
    index = (np.arange(n)[None, :] - np.arange(n)[:, None] + (n - 1)).ravel()
    real = np.bincount(index, weights=array.real.ravel(), minlength=2 * n - 1)
    if not np.iscomplexobj(array):
        return real
    return real + 1j * np.bincount(index, weights=array.imag.ravel(), minlength=2 * n - 1)


def hom_numeric(jsa, tau) -> tuple[np.ndarray, np.ndarray]:
    """(p2, p4): the two-photon and the heralded Hong-Ou-Mandel
    coincidence probabilities of the amplitude ``jsa`` at the delays
    ``tau``, by quadrature on its grid.

    With F[i, s] the amplitude at unit norm, the grid measure absorbed,

        p2(tau) = 1/2 - 1/2 Re sum F[i, s] conj(F[s, i]) exp(i (nu_i - nu_s) tau),
        p4(tau) = 1/2 - 1/2 sum |R[s1, s2]|^2 cos((nu_s1 - nu_s2) tau),

    R = F^T conj(F) the heralded signal photon's reduced state: the four
    amplitude factors of the heralded integral pair up into R[s1, s2]
    R[s2, s1] = |R[s1, s2]|^2.  At tau = 0, p4 is 1/2 - Tr(R^2)/2, so the
    heralded visibility is the heralded purity, 1/K for flat-phase
    states.  Each sum depends on the indices only through a difference,
    so it is one sum over the 2n - 1 diagonals, each diagonal's reduction
    a bincount over the row-minus-column index of an (n, n) array, in
    row-major order.
    """
    values = jsa.values * jsa.grid.d_nu
    f = values / np.sqrt(np.sum(np.abs(values) ** 2))
    n = f.shape[0]
    index = (np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)).ravel()

    def sums(weights):
        return np.bincount(index, weights=weights.ravel(), minlength=2 * n - 1)

    swap = f * np.conj(f.T)
    swap_sums = sums(swap.real) + 1j * sums(swap.imag)
    heralded_sums = sums(np.abs(f.T @ f.conj()) ** 2)
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    d_vals = (np.arange(2 * n - 1) - (n - 1)) * jsa.grid.d_nu
    p2 = 0.5 - 0.5 * (np.exp(1j * np.outer(t, d_vals)) * swap_sums).sum(axis=1).real
    p4 = 0.5 - 0.5 * (np.cos(np.outer(t, d_vals)) @ heralded_sums)
    return p2, p4


def bin_model_jsa(n_pairs: int, delta: float, sigma: float, grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Matched-bandwidth Gaussian-bin model state on a grid.

    Pump and bin amplitudes share the width sigma in their respective
    (sum / difference) variables, which makes each bin pair separable.
    This is the state the closed forms describe exactly in the
    well-separated limit: the comb on the grid's differences times the
    pump on its sums, scaled to unit norm_squared.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    differences = grid.differences
    centers = (2.0 * np.arange(n_pairs) + 1.0) * delta / 2.0
    x = differences[:, None]
    comb = (
        np.exp(-((x - centers) ** 2) / (2.0 * sigma**2))
        + np.exp(-((x + centers) ** 2) / (2.0 * sigma**2))
    ).sum(axis=-1)
    pump = np.exp(-((grid.nu[0] + grid.nu[-1] + differences) ** 2) / (2.0 * sigma**2))
    raw = JointSpectralAmplitude(grid, comb, pump, NU0)
    return replace(raw, diagonals=raw.diagonals / np.sqrt(norm_squared(raw.values, grid)))


def svd_weights(jsa) -> np.ndarray:
    """Schmidt weights by the full decomposition: np.linalg.svd's squared
    singular values normalized to unit sum, descending, with the weights
    below 1e-12 dropped (the largest kept).  Only the values are formed:
    with its singular vectors the SVD fails to converge on some low-rank
    amplitudes that the values alone resolve."""
    values = jsa.values if isinstance(jsa, JointSpectralAmplitude) else np.asarray(jsa)
    s = np.linalg.svd(values, compute_uv=False)
    weights = s**2 / np.sum(s**2)
    return weights[: max(1, np.count_nonzero(weights > 1e-12))]


def fidelity_to_maximal(jsa, n_modes: int) -> float:
    """Fidelity to the n-mode maximally entangled state in the dominant modes.

    F = |<phi_n | psi>|^2 = (sum_{k=0}^{n-1} sqrt(lambda_k / n))^2 with the
    svd_weights sorted descending (zero-padded if fewer than n survive).
    """
    top = svd_weights(jsa)[:n_modes]
    return float(np.sum(np.sqrt(top / n_modes)) ** 2)


def monte_carlo_uncertainty(
    counts: np.ndarray,
    n_resamples: int,
    seed: int,
) -> tuple[float, float]:
    """Poissonian bootstrap of the Schmidt number of a count matrix.

    Each resample draws counts'_ij ~ Poisson(counts_ij) and evaluates
    schmidt_number(sqrt(counts')), the estimator whose value on the
    observed counts is the point estimate.  Returns (mean, sample std).
    Trial k uses the independent substream default_rng([seed, k]).  A
    replica that draws no counts at all falls back to the observed counts.

    Only the nonzero cells are drawn, in C order, into one reused matrix.
    numpy's Poisson draw with mean 0 returns 0 and consumes no randomness,
    so each replica is bit-identical to a draw over every cell.

    The flat-phase amplitude is an assumption, not an inference: measured
    intensities carry no phase, so K tracks the magnitude structure only.
    Shot noise biases this estimator upward; the bootstrap measures its
    spread, not that bias.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d array")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")

    # != 0 keeps NaN cells in the draw, which rejects them
    support = counts != 0
    means = counts[support]
    resampled = np.zeros_like(counts)

    def one_trial(k: int) -> float:
        resampled[support] = np.random.default_rng([seed, k]).poisson(means)
        if not resampled.any():
            return schmidt_number(np.sqrt(counts))
        return schmidt_number(np.sqrt(resampled))

    values = np.fromiter(map(one_trial, range(n_resamples)), dtype=float)
    return float(values.mean()), float(values.std(ddof=1))


def gradient_schmidt_number_std(counts) -> float:
    """First-order std of schmidt_number(sqrt(counts)) as half the norm of
    its gradient, formed cell by cell: with A = sqrt(counts) scaled to
    unit peak, N = ||A||^2, G = A^T A and F = ||G||_F^2,
    dK/dA = (4N/F) A - (4N^2/F^2) A G, and each sqrt of a Poisson count
    has variance close to 1/4."""
    a = np.sqrt(np.asarray(counts, dtype=float))
    peak = a.max()
    a = a / peak
    gram = a.T @ a
    n, f = np.trace(gram), np.vdot(gram, gram)
    gradient = (2.0 * n / f) * a - (2.0 * n * n / (f * f)) * (a @ gram)
    return float(np.linalg.norm(gradient) / peak)


def gate_mask(spec: SpectrometerSpec, lo: float, hi: float) -> np.ndarray:
    """The time bins of a gate [lo, hi) (s) as a boolean mask: those whose
    centers lie in the gate truncated to the window,
    [max(lo, -window/2), min(hi, window/2))."""
    edge = spec.window / 2.0
    t = spec.time_centers
    return (t >= max(lo, -edge)) & (t < min(hi, edge))


def bin_spacing_from_comb(spacing: float, dispersion: DispersionMap) -> float:
    """Per-photon bin spacing in Hz implied by a mismatch comb spacing.

    The mismatch comb lives on nu_s - nu_i, which changes twice as fast as
    either photon detuning along the energy-conservation line, and the Hz
    conversion contributes another 2 pi.
    """
    return spacing / (4.0 * np.pi * abs(dispersion.slope))


@dataclass(frozen=True)
class VisibilityResult:
    value: float
    baseline: float
    dip_value: float
    convention: str = "V = (baseline - p(0)) / baseline"


def visibility(curve: HomCurve, baseline: float | None = None) -> VisibilityResult:
    """Standard HOM visibility V = (B - p(0)) / B.

    The dip value is the sample nearest tau = 0; the baseline defaults to
    the mean over the outer 25% of the delay range (at least 3 points
    required there).
    """
    span = np.max(np.abs(curve.delays))
    if span == 0:
        raise ValueError("curve has a single delay point")
    i0 = int(np.argmin(np.abs(curve.delays)))
    if abs(curve.delays[i0]) > 0.05 * span:
        raise ValueError("curve does not sample the tau = 0 region")
    dip = float(curve.values[i0])
    if baseline is None:
        far = np.abs(curve.delays) >= 0.75 * span
        if np.count_nonzero(far) < 3:
            raise ValueError("curve lacks baseline samples at large delay")
        baseline = float(curve.values[far].mean())
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return VisibilityResult(value=(baseline - dip) / baseline, baseline=baseline, dip_value=dip)
