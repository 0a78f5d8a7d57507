"""Test oracles: plain, dense statements of what the package computes.

No pipeline stage calls these.  Each states a quantity directly, as a
Born rule, a dense stack or a closed form, and tests compare the
package's own structured or streamed code against it.
"""

from dataclasses import dataclass

import numpy as np

from qpmforge.biphoton import (
    C_LIGHT,
    DispersionMap,
    FrequencyGrid,
    JointSpectralAmplitude,
    pump_envelope,
)
from qpmforge.config import default_config
from qpmforge.crystal import CombSpec, pmf_of_domains, target_pmf
from qpmforge.interference import HomCurve
from qpmforge.measurement import SpectrometerSpec, spectrum_projector
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


def norm_squared(jsa: JointSpectralAmplitude) -> float:
    """L2 norm with the grid measure: sum |f|^2 dnu_s dnu_i."""
    return float(np.sum(jsa.intensity) * jsa.grid.d_nu * jsa.grid.d_nu)


def normalized(jsa: JointSpectralAmplitude) -> JointSpectralAmplitude:
    """The amplitude scaled to unit norm_squared."""
    n2 = norm_squared(jsa)
    if n2 <= 0:
        raise ValueError("cannot normalise a zero amplitude")
    return JointSpectralAmplitude(
        grid=jsa.grid,
        values=jsa.values / np.sqrt(n2),
        center_frequency_hz=jsa.center_frequency_hz,
        metadata=dict(jsa.metadata),
    )


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
    inten, grid = jsa.intensity, jsa.grid
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


def project_stack(intensities, grid: FrequencyGrid, spec: SpectrometerSpec,
                  center_frequency_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """Each spectrum of a (..., n, n) stack through its own spectrum_projector.

    Returns (probabilities, alias): probabilities[...] the spectrum's time
    grid image scaled to unit sum and alias[...] the share of it outside
    the window.
    """
    inten = np.asarray(intensities, dtype=float)
    probs = np.empty(inten.shape[:-2] + (spec.n_bins, spec.n_bins))
    alias = np.empty(inten.shape[:-2])
    for index in np.ndindex(inten.shape[:-2]):
        probs[index], alias[index] = spectrum_projector(
            inten[index], grid, spec, center_frequency_hz
        )()
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
    2n - 1 mismatches gathered onto the grid through an (n, n) index
    array, times the pump envelope on the full (n, n) sum-frequency grid."""
    pmf = target_pmf if isinstance(source, CombSpec) else pmf_of_domains
    n = grid.nu.size
    diff = np.arange(-(n - 1), n) * grid.d_nu
    values = pmf(source, dispersion.center + dispersion.slope * diff)
    values = values[np.arange(n)[None, :] - np.arange(n)[:, None] + (n - 1)]
    values = values * pump_envelope(pump, grid.nu[None, :] + grid.nu[:, None])
    values = np.asarray(values, dtype=complex)
    total = (np.abs(values) ** 2).sum()
    return values / np.sqrt(float(total * grid.d_nu * grid.d_nu))


def bin_model_jsa(n_pairs: int, delta: float, sigma: float, grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Matched-bandwidth Gaussian-bin model state on a grid.

    Pump and bin amplitudes share the width sigma in their respective
    (sum / difference) variables, which makes each bin pair separable.
    This is the state the closed forms describe exactly in the
    well-separated limit.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    nu_sum = grid.nu[None, :] + grid.nu[:, None]
    nu_diff = grid.nu[None, :] - grid.nu[:, None]
    j = np.arange(n_pairs)
    centers = (2.0 * j + 1.0) * delta / 2.0
    x = nu_diff[..., None]
    comb = (
        np.exp(-((x - centers) ** 2) / (2.0 * sigma**2))
        + np.exp(-((x + centers) ** 2) / (2.0 * sigma**2))
    ).sum(axis=-1)
    values = np.exp(-(nu_sum**2) / (2.0 * sigma**2)) * comb
    return normalized(JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=NU0))


def svd_weights(jsa) -> np.ndarray:
    """Schmidt weights by the full decomposition: np.linalg.svd with its
    singular vectors, squared singular values normalized to unit sum,
    descending, with the weights below 1e-12 dropped (the largest kept)."""
    values = jsa.values if isinstance(jsa, JointSpectralAmplitude) else np.asarray(jsa)
    _, s, _ = np.linalg.svd(values, full_matrices=False)
    weights = s**2 / np.sum(s**2)
    return weights[: max(1, np.count_nonzero(weights > 1e-12))]


def fidelity_to_maximal(jsa, n_modes: int) -> float:
    """Fidelity to the n-mode maximally entangled state in the dominant modes.

    F = |<phi_n | psi>|^2 = (sum_{k=0}^{n-1} sqrt(lambda_k / n))^2 with the
    svd_weights sorted descending (zero-padded if fewer than n survive).
    """
    top = svd_weights(jsa)[:n_modes]
    return float(np.sum(np.sqrt(top / n_modes)) ** 2)


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
