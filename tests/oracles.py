"""Test oracles: plain, dense statements of what the package computes.

No pipeline stage calls these.  Each states a quantity directly, as a
Born rule, a dense stack or a closed form, and tests compare the
package's own structured or streamed code against it.
"""

import numpy as np

from qpmforge.biphoton import C_LIGHT, DispersionMap, FrequencyGrid, JointSpectralAmplitude
from qpmforge.config import default_config
from qpmforge.measurement import SpectrometerSpec, spectrum_projector
from qpmforge.tomography import (
    HyperState,
    _bin_cells,
    _born_table,
    _pair_operator,
    _rho,
    bin_detuning,
    default_bin_labels,
)

# band center of every amplitude built from the default pump
NU0 = C_LIGHT / (2.0 * default_config()["pump"]["wavelength_m"])


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
    nu_s - nu_i is nearest.  Returns (labels, intensities, weights) with
    intensities[i] normalized to unit sum and weights the mass fractions.
    """
    inten, grid = jsa.intensity, jsa.grid
    labels = default_bin_labels(pair_count)
    centers = np.array([2.0 * bin_detuning(lab, spacing_hz) for lab in labels])
    diff = grid.nu[None, :] - grid.nu[:, None]
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
    """Each spectrum of a (..., n, n) stack through one spectrum_projector.

    Returns (images, kept): images[...] scaled to unit mass on the time
    grid and kept[...] = images[...].sum(), the share inside the window.
    """
    inten = np.asarray(intensities, dtype=float)
    project = spectrum_projector(grid, spec, center_frequency_hz)
    images = np.zeros(inten.shape[:-2] + (spec.n_bins, spec.n_bins))
    for index in np.ndindex(inten.shape[:-2]):
        project(inten[index], images[index])
    return images, images.sum(axis=(-2, -1))


def expected_tomography(
    hyper: HyperState,
    images: np.ndarray,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    spacing_hz: float,
    width: float,
) -> dict[int, np.ndarray]:
    """Infinite-statistics gated SIC probabilities for every bin.

    The expected gated count for (label, j, k) factorizes as
    sum_i weight_i * Born_i(j,k) * G[label, i], with G the share of bin
    i's image (as bin_images projects it) inside the label's gates.  This
    is the deterministic limit of simulate_tomography ->
    tomography_probabilities, exposing the gating cross-talk with no
    sampling noise on top.
    """
    born = _born_table(hyper)
    out: dict[int, np.ndarray] = {}
    for label in hyper.labels:
        rows, cols = _bin_cells(spec, label, center_frequency_hz, spacing_hz, width)
        capture = images[:, rows, cols].sum(axis=(1, 2))
        gated = born @ (hyper.weights * capture)
        out[int(label)] = 4.0 * gated / gated.sum()
    return out


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
    return JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=NU0).normalized()


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
