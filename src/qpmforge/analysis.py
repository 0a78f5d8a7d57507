"""Entanglement analysis of discretised joint spectral amplitudes.

The Schmidt decomposition of a JSA matrix is its singular value
decomposition; normalised squared singular values are the Schmidt
weights.  Every figure of merit here is a function of the weights
alone, so schmidt_weights takes the singular values without the
singular vectors, and no Schmidt mode function is ever computed.  Two
figures of merit are used:

* Schmidt number K = 1 / sum(lambda^2), the effective mode count.  It
  equals the inverse purity of either photon's reduced state, which
  schmidt_number computes from a Gram matrix without a decomposition.
* Fidelity to the n-mode maximally entangled state,
  F_n = (sum_{k<n} sqrt(lambda_k / n))^2 with weights sorted descending,
  which is insensitive to the Schmidt-mode shapes because the maximally
  entangled target is defined in the source's own dominant modes.

A measured count matrix n has no phase, so its Schmidt number is read
as schmidt_number(sqrt(n)), the flat-phase amplitude.  Its uncertainty,
schmidt_number_std, is first order (the delta method): a Poisson count's
square root has variance close to 1/4 whatever its mean, so the std is
half the norm of the gradient of K in sqrt(n), summed over every cell,
since a repeat of the experiment can fill a cell that is empty now.  It
costs one more matrix product than K itself.  monte_carlo_uncertainty,
a Poisson bootstrap of the same expression that costs one Gram product
per replica, is kept as the reference the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biphoton import JointSpectralAmplitude

__all__ = [
    "schmidt_weights",
    "schmidt_number",
    "schmidt_number_std",
    "monte_carlo_uncertainty",
    "EntanglementReport",
    "report_from_jsa",
]

_WEIGHT_FLOOR = 1e-12


def _amplitude(jsa: JointSpectralAmplitude | np.ndarray) -> np.ndarray:
    values = jsa.values if isinstance(jsa, JointSpectralAmplitude) else np.asarray(jsa)
    if values.ndim != 2:
        raise ValueError("expected a 2-d amplitude array")
    return values


def schmidt_weights(jsa: JointSpectralAmplitude | np.ndarray) -> np.ndarray:
    """Schmidt weights: the normalised squared singular values, descending,
    from the singular values alone (no mode functions are computed).

    Weights below 1e-12 are dropped; they are numerical noise at double
    precision and would otherwise pollute entropy sums.  At least the
    largest weight is kept.
    """
    weights = np.linalg.svd(_amplitude(jsa), compute_uv=False) ** 2
    total = weights.sum()
    if not np.isfinite(total):
        raise np.linalg.LinAlgError("Schmidt weights are not finite")
    if total <= 0:
        raise ValueError("amplitude is identically zero")
    weights = weights / total
    return weights[: max(1, np.count_nonzero(weights > _WEIGHT_FLOOR))]


def schmidt_number(jsa: JointSpectralAmplitude | np.ndarray) -> float:
    """Schmidt number K = 1 / Tr(rho^2), the inverse purity of either
    photon's reduced state (Law, Walmsley & Eberly, PRL 84, 5304, 2000).

    With G the Gram matrix of the amplitude's smaller side, rho = G / Tr G,
    so K = (Tr G)^2 / ||G||_F^2: one matrix product, no decomposition.
    It differs from 1 / sum(lambda^2) over schmidt_weights' floored
    weights only by the weights below 1e-12, which add less than
    n * 1e-24 to the sum.
    """
    _, _, gram = _unit_gram(_amplitude(jsa))
    trace = np.trace(gram).real
    return float(trace * trace / np.vdot(gram, gram).real)


def _unit_gram(values: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(peak, a, G): the amplitude scaled to unit peak |value| and the
    Gram matrix of its smaller side."""
    peak = np.max(np.abs(values))
    if not np.isfinite(peak):
        raise np.linalg.LinAlgError("amplitude is not finite")
    if peak == 0:
        raise ValueError("amplitude is identically zero")
    # unit peak: ||G||_F^2 holds fourth powers of the amplitude, which
    # would overflow or underflow far sooner than the SVD's squares
    a = values / peak
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    return peak, a, gram


def _check_counts(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d array")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    return counts


def schmidt_number_std(counts: np.ndarray) -> float:
    """First-order (delta-method) std of schmidt_number(sqrt(counts)).

    With A = sqrt(counts), N = sum A^2, G the Gram matrix of A's smaller
    side and F = ||G||_F^2, K = N^2 / F and
    dK/dA = (4N/F) A - (4N^2/F^2) A A^T A.  Each sqrt of a Poisson count
    has variance close to 1/4, so the std is half the Frobenius norm of
    that gradient, taken over every cell: an empty cell can fill in a
    repeat of the experiment.  The expansion is first order, so it
    assumes the shot noise is small against the counts that shape K; it
    measures the estimator's spread, not its shot-noise bias.
    """
    peak, a, gram = _unit_gram(np.sqrt(_check_counts(counts)))
    n = np.trace(gram)
    f = np.vdot(gram, gram)
    aata = a @ gram if a.shape[0] >= a.shape[1] else gram @ a
    gradient = (2.0 * n / f) * a - (2.0 * n * n / (f * f)) * aata
    return float(np.linalg.norm(gradient) / peak)


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
    counts = _check_counts(counts)
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


@dataclass(frozen=True)
class EntanglementReport:
    """Headline entanglement metrics for one JSA."""

    schmidt_number: float
    fidelity: float
    n_modes: int
    entropy_bits: float
    weights: np.ndarray = field(repr=False)

    def to_text(self) -> str:
        lines = [
            f"schmidt_number: {self.schmidt_number:.6f}",
            f"fidelity_maximal_{self.n_modes}: {self.fidelity:.6f}",
            f"entropy_bits: {self.entropy_bits:.6f}",
            "weights: " + ",".join(f"{w:.8e}" for w in self.weights[:16]),
        ]
        return "\n".join(lines) + "\n"


def report_from_jsa(jsa, n_modes: int) -> EntanglementReport:
    """K, fidelity and entropy from the Schmidt weights alone; F_n sums
    the n largest weights, zero-padded if fewer survive the floor."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    weights = schmidt_weights(jsa)
    return EntanglementReport(
        schmidt_number=float(1.0 / np.sum(weights ** 2)),
        fidelity=float(np.sum(np.sqrt(weights[:n_modes] / n_modes)) ** 2),
        n_modes=n_modes,
        entropy_bits=float(-(weights * np.log2(weights)).sum()),
        weights=weights,
    )
