"""Entanglement analysis of discretised joint spectral amplitudes.

The Schmidt decomposition of a JSA matrix is its singular value
decomposition; normalised squared singular values are the Schmidt
weights.  Two figures of merit are used:

* Schmidt number K = 1 / sum(lambda^2), the effective mode count.  It
  equals the inverse purity of either photon's reduced state, which
  schmidt_number computes from a Gram matrix without a decomposition.
* Fidelity to the n-mode maximally entangled state,
  F_n = (sum_{k<n} sqrt(lambda_k / n))^2 with weights sorted descending,
  which is insensitive to the Schmidt-mode shapes because the maximally
  entangled target is defined in the source's own dominant modes.

A measured count matrix n has no phase, so its Schmidt number is read
as schmidt_number(sqrt(n)), the flat-phase amplitude; the point estimate
and every replica of monte_carlo_uncertainty's Poisson bootstrap
evaluate that same expression.  The bootstrap draws only the support of
the counts, since an empty cell's Poisson replica is always 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biphoton import JointSpectralAmplitude

__all__ = [
    "SchmidtSpectrum",
    "schmidt_decompose",
    "schmidt_weights",
    "schmidt_number",
    "monte_carlo_uncertainty",
    "EntanglementReport",
    "report_from_jsa",
]

_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class SchmidtSpectrum:
    """Schmidt weights (descending, sum 1) and mode functions.

    idler_modes[:, k] and signal_modes[:, k] hold the k-th Schmidt mode
    sampled on the idler and signal axes.
    """

    weights: np.ndarray
    idler_modes: np.ndarray
    signal_modes: np.ndarray

    @property
    def schmidt_number(self) -> float:
        return _schmidt_number_of(self.weights)

    def entropy(self) -> float:
        """Shannon entropy of the weights in bits."""
        return _entropy_bits(self.weights)


def _amplitude(jsa: JointSpectralAmplitude | np.ndarray) -> np.ndarray:
    values = jsa.values if isinstance(jsa, JointSpectralAmplitude) else np.asarray(jsa)
    if values.ndim != 2:
        raise ValueError("expected a 2-d amplitude array")
    return values


def _floored_weights(singular_values: np.ndarray) -> np.ndarray:
    """Normalised squared singular values (given descending), with the
    weights below 1e-12 dropped; they are numerical noise at double
    precision and would otherwise pollute entropy sums.  At least the
    largest weight is kept."""
    weights = singular_values ** 2
    total = weights.sum()
    if not np.isfinite(total):
        raise np.linalg.LinAlgError("Schmidt weights are not finite")
    if total <= 0:
        raise ValueError("amplitude is identically zero")
    weights = weights / total
    return weights[: max(1, np.count_nonzero(weights > _WEIGHT_FLOOR))]


def schmidt_decompose(jsa: JointSpectralAmplitude | np.ndarray) -> SchmidtSpectrum:
    """SVD-based Schmidt decomposition: floored weights and mode functions."""
    u, s, vh = np.linalg.svd(_amplitude(jsa), full_matrices=False)
    weights = _floored_weights(s)
    n = weights.size
    return SchmidtSpectrum(
        weights=weights,
        idler_modes=u[:, :n],
        signal_modes=vh[:n, :].conj().T,
    )


def schmidt_weights(jsa: JointSpectralAmplitude | np.ndarray) -> np.ndarray:
    """Schmidt weights (descending, floored as in schmidt_decompose) from
    the singular values alone; no mode functions are computed."""
    return _floored_weights(np.linalg.svd(_amplitude(jsa), compute_uv=False))


def schmidt_number(jsa: JointSpectralAmplitude | np.ndarray) -> float:
    """Schmidt number K = 1 / Tr(rho^2), the inverse purity of either
    photon's reduced state (Law, Walmsley & Eberly, PRL 84, 5304, 2000).

    With G the Gram matrix of the amplitude's smaller side, rho = G / Tr G,
    so K = (Tr G)^2 / ||G||_F^2: one matrix product, no decomposition.
    It differs from 1 / sum(lambda^2) over schmidt_decompose's floored
    weights only by the weights below 1e-12, which add less than
    n * 1e-24 to the sum.
    """
    values = _amplitude(jsa)
    peak = np.max(np.abs(values))
    if not np.isfinite(peak):
        raise np.linalg.LinAlgError("amplitude is not finite")
    if peak == 0:
        raise ValueError("amplitude is identically zero")
    # unit peak: ||G||_F^2 holds fourth powers of the amplitude, which
    # would overflow or underflow far sooner than the SVD's squares
    a = values / peak
    gram = a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T
    trace = np.trace(gram).real
    return float(trace * trace / np.vdot(gram, gram).real)


def _schmidt_number_of(weights: np.ndarray) -> float:
    return float(1.0 / np.sum(weights ** 2))


def _fidelity_of(weights: np.ndarray, n_modes: int) -> float:
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    top = np.sort(weights)[::-1][:n_modes]
    return float(np.sum(np.sqrt(top / n_modes)) ** 2)


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0]
    return float(-(w * np.log2(w)).sum())


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


@dataclass(frozen=True)
class EntanglementReport:
    """Headline entanglement metrics for one JSA."""

    schmidt_number: float
    fidelity: float
    n_modes: int
    entropy_bits: float
    weights: np.ndarray = field(repr=False)

    def summary(self) -> str:
        return (
            f"K={self.schmidt_number:.3f}"
            f" F{self.n_modes}={self.fidelity:.4f}"
            f" S={self.entropy_bits:.3f}b"
        )

    def to_text(self) -> str:
        lines = [
            f"schmidt_number: {self.schmidt_number:.6f}",
            f"fidelity_maximal_{self.n_modes}: {self.fidelity:.6f}",
            f"entropy_bits: {self.entropy_bits:.6f}",
            "weights: " + ",".join(f"{w:.8e}" for w in self.weights[:16]),
        ]
        return "\n".join(lines) + "\n"


def report_from_jsa(jsa, n_modes: int) -> EntanglementReport:
    """K, fidelity and entropy from the Schmidt weights alone."""
    weights = schmidt_weights(jsa)
    return EntanglementReport(
        schmidt_number=_schmidt_number_of(weights),
        fidelity=_fidelity_of(weights, n_modes),
        n_modes=n_modes,
        entropy_bits=_entropy_bits(weights),
        weights=weights,
    )
