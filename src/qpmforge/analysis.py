"""Entanglement analysis of discretised joint spectral amplitudes.

The Schmidt decomposition of a JSA matrix is its singular value
decomposition; normalised squared singular values are the Schmidt
weights.  Two figures of merit are used:

* Schmidt number K = 1 / sum(lambda^2), the effective mode count.
* Fidelity to the n-mode maximally entangled state,
  F_n = (sum_{k<n} sqrt(lambda_k / n))^2 with weights sorted descending,
  which is insensitive to the Schmidt-mode shapes because the maximally
  entangled target is defined in the source's own dominant modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .biphoton import JointSpectralAmplitude

__all__ = [
    "SchmidtSpectrum",
    "schmidt_decompose",
    "schmidt_number",
    "fidelity_to_maximal",
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
        return float(1.0 / np.sum(self.weights ** 2))

    def entropy(self) -> float:
        """Shannon entropy of the weights in bits."""
        w = self.weights[self.weights > 0]
        return float(-(w * np.log2(w)).sum())


def schmidt_decompose(jsa: JointSpectralAmplitude | np.ndarray) -> SchmidtSpectrum:
    """SVD-based Schmidt decomposition.

    Weights below 1e-12 (relative) are dropped; they are numerical noise
    at double precision and would otherwise pollute entropy sums.
    """
    values = jsa.values if isinstance(jsa, JointSpectralAmplitude) else np.asarray(jsa)
    if values.ndim != 2:
        raise ValueError("expected a 2-d amplitude array")
    u, s, vh = np.linalg.svd(values, full_matrices=False)
    weights = s ** 2
    total = weights.sum()
    if total <= 0:
        raise ValueError("amplitude is identically zero")
    weights = weights / total
    keep = weights > _WEIGHT_FLOOR
    if not np.any(keep):
        keep[0] = True
    return SchmidtSpectrum(
        weights=weights[keep],
        idler_modes=u[:, keep],
        signal_modes=vh[keep, :].conj().T,
    )


def schmidt_number(jsa: JointSpectralAmplitude | np.ndarray) -> float:
    return schmidt_decompose(jsa).schmidt_number


def fidelity_to_maximal(jsa, n_modes: int) -> float:
    """Fidelity to the n-mode maximally entangled state in the dominant modes.

    F = |<phi_n | psi>|^2 = (sum_{k=0}^{n-1} sqrt(lambda_k / n))^2 with the
    weights sorted descending (zero-padded if fewer than n survive).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    spectrum = jsa if isinstance(jsa, SchmidtSpectrum) else schmidt_decompose(jsa)
    w = np.sort(spectrum.weights)[::-1]
    top = w[:n_modes]
    return float(np.sum(np.sqrt(top / n_modes)) ** 2)


def _metric_from_counts(counts: np.ndarray, metric, n_modes: int) -> float:
    amp = np.sqrt(counts)
    if metric == "schmidt_number":
        return schmidt_number(amp)
    if metric == "fidelity":
        return fidelity_to_maximal(amp, n_modes)
    raise ValueError(f"unknown metric {metric!r}")


def monte_carlo_uncertainty(
    counts: np.ndarray,
    metric: str = "schmidt_number",
    n_modes: int = 8,
    n_resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Poissonian bootstrap of a Schmidt metric from a count matrix.

    Each resample draws counts'_ij ~ Poisson(counts_ij), takes the square
    root as a flat-phase amplitude and recomputes the metric.  Returns
    (mean, sample std).  Trial k uses the independent substream
    default_rng([seed, k]).

    The flat-phase amplitude is an assumption, not an inference: measured
    intensities carry no phase, so the resampled metric tracks the
    magnitude structure only.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d array")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if n_resamples < 2:
        raise ValueError("n_resamples must be >= 2")

    def one_trial(k: int) -> float:
        rng = np.random.default_rng([seed, k])
        resampled = rng.poisson(counts).astype(float)
        if resampled.sum() == 0:
            resampled = counts.copy()
        return _metric_from_counts(resampled, metric, n_modes)

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


def report_from_jsa(jsa, n_modes: int = 8) -> EntanglementReport:
    spectrum = schmidt_decompose(jsa)
    return EntanglementReport(
        schmidt_number=spectrum.schmidt_number,
        fidelity=fidelity_to_maximal(spectrum, n_modes),
        n_modes=n_modes,
        entropy_bits=spectrum.entropy(),
        weights=spectrum.weights,
    )
