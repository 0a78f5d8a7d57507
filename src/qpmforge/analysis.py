"""Entanglement analysis of discretised joint spectral amplitudes.

The Schmidt decomposition of a JSA matrix is its singular value
decomposition; the Schmidt weights, its normalised squared singular
values, are the normalised eigenvalues of the Gram matrix of the
amplitude's smaller side.  Every figure of merit here is a function of
the weights alone, and no Schmidt mode function is ever computed.

A source of a few frequency bins has only a few dozen weights above the
1e-12 floor, however fine its grid, so schmidt_weights reads them from a
sketch of the amplitude's range (Halko, Martinsson & Tropp, SIAM Rev. 53,
217, 2011): with A the amplitude oriented to its smaller side, of width
n, and Omega a fixed-seed Gaussian n x 64 test matrix, Q = qr(A Omega)
and B = Q^H A, and the weights are the eigenvalues of the 64 x 64 matrix
B B^H.  The sketch is kept only under a certificate: the share of the
amplitude's mass it misses, r = ||A - Q B||_F^2 / ||A||_F^2, is at most
1e-13.  A^H A - B^H B is then positive semidefinite with a trace of
r ||A||_F^2, so by Weyl's inequality each eigenvalue of B B^H is at most
r ||A||_F^2 below the matching one of A^H A: every weight is exact to
about 1e-13, and the 1e-12 floor keeps the same weights.  One sketch is
tried, never a wider one, and the certificate alone picks the route: a
spectrum the sketch cannot hold takes the dense one, the eigenvalues of
the full Gram matrix (_unit_gram).  An amplitude no wider than 64 is
sketched exactly, since its sample spans its whole range.  The Schmidt
number and its error bar keep that Gram matrix, since they need only
its trace and norm, and measured counts are full rank.

Two figures of merit are used:

* Schmidt number K = 1 / sum(lambda^2), the effective mode count.  It
  equals the inverse purity of either photon's reduced state, which
  schmidt_number computes from a Gram matrix without a decomposition.
* Fidelity to the n-mode maximally entangled state,
  F_n = (sum_{k<n} sqrt(lambda_k / n))^2 with weights sorted descending,
  which is insensitive to the Schmidt-mode shapes because the maximally
  entangled target is defined in the source's own dominant modes.

A measured count matrix n has no phase, so its Schmidt number is read
as schmidt_number(sqrt(n)), the flat-phase amplitude.  counts_schmidt_number
returns that K with its uncertainty, both from one Gram matrix.  The
uncertainty is first order (the delta method): a Poisson count's square
root has variance close to 1/4 whatever its mean, so the std is half the
norm of the gradient of K in sqrt(n), summed over every cell, since a
repeat of the experiment can fill a cell that is empty now.  It costs
one Gram-sized product, G @ G, more than K.  The Poisson bootstrap the
tests compare it against lives with the test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .biphoton import JointSpectralAmplitude

__all__ = [
    "schmidt_weights",
    "schmidt_number",
    "counts_schmidt_number",
    "EntanglementReport",
    "report_from_jsa",
]

_WEIGHT_FLOOR = 1e-12
_GRAM_ROWS = 64  # columns per block: 1 MB of a 1024-row complex amplitude
# range sketch of schmidt_weights: 64 columns hold the 37 (comb) and 43
# (designed crystal) weights of the shipped sources with a missed share
# of about 1e-24; 48 columns missed 7e-14 of the designed one
_SKETCH_COLUMNS = 64
_SKETCH_SEED = 20110217
_SKETCH_MISS = 1e-13


def _column_blocks(jsa: JointSpectralAmplitude | np.ndarray):
    """(starts, block): the amplitude A oriented to its smaller side S,
    read _GRAM_ROWS columns at a time.  S is A, or the view A^T of a wide
    array, whose singular values are A's; block(lo) is S[:, lo : lo +
    _GRAM_ROWS] and starts the lo of every block, up to S's width
    starts.stop.  A JointSpectralAmplitude is square, and each of its
    blocks is the product of its factors' views over those columns, so no
    (n, n) array is formed."""
    if isinstance(jsa, JointSpectralAmplitude):
        grid = jsa.grid
        diagonals, antidiagonals = grid.toeplitz(jsa.diagonals), grid.hankel(jsa.antidiagonals)
        return range(0, grid.nu.size, _GRAM_ROWS), lambda lo: (
            diagonals[:, lo:lo + _GRAM_ROWS] * antidiagonals[:, lo:lo + _GRAM_ROWS]
        )
    values = np.asarray(jsa)
    if values.ndim != 2:
        raise ValueError("expected a 2-d amplitude array")
    side = values if values.shape[0] >= values.shape[1] else values.T
    return range(0, side.shape[1], _GRAM_ROWS), lambda lo: side[:, lo:lo + _GRAM_ROWS]


def schmidt_weights(jsa: JointSpectralAmplitude | np.ndarray) -> np.ndarray:
    """Schmidt weights, descending, scaled to unit sum (no mode functions
    are computed).

    They are the eigenvalues of B B^H for the certified range sketch
    B = Q^H A of the module docstring, or, when its spectrum is too wide
    for the sketch, of the full Gram matrix of _unit_gram.  Either way
    every weight above the floor is exact to 1e-13.
    Weights below 1e-12 are dropped; they are numerical noise at double
    precision, and round-off can leave them negative, which would break
    entropy sums.  At least the largest weight is kept.
    """
    weights = _sketched_spectrum(jsa)
    if weights is None:
        weights = np.linalg.eigvalsh(_unit_gram(jsa)[1])
    weights = weights[::-1]
    weights = weights / weights.sum()
    return weights[: max(1, np.count_nonzero(weights > _WEIGHT_FLOOR))]


def _sketched_spectrum(jsa: JointSpectralAmplitude | np.ndarray) -> np.ndarray | None:
    """Eigenvalues, ascending, of B B^H for the range sketch B = Q^H A / peak
    of the amplitude A, or None when the sketch misses more than
    _SKETCH_MISS of A's squared norm.

    A is read in _column_blocks, once for the sample A Omega and once for
    B and the missed mass ||A - Q B||_F^2, both scaled to unit peak.
    ||A||_F^2 is read as ||B||_F^2 plus that mass, a sum of two positive
    terms.  ||A||^2 - ||B||^2 would need no residual, but its cancellation
    leaves noise of up to 1e-14 on the shipped sources, where the residual
    reads 1e-24.
    """
    starts, block = _column_blocks(jsa)
    peak = _peak(starts, block)
    q = _range_basis(starts, block, peak)
    q_h = q.conj().T
    b = np.empty((q.shape[1], starts.stop), dtype=q.dtype)
    missed = 0.0
    for lo in starts:
        rest = block(lo) / peak
        part = np.matmul(q_h, rest, out=b[:, lo:lo + _GRAM_ROWS])
        rest -= q @ part
        missed += np.vdot(rest, rest).real
    captured = np.vdot(b, b).real
    if missed > _SKETCH_MISS * (captured + missed):
        return None
    return np.linalg.eigvalsh(b @ b.conj().T)


def _range_basis(starts: range, block, peak: float) -> np.ndarray:
    """Q of qr(A Omega / peak): an orthonormal basis of the sketched range
    of the amplitude A of _column_blocks, Omega the fixed-seed Gaussian
    test matrix of _SKETCH_COLUMNS columns.  Omega and the sample are
    freed on return, before the pass that forms B."""
    omega = np.random.default_rng(_SKETCH_SEED).standard_normal((starts.stop, _SKETCH_COLUMNS))
    sample = sum(block(lo) @ omega[lo:lo + _GRAM_ROWS] for lo in starts)
    sample /= peak
    return np.linalg.qr(sample)[0]


def schmidt_number(jsa: JointSpectralAmplitude | np.ndarray) -> float:
    """Schmidt number K = 1 / Tr(rho^2), the inverse purity of either
    photon's reduced state (Law, Walmsley & Eberly, PRL 84, 5304, 2000).

    With G the Gram matrix of the amplitude's smaller side, rho = G / Tr G,
    so K = (Tr G)^2 / ||G||_F^2: one matrix product, no decomposition.
    It differs from 1 / sum(lambda^2) over schmidt_weights' floored
    weights only by the weights below 1e-12, which add less than
    n * 1e-24 to the sum.
    """
    trace, norm2 = _trace_and_norm(_unit_gram(jsa)[1])
    return float(trace * trace / norm2)


def _trace_and_norm(gram: np.ndarray) -> tuple[float, float]:
    """Tr G and ||G||_F^2 of a Hermitian Gram matrix."""
    return np.trace(gram).real, np.vdot(gram, gram).real


def _peak(starts: range, block) -> float:
    """The largest |value| of an amplitude's _column_blocks; raises on a
    non-finite or identically zero amplitude."""
    peak = np.max([np.abs(block(lo)).max() for lo in starts])  # keeps a NaN
    if not np.isfinite(peak):
        raise np.linalg.LinAlgError("amplitude is not finite")
    if peak == 0:
        raise ValueError("amplitude is identically zero")
    return peak


def _unit_gram(jsa: JointSpectralAmplitude | np.ndarray) -> tuple[float, np.ndarray]:
    """(peak, G): the largest |value| and the Gram matrix of the smaller
    side of the amplitude scaled to unit peak, G[i, j] = S[:, i]^H S[:, j],
    formed one pair of _column_blocks at a time, so that no temporary as
    large as a square amplitude is held.

    A wide amplitude A is taken as the view A^T, whose Gram matrix
    conj(A A^H) has the trace, norm and eigenvalues of A A^H, so no
    conjugated copy of A is made."""
    starts, block = _column_blocks(jsa)
    peak = _peak(starts, block)
    # unit peak: ||G||_F^2 holds fourth powers of the amplitude, which
    # would overflow or underflow far sooner than its squares
    gram = np.empty((starts.stop,) * 2, dtype=np.result_type(block(0), 1.0))
    for lo in starts:
        left = block(lo) / peak
        left = np.conjugate(left, out=left).T
        rows = gram[lo:lo + _GRAM_ROWS]
        for lo2 in starts:
            rows[:, lo2:lo2 + _GRAM_ROWS] = left @ block(lo2)
        rows /= peak
    return peak, gram


def counts_schmidt_number(counts: np.ndarray) -> tuple[float, float]:
    """(K, std): schmidt_number(sqrt(counts)) and its first-order
    (delta-method) std, both from one Gram matrix of sqrt(counts).

    With A = sqrt(counts), N = sum A^2, G the Gram matrix of A's smaller
    side and F = ||G||_F^2, K = N^2 / F and
    dK/dA = (4N/F) A - (4N^2/F^2) A A^T A.  Each sqrt of a Poisson count
    has variance close to 1/4, so the std is half the Frobenius norm of
    that gradient, taken over every cell: an empty cell can fill in a
    repeat of the experiment.  With ||A||^2 = N, <A, A G> = F and
    ||A G||^2 = Tr G^3, its squared norm is (16 N^3/F^2)(N Tr G^3/F^2 - 1),
    a function of G alone.  The expansion is first order, so it assumes
    the shot noise is small against the counts that shape K; it measures
    the estimator's spread, not its shot-noise bias.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d array")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    peak, gram = _unit_gram(np.sqrt(counts))
    n, f = _trace_and_norm(gram)
    # 0 at rank 1, where round-off can take it below 0
    bracket = n * np.vdot(gram, gram @ gram).real / (f * f) - 1.0
    return float(n * n / f), float(2.0 * n**1.5 / (f * peak) * np.sqrt(max(bracket, 0.0)))


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
