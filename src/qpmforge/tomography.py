"""SIC-projection polarization tomography of the hyperentangled state.

The source emits pairs whose polarization part, conditioned on the
frequency-bin pair i, is a singlet up to a bin-dependent phase:
(|HV> - e^{i phi_i}|VH>)/sqrt(2).  Projecting both photons onto the four
SIC states gives 16 joint settings; time-gating the spectrometer
histograms separates the bins, so one acquisition yields a density
matrix per bin.  The forward model forms each bin pair's spectrum in
turn in one buffer and projects it onto the time grid at once
(bin_images); only the per-bin images are kept, never a stack of the
bin spectra, and simulate_tomography mixes those images per setting.

Basis order is |q1 q2> in {HH, HV, VH, VV} with the signal photon first;
``kron(A, B)`` therefore applies A to the signal and B to the idler.
Reconstruction is linear inversion over the tensor-product SIC frame
followed by a projection to the PSD cone.  One stacked estimator does
both, so a point estimate and its bootstrap replicas run the same code:
reconstruct_state applies it to the observed probabilities and
resample_tomography to a stack of Poisson-resampled ones, and purity
and fidelity_singlet take a single state or a stack alike.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .biphoton import FrequencyGrid
from .measurement import (
    CountMatrix,
    MeasurementError,
    SpectrometerSpec,
    _check_alias,
    _draw_counts,
    gate_cells,
    gate_interval,
    load_counts,
    save_counts,
    spectrum_projector,
)

__all__ = [
    "sic_operator",
    "singlet_state",
    "TwoQubitState",
    "reconstruct_state",
    "purity",
    "fidelity_singlet",
    "HyperState",
    "default_bin_labels",
    "bin_detuning",
    "bin_images",
    "simulate_tomography",
    "tomography_probabilities",
    "BinResult",
    "analyze_tomography",
    "resample_tomography",
    "tomography_report",
    "save_tomography_bundle",
    "load_tomography_bundle",
]

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Bloch vectors (+1, +1, +1)/sqrt(3) etc.; the four sign patterns sum to
# zero componentwise, which is what makes the set a resolution of 2*I.
_BLOCH_SIGNS = (
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
)


def sic_operator(k: int) -> np.ndarray:
    """SIC projector M_k = (I + r_k . sigma)/2 with |r_k| = 1.

    The four Bloch directions are the alternating-sign corners of the
    cube scaled to the unit sphere, a regular tetrahedron.
    """
    if k not in (1, 2, 3, 4):
        raise ValueError("SIC index must be 1..4")
    sx, sy, sz = _BLOCH_SIGNS[k - 1]
    bloch = (sx * _PAULI["x"] + sy * _PAULI["y"] + sz * _PAULI["z"]) / np.sqrt(3.0)
    return 0.5 * (np.eye(2, dtype=complex) + bloch)


def _pair_operator(j: int, k: int) -> np.ndarray:
    return np.kron(sic_operator(j), sic_operator(k))


# The 16 joint settings (j on signal, k on idler), in row-major order.
_SETTINGS = tuple((j, k) for j in range(1, 5) for k in range(1, 5))

# Frame matrix: row (j, k) holds vec((Mj x Mk)^T), so that
# probabilities = FRAME @ vec(rho) reproduces Tr[rho (Mj x Mk)].
_FRAME = np.array([_pair_operator(j, k).T.reshape(16) for j, k in _SETTINGS])
_FRAME_INV = np.linalg.inv(_FRAME)


def singlet_state(phase: float = 0.0, coherence: float = 1.0) -> np.ndarray:
    """Density matrix of (|HV> - e^{i phase}|VH>)/sqrt(2).

    ``coherence`` < 1 scales the off-diagonal element, modeling dephasing
    between the HV and VH components (e.g. retardance drifting over the
    acquisition); 1 keeps the pure state.
    """
    if not 0.0 <= coherence <= 1.0:
        raise ValueError("coherence must lie in [0, 1]")
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = -0.5 * coherence * np.exp(-1.0j * phase)
    rho[2, 1] = np.conj(rho[1, 2])
    return rho


@dataclass
class TwoQubitState:
    """Validated 4x4 density matrix plus reconstruction diagnostics.

    ``clipped_weight`` is the total negative eigenvalue mass removed by
    the PSD projection (0 when the inversion is already physical).
    """

    rho: np.ndarray
    clipped_weight: float = 0.0

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (4, 4):
            raise ValueError("state must be 4x4")
        if np.abs(rho - rho.conj().T).max() > 1e-10:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-10:
            raise ValueError("state trace differs from 1")
        if np.linalg.eigvalsh(rho).min() < -1e-9:
            raise ValueError("state has a significantly negative eigenvalue")
        self.rho = rho


def _rho(state) -> np.ndarray:
    return state.rho if isinstance(state, TwoQubitState) else np.asarray(state)


def _reconstruct(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked linear inversion: p[..., 16] -> (rho[..., 4, 4], clipped[...]).

    Inverts the frame, keeps the Hermitian part, clips the negative
    eigenvalues and renormalizes the rest; ``clipped`` is the negative
    eigenvalue mass removed.
    """
    rho = (p.astype(complex) @ _FRAME_INV.T).reshape(p.shape[:-1] + (4, 4))
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))
    vals, vecs = np.linalg.eigh(rho)
    clipped = -np.where(vals < 0, vals, 0.0).sum(axis=-1)
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum(axis=-1, keepdims=True)
    return (vecs * vals[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2)), clipped


def reconstruct_state(probabilities) -> TwoQubitState:
    """Linear-inversion tomography from the 16 SIC-pair probabilities.

    ``probabilities`` is ordered row-major over (j, k) and should sum to
    4 (the frame resolves 2I x 2I); values from gated counts are expected
    as 4*n_jk / sum(n).  The estimate is projected onto the physical
    cone by clipping negative eigenvalues and renormalizing.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (16,):
        raise ValueError("expected 16 probabilities ordered over (j, k)")
    if not np.any(p):
        raise ValueError("all 16 probabilities are zero")
    rho, clipped = _reconstruct(p)
    return TwoQubitState(rho=rho, clipped_weight=float(clipped))


def purity(state):
    """Tr(rho^2) of one state (a float) or of a [..., 4, 4] stack (an array)."""
    rho = _rho(state)
    out = np.trace(rho @ rho, axis1=-2, axis2=-1).real
    return float(out) if rho.ndim == 2 else out


def fidelity_singlet(state):
    """Best fidelity to (|HV> - e^{i phi}|VH>)/sqrt(2) over the phase.

    F(phi) = (rho_HVHV + rho_VHVH)/2 - Re(e^{i phi} rho_HV,VH), maximized
    in closed form at phi_hat = pi - arg(rho_HV,VH).  Returns (F, phi_hat)
    with phi_hat in (-pi, pi] (0 when the off-diagonal vanishes): floats
    for one state, arrays over the leading axes of a [..., 4, 4] stack.
    """
    rho = _rho(state)
    off = rho[..., 1, 2]
    fid = 0.5 * np.real(rho[..., 1, 1] + rho[..., 2, 2]) + np.abs(off)
    phi = np.pi - np.angle(off)
    phi = (phi + np.pi) % (2.0 * np.pi) - np.pi
    phi = np.where(off == 0.0, 0.0, np.where(phi == -np.pi, np.pi, phi))
    if rho.ndim == 2:
        return float(fid), float(phi)
    return fid, phi


def default_bin_labels(pair_count: int) -> np.ndarray:
    """Bin-pair labels ordered by signal detuning: -pair_count..-1, 1..pair_count."""
    neg = -np.arange(pair_count, 0, -1)
    return np.concatenate([neg, np.arange(1, pair_count + 1)])


def bin_detuning(label: int, spacing_hz: float) -> float:
    """Signal-photon detuning (rad/s) of a bin pair; idler sits at minus this."""
    if label == 0:
        raise ValueError("bin labels are signed and exclude 0")
    return float(np.sign(label) * (2 * abs(label) - 1) * np.pi * spacing_hz)


@dataclass
class HyperState:
    """Per-bin polarization description of the hyperentangled source.

    Each frequency-bin pair labels[i] carries a singlet with its own
    phase phases[i] and an emission weight weights[i] (summing to 1).  The
    optional drift[i] (radians) dephases that bin's HV/VH coherence by
    sinc(drift/2), the average of e^{i theta} over a retardance sweeping
    uniformly through drift radians during the acquisition; zeros (the
    default) keep every bin pure.
    """

    phases: np.ndarray
    weights: np.ndarray
    labels: np.ndarray
    drift: np.ndarray = None

    def __post_init__(self) -> None:
        self.phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        n = self.phases.size
        self.phases = (self.phases + np.pi) % (2.0 * np.pi) - np.pi
        self.phases[self.phases == -np.pi] = np.pi
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if self.weights.shape != (n,):
            raise ValueError("weights and phases must have equal length")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")
        self.labels = np.atleast_1d(np.asarray(self.labels, dtype=int))
        if self.labels.shape != (n,) or len(set(self.labels.tolist())) != n:
            raise ValueError("labels must be distinct and match phases in length")
        if self.drift is None:
            self.drift = np.zeros(n)
        self.drift = np.atleast_1d(np.asarray(self.drift, dtype=float))
        if self.drift.shape != (n,) or np.any(self.drift < 0):
            raise ValueError("drift must be nonnegative, one value per bin")

    @property
    def n_bins(self) -> int:
        return self.phases.size

    def coherences(self) -> np.ndarray:
        return np.abs(np.sinc(self.drift / (2.0 * np.pi)))

    def bin_state(self, index: int) -> np.ndarray:
        return singlet_state(self.phases[index], self.coherences()[index])


def bin_images(
    intensity: np.ndarray,
    grid: FrequencyGrid,
    center_frequency_hz: float,
    spec: SpectrometerSpec,
    spacing_hz: float,
    pair_count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each bin pair's spectrum on the spectrometer's time grid.

    ``intensity`` is a joint spectrum |JSA|^2 on ``grid`` around the band
    center ``center_frequency_hz``; taking it in place of the amplitude
    lets a caller free the amplitude before the pass.  Cells are assigned
    to the bin pair whose difference-frequency center nu_s - nu_i is
    nearest.  The bin spectra are formed one at a time in one reused
    buffer, each normalized to unit sum and projected around the band
    center at once, so no stack of bin spectra exists.  Returns (labels,
    images, weights): images[i] as spectrum_projector writes it, weights
    the mass fractions.
    """
    inten = np.asarray(intensity, dtype=float)
    if inten.shape != grid.shape:
        raise ValueError("intensity must match the grid's shape")
    total = inten.sum()
    if total <= 0:
        raise ValueError("joint spectrum carries no intensity")
    labels = default_bin_labels(pair_count)
    centers = np.array([2.0 * bin_detuning(lab, spacing_hz) for lab in labels])
    bounds = 0.5 * (centers[1:] + centers[:-1])
    # one byte of bin index per cell, formed a row at a time
    nearest = np.empty(grid.shape, dtype=np.min_scalar_type(labels.size))
    for row, nu_idler in zip(nearest, grid.nu):
        row[:] = np.digitize(grid.nu - nu_idler, bounds)
    project = spectrum_projector(grid, spec, center_frequency_hz)
    images = np.zeros((labels.size, spec.n_bins, spec.n_bins))
    weights = np.zeros(labels.size)
    part = np.empty(grid.shape)
    for i, image in enumerate(images):
        part.fill(0.0)
        np.copyto(part, inten, where=nearest == i)
        mass = part.sum()
        if mass <= 0:
            raise MeasurementError(f"bin {labels[i]:+d} of the joint spectrum carries no intensity")
        weights[i] = mass / total
        part /= mass
        project(part, image)
    return labels, images, weights


def _born_table(hyper: HyperState) -> np.ndarray:
    """Tr[rho_i (Mj x Mk)]: rows over the 16 settings, columns over bins."""
    states = np.array([hyper.bin_state(i).reshape(16) for i in range(hyper.n_bins)])
    return (_FRAME @ states.T).real


def simulate_tomography(
    hyper: HyperState,
    images: np.ndarray,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    events: float,
    seed: int,
    max_alias_fraction: float,
) -> dict[tuple[int, int], CountMatrix]:
    """Forward-simulate the 16 SIC projection acquisitions.

    For setting (j, k) each bin contributes weight_i * Tr[rho_i (Mj x Mk)]
    of the total pair flux; the projection's event total is Poissonian
    with mean 4 * events * that flux (so ``events`` is the average count
    per projection), and the image sampled is the correspondingly
    weighted mixture of the per-bin images, which bin_images projects
    one spectrum at a time around the band center center_frequency_hz.
    Raises MeasurementError when more than max_alias_fraction of the
    source as a whole falls outside the acquisition window.
    """
    images = np.asarray(images, dtype=float)
    if images.shape[0] != hyper.n_bins:
        raise ValueError("images must carry one matrix per bin")
    if events < 0:
        raise ValueError("events must be >= 0")
    kept = images.sum(axis=(-2, -1))
    _check_alias(float(1.0 - hyper.weights @ kept), spec, max_alias_fraction)
    born = _born_table(hyper)
    master = np.random.default_rng([int(seed), 0x7013])
    out: dict[tuple[int, int], CountMatrix] = {}
    for (j, k), born_jk in zip(_SETTINGS, born):
        # exact Born zeros (matched singlet projections) come out as
        # -1e-16-level residue, which np.random.poisson rejects
        flux = np.clip(hyper.weights * born_jk, 0.0, None)
        q_jk = flux.sum()
        total = int(master.poisson(4.0 * events * q_jk))
        mix = flux / q_jk if q_jk > 0 else hyper.weights
        counts = _draw_counts(
            np.tensordot(mix, images, axes=(0, 0)), spec, center_frequency_hz, total,
            seed=[int(seed), j, k],
        )
        counts.metadata["alias_fraction"] = max(float(1.0 - mix @ kept), 0.0)
        counts.metadata["projection"] = (j, k)
        counts.metadata["born_flux"] = float(q_jk)
        out[(j, k)] = counts
    return out


def _bin_cells(
    spec: SpectrometerSpec,
    label: int,
    center_frequency_hz: float,
    spacing_hz: float,
    width: float,
):
    """(idler rows, signal columns) index of a bin pair's gated cells: the
    signal gate sits on the bin's arrival time, the idler gate on the
    conjugate bin's."""
    return gate_cells(spec, *(
        gate_interval(spec, bin_detuning(sign * int(label), spacing_hz), center_frequency_hz, width)
        for sign in (1, -1)
    ))


def tomography_probabilities(
    counts_by_projection: dict[tuple[int, int], CountMatrix],
    label: int,
    spacing_hz: float,
    width: float,
) -> tuple[np.ndarray, int]:
    """Gated SIC probabilities for one bin: p_jk = 4 n_jk / sum(n).

    Each projection is gated with the calibration and band center its
    count matrix carries.  The scale 4 restores the Born normalization (the 16
    probabilities of any state sum to 4) because each setting is a
    separate acquisition with no shared total.  Returns (probabilities,
    total gated counts).
    """
    projections = [counts_by_projection[key] for key in _SETTINGS]
    gated = np.array(
        [
            counts.values[_bin_cells(
                counts.spec, label, counts.center_frequency_hz, spacing_hz, width
            )].sum()
            for counts in projections
        ],
        dtype=float,
    )
    total = gated.sum()
    if total <= 0:
        raise MeasurementError(f"bin {label}: no gated counts in any projection")
    return 4.0 * gated / total, int(total)


@dataclass
class BinResult:
    """Per-bin tomography outcome."""

    label: int
    state: TwoQubitState
    purity: float
    fidelity: float
    phase: float
    events: int
    purity_std: float = float("nan")
    fidelity_std: float = float("nan")
    probabilities: np.ndarray = field(default=None, repr=False)


def resample_tomography(
    gated_counts: np.ndarray,
    n_resamples: int,
    seed: int,
) -> tuple[float, float]:
    """Poisson-bootstrap standard deviations of (purity, fidelity).

    Resamples the 16 gated totals as independent Poisson variates and
    runs each replica through the point estimate's own reconstruction,
    purity and fidelity.  Replicas with no counts at all are dropped.
    """
    gated = np.asarray(gated_counts, dtype=float)
    if gated.shape != (16,):
        raise ValueError("expected 16 gated totals")
    rng = np.random.default_rng(seed)
    draws = rng.poisson(gated, size=(n_resamples, 16)).astype(float)
    draws = draws[draws.sum(axis=1) > 0]
    rho, _ = _reconstruct(4.0 * draws / draws.sum(axis=1, keepdims=True))
    fid, _ = fidelity_singlet(rho)
    return float(purity(rho).std(ddof=1)), float(fid.std(ddof=1))


def analyze_tomography(
    counts_by_projection: dict[tuple[int, int], CountMatrix],
    labels,
    spacing_hz: float,
    width: float,
    n_resamples: int,
    seed: int,
) -> list[BinResult]:
    """Gate, reconstruct, and summarize every bin of a projection set.

    With ``n_resamples`` > 0 each bin also gets Poisson-bootstrap error
    bars on purity and fidelity.
    """
    results = []
    for label in labels:
        probs, total = tomography_probabilities(
            counts_by_projection, label, spacing_hz, width
        )
        state = reconstruct_state(probs)
        fid, phi = fidelity_singlet(state)
        result = BinResult(
            label=int(label),
            state=state,
            purity=purity(state),
            fidelity=fid,
            phase=phi,
            events=total,
            probabilities=probs,
        )
        if n_resamples > 0:
            gated = probs * total / 4.0
            result.purity_std, result.fidelity_std = resample_tomography(
                gated, n_resamples, seed=[seed, int(label) & 0xFF]
            )
        results.append(result)
    return results


def tomography_report(results: list[BinResult]) -> str:
    """Fixed-width per-bin table of purity, fidelity, and phase."""
    lines = ["bin   events      purity            fidelity          phase_rad"]
    for r in results:
        pur = f"{r.purity:.4f}"
        fid = f"{r.fidelity:.4f}"
        if np.isfinite(r.purity_std):
            pur += f" +/- {r.purity_std:.4f}"
        if np.isfinite(r.fidelity_std):
            fid += f" +/- {r.fidelity_std:.4f}"
        lines.append(
            f"{r.label:+d}   {r.events:9d}   {pur:<17s} {fid:<17s} {r.phase:+.4f}"
        )
    return "\n".join(lines)


_PROJ_RE = re.compile(r"proj_([1-4])_([1-4])\.csv$")


def save_tomography_bundle(
    directory,
    counts_by_projection: dict[tuple[int, int], CountMatrix],
) -> None:
    """Write proj_<j>_<k>.csv for all 16 settings."""
    os.makedirs(directory, exist_ok=True)
    for (j, k), counts in counts_by_projection.items():
        save_counts(counts, os.path.join(directory, f"proj_{j}_{k}.csv"))


def load_tomography_bundle(directory) -> dict[tuple[int, int], CountMatrix]:
    out: dict[tuple[int, int], CountMatrix] = {}
    for name in sorted(os.listdir(directory)):
        match = _PROJ_RE.match(name)
        if match:
            j, k = int(match.group(1)), int(match.group(2))
            out[(j, k)] = load_counts(os.path.join(directory, name))
    if len(out) != 16:
        raise ValueError(f"{directory}: found {len(out)} projection files, expected 16")
    return out
