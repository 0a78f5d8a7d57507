"""SIC-projection polarization tomography of the hyperentangled state.

The source emits pairs whose polarization part, conditioned on the
frequency-bin pair i, is a singlet up to a bin-dependent phase:
(|HV> - e^{i phi_i}|VH>)/sqrt(2).  Projecting both photons onto the four
SIC states gives 16 joint settings; time-gating the spectrometer
histograms separates the bins, so one acquisition yields a density
matrix per bin.

Basis order is |q1 q2> in {HH, HV, VH, VV} with the signal photon first;
``kron(A, B)`` therefore applies A to the signal and B to the idler.
Reconstruction is linear inversion over the tensor-product SIC frame
followed by an optional (default-on) projection to the PSD cone.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .biphoton import FrequencyGrid, JointSpectralAmplitude
from .measurement import (
    DEFAULT_GATE_WIDTH,
    CountMatrix,
    MeasurementError,
    SpectrometerSpec,
    _check_alias,
    _draw_counts,
    _gate_cells,
    build_transfer,
    gate_interval,
    gate_sum,
    load_counts,
    save_counts,
)

__all__ = [
    "sic_operator",
    "sic_projector_vector",
    "project_probability",
    "singlet_state",
    "TwoQubitState",
    "reconstruct_state",
    "purity",
    "fidelity_singlet",
    "HyperState",
    "default_bin_labels",
    "bin_detuning",
    "DEFAULT_BIN_SPACING_HZ",
    "split_bins",
    "simulate_tomography",
    "expected_tomography",
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


def sic_projector_vector(k: int) -> np.ndarray:
    """Unit ket |m_k> with M_k = |m_k><m_k| (global phase fixed by the
    first nonzero component being real positive)."""
    vals, vecs = np.linalg.eigh(sic_operator(k))
    ket = vecs[:, np.argmax(vals)]
    lead = ket[np.flatnonzero(np.abs(ket) > 1e-12)[0]]
    return ket * (np.conj(lead) / abs(lead))


def _pair_operator(j: int, k: int) -> np.ndarray:
    return np.kron(sic_operator(j), sic_operator(k))


# The 16 joint settings (j on signal, k on idler), in row-major order.
_SETTINGS = tuple((j, k) for j in range(1, 5) for k in range(1, 5))

# Frame matrix: row (j, k) holds vec((Mj x Mk)^T), so that
# probabilities = FRAME @ vec(rho) reproduces Tr[rho (Mj x Mk)].
_FRAME = np.array([_pair_operator(j, k).T.reshape(16) for j, k in _SETTINGS])
_FRAME_INV = np.linalg.inv(_FRAME)


def project_probability(rho, j: int, k: int) -> float:
    """Born probability Tr[rho (M_j x M_k)], j on signal, k on idler."""
    rho = rho.rho if isinstance(rho, TwoQubitState) else np.asarray(rho, dtype=complex)
    return float(np.real(np.trace(rho @ _pair_operator(j, k))))


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
    the PSD projection (0 for noiseless or unprojected states).
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


def _psd_clip(rho: np.ndarray) -> tuple[np.ndarray, float]:
    vals, vecs = np.linalg.eigh(rho)
    clipped = float(-vals[vals < 0].sum())
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    return (vecs * vals) @ vecs.conj().T, clipped


def reconstruct_state(probabilities, psd: bool = True) -> TwoQubitState:
    """Linear-inversion tomography from the 16 SIC-pair probabilities.

    ``probabilities`` is ordered row-major over (j, k) and should sum to
    4 (the frame resolves 2I x 2I); values from gated counts are expected
    as 4*n_jk / sum(n).  With ``psd`` the estimate is projected onto the
    physical cone by clipping negative eigenvalues and renormalizing.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (16,):
        raise ValueError("expected 16 probabilities ordered over (j, k)")
    if not np.any(p):
        raise ValueError("all 16 probabilities are zero")
    rho = (_FRAME_INV @ p.astype(complex)).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    clipped = 0.0
    if psd:
        rho, clipped = _psd_clip(rho)
    return TwoQubitState(rho=rho, clipped_weight=clipped)


def purity(state) -> float:
    rho = state.rho if isinstance(state, TwoQubitState) else np.asarray(state)
    return float(np.real(np.trace(rho @ rho)))


def fidelity_singlet(state) -> tuple[float, float]:
    """Best fidelity to (|HV> - e^{i phi}|VH>)/sqrt(2) over the phase.

    F(phi) = (rho_HVHV + rho_VHVH)/2 - Re(e^{i phi} rho_HV,VH), maximized
    in closed form at phi_hat = pi - arg(rho_HV,VH).  Returns (F, phi_hat)
    with phi_hat in (-pi, pi] (0 when the off-diagonal vanishes).
    """
    rho = state.rho if isinstance(state, TwoQubitState) else np.asarray(state)
    off = rho[1, 2]
    fid = float(0.5 * np.real(rho[1, 1] + rho[2, 2]) + abs(off))
    if abs(off) == 0.0:
        return fid, 0.0
    phi = np.pi - np.angle(off)
    phi = (phi + np.pi) % (2.0 * np.pi) - np.pi
    if phi == -np.pi:
        phi = np.pi
    return fid, float(phi)


DEFAULT_BIN_SPACING_HZ = 500e9  # Hz between adjacent single-photon bins


def default_bin_labels(pair_count: int = 4) -> np.ndarray:
    """Bin-pair labels ordered by signal detuning: -pair_count..-1, 1..pair_count."""
    neg = -np.arange(pair_count, 0, -1)
    return np.concatenate([neg, np.arange(1, pair_count + 1)])


def bin_detuning(label: int, spacing_hz: float = DEFAULT_BIN_SPACING_HZ) -> float:
    """Signal-photon detuning (rad/s) of a bin pair; idler sits at minus this."""
    if label == 0:
        raise ValueError("bin labels are signed and exclude 0")
    return float(np.sign(label) * (2 * abs(label) - 1) * np.pi * spacing_hz)


@dataclass
class HyperState:
    """Per-bin polarization description of the hyperentangled source.

    Each frequency-bin pair i carries a singlet with its own phase
    phases[i] and an emission weight weights[i] (summing to 1).  The
    optional drift[i] (radians) dephases that bin's HV/VH coherence by
    sinc(drift/2), the average of e^{i theta} over a retardance sweeping
    uniformly through drift radians during the acquisition; zeros (the
    default) keep every bin pure.
    """

    phases: np.ndarray
    weights: np.ndarray
    labels: np.ndarray = None
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
        if self.labels is None:
            if n % 2:
                raise ValueError("labels required for an odd number of bins")
            self.labels = default_bin_labels(n // 2)
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

    @classmethod
    def uniform(cls, pair_count: int = 4, phases=None) -> "HyperState":
        labels = default_bin_labels(pair_count)
        n = labels.size
        if phases is None:
            phases = np.zeros(n)
        return cls(phases=phases, weights=np.full(n, 1.0 / n), labels=labels)


def split_bins(
    jsa,
    spacing_hz: float = DEFAULT_BIN_SPACING_HZ,
    pair_count: int = 4,
    grid: FrequencyGrid | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition a joint intensity into per-bin-pair components.

    Cells are assigned to the bin pair whose difference-frequency center
    nu_s - nu_i is nearest.  Returns (labels, intensities, weights) with
    intensities[i] normalized to unit sum and weights the mass fractions.
    """
    if isinstance(jsa, JointSpectralAmplitude):
        inten, grid = jsa.intensity, jsa.grid
    else:
        if grid is None:
            raise ValueError("a bare intensity matrix needs an explicit frequency grid")
        inten = np.asarray(jsa, dtype=float)
    labels = default_bin_labels(pair_count)
    centers = np.array([2.0 * bin_detuning(lab, spacing_hz) for lab in labels])
    diff = grid.nu_signal[None, :] - grid.nu_idler[:, None]
    nearest = np.digitize(diff, 0.5 * (centers[1:] + centers[:-1]))
    total = inten.sum()
    if total <= 0:
        raise ValueError("joint spectrum carries no intensity")
    parts = np.zeros((labels.size,) + inten.shape)
    weights = np.zeros(labels.size)
    for i in range(labels.size):
        part = np.where(nearest == i, inten, 0.0)
        mass = part.sum()
        weights[i] = mass / total
        parts[i] = part / mass if mass > 0 else part
    return labels, parts, weights


def _born_table(hyper: HyperState) -> np.ndarray:
    """Tr[rho_i (Mj x Mk)]: rows over the 16 settings, columns over bins."""
    states = [hyper.bin_state(i) for i in range(hyper.n_bins)]
    return np.array([[project_probability(rho, j, k) for rho in states] for j, k in _SETTINGS])


def _project_bins(
    bin_intensities: np.ndarray,
    grid: FrequencyGrid,
    spec: SpectrometerSpec,
    center_frequency_hz: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Every bin's spectrum, scaled to unit mass, on the spectrometer time grid.

    Builds the two transfer matrices once.  Returns (images, kept):
    images[i] holds bin i's detection probability per time cell, and
    kept[i] = images[i].sum() is the fraction of the bin inside the
    window.  The projection is linear, so a mixture sum_i c_i I_i / |I_i|
    maps to sum_i c_i images[i].
    """
    if bin_intensities.shape[1:] != grid.shape:
        raise ValueError(f"bin intensities {bin_intensities.shape[1:]} do not match grid {grid.shape}")
    if np.any(bin_intensities < 0):
        raise ValueError("intensity must be nonnegative")
    mass = bin_intensities.sum(axis=(1, 2))
    if np.any(mass <= 0):
        raise MeasurementError(f"bins {np.flatnonzero(mass <= 0).tolist()} carry no intensity")
    t_signal = build_transfer(spec, grid.nu_signal, center_frequency_hz)
    t_idler = build_transfer(spec, grid.nu_idler, center_frequency_hz)
    images = np.empty((mass.size, spec.n_bins, spec.n_bins))
    for i, part in enumerate(bin_intensities):
        images[i] = t_idler @ (part / mass[i]) @ t_signal.T
    # the blur integral is nonnegative analytically; floating cancellation
    # can leave -1e-18-level residue that multinomial sampling rejects
    np.clip(images, 0.0, None, out=images)
    return images, images.sum(axis=(1, 2))


def simulate_tomography(
    hyper: HyperState,
    bin_intensities: np.ndarray,
    grid: FrequencyGrid,
    spec: SpectrometerSpec,
    events: float,
    seed: int,
    max_alias_fraction: float = 0.02,
) -> dict[tuple[int, int], CountMatrix]:
    """Forward-simulate the 16 SIC projection acquisitions.

    For setting (j, k) each bin contributes weight_i * Tr[rho_i (Mj x Mk)]
    of the total pair flux; the projection's event total is Poissonian
    with mean 4 * events * that flux (so ``events`` is the average count
    per projection), and the spectrum sampled is the correspondingly
    weighted mixture of the per-bin spectra.  Raises MeasurementError
    when more than max_alias_fraction of the source as a whole falls
    outside the acquisition window.
    """
    bin_intensities = np.asarray(bin_intensities, dtype=float)
    if bin_intensities.shape[0] != hyper.n_bins:
        raise ValueError("bin_intensities must carry one matrix per bin")
    if events < 0:
        raise ValueError("events must be >= 0")
    images, kept = _project_bins(bin_intensities, grid, spec)
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
            np.tensordot(mix, images, axes=(0, 0)), spec, total, seed=[int(seed), j, k]
        )
        counts.metadata["alias_fraction"] = max(float(1.0 - mix @ kept), 0.0)
        counts.metadata["projection"] = (j, k)
        counts.metadata["born_flux"] = float(q_jk)
        out[(j, k)] = counts
    return out


def _bin_gates(
    spec: SpectrometerSpec,
    label: int,
    spacing_hz: float,
    width: float,
    center_frequency_hz: float | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """(signal, idler) gates of a bin pair: the signal gate sits on the
    bin's arrival time, the idler gate on the conjugate bin's."""
    return tuple(
        gate_interval(spec, bin_detuning(sign * int(label), spacing_hz), width, center_frequency_hz)
        for sign in (1, -1)
    )


def expected_tomography(
    hyper: HyperState,
    bin_intensities: np.ndarray,
    grid: FrequencyGrid,
    spec: SpectrometerSpec,
    spacing_hz: float = DEFAULT_BIN_SPACING_HZ,
    width: float = DEFAULT_GATE_WIDTH,
    center_frequency_hz: float | None = None,
) -> dict[int, np.ndarray]:
    """Infinite-statistics gated SIC probabilities for every bin.

    The expected gated count for (label, j, k) factorizes as
    sum_i weight_i * Born_i(j,k) * G[label, i], with G the share of bin
    i's projected time distribution inside the label's gates, so the
    whole table needs one spectrometer projection per bin.  This is the
    deterministic limit of simulate_tomography -> tomography_probabilities,
    exposing the gating cross-talk with no sampling noise on top.
    """
    images, _ = _project_bins(
        np.asarray(bin_intensities, dtype=float), grid, spec, center_frequency_hz
    )
    born = _born_table(hyper)
    out: dict[int, np.ndarray] = {}
    for label in hyper.labels:
        gates = _bin_gates(spec, label, spacing_hz, width, center_frequency_hz)
        rows, cols = _gate_cells(spec.time_centers, *gates)
        capture = images[:, rows, cols].sum(axis=(1, 2))
        gated = born @ (hyper.weights * capture)
        out[int(label)] = 4.0 * gated / gated.sum()
    return out


def tomography_probabilities(
    counts_by_projection: dict[tuple[int, int], CountMatrix],
    label: int,
    spacing_hz: float = DEFAULT_BIN_SPACING_HZ,
    width: float = DEFAULT_GATE_WIDTH,
) -> tuple[np.ndarray, int]:
    """Gated SIC probabilities for one bin: p_jk = 4 n_jk / sum(n).

    Each projection is gated with the calibration its count matrix
    carries.  The scale 4 restores the Born normalization (the 16
    probabilities of any state sum to 4) because each setting is a
    separate acquisition with no shared total.  Returns (probabilities,
    total gated counts).
    """
    projections = [counts_by_projection[key] for key in _SETTINGS]
    gated = np.array(
        [
            gate_sum(counts, *_bin_gates(counts.spectrometer_spec(), label, spacing_hz, width))
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


def _metrics_from_gated(gated: np.ndarray) -> tuple[float, float, float]:
    probs = 4.0 * gated / gated.sum()
    state = reconstruct_state(probs)
    fid, phi = fidelity_singlet(state)
    return purity(state), fid, phi


def resample_tomography(
    gated_counts: np.ndarray,
    n_resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Poisson-bootstrap standard deviations of (purity, fidelity).

    Resamples the 16 gated totals as independent Poisson variates,
    reconstructing each replica with the PSD projection applied, exactly
    as the point estimate is produced.
    """
    gated = np.asarray(gated_counts, dtype=float)
    if gated.shape != (16,):
        raise ValueError("expected 16 gated totals")
    rng = np.random.default_rng(seed)
    draws = rng.poisson(gated, size=(n_resamples, 16)).astype(float)
    draws = draws[draws.sum(axis=1) > 0]
    probs = 4.0 * draws / draws.sum(axis=1, keepdims=True)
    rho = (probs.astype(complex) @ _FRAME_INV.T).reshape(-1, 4, 4)
    rho = 0.5 * (rho + np.conj(np.swapaxes(rho, 1, 2)))
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum(axis=1, keepdims=True)
    rho = np.einsum("nik,nk,njk->nij", vecs, vals, np.conj(vecs))
    pur = np.einsum("nij,nji->n", rho, rho).real
    fid = 0.5 * (rho[:, 1, 1] + rho[:, 2, 2]).real + np.abs(rho[:, 1, 2])
    return float(pur.std(ddof=1)), float(fid.std(ddof=1))


def analyze_tomography(
    counts_by_projection: dict[tuple[int, int], CountMatrix],
    labels=None,
    spacing_hz: float = DEFAULT_BIN_SPACING_HZ,
    width: float = DEFAULT_GATE_WIDTH,
    n_resamples: int = 0,
    seed: int = 0,
) -> list[BinResult]:
    """Gate, reconstruct, and summarize every bin of a projection set.

    With ``n_resamples`` > 0 each bin also gets Poisson-bootstrap error
    bars on purity and fidelity.
    """
    if labels is None:
        labels = default_bin_labels()
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
    manifest: dict | None = None,
) -> None:
    """Write proj_<j>_<k>.csv for all 16 settings plus a manifest."""
    os.makedirs(directory, exist_ok=True)
    for (j, k), counts in counts_by_projection.items():
        save_counts(counts, os.path.join(directory, f"proj_{j}_{k}.csv"))
    if manifest is not None:
        with open(os.path.join(directory, "manifest.txt"), "w", encoding="ascii") as fh:
            for key in sorted(manifest):
                fh.write(f"{key} = {manifest[key]}\n")


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
