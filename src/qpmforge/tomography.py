"""SIC-projection polarization tomography of the hyperentangled state.

The source emits pairs whose polarization part, conditioned on the
frequency-bin pair i, is a singlet up to a bin-dependent phase:
(|HV> - e^{i phi_i}|VH>)/sqrt(2).  Projecting both photons onto the four
SIC states gives 16 joint settings; time-gating the spectrometer
histograms separates the bins, so one acquisition yields a density
matrix per bin.  The bins are the 2 * pair_count of default_bin_labels.
A grid cell belongs to the bin whose difference-frequency center is
nearest its nu_s - nu_i, which on the shared axis is fixed by the
column-row difference, so each bin is a band of whole diagonals and the
bin map is one (2n - 1)-vector.  The forward model never splits the
spectrum into bins: simulate_tomography sums each bin's mass in one
pass over the source, takes the bins' shares of it as their emission
weights, mixes the bins of each SIC setting by weighting each cell of
the source by mix_i / mass_i of its bin, and projects that one spectrum
just before it draws the setting.  The projector returns each draw's
probabilities and alias fraction, so no code here scales an image or
computes an alias fraction.  bin_gates alone lays out the bins' time
gates.

The 16 projections stream in both directions, so neither stage holds
more than one count matrix: simulate_tomography returns an iterator
that projects and draws each setting's counts when asked,
save_tomography_bundle writes each as it arrives, load_tomography_bundle
parses one file per step, and analyze_tomography gates each matrix as
it is read into a table of gated totals (settings by bins) before it
reconstructs any bin, from the probabilities 4 n_jk / sum(n) of that
bin's column.  Each simulated count matrix records the bin
layout it was drawn with, and its file keeps it, so the analysis
refuses to gate a bundle on another layout.

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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .biphoton import FrequencyGrid
from .measurement import (
    CountMatrix,
    MeasurementError,
    SpectrometerSpec,
    _check_alias,
    _draw_counts,
    detuning_to_time,
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
    "GateError",
    "bin_gates",
    "simulate_tomography",
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

    Bin i, in default_bin_labels order, carries a singlet with its own
    phase phases[i].  The optional drift[i] (radians) dephases that bin's
    HV/VH coherence by sinc(drift/2), the average of e^{i theta} over a
    retardance sweeping uniformly through drift radians during the
    acquisition; zeros (the default) keep every bin pure.  The bins'
    emission weights are not part of it: simulate_tomography reads them
    off the joint spectrum.
    """

    phases: np.ndarray
    drift: np.ndarray = None

    def __post_init__(self) -> None:
        self.phases = np.atleast_1d(np.asarray(self.phases, dtype=float))
        n = self.phases.size
        self.phases = (self.phases + np.pi) % (2.0 * np.pi) - np.pi
        self.phases[self.phases == -np.pi] = np.pi
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


def _bin_masses(
    intensity: np.ndarray, grid: FrequencyGrid, spacing_hz: float, pair_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(bins, masses): the bin index, in default_bin_labels order, of each
    of the grid's 2n - 1 diagonals, and each bin's summed ``intensity``,
    a spectrum that spectrum_projector has checked.

    A diagonal goes wholly to the bin pair whose difference-frequency
    center is nearest its nu_s - nu_i.  Raises MeasurementError for a bin
    that carries no intensity.
    """
    labels = default_bin_labels(pair_count)
    centers = np.array([2.0 * bin_detuning(lab, spacing_hz) for lab in labels])
    bins = np.digitize(grid.differences, 0.5 * (centers[1:] + centers[:-1]))
    masses = np.sum([
        np.bincount(row_bins, weights=row, minlength=labels.size)
        for row_bins, row in zip(grid.toeplitz(bins), intensity)
    ], axis=0)
    for label, mass in zip(labels, masses):
        if mass <= 0:
            raise MeasurementError(f"bin {label:+d} of the joint spectrum carries no intensity")
    return bins, masses


def _born_table(hyper: HyperState) -> np.ndarray:
    """Tr[rho_i (Mj x Mk)]: rows over the 16 settings, columns over bins."""
    states = np.array([hyper.bin_state(i).reshape(16) for i in range(hyper.n_bins)])
    return (_FRAME @ states.T).real


def simulate_tomography(
    hyper: HyperState,
    intensity: np.ndarray,
    grid: FrequencyGrid,
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    spacing_hz: float,
    events: float,
    seed: int,
    max_alias_fraction: float,
) -> Iterator[tuple[tuple[int, int], CountMatrix]]:
    """Forward-simulate the 16 SIC projection acquisitions.

    ``intensity`` is the source's joint spectrum |JSA|^2 on ``grid``
    around the band center center_frequency_hz, split into the
    hyper.n_bins bins of _bin_masses at ``spacing_hz``; bin i's share
    weight_i of the spectrum's mass is its emission weight.  For setting
    (j, k) each bin contributes weight_i * Tr[rho_i (Mj x Mk)] of the
    total pair flux; the projection's event total is Poissonian with
    mean 4 * events * that flux (so ``events`` is the average count per
    projection), and the image sampled is the spectrum in which each bin
    carries its share mix_i of that flux, each cell of the source
    weighted by mix_i / mass_i of its bin, projected at once.  Raises
    MeasurementError when more than max_alias_fraction of the source
    falls outside the acquisition window.

    The arguments are checked at the call; the projections are then
    drawn lazily, one per step of the returned iterator of ((j, k),
    counts) pairs in setting order, so a consumer that writes and drops
    each one holds one count matrix at a time.  Each carries the bin
    layout, ``bin_spacing_hz`` and ``pair_count``, in its metadata.
    """
    if hyper.n_bins % 2:
        raise ValueError("hyper must carry one state per bin, 2 * pair_count of them")
    if events < 0:
        raise ValueError("events must be >= 0")
    pair_count = hyper.n_bins // 2
    project = spectrum_projector(intensity, grid, spec, center_frequency_hz)
    _check_alias(project()[1], spec, max_alias_fraction)
    bins, masses = _bin_masses(intensity, grid, spacing_hz, pair_count)
    layout = {"bin_spacing_hz": float(spacing_hz), "pair_count": pair_count}
    weights = masses / masses.sum()
    born = _born_table(hyper)

    def draw():
        # one master stream for the event totals, in setting order, and
        # the stream [seed, j, k] for each image
        master = np.random.default_rng([int(seed), 0x7013])
        for (j, k), born_jk in zip(_SETTINGS, born):
            # exact Born zeros (matched singlet projections) come out as
            # -1e-16-level residue, which np.random.poisson rejects
            flux = np.clip(weights * born_jk, 0.0, None)
            q_jk = flux.sum()
            total = int(master.poisson(4.0 * events * q_jk))
            mix = flux / q_jk if q_jk > 0 else weights
            probs, alias = project(grid.toeplitz((mix / masses)[bins]))
            counts = _draw_counts(probs, spec, center_frequency_hz, total, seed=[int(seed), j, k])
            counts.metadata.update(alias_fraction=alias, born_flux=float(q_jk), **layout)
            yield (j, k), counts
            del counts  # drawing the next projection must not hold this one

    return draw()


class GateError(ValueError):
    """A gate wider than the ``gap`` (s) between adjacent bins' arrival times."""

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap


def bin_gates(
    spec: SpectrometerSpec,
    center_frequency_hz: float,
    pair_count: int,
    spacing_hz: float,
    width: float,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(idler rows, signal columns) index of each bin's gated cells, in
    default_bin_labels order, from every bin's arrival time on ``spec``.

    Each gate is ``width`` wide: the signal gate is centered on the bin's
    arrival time, the idler gate on the conjugate bin n-1-i's.  A gate
    overhanging the window is truncated to it (those counts were never
    recorded); cells are selected by their time centers in [lo, hi).
    Raises GateError if ``width`` exceeds the smallest gap between
    adjacent bins, then MeasurementError for a gate wholly outside the window.
    """
    labels = default_bin_labels(pair_count)
    times = detuning_to_time(
        spec, [bin_detuning(label, spacing_hz) for label in labels], center_frequency_hz
    )
    gap = float(np.abs(np.diff(times)).min())
    if width > gap:
        raise GateError(
            f"a {width:.4g} s gate is wider than the {gap:.4g} s between adjacent bins", gap
        )
    edge = spec.window / 2.0
    t = spec.time_centers

    def cells(center):
        lo, hi = center - width / 2.0, center + width / 2.0
        if hi <= -edge or lo >= edge:
            raise MeasurementError(
                f"gate [{lo * 1e9:.3f}, {hi * 1e9:.3f}] ns lies outside the acquisition window"
            )
        return (t >= max(lo, -edge)) & (t < min(hi, edge))

    gates = []
    for signal, idler in zip(times, times[::-1]):
        columns = cells(signal)  # the signal gate is checked first
        gates.append(np.ix_(cells(idler), columns))
    return gates


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
    projections: Iterable[tuple[tuple[int, int], CountMatrix]],
    pair_count: int,
    spacing_hz: float,
    width: float,
    n_resamples: int,
    seed: int,
) -> list[BinResult]:
    """Gate, reconstruct, and summarize every bin of a projection set.

    ``projections`` yields each of the 16 ((j, k), counts) pairs once, in
    any order, as simulate_tomography, load_tomography_bundle or a dict's
    items() give them.  One pass gates every bin of each count matrix
    with bin_gates, on the calibration and band center that matrix
    carries (so each is checked as it is read), into a table of gated
    totals; each bin is then reconstructed from its column.  A matrix
    whose metadata records another bin layout (``bin_spacing_hz``,
    ``pair_count``) than ``spacing_hz`` and ``pair_count`` is refused
    with a ValueError naming its file.  With ``n_resamples`` > 0 each bin
    also gets Poisson-bootstrap error bars.
    """
    labels = [int(label) for label in default_bin_labels(pair_count)]
    rows = {key: row for row, key in enumerate(_SETTINGS)}
    gated = np.zeros((len(_SETTINGS), len(labels)))
    for key, counts in projections:
        row = rows.pop(key, None)
        if row is None:
            raise ValueError(f"projection {key} is not a SIC setting or arrives twice")
        recorded = (
            counts.metadata.get("bin_spacing_hz", spacing_hz),
            counts.metadata.get("pair_count", pair_count),
        )
        if recorded != (spacing_hz, pair_count):
            raise ValueError(
                f"{counts.metadata.get('path', f'projection {key}')}: drawn with bin_spacing_hz"
                f" = {recorded[0]:.17g} and pair_count = {recorded[1]}, but gated with"
                f" bin_spacing_hz = {spacing_hz:.17g} and pair_count = {pair_count}"
            )
        gates = bin_gates(counts.spec, counts.center_frequency_hz, pair_count, spacing_hz, width)
        gated[row] = [counts.values[cells].sum() for cells in gates]
        del counts  # reading the next projection must not hold this one
    if rows:
        raise ValueError(f"projections {sorted(rows)} are missing")
    results = []
    for label, column in zip(labels, gated.T):
        # p_jk = 4 n_jk / sum(n): the scale 4 restores the Born normalization
        # (the 16 probabilities of any state sum to 4), since each setting
        # is a separate acquisition with no shared total
        total = column.sum()
        if total <= 0:
            raise MeasurementError(f"bin {label}: no gated counts in any projection")
        probs = 4.0 * column / total
        state = reconstruct_state(probs)
        fid, phi = fidelity_singlet(state)
        result = BinResult(
            label=label,
            state=state,
            purity=purity(state),
            fidelity=fid,
            phase=phi,
            events=int(total),
            probabilities=probs,
        )
        if n_resamples > 0:
            result.purity_std, result.fidelity_std = resample_tomography(
                column, n_resamples, seed=[seed, label & 0xFF]
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
    projections: Iterable[tuple[tuple[int, int], CountMatrix]],
) -> None:
    """Write proj_<j>_<k>.csv for each ((j, k), counts) pair as it arrives.

    ``projections`` is the iterator simulate_tomography returns or a
    dict's items(); each file is written before the next pair is asked for.
    """
    os.makedirs(directory, exist_ok=True)
    for (j, k), counts in projections:
        save_counts(counts, os.path.join(directory, f"proj_{j}_{k}.csv"))
        del counts  # drawing the next projection must not hold this one


def load_tomography_bundle(directory) -> Iterator[tuple[tuple[int, int], CountMatrix]]:
    """The 16 ((j, k), counts) pairs of a bundle, one file parsed per step.

    Checks that all 16 proj_<j>_<k>.csv files are present before it
    parses any of them.
    """
    found = []
    for name in sorted(os.listdir(directory)):
        match = _PROJ_RE.match(name)
        if match:
            found.append(((int(match.group(1)), int(match.group(2))), os.path.join(directory, name)))
    if len(found) != 16:
        raise ValueError(f"{directory}: found {len(found)} projection files, expected 16")
    return ((key, load_counts(path)) for key, path in found)
