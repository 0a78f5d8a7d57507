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
bin map is one (2n - 1)-vector.  The source arrives as the two factors
of the amplitude's intensity, so the readout never forms it, and
the forward model never splits it into bins: simulate_tomography bins
the source's masses per diagonal into each bin's mass, takes the bins'
shares of it as their emission weights, weights each diagonal of the
source by its bin's Born probability for the SIC setting, and projects
that one spectrum just before it draws the setting.  The projector returns each draw's
probabilities and alias fraction, so no code here normalises an image
or computes an alias fraction; the draw multiplies the probabilities,
in the projector's buffer, by the setting's mean event count.
bin_gates alone lays out the bins' time gates, as slices of the time grid.

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
reconstruct_state inverts the SIC frame matrix Phi and clips the result
to the PSD cone, the physical state of a BinResult.  Clipping biases a
boundary state (a pure singlet) low, so a bin's purity and fidelity come
from its gated totals n (total N) unclipped, and either may exceed 1:
the purity 16 (n^T Q n - diag(Q) . n) / (N (N - 1)), Q = Re(Phi^-H Phi^-1),
is unbiased for multinomial counts, and the fidelity of Phi^-1 p,
p = 4 n / N, is biased only at second order, through |rho_HV,VH|; the
reported phase is the one that maximises that fidelity.  Each
std is the first-order sqrt(g^T C g), g the estimate's gradient in p and
C = (16 / N) (diag(q) - q q^T), q = n / N, the covariance of p at fixed N.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .biphoton import JointSpectralIntensity
from .measurement import (
    CountMatrix,
    MeasurementError,
    SpectrometerSpec,
    _check_alias,
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
# Tr(rho^2) = p^T Q p for the inversion rho of any real p (rho is Hermitian)
_PURITY_FORM = (_FRAME_INV.conj().T @ _FRAME_INV).real
# the rows of the inversion that give (rho_HVHV + rho_VHVH) / 2 and rho_HV,VH
_DIAGONAL_PAIR = 0.5 * (_FRAME_INV[5] + _FRAME_INV[10]).real
_COHERENCE = _FRAME_INV[6]


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


def _invert(p: np.ndarray) -> np.ndarray:
    """The linear inversion Phi^-1 p as a Hermitian 4x4 matrix."""
    rho = (p.astype(complex) @ _FRAME_INV.T).reshape(4, 4)
    return 0.5 * (rho + rho.conj().T)


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
    vals, vecs = np.linalg.eigh(_invert(p))
    clipped = -vals[vals < 0].sum()
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    return TwoQubitState(rho=(vecs * vals) @ vecs.conj().T, clipped_weight=float(clipped))


def purity(state) -> float:
    """Tr(rho^2)."""
    rho = _rho(state)
    return float(np.trace(rho @ rho).real)


def fidelity_singlet(state) -> tuple[float, float]:
    """Best fidelity to (|HV> - e^{i phi}|VH>)/sqrt(2) over the phase.

    F(phi) = (rho_HVHV + rho_VHVH)/2 - Re(e^{i phi} rho_HV,VH), maximized
    in closed form at phi_hat = pi - arg(rho_HV,VH).  Returns (F, phi_hat)
    with phi_hat in (-pi, pi] (0 when the off-diagonal vanishes).
    """
    rho = _rho(state)
    off = rho[1, 2]
    fid = 0.5 * (rho[1, 1] + rho[2, 2]).real + abs(off)
    if off == 0.0:
        return float(fid), 0.0
    return float(fid), float(_wrap_phase(np.pi - np.angle(off)))


def _wrap_phase(phase):
    """phase wrapped into (-pi, pi], with -pi read as pi."""
    wrapped = (phase + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


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
        self.phases = _wrap_phase(np.atleast_1d(np.asarray(self.phases, dtype=float)))
        n = self.phases.size
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
    intensity: JointSpectralIntensity, spacing_hz: float, pair_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(bins, masses): the bin index, in default_bin_labels order, of each
    of the grid's 2n - 1 diagonals, and each bin's summed ``intensity``:
    its masses per diagonal (intensity.diagonal_masses), binned by one
    bincount.

    A diagonal goes wholly to the bin pair whose difference-frequency
    center is nearest its nu_s - nu_i.  Raises MeasurementError for a bin
    that carries no intensity.
    """
    labels = default_bin_labels(pair_count)
    centers = np.array([2.0 * bin_detuning(lab, spacing_hz) for lab in labels])
    bins = np.digitize(intensity.grid.differences, 0.5 * (centers[1:] + centers[:-1]))
    masses = np.bincount(bins, weights=intensity.diagonal_masses(), minlength=labels.size)
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
    intensity: JointSpectralIntensity,
    spec: SpectrometerSpec,
    spacing_hz: float,
    events: float,
    seed: int,
    max_alias_fraction: float,
) -> Iterator[tuple[tuple[int, int], CountMatrix]]:
    """Forward-simulate the 16 SIC projection acquisitions.

    ``intensity`` is the source's joint spectrum |JSA|^2 as
    JointSpectralAmplitude.intensity factors it, around its band center,
    split into the hyper.n_bins bins of _bin_masses at ``spacing_hz``;
    bin i's share weight_i of the spectrum's mass is its emission weight.
    For setting (j, k) each bin contributes weight_i * Tr[rho_i (Mj x Mk)]
    of the total pair flux: the image sampled is the source projected at once
    with each diagonal weighted by its bin's Tr[rho_i (Mj x Mk)], or
    unweighted for a setting with no flux.  Only its
    share 1 - alias_jk inside the window is recorded, so the event total
    has mean mu_jk = 4 * events * flux * (1 - alias_jk) / (1 - alias),
    alias the source's: the 16 means sum to 16 * events.  Each cell of
    the time grid is drawn as its own Poisson variate with mean mu_jk
    times its detection probability, from the stream [seed, j, k]; by
    Poisson splitting that is the law of a Poisson(mu_jk) total split
    multinomially over the cells.  Raises MeasurementError when more
    than max_alias_fraction of the source falls outside the acquisition
    window.

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
    project = spectrum_projector(intensity, spec)
    source_alias = project()[1]
    _check_alias(source_alias, spec, max_alias_fraction)
    bins, masses = _bin_masses(intensity, spacing_hz, pair_count)
    layout = {"bin_spacing_hz": float(spacing_hz), "pair_count": pair_count}
    shares = masses / masses.sum()
    born = _born_table(hyper)

    def draw():
        for (j, k), born_jk in zip(_SETTINGS, born):
            # exact Born zeros (matched singlet projections) come out as
            # -1e-16-level residue, which np.random.poisson rejects
            born_jk = np.clip(born_jk, 0.0, None)
            q_jk = (born_jk * shares).sum()
            probs, alias = project(born_jk[bins]) if q_jk > 0 else project()
            kept = (1.0 - alias) / (1.0 - source_alias)
            # the cells' means, in the projector's buffer that the next call overwrites
            probs *= 4.0 * events * q_jk * kept
            counts = CountMatrix(
                values=np.random.default_rng([int(seed), j, k]).poisson(probs),
                spec=spec,
                center_frequency_hz=intensity.center_frequency_hz,
                metadata={"alias_fraction": alias, "born_flux": float(q_jk), **layout},
            )
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
) -> list[tuple[slice, slice]]:
    """(idler rows, signal columns) slices of each bin's gated cells, in
    default_bin_labels order, from every bin's arrival time on ``spec``.

    Each gate is ``width`` wide: the signal gate is centered on the bin's
    arrival time, the idler gate on the conjugate bin n-1-i's.  A gate
    overhanging the window is truncated to it (those counts were never
    recorded); it is the run of time bins whose centers lie in [lo, hi).
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

    def cells(center):
        lo, hi = center - width / 2.0, center + width / 2.0
        if hi <= -edge or lo >= edge:
            raise MeasurementError(
                f"gate [{lo * 1e9:.3f}, {hi * 1e9:.3f}] ns lies outside the acquisition window"
            )
        return slice(*np.searchsorted(spec.time_centers, [lo, hi]).tolist())

    gates = []
    for signal, idler in zip(times, times[::-1]):
        columns = cells(signal)  # the signal gate is checked first
        gates.append((cells(idler), columns))
    return gates


@dataclass
class BinResult:
    """Per-bin tomography outcome; see the module docstring for the estimates."""

    label: int
    state: TwoQubitState
    purity: float
    purity_std: float
    fidelity: float
    fidelity_std: float
    phase: float
    events: int
    probabilities: np.ndarray = field(repr=False)


def _linear_estimates(gated: np.ndarray) -> tuple[float, float, float, float, float]:
    """(purity, purity_std, fidelity, fidelity_std, phase) from a bin's 16
    gated totals, at least two counts in all; see the module docstring."""
    total = gated.sum()
    q = gated / total
    p = 4.0 * q
    pur = 16.0 * (gated @ _PURITY_FORM @ gated - np.diag(_PURITY_FORM) @ gated) / (
        total * (total - 1.0)
    )
    fid, phase = fidelity_singlet(_invert(p))
    off = _COHERENCE @ p
    # |rho_HV,VH| has no gradient at 0, where only the diagonal pair moves F
    fid_gradient = _DIAGONAL_PAIR
    if off != 0.0:
        fid_gradient = fid_gradient + (np.conj(off) * _COHERENCE).real / abs(off)

    def std(gradient):
        variance = 16.0 / total * (q @ gradient**2 - (q @ gradient) ** 2)
        return float(np.sqrt(max(variance, 0.0)))  # round-off can take a 0 below 0

    return float(pur), std(2.0 * _PURITY_FORM @ p), fid, std(fid_gradient), phase


def analyze_tomography(
    projections: Iterable[tuple[tuple[int, int], CountMatrix]],
    pair_count: int,
    spacing_hz: float,
    width: float,
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
    with a ValueError naming its file.
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
        if total < 2:
            found = "no gated counts in any projection" if total == 0 else "a single gated count"
            raise MeasurementError(f"bin {label}: {found}; the purity estimate needs at least 2")
        probs = 4.0 * column / total
        pur, pur_std, fid, fid_std, phase = _linear_estimates(column)
        results.append(BinResult(
            label=label,
            state=reconstruct_state(probs),
            purity=pur,
            purity_std=pur_std,
            fidelity=fid,
            fidelity_std=fid_std,
            phase=phase,
            events=int(total),
            probabilities=probs,
        ))
    return results


def tomography_report(results: list[BinResult]) -> str:
    """Fixed-width per-bin table of purity and fidelity, each with its std,
    and phase.  Each std is written with four significant digits, so a
    small one, such as the fidelity's on an exact singlet, does not read
    as zero."""
    lines = ["bin   events      purity               fidelity             phase_rad"]
    for r in results:
        pur = f"{r.purity:.4f} +/- {r.purity_std:.3e}"
        fid = f"{r.fidelity:.4f} +/- {r.fidelity_std:.3e}"
        lines.append(
            f"{r.label:+d}   {r.events:9d}   {pur:<20s} {fid:<20s} {r.phase:+.4f}"
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
