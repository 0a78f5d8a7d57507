"""Domain-engineered quasi-phasematched crystal design.

A poled crystal is a sequence of ferroelectric domains with orientation
+1 or -1 along z in [-L/2, L/2].  Its phasematching function (PMF) is the
Fourier transform of the orientation profile,

    phi(dk) = (pi / 2L) * integral g(z) exp(-i dk z) dz,

normalised so that a periodically poled crystal of the same length peaks
at 1 at its first-order quasi-phasematching mismatch dk0 = pi / width.

The design target here is a comb of 2 * pair_count Gaussian peaks spaced
by `spacing` around dk0.  The matching continuous nonlinearity is a
Gaussian envelope multiplied by one cosine per peak pair,

    g(z) = (2 / w) exp(i dk0 z - z^2 / (2 w^2)) * sum_j cos((2j+1) d z / 2),

whose Fourier magnitude reproduces the comb.  `design_domains` quantises
that envelope into unit-amplitude domains with a greedy amplitude-tracking
pass: each domain either adds or subtracts its exact contribution to the
accumulated PMF amplitude at dk0, and the orientation keeping the running
total closest to the target envelope integral wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artefact import read_table, write_table

__all__ = [
    "CombSpec",
    "DomainConfig",
    "target_pmf",
    "design_domains",
    "pmf_of_domains",
    "design_overlap",
    "save_domains",
    "load_domains",
]


@dataclass(frozen=True)
class CombSpec:
    """Comb-shaped PMF target: 2 * pair_count Gaussian peaks about `center`.

    Peaks sit at center +/- (2j+1) * spacing / 2 for j = 0 .. pair_count-1
    and each has amplitude profile exp(-peak_width^2 (dk - peak)^2 / 2).
    A spacing of zero is accepted only for pair_count == 1, where the two
    mirror peaks merge into a single Gaussian centred on `center`.
    """

    pair_count: int
    spacing: float      # rad/m between adjacent comb peaks
    peak_width: float   # m; inverse 1/e half-width of each peak in dk
    center: float       # rad/m; first-order QPM mismatch dk0
    length: float       # m; crystal length

    def __post_init__(self) -> None:
        if self.pair_count < 1:
            raise ValueError("pair_count must be >= 1")
        if self.spacing < 0:
            raise ValueError("spacing must be >= 0")
        if self.spacing == 0 and self.pair_count != 1:
            raise ValueError("spacing == 0 only makes sense for a single peak pair")
        if self.peak_width <= 0:
            raise ValueError("peak_width must be > 0")
        if self.center <= 0:
            raise ValueError("center must be > 0")
        if self.length <= 0:
            raise ValueError("length must be > 0")


@dataclass(eq=False)
class DomainConfig:
    """Poled-crystal realisation: per-domain widths and orientations."""

    widths: np.ndarray        # m, all > 0
    orientations: np.ndarray  # +1 / -1
    total_length: float       # m

    def __post_init__(self) -> None:
        self.widths = np.asarray(self.widths, dtype=float)
        # checked before the integer cast, which would truncate 1.5 to 1
        if not np.all(np.isin(self.orientations, (-1, 1))):
            raise ValueError("orientations must be +1 or -1")
        self.orientations = np.asarray(self.orientations, dtype=int)
        if self.widths.ndim != 1 or self.widths.size == 0:
            raise ValueError("widths must be a non-empty 1-d array")
        if self.widths.shape != self.orientations.shape:
            raise ValueError("widths and orientations must have matching shapes")
        if np.any(self.widths <= 0):
            raise ValueError("domain widths must be > 0")
        tol = self.widths.size * np.finfo(float).eps * self.total_length
        if abs(self.widths.sum() - self.total_length) > max(tol, 1e-15):
            raise ValueError("sum of domain widths must equal total_length")

    @property
    def boundaries(self) -> np.ndarray:
        """Domain boundary positions, from -L/2 to +L/2."""
        edges = np.concatenate(([0.0], np.cumsum(self.widths)))
        return edges - self.total_length / 2.0


def target_pmf(comb: CombSpec, delta_k) -> np.ndarray:
    """Evaluate the Gaussian-comb PMF target.

    Parameters
    ----------
    comb : CombSpec
    delta_k : float or array
        Phase mismatch values, rad/m.

    Returns
    -------
    Comb amplitude, peak value 1 for well-separated peaks.  Even about
    comb.center by construction.
    """
    dk = np.asarray(delta_k, dtype=float) - comb.center
    j = np.arange(comb.pair_count)
    offsets = (2.0 * j + 1.0) * comb.spacing / 2.0
    x = dk[..., None]
    w = comb.peak_width
    vals = np.exp(-0.5 * (w * (x - offsets)) ** 2) + np.exp(-0.5 * (w * (x + offsets)) ** 2)
    out = vals.sum(axis=-1)
    return out if out.ndim else float(out)


def _envelope(comb: CombSpec, z: np.ndarray) -> np.ndarray:
    """Real nonlinearity envelope (carrier removed), peak value pair_count at z=0."""
    j = np.arange(comb.pair_count)
    freqs = (2.0 * j + 1.0) * comb.spacing / 2.0
    cos_sum = np.cos(np.multiply.outer(z, freqs)).sum(axis=-1)
    return np.exp(-(z ** 2) / (2.0 * comb.peak_width ** 2)) * cos_sum


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _domain_boundaries(length: float, domain_width: float) -> np.ndarray:
    """Split [-L/2, L/2] into full-width domains plus one shortened remainder."""
    n_full = int(np.floor(length / domain_width + 1e-12))
    remainder = length - n_full * domain_width
    if remainder < 1e-9 * length:
        widths = np.full(n_full, domain_width)
    else:
        widths = np.concatenate([np.full(n_full, domain_width), [remainder]])
    edges = np.concatenate(([0.0], np.cumsum(widths))) - length / 2.0
    edges[-1] = length / 2.0
    return edges


def design_domains(comb: CombSpec, domain_width: float) -> DomainConfig:
    """Greedy domain-by-domain design of a poled crystal matching `comb`.

    Tracks the accumulated complex PMF amplitude at comb.center.  Domain j
    contributes orientation * integral exp(-i dk0 z) dz over the domain;
    the target accumulation is the integral of the envelope (normalised to
    peak 1) scaled so an all-ones envelope reproduces periodic poling.  The
    orientation minimising |accumulated - target| at each domain end is
    kept; near-ties break toward +1 so degenerate inputs stay deterministic.

    Returns
    -------
    DomainConfig with total_length == comb.length; the final domain is
    shortened so the crystal length is met exactly.
    """
    if domain_width <= 0:
        raise ValueError("domain_width must be > 0")
    if domain_width > comb.length:
        raise ValueError("domain_width must not exceed the crystal length")

    edges = _domain_boundaries(comb.length, domain_width)
    n_domains = edges.size - 1
    dk0 = comb.center

    # Exact single-domain contributions for orientation +1, forward transform.
    phases = np.exp(-1j * dk0 * edges)
    contrib = (phases[1:] - phases[:-1]) / (-1j * dk0)

    # Per-domain integral of the normalised envelope (8-point Gauss-Legendre is
    # exact to machine precision at these smoothness scales).
    mids = 0.5 * (edges[1:] + edges[:-1])
    halves = 0.5 * np.diff(edges)
    nodes = mids[:, None] + halves[:, None] * _GL_NODES[None, :]
    env = _envelope(comb, nodes.ravel()).reshape(n_domains, _GL_NODES.size)
    increments = (env * _GL_WEIGHTS).sum(axis=1) * halves / comb.pair_count

    # A unit envelope must accumulate at the periodic-poling rate
    # -(2i/pi) exp(-i dk0 z_left) per unit length.
    rate = (2.0 / (1j * np.pi)) * np.exp(-1j * dk0 * edges[0])
    target = rate * np.cumsum(increments)

    orientations = np.empty(n_domains, dtype=int)
    acc = 0.0 + 0.0j
    tie = 1e-12 * (2.0 * comb.length / np.pi)
    for j in range(n_domains):
        up = acc + contrib[j]
        down = acc - contrib[j]
        if abs(up - target[j]) <= abs(down - target[j]) + tie:
            orientations[j] = 1
            acc = up
        else:
            orientations[j] = -1
            acc = down

    return DomainConfig(
        widths=np.diff(edges),
        orientations=orientations,
        total_length=comb.length,
    )


def _sinc(x: np.ndarray) -> np.ndarray:
    # sin(x)/x with the removable singularity filled in; np.sinc is the
    # normalised variant, hence the pi rescale.
    return np.sinc(x / np.pi)


def _lattice_run(widths: np.ndarray, mids: np.ndarray, dk: np.ndarray) -> tuple[int, float]:
    """Length of the leading run of domains a chirp-z sum can cover, and the dk step.

    The run is empty unless `dk` is a uniformly spaced 1-d grid: its deviation from the
    lattice dk[0] + n * step may shift no run phase by more than 1e-9 rad.
    The run then holds the leading domains whose widths match the first to
    1e-9 relative and whose centres sit on that width's lattice to 1e-9 of
    the width.
    """
    if dk.ndim != 1 or dk.size < 2:
        return 0, 0.0
    step = (dk[-1] - dk[0]) / (dk.size - 1)
    w0 = widths[0]
    on_lattice = np.abs(widths - w0) <= 1e-9 * w0
    on_lattice &= np.abs(mids - (mids[0] + np.arange(widths.size) * w0)) <= 1e-9 * w0
    run = widths.size if on_lattice.all() else int(np.argmin(on_lattice))
    drift = np.abs(dk - (dk[0] + np.arange(dk.size) * step)).max()
    return (run if drift * run * w0 <= 1e-9 else 0), step


def _chirp_z(x: np.ndarray, angle: float, n_out: int) -> np.ndarray:
    """X[n] = sum_j x[j] exp(-i angle n j) for n < n_out (Bluestein).

    With n j = (n^2 + j^2 - (n - j)^2) / 2 the sum becomes a linear
    convolution with the chirp c_k = exp(-i angle k^2 / 2) over the lags
    n - j = -(m-1) .. n_out-1, done as one zero-padded FFT product.  The
    chirp is even in k, so the lags 0 .. -(m-1) also give c_j.

    The chirp phase runs to many turns at large k, where rounding it in
    radians would cost far more than the sum's own rounding.  So
    angle / 4 pi turns is split into q / 2**31 plus a remainder below
    2**-32: q k^2 is reduced modulo 2**31 in integer arithmetic and only
    the remainder's product is rounded.
    """
    m = x.size
    k = np.arange(-(m - 1), n_out, dtype=np.int64)
    turns = angle / (4.0 * np.pi)
    q = int(np.rint(turns * 2.0**31))
    k2 = k * k
    whole = (q % 2**31) * (k2 % 2**31) % 2**31
    chirp = np.exp(-2j * np.pi * (whole / 2.0**31 + (turns - q / 2.0**31) * k2))
    size = 1 << (n_out + m - 2).bit_length()
    a = np.fft.fft(x * chirp[m - 1::-1], size)
    b = np.fft.fft(np.conj(chirp), size)
    conv = np.fft.ifft(a * b)[m - 1:m - 1 + n_out]
    return chirp[m - 1:] * conv


def pmf_of_domains(config: DomainConfig, delta_k) -> np.ndarray:
    """Exact PMF of a poled crystal at arbitrary mismatch.

    Sums the closed-form domain integrals

        s_j * (exp(-i dk z_{j+1}) - exp(-i dk z_j)) / (-i dk)

    written in the numerically safe midpoint form
    s_j * w_j * sinc(dk w_j / 2) * exp(-i dk z_mid), which also covers the
    dk -> 0 limit.  The result is scaled by pi / (2 L) so a periodically
    poled crystal of the same length peaks at 1.

    On a uniformly spaced `delta_k` the leading run of equal-width domains
    on one lattice (all of a `design_domains` crystal but its remainder)
    is summed as a chirp-z transform in O((N + M) log(N + M)); the domains
    after the run take the closed-form sum term by term.
    """
    dk = np.atleast_1d(np.asarray(delta_k, dtype=float))
    edges = config.boundaries
    mids = 0.5 * (edges[1:] + edges[:-1])
    w = config.widths
    run, step = _lattice_run(w, mids, dk)

    vals = np.zeros(dk.shape, dtype=complex)
    if run:
        # exp(-i dk_n (z_0 + j w)) = exp(-i dk_n z_0) exp(-i dk_0 j w) exp(-i n step j w)
        j = np.arange(run)
        x = config.orientations[:run] * np.exp(-1j * dk[0] * w[0] * j)
        envelope = w[0] * _sinc(dk * w[0] / 2.0) * np.exp(-1j * dk * mids[0])
        vals += envelope * _chirp_z(x, step * w[0], dk.size)

    signed = config.orientations[run:] * w[run:]
    core = signed[None, :] * _sinc(np.multiply.outer(dk, w[run:] / 2.0))
    phase = np.exp(-1j * np.multiply.outer(dk, mids[run:]))
    vals += (core * phase).sum(axis=-1)
    vals *= np.pi / (2.0 * config.total_length)
    if np.isscalar(delta_k) or np.asarray(delta_k).ndim == 0:
        return complex(vals[0])
    return vals


def design_overlap(config: DomainConfig, comb: CombSpec) -> float:
    """Normalised |<target, designed>| over the comb band.

    Plain trapezoid quadrature, 8192 points on a band wide enough to
    contain every comb peak plus eight peak widths of tail.
    """
    half_span = (comb.pair_count - 0.5) * comb.spacing + 8.0 / comb.peak_width
    dk = np.linspace(comb.center - half_span, comb.center + half_span, 8192)
    t = target_pmf(comb, dk)
    d = pmf_of_domains(config, dk)
    inner = np.trapezoid(np.conj(t) * d, dk)
    norm = np.sqrt(np.trapezoid(np.abs(t) ** 2, dk) * np.trapezoid(np.abs(d) ** 2, dk))
    return float(np.abs(inner) / norm)


def save_domains(config: DomainConfig, path) -> None:
    """Write a domain listing: header with total length, then width TAB orientation.

    Widths and length keep 17 significant digits, so the listing loads
    back bit-identical and its widths still sum to the length.
    """
    # the +-1 orientations are exact as floats, and "%+d" prints them as integers
    table = np.column_stack([config.widths, config.orientations])
    write_table(path, {"total_length_m": "%.17g" % config.total_length}, "%.17g\t%+d", table)


def load_domains(path) -> DomainConfig:
    """Read a domain listing written by save_domains."""
    header, table = read_table(path, {"total_length_m": float}, float, delimiter="\t")
    if table.shape[1] != 2:
        raise ValueError(f"{path}: expected width and orientation columns, found {table.shape[1]}")
    return DomainConfig(
        widths=table[:, 0],
        orientations=table[:, 1],
        total_length=header["total_length_m"],
    )
