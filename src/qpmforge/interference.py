"""Two-photon and heralded Hong-Ou-Mandel interference for bin combs.

Closed forms and numeric quadrature oracles for the beamsplitter
coincidence probability of frequency-bin biphotons, plus visibility
extraction and model fitting.

Variable conventions (documented once, used everywhere):

* tau is the relative beamsplitter delay in seconds.
* delta is the comb spacing in the signal-idler DIFFERENCE variable,
  rad/s.  Optical bins spaced B Hz apart give delta = 4 pi B, since the
  difference detuning changes twice as fast as either photon's detuning.
  Helpers delta_from_bin_hz / bin_hz_from_delta convert.
* sigma is the 1/e amplitude half-width of one comb peak in the same
  difference variable, rad/s.  In the matched model (pump bandwidth equal
  to bin bandwidth) this coincides with the pump's sigma.
* n_pairs counts peak pairs: 2 * n_pairs frequency bins.

The closed forms assume well-separated bins; the residual terms scale as
exp(-delta^2 / (4 sigma^2)) and a warning is emitted when delta < 5 sigma.
Values can undershoot 0 or overshoot 1 by that residual; curve builders
clamp and record how many points were touched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import curve_fit

from .biphoton import FrequencyGrid, JointSpectralAmplitude

__all__ = [
    "HomCurve",
    "HomFit",
    "FitError",
    "VisibilityResult",
    "delta_from_bin_hz",
    "bin_hz_from_delta",
    "p2_closed",
    "p4_closed",
    "p2_numeric",
    "p4_numeric",
    "bin_model_jsa",
    "closed_curve",
    "numeric_curve",
    "visibility",
    "fit_hom",
    "save_curve",
    "load_curve",
]

CURVE_KINDS = ("two_photon", "heralded")


def delta_from_bin_hz(bin_spacing_hz: float) -> float:
    """Difference-variable comb spacing (rad/s) for an optical bin spacing in Hz."""
    return 4.0 * np.pi * bin_spacing_hz


def bin_hz_from_delta(delta: float) -> float:
    return delta / (4.0 * np.pi)


@dataclass
class HomCurve:
    """Sampled interference curve: coincidence probability (or counts) vs delay."""

    delays: np.ndarray
    values: np.ndarray
    kind: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in CURVE_KINDS:
            raise ValueError(f"kind must be one of {CURVE_KINDS}")
        if self.delays.shape != self.values.shape or self.delays.ndim != 1:
            raise ValueError("delays and values must be matching 1-d arrays")


def _check_regime(n_pairs: int, delta: float, sigma: float) -> None:
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    if delta <= 0 or sigma <= 0:
        raise ValueError("delta and sigma must be > 0")
    if delta < 5.0 * sigma:
        warnings.warn(
            f"closed form is a well-separated-bin approximation; delta/sigma = "
            f"{delta / sigma:.2f} < 5, residual terms ~ "
            f"{np.exp(-delta**2 / (4 * sigma**2)):.1e}",
            stacklevel=3,
        )


def _p2_raw(tau, n_pairs: int, delta: float, sigma: float) -> np.ndarray:
    t = np.asarray(tau, dtype=float)
    j = np.arange(n_pairs)
    odd = 2.0 * j + 1.0
    separation = np.exp(-((odd * delta) ** 2) / (4.0 * sigma**2))
    envelope = np.exp(-(sigma**2) * t[..., None] ** 2 / 4.0)
    beats = np.cos(odd * delta * t[..., None] / 2.0)
    return 0.5 - (envelope * (separation + beats)).sum(axis=-1) / (2.0 * n_pairs)


def _p4_raw(tau, n_pairs: int, delta: float, sigma: float) -> np.ndarray:
    # Transcribed as printed: the oscillatory term carries exp(-odd^2 d^2/4s^2),
    # so its quarter-rate cosine argument is numerically irrelevant in the
    # validated regime (see module docstring); the numeric oracle cannot
    # distinguish it from a half-rate argument there and we keep the printed
    # form.
    t = np.asarray(tau, dtype=float)
    j = np.arange(n_pairs)
    odd = 2.0 * j + 1.0
    separation = np.exp(-((odd * delta) ** 2) / (4.0 * sigma**2))
    envelope = np.exp(-(sigma**2) * t[..., None] ** 2 / 4.0)
    oscillation = 2.0 * np.cos(odd * delta * t[..., None] / 4.0)
    total = envelope * (separation * (1.0 + oscillation) + 1.0)
    return 0.5 - total.sum(axis=-1) / (4.0 * n_pairs**2)


def p2_closed(tau, n_pairs: int, delta: float, sigma: float, clamp: bool = True):
    """Two-photon coincidence probability, closed form.

    Full dip at tau = 0, anti-bunching maxima at odd multiples of
    2 pi / delta, baseline 1/2 at large delay.
    """
    _check_regime(n_pairs, delta, sigma)
    out = _p2_raw(tau, n_pairs, delta, sigma)
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def p4_closed(tau, n_pairs: int, delta: float, sigma: float, clamp: bool = True):
    """Heralded two-photon coincidence probability, closed form.

    Smooth dip of depth 1/(4 n_pairs) at tau = 0 (visibility
    1/(2 n_pairs)), baseline 1/2; no beats at leading order.
    """
    _check_regime(n_pairs, delta, sigma)
    out = _p4_raw(tau, n_pairs, delta, sigma)
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def closed_curve(kind: str, delays, n_pairs: int, delta: float, sigma: float) -> HomCurve:
    """Closed-form curve with clamping diagnostics in metadata."""
    raw_fn = {"two_photon": _p2_raw, "heralded": _p4_raw}[kind]
    _check_regime(n_pairs, delta, sigma)
    delays = np.asarray(delays, dtype=float)
    raw = raw_fn(delays, n_pairs, delta, sigma)
    clamped = np.clip(raw, 0.0, 1.0)
    n_clamped = int(np.count_nonzero(clamped != raw))
    meta = {
        "n_pairs": n_pairs,
        "delta": delta,
        "sigma": sigma,
        "clamped_points": n_clamped,
        "max_clamp_excursion": float(np.max(np.abs(raw - clamped))) if n_clamped else 0.0,
    }
    return HomCurve(delays=delays, values=clamped, kind=kind, metadata=meta)


def _normalized_square_values(jsa: JointSpectralAmplitude) -> tuple[np.ndarray, float]:
    grid = jsa.grid
    if not grid.is_square():
        raise ValueError("interference quadrature requires a square grid with identical axes")
    d_nu = grid.d_nu_signal
    values = jsa.values * d_nu  # absorb the 2-d measure, sqrt(dnu) per axis
    norm = np.sqrt(np.sum(np.abs(values) ** 2))
    if norm == 0:
        raise ValueError("amplitude is identically zero")
    return values / norm, d_nu


def _difference_index(n: int) -> np.ndarray:
    return np.arange(n)[:, None] - np.arange(n)[None, :] + (n - 1)


def _bincount_complex(idx: np.ndarray, weights: np.ndarray, n_out: int) -> np.ndarray:
    re = np.bincount(idx.ravel(), weights=weights.real.ravel(), minlength=n_out)
    im = np.bincount(idx.ravel(), weights=weights.imag.ravel(), minlength=n_out)
    return re + 1j * im


def p2_numeric(jsa: JointSpectralAmplitude, tau) -> np.ndarray:
    """Quadrature oracle for the two-photon curve.

    Evaluates p2(tau) = 1/2 - 1/2 Re sum f(nu_s, nu_i) f*(nu_i, nu_s)
    exp(i (nu_i - nu_s) tau) on the grid.  The integrand depends on the
    axis indices only through i - s, so the double sum is reduced to a
    single sum over the 2N-1 difference diagonals.
    """
    f, d_nu = _normalized_square_values(jsa)
    n = f.shape[0]
    # W[i, s] = f(s, i) * conj(f(i, s)) with rows indexing the idler axis.
    swap = f * np.conj(f.T)
    diag_sum = _bincount_complex(_difference_index(n), swap, 2 * n - 1)
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    d_vals = (np.arange(2 * n - 1) - (n - 1)) * d_nu
    phases = np.exp(1j * np.outer(t, d_vals))
    overlap = (phases * diag_sum).sum(axis=1).real
    out = 0.5 - 0.5 * overlap
    if np.isscalar(tau) or np.asarray(tau).ndim == 0:
        return float(out[0])
    return out


def p4_numeric(jsa: JointSpectralAmplitude, tau) -> np.ndarray:
    """Quadrature oracle for the heralded two-photon curve.

    The quadruple integral factorizes through the heralded signal photon's
    reduced density matrix.  Writing F[i, s] for the (unit-norm, measure
    absorbed) amplitude, the idler traces give

        R[s1, s2] = sum_i F[i, s1] conj(F[i, s2])     (= rho_signal),

    and the four-fold sum collapses to

        p4(tau) = 1/2 - 1/2 sum_{s1,s2} |R[s1, s2]|^2 cos((nu_s1 - nu_s2) tau),

    because the two amplitude factors and the two conjugated ones pair up
    into R[s1, s2] R[s2, s1] = |R[s1, s2]|^2 (R is Hermitian).  At tau = 0
    this is 1/2 - Tr(rho^2)/2, so the heralded visibility equals the
    heralded purity, i.e. 1/K for flat-phase states.  One N^3 matrix
    product, then the same difference-diagonal reduction as p2_numeric.
    """
    f, d_nu = _normalized_square_values(jsa)
    n = f.shape[0]
    reduced = f.T @ f.conj()
    weight = np.abs(reduced) ** 2
    diag_sum = np.bincount(
        _difference_index(n).ravel(), weights=weight.ravel(), minlength=2 * n - 1
    )
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    d_vals = (np.arange(2 * n - 1) - (n - 1)) * d_nu
    overlap = np.cos(np.outer(t, d_vals)) @ diag_sum
    out = 0.5 - 0.5 * overlap
    if np.isscalar(tau) or np.asarray(tau).ndim == 0:
        return float(out[0])
    return out


def bin_model_jsa(n_pairs: int, delta: float, sigma: float, grid: FrequencyGrid) -> JointSpectralAmplitude:
    """Matched-bandwidth Gaussian-bin model state on a grid.

    Pump and bin amplitudes share the width sigma in their respective
    (sum / difference) variables, which makes each bin pair separable.
    This is the state the closed forms describe exactly in the
    well-separated limit; used as the oracle-vs-closed-form test state.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    nu_sum = grid.nu_signal[None, :] + grid.nu_idler[:, None]
    nu_diff = grid.nu_signal[None, :] - grid.nu_idler[:, None]
    j = np.arange(n_pairs)
    centers = (2.0 * j + 1.0) * delta / 2.0
    x = nu_diff[..., None]
    comb = (
        np.exp(-((x - centers) ** 2) / (2.0 * sigma**2))
        + np.exp(-((x + centers) ** 2) / (2.0 * sigma**2))
    ).sum(axis=-1)
    values = np.exp(-(nu_sum**2) / (2.0 * sigma**2)) * comb
    return JointSpectralAmplitude(grid=grid, values=values).normalized()


def numeric_curve(jsa: JointSpectralAmplitude, delays, kind: str = "two_photon") -> HomCurve:
    fn = {"two_photon": p2_numeric, "heralded": p4_numeric}[kind]
    delays = np.asarray(delays, dtype=float)
    return HomCurve(delays=delays, values=fn(jsa, delays), kind=kind, metadata={"source": "numeric"})


# ---------------------------------------------------------------------------
# Visibility and fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VisibilityResult:
    value: float
    baseline: float
    dip_value: float
    convention: str = "V = (baseline - p(0)) / baseline"


def visibility(curve: HomCurve, baseline: float | None = None) -> VisibilityResult:
    """Standard HOM visibility V = (B - p(0)) / B.

    The dip value is the sample nearest tau = 0; the baseline defaults to
    the mean over the outer 25% of the delay range (at least 3 points
    required there).
    """
    span = np.max(np.abs(curve.delays))
    if span == 0:
        raise ValueError("curve has a single delay point")
    i0 = int(np.argmin(np.abs(curve.delays)))
    if abs(curve.delays[i0]) > 0.05 * span:
        raise ValueError("curve does not sample the tau = 0 region")
    dip = float(curve.values[i0])
    if baseline is None:
        far = np.abs(curve.delays) >= 0.75 * span
        if np.count_nonzero(far) < 3:
            raise ValueError("curve lacks baseline samples at large delay")
        baseline = float(curve.values[far].mean())
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return VisibilityResult(value=(baseline - dip) / baseline, baseline=baseline, dip_value=dip)


class FitError(RuntimeError):
    """Model fit failed; carries residual diagnostics in the message."""


@dataclass(frozen=True)
class HomFit:
    """Fitted interference model parameters.

    delta_hz is the optical bin spacing in ordinary Hz (the fitted
    difference-variable spacing divided by 4 pi; numerically equal to the
    beat frequency of the curve).
    """

    kind: str
    delta_hz: float
    sigma: float
    visibility: float
    background: float
    covariance: np.ndarray = field(repr=False)
    delta_hz_std: float = float("nan")
    visibility_std: float = float("nan")

    def to_text(self) -> str:
        lines = [
            f"kind: {self.kind}",
            f"delta_hz: {self.delta_hz:.6e}",
            f"delta_hz_std: {self.delta_hz_std:.3e}",
            f"sigma_rad_s: {self.sigma:.6e}",
            f"visibility: {self.visibility:.6f}",
            f"visibility_std: {self.visibility_std:.3e}",
            f"background: {self.background:.6e}",
        ]
        return "\n".join(lines) + "\n"


def _dip_shape(kind: str, tau: np.ndarray, n_pairs: int, delta: float, sigma: float) -> np.ndarray:
    raw_fn = {"two_photon": _p2_raw, "heralded": _p4_raw}[kind]
    dip = 1.0 - 2.0 * raw_fn(tau, n_pairs, delta, sigma)
    dip0 = 1.0 - 2.0 * raw_fn(np.array(0.0), n_pairs, delta, sigma)
    return dip / dip0


def _guess_delta(tau: np.ndarray, values: np.ndarray) -> float:
    """Dominant beat frequency via FFT on a uniformly resampled copy."""
    t = np.linspace(tau.min(), tau.max(), 4 * tau.size)
    y = np.interp(t, tau, values)
    y = y - y.mean()
    spectrum = np.abs(np.fft.rfft(y * np.hanning(y.size)))
    freqs = np.fft.rfftfreq(y.size, t[1] - t[0])
    spectrum[0] = 0.0
    f_star = freqs[int(np.argmax(spectrum))]
    if f_star <= 0:
        raise FitError("curve shows no beat to guess the bin spacing from")
    # Beat frequency in Hz equals the optical bin spacing in Hz.
    return delta_from_bin_hz(f_star)


def fit_hom(
    curve: HomCurve,
    n_pairs: int = 4,
    initial: dict | None = None,
) -> HomFit:
    """Least-squares fit of the scaled closed form to a measured curve.

    Model: y(tau) = B * (1 - V * D(tau; delta, sigma)) with D the closed
    dip shape normalized to D(0) = 1.  Free parameters: delta, sigma, V, B
    for two-photon curves; heralded curves carry no beat information, so
    delta is held at initial["delta"], which they require, and (sigma, V,
    B) float.
    Poisson weights sqrt(max(y, 1)).  Raises FitError with residual
    diagnostics if the optimizer does not converge.

    When the fitted visibility saturates its physical bound of 1 (a full
    dip with near-zero counts at the bottom), the reported covariance is
    a boundary artifact and the parameter stds are not meaningful; the
    point estimates remain sound.
    """
    tau = curve.delays
    y = curve.values
    if tau.size < 10:
        raise ValueError("need at least 10 delay points")
    span = tau.max() - tau.min()
    if span <= 0:
        raise ValueError("degenerate delay range")

    far = np.abs(tau) >= 0.75 * np.max(np.abs(tau))
    b0 = float(y[far].mean()) if np.count_nonzero(far) >= 3 else float(y.mean())
    b0 = max(b0, np.finfo(float).tiny)
    y0 = float(y[np.argmin(np.abs(tau))])
    v0 = float(np.clip(1.0 - y0 / b0, 0.05, 1.0))
    guesses = {
        "sigma": 4.0 / span,
        "visibility": v0,
        "background": b0,
    }
    if initial:
        unknown = set(initial) - set(guesses) - {"delta"}
        if unknown:
            raise ValueError(f"unknown initial-guess keys: {sorted(unknown)}")
        guesses.update(initial)
    if "delta" not in guesses:
        if curve.kind == "heralded":
            raise ValueError("a heralded fit holds delta fixed: pass initial={'delta': ...}")
        guesses["delta"] = _guess_delta(tau, y)

    weights = np.sqrt(np.clip(y, 1.0, None))
    fixed_delta = guesses["delta"]

    if curve.kind == "two_photon":
        def model(t, delta, sigma, vis, bg):
            return bg * (1.0 - vis * _dip_shape("two_photon", t, n_pairs, delta, sigma))

        p0 = [guesses["delta"], guesses["sigma"], guesses["visibility"], guesses["background"]]
        lower = [guesses["delta"] * 0.5, 1e-3 * guesses["sigma"], 0.0, 0.0]
        upper = [guesses["delta"] * 2.0, 1e3 * guesses["sigma"], 1.0, np.inf]
    else:
        def model(t, sigma, vis, bg):
            return bg * (1.0 - vis * _dip_shape("heralded", t, n_pairs, fixed_delta, sigma))

        p0 = [guesses["sigma"], guesses["visibility"], guesses["background"]]
        lower = [1e-3 * guesses["sigma"], 0.0, 0.0]
        upper = [1e3 * guesses["sigma"], 1.0, np.inf]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # regime warning already governed by inputs
        try:
            popt, pcov = curve_fit(
                model, tau, y, p0=p0, sigma=weights, absolute_sigma=True,
                bounds=(lower, upper), maxfev=20000,
            )
        except RuntimeError as exc:
            resid = np.linalg.norm((model(tau, *p0) - y) / weights)
            raise FitError(
                f"HOM fit did not converge: {exc}; initial-guess weighted residual "
                f"norm {resid:.3e} over {tau.size} points"
            ) from exc

    if curve.kind == "two_photon":
        delta, sigma, vis, bg = popt
        delta_var = pcov[0, 0]
        vis_var = pcov[2, 2]
    else:
        sigma, vis, bg = popt
        delta = fixed_delta
        delta_var = float("nan")
        vis_var = pcov[1, 1]

    return HomFit(
        kind=curve.kind,
        delta_hz=bin_hz_from_delta(delta),
        sigma=float(sigma),
        visibility=float(vis),
        background=float(bg),
        covariance=pcov,
        delta_hz_std=bin_hz_from_delta(np.sqrt(delta_var)) if np.isfinite(delta_var) else float("nan"),
        visibility_std=float(np.sqrt(vis_var)),
    )


def save_curve(curve: HomCurve, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# kind={curve.kind}\n")
        for t, v in zip(curve.delays, curve.values):
            fh.write(f"{t:.12e},{v:.12e}\n")


def load_curve(path) -> HomCurve:
    kind = None
    delays = []
    values = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                if key.strip() == "kind":
                    kind = value.strip()
                continue
            t_str, v_str = line.split(",")
            delays.append(float(t_str))
            values.append(float(v_str))
    if kind is None:
        raise ValueError(f"{path}: missing kind header")
    return HomCurve(delays=np.array(delays), values=np.array(values), kind=kind)
