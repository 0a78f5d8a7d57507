"""Two-photon and heralded Hong-Ou-Mandel interference for bin combs.

Closed forms for the beamsplitter coincidence probability of
frequency-bin biphotons, plus model fitting, which reports the fitted
visibility.

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

from .artefact import read_table, write_table

__all__ = [
    "HomCurve",
    "HomFit",
    "FitError",
    "delta_from_bin_hz",
    "bin_hz_from_delta",
    "closed_curve",
    "fit_hom",
    "save_curve",
    "load_curve",
    "MIN_FIT_POINTS",
]

CURVE_KINDS = ("two_photon", "heralded")
MIN_FIT_POINTS = 10  # delays fit_hom needs to fit its four parameters


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


_RAW_CURVES = {"two_photon": _p2_raw, "heralded": _p4_raw}


def closed_curve(kind: str, delays, n_pairs: int, delta: float, sigma: float) -> HomCurve:
    """Closed-form curve with clamping diagnostics in metadata.

    two_photon: full dip at tau = 0, anti-bunching maxima at odd
    multiples of 2 pi / delta, baseline 1/2 at large delay.  heralded:
    smooth dip of depth 1/(4 n_pairs) at tau = 0 (visibility
    1/(2 n_pairs)), baseline 1/2; no beats at leading order.
    """
    raw_fn = _RAW_CURVES[kind]
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


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


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
    raw_fn = _RAW_CURVES[kind]
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
    n_pairs: int,
    delta: float | None = None,
) -> HomFit:
    """Least-squares fit of the scaled closed form to a measured curve.

    Model: y(tau) = B * (1 - V * D(tau; delta, sigma)) with D the closed
    dip shape normalized to D(0) = 1.  Free parameters: delta, sigma, V, B
    for two-photon curves; heralded curves carry no beat information, so
    delta is held at ``delta``, which they require, and (sigma, V, B)
    float.  A two-photon curve beats at the odd multiples (2m+1) of the
    spacing, so without ``delta`` the fit starts from f/(2m+1) for each
    m < n_pairs, f the curve's dominant beat, and keeps the lowest
    weighted cost.  Poisson weights sqrt(max(y, 1)).  Raises FitError
    with residual diagnostics if no start converges.

    When the fitted visibility saturates its physical bound of 1 (a full
    dip with near-zero counts at the bottom), the reported covariance is
    a boundary artifact and the parameter stds are not meaningful; the
    point estimates remain sound.
    """
    tau = curve.delays
    y = curve.values
    if tau.size < MIN_FIT_POINTS:
        raise ValueError(f"need at least {MIN_FIT_POINTS} delay points")
    span = tau.max() - tau.min()
    if span <= 0:
        raise ValueError("degenerate delay range")

    far = np.abs(tau) >= 0.75 * np.max(np.abs(tau))
    b0 = float(y[far].mean()) if np.count_nonzero(far) >= 3 else float(y.mean())
    b0 = max(b0, np.finfo(float).tiny)
    y0 = float(y[np.argmin(np.abs(tau))])
    v0 = float(np.clip(1.0 - y0 / b0, 0.05, 1.0))
    guesses = {"sigma": 4.0 / span, "visibility": v0, "background": b0}
    if delta is not None:
        starts = [delta]
    elif curve.kind == "heralded":
        raise ValueError("a heralded fit holds delta fixed: pass delta")
    else:
        # the FFT may pick any odd multiple of the spacing
        beat = _guess_delta(tau, y)
        starts = [beat / (2 * m + 1) for m in range(n_pairs)]

    weights = np.sqrt(np.clip(y, 1.0, None))
    # a heralded curve carries no beat, so its delta stays at the guess
    names = [k for k in ("delta", "sigma", "visibility", "background")
             if not (k == "delta" and curve.kind == "heralded")]

    def fit_from(delta0):
        start = dict(guesses, delta=delta0)
        sigma0 = start["sigma"]
        bounds = {
            "delta": (0.5 * delta0, 2.0 * delta0),
            "sigma": (1e-3 * sigma0, 1e3 * sigma0),
            "visibility": (0.0, 1.0),
            "background": (0.0, np.inf),
        }

        def residual(p):
            v = dict(start, **dict(zip(names, p)))
            shape = _dip_shape(curve.kind, tau, n_pairs, v["delta"], v["sigma"])
            return (v["background"] * (1.0 - v["visibility"] * shape) - y) / weights

        p0 = np.array([start[k] for k in names], dtype=float)
        if np.any(p0 <= 0):
            raise ValueError("initial guesses must be > 0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # overflow in trial steps is rejected by cost
            try:
                popt, pcov = _least_squares(
                    residual, p0, *np.array([bounds[k] for k in names]).T
                )
            except FitError as exc:
                resid = np.linalg.norm(residual(p0))
                raise FitError(
                    f"HOM fit did not converge: {exc}; initial-guess weighted residual "
                    f"norm {resid:.3e} over {tau.size} points"
                ) from exc
            r = residual(popt)
        return r @ r, start, popt, pcov

    fits, errors = [], []
    for delta0 in starts:
        try:
            fits.append(fit_from(delta0))
        except FitError as exc:
            errors.append(exc)
    if not fits:
        raise errors[0]
    _, start, popt, pcov = min(fits, key=lambda fit: fit[0])

    fitted = dict(start, **dict(zip(names, popt)))
    std = dict(zip(names, np.sqrt(np.diag(pcov))))
    return HomFit(
        kind=curve.kind,
        delta_hz=bin_hz_from_delta(fitted["delta"]),
        sigma=float(fitted["sigma"]),
        visibility=float(fitted["visibility"]),
        background=float(fitted["background"]),
        covariance=pcov,
        delta_hz_std=float(bin_hz_from_delta(std.get("delta", float("nan")))),
        visibility_std=float(std["visibility"]),
    )


def _least_squares(residual, p0, lower, upper):
    """Bounded Levenberg-Marquardt (Marquardt, J. SIAM 11, 431, 1963).

    Minimises |residual(p)|^2 over lower <= p <= upper.  It works on
    x = p / p0, so every parameter starts at 1 whatever its unit, clips
    each step to the bounds and differentiates forward.  Returns the
    solution and (J^T J)^-1 there, both in the units of p.
    """
    max_iter = 2000
    lo, hi = lower / p0, upper / p0
    x = np.ones_like(p0)
    r = residual(x * p0)
    cost = r @ r
    if not np.isfinite(cost):
        raise FitError("residuals are not finite at the initial guess")

    def jacobian(x, r):
        h = np.sqrt(np.finfo(float).eps) * np.maximum(np.abs(x), 1.0)
        h = np.where(x + h > hi, -h, h)  # step back from an upper bound
        steps = x + np.diag(h)
        return np.column_stack([residual(s * p0) - r for s in steps]) / h

    jac = jacobian(x, r)
    scale = np.max(np.diag(jac.T @ jac))
    damping = 1e-3 * scale
    for _ in range(max_iter):
        a, g = jac.T @ jac, jac.T @ r
        # a parameter on a bound that the descent would push out stays put
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        step = np.zeros_like(x)
        step[free] = -np.linalg.solve(
            a[np.ix_(free, free)] + damping * np.eye(np.count_nonzero(free)), g[free]
        )
        step = np.clip(x + step, lo, hi) - x
        if np.linalg.norm(step) <= 1e-10 * (np.linalg.norm(x) + 1e-10):
            break
        r_trial = residual((x + step) * p0)
        cost_trial = r_trial @ r_trial
        if not cost_trial < cost:
            damping *= 4.0
            continue
        x, r, converged = x + step, r_trial, cost - cost_trial <= 1e-12 * cost
        cost = cost_trial
        jac = jacobian(x, r)
        damping = max(damping / 3.0, 1e-12 * scale)
        if converged:
            break
    else:
        raise FitError(f"no convergence after {max_iter} iterations")
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((x.size, x.size), np.inf)  # the curve does not fix every parameter
    return x * p0, cov * np.outer(p0, p0)


def save_curve(curve: HomCurve, path) -> None:
    table = np.column_stack([curve.delays, curve.values])
    write_table(path, {"kind": curve.kind}, "%.12e,%.12e", table)


def load_curve(path) -> HomCurve:
    header, table = read_table(path, {"kind": str}, float)
    if table.shape[1] != 2:
        raise ValueError(f"{path}: expected delay and value columns, found {table.shape[1]}")
    return HomCurve(delays=table[:, 0], values=table[:, 1], kind=header["kind"])
