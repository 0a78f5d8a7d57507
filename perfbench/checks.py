"""Output checks made apart from the program.

Nothing here imports ``qpmforge``.  Each check reads a stage's files with
plain numpy and compares them with a closed form, an identity the method
must satisfy, or a quantity the benchmark computes itself from the
configuration.  A stage check returns the list of failed sub-checks, each
message starting with the sub-check's name; an empty list is a pass.

``cfg`` is the generated configuration as ``{section: {key: value}}``
with every value as a string, exactly as written for the program.
"""

from __future__ import annotations

import math
import os

import numpy as np

C_LIGHT = 299_792_458.0  # m/s


class CheckFailed(Exception):
    pass


def _require(name: str, ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(f"{name}: {detail}")


def _run(checks) -> list[str]:
    failures = []
    for fn, args in checks:
        try:
            fn(*args)
        except CheckFailed as exc:
            failures.append(str(exc))
    return failures


def _num(cfg: dict, section: str, key: str) -> float:
    return float(cfg[section][key])


# --- file readers ----------------------------------------------------------


def read_header(path) -> dict[str, str]:
    """``# k=v k=v ...`` first line of a data file."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline()
    if not line.startswith("#"):
        raise ValueError(f"{path}: no header line")
    return dict(tok.partition("=")[::2] for tok in line[1:].split())


def read_report(path) -> dict[str, str]:
    """``key = value`` or ``key: value`` lines."""
    out = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            for sep in ("=", ":"):
                if sep in line:
                    key, _, value = line.partition(sep)
                    out[key.strip()] = value.strip()
                    break
    return out


def read_domains(path) -> tuple[np.ndarray, np.ndarray, float]:
    header = read_header(path)
    table = np.loadtxt(path, comments="#", delimiter="\t", ndmin=2)
    return table[:, 0], table[:, 1], float(header["total_length_m"])


def read_grid_matrix(path, dtype) -> tuple[dict, np.ndarray]:
    return read_header(path), np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, ndmin=2)


def read_tomography_report(path) -> dict[int, dict[str, float]]:
    """Rows of ``bin events purity [+/- std] fidelity [+/- std] phase``."""
    rows = {}
    with open(path, "r", encoding="ascii") as fh:
        next(fh)
        for line in fh:
            tok = line.replace("+/-", " ").split()
            if not tok:
                continue
            if len(tok) != 7:
                raise ValueError(f"{path}: unexpected row {line!r}")
            rows[int(tok[0])] = {
                "events": float(tok[1]),
                "purity": float(tok[2]),
                "purity_std": float(tok[3]),
                "fidelity": float(tok[4]),
                "fidelity_std": float(tok[5]),
                "phase": float(tok[6]),
            }
    return rows


# --- independent physics ---------------------------------------------------


def domain_pmf(widths, orientations, total_length, dk, chunk: int = 512) -> np.ndarray:
    """PMF of a domain sequence as the sum of exact domain integrals.

    phi(dk) = pi / (2 L) * sum_j s_j (exp(-i dk z_{j+1}) - exp(-i dk z_j)) / (-i dk),
    with z_j the domain boundaries from -L/2.
    """
    edges = np.concatenate(([0.0], np.cumsum(widths))) - total_length / 2.0
    s = np.asarray(orientations, dtype=float)
    dk = np.asarray(dk, dtype=float)
    out = np.empty(dk.size, dtype=complex)
    for lo in range(0, dk.size, chunk):
        k = dk[lo:lo + chunk, None]
        phase = np.exp(-1j * k * edges[None, :])
        out[lo:lo + chunk] = (np.diff(phase, axis=1) @ s) / (-1j * k[:, 0])
    return out * (math.pi / (2.0 * total_length))


def schmidt_weights(amplitude: np.ndarray) -> np.ndarray:
    """Descending Schmidt weights from the eigenvalues of A^H A."""
    gram = amplitude.conj().T @ amplitude
    ev = np.clip(np.linalg.eigvalsh(gram), 0.0, None)[::-1]
    return ev / ev.sum()


def schmidt_number(weights: np.ndarray) -> float:
    return float(1.0 / np.sum(weights ** 2))


def max_entangled_fidelity(weights: np.ndarray, n_modes: int) -> float:
    return float(np.sum(np.sqrt(weights[:n_modes] / n_modes)) ** 2)


def pump_sigma(fwhm_duration_s: float) -> float:
    """1/e half-width (rad/s) of a transform-limited Gaussian pulse's field spectrum."""
    return 2.0 * math.sqrt(math.log(2.0)) / fwhm_duration_s


def bin_width_ratio(bin_purity: float) -> float:
    """Bin width over pump width r, from the single-bin purity 2 r / (1 + r^2)."""
    return (1.0 - math.sqrt(1.0 - bin_purity ** 2)) / bin_purity


def ideal_comb_jsa(cfg: dict) -> np.ndarray:
    """Eight-bin comb amplitude on the configured grid, values[idler, signal].

    Gaussian pump in nu_s + nu_i times one Gaussian per bin pair in
    nu_s - nu_i, centred at +/- (2j+1) * 2 pi * spacing with 1/e half-width
    r * sigma_pump.
    """
    sigma = pump_sigma(_num(cfg, "pump", "fwhm_duration_s"))
    width = bin_width_ratio(_num(cfg, "crystal", "bin_purity")) * sigma
    spacing = 2.0 * math.pi * _num(cfg, "crystal", "bin_spacing_hz")
    nu = 2.0 * math.pi * np.linspace(
        -_num(cfg, "grid", "half_span_hz"), _num(cfg, "grid", "half_span_hz"),
        int(cfg["grid"]["points"]),
    )
    total = nu[None, :] + nu[:, None]
    diff = nu[None, :] - nu[:, None]
    comb = np.zeros_like(diff)
    for j in range(int(cfg["crystal"]["pair_count"])):
        for sign in (-1.0, 1.0):
            comb += np.exp(-((diff - sign * (2 * j + 1) * spacing) ** 2) / (2.0 * width ** 2))
    return np.exp(-(total ** 2) / (2.0 * sigma ** 2)) * comb


def bin_arrival_times(cfg: dict) -> np.ndarray:
    """Fiber arrival times (s) of the bin centre frequencies, relative to the reference.

    t = D * L_fiber * (lambda - lambda_ref) with lambda = c / (c / lambda_ref + df)
    and df = +/- (2j+1) * spacing / 2.
    """
    spec = cfg["spectrometer"]
    rate = float(spec["dispersion_ps_per_nm_km"]) * float(spec["fiber_length_km"]) * 1e-3  # s/m
    lam0 = float(spec["reference_wavelength_m"])
    half = 0.5 * _num(cfg, "crystal", "bin_spacing_hz")
    j = np.arange(int(cfg["crystal"]["pair_count"]))
    df = np.concatenate([-(2 * j[::-1] + 1) * half, (2 * j + 1) * half])
    lam = C_LIGHT / (C_LIGHT / lam0 + df)
    return np.sort(rate * (lam - lam0))


def bin_coherence(drift: np.ndarray) -> np.ndarray:
    """|<exp(i theta)>| for a retardance sweeping uniformly through `drift` rad."""
    return np.abs(np.sinc(np.asarray(drift) / (2.0 * np.pi)))


# --- designed-source -------------------------------------------------------


def check_domain_lengths(widths, orientations, total, length_m) -> None:
    _require("domain_lengths", np.all(widths > 0), "non-positive domain width")
    _require(
        "domain_lengths",
        abs(widths.sum() - length_m) <= 1e-9 * length_m and abs(total - length_m) <= 1e-12 * length_m,
        f"widths sum to {widths.sum():.15g} m, header {total:.15g} m, config {length_m:.15g} m",
    )
    _require(
        "domain_orientations",
        np.all(np.isin(orientations, (-1.0, 1.0))),
        "orientations other than +1/-1",
    )


def check_pmf_curve(curve: np.ndarray, widths, orientations, total, tol: float = 1e-6) -> None:
    dk, designed_abs = curve[:, 0], curve[:, 2]
    ours = np.abs(domain_pmf(widths, orientations, total, dk))
    dev = float(np.max(np.abs(ours - designed_abs)) / np.max(ours))
    _require("pmf_closed_form", dev <= tol, f"designed_abs deviates by {dev:.3e} of the peak")


def check_design_report(report: dict, widths, orientations, min_overlap: float = 0.98) -> None:
    overlap = float(report["target_overlap"])
    _require("target_overlap", min_overlap <= overlap <= 1.0, f"target_overlap = {overlap}")
    flips = int(np.count_nonzero(orientations[1:] != orientations[:-1]))
    _require(
        "design_report",
        int(report["domain_count"]) == widths.size and int(report["orientation_flips"]) == flips,
        f"report lists {report['domain_count']} domains / {report['orientation_flips']} flips, "
        f"domains.tsv has {widths.size} / {flips}",
    )


def check_design(out: str, cfg: dict) -> list[str]:
    def run():
        widths, orient, total = read_domains(os.path.join(out, "domains.tsv"))
        curve = np.loadtxt(os.path.join(out, "pmf_curve.tsv"), comments="#", ndmin=2)
        report = read_report(os.path.join(out, "report.txt"))
        return _run([
            (check_domain_lengths, (widths, orient, total, _num(cfg, "crystal", "length_m"))),
            (check_pmf_curve, (curve, widths, orient, total)),
            (check_design_report, (report, widths, orient)),
        ])
    return _guard("design", run)


def check_jsa_norm(header: dict, jsa: np.ndarray, tol: float = 1e-9) -> None:
    measure = (2.0 * math.pi) ** 2 * float(header["dnu_s_hz"]) * float(header["dnu_i_hz"])
    norm = float(np.sum(np.abs(jsa) ** 2) * measure)
    _require("jsa_unit_norm", abs(norm - 1.0) <= tol, f"norm with grid measure = {norm:.12g}")
    _require(
        "jsa_shape",
        jsa.shape == (int(header["ni"]), int(header["ns"])),
        f"{jsa.shape} against header ni={header['ni']} ns={header['ns']}",
    )


def check_jsi_matches(jsa: np.ndarray, jsi: np.ndarray, tol: float = 1e-10) -> None:
    expect = np.abs(jsa) ** 2
    dev = float(np.max(np.abs(jsi - expect)) / np.max(expect)) if jsi.shape == expect.shape else math.inf
    _require("jsi_equals_abs_jsa_sq", dev <= tol, f"max |jsi - |jsa|^2| = {dev:.3e} of the peak")


def check_schmidt_report(
    report: dict, weights: np.ndarray, n_modes: int,
    k_target: float = 8.07, k_window: float = 0.05, tol: float = 1e-6,
) -> None:
    k = schmidt_number(weights)
    f = max_entangled_fidelity(weights, n_modes)
    k_rep = float(report["schmidt_number"])
    f_rep = float(report[f"fidelity_maximal_{n_modes}"])
    _require(
        "schmidt_matches_eigvalsh",
        abs(k_rep - k) <= tol and abs(f_rep - f) <= tol,
        f"report K={k_rep} F{n_modes}={f_rep}, eigvalsh K={k:.9f} F={f:.9f}",
    )
    _require(
        "schmidt_number_window",
        abs(k - k_target) <= k_window * k_target,
        f"K={k:.6f} outside {k_target} +/- {k_window:.0%}",
    )


def check_simulate(out: str, cfg: dict) -> list[str]:
    def run():
        header, jsa = read_grid_matrix(os.path.join(out, "jsa.csv"), complex)
        _, jsi = read_grid_matrix(os.path.join(out, "jsi.csv"), float)
        report = read_report(os.path.join(out, "report.txt"))
        n_modes = 2 * int(cfg["crystal"]["pair_count"])
        return _run([
            (check_jsa_norm, (header, jsa)),
            (check_jsi_matches, (jsa, jsi)),
            (check_schmidt_report, (report, schmidt_weights(jsa), n_modes)),
        ])
    return _guard("simulate", run)


def check_spacing_fit(fit: dict, bin_spacing_hz: float, tol: float = 1e-3) -> None:
    rel = abs(float(fit["delta_hz"]) / bin_spacing_hz - 1.0)
    _require("hom_bin_spacing", rel <= tol, f"fitted spacing off by {rel:.3e}")


def check_heralded_fit(fit: dict, pair_count: int, n_sigma: float = 4.0) -> None:
    vis, std = float(fit["visibility"]), float(fit["visibility_std"])
    target = 1.0 / (2 * pair_count)
    _require(
        "heralded_visibility",
        math.isfinite(std) and std > 0 and abs(vis - target) <= n_sigma * std,
        f"V = {vis} +/- {std}, expected {target}",
    )


def check_hom(out: str, cfg: dict) -> list[str]:
    return _guard("hom", lambda: _run([
        (check_spacing_fit, (read_report(os.path.join(out, "fit.txt")), _num(cfg, "crystal", "bin_spacing_hz"))),
    ]))


def check_heralded(out: str, cfg: dict) -> list[str]:
    return _guard("heralded", lambda: _run([
        (check_heralded_fit, (read_report(os.path.join(out, "fit.txt")), int(cfg["crystal"]["pair_count"]))),
    ]))


# --- tofs-readout ----------------------------------------------------------


def check_count_total(counts: np.ndarray, events: int) -> None:
    _require("count_total", int(counts.sum()) == events, f"{int(counts.sum())} counts, {events} events")
    _require("counts_nonnegative", counts.min() >= 0, "negative counts")


def check_marginal_peaks(marginals: np.ndarray, arrivals: np.ndarray, time_bin: float) -> None:
    """Each marginal's peak nearest each bin arrival time lies within two time bins.

    The peak is located as the marginal's centroid over a window of
    +/- 0.3 bin separations, re-centred on the centroid until it settles
    (a fixed window would pull the estimate toward the expected time).
    """
    t = marginals[:, 0]
    half = 0.3 * float(np.min(np.diff(arrivals)))
    for col, name in ((1, "signal"), (2, "idler")):
        m = marginals[:, col]
        for t0 in arrivals:
            win = np.abs(t - t0) <= half
            _require(
                "marginal_peaks", m[win].max() >= 0.25 * m.max(),
                f"{name}: no peak near {t0 * 1e12:.1f} ps",
            )
            centroid = t0
            for _ in range(20):
                win = np.abs(t - centroid) <= half
                centroid = float(np.sum(t[win] * m[win]) / np.sum(m[win]))
            _require(
                "marginal_peaks", abs(centroid - t0) <= 2.0 * time_bin,
                f"{name}: peak at {centroid * 1e12:.1f} ps, expected {t0 * 1e12:.1f} ps",
            )


def check_point_schmidt(report: dict, counts: np.ndarray, tol: float = 1e-6) -> None:
    s = np.linalg.svd(np.sqrt(counts.astype(float)), compute_uv=False)
    k = schmidt_number(s ** 2 / np.sum(s ** 2))
    k_rep = float(report["schmidt_number"])
    _require("point_schmidt_matches_svd", abs(k_rep - k) <= tol, f"report K={k_rep}, svd K={k:.9f}")


def check_schmidt_vs_source(report: dict, source_k: float, tol: float = 0.01) -> None:
    k = float(report["schmidt_number"])
    _require("schmidt_vs_source", abs(k / source_k - 1.0) <= tol, f"K={k} against source K={source_k:.6f}")


def check_bootstrap(report: dict) -> None:
    std = float(report["schmidt_number_std"])
    _require("bootstrap_std", math.isfinite(std) and std > 0, f"bootstrap std = {std}")


def check_tofs_sim(out: str, cfg: dict) -> list[str]:
    def run():
        _, counts = read_grid_matrix(os.path.join(out, "counts.csv"), np.int64)
        return _run([(check_count_total, (counts, int(cfg["spectrometer"]["events"])))])
    return _guard("tofs-sim", run)


def check_tofs_analyze(out: str, cfg: dict, source_k: float) -> list[str]:
    def run():
        header, counts = read_grid_matrix(os.path.join(out, "counts.csv"), np.int64)
        marginals = np.loadtxt(os.path.join(out, "marginals.tsv"), comments="#", ndmin=2)
        report = read_report(os.path.join(out, "report.txt"))
        time_bin = float(header["dt_ps"]) * 1e-12
        return _run([
            (check_marginal_peaks, (marginals, bin_arrival_times(cfg), time_bin)),
            (check_point_schmidt, (report, counts)),
            (check_schmidt_vs_source, (report, source_k)),
            (check_bootstrap, (report,)),
        ])
    return _guard("tofs-analyze", run)


# --- tomography ------------------------------------------------------------


def check_projection_totals(totals: np.ndarray, events_per_projection: float, n_sigma: float = 5.0) -> None:
    """The SIC frame resolves 4 I, so the 16 Poisson totals have mean 16 E."""
    mean = 16.0 * events_per_projection
    _require("projection_count", totals.size == 16, f"{totals.size} projection files")
    dev = abs(float(totals.sum()) - mean) / math.sqrt(mean)
    _require("projection_totals", dev <= n_sigma, f"sum {int(totals.sum())} is {dev:.2f} sigma from {mean:.0f}")


def check_bin_states(
    rows: dict, labels: list[int], phase: float, drift: np.ndarray,
    pur_tol: float = 4e-3, fid_tol: float = 3e-3, phase_tol: float = 3e-3,
) -> None:
    _require("tomography_bins", sorted(rows) == sorted(labels), f"bins {sorted(rows)}, expected {labels}")
    coherence = bin_coherence(drift)
    for label, c in zip(labels, coherence):
        r = rows[label]
        _require(
            "bin_purity", abs(r["purity"] - 0.5 * (1 + c * c)) <= pur_tol,
            f"bin {label:+d}: purity {r['purity']} expected {0.5 * (1 + c * c):.5f}",
        )
        _require(
            "bin_fidelity", abs(r["fidelity"] - 0.5 * (1 + c)) <= fid_tol,
            f"bin {label:+d}: fidelity {r['fidelity']} expected {0.5 * (1 + c):.5f}",
        )
        dphi = (r["phase"] - phase + math.pi) % (2.0 * math.pi) - math.pi
        _require(
            "bin_phase", abs(dphi) <= phase_tol,
            f"bin {label:+d}: phase {r['phase']} expected {phase:.5f}",
        )


def bin_labels(pair_count: int) -> list[int]:
    return [-k for k in range(pair_count, 0, -1)] + list(range(1, pair_count + 1))


def _floats(value: str) -> np.ndarray:
    return np.array([float(v) for v in value.split(",")])


def check_tomo_sim(out: str, cfg: dict) -> list[str]:
    def run():
        bundle = os.path.join(out, "tomo")
        totals = np.array([
            read_grid_matrix(os.path.join(bundle, f"proj_{j}_{k}.csv"), np.int64)[1].sum()
            for j in range(1, 5) for k in range(1, 5)
            if os.path.exists(os.path.join(bundle, f"proj_{j}_{k}.csv"))
        ])
        return _run([(check_projection_totals, (totals, _num(cfg, "tomography", "events_per_projection")))])
    return _guard("tomo-sim", run)


def check_tomo_fit(out: str, cfg: dict) -> list[str]:
    def run():
        rows = read_tomography_report(os.path.join(out, "report.txt"))
        tomo = cfg["tomography"]
        return _run([(
            check_bin_states,
            (rows, bin_labels(int(cfg["crystal"]["pair_count"])),
             float(tomo["phases_rad"]), _floats(tomo["drift_rad"])),
        )])
    return _guard("tomo-fit", run)


def _guard(stage: str, run) -> list[str]:
    """Missing or unparsable files fail the stage's check instead of the run."""
    try:
        return run()
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{stage}: unreadable output ({type(exc).__name__}: {exc})"]
