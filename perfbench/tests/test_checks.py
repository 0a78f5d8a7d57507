"""Each output check passes on real program output and fails on a corrupted copy."""

import os
import shutil

import numpy as np
import pytest

import checks


def _stage(plan, command):
    stage = next(s for s in plan.stages if s.command == command)
    return stage.out, plan.configs[stage.config]


def _fails(name, fn, *args):
    with pytest.raises(checks.CheckFailed, match=f"^{name}:"):
        fn(*args)


# --- designed-source -------------------------------------------------------


def test_domain_checks(designed):
    out, cfg = _stage(designed, "design")
    widths, orient, total = checks.read_domains(os.path.join(out, "domains.tsv"))
    length = float(cfg["crystal"]["length_m"])
    checks.check_domain_lengths(widths, orient, total, length)
    longer = widths.copy()
    longer[10] *= 1.01
    _fails("domain_lengths", checks.check_domain_lengths, longer, orient, total, length)
    bad = orient.copy()
    bad[3] = 0.0
    _fails("domain_orientations", checks.check_domain_lengths, widths, bad, total, length)


def test_flipped_domain_fails_pmf_and_report(designed, tmp_path):
    out, cfg = _stage(designed, "design")
    assert checks.check_design(out, cfg) == []
    copy = str(tmp_path / "design")
    shutil.copytree(out, copy)
    path = os.path.join(copy, "domains.tsv")
    with open(path) as fh:
        lines = fh.readlines()
    w, s = lines[600].split("\t")
    lines[600] = f"{w}\t{'-1' if s.strip() == '+1' else '+1'}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    failed = {msg.split(":")[0] for msg in checks.check_design(copy, cfg)}
    assert failed == {"pmf_closed_form", "design_report"}


def test_target_overlap_threshold(designed):
    out, _ = _stage(designed, "design")
    widths, orient, _ = checks.read_domains(os.path.join(out, "domains.tsv"))
    report = checks.read_report(os.path.join(out, "report.txt"))
    checks.check_design_report(report, widths, orient)
    _fails("target_overlap", checks.check_design_report,
           dict(report, target_overlap="0.975"), widths, orient)


@pytest.fixture(scope="module")
def jsa_files(designed):
    out, cfg = _stage(designed, "simulate")
    header, jsa = checks.read_grid_matrix(os.path.join(out, "jsa.csv"), complex)
    _, jsi = checks.read_grid_matrix(os.path.join(out, "jsi.csv"), float)
    report = checks.read_report(os.path.join(out, "report.txt"))
    return header, jsa, jsi, report


def test_scaled_jsa_fails_norm_and_jsi(jsa_files):
    header, jsa, jsi, _ = jsa_files
    checks.check_jsa_norm(header, jsa)
    checks.check_jsi_matches(jsa, jsi)
    _fails("jsa_unit_norm", checks.check_jsa_norm, header, 1.001 * jsa)
    _fails("jsi_equals_abs_jsa_sq", checks.check_jsi_matches, 1.001 * jsa, jsi)
    noisy = jsi.copy()
    noisy[512, 512] *= 1.0 + 1e-6
    _fails("jsi_equals_abs_jsa_sq", checks.check_jsi_matches, jsa, noisy)


def test_schmidt_report_against_eigvalsh(jsa_files):
    _, jsa, _, report = jsa_files
    weights = checks.schmidt_weights(jsa)
    checks.check_schmidt_report(report, weights, 8)
    k = float(report["schmidt_number"])
    _fails("schmidt_matches_eigvalsh", checks.check_schmidt_report,
           dict(report, schmidt_number=f"{k + 2e-6:.6f}"), weights, 8)
    # a JSA with two bins merged has a different spectrum altogether
    merged = jsa.copy()
    merged[:, :512] += merged[:, 512:]
    _fails("schmidt_matches_eigvalsh", checks.check_schmidt_report,
           report, checks.schmidt_weights(merged), 8)
    _fails("schmidt_number_window", checks.check_schmidt_report,
           report, weights, 8, 7.5)


def test_hom_fits(designed):
    out, cfg = _stage(designed, "hom")
    fit = checks.read_report(os.path.join(out, "fit.txt"))
    checks.check_spacing_fit(fit, 500e9)
    off = float(fit["delta_hz"]) * 1.0015
    _fails("hom_bin_spacing", checks.check_spacing_fit, dict(fit, delta_hz=f"{off:.6e}"), 500e9)

    out, cfg = _stage(designed, "heralded")
    fit = checks.read_report(os.path.join(out, "fit.txt"))
    checks.check_heralded_fit(fit, 4)
    std = float(fit["visibility_std"])
    _fails("heralded_visibility", checks.check_heralded_fit,
           dict(fit, visibility=f"{0.125 + 4.5 * std:.6f}"), 4)
    _fails("heralded_visibility", checks.check_heralded_fit, fit, 2)


# --- tofs-readout ----------------------------------------------------------


@pytest.fixture(scope="module")
def tofs_files(tofs):
    out, cfg = _stage(tofs, "tofs-analyze")
    header, counts = checks.read_grid_matrix(os.path.join(out, "counts.csv"), np.int64)
    marginals = np.loadtxt(os.path.join(out, "marginals.tsv"), comments="#")
    report = checks.read_report(os.path.join(out, "report.txt"))
    return cfg, header, counts, marginals, report


def test_count_total(tofs_files):
    cfg, _, counts, _, _ = tofs_files
    events = int(cfg["spectrometer"]["events"])
    checks.check_count_total(counts, events)
    extra = counts.copy()
    extra[250, 250] += 1
    _fails("count_total", checks.check_count_total, extra, events)


def test_shifted_marginal_fails_peaks(tofs_files):
    cfg, _, _, marginals, _ = tofs_files
    arrivals = checks.bin_arrival_times(cfg)
    checks.check_marginal_peaks(marginals, arrivals, 25e-12)
    shifted = marginals.copy()
    shifted[:, 2] = np.roll(shifted[:, 2], 3)
    _fails("marginal_peaks", checks.check_marginal_peaks, shifted, arrivals, 25e-12)
    _fails("marginal_peaks", checks.check_marginal_peaks, marginals, arrivals + 60e-12, 25e-12)


def test_point_schmidt_against_svd(tofs_files):
    _, _, counts, _, report = tofs_files
    checks.check_point_schmidt(report, counts)
    shifted = counts.copy()
    row = int(np.argmax(counts.sum(axis=1)))
    shifted[row] = np.roll(shifted[row], 5)
    _fails("point_schmidt_matches_svd", checks.check_point_schmidt, report, shifted)


def test_schmidt_against_source_and_bootstrap(tofs_files):
    cfg, _, _, _, report = tofs_files
    source_k = checks.schmidt_number(checks.schmidt_weights(checks.ideal_comb_jsa(cfg)))
    checks.check_schmidt_vs_source(report, source_k)
    _fails("schmidt_vs_source", checks.check_schmidt_vs_source, report, 1.02 * source_k)
    checks.check_bootstrap(report)
    _fails("bootstrap_std", checks.check_bootstrap, dict(report, schmidt_number_std="0.000000"))
    _fails("bootstrap_std", checks.check_bootstrap, dict(report, schmidt_number_std="nan"))


def test_arrival_times_follow_dispersion_law(tofs_files):
    cfg = tofs_files[0]
    t = checks.bin_arrival_times(cfg)
    # 0.4 ns/nm and 4.03 nm between 500 GHz bins at 1555.7 nm: ~1.61 ns apart
    assert t.size == 8
    assert np.allclose(np.diff(t), 1.61e-9, rtol=0.02)
    assert abs(t[3] + t[4]) < 0.01 * t[4]  # nearly symmetric about the reference


# --- tomography ------------------------------------------------------------


def test_projection_totals(tomo, tmp_path):
    out, cfg = _stage(tomo, "tomo-sim")
    assert checks.check_tomo_sim(out, cfg) == []
    copy = str(tmp_path / "tomo-sim")
    shutil.copytree(out, copy)
    path = os.path.join(copy, "tomo", "proj_2_3.csv")
    with open(path) as fh:
        header = fh.readline()
    values = checks.read_grid_matrix(path, np.int64)[1]
    with open(path, "w") as fh:
        fh.write(header)
        np.savetxt(fh, values // 2, fmt="%d", delimiter=",")
    assert checks.check_tomo_sim(copy, cfg)[0].startswith("projection_totals:")
    os.remove(path)
    assert checks.check_tomo_sim(copy, cfg)[0].startswith("projection_count:")


def test_bin_states(tomo):
    out, cfg = _stage(tomo, "tomo-fit")
    rows = checks.read_tomography_report(os.path.join(out, "report.txt"))
    phase = float(cfg["tomography"]["phases_rad"])
    drift = np.array([float(d) for d in cfg["tomography"]["drift_rad"].split(",")])
    labels = checks.bin_labels(4)
    checks.check_bin_states(rows, labels, phase, drift)

    def edit(label, key, delta):
        copy = {k: dict(v) for k, v in rows.items()}
        copy[label][key] += delta
        return copy

    _fails("bin_purity", checks.check_bin_states, edit(2, "purity", -0.02), labels, phase, drift)
    _fails("bin_fidelity", checks.check_bin_states, edit(-3, "fidelity", 0.01), labels, phase, drift)
    _fails("bin_phase", checks.check_bin_states, edit(4, "phase", 0.02), labels, phase, drift)
    _fails("bin_purity", checks.check_bin_states, rows, labels, phase, drift[::-1])
    _fails("tomography_bins", checks.check_bin_states,
           {k: v for k, v in rows.items() if k != 1}, labels, phase, drift)


def test_domain_pmf_matches_periodic_poling():
    # a periodically poled crystal peaks at 1 at dk0 = pi / width
    width, n = 23e-6, 1000
    widths = np.full(n, width)
    orient = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    peak = checks.domain_pmf(widths, orient, n * width, [np.pi / width])
    assert abs(abs(peak[0]) - 1.0) < 1e-9
