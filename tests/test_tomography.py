"""Tomography layer: SIC frame algebra, reconstruction, gating, error bars."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge import tomography
from qpmforge.biphoton import FrequencyGrid, build_jsa
from qpmforge.measurement import project_to_spectrometer
from qpmforge.tomography import (
    _born_table,
    _project_bins,
    HyperState,
    analyze_tomography,
    bin_detuning,
    default_bin_labels,
    expected_tomography,
    fidelity_singlet,
    load_tomography_bundle,
    project_probability,
    purity,
    reconstruct_state,
    resample_tomography,
    save_tomography_bundle,
    sic_operator,
    sic_projector_vector,
    simulate_tomography,
    singlet_state,
    split_bins,
    tomography_probabilities,
    tomography_report,
)

SPACING = 500e9


def wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@pytest.fixture(scope="module")
def small_grid():
    return FrequencyGrid.symmetric(256, 2.5e12)


@pytest.fixture(scope="module")
def small_split(cfg, small_grid):
    jsa = build_jsa(cfg.comb_spec(), cfg.pump_spec(), cfg.dispersion_map(), small_grid)
    labels, parts, weights = split_bins(jsa)
    return labels, np.asarray(parts), weights


@pytest.fixture(scope="module")
def random_phases():
    return np.random.default_rng(42).uniform(-np.pi, np.pi, 8)


@pytest.fixture(scope="module")
def pure_hyper(small_split, random_phases):
    labels, _, weights = small_split
    return HyperState(phases=random_phases, weights=weights, labels=labels)


@pytest.fixture(scope="module")
def pure_table(pure_hyper, small_split, small_grid, spectro):
    _, parts, _ = small_split
    return expected_tomography(pure_hyper, parts, small_grid, spectro)


class TestSicFrame:
    def test_resolution_of_identity(self):
        total = sum(sic_operator(k) for k in range(1, 5))
        np.testing.assert_allclose(total, 2.0 * np.eye(2), atol=1e-14)

    def test_pairwise_overlaps(self):
        for j in range(1, 5):
            for k in range(1, 5):
                overlap = np.trace(sic_operator(j) @ sic_operator(k)).real
                expected = 1.0 if j == k else 1.0 / 3.0
                assert overlap == pytest.approx(expected, abs=1e-14)

    def test_projectors_are_rank_one(self):
        for k in range(1, 5):
            op = sic_operator(k)
            vals = np.sort(np.linalg.eigvalsh(op))
            np.testing.assert_allclose(vals, [0.0, 1.0], atol=1e-14)
            ket = sic_projector_vector(k)
            assert np.linalg.norm(ket) == pytest.approx(1.0, abs=1e-14)
            np.testing.assert_allclose(np.outer(ket, ket.conj()), op, atol=1e-12)

    def test_index_validation(self):
        for bad in (0, 5, -1):
            with pytest.raises(ValueError):
                sic_operator(bad)

    def test_probabilities_sum_to_four(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        total = sum(
            project_probability(rho, j, k) for j in range(1, 5) for k in range(1, 5)
        )
        assert total == pytest.approx(4.0, abs=1e-12)

    def test_inversion_recovers_mixed_state(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        p = np.array(
            [project_probability(rho, j, k) for j in range(1, 5) for k in range(1, 5)]
        )
        rec = reconstruct_state(p, psd=False)
        np.testing.assert_allclose(rec.rho, rho, atol=1e-12)
        assert rec.clipped_weight == 0.0


class TestSinglet:
    def test_born_pattern(self):
        rho = singlet_state()
        for j in range(1, 5):
            for k in range(1, 5):
                p = project_probability(rho, j, k)
                expected = 0.0 if j == k else 1.0 / 3.0
                assert p == pytest.approx(expected, abs=1e-14)

    def test_maximally_mixed_is_flat(self):
        rho = np.eye(4) / 4.0
        for j in range(1, 5):
            for k in range(1, 5):
                assert project_probability(rho, j, k) == pytest.approx(0.25, abs=1e-14)

    def test_density_structure(self):
        phi = 0.7
        rho = singlet_state(phi)
        assert rho[0, 0] == 0 and rho[3, 3] == 0
        assert rho[1, 1] == pytest.approx(0.5)
        assert rho[2, 2] == pytest.approx(0.5)
        assert rho[1, 2] == pytest.approx(-0.5 * np.exp(-1j * phi), abs=1e-15)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)

    def test_coherence_validation(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                singlet_state(0.0, coherence=bad)

    @pytest.mark.parametrize("phi", [-3.0, -1.0, 0.0, 2.5, np.pi])
    def test_fidelity_recovers_phase(self, phi):
        fid, phi_hat = fidelity_singlet(singlet_state(phi))
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert abs(wrap_angle(phi_hat - phi)) < 1e-12

    def test_phase_convention_at_pi(self):
        # the wrap keeps +pi, never returns -pi
        _, phi_hat = fidelity_singlet(singlet_state(np.pi))
        assert phi_hat == pytest.approx(np.pi)

    def test_fully_dephased(self):
        fid, phi_hat = fidelity_singlet(singlet_state(0.0, coherence=0.0))
        assert fid == pytest.approx(0.5)
        assert phi_hat == 0.0

    def test_drifted_bin_metrics(self):
        # drift of 2 rad averages the coherence to sin(1)/1
        hyper = HyperState(
            phases=np.zeros(2),
            weights=np.full(2, 0.5),
            labels=np.array([-1, 1]),
            drift=np.full(2, 2.0),
        )
        c = np.sin(1.0)
        np.testing.assert_allclose(hyper.coherences(), c, atol=1e-12)
        rho = hyper.bin_state(0)
        assert purity(rho) == pytest.approx(0.8540367, abs=1e-6)
        assert fidelity_singlet(rho)[0] == pytest.approx(0.9207355, abs=1e-6)


class TestReconstructState:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="16"):
            reconstruct_state(np.ones(15))
        with pytest.raises(ValueError, match="zero"):
            reconstruct_state(np.zeros(16))

    def test_noisy_boundary_state_needs_psd(self):
        # finite counts from a pure state put the raw inversion outside
        # the physical cone; the projection repairs it
        p16 = np.array(
            [
                project_probability(singlet_state(0.3), j, k)
                for j in range(1, 5)
                for k in range(1, 5)
            ]
        )
        gated = np.random.default_rng(3).poisson(200.0 * p16 / 4.0).astype(float)
        noisy = 4.0 * gated / gated.sum()
        with pytest.raises(ValueError, match="negative eigenvalue"):
            reconstruct_state(noisy, psd=False)
        state = reconstruct_state(noisy)
        assert state.clipped_weight > 0.0
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(state.rho).min() >= -1e-15


class TestHyperState:
    def test_validation(self):
        ok = dict(phases=np.zeros(2), weights=np.full(2, 0.5), labels=[-1, 1])
        HyperState(**ok)
        with pytest.raises(ValueError, match="equal length"):
            HyperState(phases=np.zeros(2), weights=np.full(3, 1 / 3), labels=[-1, 1])
        with pytest.raises(ValueError, match="sum to 1"):
            HyperState(phases=np.zeros(2), weights=[0.7, 0.4], labels=[-1, 1])
        with pytest.raises(ValueError, match="sum to 1"):
            HyperState(phases=np.zeros(2), weights=[-0.2, 1.2], labels=[-1, 1])
        with pytest.raises(ValueError, match="labels required"):
            HyperState(phases=np.zeros(3), weights=np.full(3, 1 / 3))
        with pytest.raises(ValueError, match="distinct"):
            HyperState(phases=np.zeros(2), weights=np.full(2, 0.5), labels=[1, 1])
        with pytest.raises(ValueError, match="drift"):
            HyperState(**ok, drift=[-0.1, 0.0])

    def test_phase_wrapping(self):
        hyper = HyperState(
            phases=[1.5 * np.pi, -np.pi], weights=[0.5, 0.5], labels=[-1, 1]
        )
        assert hyper.phases[0] == pytest.approx(-0.5 * np.pi)
        assert hyper.phases[1] == pytest.approx(np.pi)

    def test_uniform_constructor(self):
        hyper = HyperState.uniform()
        assert hyper.n_bins == 8
        np.testing.assert_array_equal(hyper.labels, default_bin_labels())
        np.testing.assert_allclose(hyper.weights, 0.125)
        np.testing.assert_allclose(hyper.coherences(), 1.0)

    def test_bin_detuning(self):
        assert bin_detuning(1, SPACING) == pytest.approx(np.pi * SPACING)
        assert bin_detuning(2, SPACING) == pytest.approx(3 * np.pi * SPACING)
        assert bin_detuning(-3, SPACING) == pytest.approx(-5 * np.pi * SPACING)
        with pytest.raises(ValueError):
            bin_detuning(0)


class TestSplitBins:
    def test_labels_and_weights(self, small_split):
        labels, parts, weights = small_split
        np.testing.assert_array_equal(labels, [-4, -3, -2, -1, 1, 2, 3, 4])
        np.testing.assert_allclose(weights, 0.125, atol=1e-4)
        np.testing.assert_allclose(weights, weights[::-1], atol=1e-5)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)

    def test_parts_are_normalized_and_disjoint(self, small_split):
        _, parts, _ = small_split
        np.testing.assert_allclose(parts.sum(axis=(1, 2)), 1.0, rtol=1e-12)
        for i in range(len(parts)):
            for j in range(i + 1, len(parts)):
                assert not np.any((parts[i] > 0) & (parts[j] > 0))

    def test_reassembly(self, small_split, cfg, small_grid):
        labels, parts, weights = small_split
        jsa = build_jsa(
            cfg.comb_spec(), cfg.pump_spec(), cfg.dispersion_map(), small_grid
        )
        rebuilt = np.tensordot(weights, parts, axes=(0, 0))
        target = jsa.intensity / jsa.intensity.sum()
        np.testing.assert_allclose(rebuilt, target, atol=1e-15 * target.max())

    def test_bare_matrix_needs_grid(self):
        with pytest.raises(ValueError, match="grid"):
            split_bins(np.ones((8, 8)))

    def test_zero_intensity_rejected(self, small_grid):
        n = small_grid.nu_signal.size
        with pytest.raises(ValueError, match="no intensity"):
            split_bins(np.zeros((n, n)), grid=small_grid)


@pytest.fixture(scope="module")
def sim(pure_hyper, small_split, small_grid, spectro):
    _, parts, _ = small_split
    return simulate_tomography(
        pure_hyper, parts, small_grid, spectro, events=2000, seed=5
    )


class TestSimulateTomography:
    def test_all_sixteen_settings(self, sim):
        assert set(sim) == {(j, k) for j in range(1, 5) for k in range(1, 5)}
        for (j, k), counts in sim.items():
            assert counts.metadata["projection"] == (j, k)
            assert counts.metadata["born_flux"] >= 0.0

    def test_born_flux_resolves_frame(self, sim):
        total_flux = sum(c.metadata["born_flux"] for c in sim.values())
        assert total_flux == pytest.approx(4.0, rel=1e-9)

    def test_grand_total_tracks_events(self, sim):
        grand = sum(c.total for c in sim.values())
        mean = 16 * 2000
        assert abs(grand - mean) < 5 * np.sqrt(mean)

    def test_matched_projections_are_dark_for_common_phase(
        self, small_split, small_grid, spectro
    ):
        labels, parts, weights = small_split
        hyper = HyperState(phases=np.zeros(8), weights=weights, labels=labels)
        sim = simulate_tomography(hyper, parts, small_grid, spectro, 500, seed=1)
        for j in range(1, 5):
            assert sim[(j, j)].total == 0

    def test_reproducible(self, pure_hyper, small_split, small_grid, spectro):
        _, parts, _ = small_split
        a = simulate_tomography(pure_hyper, parts, small_grid, spectro, 300, seed=9)
        b = simulate_tomography(pure_hyper, parts, small_grid, spectro, 300, seed=9)
        c = simulate_tomography(pure_hyper, parts, small_grid, spectro, 300, seed=10)
        np.testing.assert_array_equal(a[(1, 2)].values, b[(1, 2)].values)
        assert any(np.any(a[key].values != c[key].values) for key in a)

    def test_validation(self, pure_hyper, small_split, small_grid, spectro):
        _, parts, _ = small_split
        with pytest.raises(ValueError, match="one matrix per bin"):
            simulate_tomography(
                pure_hyper, parts[:3], small_grid, spectro, 100, seed=0
            )
        with pytest.raises(ValueError, match="events"):
            simulate_tomography(pure_hyper, parts, small_grid, spectro, -1, seed=0)


class TestSharedProjection:
    def test_mixed_images_match_reference_projection(
        self, pure_hyper, small_split, small_grid, spectro
    ):
        # projecting each bin once and mixing the images must equal
        # projecting each setting's mixed spectrum: the map is linear
        _, parts, weights = small_split
        images, kept = _project_bins(parts, small_grid, spectro)
        mixes = [weights] + [
            np.clip(weights * born, 0.0, None) for born in _born_table(pure_hyper)
        ]
        for flux in mixes:
            mix = flux / flux.sum()
            ref, ref_alias = project_to_spectrometer(
                np.tensordot(mix, parts, axes=(0, 0)), spectro, grid=small_grid
            )
            shared = np.tensordot(mix, images, axes=(0, 0))
            assert np.abs(shared / shared.sum() - ref).max() <= 1e-12 * ref.max()
            assert abs((1.0 - mix @ kept) - ref_alias) <= 1e-12

    def test_transfer_matrices_built_once_per_call(
        self, monkeypatch, pure_hyper, small_split, small_grid, spectro
    ):
        _, parts, _ = small_split
        calls = []
        build = tomography.build_transfer
        monkeypatch.setattr(
            tomography, "build_transfer", lambda *args: calls.append(args) or build(*args)
        )
        simulate_tomography(pure_hyper, parts, small_grid, spectro, events=100, seed=0)
        expected_tomography(pure_hyper, parts, small_grid, spectro)
        assert len(calls) == 4


class TestGatedAnalysis:
    def test_expected_probabilities_sum_to_four(self, pure_table):
        for label, p16 in pure_table.items():
            assert p16.shape == (16,)
            assert p16.sum() == pytest.approx(4.0, rel=1e-12)

    def test_noiseless_roundtrip_recovers_every_bin(
        self, pure_table, pure_hyper, random_phases
    ):
        for i, label in enumerate(pure_hyper.labels):
            state = reconstruct_state(pure_table[int(label)])
            fid, phi = fidelity_singlet(state)
            assert purity(state) >= 0.999999
            assert fid >= 0.999999
            assert abs(wrap_angle(phi - random_phases[i])) < 1e-6

    def test_simulated_analysis_recovers_state(
        self, pure_hyper, random_phases, small_split, small_grid, spectro
    ):
        labels, parts, _ = small_split
        run = simulate_tomography(
            pure_hyper, parts, small_grid, spectro, events=100_000, seed=5
        )
        results = analyze_tomography(run, labels, n_resamples=200, seed=6)
        assert [r.label for r in results] == list(labels)
        for i, res in enumerate(results):
            assert res.events > 0
            # the PSD clip biases purity low on a rank-2 truth state, so
            # the thresholds sit a few bootstrap sigmas below 1
            assert res.purity >= 0.98
            assert res.fidelity >= 0.99
            assert abs(wrap_angle(res.phase - random_phases[i])) < 0.05
            assert 0.0 < res.purity_std < 0.02
            assert 0.0 < res.fidelity_std < 0.02

    def test_zero_counts_raise(self, pure_hyper, small_split, small_grid, spectro):
        _, parts, _ = small_split
        sim = simulate_tomography(
            pure_hyper, parts, small_grid, spectro, events=0, seed=0
        )
        with pytest.raises(ValueError, match="no gated counts"):
            tomography_probabilities(sim, 1)

    def test_report_lists_every_bin(
        self, pure_hyper, small_split, small_grid, spectro
    ):
        labels, parts, _ = small_split
        sim = simulate_tomography(
            pure_hyper, parts, small_grid, spectro, events=5000, seed=2
        )
        results = analyze_tomography(sim, labels)
        text = tomography_report(results)
        lines = text.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("bin")
        for label in labels:
            assert any(line.startswith(f"{label:+d}") for line in lines[1:])


class TestResample:
    def test_reproducible_and_positive(self):
        p16 = np.array(
            [
                project_probability(singlet_state(1.0), j, k)
                for j in range(1, 5)
                for k in range(1, 5)
            ]
        )
        gated = 5000.0 * p16 / 4.0
        a = resample_tomography(gated, 400, seed=8)
        b = resample_tomography(gated, 400, seed=8)
        c = resample_tomography(gated, 400, seed=9)
        assert a == b
        assert a != c
        assert a[0] > 0 and a[1] > 0

    def test_input_validation(self):
        with pytest.raises(ValueError, match="16"):
            resample_tomography(np.ones(10))

    def test_error_bars_cover_truth(
        self, small_split, small_grid, spectro, random_phases
    ):
        # 3-sigma bootstrap bars on (purity, fidelity) must cover the
        # infinite-statistics value in at least 99 of 100 synthetic runs;
        # the truth state has two exact zero eigenvalues, so the PSD clip
        # biases low-count estimates and the event count must be large
        # enough to keep that bias inside the bars
        labels, parts, weights = small_split
        hyper = HyperState(
            phases=random_phases,
            weights=weights,
            labels=labels,
            drift=np.full(8, 1.0),
        )
        p16 = expected_tomography(hyper, parts, small_grid, spectro)[2]
        truth = reconstruct_state(p16)
        truth_purity = purity(truth)
        truth_fid = fidelity_singlet(truth)[0]
        n_events = 10_000_000
        rng = np.random.default_rng(2024)
        covered = 0
        for trial in range(100):
            n16 = rng.multinomial(n_events, p16 / 4.0).astype(float)
            est = reconstruct_state(4.0 * n16 / n16.sum())
            p_std, f_std = resample_tomography(n16, 1000, seed=[77, trial])
            if (
                abs(purity(est) - truth_purity) <= 3 * p_std
                and abs(fidelity_singlet(est)[0] - truth_fid) <= 3 * f_std
            ):
                covered += 1
        assert covered >= 99


class TestBundleIO:
    def test_roundtrip(
        self, pure_hyper, small_split, small_grid, spectro, tmp_path
    ):
        _, parts, _ = small_split
        sim = simulate_tomography(
            pure_hyper, parts, small_grid, spectro, events=50, seed=3
        )
        target = tmp_path / "bundle"
        save_tomography_bundle(target, sim, manifest={"events": 50, "seed": 3})
        names = sorted(os.listdir(target))
        assert "manifest.txt" in names
        assert sum(name.startswith("proj_") for name in names) == 16
        manifest_text = (target / "manifest.txt").read_text()
        assert "events = 50" in manifest_text
        loaded = load_tomography_bundle(target)
        assert set(loaded) == set(sim)
        for key in sim:
            np.testing.assert_array_equal(loaded[key].values, sim[key].values)
            assert loaded[key].time_bin == pytest.approx(sim[key].time_bin)

    def test_incomplete_bundle_rejected(
        self, pure_hyper, small_split, small_grid, spectro, tmp_path
    ):
        _, parts, _ = small_split
        sim = simulate_tomography(
            pure_hyper, parts, small_grid, spectro, events=50, seed=3
        )
        target = tmp_path / "bundle"
        save_tomography_bundle(target, sim)
        os.remove(target / "proj_2_3.csv")
        with pytest.raises(ValueError, match="expected 16"):
            load_tomography_bundle(target)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_frame_roundtrip_on_pure_states(seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    p = np.array(
        [project_probability(rho, j, k) for j in range(1, 5) for k in range(1, 5)]
    )
    assert p.sum() == pytest.approx(4.0, abs=1e-12)
    rec = reconstruct_state(p, psd=False)
    np.testing.assert_allclose(rec.rho, rho, atol=1e-12)
