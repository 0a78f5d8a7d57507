"""Tomography layer: SIC frame algebra, reconstruction, gating, error bars."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge import cli, measurement
from qpmforge.biphoton import FrequencyGrid, JointSpectralAmplitude, build_jsa
from qpmforge.config import default_config
from qpmforge.measurement import MeasurementError, project_to_spectrometer
from qpmforge.tomography import (
    _born_table,
    HyperState,
    TwoQubitState,
    analyze_tomography,
    bin_detuning,
    bin_images,
    default_bin_labels,
    fidelity_singlet,
    load_tomography_bundle,
    purity,
    reconstruct_state,
    resample_tomography,
    save_tomography_bundle,
    sic_operator,
    simulate_tomography,
    singlet_state,
    tomography_probabilities,
    tomography_report,
)

from oracles import NU0, expected_tomography, project_probability, project_stack, split_bins

# the device every library call below is handed explicitly
DEVICE = default_config()
SPACING = DEVICE["crystal"]["bin_spacing_hz"]
PAIRS = DEVICE["crystal"]["pair_count"]
WIDTH = DEVICE["tomography"]["gate_width_s"]
ALIAS = DEVICE["spectrometer"]["max_alias_fraction"]


def wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


@pytest.fixture(scope="module")
def small_grid():
    return FrequencyGrid.symmetric(256, 2.5e12)


@pytest.fixture(scope="module")
def small_jsa(cfg, small_grid):
    return build_jsa(cfg.comb_spec(), cfg.pump_spec(), cfg.dispersion_map(), small_grid)


@pytest.fixture(scope="module")
def small_split(small_jsa):
    labels, parts, weights = split_bins(small_jsa, SPACING, PAIRS)
    return labels, np.asarray(parts), weights


@pytest.fixture(scope="module")
def small_images(small_jsa, spectro):
    """(labels, images, weights) of the pipeline's bin pass."""
    return bin_images(
        small_jsa.intensity, small_jsa.grid, small_jsa.center_frequency_hz, spectro, SPACING, PAIRS
    )


@pytest.fixture(scope="module")
def random_phases():
    return np.random.default_rng(42).uniform(-np.pi, np.pi, 8)


@pytest.fixture(scope="module")
def pure_hyper(small_images, random_phases):
    labels, _, weights = small_images
    return HyperState(phases=random_phases, weights=weights, labels=labels)


@pytest.fixture(scope="module")
def pure_table(pure_hyper, small_images, spectro):
    _, images, _ = small_images
    return expected_tomography(pure_hyper, images, spectro, NU0, SPACING, WIDTH)


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
        rec = reconstruct_state(p)
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
        state = reconstruct_state(noisy)
        assert state.clipped_weight > 0.0
        assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(state.rho).min() >= -1e-15
        # an unprojected estimate like that would not pass as a state
        with pytest.raises(ValueError, match="negative eigenvalue"):
            TwoQubitState(np.diag([1.1, -0.1, 0.0, 0.0]))


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
        with pytest.raises(TypeError, match="labels"):
            HyperState(phases=np.zeros(2), weights=np.full(2, 0.5))
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

    def test_bin_detuning(self):
        assert bin_detuning(1, SPACING) == pytest.approx(np.pi * SPACING)
        assert bin_detuning(2, SPACING) == pytest.approx(3 * np.pi * SPACING)
        assert bin_detuning(-3, SPACING) == pytest.approx(-5 * np.pi * SPACING)
        with pytest.raises(ValueError):
            bin_detuning(0, SPACING)


def where_split_bins(jsa):
    """split_bins building each bin spectrum with np.where and a divided copy."""
    inten, grid = jsa.intensity, jsa.grid
    labels = default_bin_labels(4)
    centers = np.array([2.0 * bin_detuning(lab, SPACING) for lab in labels])
    diff = grid.nu[None, :] - grid.nu[:, None]
    nearest = np.digitize(diff, 0.5 * (centers[1:] + centers[:-1]))
    total = inten.sum()
    parts = np.zeros((labels.size,) + inten.shape)
    weights = np.zeros(labels.size)
    for i in range(labels.size):
        part = np.where(nearest == i, inten, 0.0)
        mass = part.sum()
        weights[i] = mass / total
        parts[i] = part / mass if mass > 0 else part
    return labels, parts, weights


class TestSplitBins:
    def test_in_place_fill_matches_where_oracle(self, cfg, small_grid):
        jsa = build_jsa(cfg.comb_spec(), cfg.pump_spec(), cfg.dispersion_map(), small_grid)
        # one lit cell leaves seven bins without mass
        n = small_grid.nu.size
        one_cell = np.zeros((n, n))
        one_cell[100, 140] = 0.5
        lit = JointSpectralAmplitude(grid=small_grid, values=one_cell, center_frequency_hz=NU0)
        assert np.count_nonzero(split_bins(lit, SPACING, PAIRS)[2]) == 1
        for amp in (jsa, lit):
            got, want = split_bins(amp, SPACING, PAIRS), where_split_bins(amp)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)

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

    def test_zero_intensity_rejected(self, small_grid):
        n = small_grid.nu.size
        with pytest.raises(ValueError, match="no intensity"):
            zero = JointSpectralAmplitude(
                grid=small_grid, values=np.zeros((n, n)), center_frequency_hz=NU0
            )
            split_bins(zero, SPACING, PAIRS)


class TestBinImages:
    def test_matches_projected_dense_oracle(self, small_jsa, small_grid, spectro):
        # the pass forms and projects one bin spectrum at a time; projecting
        # the dense stack of the same spectra must give the same bits
        labels, images, weights = bin_images(
            small_jsa.intensity, small_grid, small_jsa.center_frequency_hz, spectro, SPACING, PAIRS
        )
        want_labels, parts, want_weights = where_split_bins(small_jsa)
        want_images, want_kept = project_stack(parts, small_grid, spectro, NU0)
        np.testing.assert_array_equal(labels, want_labels)
        np.testing.assert_array_equal(images, want_images)
        np.testing.assert_array_equal(images.sum(axis=(1, 2)), want_kept)
        np.testing.assert_array_equal(weights, want_weights)

    def test_empty_bins_raise_like_the_dense_oracle(self, small_grid, spectro):
        n = small_grid.nu.size
        # one lit cell leaves seven bins without mass
        one_cell = np.zeros((n, n))
        one_cell[100, 140] = 0.5
        lit = JointSpectralAmplitude(grid=small_grid, values=one_cell, center_frequency_hz=NU0)
        with pytest.raises(MeasurementError, match="no intensity"):
            project_stack(where_split_bins(lit)[1], small_grid, spectro, NU0)
        with pytest.raises(MeasurementError, match="no intensity"):
            bin_images(lit.intensity, small_grid, NU0, spectro, SPACING, PAIRS)
        with pytest.raises(ValueError, match="no intensity"):
            bin_images(np.zeros((n, n)), small_grid, NU0, spectro, SPACING, PAIRS)
        with pytest.raises(ValueError, match="grid's shape"):
            bin_images(np.ones((n, n - 1)), small_grid, NU0, spectro, SPACING, PAIRS)

    def test_peak_memory_below_dense_stack(self, comb_jsa, spectro):
        # the pass must never hold the (n_bins, n_idler, n_signal) stack
        intensity = comb_jsa.intensity
        tracemalloc.start()
        try:
            labels, _, _ = bin_images(
                intensity, comb_jsa.grid, comb_jsa.center_frequency_hz, spectro, SPACING, PAIRS
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack_bytes = labels.size * intensity.nbytes
        assert peak < stack_bytes


@pytest.fixture(scope="module")
def sim(pure_hyper, small_images, spectro):
    _, images, _ = small_images
    return simulate_tomography(
        pure_hyper, images, spectro, NU0, events=2000, seed=5, max_alias_fraction=ALIAS
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
        self, small_images, spectro
    ):
        labels, images, weights = small_images
        hyper = HyperState(phases=np.zeros(8), weights=weights, labels=labels)
        sim = simulate_tomography(
            hyper, images, spectro, NU0, 500, seed=1, max_alias_fraction=ALIAS
        )
        for j in range(1, 5):
            assert sim[(j, j)].total == 0

    def test_reproducible(self, pure_hyper, small_images, spectro):
        _, images, _ = small_images
        a = simulate_tomography(
            pure_hyper, images, spectro, NU0, 300, seed=9, max_alias_fraction=ALIAS
        )
        b = simulate_tomography(
            pure_hyper, images, spectro, NU0, 300, seed=9, max_alias_fraction=ALIAS
        )
        c = simulate_tomography(
            pure_hyper, images, spectro, NU0, 300, seed=10, max_alias_fraction=ALIAS
        )
        np.testing.assert_array_equal(a[(1, 2)].values, b[(1, 2)].values)
        assert any(np.any(a[key].values != c[key].values) for key in a)

    def test_validation(self, pure_hyper, small_images, spectro):
        _, images, _ = small_images
        with pytest.raises(ValueError, match="one matrix per bin"):
            simulate_tomography(
                pure_hyper, images[:3], spectro, NU0, 100, seed=0, max_alias_fraction=ALIAS
            )
        with pytest.raises(ValueError, match="events"):
            simulate_tomography(
                pure_hyper, images, spectro, NU0, -1, seed=0, max_alias_fraction=ALIAS
            )


class TestSharedProjection:
    def test_mixed_images_match_reference_projection(
        self, pure_hyper, small_split, small_images, small_grid, spectro
    ):
        # projecting each bin once and mixing the images must equal
        # projecting each setting's mixed spectrum: the map is linear
        _, parts, weights = small_split
        _, images, _ = small_images
        kept = images.sum(axis=(1, 2))
        mixes = [weights] + [
            np.clip(weights * born, 0.0, None) for born in _born_table(pure_hyper)
        ]
        for flux in mixes:
            mix = flux / flux.sum()
            mixed = JointSpectralAmplitude(
                grid=small_grid,
                values=np.sqrt(np.tensordot(mix, parts, axes=(0, 0))),
                center_frequency_hz=NU0,
            )
            ref, ref_alias = project_to_spectrometer(mixed, spectro)
            shared = np.tensordot(mix, images, axes=(0, 0))
            assert np.abs(shared / shared.sum() - ref).max() <= 1e-12 * ref.max()
            assert abs((1.0 - mix @ kept) - ref_alias) <= 1e-12

    def test_banded_projection_matches_dense_product(self, small_split, small_grid, spectro):
        _, parts, _ = small_split
        images, kept = project_stack(parts, small_grid, spectro, NU0)
        transfer = measurement.build_transfer(spectro, small_grid.nu, NU0)
        dense = np.array([transfer @ (part / part.sum()) @ transfer.T for part in parts])
        assert np.abs(images - dense).max() <= 1e-12 * dense.max()
        np.testing.assert_allclose(kept, dense.sum(axis=(1, 2)), rtol=0, atol=1e-12)

    def test_transfer_matrices_built_once_per_call(self, monkeypatch, tmp_path):
        # both photons share one axis, so each readout stage builds one
        # transfer matrix and applies it to both detectors
        cfg = default_config()
        cfg.sections["grid"]["points"] = 256
        cfg.sections["tomography"]["events_per_projection"] = 100
        cfg.sections["spectrometer"]["events"] = 100
        calls = []
        build = measurement.build_transfer
        monkeypatch.setattr(
            measurement, "build_transfer", lambda *args: calls.append(args) or build(*args)
        )
        cli.cmd_tomo_sim(cfg, str(tmp_path))
        assert len(calls) == 1
        assert len(os.listdir(tmp_path / "tomo")) == 16
        calls.clear()
        cli.cmd_tofs_sim(cfg, str(tmp_path))
        assert len(calls) == 1
        assert os.path.exists(tmp_path / "counts.csv")


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
        self, pure_hyper, random_phases, small_images, spectro
    ):
        labels, images, _ = small_images
        run = simulate_tomography(
            pure_hyper, images, spectro, NU0, events=100_000, seed=5, max_alias_fraction=ALIAS
        )
        results = analyze_tomography(run, labels, SPACING, WIDTH, n_resamples=200, seed=6)
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

    def test_zero_counts_raise(self, pure_hyper, small_images, spectro):
        _, images, _ = small_images
        sim = simulate_tomography(
            pure_hyper, images, spectro, NU0, events=0, seed=0, max_alias_fraction=ALIAS
        )
        with pytest.raises(ValueError, match="no gated counts"):
            tomography_probabilities(sim, 1, SPACING, WIDTH)

    def test_report_lists_every_bin(
        self, pure_hyper, small_images, spectro
    ):
        labels, images, _ = small_images
        sim = simulate_tomography(
            pure_hyper, images, spectro, NU0, events=5000, seed=2, max_alias_fraction=ALIAS
        )
        results = analyze_tomography(sim, labels, SPACING, WIDTH, n_resamples=0, seed=0)
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
            resample_tomography(np.ones(10), 10, seed=0)

    def test_stacked_metrics_match_per_state(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 2, 4, 4)) + 1j * rng.normal(size=(3, 2, 4, 4))
        stack = a @ np.conj(np.swapaxes(a, -1, -2))
        stack /= np.trace(stack, axis1=-2, axis2=-1).real[..., None, None]
        stack[0, 0] = singlet_state(0.0, coherence=0.0)  # phase falls back to 0
        fid, phi = fidelity_singlet(stack)
        pur = purity(stack)
        assert pur.shape == fid.shape == phi.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            one = purity(stack[idx])
            # a stacked matmul may sum in another order than a single one
            assert isinstance(one, float) and pur[idx] == pytest.approx(one, abs=1e-15)
            assert (fid[idx], phi[idx]) == fidelity_singlet(stack[idx])
        assert isinstance(fidelity_singlet(stack[1, 1])[1], float)

    @pytest.mark.parametrize("events", [3.0, 5000.0])
    def test_stds_match_looped_point_estimator(self, events):
        # at 3 events replicas need the PSD clip and some draw no counts
        # at all; both paths must drop those and agree on the rest
        p16 = np.array(
            [
                project_probability(singlet_state(0.4, coherence=0.8), j, k)
                for j in range(1, 5)
                for k in range(1, 5)
            ]
        )
        gated = events * p16 / 4.0
        draws = np.random.default_rng(31).poisson(gated, size=(300, 16)).astype(float)
        draws = draws[draws.sum(axis=1) > 0]
        states = [reconstruct_state(4.0 * d / d.sum()) for d in draws]
        if events < 10.0:
            assert len(states) < 300
            assert any(state.clipped_weight > 0.0 for state in states)
        pur = [purity(state) for state in states]
        fid = [fidelity_singlet(state)[0] for state in states]
        p_std, f_std = resample_tomography(gated, 300, seed=31)
        assert p_std == pytest.approx(np.std(pur, ddof=1), abs=1e-12)
        assert f_std == pytest.approx(np.std(fid, ddof=1), abs=1e-12)

    def test_error_bars_cover_truth(
        self, small_images, spectro, random_phases
    ):
        # 3-sigma bootstrap bars on (purity, fidelity) must cover the
        # infinite-statistics value in at least 99 of 100 synthetic runs;
        # the truth state has two exact zero eigenvalues, so the PSD clip
        # biases low-count estimates and the event count must be large
        # enough to keep that bias inside the bars
        labels, images, weights = small_images
        hyper = HyperState(
            phases=random_phases,
            weights=weights,
            labels=labels,
            drift=np.full(8, 1.0),
        )
        p16 = expected_tomography(hyper, images, spectro, NU0, SPACING, WIDTH)[2]
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
        self, pure_hyper, small_images, spectro, tmp_path
    ):
        _, images, _ = small_images
        sim = simulate_tomography(
            pure_hyper, images, spectro, NU0, events=50, seed=3, max_alias_fraction=ALIAS
        )
        target = tmp_path / "bundle"
        save_tomography_bundle(target, sim)
        names = sorted(os.listdir(target))
        assert sum(name.startswith("proj_") for name in names) == 16
        loaded = load_tomography_bundle(target)
        assert set(loaded) == set(sim)
        for key in sim:
            np.testing.assert_array_equal(loaded[key].values, sim[key].values)
            assert loaded[key].spec.time_bin == pytest.approx(sim[key].spec.time_bin)
            assert loaded[key].center_frequency_hz == NU0

    def test_incomplete_bundle_rejected(
        self, pure_hyper, small_images, spectro, tmp_path
    ):
        _, images, _ = small_images
        sim = simulate_tomography(
            pure_hyper, images, spectro, NU0, events=50, seed=3, max_alias_fraction=ALIAS
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
    rec = reconstruct_state(p)
    np.testing.assert_allclose(rec.rho, rho, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), pairs=st.integers(1, 5))
def test_born_table_matches_project_probability(seed, pairs):
    # the forward model's frame-matrix table against the Born-rule oracle
    rng = np.random.default_rng(seed)
    n = 2 * pairs
    hyper = HyperState(
        phases=rng.uniform(-np.pi, np.pi, n),
        weights=rng.dirichlet(np.ones(n)),
        labels=default_bin_labels(pairs),
        drift=rng.uniform(0.0, 4.0, n),
    )
    oracle = np.array(
        [
            [project_probability(hyper.bin_state(i), j, k) for i in range(n)]
            for j in range(1, 5)
            for k in range(1, 5)
        ]
    )
    table = _born_table(hyper)
    assert table.shape == (16, n)
    np.testing.assert_allclose(table, oracle, rtol=0, atol=1e-15)
