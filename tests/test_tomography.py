"""Tomography layer: SIC frame algebra, reconstruction, gating, error bars."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge import cli, measurement
from qpmforge.biphoton import C_LIGHT, FrequencyGrid, JointSpectralAmplitude, build_jsa
from qpmforge.config import default_config
from qpmforge.measurement import (
    MeasurementError,
    detuning_to_time,
    load_counts,
    save_counts,
)
from qpmforge.tomography import (
    _bin_masses,
    _born_table,
    GateError,
    HyperState,
    TwoQubitState,
    analyze_tomography,
    bin_detuning,
    bin_gates,
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
    tomography_report,
)

from oracles import (
    NU0,
    bin_images,
    expected_tomography,
    project_probability,
    project_stack,
    split_bins,
)

# the device every library call below is handed explicitly
DEVICE = default_config()
SPACING = DEVICE["crystal"]["bin_spacing_hz"]
PAIRS = DEVICE["crystal"]["pair_count"]
WIDTH = DEVICE["tomography"]["gate_width_s"]
ALIAS = DEVICE["spectrometer"]["max_alias_fraction"]
LABELS = default_bin_labels(PAIRS)


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
    """(images, weights) of the dense per-bin oracle."""
    return bin_images(small_jsa, spectro, SPACING, PAIRS)


@pytest.fixture(scope="module")
def random_phases():
    return np.random.default_rng(42).uniform(-np.pi, np.pi, 8)


@pytest.fixture(scope="module")
def small_weights(small_jsa):
    """The emission weights simulate_tomography reads off the small amplitude."""
    _, masses = _bin_masses(small_jsa.intensity, small_jsa.grid, SPACING, PAIRS)
    return masses / masses.sum()


@pytest.fixture(scope="module")
def pure_hyper(random_phases):
    return HyperState(phases=random_phases)


def simulate(hyper, jsa, spec, events, seed):
    """simulate_tomography of an amplitude's intensity at the device's spacing."""
    return simulate_tomography(
        hyper, jsa.intensity, jsa.grid, spec, jsa.center_frequency_hz, SPACING,
        events=events, seed=seed, max_alias_fraction=ALIAS,
    )


@pytest.fixture(scope="module")
def pure_table(pure_hyper, small_images, small_weights, spectro):
    images, _ = small_images
    return expected_tomography(pure_hyper, images, small_weights, spectro, NU0, SPACING, WIDTH)


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
        hyper = HyperState(phases=np.zeros(2), drift=np.full(2, 2.0))
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
        np.testing.assert_array_equal(HyperState(phases=np.zeros(2)).drift, [0.0, 0.0])
        with pytest.raises(ValueError, match="drift"):
            HyperState(phases=np.zeros(2), drift=[-0.1, 0.0])
        with pytest.raises(ValueError, match="drift"):
            HyperState(phases=np.zeros(2), drift=[0.1])

    def test_phase_wrapping(self):
        hyper = HyperState(phases=[1.5 * np.pi, -np.pi])
        assert hyper.phases[0] == pytest.approx(-0.5 * np.pi)
        assert hyper.phases[1] == pytest.approx(np.pi)

    def test_bin_detuning(self):
        assert bin_detuning(1, SPACING) == pytest.approx(np.pi * SPACING)
        assert bin_detuning(2, SPACING) == pytest.approx(3 * np.pi * SPACING)
        assert bin_detuning(-3, SPACING) == pytest.approx(-5 * np.pi * SPACING)
        with pytest.raises(ValueError):
            bin_detuning(0, SPACING)


def diagonal_rule(grid):
    """Each cell's bin index by the difference-frequency center nearest
    (column - row) * d_nu, and the per-cell rule's, by nu_s - nu_i
    subtracted cell by cell."""
    centers = np.array([2.0 * bin_detuning(lab, SPACING) for lab in default_bin_labels(PAIRS)])
    bounds = 0.5 * (centers[1:] + centers[:-1])
    n = grid.nu.size
    steps = np.arange(n)[None, :] - np.arange(n)[:, None]
    return (np.digitize(steps * grid.d_nu, bounds),
            np.digitize(grid.nu[None, :] - grid.nu[:, None], bounds))


def where_split_bins(jsa):
    """split_bins building each bin spectrum with np.where and a divided copy."""
    inten = jsa.intensity
    labels = default_bin_labels(PAIRS)
    nearest, _ = diagonal_rule(jsa.grid)
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


class TestBinWeights:
    def test_match_dense_oracle(self, small_jsa, small_weights):
        # the package sums each bin row by row and then over the rows, the
        # oracle over a masked copy of the whole grid: the same masses in
        # another order, each within about (256 + 256) eps of the exact sum
        _, _, want = where_split_bins(small_jsa)
        np.testing.assert_allclose(small_weights, want, rtol=512 * np.finfo(float).eps, atol=0.0)

    @pytest.mark.parametrize(
        "points, half_span_hz", [(256, 2.5e12), (1001, DEVICE["grid"]["half_span_hz"])]
    )
    def test_every_diagonal_lies_in_one_bin(self, points, half_span_hz):
        # on these grids a bin boundary falls on a grid difference, so
        # nu_s - nu_i subtracted cell by cell rounds part of a diagonal to
        # each side of it; the bins are bands of whole diagonals.  A flat
        # spectrum gives each bin its cell count, which sums exactly.
        grid = FrequencyGrid.symmetric(points, half_span_hz)
        by_diagonal, by_cell = diagonal_rule(grid)
        steps = np.arange(points)[None, :] - np.arange(points)[:, None]
        split = [
            d for d in np.unique(steps[by_diagonal != by_cell])
            if np.unique(by_cell[steps == d]).size > 1
        ]
        assert len(split) == {256: 6, 1001: 3}[points]
        cells = np.bincount(by_diagonal.ravel(), minlength=2 * PAIRS)
        flat = np.ones(grid.shape)
        _, masses = _bin_masses(flat, grid, SPACING, PAIRS)
        np.testing.assert_array_equal(masses / masses.sum(), cells / cells.sum())
        one = JointSpectralAmplitude(grid=grid, values=flat, center_frequency_hz=NU0)
        parts = split_bins(one, SPACING, PAIRS)[1]
        for d in split:
            assert sum(np.any(part[steps == d]) for part in parts) == 1

    def test_empty_bins_raise_like_the_dense_oracle(self, small_grid, spectro):
        n = small_grid.nu.size
        # one lit cell leaves seven bins without mass
        one_cell = np.zeros((n, n))
        one_cell[100, 140] = 0.5
        lit = JointSpectralAmplitude(grid=small_grid, values=one_cell, center_frequency_hz=NU0)
        with pytest.raises(MeasurementError, match="no intensity"):
            project_stack(where_split_bins(lit)[1], small_grid, spectro, NU0)

        def simulate_spectrum(intensity):
            return simulate_tomography(
                HyperState(np.zeros(2 * PAIRS)), intensity, small_grid, spectro, NU0, SPACING,
                events=100, seed=0, max_alias_fraction=ALIAS,
            )

        with pytest.raises(MeasurementError, match="no intensity"):
            simulate_spectrum(lit.intensity)
        with pytest.raises(ValueError, match="no intensity"):
            simulate_spectrum(np.zeros((n, n)))
        with pytest.raises(ValueError, match="does not match grid"):
            simulate_spectrum(np.ones((n, n - 1)))


def arrival_center(spec, label, arrival):
    """The band center at which bin ``label``'s signal photon arrives at ``arrival`` (s)."""
    wavelength = spec.reference_wavelength + arrival / spec.time_rate
    return C_LIGHT / wavelength - bin_detuning(label, SPACING) / (2.0 * np.pi)


class TestBinGates:
    def test_gate_is_centered_and_truncated(self, spectro):
        t = spectro.time_centers
        # bin +1's signal photon arrives at t = 0: its 1 ns signal gate takes
        # the 40 cells centered within +-0.5 ns, and its idler gate is the
        # signal gate of the conjugate bin -1
        plus = PAIRS  # the index of label +1
        gates = bin_gates(spectro, arrival_center(spectro, 1, 0.0), PAIRS, SPACING, 1e-9)
        rows, cols = (index.ravel() for index in gates[plus])
        np.testing.assert_array_equal(cols, np.arange(230, 270))
        np.testing.assert_array_equal(rows, gates[plus - 1][1].ravel())
        # bin -4 arrives near +5.65 ns: its gate overhangs the window edge
        # and is truncated to it, never extended past it
        start = detuning_to_time(spectro, bin_detuning(-PAIRS, SPACING), NU0) - WIDTH / 2
        assert start > 0
        cols = bin_gates(spectro, NU0, PAIRS, SPACING, WIDTH)[0][1].ravel()
        np.testing.assert_array_equal(cols, np.arange(cols[0], spectro.n_bins))
        assert t[cols[0]] >= start > t[cols[0] - 1]

    def test_gate_fully_outside_raises(self, spectro):
        # at this spacing bin -4 sits 6 THz out, far beyond the window
        with pytest.raises(MeasurementError, match="outside the acquisition"):
            bin_gates(spectro, NU0, PAIRS, 6000e9 / 3.5, 0.1e-9)

    def test_gates_select_cells_by_center(self, spectro):
        # cell 250 spans [0, 25) ps and cell 251 [25, 50) ps: a 25 ps gate
        # on [10, 35) ps overlaps both but takes only the cell whose center
        # it holds; one pair keeps both bins' 25 ps gates inside the window
        for arrival, cell in ((22.5e-12, 250), (2.5e-12, 250), (47.5e-12, 251)):
            gates = bin_gates(spectro, arrival_center(spectro, 1, arrival), 1, SPACING, 25e-12)
            assert gates[1][1].ravel().tolist() == [cell]

    def test_gate_wider_than_the_bin_gap_raises(self, sim, spectro):
        # adjacent bins arrive 1.590 ns apart on the default calibration, so
        # a 1.7 ns gate would count part of each neighbour's light
        with pytest.raises(GateError) as err:
            analyze_tomography(sim.items(), PAIRS, SPACING, 1.7e-9, n_resamples=0, seed=0)
        assert err.value.gap == pytest.approx(1.590e-9, rel=1e-3)
        assert isinstance(err.value, ValueError)
        # the gap is checked before the window: with every bin arriving
        # beyond the window, a narrow gate is refused by the window and a
        # wide one by the gap
        far = arrival_center(spectro, 1, 30e-9)
        with pytest.raises(MeasurementError, match="outside the acquisition"):
            bin_gates(spectro, far, PAIRS, SPACING, 0.1e-9)
        with pytest.raises(GateError):
            bin_gates(spectro, far, PAIRS, SPACING, 3e-9)

    def test_tomo_fit_checks_each_file_on_its_own_calibration(self, tmp_path, capsys):
        # the last file read is re-saved at half the dispersion, where
        # adjacent bins arrive 0.7949 ns apart: the default 1.52 ns gate
        # fits the other 15 files and is refused on that one
        cfg = default_config()
        cfg.sections["crystal"]["length_m"] = 0.005
        cfg.sections["grid"]["points"] = 128
        cfg.sections["tomography"]["events_per_projection"] = 10_000
        config = tmp_path / "run.cfg"
        config.write_text(cfg.resolved_text())
        out = tmp_path / "tomo"
        assert cli.main(["tomo-sim", "--config", str(config), "--out", str(out)]) == 0
        last = out / "tomo" / "proj_4_4.csv"
        counts = load_counts(last)
        half = dataclasses.replace(
            counts.spec, dispersion_ps_per_nm_km=counts.spec.dispersion_ps_per_nm_km / 2
        )
        save_counts(dataclasses.replace(counts, spec=half), last)
        refused = []
        for key, each in load_tomography_bundle(out / "tomo"):
            try:
                bin_gates(each.spec, each.center_frequency_hz, PAIRS, SPACING, WIDTH)
            except GateError:
                refused.append(key)
        assert refused == [(4, 4)]
        assert cli.main(["tomo-fit", "--config", str(config), "--out", str(out)]) == 2
        message = capsys.readouterr().err
        for named in (str(config), "[tomography] gate_width_s", "[crystal] bin_spacing_hz",
                      "7.949e-10 s"):
            assert named in message
        assert not (out / "report.txt").exists()


@pytest.fixture(scope="module")
def sim(pure_hyper, small_jsa, spectro):
    return dict(simulate(pure_hyper, small_jsa, spectro, 2000, seed=5))


class TestSimulateTomography:
    def test_all_sixteen_settings(self, sim):
        assert set(sim) == {(j, k) for j in range(1, 5) for k in range(1, 5)}
        for counts in sim.values():
            assert counts.metadata["born_flux"] >= 0.0

    def test_born_flux_resolves_frame(self, sim):
        total_flux = sum(c.metadata["born_flux"] for c in sim.values())
        assert total_flux == pytest.approx(4.0, rel=1e-9)

    def test_grand_total_tracks_events(self, sim):
        grand = sum(c.total for c in sim.values())
        mean = 16 * 2000
        assert abs(grand - mean) < 5 * np.sqrt(mean)

    def test_matched_projections_are_dark_for_common_phase(self, small_jsa, spectro):
        hyper = HyperState(phases=np.zeros(8))
        sim = dict(simulate(hyper, small_jsa, spectro, 500, seed=1))
        for j in range(1, 5):
            assert sim[(j, j)].total == 0

    def test_reproducible(self, pure_hyper, small_jsa, spectro):
        a = dict(simulate(pure_hyper, small_jsa, spectro, 300, seed=9))
        b = dict(simulate(pure_hyper, small_jsa, spectro, 300, seed=9))
        c = dict(simulate(pure_hyper, small_jsa, spectro, 300, seed=10))
        np.testing.assert_array_equal(a[(1, 2)].values, b[(1, 2)].values)
        assert any(np.any(a[key].values != c[key].values) for key in a)

    def test_validation(self, pure_hyper, small_jsa, spectro):
        odd = HyperState(phases=np.zeros(3))
        with pytest.raises(ValueError, match="one state per bin"):
            simulate(odd, small_jsa, spectro, 100, seed=0)
        with pytest.raises(ValueError, match="events"):
            simulate(pure_hyper, small_jsa, spectro, -1, seed=0)
        with pytest.raises(ValueError, match="does not match grid"):
            simulate_tomography(
                pure_hyper, small_jsa.intensity[1:], small_jsa.grid, spectro, NU0, SPACING,
                events=100, seed=0, max_alias_fraction=ALIAS,
            )

    def test_peak_memory_below_image_stack(self, small_jsa, random_phases, spectro, tmp_path):
        # the tomo-sim flow keeps no per-bin image: it projects each
        # setting's mixed spectrum just before the draw, into one reused
        # image, with only the transfer's band held, so it peaks at 0.31 of
        # the stack of eight 500 x 500 bin images (0.35 leaves 13% for
        # allocator and version drift).  With a dense transfer and a fresh
        # image per setting it read 0.43; mixing after projection held the
        # stack and peaked at 1.41
        stack_bytes = 2 * PAIRS * spectro.n_bins**2 * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            hyper = HyperState(phases=random_phases)
            save_tomography_bundle(tmp_path, simulate(hyper, small_jsa, spectro, 2000, seed=5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * stack_bytes

    def test_counts_are_draws_from_mixed_oracle_images(
        self, sim, pure_hyper, small_weights, small_images, spectro
    ):
        # each setting projects its mixed spectrum at once; drawing with the
        # same streams from the oracle's per-bin images, mixed after
        # projection, gives the same counts
        images, _ = small_images
        kept = images.sum(axis=(1, 2))
        master = np.random.default_rng([5, 0x7013])
        for (j, k), born in zip(sim, _born_table(pure_hyper)):
            flux = np.clip(small_weights * born, 0.0, None)
            total = master.poisson(4.0 * 2000 * flux.sum())
            mix = flux / flux.sum()
            probs = np.tensordot(mix, images, axes=(0, 0)).ravel()
            want = np.random.default_rng([5, j, k]).multinomial(total, probs / probs.sum())
            np.testing.assert_array_equal(sim[(j, k)].values.ravel(), want)
            alias = sim[(j, k)].metadata["alias_fraction"]
            assert alias == pytest.approx(1.0 - mix @ kept, rel=0, abs=1e-12)
            assert sim[(j, k)].metadata["bin_spacing_hz"] == SPACING
            assert sim[(j, k)].metadata["pair_count"] == PAIRS


class TestSharedProjection:
    def test_mixed_images_match_reference_projection(
        self, pure_hyper, small_split, small_images, small_grid, spectro
    ):
        # projecting each bin once and mixing the images must equal
        # projecting each setting's mixed spectrum: the map is linear
        _, parts, weights = small_split
        images, _ = small_images
        kept = images.sum(axis=(1, 2))
        mixes = [weights] + [
            np.clip(weights * born, 0.0, None) for born in _born_table(pure_hyper)
        ]
        for flux in mixes:
            mix = flux / flux.sum()
            mixed = np.tensordot(mix, parts, axes=(0, 0))
            ref, ref_alias = measurement.spectrum_projector(mixed, small_grid, spectro, NU0)()
            shared = np.tensordot(mix, images, axes=(0, 0))
            assert np.abs(shared / shared.sum() - ref).max() <= 1e-12 * ref.max()
            assert abs((1.0 - mix @ kept) - ref_alias) <= 1e-12

    def test_weighted_projection_matches_formed_product(self, small_jsa, spectro):
        # the weights are multiplied in block by block, never as a whole
        # array; only the mass is summed in another order
        grid = small_jsa.grid
        diagonals = np.random.default_rng(3).uniform(0.0, 2.0, 2 * grid.nu.size - 1)
        weights = grid.toeplitz(diagonals)
        assert not weights.flags.writeable
        project = measurement.spectrum_projector(small_jsa.intensity, grid, spectro, NU0)
        got, got_alias = project(weights)
        want, want_alias = measurement.spectrum_projector(
            small_jsa.intensity * weights, grid, spectro, NU0
        )()
        assert np.abs(got - want).max() <= 1e-15 * want.max()
        assert got_alias == pytest.approx(want_alias, rel=0, abs=1e-15)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            project(-weights)
        with pytest.raises(ValueError, match="weights shape"):
            project(weights[1:])
        with pytest.raises(ValueError, match="intensity must be nonnegative"):
            measurement.spectrum_projector(-small_jsa.intensity, grid, spectro, NU0)
        with pytest.raises(ValueError, match="intensity shape"):
            measurement.spectrum_projector(small_jsa.intensity[1:], grid, spectro, NU0)

    def test_banded_projection_matches_dense_product(self, small_split, small_grid, spectro):
        # the blocks against the dense T (I w) T^T / mass, with and without
        # weights: on the comb's bin spectra, and on random spectra of a grid
        # and window that put the block form at its edges.  There the band
        # reaches frequency columns 0 and n - 1, 473 time rows end in a
        # short block that the band reaches, and no column reaches the
        # first three blocks.
        edge_grid = FrequencyGrid(nu=2.0 * np.pi * np.linspace(-1.7e12, 0.5e12, 256))
        edge_spec = dataclasses.replace(spectro, window=473 * spectro.time_bin)
        edge_transfer = measurement.build_transfer(edge_spec, edge_grid.nu, NU0)
        blocks = measurement._transfer_blocks(edge_transfer)
        assert edge_spec.n_bins % measurement._BLOCK_ROWS != 0
        assert min(cols.start for _, cols, _ in blocks) == 0
        assert max(cols.stop for _, cols, _ in blocks) == edge_grid.nu.size
        assert [rows.start for rows, _, _ in blocks] == list(range(150, 500, 50))
        assert blocks[-1][2].shape[0] == 23
        assert not edge_transfer[:150].any()
        cases = [
            (small_grid, spectro, small_split[1]),
            (edge_grid, edge_spec, np.random.default_rng(7).uniform(0.0, 1.0, (2, 256, 256))),
        ]
        for grid, spec, spectra in cases:
            transfer = measurement.build_transfer(spec, grid.nu, NU0)
            diagonals = np.random.default_rng(3).uniform(0.0, 2.0, 2 * grid.nu.size - 1)
            for inten in spectra:
                project = measurement.spectrum_projector(inten, grid, spec, NU0)
                for weights in (None, grid.toeplitz(diagonals)):
                    product = inten if weights is None else inten * weights
                    dense = transfer @ product @ transfer.T / product.sum()
                    probs, alias = project(weights)
                    image = probs * (1.0 - alias)
                    assert np.abs(image - dense).max() <= 1e-12 * dense.max()
                    assert 1.0 - alias == pytest.approx(dense.sum(), rel=0, abs=1e-12)

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
        for i, label in enumerate(LABELS):
            state = reconstruct_state(pure_table[int(label)])
            fid, phi = fidelity_singlet(state)
            assert purity(state) >= 0.999999
            assert fid >= 0.999999
            assert abs(wrap_angle(phi - random_phases[i])) < 1e-6

    def test_simulated_analysis_recovers_state(
        self, pure_hyper, random_phases, small_jsa, spectro
    ):
        run = simulate(pure_hyper, small_jsa, spectro, 100_000, seed=5)
        results = analyze_tomography(run, PAIRS, SPACING, WIDTH, n_resamples=200, seed=6)
        assert [r.label for r in results] == list(LABELS)
        for i, res in enumerate(results):
            assert res.events > 0
            # the PSD clip biases purity low on a rank-2 truth state, so
            # the thresholds sit a few bootstrap sigmas below 1
            assert res.purity >= 0.98
            assert res.fidelity >= 0.99
            assert abs(wrap_angle(res.phase - random_phases[i])) < 0.05
            assert 0.0 < res.purity_std < 0.02
            assert 0.0 < res.fidelity_std < 0.02

    def test_zero_counts_raise(self, pure_hyper, small_jsa, spectro):
        sim = simulate(pure_hyper, small_jsa, spectro, 0, seed=0)
        with pytest.raises(ValueError, match="no gated counts"):
            analyze_tomography(sim, PAIRS, SPACING, WIDTH, n_resamples=0, seed=0)

    def test_report_lists_every_bin(
        self, pure_hyper, small_jsa, spectro
    ):
        sim = simulate(pure_hyper, small_jsa, spectro, 5000, seed=2)
        results = analyze_tomography(sim, PAIRS, SPACING, WIDTH, n_resamples=0, seed=0)
        text = tomography_report(results)
        lines = text.splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("bin")
        for label in LABELS:
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
        images, weights = small_images
        hyper = HyperState(phases=random_phases, drift=np.full(8, 1.0))
        p16 = expected_tomography(hyper, images, weights, spectro, NU0, SPACING, WIDTH)[2]
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
        self, pure_hyper, small_jsa, spectro, tmp_path
    ):
        sim = dict(simulate(pure_hyper, small_jsa, spectro, 50, seed=3))
        target = tmp_path / "bundle"
        save_tomography_bundle(target, sim.items())
        names = sorted(os.listdir(target))
        assert sum(name.startswith("proj_") for name in names) == 16
        loaded = dict(load_tomography_bundle(target))
        assert set(loaded) == set(sim)
        for key in sim:
            np.testing.assert_array_equal(loaded[key].values, sim[key].values)
            assert loaded[key].spec.time_bin == pytest.approx(sim[key].spec.time_bin)
            assert loaded[key].center_frequency_hz == NU0

    def test_incomplete_bundle_rejected(
        self, pure_hyper, small_jsa, spectro, tmp_path
    ):
        sim = simulate(pure_hyper, small_jsa, spectro, 50, seed=3)
        target = tmp_path / "bundle"
        save_tomography_bundle(target, sim)
        os.remove(target / "proj_2_3.csv")
        with pytest.raises(ValueError, match="expected 16"):
            load_tomography_bundle(target)

    def test_streamed_analysis_matches_in_memory(
        self, pure_hyper, small_jsa, spectro, tmp_path
    ):
        # the analysis of the files read back, and of the pairs in any
        # order, equals that of the pairs in memory bit for bit, and each
        # bin's totals are the ones gated one bin at a time over all 16
        sim = list(simulate(pure_hyper, small_jsa, spectro, 5000, seed=4))
        save_tomography_bundle(tmp_path, iter(sim))
        reference, *streamed = [
            analyze_tomography(pairs, PAIRS, SPACING, WIDTH, n_resamples=50, seed=3)
            for pairs in (sim, load_tomography_bundle(tmp_path), reversed(sim))
        ]
        for results in streamed:
            assert tomography_report(results) == tomography_report(reference)
            for res, ref in zip(results, reference, strict=True):
                np.testing.assert_array_equal(res.probabilities, ref.probabilities)
                assert (res.purity, res.fidelity, res.phase, res.events) == (
                    ref.purity, ref.fidelity, ref.phase, ref.events
                )
                assert (res.purity_std, res.fidelity_std) == (ref.purity_std, ref.fidelity_std)
        for i, ref in enumerate(reference):
            gated = np.array([
                counts.values[bin_gates(
                    counts.spec, counts.center_frequency_hz, PAIRS, SPACING, WIDTH
                )[i]].sum()
                for _, counts in sim
            ], dtype=float)
            np.testing.assert_array_equal(ref.probabilities, 4.0 * gated / gated.sum())

    def test_analysis_takes_each_setting_once(self, sim):
        pairs = list(sim.items())
        with pytest.raises(ValueError, match="missing"):
            analyze_tomography(pairs[1:], PAIRS, SPACING, WIDTH, n_resamples=0, seed=0)
        with pytest.raises(ValueError, match="twice"):
            analyze_tomography(pairs + pairs[:1], PAIRS, SPACING, WIDTH, n_resamples=0, seed=0)

    def test_analysis_refuses_another_bin_layout(self, sim, tmp_path):
        # each simulated matrix, and each file of its bundle, records the
        # layout it was drawn with; files without it (real data) still read
        save_tomography_bundle(tmp_path, sim.items())
        with open(tmp_path / "proj_1_1.csv", encoding="ascii") as fh:
            assert fh.readline().rstrip().endswith(" bin_spacing_hz=500000000000 pair_count=4")
        loaded = dict(load_tomography_bundle(tmp_path))
        for key, counts in loaded.items():
            assert counts.metadata["bin_spacing_hz"] == SPACING
            assert counts.metadata["pair_count"] == PAIRS
        for pairs, source in ((sim.items(), "projection (1, 1)"),
                              (loaded.items(), str(tmp_path / "proj_1_1.csv"))):
            with pytest.raises(ValueError, match="bin_spacing_hz") as err:
                analyze_tomography(pairs, PAIRS, 540e9, WIDTH, n_resamples=0, seed=0)
            for named in (source, "500000000000", "540000000000"):
                assert named in str(err.value)
            with pytest.raises(ValueError, match="pair_count = 3"):
                analyze_tomography(pairs, 3, SPACING, WIDTH, n_resamples=0, seed=0)
        bare = dataclasses.replace(sim[(1, 1)], metadata={})
        save_counts(bare, tmp_path / "bare.csv")
        assert load_counts(tmp_path / "bare.csv").metadata == {"path": str(tmp_path / "bare.csv")}

    def test_tomo_fit_refuses_a_bundle_of_another_spacing(self, tmp_path, capsys):
        # gated at 540 GHz, a 500 GHz bundle's outer bins lose a third of
        # their events and their phases move; the files record the layout
        cfg = default_config()
        cfg.sections["crystal"]["length_m"] = 0.005
        cfg.sections["grid"]["points"] = 128
        cfg.sections["tomography"]["events_per_projection"] = 10_000
        simulated, fitted = tmp_path / "sim.cfg", tmp_path / "fit.cfg"
        simulated.write_text(cfg.resolved_text())
        cfg.sections["crystal"]["bin_spacing_hz"] = 540e9
        fitted.write_text(cfg.resolved_text())
        out = tmp_path / "out"
        assert cli.main(["tomo-sim", "--config", str(simulated), "--out", str(out)]) == 0
        assert cli.main(["tomo-fit", "--config", str(fitted), "--out", str(out)]) == 2
        message = capsys.readouterr().err
        for named in (str(out / "tomo" / "proj_1_1.csv"), "bin_spacing_hz = 500000000000",
                      "bin_spacing_hz = 540000000000"):
            assert named in message
        assert not (out / "report.txt").exists()
        assert cli.main(["tomo-fit", "--config", str(simulated), "--out", str(out)]) == 0

    def test_peak_memory_below_held_projections(
        self, pure_hyper, small_jsa, spectro, tmp_path
    ):
        # each direction of the stream holds one count matrix at a time.
        # In units of one matrix's bytes the draws peak at 2.45 (the one
        # reused image, normalized in place, and its counts, next to the
        # intensity and the transfer's band; the bound of 2.75 leaves 12%)
        # and the gated read at 1.25.  A dense transfer, its idler-side
        # product and a fresh image per setting read 3.4; holding all 16
        # projections read 18.0 and 16.2
        matrix_bytes = spectro.n_bins**2 * np.dtype(np.int64).itemsize
        stages = (
            lambda: save_tomography_bundle(
                tmp_path, simulate(pure_hyper, small_jsa, spectro, 2000, seed=5)
            ),
            lambda: analyze_tomography(
                load_tomography_bundle(tmp_path), PAIRS, SPACING, WIDTH, n_resamples=0, seed=0
            ),
        )
        peaks = []
        for stage in stages:
            tracemalloc.start()
            try:
                stage()
                peaks.append(tracemalloc.get_traced_memory()[1] / matrix_bytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2.75
        assert peaks[1] < 2.0


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
