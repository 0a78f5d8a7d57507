import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge.analysis import schmidt_number
from qpmforge.biphoton import FrequencyGrid
from qpmforge.measurement import (
    DEFAULT_GATE_WIDTH,
    CountMatrix,
    MeasurementError,
    SpectrometerSpec,
    amplitude_from_counts,
    amplitude_from_jsi,
    build_transfer,
    detuning_to_time,
    gate_interval,
    gate_sum,
    load_counts,
    project_to_spectrometer,
    reconstruct_jsi,
    save_counts,
    simulate_counts,
    time_to_wavelength,
    wavelength_to_time,
)


def jittered(spec, fwhm):
    return SpectrometerSpec(
        dispersion_ps_per_nm_km=spec.dispersion_ps_per_nm_km,
        fiber_length_km=spec.fiber_length_km,
        jitter_fwhm=fwhm,
        time_bin=spec.time_bin,
        window=spec.window,
        reference_wavelength=spec.reference_wavelength,
    )


class TestSpectrometerSpec:
    def test_reference_geometry(self, spectro):
        # 20 ps/nm/km over 20 km: 0.4 ns of delay per nm of wavelength
        assert spectro.time_rate == pytest.approx(0.4)
        assert spectro.n_bins == 500
        assert spectro.time_edges.size == 501
        assert spectro.time_centers[0] == pytest.approx(-6.2375e-9)

    def test_window_must_hold_whole_bins(self):
        with pytest.raises(ValueError, match="integer number"):
            SpectrometerSpec(
                dispersion_ps_per_nm_km=20,
                fiber_length_km=20,
                jitter_fwhm=0.0,
                time_bin=3e-12,
                window=10e-12,
            )

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            SpectrometerSpec(
                dispersion_ps_per_nm_km=20,
                fiber_length_km=20,
                jitter_fwhm=-1e-12,
                time_bin=25e-12,
                window=12.5e-9,
            )


class TestCalibration:
    def test_wavelength_shift_maps_to_delay(self, spectro):
        lam0 = spectro.reference_wavelength
        t0 = wavelength_to_time(spectro, lam0)
        assert t0 == pytest.approx(0.0, abs=1e-24)
        # the two anchor conversions of the readout chain
        assert wavelength_to_time(spectro, lam0 + 3.8e-9) - t0 == pytest.approx(
            1.52e-9, rel=1e-15
        )
        assert time_to_wavelength(spectro, 25e-12) - lam0 == pytest.approx(
            0.0625e-9, rel=1e-15
        )

    def test_window_spans_expected_band(self, spectro):
        lo = time_to_wavelength(spectro, -spectro.window / 2)
        hi = time_to_wavelength(spectro, spectro.window / 2)
        assert (hi - lo) == pytest.approx(31.25e-9, rel=1e-12)

    def test_detuning_zero_arrives_at_zero(self, spectro):
        assert detuning_to_time(spectro, 0.0) == pytest.approx(0.0, abs=1e-22)

    def test_detuning_sign_convention(self, spectro):
        # positive detuning = shorter wavelength = earlier arrival for
        # positive dispersion
        assert detuning_to_time(spectro, 2 * np.pi * 500e9) < 0

    def test_gate_width_matches_bin_pitch(self, spectro):
        # 3.8 nm of bin pitch maps to the default 1.52 ns gate
        assert DEFAULT_GATE_WIDTH == pytest.approx(3.8e-9 * spectro.time_rate)


class TestTransfer:
    CENTER_HZ = 192.6e12

    def test_interior_columns_conserve_mass(self, spectro):
        # frequency cells arriving well inside the window must put all
        # their mass into the time bins
        nu = FrequencyGrid.symmetric(64, 1.2e12).nu_signal
        transfer = build_transfer(spectro, nu, self.CENTER_HZ)
        assert transfer.shape == (spectro.n_bins, nu.size)
        np.testing.assert_allclose(transfer.sum(axis=0), 1.0, rtol=1e-9)

    def test_jitter_spreads_but_conserves(self, spectro):
        nu = FrequencyGrid.symmetric(32, 1.0e12).nu_signal
        sharp = build_transfer(jittered(spectro, 0.0), nu, self.CENTER_HZ)
        blurred = build_transfer(jittered(spectro, 200e-12), nu, self.CENTER_HZ)
        np.testing.assert_allclose(
            sharp.sum(axis=0), blurred.sum(axis=0), rtol=1e-9
        )
        # jitter strictly reduces the peak of each column
        assert np.all(blurred.max(axis=0) < sharp.max(axis=0) + 1e-15)


class TestProjection:
    def test_probabilities_account_for_alias(self, comb_jsa, spectro):
        probs, alias = project_to_spectrometer(comb_jsa, spectro)
        assert probs.shape == (500, 500)
        assert np.all(probs >= 0.0)
        # conditioned on landing inside the window, so exactly normalized
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        # the reference state leaks a little over 1% out of the window
        assert 0.005 < alias < 0.02

    def test_jitter_washes_out_structure(self, comb_jsa, spectro):
        ks = []
        for fwhm in (0.0, 50e-12, 200e-12):
            probs, _ = project_to_spectrometer(comb_jsa, jittered(spectro, fwhm))
            ks.append(schmidt_number(np.sqrt(probs)))
        assert ks[0] > ks[1] > ks[2]
        assert ks[0] == pytest.approx(8.124, abs=0.02)

    def test_matrix_and_grid_equivalent_to_jsa(self, comb_jsa, spectro):
        direct, alias_a = project_to_spectrometer(comb_jsa, spectro)
        from_matrix, alias_b = project_to_spectrometer(
            comb_jsa.intensity, spectro, grid=comb_jsa.grid
        )
        np.testing.assert_allclose(direct, from_matrix, rtol=1e-12)
        assert alias_a == pytest.approx(alias_b)

    def test_bare_matrix_requires_grid(self, spectro):
        with pytest.raises(ValueError, match="explicit frequency grid"):
            project_to_spectrometer(np.ones((8, 8)), spectro)


class TestSimulateCounts:
    def test_total_is_exact_and_reproducible(self, comb_jsa, spectro):
        counts = simulate_counts(comb_jsa, spectro, 100_000, seed=3)
        again = simulate_counts(comb_jsa, spectro, 100_000, seed=3)
        assert counts.total == 100_000
        np.testing.assert_array_equal(counts.values, again.values)
        other = simulate_counts(comb_jsa, spectro, 100_000, seed=4)
        assert np.any(other.values != counts.values)

    def test_counts_match_expectation(self, comb_jsa, spectro):
        n = 500_000
        probs, _ = project_to_spectrometer(comb_jsa, spectro)
        probs = probs / probs.sum()
        counts = simulate_counts(comb_jsa, spectro, n, seed=12)
        expected = n * probs
        hot = expected > 25.0
        z = (counts.values[hot] - expected[hot]) / np.sqrt(expected[hot])
        assert np.abs(z).max() < 6.0
        assert np.mean(np.abs(z) > 3.0) < 0.01

    def test_zero_events(self, comb_jsa, spectro):
        counts = simulate_counts(comb_jsa, spectro, 0, seed=0)
        assert counts.total == 0

    def test_efficiency_thins_total(self, comb_jsa, spectro):
        counts = simulate_counts(comb_jsa, spectro, 200_000, seed=9, efficiency=0.25)
        assert counts.total < 60_000
        assert counts.total > 40_000
        with pytest.raises(ValueError):
            simulate_counts(comb_jsa, spectro, 100, seed=0, efficiency=1.5)

    def test_alias_overflow_raises(self, comb_jsa, spectro):
        with pytest.raises(MeasurementError, match="outside the"):
            simulate_counts(comb_jsa, spectro, 1000, seed=0, max_alias_fraction=1e-6)


@pytest.fixture(scope="module")
def counts(comb_jsa, spectro):
    return simulate_counts(comb_jsa, spectro, 2_000_000, seed=21)


class TestReconstruction:
    def test_marginals_peak_normalized(self, counts):
        rec = reconstruct_jsi(counts)
        assert rec.jsi.sum() == pytest.approx(1.0)
        assert rec.signal_marginal.max() == pytest.approx(1.0)
        assert rec.idler_marginal.max() == pytest.approx(1.0)

    def test_amplitude_recovers_mode_count(self, counts, comb_jsa):
        k_true = schmidt_number(comb_jsa)
        k_rec = schmidt_number(amplitude_from_counts(counts))
        # noise inflation at 2e6 events stays well under one mode
        assert abs(k_rec - k_true) < 0.5

    def test_amplitude_axes_are_detunings(self, counts):
        amp = amplitude_from_counts(counts)
        assert amp.metadata["pseudo_detuning_axes"]
        assert amp.metadata["flat_phase"]
        np.testing.assert_allclose(
            amp.grid.nu_signal, -amp.grid.nu_signal[::-1], atol=1e-6
        )

    def test_amplitude_from_jsi_rejects_negative(self):
        grid = FrequencyGrid.symmetric(4, 1e12)
        jsi = -np.ones((4, 4))
        with pytest.raises(ValueError):
            amplitude_from_jsi(jsi, grid)

    def test_empty_counts_rejected(self, spectro):
        empty = CountMatrix(
            values=np.zeros((4, 4), dtype=np.int64),
            time_bin=spectro.time_bin,
            window_start=-spectro.window / 2,
            dispersion_ns_per_nm=spectro.time_rate,
            reference_wavelength=spectro.reference_wavelength,
        )
        with pytest.raises(ValueError):
            reconstruct_jsi(empty)
        with pytest.raises(ValueError):
            amplitude_from_counts(empty)


class TestGating:
    def test_gate_is_centered_and_clipped(self, spectro):
        lo, hi = gate_interval(spectro, 0.0, width=1e-9)
        assert lo == pytest.approx(-0.5e-9)
        assert hi == pytest.approx(0.5e-9)
        # a gate near the edge is truncated, never extended past it
        detuning = -2 * np.pi * 1750e9  # arrives near +5.65 ns
        lo, hi = gate_interval(spectro, detuning)
        assert hi == pytest.approx(spectro.window / 2)
        assert lo > 0

    def test_gate_fully_outside_raises(self, spectro):
        with pytest.raises(MeasurementError, match="outside the acquisition"):
            gate_interval(spectro, -2 * np.pi * 6000e9, width=0.1e-9)

    def test_gate_sum_uses_cell_centers(self, spectro):
        values = np.zeros((500, 500), dtype=np.int64)
        values[250, 250] = 7  # cell centered at +12.5 ps on both axes
        counts = CountMatrix(
            values=values,
            time_bin=spectro.time_bin,
            window_start=-spectro.window / 2,
            dispersion_ns_per_nm=spectro.time_rate,
            reference_wavelength=spectro.reference_wavelength,
        )
        inside = (0.0, 25e-12)
        outside = (25e-12, 50e-12)
        assert gate_sum(counts, inside, inside) == 7
        assert gate_sum(counts, outside, inside) == 0


class TestCountsIO:
    def test_roundtrip(self, tmp_path, comb_jsa, spectro):
        # a non-default reference wavelength must survive the file
        spec = dataclasses.replace(spectro, reference_wavelength=1555.9e-9)
        counts = simulate_counts(comb_jsa, spec, 50_000, seed=8)
        path = tmp_path / "counts.csv"
        save_counts(counts, path)
        back = load_counts(path)
        np.testing.assert_array_equal(back.values, counts.values)
        assert back.time_bin == pytest.approx(counts.time_bin, rel=1e-12)
        assert back.window_start == pytest.approx(counts.window_start, rel=1e-12)
        assert back.dispersion_ns_per_nm == pytest.approx(
            counts.dispersion_ns_per_nm, rel=1e-12
        )
        assert back.reference_wavelength == 1555.9e-9

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="header"):
            load_counts(path)
        # a header without the reference wavelength has no fallback
        path.write_text("# nt=2 dt_ps=25 t0_ns=-0.025 disp_ns_per_nm=0.4\n1,2\n3,4\n")
        with pytest.raises(ValueError, match="ref_wavelength_m"):
            load_counts(path)

    def test_noninteger_counts_rejected(self, spectro):
        with pytest.raises(ValueError, match="integer"):
            CountMatrix(
                values=np.full((4, 4), 0.5),
                time_bin=spectro.time_bin,
                window_start=-spectro.window / 2,
                dispersion_ns_per_nm=spectro.time_rate,
                reference_wavelength=spectro.reference_wavelength,
            )


@settings(deadline=None, max_examples=50)
@given(offset_nm=st.floats(min_value=-15.0, max_value=15.0))
def test_wavelength_time_maps_are_inverse(offset_nm):
    spec = SpectrometerSpec(
        dispersion_ps_per_nm_km=20,
        fiber_length_km=20,
        jitter_fwhm=50e-12,
        time_bin=25e-12,
        window=12.5e-9,
    )
    lam = spec.reference_wavelength + offset_nm * 1e-9
    back = time_to_wavelength(spec, wavelength_to_time(spec, lam))
    assert back == pytest.approx(lam, rel=1e-14)


@settings(deadline=None, max_examples=25)
@given(
    sigma_ps=st.floats(min_value=0.0, max_value=300.0),
    half_span_hz=st.floats(min_value=0.2e12, max_value=2.5e12),
)
def test_blur_never_creates_mass(sigma_ps, half_span_hz):
    spec = SpectrometerSpec(
        dispersion_ps_per_nm_km=20,
        fiber_length_km=20,
        jitter_fwhm=sigma_ps * 1e-12 * 2.3548,
        time_bin=25e-12,
        window=12.5e-9,
    )
    nu = FrequencyGrid.symmetric(24, half_span_hz).nu_signal
    transfer = build_transfer(spec, nu, 192.6e12)
    sums = transfer.sum(axis=0)
    # differences of Gaussian integrals leave ~1e-14 negative residue,
    # clipped downstream in project_to_spectrometer
    assert np.all(transfer >= -1e-12)
    assert np.all(sums <= 1.0 + 1e-9)
