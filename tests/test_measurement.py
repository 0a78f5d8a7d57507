import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpmforge import cli
from qpmforge.analysis import schmidt_number
from qpmforge.biphoton import (
    C_LIGHT,
    FrequencyGrid,
    JointSpectralAmplitude,
    JointSpectralIntensity,
)
from qpmforge.config import default_config
from qpmforge.measurement import (
    _BLOCK_ROWS,
    CountMatrix,
    MeasurementError,
    SpectrometerSpec,
    _check_alias,
    build_transfer,
    detuning_to_time,
    load_counts,
    marginals,
    save_counts,
    simulate_counts,
    spectrum_projector,
)

from oracles import (
    cell_times,
    dense,
    dense_transfer,
    diagonal_sums,
    edge_fraction,
    project_stack,
    transfer_matrix,
)

# the band center whose zero detuning arrives at t = 0 on the default spectrometer
NU0 = C_LIGHT / 1555.7e-9
ALIAS = default_config()["spectrometer"]["max_alias_fraction"]


def project(jsi, spec):
    """The unweighted projection of a factored intensity."""
    return spectrum_projector(jsi, spec)()


def simulate(jsi, spec, events, seed, max_alias_fraction=ALIAS):
    """simulate_counts of a factored intensity."""
    return simulate_counts(jsi, spec, events, seed=seed, max_alias_fraction=max_alias_fraction)


def windowed(spec, n_bins):
    """The spectrometer narrowed to a window of n_bins time bins."""
    return dataclasses.replace(spec, window=n_bins * spec.time_bin)


def jittered(spec, fwhm):
    return SpectrometerSpec(
        dispersion_ps_per_nm_km=spec.dispersion_ps_per_nm_km,
        fiber_length_km=spec.fiber_length_km,
        jitter_fwhm=fwhm,
        time_bin=spec.time_bin,
        window=spec.window,
        reference_wavelength=spec.reference_wavelength,
    )


def assembled_transfer(spec, nu, center_hz):
    """build_transfer's blocks assembled into the dense transfer."""
    return transfer_matrix(build_transfer(spec, nu, center_hz), spec.n_bins, nu.size)


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
        # the two anchor conversions of the readout chain, on the
        # calibration itself: detuning_to_time's detuning -> wavelength
        # round trip adds about 1e-13 relative
        assert spectro.time_rate * 3.8e-9 == pytest.approx(1.52e-9, rel=1e-15)
        assert spectro.time_rate * 0.0625e-9 == pytest.approx(25e-12, rel=1e-15)

    def test_window_spans_expected_band(self, spectro):
        lam0 = spectro.reference_wavelength
        # the detunings of photons 15.625 nm to either side of lam0
        detunings = 2.0 * np.pi * (C_LIGHT / (lam0 + np.array([-15.625e-9, 15.625e-9])) - NU0)
        lo, hi = detuning_to_time(spectro, detunings, NU0)
        assert lo == pytest.approx(-spectro.window / 2, rel=1e-12)
        assert hi == pytest.approx(spectro.window / 2, rel=1e-12)

    def test_detuning_zero_arrives_at_zero(self, spectro):
        assert detuning_to_time(spectro, 0.0, NU0) == pytest.approx(0.0, abs=1e-22)

    def test_detuning_sign_convention(self, spectro):
        # positive detuning = shorter wavelength = earlier arrival for
        # positive dispersion
        assert detuning_to_time(spectro, 2 * np.pi * 500e9, NU0) < 0

    def test_gate_width_matches_bin_pitch(self, cfg, spectro):
        # 3.8 nm of bin pitch maps to the default 1.52 ns gate
        gate = cfg["tomography"]["gate_width_s"]
        assert gate == pytest.approx(3.8e-9 * spectro.time_rate)


class TestTransfer:
    CENTER_HZ = 192.6e12

    def test_interior_columns_conserve_mass(self, spectro):
        # frequency cells arriving well inside the window must put all
        # their mass into the time bins
        nu = FrequencyGrid.symmetric(64, 1.2e12).nu
        transfer = assembled_transfer(spectro, nu, self.CENTER_HZ)
        assert transfer.shape == (spectro.n_bins, nu.size)
        np.testing.assert_allclose(transfer.sum(axis=0), 1.0, rtol=1e-9)

    def test_jitter_spreads_but_conserves(self, spectro):
        nu = FrequencyGrid.symmetric(32, 1.0e12).nu
        sharp = assembled_transfer(jittered(spectro, 0.0), nu, self.CENTER_HZ)
        blurred = assembled_transfer(jittered(spectro, 200e-12), nu, self.CENTER_HZ)
        np.testing.assert_allclose(
            sharp.sum(axis=0), blurred.sum(axis=0), rtol=1e-9
        )
        # jitter strictly reduces the peak of each column
        assert np.all(blurred.max(axis=0) < sharp.max(axis=0) + 1e-15)

    @pytest.mark.parametrize("fwhm", [50e-12, 200e-12])
    def test_band_matches_dense_oracle(self, spectro, grid, fwhm):
        spec = jittered(spectro, fwhm)
        nu = grid.nu
        banded = assembled_transfer(spec, nu, self.CENTER_HZ)
        dense = dense_transfer(spec, nu, self.CENTER_HZ)
        band = banded != 0
        assert np.abs(banded - dense)[band].max() <= 1e-12 * dense.max()
        # outside the band the dense sum holds only its own cancellation
        # residue (2.1e-13 here), not mass: the true values there are < 1e-19
        assert np.abs(dense[~band]).max() <= 1e-12
        assert np.abs(banded.sum(axis=0) - dense.sum(axis=0)).max() <= 1e-12

    def test_columns_vanish_beyond_the_cut(self, spectro, grid):
        nu = grid.nu
        transfer = assembled_transfer(spectro, nu, self.CENTER_HZ)
        a, b = cell_times(spectro, nu, self.CENTER_HZ)
        reach = 9.0 * spectro.jitter_sigma
        rows, cols = np.nonzero(transfer)
        edges = spectro.time_edges
        assert np.all(edges[rows + 1] > a[cols] - reach)
        assert np.all(edges[rows] < b[cols] + reach)
        # at 50 ps jitter a cell reaches at most 17 of the 500 time bins
        assert np.count_nonzero(transfer, axis=0).max() <= 17

    def test_zero_jitter_band_is_interval_overlap(self, spectro, grid):
        spec = jittered(spectro, 0.0)
        nu = grid.nu
        a, b = cell_times(spec, nu, self.CENTER_HZ)
        u, v = spec.time_edges[:-1, None], spec.time_edges[1:, None]
        overlap = np.clip(np.minimum(v, b) - np.maximum(u, a), 0.0, None) / (b - a)
        transfer = assembled_transfer(spec, nu, self.CENTER_HZ)
        np.testing.assert_array_equal(transfer != 0, overlap > 0)
        np.testing.assert_allclose(transfer, overlap, rtol=0, atol=1e-12)

    def test_build_holds_no_dense_transfer(self, cfg, spectro):
        # the blocks are cut from the blur band as it is computed, so the
        # build on the 1024^2 defaults peaks at about 0.2 of one (n, n)
        # float grid; forming the dense 500 x 1024 transfer and then
        # cutting it read 0.60
        nu = cfg.frequency_grid().nu
        grid_bytes = nu.size ** 2 * np.dtype(float).itemsize
        build_transfer(spectro, nu, NU0)
        tracemalloc.start()
        try:
            build_transfer(spectro, nu, NU0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * grid_bytes


class TestProjection:
    def test_probabilities_account_for_alias(self, comb_jsi, spectro):
        probs, alias = project(comb_jsi, spectro)
        assert probs.shape == (500, 500)
        assert np.all(probs >= 0.0)
        # conditioned on landing inside the window, so exactly normalized
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        # the reference state leaks a little over 1% out of the window
        assert 0.005 < alias < 0.02

    def test_jitter_washes_out_structure(self, comb_jsi, spectro):
        ks = []
        for fwhm in (0.0, 50e-12, 200e-12):
            probs, _ = project(comb_jsi, jittered(spectro, fwhm))
            ks.append(schmidt_number(np.sqrt(probs)))
        assert ks[0] > ks[1] > ks[2]
        assert ks[0] == pytest.approx(8.124, abs=0.02)

    def test_matrix_and_grid_equivalent_to_jsa(self, comb_jsi, spectro):
        # the factored blocks against the dense T I T^T / mass of the
        # formed intensity, to the tolerance of the dense products' own
        # summation order
        direct, alias = project(comb_jsi, spectro)
        center = comb_jsi.center_frequency_hz
        inten = dense(comb_jsi)
        probs, alias1 = project_stack(inten, comb_jsi.grid, spectro, center)
        np.testing.assert_allclose(direct, probs, rtol=0, atol=1e-12 * probs.max())
        assert alias == pytest.approx(alias1, rel=0, abs=1e-12)
        # a stack projects entry by entry
        stack, alias2 = project_stack(
            np.stack([inten, 3.0 * inten]), comb_jsi.grid, spectro, center,
        )
        np.testing.assert_allclose(stack, [probs, probs], rtol=0, atol=1e-12 * probs.max())
        np.testing.assert_allclose(alias2, [alias1, alias1], rtol=1e-12)

    def test_amplitude_requires_center(self, comb_jsa):
        # an amplitude always carries the band center its intensity is
        # projected around
        with pytest.raises(TypeError, match="center_frequency_hz"):
            JointSpectralAmplitude(
                grid=comb_jsa.grid, diagonals=comb_jsa.diagonals,
                antidiagonals=comb_jsa.antidiagonals,
            )


class TestSimulateCounts:
    def test_total_is_exact_and_reproducible(self, comb_jsi, spectro):
        counts = simulate(comb_jsi, spectro, 100_000, seed=3)
        again = simulate(comb_jsi, spectro, 100_000, seed=3)
        assert counts.total == 100_000
        np.testing.assert_array_equal(counts.values, again.values)
        other = simulate(comb_jsi, spectro, 100_000, seed=4)
        assert np.any(other.values != counts.values)

    def test_counts_match_expectation(self, comb_jsi, spectro):
        n = 500_000
        probs, _ = project(comb_jsi, spectro)
        probs = probs / probs.sum()
        counts = simulate(comb_jsi, spectro, n, seed=12)
        expected = n * probs
        hot = expected > 25.0
        z = (counts.values[hot] - expected[hot]) / np.sqrt(expected[hot])
        assert np.abs(z).max() < 6.0
        assert np.mean(np.abs(z) > 3.0) < 0.01

    def test_zero_events(self, comb_jsi, spectro):
        counts = simulate(comb_jsi, spectro, 0, seed=0)
        assert counts.total == 0

    def test_alias_overflow_raises(self, comb_jsi, spectro):
        with pytest.raises(MeasurementError, match="outside the"):
            simulate(comb_jsi, spectro, 1000, seed=0, max_alias_fraction=1e-6)

    def test_alias_refusal_prints_significant_digits(self, comb_jsi, spectro):
        # a share or limit below 0.00005% printed as 0 in fixed decimals,
        # so a zero limit refused a nonzero share "0.0000% (limit 0.00%)"
        with pytest.raises(MeasurementError, match=r"^1\.271% .* \(limit 0\.0001%\)"):
            simulate(comb_jsi, spectro, 1000, seed=0, max_alias_fraction=1e-6)
        with pytest.raises(MeasurementError) as err:
            _check_alias(3.2e-9, spectro, 0.0)
        assert str(err.value).startswith("3.2e-07% of the joint spectrum lies outside the 12.5 ns")
        assert "(limit 0%)" in str(err.value)
        # narrowing the grid clips the state instead of fitting it in the
        # window, so the only advice is the window
        assert str(err.value).endswith("; widen the window")
        assert "grid" not in str(err.value)


    def test_tofs_sim_peak_memory_below_the_amplitude(self, tmp_path):
        # tofs-sim builds the intensity's factors, not the amplitude, and
        # keeps only the transfer's band: on a 256^2 grid and a 100 x 100
        # time grid its traced peak reads 0.54 of one complex (n, n)
        # amplitude, 0.88 while it formed the intensity and 2.07 while it
        # built the amplitude.  The first run pays numpy.random's
        # lazy import, so the second is traced.
        cfg = default_config()
        cfg.sections["grid"]["points"] = 256
        cfg.sections["spectrometer"]["time_bin_s"] = 125e-12
        cfg.sections["spectrometer"]["events"] = 100_000
        assert cfg.spectrometer_spec().n_bins == 100
        cli.cmd_tofs_sim(cfg, str(tmp_path))
        tracemalloc.start()
        try:
            cli.cmd_tofs_sim(cfg, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256**2 * np.dtype(complex).itemsize


@pytest.fixture(scope="module")
def counts(comb_jsi, spectro):
    return simulate(comb_jsi, spectro, 2_000_000, seed=21)


class TestReconstruction:
    def test_marginals_peak_normalized(self, counts):
        signal, idler = marginals(counts)
        assert signal.max() == pytest.approx(1.0)
        assert idler.max() == pytest.approx(1.0)
        columns, rows = counts.values.sum(axis=0), counts.values.sum(axis=1)
        np.testing.assert_allclose(signal, columns / columns.max(), rtol=1e-12)
        np.testing.assert_allclose(idler, rows / rows.max(), rtol=1e-12)

    def test_amplitude_recovers_mode_count(self, counts, comb_jsa):
        k_true = schmidt_number(comb_jsa)
        k_rec = schmidt_number(np.sqrt(counts.values))
        # noise inflation at 2e6 events stays well under one mode
        assert abs(k_rec - k_true) < 0.5

    def test_empty_counts_rejected(self, spectro):
        empty = CountMatrix(
            values=np.zeros((4, 4), dtype=np.int64),
            spec=windowed(spectro, 4),
            center_frequency_hz=NU0,
        )
        with pytest.raises(ValueError):
            marginals(empty)


class TestCountsIO:
    def test_roundtrip(self, tmp_path, comb_jsi, spectro):
        # a non-default reference wavelength must survive the file
        spec = dataclasses.replace(spectro, reference_wavelength=1555.9e-9)
        counts = simulate(comb_jsi, spec, 50_000, seed=8)
        path = tmp_path / "counts.csv"
        save_counts(counts, path)
        back = load_counts(path)
        np.testing.assert_array_equal(back.values, counts.values)
        assert back.spec.time_bin == pytest.approx(spec.time_bin, rel=1e-12)
        assert back.spec.window == pytest.approx(spec.window, rel=1e-12)
        assert back.spec.time_rate == pytest.approx(spec.time_rate, rel=1e-12)
        assert back.spec.reference_wavelength == 1555.9e-9
        assert back.center_frequency_hz == comb_jsi.center_frequency_hz

    @pytest.mark.parametrize(
        "edit, body, message",
        [
            # cells would run to +0.05 ns while every gate stops at +0.025 ns
            ({"t0_ns": "-0.0"}, "1,2\n3,4\n", "center"),
            ({"t0_ns": "-0.05"}, "1,2\n3,4\n", "center"),
            ({"dt_ps": "0"}, "1,2\n3,4\n", "time_bin"),
            ({"dt_ps": "-25"}, "1,2\n3,4\n", "time_bin"),
            ({"disp_ns_per_nm": "0"}, "1,2\n3,4\n", "dispersion"),
            ({"disp_ns_per_nm": "-0.4"}, "1,2\n3,4\n", "dispersion"),
            ({"disp_ns_per_nm": "nan"}, "1,2\n3,4\n", "dispersion"),
            ({}, "1,2\n3,-4\n", "nonnegative"),
        ],
        ids=["t0 at zero", "t0 one bin early", "zero dt", "negative dt", "zero dispersion",
             "negative dispersion", "nan dispersion", "negative count"],
    )
    def test_file_the_count_matrix_cannot_hold_rejected(self, tmp_path, edit, body, message):
        fields = {"nt": "2", "dt_ps": "25", "t0_ns": "-0.025", "disp_ns_per_nm": "0.4",
                  "ref_wavelength_m": "1.5557e-06", "nu0_hz": "192705828887317.59"}
        fields.update(edit)
        path = tmp_path / "counts.csv"
        path.write_text("# " + " ".join(f"{k}={v}" for k, v in fields.items()) + "\n" + body)
        with pytest.raises(ValueError, match=message) as err:
            load_counts(path)
        assert str(path) in str(err.value)

    def test_loaded_spec_reads_as_one_km_without_jitter(self, tmp_path, comb_jsi, spectro):
        counts = simulate(comb_jsi, jittered(spectro, 80e-12), 10_000, seed=3)
        path = tmp_path / "counts.csv"
        save_counts(counts, path)
        back = load_counts(path).spec
        assert back.fiber_length_km == 1.0
        assert back.jitter_fwhm == 0.0
        np.testing.assert_allclose(back.time_centers, spectro.time_centers, rtol=0, atol=1e-21)
        assert back.time_rate == pytest.approx(spectro.time_rate, rel=1e-12)

    def test_malformed_body_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "# nt=2 dt_ps=25 t0_ns=-0.025 disp_ns_per_nm=0.4 ref_wavelength_m=1.5557e-06"
        header += " nu0_hz=192705828887317.59\n"
        for body in ("1,2.5\n3,4\n", "1,1e3\n3,4\n", "1,2\n3\n", ""):
            path.write_text(header + body)
            # Python ignores DeprecationWarning outside __main__, so the
            # rejection must not depend on the warning filters
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(ValueError):
                    load_counts(path)

    def test_writer_matches_elementwise_format(self, tmp_path, spectro):
        # the value-by-value formatting the row writer replaced is the oracle
        values = np.array([[0, 1, 2**53 + 1], [2**62, 7, 0], [123456789, 0, 5]])
        counts = CountMatrix(
            values=values,
            spec=windowed(spectro, 3),
            center_frequency_hz=NU0,
        )
        path = tmp_path / "counts.csv"
        save_counts(counts, path)
        body = path.read_text().split("\n", 1)[1]
        assert body == "".join(",".join(str(int(v)) for v in row) + "\n" for row in values)
        np.testing.assert_array_equal(load_counts(path).values, values)

    @pytest.mark.parametrize("shape", [(4, 3), (3, 3), (5, 5), (16,)])
    def test_values_must_fill_the_time_grid(self, spectro, shape):
        with pytest.raises(ValueError, match="4 x 4 time grid"):
            CountMatrix(
                values=np.zeros(shape, dtype=np.int64),
                spec=windowed(spectro, 4),
                center_frequency_hz=NU0,
            )

    def test_noninteger_counts_rejected(self, spectro):
        with pytest.raises(ValueError, match="integer"):
            CountMatrix(
                values=np.full((4, 4), 0.5),
                spec=windowed(spectro, 4),
                center_frequency_hz=NU0,
            )


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    sigma_ps=st.floats(min_value=0.0, max_value=300.0),
    n=st.integers(min_value=2, max_value=64),
    offset_hz=st.floats(min_value=-2.0e12, max_value=2.0e12),
    half_span_hz=st.floats(min_value=0.2e12, max_value=2.5e12),
    n_bins=st.integers(min_value=1, max_value=520),
)
# a window that is not a whole number of blocks, a band that reaches
# columns 0 and n - 1, and no cell reaching the first three blocks
@example(sigma_ps=21.2, n=256, offset_hz=-0.6e12, half_span_hz=1.1e12, n_bins=473)
def test_blur_never_creates_mass(sigma_ps, n, offset_hz, half_span_hz, n_bins):
    # build_transfer's blocks assemble to the dense ndtr transfer inside
    # the 9 sigma band and to exact zeros outside it; each block covers
    # _BLOCK_ROWS time rows (fewer at the window's end) on the smallest
    # span of columns that holds its nonzero entries, none is all zero,
    # and each is C-contiguous
    spec = SpectrometerSpec(
        dispersion_ps_per_nm_km=20,
        fiber_length_km=20,
        jitter_fwhm=sigma_ps * 1e-12 * 2.3548,
        time_bin=25e-12,
        window=n_bins * 25e-12,
    )
    nu = 2.0 * np.pi * np.linspace(offset_hz - half_span_hz, offset_hz + half_span_hz, n)
    blocks = build_transfer(spec, nu, 192.6e12)
    for rows, cols, block in blocks:
        assert rows.start % _BLOCK_ROWS == 0
        assert rows.stop == min(rows.start + _BLOCK_ROWS, n_bins)
        assert block.shape == (rows.stop - rows.start, cols.stop - cols.start)
        assert block[:, 0].any() and block[:, -1].any()
        assert block.flags.c_contiguous
    starts = [rows.start for rows, _, _ in blocks]
    assert starts == sorted(set(starts))
    transfer = transfer_matrix(blocks, n_bins, n)
    want = dense_transfer(spec, nu, 192.6e12)
    a, b = cell_times(spec, nu, 192.6e12)
    reach = 9.0 * spec.jitter_sigma
    edges = spec.time_edges[:, None]
    band = (edges[1:] > a - reach) & (edges[:-1] < b + reach)
    assert np.all(transfer[~band] == 0)
    assert np.abs(transfer - want)[band].max(initial=0) <= 1e-12 * np.abs(want).max()
    # differences of Gaussian integrals leave ~1e-14 negative residue,
    # clipped downstream in spectrum_projector
    assert np.all(transfer >= -1e-12)
    assert np.all(transfer.sum(axis=0) <= 1.0 + 1e-9)


FACTOR = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0))


@settings(deadline=None, max_examples=100, derandomize=True)
@given(
    n=st.integers(min_value=2, max_value=64),
    half_span_hz=st.floats(min_value=0.2e12, max_value=1.5e12),
    data=st.data(),
)
def test_factored_intensity_matches_its_dense_product(n, half_span_hz, data):
    # on random nonnegative factors, zeros included, the structured sums
    # (per diagonal, total, edge share) and the projections, unweighted and
    # weighted, match those of the dense product the factors stand for.
    # Each sum adds at most n nonnegative terms on either side, so they
    # agree to 2 n eps; the images to the dense map's 1e-12.  Every cell
    # of these grids arrives inside the window.
    size = 2 * n - 1
    vector = st.lists(FACTOR, min_size=size, max_size=size).map(np.array)
    grid = FrequencyGrid.symmetric(n, half_span_hz)
    jsi = JointSpectralIntensity(grid, data.draw(vector), data.draw(vector), NU0)
    weights = data.draw(vector)
    product = dense(jsi)
    rtol = 2 * n * np.finfo(float).eps
    np.testing.assert_allclose(jsi.diagonal_masses(), diagonal_sums(product), rtol=rtol, atol=0)
    assert jsi.total == pytest.approx(product.sum(), rel=rtol, abs=0)
    spec = SpectrometerSpec(time_bin=125e-12)
    project = spectrum_projector(jsi, spec)
    for w in (None, weights):
        if (product if w is None else product * grid.toeplitz(w)).sum() == 0:
            with pytest.raises(MeasurementError, match="no intensity"):
                project(w)
            continue
        want, want_alias = project_stack(product, grid, spec, NU0, w)
        probs, alias = project(w)
        image, want_image = probs * (1.0 - alias), want * (1.0 - want_alias)
        assert np.abs(image - want_image).max() <= 1e-12 * want_image.max()
        assert alias == pytest.approx(want_alias, rel=0, abs=1e-12)
    if product.sum() == 0:
        assert np.isnan(jsi.edge_mass_fraction)
    else:
        assert jsi.edge_mass_fraction == pytest.approx(edge_fraction(product), rel=rtol, abs=0)
