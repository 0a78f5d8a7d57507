import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge.analysis import schmidt_number
from qpmforge.biphoton import (
    DispersionMap,
    FrequencyGrid,
    JointSpectralAmplitude,
    PumpSpec,
    build_jsa,
    build_jsi,
    load_jsa,
    load_jsi,
    pump_envelope,
    save_jsa,
    save_jsi,
)
from qpmforge.crystal import target_pmf
from qpmforge.tomography import bin_detuning, default_bin_labels

from oracles import NU0, bin_spacing_from_comb, gathered_jsa, norm_squared, normalized


def full_grid_comb_jsa(comb, pump, dispersion, grid):
    """The comb JSA with target_pmf evaluated on every grid cell."""
    nu_sum = grid.nu[None, :] + grid.nu[:, None]
    diff = grid.nu[None, :] - grid.nu[:, None]
    values = pump_envelope(pump, nu_sum) * target_pmf(
        comb, dispersion.center + dispersion.slope * diff
    )
    jsa = JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=NU0)
    return normalized(jsa).values


def traced_peak(source, pump, dispersion, grid, build=build_jsa):
    """``build``'s traced peak on the default 1024^2 grid, in bytes."""
    assert grid.shape == (1024, 1024)
    tracemalloc.start()
    try:
        build(source, pump, dispersion, grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one (n, n) array on the default 1024^2 grid
FLOAT_GRID_BYTES = 1024**2 * np.dtype(float).itemsize
COMPLEX_GRID_BYTES = 1024**2 * np.dtype(complex).itemsize


def hz_axis(lo_hz, step_hz, n):
    return 2 * np.pi * (lo_hz + step_hz * np.arange(n))


class TestPumpSpec:
    def test_from_duration_bandwidth(self):
        fwhm = 1.3e-12
        pump = PumpSpec.from_duration(777.85e-9, fwhm)
        # transform-limited Gaussian: amplitude sigma = 2 sqrt(ln 2) / fwhm
        assert pump.sigma == pytest.approx(2.0 * np.sqrt(np.log(2.0)) / fwhm)

    def test_envelope_shape(self, pump):
        assert pump_envelope(pump, 0.0) == pytest.approx(1.0)
        assert pump_envelope(pump, pump.sigma * np.sqrt(2.0)) == pytest.approx(
            np.exp(-1.0)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PumpSpec(center_wavelength=777e-9, sigma=0.0)
        with pytest.raises(ValueError):
            PumpSpec.from_duration(-1.0, 1e-12)


class TestFrequencyGrid:
    def test_symmetric_axes(self):
        grid = FrequencyGrid.symmetric(64, 1e12)
        assert grid.shape == (64, 64)
        np.testing.assert_allclose(grid.nu, -grid.nu[::-1], atol=1e-3)
        assert grid.nu[-1] == pytest.approx(2 * np.pi * 1e12)
        step = np.diff(grid.nu)
        np.testing.assert_allclose(step, step[0])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            FrequencyGrid.symmetric(1, 1e12)

    @pytest.mark.parametrize("n", [2, 5, 256])
    def test_toeplitz_view_equals_index_gather(self, n):
        grid = FrequencyGrid.symmetric(n, 1e12)
        diagonals = np.random.default_rng(n).normal(size=2 * n - 1)
        view = grid.toeplitz(diagonals)
        gathered = diagonals[np.arange(n)[None, :] - np.arange(n)[:, None] + (n - 1)]
        np.testing.assert_array_equal(view, gathered)
        assert np.shares_memory(view, diagonals) and not view.flags.writeable
        with pytest.raises(ValueError, match="diagonal values"):
            grid.toeplitz(diagonals[1:])

    def test_differences_step_by_column_minus_row(self):
        grid = FrequencyGrid.symmetric(5, 1e12)
        np.testing.assert_array_equal(grid.differences, np.arange(-4, 5) * grid.d_nu)


class TestBinGeometry:
    def test_bin_centers_symmetric_ascending(self):
        centers = np.array([bin_detuning(label, 500e9) for label in default_bin_labels(4)])
        assert centers.size == 8
        np.testing.assert_allclose(centers, -centers[::-1])
        assert np.all(np.diff(centers) > 0)
        # innermost pair sits half a spacing from degeneracy
        assert centers[4] == pytest.approx(np.pi * 500e9)

    def test_spacing_roundtrip_through_mismatch(self, cfg, dispersion):
        comb = cfg.comb_spec()
        hz = bin_spacing_from_comb(comb.spacing, dispersion)
        assert hz == pytest.approx(cfg["crystal"]["bin_spacing_hz"], rel=1e-12)


class TestBuildJsa:
    def test_normalized(self, comb_jsa):
        assert norm_squared(comb_jsa) == pytest.approx(1.0, rel=1e-12)

    def test_marginals_peak_at_bin_centers(self, comb_jsa, cfg):
        grid = comb_jsa.grid
        marg = comb_jsa.intensity.sum(axis=0)  # the signal photon's spectrum
        centers = [
            bin_detuning(label, cfg["crystal"]["bin_spacing_hz"])
            for label in default_bin_labels(cfg["crystal"]["pair_count"])
        ]
        # every bin centre should sit within one grid step of a local max
        step = grid.d_nu
        for c in centers:
            idx = int(np.argmin(np.abs(grid.nu - c)))
            lo, hi = max(idx - 2, 0), min(idx + 3, marg.size)
            local_peak = grid.nu[lo + int(np.argmax(marg[lo:hi]))]
            assert abs(local_peak - c) <= 1.5 * step

    def test_antidiagonal_energy_conservation(self, comb_jsa, pump):
        # intensity collapses onto |nu_s + nu_i| <~ a few pump widths
        grid = comb_jsa.grid
        nu_sum = grid.nu[None, :] + grid.nu[:, None]
        inten = comb_jsa.intensity
        inside = inten[np.abs(nu_sum) <= 4.0 * pump.sigma].sum()
        assert inside / inten.sum() > 0.9999

    def test_designed_crystal_matches_comb(self, comb_jsa, designed_jsa):
        k_comb = schmidt_number(comb_jsa)
        k_designed = schmidt_number(designed_jsa)
        assert k_designed == pytest.approx(k_comb, rel=0.01)

    def test_edge_mass_warning(self, comb, pump, dispersion):
        tiny = FrequencyGrid.symmetric(64, 0.4e12)
        with pytest.warns(UserWarning, match="grid edge"):
            build_jsa(comb, pump, dispersion, tiny)

    def test_rejects_unknown_source(self, pump, dispersion, grid):
        with pytest.raises(TypeError):
            build_jsa(object(), pump, dispersion, grid)

    @pytest.mark.parametrize(
        "axis",
        [
            None,  # the default 1024^2 grid
            # an axis that does not straddle zero symmetrically
            hz_axis(-2.2e12, 25e9, 201),
        ],
        ids=["default", "off-centre"],
    )
    def test_comb_matches_full_grid_oracle(self, axis, comb, pump, dispersion, grid):
        if axis is not None:
            grid = FrequencyGrid(nu=axis)
        got = build_jsa(comb, pump, dispersion, grid).values
        want = full_grid_comb_jsa(comb, pump, dispersion, grid)
        peak = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11 * peak)

    def test_comb_peak_memory(self, comb, pump, dispersion, grid):
        # the PMF is evaluated on the 2n - 1 distinct mismatches and read
        # through a view, and the pump is multiplied in four rows at a time,
        # so the amplitude and the intensity of the edge check (1.5x) are
        # the only (n, n) arrays; gathering the PMF and multiplying the
        # whole pump grid peaked at 2.0x
        assert traced_peak(comb, pump, dispersion, grid) <= 1.75 * COMPLEX_GRID_BYTES

    def test_designed_peak_memory(self, designed_crystal, pump, dispersion, grid):
        # as for the comb; the gather's (n, n) index array took the
        # designed crystal's peak to 2.5x
        assert traced_peak(designed_crystal, pump, dispersion, grid) <= 1.75 * COMPLEX_GRID_BYTES

    @pytest.mark.parametrize("source", ["comb", "designed_crystal"])
    @pytest.mark.parametrize("points", [256, 1024])
    def test_matches_dense_gather_bit_for_bit(self, source, points, pump, dispersion, request):
        crystal = request.getfixturevalue(source)
        grid = FrequencyGrid.symmetric(points, 2.5e12)
        got = build_jsa(crystal, pump, dispersion, grid).values
        want = gathered_jsa(crystal, pump, dispersion, grid)
        np.testing.assert_array_equal(got.view(float), want.view(float))


class TestBuildJsi:
    @pytest.mark.parametrize("source", ["comb", "designed_crystal"])
    def test_matches_build_jsa_bit_for_bit(self, source, pump, dispersion, grid, request):
        # the comb's PMF is real and the designed crystal's complex; both
        # divide a complex row by the norm, as build_jsa does
        crystal = request.getfixturevalue(source)
        jsa = request.getfixturevalue(
            {"comb": "comb_jsa", "designed_crystal": "designed_jsa"}[source]
        )
        intensity, center, edge = build_jsi(crystal, pump, dispersion, grid)
        assert np.array_equal(intensity, jsa.intensity)
        assert center == jsa.center_frequency_hz
        assert edge == jsa.metadata["edge_mass_fraction"]

    def test_edge_warning_matches_build_jsa(self, comb, pump, dispersion):
        tiny = FrequencyGrid.symmetric(64, 0.4e12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jsa = build_jsa(comb, pump, dispersion, tiny)
            intensity, _, edge = build_jsi(comb, pump, dispersion, tiny)
        assert len(caught) == 2
        # the same warning, blamed on the builder's caller
        assert [w.category for w in caught] == [UserWarning, UserWarning]
        assert [w.filename for w in caught] == [__file__, __file__]
        assert "grid edge" in str(caught[1].message)
        assert str(caught[1].message) == str(caught[0].message)
        assert edge == jsa.metadata["edge_mass_fraction"] > 1e-3
        assert np.array_equal(intensity, jsa.intensity)

    @pytest.mark.parametrize("source", ["comb", "designed_crystal"])
    def test_peak_memory_is_one_intensity(self, source, pump, dispersion, grid, request):
        # the intensity is the only (n, n) array: both passes make four rows
        # at a time (1.03x for the comb, 1.04x for the designed crystal);
        # build_jsa holds the amplitude and its intensity (1.5x the
        # amplitude, 3.0x this unit)
        crystal = request.getfixturevalue(source)
        assert traced_peak(crystal, pump, dispersion, grid, build_jsi) <= 1.1 * FLOAT_GRID_BYTES


class TestJsaIO:
    def test_jsa_roundtrip(self, tmp_path, comb, pump, dispersion):
        small = FrequencyGrid.symmetric(96, 2.5e12)
        jsa = build_jsa(comb, pump, dispersion, small)
        path = tmp_path / "jsa.csv"
        save_jsa(jsa, path)
        back = load_jsa(path)
        assert back.grid.shape == jsa.grid.shape
        np.testing.assert_allclose(back.values, jsa.values, rtol=1e-9, atol=1e-16)
        np.testing.assert_allclose(
            back.grid.nu, jsa.grid.nu, rtol=1e-10
        )

    def test_jsi_roundtrip(self, tmp_path, comb, pump, dispersion):
        small = FrequencyGrid.symmetric(96, 2.5e12)
        jsa = build_jsa(comb, pump, dispersion, small)
        path = tmp_path / "jsi.csv"
        save_jsi(jsa, path)
        grid, jsi, center = load_jsi(path)
        np.testing.assert_allclose(jsi, jsa.intensity, rtol=1e-9, atol=1e-20)
        assert grid.shape == jsa.grid.shape
        assert center == pytest.approx(jsa.center_frequency_hz, rel=1e-11)

    def test_writers_match_elementwise_format(self, tmp_path):
        # the value-by-value formatting the row writers replaced is the oracle
        grid = FrequencyGrid(nu=2 * np.pi * 1e9 * np.arange(-1.0, 2.0))
        # the JSI squares the amplitude, so its extremes come from 1e+-150
        for save, big, small, rows, fmt in (
            (
                save_jsa, 1e300, 1e-300, lambda j: j.values,
                lambda v: "%.17g%+.17gj" % (v.real, v.imag),
            ),
            (save_jsi, 1e150, 1e-150, lambda j: j.intensity, lambda v: f"{v:.12e}"),
        ):
            values = np.array(
                [
                    [complex(-0.0, -0.0), complex(big, -2.0), complex(3.0, 0.0)],
                    [complex(small, -small), complex(-big, -0.0), complex(-4.0, -7.25)],
                    [complex(0.5, 1e-5), complex(-1e-7, big), complex(-small, 0.0)],
                ]
            )
            jsa = JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=1.9e14)
            path = tmp_path / "out.csv"
            save(jsa, path)
            body = path.read_text().split("\n", 1)[1]
            assert body == "".join(
                ",".join(fmt(v) for v in row) + "\n" for row in rows(jsa)
            )

    def test_jsa_roundtrip_is_bit_identical(self, tmp_path):
        parts = np.array(
            [[-0.0, 0.0, 1e-300, -5e-324, np.pi, -np.e],
             [0.0, -0.0, -1e300, 2.5, 1 / 3, 2.0 ** -1074],
             [1e-145, -3.4e-146, 7.0, -0.0, -1e-7, 123456789.123456789]]
        )
        base = parts[:, ::2] + 1j * parts[:, 1::2]
        grid = FrequencyGrid.symmetric(3, 1e12)
        # a transposed view is not contiguous
        for values in (base, base.T.copy().T):
            jsa = JointSpectralAmplitude(grid=grid, values=values, center_frequency_hz=1.9e14)
            path = tmp_path / "jsa.csv"
            save_jsa(jsa, path)
            back = load_jsa(path).values
            assert back.view(np.uint64).tobytes() == base.view(np.uint64).tobytes()


class TestDispersionMap:
    def test_rejects_zero_slope(self):
        with pytest.raises(ValueError):
            DispersionMap(slope=0.0, center=1.0)


@settings(deadline=None, max_examples=30)
@given(
    n=st.integers(min_value=2, max_value=32),
    half_span=st.floats(min_value=1e10, max_value=1e13),
)
def test_grid_measure_matches_span(n, half_span):
    grid = FrequencyGrid.symmetric(n, half_span)
    width = grid.nu[-1] - grid.nu[0]
    assert width == pytest.approx((n - 1) * grid.d_nu, rel=1e-12)


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_jsa_norm_invariant(seed):
    rng = np.random.default_rng(seed)
    grid = FrequencyGrid.symmetric(16, 1e12)
    vals = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    jsa = normalized(JointSpectralAmplitude(grid=grid, values=vals, center_frequency_hz=NU0))
    assert norm_squared(jsa) == pytest.approx(1.0, rel=1e-12)
