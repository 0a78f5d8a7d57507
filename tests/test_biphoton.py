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
    PumpSpec,
    build_jsa,
    load_jsa,
    load_jsi,
    pump_envelope,
    save_jsa,
    save_jsi,
)
from qpmforge.crystal import target_pmf
from qpmforge.tomography import bin_detuning, default_bin_labels

from oracles import (
    DenseAmplitude,
    bin_spacing_from_comb,
    dense,
    edge_fraction,
    gathered_jsa,
    norm_squared,
    normalized,
)


def full_grid_comb_jsa(comb, pump, dispersion, grid):
    """The comb JSA with target_pmf evaluated on every grid cell."""
    nu_sum = grid.nu[None, :] + grid.nu[:, None]
    diff = grid.nu[None, :] - grid.nu[:, None]
    values = pump_envelope(pump, nu_sum) * target_pmf(
        comb, dispersion.center + dispersion.slope * diff
    )
    return normalized(values, grid)


def traced_peak(build, *args):
    """``build(*args)``'s traced peak in bytes."""
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# machine epsilon: twice the unit roundoff of one double rounding
EPS = np.finfo(float).eps
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

    @pytest.mark.parametrize(
        "axis",
        [2 * np.pi * np.linspace(-1e12, 1e12, 5), hz_axis(-2.2e12, 25e9, 201)],
        ids=["symmetric", "off-centre"],
    )
    def test_hankel_view_equals_index_gather(self, axis):
        grid = FrequencyGrid(nu=axis)
        n = grid.nu.size
        rows, cols = np.arange(n)[:, None], np.arange(n)[None, :]
        antidiagonals = np.random.default_rng(n).normal(size=2 * n - 1)
        view = grid.hankel(antidiagonals)
        np.testing.assert_array_equal(view, antidiagonals[rows + cols])
        assert np.shares_memory(view, antidiagonals) and not view.flags.writeable
        with pytest.raises(ValueError, match="antidiagonal values"):
            grid.hankel(antidiagonals[1:])
        # the centred sums the pump is evaluated on are nu_s + nu_i of
        # every cell, to rounding: d_nu, one step of the rounded axis, is
        # off by up to eps max|nu|, and the sums take up to 2n of it
        sums = grid.hankel(grid.nu[0] + grid.nu[-1] + grid.differences)
        bound = (2 * n + 4) * EPS * np.abs(grid.nu).max()
        np.testing.assert_allclose(sums, grid.nu[rows] + grid.nu[cols], rtol=0, atol=bound)


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
        assert norm_squared(comb_jsa.values, comb_jsa.grid) == pytest.approx(1.0, rel=1e-12)

    def test_marginals_peak_at_bin_centers(self, comb_jsa, cfg):
        grid = comb_jsa.grid
        marg = dense(comb_jsa.intensity).sum(axis=0)  # the signal photon's spectrum
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
        inten = dense(comb_jsa.intensity)
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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_tiny_grid_counts_each_edge_cell_once(self, n, cfg, comb, pump, dispersion):
        # every cell of a grid of at most 4 points is an edge cell, and
        # each counts once
        tiny = FrequencyGrid.symmetric(n, cfg["grid"]["half_span_hz"])
        with pytest.warns(UserWarning, match=r"^100\.00% of the joint intensity sits at the grid edge"):
            jsa = build_jsa(comb, pump, dispersion, tiny)
        assert jsa.intensity.edge_mass_fraction == pytest.approx(1.0, rel=0, abs=4 * EPS)

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
        # the amplitude is kept as its two (2n - 1)-vector factors and its
        # norm is summed over them, so no (n, n) array is made: the peak
        # is the PMF's own evaluation, 0.02 of one complex grid.  Forming
        # the amplitude and the intensity of a dense norm peaked at 1.5x
        assert grid.shape == (1024, 1024)
        assert traced_peak(build_jsa, comb, pump, dispersion, grid) <= 0.1 * COMPLEX_GRID_BYTES

    def test_designed_peak_memory(self, designed_crystal, pump, dispersion, grid):
        # as for the comb; the domain PMF's chirp-z sum reads 0.04 of one
        # complex grid
        assert grid.shape == (1024, 1024)
        peak = traced_peak(build_jsa, designed_crystal, pump, dispersion, grid)
        assert peak <= 0.1 * COMPLEX_GRID_BYTES

    @pytest.mark.parametrize("source", ["comb", "designed_crystal"])
    @pytest.mark.parametrize("points", [256, 1024])
    def test_matches_dense_gather_bit_for_bit(self, source, points, pump, dispersion, request):
        crystal = request.getfixturevalue(source)
        grid = FrequencyGrid.symmetric(points, 2.5e12)
        jsa = build_jsa(crystal, pump, dispersion, grid)
        got = jsa.values
        # the product of the two factors gathered onto the grid through
        # (n, n) index arrays, cell by cell
        rows, cols = np.arange(points)[:, None], np.arange(points)[None, :]
        product = jsa.diagonals[cols - rows + (points - 1)] * jsa.antidiagonals[rows + cols]
        np.testing.assert_array_equal(got.view(float), product.view(float))
        # the oracle divides the product by the norm of its dense sum,
        # build_jsa the PMF by the norm of the factors' total: the same
        # norm to a few roundings, 1.9 eps of the peak at most here
        want = gathered_jsa(crystal, pump, dispersion, grid)
        peak = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * EPS * peak)


class TestBuildJsi:
    """The joint intensity the readout takes, build_jsa(...).intensity,
    against the amplitude's dense values."""

    @pytest.mark.parametrize("source", ["comb", "designed_crystal"])
    def test_matches_build_jsa_to_rounding(self, source, request):
        # the comb's PMF is real and the designed crystal's complex.  The
        # dense |values|^2 rounds the product and |.|^2; the factors round
        # |diagonals|^2, pump^2 and, formed here, the product of the two
        # views: a few roundings of eps/2 between them, well inside 8 eps
        # per cell.  The factors are the same, so the zeros fall in the
        # same cells.
        jsa = request.getfixturevalue(
            {"comb": "comb_jsa", "designed_crystal": "designed_jsa"}[source]
        )
        jsi = jsa.intensity
        intensity = dense(jsi)
        want = np.abs(jsa.values) ** 2
        np.testing.assert_array_equal(intensity == 0, want == 0)
        np.testing.assert_allclose(intensity, want, rtol=8 * EPS, atol=0)
        assert jsi.center_frequency_hz == jsa.center_frequency_hz
        assert jsi.edge_mass_fraction == pytest.approx(edge_fraction(want), rel=8 * EPS)

    def test_edge_warning_matches_build_jsa(self, comb, pump, dispersion):
        tiny = FrequencyGrid.symmetric(64, 0.4e12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            jsa = build_jsa(comb, pump, dispersion, tiny)
        # one warning, blamed on the builder's caller, naming the share
        # the intensity's factors hold at the edge
        assert [w.category for w in caught] == [UserWarning]
        assert [w.filename for w in caught] == [__file__]
        edge = jsa.intensity.edge_mass_fraction
        assert edge > 1e-3
        assert str(caught[0].message).startswith(f"{edge:.2%} of the joint intensity sits at the grid edge")
        # to rounding, as in test_matches_build_jsa_to_rounding
        want = np.abs(jsa.values) ** 2
        assert edge == pytest.approx(edge_fraction(want), rel=8 * EPS)
        np.testing.assert_allclose(dense(jsa.intensity), want, rtol=8 * EPS, atol=0)

    @pytest.mark.parametrize("source", ["comb", "designed_crystal"])
    def test_peak_memory_holds_no_grid_array(self, source, pump, dispersion, grid, request):
        # no (n, n) array is made: both factors are squared on their 2n - 1
        # values, and the norm and the edge check are sums over them, so
        # the peak is the PMF's own evaluation (0.04 of one float grid for
        # the comb, 0.08 for the designed crystal's chirp-z sum).  Forming
        # the product read 1.02 and 1.03
        crystal = request.getfixturevalue(source)

        def readout_intensity():
            return build_jsa(crystal, pump, dispersion, grid).intensity

        assert grid.shape == (1024, 1024)
        assert traced_peak(readout_intensity) <= 0.1 * FLOAT_GRID_BYTES


class TestJsaIO:
    def test_jsa_roundtrip(self, tmp_path, comb, pump, dispersion):
        small = FrequencyGrid.symmetric(96, 2.5e12)
        jsa = build_jsa(comb, pump, dispersion, small)
        path = tmp_path / "jsa.csv"
        save_jsa(jsa, path)
        grid, values, center = load_jsa(path)
        assert grid.shape == jsa.grid.shape
        np.testing.assert_allclose(values, jsa.values, rtol=1e-9, atol=1e-16)
        np.testing.assert_allclose(grid.nu, jsa.grid.nu, rtol=1e-10)
        assert center == pytest.approx(jsa.center_frequency_hz, rel=1e-11)

    def test_jsi_roundtrip(self, tmp_path, comb, pump, dispersion):
        small = FrequencyGrid.symmetric(96, 2.5e12)
        jsa = build_jsa(comb, pump, dispersion, small)
        path = tmp_path / "jsi.csv"
        save_jsi(jsa, path)
        grid, jsi, center = load_jsi(path)
        np.testing.assert_allclose(jsi, np.abs(jsa.values) ** 2, rtol=1e-9, atol=1e-20)
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
            (save_jsi, 1e150, 1e-150, lambda j: np.abs(j.values) ** 2, lambda v: f"{v:.12e}"),
        ):
            values = np.array(
                [
                    [complex(-0.0, -0.0), complex(big, -2.0), complex(3.0, 0.0)],
                    [complex(small, -small), complex(-big, -0.0), complex(-4.0, -7.25)],
                    [complex(0.5, 1e-5), complex(-1e-7, big), complex(-small, 0.0)],
                ]
            )
            jsa = DenseAmplitude(grid=grid, values=values, center_frequency_hz=1.9e14)
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
            jsa = DenseAmplitude(grid=grid, values=values, center_frequency_hz=1.9e14)
            path = tmp_path / "jsa.csv"
            save_jsa(jsa, path)
            back = load_jsa(path)[1]
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
    assert norm_squared(normalized(vals, grid), grid) == pytest.approx(1.0, rel=1e-12)
