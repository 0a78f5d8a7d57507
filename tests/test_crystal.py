from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from qpmforge.config import parse_config
from qpmforge.crystal import (
    CombSpec,
    DomainConfig,
    _envelope,
    design_domains,
    design_overlap,
    load_domains,
    pmf_of_domains,
    save_domains,
    target_pmf,
)

DK0 = np.pi / 23e-6
DESIGNED_CFG = Path(__file__).resolve().parents[1] / "configs" / "designed_crystal.cfg"


def _dense_pmf(config, delta_k):
    """Reference PMF: the closed-form domain sum as one dense dk x domain matrix."""
    dk = np.atleast_1d(np.asarray(delta_k, dtype=float))
    edges = config.boundaries
    mids = 0.5 * (edges[1:] + edges[:-1])
    w = config.widths
    core = (config.orientations * w)[None, :] * np.sinc(np.multiply.outer(dk, w / 2.0) / np.pi)
    phase = np.exp(-1j * np.multiply.outer(dk, mids))
    return (core * phase).sum(axis=1) * (np.pi / (2.0 * config.total_length))


def _assert_matches_oracle(config, dk, rel):
    want = _dense_pmf(config, dk)
    got = np.atleast_1d(pmf_of_domains(config, dk))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=rel * np.abs(want).max())


def _profile(comb, z):
    """Continuous nonlinearity profile g(z) whose Fourier magnitude is the comb."""
    return (2.0 / comb.peak_width) * np.exp(1j * comb.center * z) * _envelope(comb, z)


class TestCombSpec:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CombSpec(pair_count=0, spacing=1.0, peak_width=1.0, center=1.0, length=1.0)
        with pytest.raises(ValueError):
            CombSpec(pair_count=1, spacing=-1.0, peak_width=1.0, center=1.0, length=1.0)
        with pytest.raises(ValueError):
            CombSpec(pair_count=2, spacing=0.0, peak_width=1.0, center=1.0, length=1.0)
        with pytest.raises(ValueError):
            CombSpec(pair_count=1, spacing=1.0, peak_width=0.0, center=1.0, length=1.0)

    def test_zero_spacing_single_pair_allowed(self):
        comb = CombSpec(pair_count=1, spacing=0.0, peak_width=1.0, center=1.0, length=1.0)
        assert comb.pair_count == 1


class TestTargetPmf:
    def test_peaks_sit_at_comb_positions(self, comb):
        j = np.arange(comb.pair_count)
        offsets = (2 * j + 1) * comb.spacing / 2.0
        for off in offsets:
            for dk in (comb.center + off, comb.center - off):
                assert abs(target_pmf(comb, dk)) == pytest.approx(1.0, abs=0.02)

    def test_even_about_center(self, comb):
        dk = np.linspace(0.1, 4.0, 50) * comb.spacing
        left = target_pmf(comb, comb.center - dk)
        right = target_pmf(comb, comb.center + dk)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-15)

    def test_scalar_matches_array(self, comb):
        dk = comb.center + 1.7 * comb.spacing
        assert target_pmf(comb, dk) == pytest.approx(target_pmf(comb, np.array([dk]))[0])

    def test_profile_is_inverse_transform(self, comb):
        # quadrature of g(z) e^{-i dk z} over +-6 envelope widths should
        # reproduce sqrt(2 pi) times the comb amplitude
        w = comb.peak_width
        z = np.linspace(-6 * w, 6 * w, 60001)
        g = _profile(comb, z)
        for dk in (
            comb.center,
            comb.center + 0.5 * comb.spacing,
            comb.center - 1.5 * comb.spacing,
            comb.center + 3.5 * comb.spacing,
        ):
            ft = trapezoid(g * np.exp(-1j * dk * z), z)
            want = np.sqrt(2 * np.pi) * target_pmf(comb, dk)
            assert abs(ft) == pytest.approx(abs(want), rel=1e-3, abs=1e-4)

    def test_sample_profile_spans_crystal(self, comb):
        positions = np.linspace(-comb.length / 2, comb.length / 2, 101)
        amplitude = _profile(comb, positions)
        assert positions[0] == pytest.approx(-comb.length / 2)
        assert positions[-1] == pytest.approx(comb.length / 2)
        assert amplitude.shape == positions.shape
        # the envelope peaks at pair_count in the crystal centre and is even
        assert abs(amplitude[50]) == pytest.approx(2.0 * comb.pair_count / comb.peak_width)
        np.testing.assert_allclose(abs(amplitude), abs(amplitude[::-1]), rtol=1e-12)


class TestDomainConfig:
    def test_rejects_width_orientation_mismatch(self):
        with pytest.raises(ValueError):
            DomainConfig(widths=[1e-6, 1e-6], orientations=[1], total_length=2e-6)
        with pytest.raises(ValueError):
            DomainConfig(widths=[1e-6, -1e-6], orientations=[1, -1], total_length=0.0)
        with pytest.raises(ValueError):
            DomainConfig(widths=[1e-6, 1e-6], orientations=[1, 2], total_length=2e-6)
        with pytest.raises(ValueError):
            DomainConfig(widths=[1e-6, 1e-6], orientations=[1, -1], total_length=3e-6)

    def test_rejects_non_integral_orientation(self):
        # the +-1 check must see the values before the integer cast truncates them
        with pytest.raises(ValueError, match="orientations"):
            DomainConfig(widths=[1e-5, 1e-5], orientations=[1.5, -1.0], total_length=2e-5)
        cfgd = DomainConfig(widths=[1e-5, 1e-5], orientations=[1.0, -1.0], total_length=2e-5)
        np.testing.assert_array_equal(cfgd.orientations, [1, -1])
        assert cfgd.orientations.dtype.kind == "i"

    def test_boundaries_are_centered(self):
        cfgd = DomainConfig(
            widths=[1e-6, 3e-6], orientations=[1, -1], total_length=4e-6
        )
        np.testing.assert_allclose(cfgd.boundaries, [-2e-6, -1e-6, 2e-6])
        assert cfgd.widths.size == 2


class TestPmfOfDomains:
    def test_periodic_poling_peaks_at_unity(self):
        width = 23e-6
        n = 1304
        cfgd = DomainConfig(
            widths=np.full(n, width),
            orientations=np.where(np.arange(n) % 2 == 0, 1, -1),
            total_length=n * width,
        )
        assert abs(pmf_of_domains(cfgd, np.pi / width)) == pytest.approx(1.0, abs=1e-9)
        # detuning by 0.1% of the carrier already kills the response
        assert abs(pmf_of_domains(cfgd, 1.001 * np.pi / width)) < 0.5

    def test_scalar_matches_array(self):
        cfgd = DomainConfig(
            widths=np.full(4, 10e-6),
            orientations=[1, -1, -1, 1],
            total_length=40e-6,
        )
        dk = np.array([0.7 * DK0, DK0, 1.3 * DK0])
        vec = pmf_of_domains(cfgd, dk)
        for i, one in enumerate(dk):
            assert pmf_of_domains(cfgd, one) == pytest.approx(complex(vec[i]))


def _design_overlap_grid(comb, cfg):
    half_span = (comb.pair_count - 0.5) * comb.spacing + 8.0 / comb.peak_width
    return np.linspace(comb.center - half_span, comb.center + half_span, 8192)


def _pmf_curve_grid(comb, cfg):
    half_span = (comb.pair_count + 0.5) * comb.spacing + 8.0 / comb.peak_width
    return comb.center + np.linspace(-half_span, half_span, 4001)


def _jsa_grid(comb, cfg):
    grid = cfg.frequency_grid()
    dispersion = cfg.dispersion_map()
    n = grid.nu.size
    d = np.arange(-(n - 1), n)
    return dispersion.center + dispersion.slope * (d * grid.d_nu)


class TestChirpZ:
    """pmf_of_domains against the dense closed-form sum."""

    @pytest.mark.parametrize(
        "make_grid, n_points",
        [(_design_overlap_grid, 8192), (_pmf_curve_grid, 4001), (_jsa_grid, 2047)],
    )
    def test_designed_crystal_matches_dense_sum(self, make_grid, n_points):
        # the residual is the cumsum rounding of DomainConfig.boundaries,
        # which the lattice of the chirp-z sum does not share
        cfg = parse_config(str(DESIGNED_CFG))
        comb = cfg.comb_spec()
        crystal = design_domains(comb, cfg["crystal"]["domain_width_m"])
        dk = make_grid(comb, cfg)
        assert dk.size == n_points
        _assert_matches_oracle(crystal, dk, 1e-8)

    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(min_value=1, max_value=40),
        n_dk=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_irregular_widths(self, n, n_dk, seed):
        rng = np.random.default_rng(seed)
        widths = rng.uniform(5e-6, 40e-6, n)
        cfgd = DomainConfig(
            widths=widths, orientations=rng.choice([-1, 1], n), total_length=float(widths.sum())
        )
        lo, hi = np.sort(rng.uniform(0.2 * DK0, 2.0 * DK0, 2))
        _assert_matches_oracle(cfgd, np.linspace(lo, hi, n_dk), 1e-12)

    @settings(deadline=None, max_examples=50)
    @given(
        n_run=st.integers(min_value=1, max_value=60),
        n_tail=st.integers(min_value=1, max_value=20),
        n_dk=st.integers(min_value=2, max_value=300),
        decreasing=st.booleans(),
        jittered=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_uniform_run_broken_midway(self, n_run, n_tail, n_dk, decreasing, jittered, seed):
        rng = np.random.default_rng(seed)
        widths = np.concatenate([np.full(n_run, 23e-6), rng.uniform(5e-6, 40e-6, n_tail)])
        n = widths.size
        cfgd = DomainConfig(
            widths=widths, orientations=rng.choice([-1, 1], n), total_length=float(widths.sum())
        )
        half_span = rng.uniform(1e3, 0.5 * DK0)
        dk = np.linspace(DK0 - half_span, DK0 + half_span, n_dk)
        if jittered:  # a non-uniform grid takes the closed-form sum throughout
            dk[1:-1] += rng.uniform(-0.1, 0.1, n_dk - 2) * (dk[1] - dk[0])
        _assert_matches_oracle(cfgd, dk[::-1] if decreasing else dk, 1e-12)

    def test_slowly_drifting_widths(self):
        # every width matches the first to 1e-9, but the centres walk off
        # its lattice by 0.9e-9 of a width per domain
        n = 2000
        widths = np.full(n, 23e-6 * (1.0 + 0.9e-9))
        widths[0] = 23e-6
        cfgd = DomainConfig(
            widths=widths,
            orientations=np.where(np.arange(n) % 2 == 0, 1, -1),
            total_length=float(widths.sum()),
        )
        dk = np.linspace(0.999 * DK0, 1.001 * DK0, 501)
        _assert_matches_oracle(cfgd, dk, 1e-12)

    @settings(deadline=None, max_examples=50)
    @given(
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_two_point_and_scalar_grids(self, n, seed):
        # Two random points can both sit where the PMF nearly cancels, far
        # below the pi/2 bound on |phi|; the dense sum itself rounds to
        # about 1e-14 of that bound, so the bound is the scale here.
        rng = np.random.default_rng(seed)
        cfgd = DomainConfig(
            widths=np.full(n, 23e-6),
            orientations=rng.choice([-1, 1], n),
            total_length=n * 23e-6,
        )
        two = rng.uniform(0.2 * DK0, 2.0 * DK0, 2)
        np.testing.assert_allclose(
            pmf_of_domains(cfgd, two), _dense_pmf(cfgd, two), rtol=0, atol=1e-12 * np.pi / 2
        )
        one = float(two[0])
        got = pmf_of_domains(cfgd, one)
        assert isinstance(got, complex)
        assert abs(got - _dense_pmf(cfgd, one)[0]) <= 1e-12 * np.pi / 2

    def test_grid_shape_is_kept(self):
        cfgd = DomainConfig(
            widths=np.full(5, 10e-6), orientations=[1, -1, 1, -1, 1], total_length=50e-6
        )
        dk = np.linspace(0.9, 1.1, 6).reshape(2, 3) * np.pi / 10e-6
        got = pmf_of_domains(cfgd, dk)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got.ravel(), _dense_pmf(cfgd, dk.ravel()), rtol=1e-12)


class TestDesignDomains:
    def test_preserves_length_and_uses_unit_domains(self, designed_crystal, cfg):
        width = cfg["crystal"]["domain_width_m"]
        length = cfg["crystal"]["length_m"]
        assert designed_crystal.total_length == pytest.approx(length, rel=1e-12)
        assert designed_crystal.widths.sum() == pytest.approx(length, rel=1e-12)
        # all but the final remainder domain carry the writing pitch
        np.testing.assert_allclose(designed_crystal.widths[:-1], width)
        assert set(np.unique(designed_crystal.orientations)) <= {-1, 1}
        assert designed_crystal.boundaries[0] == pytest.approx(-length / 2)
        assert designed_crystal.boundaries[-1] == pytest.approx(length / 2)
        assert designed_crystal.orientations.shape == designed_crystal.widths.shape

    def test_overlap_with_target(self, designed_crystal, comb):
        assert design_overlap(designed_crystal, comb) > 0.99

    def test_single_gaussian_target(self):
        comb = CombSpec(
            pair_count=1, spacing=0.0, peak_width=30e-3 / 4.5, center=DK0, length=30e-3
        )
        cfgd = design_domains(comb, 23e-6)
        assert design_overlap(cfgd, comb) > 0.99

    def test_rejects_bad_domain_width(self, comb):
        with pytest.raises(ValueError):
            design_domains(comb, 0.0)
        with pytest.raises(ValueError):
            design_domains(comb, comb.length * 2)

    def test_design_is_deterministic(self, comb, designed_crystal):
        again = design_domains(comb, 23e-6)
        np.testing.assert_array_equal(again.orientations, designed_crystal.orientations)


class TestDomainIO:
    def test_roundtrip(self, tmp_path, designed_crystal):
        path = tmp_path / "domains.tsv"
        save_domains(designed_crystal, path)
        back = load_domains(path)
        np.testing.assert_allclose(back.widths, designed_crystal.widths, rtol=1e-11)
        np.testing.assert_array_equal(back.orientations, designed_crystal.orientations)
        assert back.total_length == pytest.approx(designed_crystal.total_length)


@settings(deadline=None, max_examples=25)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_pmf_magnitude_is_bounded(n, seed):
    """No domain pattern can beat periodic poling by more than the first
    Fourier coefficient margin: |phi| <= pi/2 * sinc envelope <= pi/2."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(5e-6, 40e-6, n)
    cfgd = DomainConfig(
        widths=widths,
        orientations=rng.choice([-1, 1], n),
        total_length=float(widths.sum()),
    )
    dk = rng.uniform(0.2 * DK0, 2.0 * DK0, 16)
    assert np.all(np.abs(pmf_of_domains(cfgd, dk)) <= np.pi / 2 + 1e-12)
