import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge.analysis import schmidt_number
from qpmforge.biphoton import FrequencyGrid
from qpmforge.interference import (
    FitError,
    HomCurve,
    bin_hz_from_delta,
    bin_model_jsa,
    closed_curve,
    delta_from_bin_hz,
    fit_hom,
    load_curve,
    numeric_curve,
    p2_closed,
    p2_numeric,
    p4_closed,
    p4_numeric,
    save_curve,
    visibility,
)

SIGMA = 1.0e12  # rad/s; keeps delta/sigma >= 5 for the 500 GHz defaults
DELTA_500 = delta_from_bin_hz(500e9)

TAUS = np.linspace(-5e-12, 5e-12, 161)


class TestClosedForms:
    def test_conversions_are_inverse(self):
        assert bin_hz_from_delta(delta_from_bin_hz(123e9)) == pytest.approx(123e9)

    def test_full_dip_and_baseline(self):
        p = p2_closed(TAUS, 4, DELTA_500, SIGMA)
        i0 = np.argmin(np.abs(TAUS))
        assert p[i0] <= 1e-5
        # the envelope dies as exp(-sigma^2 tau^2 / 4): gone by 10 ps here
        assert p2_closed(10e-12, 4, DELTA_500, SIGMA) == pytest.approx(0.5, abs=1e-9)
        assert p2_closed(-10e-12, 4, DELTA_500, SIGMA) == pytest.approx(0.5, abs=1e-9)

    def test_antibunching_extrema_at_half_beat_period(self):
        # first p2 maxima fall where every beat cosine is -1: tau = 2 pi / delta
        tau = np.linspace(0.2e-12, 2e-12, 3601)
        p = p2_closed(tau, 4, DELTA_500, SIGMA)
        t_star = tau[np.argmax(p)]
        assert t_star == pytest.approx(2 * np.pi / DELTA_500, rel=0.02)
        assert p.max() > 0.5

    def test_even_in_delay(self):
        tau = np.linspace(0.1e-12, 5e-12, 40)
        np.testing.assert_allclose(
            p2_closed(tau, 4, DELTA_500, SIGMA), p2_closed(-tau, 4, DELTA_500, SIGMA)
        )
        np.testing.assert_allclose(
            p4_closed(tau, 4, DELTA_500, SIGMA), p4_closed(-tau, 4, DELTA_500, SIGMA)
        )

    def test_heralded_visibility_is_half_per_pair(self):
        for n in (1, 2, 4):
            dip = p4_closed(0.0, n, 10 * SIGMA, SIGMA)
            assert (0.5 - dip) / 0.5 == pytest.approx(1.0 / (2 * n), abs=1e-4)

    def test_regime_warning_below_five_sigma(self):
        with pytest.warns(UserWarning, match="well-separated"):
            p2_closed(0.0, 4, 4.0 * SIGMA, SIGMA)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            p2_closed(0.0, 0, DELTA_500, SIGMA)
        with pytest.raises(ValueError):
            p2_closed(0.0, 4, -1.0, SIGMA)

    def test_closed_curve_reports_clamping(self):
        curve = closed_curve("two_photon", TAUS, 4, DELTA_500, SIGMA)
        assert curve.metadata["n_pairs"] == 4
        assert curve.metadata["clamped_points"] >= 0
        assert np.all(curve.values >= 0.0)


@pytest.fixture(scope="module")
def model_grid():
    return FrequencyGrid.symmetric(192, 2.5e12)


class TestNumericOracle:
    def test_p2_matches_closed(self, model_grid):
        sigma, n = 0.6e12, 2
        delta = 10 * sigma
        jsa = bin_model_jsa(n, delta, sigma, model_grid)
        closed = p2_closed(TAUS, n, delta, sigma)
        numeric = p2_numeric(jsa, TAUS)
        assert np.max(np.abs(closed - numeric)) < 2e-3

    def test_p4_matches_closed(self, model_grid):
        sigma, n = 0.6e12, 2
        delta = 10 * sigma
        jsa = bin_model_jsa(n, delta, sigma, model_grid)
        closed = p4_closed(TAUS, n, delta, sigma)
        numeric = p4_numeric(jsa, TAUS)
        assert np.max(np.abs(closed - numeric)) < 2e-3

    def test_heralded_dip_equals_inverse_schmidt(self, model_grid):
        sigma = 0.6e12
        jsa = bin_model_jsa(2, 10 * sigma, sigma, model_grid)
        k = schmidt_number(jsa)
        # p4(0) = 1/2 - purity/2 and heralded purity is 1/K
        assert p4_numeric(jsa, 0.0) == pytest.approx(0.5 - 0.5 / k, abs=1e-9)

    def test_scalar_delay_returns_float(self, model_grid):
        jsa = bin_model_jsa(1, 6e12, 0.6e12, model_grid)
        assert isinstance(p2_numeric(jsa, 0.0), float)
        assert isinstance(p4_numeric(jsa, 0.0), float)

    def test_numeric_curve_wrapper(self, model_grid):
        jsa = bin_model_jsa(1, 6e12, 0.6e12, model_grid)
        curve = numeric_curve(jsa, TAUS, kind="heralded")
        assert curve.kind == "heralded"
        np.testing.assert_allclose(curve.values, p4_numeric(jsa, TAUS))

    def test_requires_square_grid(self):
        grid = FrequencyGrid(
            nu_signal=np.linspace(-1e12, 1e12, 32),
            nu_idler=np.linspace(-2e12, 2e12, 48),
        )
        jsa = bin_model_jsa(1, 6e12, 0.6e12, grid)
        with pytest.raises(ValueError):
            p2_numeric(jsa, 0.0)


class TestVisibility:
    def test_full_visibility_two_photon(self):
        curve = closed_curve("two_photon", TAUS, 4, 10 * SIGMA, SIGMA)
        result = visibility(curve)
        assert result.value == pytest.approx(1.0, abs=1e-3)
        assert result.baseline == pytest.approx(0.5, abs=1e-3)

    def test_explicit_baseline(self):
        curve = closed_curve("heralded", TAUS, 4, 10 * SIGMA, SIGMA)
        result = visibility(curve, baseline=0.5)
        assert result.value == pytest.approx(0.125, abs=1e-4)

    def test_requires_zero_delay_sample(self):
        curve = HomCurve(
            delays=np.linspace(1e-12, 2e-12, 20),
            values=np.full(20, 0.5),
            kind="two_photon",
        )
        with pytest.raises(ValueError):
            visibility(curve)


class TestFit:
    def make_counts(self, kind, n=4, scale=4000.0, noisy=False, seed=0):
        curve = closed_curve(kind, TAUS, n, DELTA_500, SIGMA)
        expected = scale * curve.values
        values = expected
        if noisy:
            values = np.random.default_rng(seed).poisson(expected).astype(float)
        return HomCurve(delays=TAUS, values=values, kind=kind)

    def test_recovers_spacing_from_clean_curve(self):
        fit = fit_hom(self.make_counts("two_photon"), n_pairs=4)
        assert fit.delta_hz == pytest.approx(500e9, rel=1e-6)
        assert fit.visibility == pytest.approx(1.0, abs=1e-6)
        assert fit.background == pytest.approx(2000.0, rel=1e-6)

    def test_recovers_spacing_from_poisson_counts(self):
        fit = fit_hom(self.make_counts("two_photon", noisy=True, seed=0), n_pairs=4)
        assert fit.delta_hz == pytest.approx(500e9, rel=5e-3)
        assert fit.delta_hz_std < 0.01 * 500e9

    def test_heralded_fit_keeps_spacing_fixed(self):
        fit = fit_hom(
            self.make_counts("heralded"),
            n_pairs=4,
            initial={"delta": DELTA_500},
        )
        assert fit.kind == "heralded"
        assert fit.delta_hz == pytest.approx(500e9)
        assert np.isnan(fit.delta_hz_std)
        assert fit.visibility == pytest.approx(0.125, abs=1e-4)

    def test_spacing_is_never_guessed(self):
        # a heralded fit needs the spacing it holds fixed, and a flat
        # two-photon curve has no beat to recover it from
        with pytest.raises(ValueError, match="delta"):
            fit_hom(self.make_counts("heralded"), n_pairs=4)
        flat = HomCurve(delays=TAUS, values=np.full(TAUS.size, 100.0), kind="two_photon")
        with pytest.raises(FitError, match="no beat"):
            fit_hom(flat)

    def test_rejects_unknown_initial_keys(self):
        with pytest.raises(ValueError, match="unknown initial-guess"):
            fit_hom(self.make_counts("two_photon"), initial={"slope": 1.0})

    def test_rejects_sparse_curves(self):
        curve = HomCurve(
            delays=np.linspace(-1e-12, 1e-12, 5),
            values=np.full(5, 0.5),
            kind="two_photon",
        )
        with pytest.raises(ValueError):
            fit_hom(curve)

    def test_to_text_lists_parameters(self):
        fit = fit_hom(self.make_counts("two_photon"), n_pairs=4)
        text = fit.to_text()
        for token in ("delta_hz:", "visibility:", "background:"):
            assert token in text


class TestCurveIO:
    def test_roundtrip(self, tmp_path):
        curve = closed_curve("two_photon", TAUS, 4, 10 * SIGMA, SIGMA)
        path = tmp_path / "curve.tsv"
        save_curve(curve, path)
        back = load_curve(path)
        assert back.kind == "two_photon"
        np.testing.assert_allclose(back.delays, curve.delays, rtol=1e-11)
        np.testing.assert_allclose(back.values, curve.values, rtol=1e-11)

    def test_missing_kind_header_rejected(self, tmp_path):
        path = tmp_path / "nokind.tsv"
        path.write_text("0.0,0.5\n1.0e-12,0.6\n")
        with pytest.raises(ValueError):
            load_curve(path)

    def test_curve_shape_validation(self):
        with pytest.raises(ValueError):
            HomCurve(delays=np.zeros(3), values=np.zeros(4), kind="two_photon")
        with pytest.raises(ValueError):
            HomCurve(delays=np.zeros(3), values=np.zeros(3), kind="whatever")


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(min_value=1, max_value=6),
    ratio=st.floats(min_value=5.0, max_value=30.0),
    tau_ps=st.floats(min_value=-20.0, max_value=20.0),
)
def test_closed_forms_stay_in_unit_interval(n, ratio, tau_ps):
    tau = tau_ps * 1e-12
    p2 = p2_closed(tau, n, ratio * SIGMA, SIGMA)
    p4 = p4_closed(tau, n, ratio * SIGMA, SIGMA)
    assert 0.0 <= p2 <= 1.0
    assert 0.0 <= p4 <= 1.0
