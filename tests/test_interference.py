import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge.analysis import schmidt_number
from qpmforge.biphoton import FrequencyGrid
from qpmforge.interference import (
    FitError,
    HomCurve,
    _dip_shape,
    _guess_delta,
    bin_hz_from_delta,
    closed_curve,
    delta_from_bin_hz,
    fit_hom,
    load_curve,
    save_curve,
)

from oracles import bin_model_jsa, hom_numeric, visibility

SIGMA = 1.0e12  # rad/s; keeps delta/sigma >= 5 for the 500 GHz defaults
DELTA_500 = delta_from_bin_hz(500e9)

TAUS = np.linspace(-5e-12, 5e-12, 161)


class TestClosedForms:
    def test_conversions_are_inverse(self):
        assert bin_hz_from_delta(delta_from_bin_hz(123e9)) == pytest.approx(123e9)

    def test_full_dip_and_baseline(self):
        p = closed_curve("two_photon", TAUS, 4, DELTA_500, SIGMA).values
        i0 = np.argmin(np.abs(TAUS))
        assert p[i0] <= 1e-5
        # the envelope dies as exp(-sigma^2 tau^2 / 4): gone by 10 ps here
        far = closed_curve("two_photon", [10e-12, -10e-12], 4, DELTA_500, SIGMA).values
        assert far[0] == pytest.approx(0.5, abs=1e-9)
        assert far[1] == pytest.approx(0.5, abs=1e-9)

    def test_antibunching_extrema_at_half_beat_period(self):
        # first p2 maxima fall where every beat cosine is -1: tau = 2 pi / delta
        tau = np.linspace(0.2e-12, 2e-12, 3601)
        p = closed_curve("two_photon", tau, 4, DELTA_500, SIGMA).values
        t_star = tau[np.argmax(p)]
        assert t_star == pytest.approx(2 * np.pi / DELTA_500, rel=0.02)
        assert p.max() > 0.5

    def test_even_in_delay(self):
        tau = np.linspace(0.1e-12, 5e-12, 40)
        for kind in ("two_photon", "heralded"):
            np.testing.assert_allclose(
                closed_curve(kind, tau, 4, DELTA_500, SIGMA).values,
                closed_curve(kind, -tau, 4, DELTA_500, SIGMA).values,
            )

    def test_heralded_visibility_is_half_per_pair(self):
        for n in (1, 2, 4):
            dip = closed_curve("heralded", [0.0], n, 10 * SIGMA, SIGMA).values[0]
            assert (0.5 - dip) / 0.5 == pytest.approx(1.0 / (2 * n), abs=1e-4)

    def test_regime_warning_below_five_sigma(self):
        with pytest.warns(UserWarning, match="well-separated"):
            closed_curve("two_photon", [0.0], 4, 4.0 * SIGMA, SIGMA)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            closed_curve("two_photon", [0.0], 0, DELTA_500, SIGMA)
        with pytest.raises(ValueError):
            closed_curve("two_photon", [0.0], 4, -1.0, SIGMA)

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
        closed = closed_curve("two_photon", TAUS, n, delta, sigma).values
        numeric = hom_numeric(jsa, TAUS)[0]
        assert np.max(np.abs(closed - numeric)) < 2e-3

    def test_p4_matches_closed(self, model_grid):
        sigma, n = 0.6e12, 2
        delta = 10 * sigma
        jsa = bin_model_jsa(n, delta, sigma, model_grid)
        closed = closed_curve("heralded", TAUS, n, delta, sigma).values
        numeric = hom_numeric(jsa, TAUS)[1]
        assert np.max(np.abs(closed - numeric)) < 2e-3

    def test_heralded_dip_equals_inverse_schmidt(self, model_grid):
        sigma = 0.6e12
        jsa = bin_model_jsa(2, 10 * sigma, sigma, model_grid)
        k = schmidt_number(jsa)
        # p4(0) = 1/2 - purity/2 and heralded purity is 1/K
        assert hom_numeric(jsa, 0.0)[1][0] == pytest.approx(0.5 - 0.5 / k, abs=1e-9)


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

    def test_delta_std_describes_refit_scatter(self):
        # 60 Poisson draws of one curve at 10^6 counts per point
        fits = [
            fit_hom(self.make_counts("two_photon", scale=2e6, noisy=True, seed=s), n_pairs=4)
            for s in range(60)
        ]
        scatter = np.std([f.delta_hz for f in fits], ddof=1)
        reported = np.mean([f.delta_hz_std for f in fits])
        assert reported == pytest.approx(scatter, rel=0.25)

    @pytest.mark.parametrize("kind, scale", [("two_photon", 2e6), ("heralded", 2e4)])
    def test_matches_curve_fit(self, kind, scale):
        # scipy's curve_fit from the same guesses, as fit_hom once called it, is the oracle
        from scipy.optimize import curve_fit

        for seed in range(10):
            curve = self.make_counts(kind, scale=scale, noisy=True, seed=seed)
            tau, y = curve.delays, curve.values
            b0 = y[np.abs(tau) >= 0.75 * np.max(np.abs(tau))].mean()
            v0 = np.clip(1.0 - y[np.argmin(np.abs(tau))] / b0, 0.05, 1.0)
            s0 = 4.0 / (tau.max() - tau.min())
            if kind == "two_photon":
                d0 = _guess_delta(tau, y)
                fit = fit_hom(curve, n_pairs=4)

                def model(t, d, s, v, b):
                    return b * (1.0 - v * _dip_shape(kind, t, 4, d, s))

                p0 = [d0, s0, v0, b0]
                bounds = ([0.5 * d0, 1e-3 * s0, 0.0, 0.0], [2.0 * d0, 1e3 * s0, 1.0, np.inf])
                got = [delta_from_bin_hz(fit.delta_hz), fit.sigma, fit.visibility, fit.background]
            else:
                fit = fit_hom(curve, n_pairs=4, delta=DELTA_500)

                def model(t, s, v, b):
                    return b * (1.0 - v * _dip_shape(kind, t, 4, DELTA_500, s))

                p0 = [s0, v0, b0]
                bounds = ([1e-3 * s0, 0.0, 0.0], [1e3 * s0, 1.0, np.inf])
                got = [fit.sigma, fit.visibility, fit.background]
            want, _ = curve_fit(
                model, tau, y, p0=p0, sigma=np.sqrt(np.clip(y, 1.0, None)),
                absolute_sigma=True, bounds=bounds, maxfev=20000,
            )
            np.testing.assert_allclose(got, want, rtol=1e-5, err_msg=f"seed {seed}")

    def test_spacing_is_not_a_harmonic_of_the_beat(self, pump):
        # 161 points at 500 counts per point with the default pump, as the
        # hom stage draws them: the FFT guess lands on the 3rd or 5th beat
        # for seeds 0, 4, 5 and 7, and a fit held near it reported 749 GHz
        with pytest.warns(UserWarning, match="well-separated"):
            curve = closed_curve("two_photon", TAUS, 4, DELTA_500, pump.sigma)
        for seed in range(8):
            counts = np.random.default_rng(seed).poisson(2.0 * 500 * curve.values)
            noisy = HomCurve(delays=TAUS, values=counts.astype(float), kind="two_photon")
            fit = fit_hom(noisy, n_pairs=4)
            assert fit.delta_hz == pytest.approx(500e9, rel=5e-3), f"seed {seed}"

    def test_heralded_fit_keeps_spacing_fixed(self):
        fit = fit_hom(self.make_counts("heralded"), n_pairs=4, delta=DELTA_500)
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
            fit_hom(flat, n_pairs=4)

    def test_rejects_sparse_curves(self):
        curve = HomCurve(
            delays=np.linspace(-1e-12, 1e-12, 5),
            values=np.full(5, 0.5),
            kind="two_photon",
        )
        with pytest.raises(ValueError):
            fit_hom(curve, n_pairs=4)

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
    p2 = closed_curve("two_photon", [tau], n, ratio * SIGMA, SIGMA).values[0]
    p4 = closed_curve("heralded", [tau], n, ratio * SIGMA, SIGMA).values[0]
    assert 0.0 <= p2 <= 1.0
    assert 0.0 <= p4 <= 1.0
