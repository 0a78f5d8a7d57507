import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge.analysis import (
    fidelity_to_maximal,
    monte_carlo_uncertainty,
    report_from_jsa,
    schmidt_decompose,
    schmidt_number,
)
from qpmforge.biphoton import FrequencyGrid, JointSpectralAmplitude


def separable_gaussian(n=128, half_span=2e12):
    grid = FrequencyGrid.symmetric(n, half_span)
    s = np.exp(-(grid.nu_signal / (2 * np.pi * 0.4e12)) ** 2)
    i = np.exp(-(grid.nu_idler / (2 * np.pi * 0.25e12)) ** 2)
    return JointSpectralAmplitude(grid=grid, values=np.outer(i, s)).normalized()


class TestSchmidtDecompose:
    def test_separable_state_is_single_mode(self):
        spectrum = schmidt_decompose(separable_gaussian())
        assert spectrum.schmidt_number == pytest.approx(1.0, abs=1e-9)
        assert spectrum.entropy() == pytest.approx(0.0, abs=1e-8)
        assert spectrum.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_eight_modes(self):
        amp = np.zeros((32, 32))
        amp[np.arange(8), np.arange(8)] = 1.0
        spectrum = schmidt_decompose(amp)
        assert spectrum.schmidt_number == pytest.approx(8.0, rel=1e-12)
        assert spectrum.entropy() == pytest.approx(3.0, rel=1e-12)
        assert fidelity_to_maximal(spectrum, 8) == pytest.approx(1.0, rel=1e-12)

    def test_weights_sorted_and_normalized(self, comb_jsa):
        spectrum = schmidt_decompose(comb_jsa)
        assert np.all(np.diff(spectrum.weights) <= 1e-15)
        assert spectrum.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_modes_are_orthonormal(self, comb_jsa):
        spectrum = schmidt_decompose(comb_jsa)
        top = spectrum.signal_modes[:, :8]
        gram = top.conj().T @ top
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-10)

    def test_rejects_zero_and_bad_shape(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            schmidt_decompose(np.zeros(7))


class TestFidelity:
    def test_phase_invariance(self):
        rng = np.random.default_rng(3)
        amp = np.zeros((16, 16), dtype=complex)
        amp[np.arange(8), np.arange(8)] = np.exp(1j * rng.uniform(0, 2 * np.pi, 8))
        assert fidelity_to_maximal(amp, 8) == pytest.approx(1.0, rel=1e-12)

    def test_partial_weight_penalty(self):
        # weights (1/2, 1/2) against a 4-mode target: F = (2 sqrt(1/8))^2 = 1/2
        amp = np.diag([1.0, 1.0, 0.0, 0.0])
        assert fidelity_to_maximal(amp, 4) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            fidelity_to_maximal(np.eye(4), 0)


class TestMonteCarlo:
    def test_reproducible_and_positive(self):
        rng = np.random.default_rng(0)
        counts = rng.poisson(200.0, size=(24, 24)).astype(float)
        a = monte_carlo_uncertainty(counts, n_resamples=64, seed=11)
        b = monte_carlo_uncertainty(counts, n_resamples=64, seed=11)
        assert a == b
        assert a[1] > 0

    def test_mean_tracks_point_estimate_at_high_counts(self):
        amp = np.zeros((16, 16))
        amp[np.arange(4), np.arange(4)] = 1.0
        counts = 1e6 * amp ** 2
        mean, std = monte_carlo_uncertainty(counts, n_resamples=64, seed=2)
        assert mean == pytest.approx(schmidt_number(np.sqrt(counts)), rel=0.02)
        assert std < 0.05

    def test_fidelity_metric(self):
        counts = np.zeros((8, 8))
        counts[np.arange(4), np.arange(4)] = 1e5
        mean, std = monte_carlo_uncertainty(
            counts, metric="fidelity", n_modes=4, n_resamples=32, seed=7
        )
        assert mean == pytest.approx(1.0, abs=1e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(np.ones((4, 4)), metric="nope", n_resamples=4)
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(-np.ones((4, 4)), n_resamples=4)
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(np.ones(5), n_resamples=4)
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(np.ones((4, 4)), n_resamples=1)


class TestReport:
    def test_text_contains_metrics(self, comb_jsa):
        report = report_from_jsa(comb_jsa, n_modes=8)
        text = report.to_text()
        assert "schmidt_number" in text
        assert "fidelity_maximal_8" in text
        assert report.summary().startswith("K=")

    def test_report_weights_match_decomposition(self, comb_jsa):
        report = report_from_jsa(comb_jsa, n_modes=8)
        spectrum = schmidt_decompose(comb_jsa)
        np.testing.assert_allclose(report.weights, spectrum.weights)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_schmidt_number_bounds(seed):
    """1 <= K <= min(matrix dims) for any amplitude."""
    rng = np.random.default_rng(seed)
    n_i, n_s = rng.integers(2, 24, size=2)
    amp = rng.normal(size=(n_i, n_s)) + 1j * rng.normal(size=(n_i, n_s))
    k = schmidt_number(amp)
    assert 1.0 - 1e-12 <= k <= min(n_i, n_s) + 1e-9


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31), n_modes=st.integers(1, 12))
def test_fidelity_bounds(seed, n_modes):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(16, 16))
    f = fidelity_to_maximal(amp, n_modes)
    assert 0.0 <= f <= 1.0 + 1e-12


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_local_unitary_invariance(seed):
    """K is invariant under unitaries acting on either photon alone."""
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
    assert schmidt_number(q @ amp) == pytest.approx(schmidt_number(amp), rel=1e-9)
    assert schmidt_number(amp @ q) == pytest.approx(schmidt_number(amp), rel=1e-9)
