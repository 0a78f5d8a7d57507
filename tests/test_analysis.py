import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge.analysis import (
    monte_carlo_uncertainty,
    report_from_jsa,
    schmidt_decompose,
    schmidt_number,
    schmidt_weights,
)
from qpmforge.biphoton import FrequencyGrid, JointSpectralAmplitude

from oracles import NU0, fidelity_to_maximal


def separable_gaussian(n=128, half_span=2e12):
    grid = FrequencyGrid.symmetric(n, half_span)
    s = np.exp(-(grid.nu / (2 * np.pi * 0.4e12)) ** 2)
    i = np.exp(-(grid.nu / (2 * np.pi * 0.25e12)) ** 2)
    return JointSpectralAmplitude(
        grid=grid, values=np.outer(i, s), center_frequency_hz=NU0
    ).normalized()


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
        for fn in (schmidt_decompose, schmidt_weights, schmidt_number):
            with pytest.raises(ValueError):
                fn(np.zeros((4, 4)))
            with pytest.raises(ValueError):
                fn(np.zeros(7))
            for bad in (np.nan, np.inf):
                amp = np.eye(4)
                amp[1, 2] = bad
                with pytest.raises(np.linalg.LinAlgError):
                    fn(amp)


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


def all_cells_bootstrap(counts, n_resamples, seed):
    """monte_carlo_uncertainty drawing a Poisson replica of every cell."""

    def one_trial(k):
        rng = np.random.default_rng([seed, k])
        resampled = rng.poisson(counts).astype(float)
        if resampled.sum() == 0:
            resampled = counts.copy()
        return schmidt_number(np.sqrt(resampled))

    values = np.fromiter(map(one_trial, range(n_resamples)), dtype=float)
    return float(values.mean()), float(values.std(ddof=1))


class TestMonteCarlo:
    def test_support_draw_matches_all_cells_oracle(self):
        rng = np.random.default_rng(3)
        sparse = rng.poisson(40.0, size=(30, 24)) * (rng.random((30, 24)) < 0.25)
        tiny = np.array([[0.0, 0.4], [0.3, 0.0]])
        # some replica of the tiny matrix draws no counts at all
        assert any(
            not np.random.default_rng([7, k]).poisson(tiny).any() for k in range(32)
        )
        for counts, seed in ((sparse.astype(float), 5), (tiny, 7)):
            assert np.any(counts == 0)
            assert monte_carlo_uncertainty(
                counts, n_resamples=32, seed=seed
            ) == all_cells_bootstrap(counts, 32, seed)

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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(-np.ones((4, 4)), n_resamples=4, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(np.ones(5), n_resamples=4, seed=0)
        with pytest.raises(ValueError):
            monte_carlo_uncertainty(np.ones((4, 4)), n_resamples=1, seed=0)


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


def test_pipeline_computes_no_singular_vectors(monkeypatch, comb_jsa):
    """K, the report and the bootstrap need no Schmidt modes."""
    svd = np.linalg.svd
    compute_uv_flags = []

    def recording_svd(a, full_matrices=True, compute_uv=True, hermitian=False):
        compute_uv_flags.append(compute_uv)
        return svd(a, full_matrices, compute_uv, hermitian)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    report_from_jsa(comb_jsa, n_modes=8)
    counts = np.random.default_rng(5).poisson(50.0, size=(40, 30)).astype(float)
    schmidt_number(np.sqrt(counts))
    monte_carlo_uncertainty(counts, n_resamples=3, seed=1)
    assert compute_uv_flags and not any(compute_uv_flags)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_schmidt_number_bounds(seed):
    """1 <= K <= min(matrix dims) for any amplitude."""
    rng = np.random.default_rng(seed)
    n_i, n_s = rng.integers(2, 24, size=2)
    amp = rng.normal(size=(n_i, n_s)) + 1j * rng.normal(size=(n_i, n_s))
    k = schmidt_number(amp)
    assert 1.0 - 1e-12 <= k <= min(n_i, n_s) + 1e-9


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    kind=st.sampled_from(["complex", "rank_one", "sqrt_poisson"]),
    n_modes=st.integers(1, 12),
)
def test_purity_and_weights_paths_match_svd(seed, kind, n_modes):
    """K from the Gram matrix and F from the singular values alone agree
    with the full decomposition, in either orientation."""
    rng = np.random.default_rng(seed)
    n_i, n_s = rng.integers(2, 40, size=2)
    if kind == "complex":
        amp = rng.normal(size=(n_i, n_s)) + 1j * rng.normal(size=(n_i, n_s))
    elif kind == "rank_one":
        amp = np.outer(
            rng.normal(size=n_i) + 1j * rng.normal(size=n_i),
            rng.normal(size=n_s) + 1j * rng.normal(size=n_s),
        )
    else:
        amp = np.sqrt(rng.poisson(rng.uniform(0.0, 100.0, size=(n_i, n_s))).astype(float))
    spectrum = schmidt_decompose(amp)
    assert schmidt_number(amp) == pytest.approx(spectrum.schmidt_number, rel=1e-12)
    assert fidelity_to_maximal(amp, n_modes) == pytest.approx(
        fidelity_to_maximal(spectrum, n_modes), rel=1e-12
    )


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
