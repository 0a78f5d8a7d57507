import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpmforge import analysis
from qpmforge.analysis import (
    counts_schmidt_number,
    report_from_jsa,
    schmidt_number,
    schmidt_weights,
)
from qpmforge.biphoton import FrequencyGrid, build_jsa
from qpmforge.measurement import simulate_counts

from oracles import (
    fidelity_to_maximal,
    gradient_schmidt_number_std,
    monte_carlo_uncertainty,
    normalized,
    svd_weights,
)

SKETCH = analysis._SKETCH_COLUMNS  # columns of schmidt_weights' range sketch


def separable_gaussian(n=128, half_span=2e12):
    grid = FrequencyGrid.symmetric(n, half_span)
    s = np.exp(-(grid.nu / (2 * np.pi * 0.4e12)) ** 2)
    i = np.exp(-(grid.nu / (2 * np.pi * 0.25e12)) ** 2)
    return normalized(np.outer(i, s), grid)


class TestSchmidtDecompose:
    """The Schmidt weights and the report built from them."""

    def test_separable_state_is_single_mode(self):
        report = report_from_jsa(separable_gaussian(), n_modes=1)
        assert report.schmidt_number == pytest.approx(1.0, abs=1e-9)
        assert report.entropy_bits == pytest.approx(0.0, abs=1e-8)
        assert report.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_eight_modes(self):
        amp = np.zeros((32, 32))
        amp[np.arange(8), np.arange(8)] = 1.0
        report = report_from_jsa(amp, n_modes=8)
        assert report.schmidt_number == pytest.approx(8.0, rel=1e-12)
        assert report.entropy_bits == pytest.approx(3.0, rel=1e-12)
        assert report.fidelity == pytest.approx(1.0, rel=1e-12)

    def test_weights_sorted_and_normalized(self, comb_jsa):
        weights = schmidt_weights(comb_jsa)
        assert np.all(np.diff(weights) <= 1e-15)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_zero_and_bad_shape(self):
        for fn in (schmidt_weights, schmidt_number):
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
        assert report_from_jsa(amp, 8).fidelity == pytest.approx(1.0, rel=1e-12)

    def test_partial_weight_penalty(self):
        # weights (1/2, 1/2) against a 4-mode target: F = (2 sqrt(1/8))^2 = 1/2
        amp = np.diag([1.0, 1.0, 0.0, 0.0])
        assert report_from_jsa(amp, 4).fidelity == pytest.approx(0.5, rel=1e-12)

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            report_from_jsa(np.eye(4), 0)


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


def schmidt_number_std(counts):
    return counts_schmidt_number(counts)[1]


class TestSchmidtNumberStd:
    def test_k_is_schmidt_number_of_sqrt_counts(self):
        # the same Gram matrix and the same trace^2 / norm^2, bit for bit
        counts = np.random.default_rng(6).poisson(20.0, size=(9, 14)).astype(float)
        for c in (counts, counts.T):
            assert counts_schmidt_number(c)[0] == schmidt_number(np.sqrt(c))

    def test_half_the_gradient_norm_in_sqrt_counts(self):
        # Var(sqrt(n)) is close to 1/4 for a Poisson count, so the std is
        # |grad K| / 2, with the gradient taken by central differences
        counts = np.random.default_rng(8).poisson(30.0, size=(7, 5)).astype(float)
        counts[2, 3] = 0.0  # an empty cell enters the sum too
        for c in (counts, counts.T):  # the Gram matrix of either side
            root = np.sqrt(c)
            grad = np.zeros_like(root)
            for idx in np.ndindex(root.shape):
                up, down = root.copy(), root.copy()
                up[idx] += 1e-5
                down[idx] -= 1e-5
                grad[idx] = (schmidt_number(up) - schmidt_number(down)) / 2e-5
            assert abs(grad[np.nonzero(c == 0)]).min() > 1e-3
            assert schmidt_number_std(c) == pytest.approx(0.5 * np.linalg.norm(grad), rel=1e-6)

    def test_gram_form_equals_gradient_form(self, cfg, grid):
        # the std from Tr G, ||G||_F^2 and Tr G^3 equals half the norm of
        # the gradient formed cell by cell, on tall, wide and random
        # matrices and on the seed-1 counts of the default readout
        rng = np.random.default_rng(9)
        intensity = build_jsa(cfg.comb_spec(), cfg.pump_spec(), cfg.dispersion_map(), grid).intensity
        readout = simulate_counts(
            intensity, cfg.spectrometer_spec(), cfg["spectrometer"]["events"],
            seed=1, max_alias_fraction=cfg["spectrometer"]["max_alias_fraction"],
        )
        cases = {
            "tall": rng.poisson(40.0, size=(60, 25)),
            "wide": rng.poisson(40.0, size=(25, 60)),
            "random": rng.poisson(rng.uniform(0.0, 50.0, size=(120, 90))),
            "seed 1": readout.values,
        }
        for name, counts in cases.items():
            assert schmidt_number_std(counts) == pytest.approx(
                gradient_schmidt_number_std(counts), rel=1e-12, abs=0.0
            ), name

    def test_rank_one_std_is_zero_up_to_rounding(self):
        # a rank-1 matrix is a minimum of K = 1, so its gradient vanishes.
        # The gradient form reads that 0 to round-off.  The Gram form
        # reads the std as 2K sqrt(b / total) through the bracket
        # b = N Tr G^3 / F^2 - 1, exactly 0 here, which rounding leaves at
        # a few eps: its std can read up to 2K sqrt(8 eps / total).
        rng = np.random.default_rng(11)
        eps = np.finfo(float).eps
        for shape in ((7, 5), (5, 7), (300, 200)):
            for scale in (1.0, 1e2, 1e6):
                counts = scale * np.outer(rng.uniform(0.1, 1.0, shape[0]),
                                          rng.uniform(0.1, 1.0, shape[1]))
                k, std = counts_schmidt_number(counts)
                assert k == pytest.approx(1.0, abs=1e-12)
                assert gradient_schmidt_number_std(counts) <= 1e-12
                assert std <= 2.0 * k * np.sqrt(8.0 * eps / counts.sum())

    def test_holds_no_array_the_size_of_the_counts_but_its_root(self):
        # a float copy of the integer counts, sqrt(counts), the 500^2 Gram
        # matrix and G @ G, 2 MB each and never all four at once: no
        # unit-peak copy, A G or gradient of the counts' size (the gradient
        # form traced 14.0 MB)
        counts = np.random.default_rng(13).poisson(170.0, size=(500, 500))
        tracemalloc.start()
        try:
            counts_schmidt_number(counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_unit_peak_scaling(self):
        # 1e300 counts would overflow the unscaled fourth powers; the std
        # falls as 1/sqrt(counts) while K stays put
        counts = np.random.default_rng(4).poisson(50.0, size=(12, 9)).astype(float)
        assert schmidt_number_std(1e300 * counts) == pytest.approx(
            1e-150 * schmidt_number_std(counts), rel=1e-12
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            schmidt_number_std(-np.ones((4, 4)))
        with pytest.raises(ValueError):
            schmidt_number_std(np.ones(5))
        with pytest.raises(ValueError):
            schmidt_number_std(np.zeros((4, 4)))
        with pytest.raises(np.linalg.LinAlgError):
            schmidt_number_std(np.full((4, 4), np.inf))


class TestReport:
    def test_text_contains_metrics(self, comb_jsa):
        report = report_from_jsa(comb_jsa, n_modes=8)
        text = report.to_text()
        assert "schmidt_number" in text
        assert "fidelity_maximal_8" in text

    def test_report_weights_match_decomposition(self, comb_jsa):
        # absolute agreement: both routes carry round-off of about eps times
        # the largest weight, so a weight near the 1e-12 floor agrees to
        # about 1e-7 of itself and every larger weight far better
        report = report_from_jsa(comb_jsa, n_modes=8)
        want = svd_weights(comb_jsa)
        assert report.weights.shape == want.shape
        np.testing.assert_allclose(report.weights, want, rtol=0, atol=1e-14)


def test_pipeline_computes_no_singular_vectors(monkeypatch, comb_jsa):
    """K, its error bar and the report need no Schmidt modes: no SVD runs,
    and the report's weights come from one QR of the 64-column sample and
    the eigenvalues of a 64 x 64 matrix, not of the 1024^2 Gram matrix."""
    calls = []
    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr"):
        decomposition = getattr(np.linalg, name)
        monkeypatch.setattr(
            np.linalg, name,
            lambda matrix, *args, _name=name, _fn=decomposition, **kwargs: (
                calls.append((_name, np.shape(matrix))) or _fn(matrix, *args, **kwargs)
            ),
        )
    report_from_jsa(comb_jsa, n_modes=8)
    counts = np.random.default_rng(5).poisson(50.0, size=(40, 30)).astype(float)
    schmidt_number(np.sqrt(counts))
    counts_schmidt_number(counts)
    assert calls == [("qr", (len(comb_jsa.values), SKETCH)), ("eigvalsh", (SKETCH, SKETCH))]


def test_report_holds_no_square_temporary(designed_crystal, pump, dispersion, grid):
    """build_jsa keeps the amplitude as its two factors and the sketch
    reads it n x 64 columns at a time, so its largest temporaries are
    n x 64: the traced peak of building the amplitude and its report
    stays under half of one 1024^2 amplitude, where a Gram matrix alone
    would take all of it."""
    assert grid.shape == (1024, 1024)
    tracemalloc.start()
    try:
        report_from_jsa(build_jsa(designed_crystal, pump, dispersion, grid), n_modes=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 1024**2 * np.dtype(complex).itemsize


def test_wide_complex_amplitude_is_not_copied():
    """A wide amplitude is taken by its transpose view: schmidt_number of
    a complex 512 x 1024 amplitude holds its 512^2 Gram matrix and one
    block, not a conjugated 8.4 MB copy of the amplitude."""
    rng = np.random.default_rng(12)
    amp = rng.normal(size=(512, 1024)) + 1j * rng.normal(size=(512, 1024))
    tracemalloc.start()
    try:
        wide = schmidt_number(amp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert wide == pytest.approx(schmidt_number(amp.T.copy()), rel=1e-12)


def chosen_rank_amplitude(rng, shape, rank, complex_valued):
    """U diag(s) V^H with random orthonormal U, V and s log-uniform in
    [1e-4, 1]: every weight is above 1e-8 / rank, far over the floor."""
    def orthonormal(n):
        z = rng.normal(size=(n, rank))
        if complex_valued:
            z = z + 1j * rng.normal(size=(n, rank))
        return np.linalg.qr(z)[0]

    s = 10.0 ** rng.uniform(-4.0, 0.0, size=rank)
    return (orthonormal(shape[0]) * s) @ orthonormal(shape[1]).conj().T


@pytest.mark.parametrize("rank", [1, SKETCH - 1, SKETCH, SKETCH + 1, 3 * SKETCH, "full"])
@settings(deadline=None, max_examples=8)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    width=st.integers(2, 300),
    extra=st.integers(0, 40),
    transpose=st.booleans(),
    complex_valued=st.booleans(),
)
def test_sketch_weights_match_svd(rank, seed, width, extra, transpose, complex_valued):
    """Every route of schmidt_weights gives the full decomposition's weights.

    The certificate alone picks the route: an amplitude of rank <= 64 is
    sketched, however narrow, and a wider spectrum fails the certificate
    and takes the dense Gram matrix."""
    rank = width if rank == "full" else rank
    width = max(width, rank)
    shape = (width + extra, width)[::-1 if transpose else 1]
    amp = chosen_rank_amplitude(np.random.default_rng(seed), shape, rank, complex_valued)
    with mock.patch.object(analysis, "_unit_gram", wraps=analysis._unit_gram) as dense:
        got = schmidt_weights(amp)
    assert dense.called == (rank > SKETCH)
    want = svd_weights(amp)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(schmidt_weights(amp), got)


def test_svd_oracle_converges_on_a_rank_64_amplitude():
    # with its singular vectors, np.linalg.svd raised "SVD did not
    # converge" on this amplitude, which test_sketch_weights_match_svd's
    # strategy can draw; the values alone converge, s_64 = 1.0e-4 above
    # s_65 = 3e-16, and the sketch's weights match them
    amp = chosen_rank_amplitude(np.random.default_rng(344), (248, 223), 64, False)
    want = svd_weights(amp)
    assert want.shape == (64,)
    np.testing.assert_allclose(schmidt_weights(amp), want, rtol=0, atol=1e-14)


def test_designed_weights_match_the_full_decomposition(designed_jsa):
    # the sketch's eigenvalues against np.linalg.svd's squared singular
    # values, as TestReport checks the comb's: the same weights survive
    # the 1e-12 floor
    got, want = schmidt_weights(designed_jsa), svd_weights(designed_jsa)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


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
    assert schmidt_number(amp) == pytest.approx(1.0 / np.sum(svd_weights(amp) ** 2), rel=1e-12)
    assert report_from_jsa(amp, n_modes).fidelity == pytest.approx(
        fidelity_to_maximal(amp, n_modes), rel=1e-12
    )


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31), n_modes=st.integers(1, 12))
def test_fidelity_bounds(seed, n_modes):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(16, 16))
    f = report_from_jsa(amp, n_modes).fidelity
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
