"""Kernel evaluation, input generation and Gram assembly."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpforge import GramMatrix, InputData, KernelParams, gram, sample_inputs


def rbf(x, x_prime, params):
    """k(x, x') for one pair of d-vectors, from the definition: the oracle for gram."""
    d2 = float(np.sum((x - x_prime) ** 2))
    return float(params.variance * np.exp(-d2 / (2.0 * params.lengthscale**2)))


def make_params(**overrides):
    base = dict(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)
    base.update(overrides)
    return KernelParams(**base)


class TestKernelParams:
    """Field validation of the hyperparameter record."""

    def test_accepts_valid_values(self):
        p = make_params()
        assert p.variance == 1.0
        assert p.dim == 2

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            make_params(variance=-0.5)

    def test_rejects_nonpositive_lengthscale(self):
        with pytest.raises(ValueError):
            make_params(lengthscale=0.0)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError):
            make_params(noise_variance=0.0)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            make_params(dim=0)

    @pytest.mark.parametrize("field", ["variance", "lengthscale", "noise_variance"])
    def test_rejects_nan(self, field):
        """Every comparison with NaN is false, so each check is written to
        fail on it."""
        with pytest.raises(ValueError, match=field):
            make_params(**{field: math.nan})

    @pytest.mark.parametrize("field", ["variance", "lengthscale", "noise_variance"])
    def test_rejects_infinity(self, field):
        """+inf passed every check: an infinite variance or noise variance
        reached the samplers (exit 1) and the calculators (a kappa_bound
        of Infinity), and a config file's Infinity reaches from_dict. An
        int beyond the float range passed too, and gram or rff_sample then
        raised an OverflowError or a TypeError; from_dict refuses it as
        no JSON number, and the constructor as not finite."""
        for value in (math.inf, -math.inf, 10**400, -10**400):
            with pytest.raises(ValueError, match=field):
                make_params(**{field: value})
            with pytest.raises(ValueError, match=field):
                KernelParams.from_dict({**make_params().to_dict(), field: value})

    def test_dict_round_trip(self):
        p = make_params(variance=2.0, lengthscale=0.3, noise_variance=0.1, dim=3)
        d = p.to_dict()
        assert list(d) == ["variance", "lengthscale", "noise_variance", "dim"]
        assert KernelParams.from_dict(d) == p

    @pytest.mark.parametrize(
        "bad",
        [
            [1.0, 1.0, 0.25, 2],
            {"variance": 1.0, "lengthscale": 1.0, "noise_variance": 0.25},
            {"variance": 1.0, "lengthscale": 1.0, "noise_variance": 0.25, "dim": 2, "x": 1},
        ],
        ids=["non-mapping", "missing-key", "unknown-key"],
    )
    def test_from_dict_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            KernelParams.from_dict(bad)


class TestSampleInputs:
    """Random input generation."""

    def test_deterministic_per_seed(self):
        p = make_params()
        a = sample_inputs(50, p, seed=11)
        b = sample_inputs(50, p, seed=11)
        np.testing.assert_array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        p = make_params()
        a = sample_inputs(50, p, seed=11)
        b = sample_inputs(50, p, seed=12)
        assert not np.array_equal(a.points, b.points)

    def test_column_variance_matches_declared_distribution(self):
        """Entries are Normal(0, 1/d); the sample variance of each
        column at n=10000 must sit within 3 standard errors of 1/d."""
        p = make_params(dim=2)
        X = sample_inputs(10000, p, seed=3)
        se = 0.5 * math.sqrt(2.0 / (10000 - 1))
        for col in range(2):
            v = float(np.var(X.points[:, col], ddof=1))
            assert abs(v - 0.5) < 3 * se

    def test_single_point_shape(self):
        p = make_params(dim=3)
        X = sample_inputs(1, p, seed=0)
        assert X.points.shape == (1, 3)
        assert X.n == 1
        assert X.dim == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sample_inputs(0, make_params(), seed=0)


class TestGram:
    """Dense covariance matrix assembly."""

    def test_single_point(self):
        p = make_params(variance=1.5)
        X = sample_inputs(1, p, seed=4)
        K = gram(X, p, jitter=0.25)
        np.testing.assert_allclose(K.entries, [[1.75]])

    def test_duplicate_rows_without_jitter(self):
        """Two identical inputs give a rank-1 matrix of the variance."""
        p = make_params(variance=2.0)
        X = InputData(points=np.array([[0.5, 0.5], [0.5, 0.5]]))
        K = gram(X, p, jitter=0.0)
        np.testing.assert_allclose(K.entries, np.full((2, 2), 2.0))

    def test_smallest_eigenvalue_floored_by_jitter(self):
        p = make_params(lengthscale=1.2)
        X = sample_inputs(64, p, seed=5)
        K = gram(X, p, jitter=0.125)
        assert float(np.linalg.eigvalsh(K.entries)[0]) >= 0.125 - 1e-10

    @pytest.mark.parametrize(
        "n, dim",
        [pytest.param(n, 2, id=str(n)) for n in (2, 17, 128, 512)]
        + [pytest.param(512, dim, id=f"512-d{dim}") for dim in (20, 50)],
    )
    def test_symmetry_and_spectrum_across_sizes(self, n, dim):
        """Assembled matrices are exactly symmetric and their spectrum
        never dips more than rounding below the jitter floor."""
        p = make_params(variance=1.3, lengthscale=0.6, dim=dim)
        X = sample_inputs(n, p, seed=n)
        K = gram(X, p, jitter=0.1)
        np.testing.assert_array_equal(K.entries, K.entries.T)
        tol = 1e-10 * n * p.variance
        assert float(np.linalg.eigvalsh(K.entries)[0]) >= 0.1 - tol

    def test_diagonal_is_exactly_variance_plus_jitter(self):
        p = make_params()
        X = sample_inputs(40, p, seed=9)
        K = gram(X, p, jitter=0.125)
        np.testing.assert_array_equal(np.diag(K.entries), np.full(40, 1.125))

    def test_trace_identity_at_unit_scale(self):
        """With unit kernel scale the trace is exactly n(1 + jitter)."""
        p = make_params(variance=1.0)
        X = sample_inputs(100, p, seed=13)
        K = gram(X, p, jitter=0.5 * 0.25)
        assert float(np.trace(K.entries)) == pytest.approx(100 * 1.125, abs=1e-12)

    def test_matches_pointwise_kernel(self):
        p = make_params(lengthscale=0.8)
        X = sample_inputs(6, p, seed=21)
        K = gram(X, p, jitter=0.0)
        for i in range(6):
            for j in range(6):
                expect = rbf(X.points[i], X.points[j], p)
                assert K.entries[i, j] == pytest.approx(expect, abs=1e-12)

    def test_a_lengthscale_whose_square_overflows_gives_the_constant_kernel(self):
        """l^2 overflows to inf above about 1.3e154; every off-diagonal
        entry is then the variance, bitwise as at l = 1e150, where
        exp(-d^2 / 2e300) rounds to 1, and no warning is raised."""
        p = make_params(variance=1.7, lengthscale=1e300)
        X = sample_inputs(9, p, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = gram(X, p, jitter=0.25)
        expect = np.full((9, 9), 1.7)
        np.fill_diagonal(expect, 1.7 + 0.25)
        np.testing.assert_array_equal(K.entries, expect)
        near = gram(X, make_params(variance=1.7, lengthscale=1e150), jitter=0.25)
        np.testing.assert_array_equal(K.entries, near.entries)

    @pytest.mark.parametrize("lengthscale", [1e-160, 1e-300])
    def test_a_lengthscale_whose_square_underflows_gives_the_white_noise_kernel(self, lengthscale):
        """l^2 is subnormal at 1e-160 and 0 at 1e-300: every off-diagonal
        entry is then exp(-inf) = 0, bitwise as at l = 1e-150, where
        exp(-d^2 / 2e-300) rounds to 0; the diagonal keeps variance +
        jitter, and no warning is raised for the inf or the 0/0."""
        p = make_params(variance=1.7, lengthscale=lengthscale)
        X = sample_inputs(9, p, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            K = gram(X, p, jitter=0.25)
        np.testing.assert_array_equal(K.entries, np.diag(np.full(9, 1.7 + 0.25)))
        near = gram(X, make_params(variance=1.7, lengthscale=1e-150), jitter=0.25)
        np.testing.assert_array_equal(K.entries, near.entries)

    def test_rejects_a_dimension_mismatch(self):
        X = sample_inputs(3, make_params(dim=3), seed=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            gram(X, make_params(dim=2))

    def test_rejects_negative_jitter(self):
        p = make_params()
        X = sample_inputs(3, p, seed=1)
        with pytest.raises(ValueError):
            gram(X, p, jitter=-0.1)

    def test_input_data_type_rejects_points_that_are_not_a_matrix(self):
        with pytest.raises(ValueError, match="2-d"):
            InputData(points=np.zeros(4))

    def test_gram_matrix_type_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GramMatrix(entries=np.zeros((2, 3)), jitter=0.0)

    def test_gram_matrix_holds_its_entries_in_c_order(self):
        """C-ordered float64 entries are kept as given; any other layout is
        copied once into C order."""
        entries = np.arange(9.0).reshape(3, 3)
        assert GramMatrix(entries).entries is entries
        padded = np.zeros((6, 6))
        padded[::2, ::2] = entries
        for other in (np.asfortranarray(entries), padded[::2, ::2]):
            held = GramMatrix(other).entries
            assert held.flags.c_contiguous
            np.testing.assert_array_equal(held, entries)


class TestGramAssembly:
    """Accuracy, symmetry and memory of the assembly, at sizes on either
    side of 128 and 256."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 127, 128, 129, 257]),
        dim=st.sampled_from([1, 2, 5]),
        variance=st.floats(0.01, 10.0),
        lengthscale=st.floats(0.05, 10.0),
        jitter=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_symmetric_pinned_and_close_to_rbf(
        self, n, dim, variance, lengthscale, jitter, seed
    ):
        """K is exactly symmetric, its diagonal is exactly variance +
        jitter, and every other entry is within 4 ulp * variance of the
        rbf oracle, which sums the squared direct differences."""
        p = make_params(variance=variance, lengthscale=lengthscale, dim=dim)
        X = sample_inputs(n, p, seed)
        K = gram(X, p, jitter=jitter).entries
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.full(n, variance + jitter))

        x = X.points
        tol = 4.0 * np.finfo(float).eps * variance
        # the rbf oracle's formula for every pair at once, and the oracle itself on some pairs
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        ref = variance * np.exp(-d2 / (2.0 * lengthscale**2))
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(K - ref)[off] <= tol)
        edges = sorted({0, 127, 128, 256, n - 1} & set(range(n)))
        for i in edges:
            for j in edges:
                if i != j:
                    assert abs(K[i, j] - rbf(x[i], x[j], p)) <= tol

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        dim=st.sampled_from([1, 2, 3]),
        shift=st.floats(-1e8, 1e8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=40, dim=1, shift=1e8, seed=0)
    def test_far_from_the_origin_matches_direct_differences(self, n, dim, shift, seed):
        """Points of spread at most 10 in each coordinate, shifted by up to
        1e8, give the kernel of the stored points' direct pairwise
        differences within 4 ulp: no cancellation of ||x||^2 ~ 1e16."""
        p = make_params(dim=dim)
        offsets = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, dim))
        X = InputData(points=offsets + shift)
        K = gram(X, p).entries
        x = X.points
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        off = ~np.eye(n, dtype=bool)
        assert np.max(np.abs(K - np.exp(-d2 / 2.0))[off]) <= 4.0 * np.finfo(float).eps

    def test_the_matrix_is_the_only_n_by_n_allocation(self):
        """Assembling K at n = 512 allocates at most 64 KiB beyond K's own
        8 n^2 bytes: no n x n or row-block temporary."""
        n = 512
        p = make_params()
        X = sample_inputs(n, p, seed=4)
        tracemalloc.start()
        try:
            K = gram(X, p, jitter=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert K.entries.nbytes == 8 * n * n
        assert peak < 8 * n * n + 64 * 1024
