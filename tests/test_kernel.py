"""Kernel evaluation, input generation and Gram assembly."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpforge import GramMatrix, InputData, KernelParams, gram, rbf, sample_inputs
from gpforge.kernel import _GRAM_BLOCK

B = _GRAM_BLOCK


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


class TestRbf:
    """Pointwise covariance values."""

    def test_zero_distance_gives_variance(self):
        """k(x, x) equals the kernel scale for any input."""
        p = make_params(variance=2.5)
        x = np.array([0.3, -1.2])
        assert rbf(x, x, p) == pytest.approx(2.5)

    def test_unit_parameters_known_value(self):
        """Squared distance 2 at unit scale and lengthscale gives e^-1."""
        p = make_params()
        x = np.array([0.0, 0.0])
        y = np.array([1.0, 1.0])
        assert rbf(x, y, p) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_huge_lengthscale_approaches_variance(self):
        p = make_params(variance=1.7, lengthscale=1e8)
        x = np.array([3.0, -2.0])
        y = np.array([-1.0, 4.0])
        assert rbf(x, y, p) == pytest.approx(1.7, rel=1e-6)

    def test_symmetric_in_arguments(self):
        p = make_params(lengthscale=0.7)
        rng = np.random.default_rng(42)
        for _ in range(50):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            assert rbf(x, y, p) == rbf(y, x, p)

    def test_bounded_by_variance(self):
        p = make_params(variance=3.0, lengthscale=0.5)
        rng = np.random.default_rng(7)
        vals = [rbf(rng.standard_normal(2), rng.standard_normal(2), p) for _ in range(200)]
        assert all(0.0 <= v <= 3.0 for v in vals)

    def test_dimension_mismatch_rejected(self):
        p = make_params(dim=2)
        with pytest.raises(ValueError):
            rbf(np.zeros(3), np.zeros(2), p)


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

    @pytest.mark.parametrize("n", [2, 17, 128, 512])
    def test_symmetry_and_spectrum_across_sizes(self, n):
        """Assembled matrices are exactly symmetric and their spectrum
        never dips more than rounding below the jitter floor."""
        p = make_params(variance=1.3, lengthscale=0.6)
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

    def test_rejects_negative_jitter(self):
        p = make_params()
        X = sample_inputs(3, p, seed=1)
        with pytest.raises(ValueError):
            gram(X, p, jitter=-0.1)

    def test_gram_matrix_type_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            GramMatrix(entries=np.zeros((2, 3)), jitter=0.0)


class TestGramAssembly:
    """Properties of the blocked in-place assembly, at sizes on either
    side of the block edges."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.sampled_from([1, 2, B - 1, B, B + 1, 2 * B + 1]),
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
        jitter, and every entry is within 4 ulp * variance of kernel.rbf,
        widened by the cancellation of the expanded squared distance:
        the factor (||x||^2 + ||x'||^2) / (2 l^2) where that exceeds 1."""
        p = make_params(variance=variance, lengthscale=lengthscale, dim=dim)
        X = sample_inputs(n, p, seed)
        K = gram(X, p, jitter=jitter).entries
        np.testing.assert_array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.full(n, variance + jitter))

        x = X.points
        sq = np.sum(x * x, axis=1)
        widen = np.maximum(1.0, (sq[:, None] + sq[None, :]) / (2.0 * lengthscale**2))
        tol = 4.0 * np.finfo(float).eps * variance * widen
        # kernel.rbf's formula for every pair at once, and rbf itself on some pairs
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        ref = variance * np.exp(-d2 / (2.0 * lengthscale**2))
        off = ~np.eye(n, dtype=bool)
        assert np.all(np.abs(K - ref)[off] <= tol[off])
        edges = sorted({0, B - 1, B, 2 * B, n - 1} & set(range(n)))
        for i in edges:
            for j in edges:
                if i != j:
                    assert abs(K[i, j] - rbf(x[i], x[j], p)) <= tol[i, j]

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
        differences within 1e-12: no cancellation of ||x||^2 ~ 1e16."""
        p = make_params(dim=dim)
        offsets = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, dim))
        X = InputData(points=offsets + shift)
        K = gram(X, p).entries
        x = X.points
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        off = ~np.eye(n, dtype=bool)
        assert np.max(np.abs(K - np.exp(-d2 / 2.0))[off]) <= 1e-12
