"""Dense Cholesky sampling and the whitening transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpforge import (
    FactorizationError,
    FidelitySpec,
    KernelParams,
    SampleMethod,
    cholesky_factor,
    cvm_test,
    draw,
    exact_sample,
    gram,
    sample_inputs,
    whiten,
)
from gpforge._streams import LATENT, stream
from gpforge.kernel import GramMatrix


PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)


def noisy_gram(n, seed, params=PARAMS):
    X = sample_inputs(n, params, seed=seed)
    return X, gram(X, params, jitter=params.noise_variance)


class TestCholeskyFactor:
    def test_identity(self):
        K = GramMatrix(entries=np.eye(5), jitter=1.0)
        np.testing.assert_array_equal(cholesky_factor(K), np.eye(5))

    def test_hand_worked_two_by_two(self):
        K = GramMatrix(entries=np.array([[4.0, 2.0], [2.0, 5.0]]), jitter=1.0)
        L = cholesky_factor(K)
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_reconstruction_error_small(self):
        """LL^T reproduces the input to tight relative Frobenius error."""
        _, K = noisy_gram(128, seed=42)
        L = cholesky_factor(K)
        rel = np.linalg.norm(L @ L.T - K.entries) / np.linalg.norm(K.entries)
        assert rel <= 1e-10

    def test_strictly_lower_triangular_output(self):
        _, K = noisy_gram(12, seed=8)
        L = cholesky_factor(K)
        np.testing.assert_array_equal(np.triu(L, k=1), np.zeros((12, 12)))

    def test_indefinite_matrix_reports_pivot(self):
        """A matrix with a negative eigenvalue fails, naming the pivot
        at which elimination broke down."""
        K = GramMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]), jitter=0.0)
        with pytest.raises(FactorizationError) as info:
            cholesky_factor(K)
        assert info.value.pivot_index == 1
        assert "pivot 1" in str(info.value)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_overwrite_gives_the_same_factor_in_the_input_buffer(self, n, seed):
        """Without overwrite the input is left bit for bit; with it, L is
        the same bits, written over the input's own buffer."""
        _, K = noisy_gram(n, seed=seed)
        before = K.entries.copy()
        L = cholesky_factor(K)
        np.testing.assert_array_equal(K.entries, before)
        assert L.flags.c_contiguous
        np.testing.assert_array_equal(np.triu(L, k=1), np.zeros((n, n)))
        own = GramMatrix(entries=before.copy(), jitter=K.jitter)
        L_own = cholesky_factor(own, overwrite=True)
        np.testing.assert_array_equal(L_own, L)
        assert np.shares_memory(L_own, own.entries)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1), overwrite=st.booleans())
    def test_any_layout_gives_the_factor_of_the_lower_triangle(self, n, seed, overwrite):
        """Fortran order and a strided view give the lower-triangular L of
        the C-ordered matrix; only the lower triangle is read."""
        _, K = noisy_gram(n, seed=seed)
        L = cholesky_factor(K)
        lower = np.where(np.tri(n, dtype=bool), K.entries, np.nan)
        padded = np.full((2 * n, 3 * n), np.nan)
        padded[::2, ::3] = lower
        for entries in (lower.copy(), np.array(lower, order="F"), padded[::2, ::3]):
            got = cholesky_factor(GramMatrix(entries=entries), overwrite=overwrite)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(np.triu(got, k=1), np.zeros((n, n)))
            np.testing.assert_allclose(got, L, rtol=0, atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 60), data=st.data(), seed=st.integers(0, 2**32 - 1),
        overwrite=st.booleans(),
    )
    def test_indefinite_matrix_names_its_pivot(self, n, data, seed, overwrite):
        """Lowering one diagonal entry until its pivot is -1 fails there,
        in place or not; the pivots before it are untouched."""
        k = data.draw(st.integers(0, n - 1))
        _, K = noisy_gram(n, seed=seed)
        row = cholesky_factor(K)[k, :k]
        entries = K.entries.copy()
        entries[k, k] = row @ row - 1.0
        with pytest.raises(FactorizationError) as info:
            cholesky_factor(GramMatrix(entries=entries), overwrite=overwrite)
        assert info.value.pivot_index == k


class TestExactSample:
    def test_deterministic_per_seed(self):
        _, K = noisy_gram(32, seed=1)
        L = cholesky_factor(K)
        a = exact_sample(L, PARAMS, seed=99)
        b = exact_sample(L, PARAMS, seed=99)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.method is SampleMethod.Exact
        u = stream(99, LATENT).standard_normal(32)
        np.testing.assert_array_equal(a.y, cholesky_factor(K) @ u)

    def test_scalar_case_formula(self):
        """At n=1 the draw collapses to sqrt(variance + noise) times the
        underlying standard normal."""
        _, K = noisy_gram(1, seed=5)
        s = exact_sample(cholesky_factor(K), PARAMS, seed=123)
        u1 = stream(123, LATENT).standard_normal(1)[0]
        assert s.y[0] == pytest.approx(np.sqrt(1.25) * u1, rel=1e-14)

    def test_empirical_covariance_matches_kernel(self):
        """The sample covariance over 20000 seeds agrees with the noisy
        Gram matrix entrywise to within 4 standard errors."""
        n, reps = 4, 20000
        _, K = noisy_gram(n, seed=77)
        L = cholesky_factor(K)
        draws = np.stack([exact_sample(L, PARAMS, seed=r).y for r in range(reps)])
        emp = draws.T @ draws / reps
        for i in range(n):
            for j in range(n):
                se = np.sqrt((K.entries[i, i] * K.entries[j, j] + K.entries[i, j] ** 2) / reps)
                assert abs(emp[i, j] - K.entries[i, j]) < 4 * se


class TestWhiten:
    def test_identity_covariance_is_noop(self):
        L = cholesky_factor(GramMatrix(entries=np.eye(3), jitter=1.0))
        y = np.array([0.3, -1.0, 2.0])
        np.testing.assert_array_equal(whiten(y, L), y)

    def test_diagonal_forward_substitution(self):
        L = cholesky_factor(GramMatrix(entries=np.diag([4.0, 9.0]), jitter=1.0))
        np.testing.assert_allclose(whiten(np.array([2.0, 3.0]), L), [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("n,seed", [(8, 0), (64, 1), (64, 2), (512, 3)])
    def test_round_trip_recovers_latent_draw(self, n, seed):
        """Whitening an exact sample with the same matrix returns the
        standard normal vector that generated it."""
        _, K = noisy_gram(n, seed=seed)
        L = cholesky_factor(K)
        s = exact_sample(L, PARAMS, seed=seed + 1000)
        u = stream(seed + 1000, LATENT).standard_normal(n)
        z = whiten(s.y, L)
        assert float(np.max(np.abs(z - u))) <= 1e-8

    def test_refuses_a_y_that_is_not_a_vector_of_the_factor_length(self):
        L = cholesky_factor(GramMatrix(entries=np.eye(3), jitter=1.0))
        for y in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError, match="expected \\(3,\\)"):
                whiten(y, L)

    def test_a_non_finite_y_is_refused(self):
        L = cholesky_factor(GramMatrix(entries=np.eye(3), jitter=1.0))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                whiten(np.array([0.5, bad, 1.0]), L)

    def test_a_non_finite_factor_whitens_to_what_the_test_refuses(self):
        """L is not scanned: a non-finite entry gives a non-finite z, which
        cvm_test refuses."""
        _, K = noisy_gram(6, seed=3)
        L = cholesky_factor(K)
        L[4, 2] = np.nan
        z = whiten(np.ones(6), L)
        assert not np.all(np.isfinite(z))
        with pytest.raises(ValueError, match="non-finite"):
            cvm_test(z)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        dim=st.sampled_from([1, 2, 5]),
        lengthscale=st.floats(0.1, 3.0),
        noise_variance=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_whitening_inverts_the_factor(self, n, dim, lengthscale, noise_variance, seed):
        """whiten(L u, L) == u up to rounding, for L the factor of K; and so
        does the harness's path, where the exact draw of draw() is whitened
        through a factor written in place of K."""
        p = KernelParams(
            variance=1.0, lengthscale=lengthscale, noise_variance=noise_variance, dim=dim
        )
        X, K = noisy_gram(n, seed=seed, params=p)
        u = stream(seed, LATENT).standard_normal(n)
        y = draw(SampleMethod.Exact, X, p, FidelitySpec(), seed).y
        L = cholesky_factor(K)
        for z in (whiten(L @ u, L), whiten(y, cholesky_factor(K, overwrite=True))):
            assert float(np.max(np.abs(z - u))) <= 1e-9 * max(1.0, float(np.max(np.abs(u))))


class TestGpSampleValidation:
    def test_rejects_a_y_that_is_not_a_vector(self):
        from gpforge.exact import GpSample

        with pytest.raises(ValueError, match="must be a vector"):
            GpSample(
                y=np.zeros((2, 1)),
                method=SampleMethod.Exact,
                params=PARAMS,
                fidelity=FidelitySpec(),
                seed=0,
            )

    def test_rejects_non_finite_values(self):
        from gpforge import FidelitySpec

        with pytest.raises(ValueError):
            from gpforge.exact import GpSample

            GpSample(
                y=np.array([1.0, np.nan]),
                method=SampleMethod.Exact,
                params=PARAMS,
                fidelity=FidelitySpec(),
                seed=0,
            )
