"""Low-rank preconditioner: pivoted partial Cholesky factorization,
Woodbury inverse application, condition bound and the lengthscale sweep."""

import math

import numpy as np
import pytest

from gpforge import (
    KernelParams,
    NystromPreconditioner,
    apply_shifted_inverse,
    build_quadrature,
    effectiveness_sweep,
    gram,
    nystrom_factor,
    preconditioned_condition_bound,
    sample_inputs,
    shifted_solve,
    spectral_envelope,
)
from gpforge._streams import LATENT, stream
from gpforge.kernel import GramMatrix
from gpforge.precond import default_rank

PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)


def rbf_gram(n, seed, lengthscale=1.0):
    p = KernelParams(
        variance=1.0, lengthscale=lengthscale, noise_variance=0.25, dim=2
    )
    X = sample_inputs(n, p, seed=seed)
    return gram(X, p, jitter=p.noise_variance)


class TestNystromFactor:
    def test_full_rank_recovers_matrix(self):
        K = rbf_gram(32, seed=1)
        P = nystrom_factor(K, 32)
        noiseless = K.entries - K.jitter * np.eye(32)
        gap = np.linalg.norm(P.factor @ P.factor.T - noiseless)
        assert gap <= 1e-8

    def test_rank_one_matrix_captured_by_one_pivot(self):
        v = np.array([1.0, -2.0, 3.0, 0.5])
        K = GramMatrix(entries=np.outer(v, v) + 0.5 * np.eye(4), jitter=0.5)
        P = nystrom_factor(K, 1)
        residual_diag = np.diag(K.entries - P.factor @ P.factor.T)
        assert np.all(residual_diag <= 0.5 + 1e-10)
        noiseless = K.entries - K.jitter * np.eye(4)  # the single pivot is column 2
        np.testing.assert_array_equal(P.factor[:, 0], noiseless[:, 2] / np.sqrt(noiseless[2, 2]))

    def test_residual_diagonal_shrinks_with_rank(self):
        K = rbf_gram(48, seed=5)
        noiseless_diag = np.diag(K.entries) - K.jitter
        prev = np.inf
        for k in (1, 2, 4, 8, 16, 32, 48):
            P = nystrom_factor(K, k)
            resid = noiseless_diag - np.sum(P.factor**2, axis=1)
            worst = float(resid.max())
            assert worst <= prev + 1e-12
            assert worst >= -1e-10
            prev = worst

    def test_semidefinite_order(self):
        """The partial factorization never overshoots: K minus jitter
        minus the approximation stays positive semidefinite."""
        K = rbf_gram(40, seed=11)
        P = nystrom_factor(K, 6)
        R = K.entries - K.jitter * np.eye(40) - P.factor @ P.factor.T
        assert np.linalg.eigvalsh(R).min() >= -1e-9

    def test_rank_bounds_enforced(self):
        K = rbf_gram(8, seed=2)
        with pytest.raises(ValueError):
            nystrom_factor(K, 9)
        with pytest.raises(ValueError):
            nystrom_factor(K, 0)

    @pytest.mark.parametrize("n, lengthscale, dim", [(64, 0.1, 2), (257, 0.7, 3), (300, 1.0, 2)])
    def test_only_the_lower_triangle_is_read(self, n, lengthscale, dim):
        """With K's strict upper triangle overwritten by NaN the factor keeps
        its bits: each pivot column is gathered from the lower triangle."""
        p = KernelParams(variance=1.0, lengthscale=lengthscale, noise_variance=0.25, dim=dim)
        K = gram(sample_inputs(n, p, seed=n), p, jitter=p.noise_variance)
        lower = GramMatrix(np.where(np.tri(n, dtype=bool), K.entries, np.nan), K.jitter)
        want = nystrom_factor(K, default_rank(n)).factor
        assert nystrom_factor(lower, default_rank(n)).factor.tobytes() == want.tobytes()

    def test_pure_noise_matrix_exhausts_immediately(self):
        K = GramMatrix(entries=0.5 * np.eye(3), jitter=0.5)
        P = nystrom_factor(K, 2)
        assert P.factor.shape == (3, 0)


class TestApplyInverse:
    def test_empty_factor_divides_by_noise(self):
        P = NystromPreconditioner(factor=np.zeros((3, 0)), noise=0.5)
        v = np.array([1.0, -2.0, 4.0])
        np.testing.assert_allclose(apply_shifted_inverse(P, v), v / 0.5, atol=1e-14)

    def test_three_point_hand_example(self):
        """F = (1,0,0)^T with unit noise makes the matrix diag(2,1,1)."""
        P = NystromPreconditioner(factor=np.array([[1.0], [0.0], [0.0]]), noise=1.0)
        v = np.array([3.0, 5.0, -2.0])
        np.testing.assert_allclose(apply_shifted_inverse(P, v), [1.5, 5.0, -2.0], atol=1e-12)

    def test_matches_dense_inverse(self):
        K = rbf_gram(128, seed=7)
        P = nystrom_factor(K, 11)
        dense = P.factor @ P.factor.T + K.jitter * np.eye(128)
        v = stream(13, LATENT).standard_normal(128)
        expect = np.linalg.solve(dense, v)
        got = apply_shifted_inverse(P, v)
        assert np.linalg.norm(got - expect) / np.linalg.norm(expect) <= 1e-8

    def test_extra_shift_matches_dense_inverse(self):
        K = rbf_gram(64, seed=8)
        P = nystrom_factor(K, 8)
        v = stream(14, LATENT).standard_normal(64)
        for s in (0.01, 1.0, 30.0):
            dense = P.factor @ P.factor.T + (K.jitter + s) * np.eye(64)
            expect = np.linalg.solve(dense, v)
            got = apply_shifted_inverse(P, v, s)
            assert np.linalg.norm(got - expect) / np.linalg.norm(expect) <= 1e-8

    @staticmethod
    def factors():
        """A Nystrom factor, a rank-deficient one (8 columns spanning 3
        directions, so F^T F is singular) and an exhausted one (no columns)."""
        K = rbf_gram(48, seed=9)
        mix = stream(15, LATENT).standard_normal((3, 8))
        return {
            "nystrom": (nystrom_factor(K, 7).factor, K.jitter),
            "rank-deficient": (nystrom_factor(K, 3).factor @ mix, 1e-3),
            "exhausted": (np.zeros((48, 0)), 0.25),
        }

    @pytest.mark.parametrize("case", ["nystrom", "rank-deficient", "exhausted"])
    def test_matches_dense_inverse_over_twelve_decades_of_shift(self, case):
        F, noise = self.factors()[case]
        P = NystromPreconditioner(factor=F, noise=noise)
        v = stream(16, LATENT).standard_normal(48)
        for extra in np.geomspace(1e-8, 1e4, 13):
            dense = F @ F.T + (noise + extra) * np.eye(48)
            expect = np.linalg.solve(dense, v)
            got = apply_shifted_inverse(P, v, extra)
            assert np.linalg.norm(got - expect) / np.linalg.norm(expect) <= 1e-8

    @pytest.mark.parametrize("case", ["nystrom", "rank-deficient", "exhausted"])
    def test_is_symmetric_as_pcg_needs(self, case):
        """<a, P^-1 b> = <P^-1 a, b> to rounding, at every shift."""
        F, noise = self.factors()[case]
        P = NystromPreconditioner(factor=F, noise=noise)
        a, b = stream(17, LATENT).standard_normal((2, 48))
        for extra in (0.0, 1e-8, 1.0, 1e4):
            left = float(a @ apply_shifted_inverse(P, b, extra))
            right = float(apply_shifted_inverse(P, a, extra) @ b)
            scale = np.linalg.norm(a) * np.linalg.norm(b) / (noise + extra)
            assert abs(left - right) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "factor, noise, message",
        [
            (np.zeros(3), 0.5, "2-d"),
            (np.array([[1.0], [np.nan]]), 0.5, "non-finite"),
            (np.zeros((3, 0)), 0.0, "noise must be > 0"),
        ],
        ids=["1-d", "nan", "noise-0"],
    )
    def test_preconditioner_refuses_a_malformed_factor_or_noise(self, factor, noise, message):
        with pytest.raises(ValueError, match=message):
            NystromPreconditioner(factor=factor, noise=noise)

    def test_nonpositive_total_shift_rejected(self):
        P = NystromPreconditioner(factor=np.zeros((2, 0)), noise=0.5)
        with pytest.raises(ValueError):
            apply_shifted_inverse(P, np.ones(2), -0.5)


class TestConditionBound:
    def test_perfect_tail_gives_unit_bound(self):
        assert preconditioned_condition_bound(0.0, 256, 0.5, 0.1, 16) == 1.0

    def test_worked_value(self):
        got = preconditioned_condition_bound(1e-3, 256, 0.5, 0.1, 16)
        assert got == pytest.approx(1.0 + 2e-3 * math.sqrt(4 * 16 * 240 + 1) / 0.05, rel=1e-12)
        assert got == pytest.approx(5.959, abs=2e-3)
        simplified = 1.0 + 4e-3 * 256**0.75 / 0.05
        assert got <= simplified
        assert simplified == pytest.approx(6.12, abs=1e-9)

    def test_monotone_in_tail_eigenvalue(self):
        vals = [
            preconditioned_condition_bound(lam, 100, 0.5, 0.2, 10)
            for lam in (0.0, 1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            preconditioned_condition_bound(-1e-3, 100, 0.5, 0.2, 10)
        with pytest.raises(ValueError):
            preconditioned_condition_bound(1e-3, 100, 0.5, 0.2, 101)
        with pytest.raises(ValueError):
            preconditioned_condition_bound(1e-3, 100, 1.5, 0.2, 10)

    @pytest.mark.parametrize("n", [64, 128])
    def test_dominates_empirical_condition_number(self, n):
        """Dense-computed condition number of the preconditioned noisy
        matrix never exceeds the bound fed the true tail eigenvalue."""
        eta = 1.0
        k = int(math.isqrt(n))
        K = rbf_gram(n, seed=100 + n)
        P = nystrom_factor(K, k)
        lam_signal = np.linalg.eigvalsh(K.entries - K.jitter * np.eye(n))
        lam_kp1 = float(lam_signal[-(k + 1)])
        precond_mat = P.factor @ P.factor.T + K.jitter * np.eye(n)
        M = np.linalg.solve(precond_mat, K.entries)
        sv = np.linalg.svd(M, compute_uv=False)
        emp = float(sv[0] / sv[-1])
        bound = preconditioned_condition_bound(lam_kp1, n, eta, K.jitter / eta, k)
        assert emp <= bound


class TestIterationReduction:
    def test_preconditioning_reduces_krylov_iterations(self):
        """Median over 20 seeds at n=256, unit lengthscale: the
        preconditioned solves reach the residual target in no more
        iterations than the shared-basis solver."""
        n = 256
        unprecond, precond = [], []
        for r in range(20):
            K = rbf_gram(n, seed=1000 + r)
            u = stream(2000 + r, LATENT).standard_normal(n)
            lo, hi = spectral_envelope(K)
            shifts, _ = build_quadrature(lo, hi, 3)
            _, rep_u = shifted_solve(K, shifts, u, J=3000, tol=1e-8)
            P = nystrom_factor(K, 16)
            _, rep_p = shifted_solve(K, shifts, u, J=3000, tol=1e-8, precond=P)
            unprecond.append(rep_u.iterations_run)
            precond.append(rep_p.iterations_run)
        assert np.median(precond) <= np.median(unprecond)


def test_default_rank_is_floor_sqrt():
    assert [default_rank(n) for n in (1, 2, 3, 4, 15, 16, 17, 2048)] == [1, 1, 1, 2, 3, 4, 4, 45]


class TestEffectivenessSweep:
    def test_deterministic_per_seed(self):
        rows_a = effectiveness_sweep([64], [0.5, 2.0], PARAMS, seed=42)
        rows_b = effectiveness_sweep([64], [0.5, 2.0], PARAMS, seed=42)
        assert rows_a == rows_b
        assert len(rows_a) == 2
        assert rows_a[0][:2] == (64, 0.5)

    def test_lengthscale_limits_at_survey_scale(self):
        """Long lengthscales collapse the kernel toward rank one, which
        a low-rank factor captures almost exactly; the metric there must
        sit far below both the short and the intermediate lengthscale."""
        base = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.001, dim=2)
        rows = effectiveness_sweep([2000], [0.1, 1.0, 100.0], base, seed=3)
        metric = {ls: m for _, ls, m in rows}
        assert metric[100.0] < metric[0.1]
        assert metric[0.1] > metric[1.0]
