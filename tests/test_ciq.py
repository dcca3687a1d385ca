"""Quadrature square-root machinery: node construction, the multi-shift
solver and the sampler built on them."""

import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpforge import (
    KernelParams,
    SampleMethod,
    build_quadrature,
    ciq_error_bound,
    ciq_sample,
    ciq_sqrt_mv,
    draw,
    gram,
    nystrom_factor,
    resolve_fidelity,
    sample_inputs,
    shifted_solve,
    spectral_envelope,
)
from gpforge._streams import LATENT, NOISE, stream
from gpforge.ciq import _solve_to_caps
from gpforge.kernel import GramMatrix
from gpforge.precond import NystromPreconditioner, default_rank

def scalar_max_relative_error(quadrature, lambda_min, lambda_max):
    grid = np.geomspace(lambda_min, lambda_max, 400)
    s, w = quadrature
    errs = [abs(np.sum(w * a / (s + a)) - math.sqrt(a)) / math.sqrt(a) for a in grid]
    return max(errs)


def oracle_quadrature(lambda_min, lambda_max, Q):
    """build_quadrature's shifts and weights evaluated to 40 digits on the
    same float endpoints: nodes (q - 1/2) K'/Q at parameter m = 1 - lambda_min/lambda_max."""
    with mpmath.workdps(40):
        lo = mpmath.mpf(lambda_min)
        m = 1 - lo / mpmath.mpf(lambda_max)
        Kp = mpmath.ellipk(m)
        shifts, weights = [], []
        for q in range(Q):
            t = (q + mpmath.mpf(0.5)) * Kp / Q
            sn, cn, dn = (mpmath.ellipfun(name, t, m=m) for name in ("sn", "cn", "dn"))
            shifts.append(lo * (sn / cn) ** 2)
            weights.append(2 * Kp * mpmath.sqrt(lo) / (mpmath.pi * Q) * dn / cn**2)
        return shifts, weights


class TestBuildQuadrature:
    @pytest.mark.parametrize("kappa", [2.0, 1.6e4, 1e8])
    def test_against_arbitrary_precision_oracle(self, kappa):
        """Every shift and weight is within 64 kappa ulp, relative, of its
        40-digit value (measured: at most 1.3e-14 at kappa=2, 2.6e-12 at
        1.6e4 and 1.2e-8 at 1e8, for Q up to 16)."""
        with mpmath.workdps(40):
            for lambda_min in (0.125, 1.0, 3.7):
                for Q in (1, 2, 3, 5, 8, 16):
                    got_shifts, got_weights = build_quadrature(lambda_min, kappa * lambda_min, Q)
                    shifts, weights = oracle_quadrature(lambda_min, kappa * lambda_min, Q)
                    got = list(got_shifts) + list(got_weights)
                    for value, exact in zip(got, shifts + weights):
                        rel = float(abs(mpmath.mpf(float(value)) - exact) / exact)
                        assert rel <= 64 * kappa * np.finfo(float).eps

    @pytest.mark.parametrize("Q", [1, 2, 8])
    def test_degenerate_spectrum(self, Q):
        """A collapsed spectral interval reproduces the square root of
        its single point to rounding."""
        shifts, weights = build_quadrature(1.0, 1.0, Q)
        assert np.sum(weights / (shifts + 1.0)) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            build_quadrature(2.0, 1.0, 4)
        with pytest.raises(ValueError):
            build_quadrature(0.0, 1.0, 4)

    def test_envelope_needs_a_positive_jitter(self):
        """The jitter floors the spectrum: at 0 there is no lower end."""
        with pytest.raises(ValueError, match="positive diagonal jitter"):
            spectral_envelope(GramMatrix(np.eye(2), jitter=0.0))
        with pytest.raises(ValueError):
            build_quadrature(1.0, 2.0, 0)

    def test_shifts_positive_and_weights_finite(self):
        shifts, weights = build_quadrature(1e-3, 1e3, 8)
        assert np.all(shifts > 0)
        assert np.all(np.isfinite(weights))

    def test_wide_spectrum_accuracy_envelope(self):
        """At Q=8 over a condition number of 1e6 the worst relative
        error over the spectrum stays inside a small multiple of the
        exponential decay rate exp(-2 Q pi^2 / (log kappa + 3)); the
        multiple absorbs the equioscillation constant, measured at
        about 3.5 on this interval."""
        measured = scalar_max_relative_error(build_quadrature(1e-3, 1e3, 8), 1e-3, 1e3)
        decay = math.exp(-2.0 * 8 * math.pi**2 / (math.log(1e6) + 3.0))
        assert measured <= 4.0 * decay

    def test_doubling_nodes_squares_the_error_scale(self):
        """Going from Q to 2Q must shrink the worst scalar error by at
        least the predicted decay ratio (constants cancel in the
        ratio; allow a 3x safety factor)."""
        lo, hi = 1e-3, 1e3
        kappa = hi / lo
        err_q = scalar_max_relative_error(build_quadrature(lo, hi, 4), lo, hi)
        err_2q = scalar_max_relative_error(build_quadrature(lo, hi, 8), lo, hi)
        predicted_ratio = math.exp(-2.0 * 4 * math.pi**2 / (math.log(kappa) + 3.0))
        assert err_2q / err_q <= 3.0 * predicted_ratio


def assert_same_solve(state, fresh):
    """Two (iterates, SolveReport) pairs agree bit for bit."""
    (X, report), (X_fresh, fresh_report) = state, fresh
    np.testing.assert_array_equal(X, X_fresh)
    assert report.iterations_run == fresh_report.iterations_run
    np.testing.assert_array_equal(report.residual_norms, fresh_report.residual_norms)
    np.testing.assert_array_equal(report.converged, fresh_report.converged)
    assert report.breakdown == fresh_report.breakdown


class TestShiftedSolve:
    def test_identity_single_iteration(self):
        u = np.array([2.0, -1.0, 0.5])
        sols, report = shifted_solve(GramMatrix(np.eye(3)), [3.0], u, J=1)
        np.testing.assert_allclose(sols[0], u / 4.0, atol=1e-12)
        assert report.iterations_run == 1

    def test_diagonal_closed_form(self):
        lam = np.arange(1.0, 17.0)
        u = np.ones(16)
        shifts = [0.1, 1.0, 10.0]
        sols, _ = shifted_solve(GramMatrix(np.diag(lam)), shifts, u, J=16, tol=1e-12)
        for row, s in zip(sols, shifts):
            np.testing.assert_allclose(row, 1.0 / (s + lam), atol=1e-10)

    def test_residuals_non_increasing_in_iteration_cap(self):
        """The minimum-residual property: running longer never worsens
        the final residual of any shift."""
        p = KernelParams(variance=1.0, lengthscale=0.7, noise_variance=0.25, dim=2)
        X = sample_inputs(48, p, seed=3)
        K = gram(X, p, jitter=0.125)
        u = stream(9, LATENT).standard_normal(48)
        prev = None
        for J in (1, 2, 4, 8, 16, 32):
            _, report = shifted_solve(K, [0.05, 0.5, 5.0], u, J=J, tol=0.0)
            worst = float(np.max(report.residual_norms))
            if prev is not None:
                assert worst <= prev + 1e-12
            prev = worst

    def test_breakdown_flagged_with_exact_iterate(self):
        """On an invariant subspace the Lanczos recurrence terminates
        early; the report flags it and the returned iterate is exact."""
        u = np.array([1.0, 1.0, 1.0])
        sols, report = shifted_solve(GramMatrix(np.eye(3)), [1.0], u, J=10, tol=1e-14)
        assert report.breakdown
        np.testing.assert_allclose(sols[0], u / 2.0, atol=1e-12)
        assert bool(report.converged[0])

    def test_a_non_finite_value_ends_msminres_as_a_breakdown(self):
        """At variance 1e300 the first product's norm overflows and every
        residual is NaN; the solve stops at iteration 1 and flags a
        breakdown instead of running on to its cap."""
        p = KernelParams(variance=1e300, lengthscale=1.0, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(10, p, 1), p, jitter=0.25)
        with np.errstate(over="ignore", invalid="ignore"):
            _, report = shifted_solve(K, [0.1, 1.0], np.ones(10), J=10**4)
        assert report.breakdown and report.iterations_run == 1
        assert not np.any(np.isfinite(report.residual_norms))

    def test_a_curvature_that_overflows_ends_pcg_as_a_breakdown(self):
        """p^T (sI + K) p overflows to inf on K = 1e308 I; PCG stops at
        iteration 1 with a breakdown, its iterate still the zero start."""
        P = NystromPreconditioner(factor=np.zeros((3, 1)), noise=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            X, report = shifted_solve(
                GramMatrix(1e308 * np.eye(3)), [0.5], np.full(3, 100.0), J=10**4, precond=P
            )
        assert report.breakdown and report.iterations_run == 1
        np.testing.assert_array_equal(X, np.zeros((1, 3)))

    @pytest.mark.parametrize("preconditioned", [False, True])
    @pytest.mark.parametrize("caps", [(1,), (1, 5, 40)])
    def test_a_zero_right_hand_side_is_solved_by_zeros(self, preconditioned, caps):
        """u = 0 gives zero iterates in 0 iterations with every shift
        converged at each cap, through either solver."""
        p = KernelParams(variance=1.0, lengthscale=0.7, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(12, p, 2), p, jitter=0.125)
        P = nystrom_factor(K, 3) if preconditioned else None
        states = _solve_to_caps(K, [0.1, 1.0, 10.0], np.zeros(12), caps, 1e-10, P)
        assert len(states) == len(caps)
        for X, report in states:
            np.testing.assert_array_equal(X, np.zeros((3, 12)))
            assert report.iterations_run == 0 and not report.breakdown
            np.testing.assert_array_equal(report.residual_norms, np.zeros(3))
            assert report.converged.all()

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 300),
        lengthscale=st.floats(0.1, 3.0),
        J=st.sampled_from([3, 20, 400]),
        seed=st.integers(0, 2**32 - 1),
        preconditioned=st.booleans(),
    )
    def test_reported_residuals_are_true_residuals(self, n, lengthscale, J, seed, preconditioned):
        """The residual_norms a solve reports, whether msMINRES tracked them
        through its recurrences or PCG through its Nystrom-preconditioned
        iterates, are ||(s_q I + K) x_q - u|| / ||u|| of the iterates it
        returns, converged or cut short by the cap J."""
        p = KernelParams(variance=1.0, lengthscale=lengthscale, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(n, p, seed), p, jitter=0.125)
        u = stream(seed, LATENT).standard_normal(n)
        shifts, _ = build_quadrature(*spectral_envelope(K), 3)
        P = nystrom_factor(K, default_rank(n)) if preconditioned else None
        sols, report = shifted_solve(K, shifts, u, J=J, precond=P)
        true = [
            np.linalg.norm(s * x + K.entries @ x - u) / np.linalg.norm(u)
            for s, x in zip(shifts, sols)
        ]
        np.testing.assert_allclose(report.residual_norms, true, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.integers(1, 3), st.integers(4, 120)),
        lengthscale=st.floats(0.1, 3.0),
        caps=st.lists(st.integers(1, 90), min_size=1, max_size=5, unique=True).map(
            lambda c: tuple(sorted(c))
        ),
        tol=st.sampled_from([1e-10, 1e-6, 0.0]),
        seed=st.integers(0, 2**32 - 1),
        preconditioned=st.booleans(),
    )
    def test_one_run_gives_each_capped_solve(
        self, n, lengthscale, caps, tol, seed, preconditioned
    ):
        """One msMINRES or PCG run to several caps gives, at each cap, the
        iterates and report of a fresh solve capped there, bit for bit:
        below, at and past convergence, and past a breakdown."""
        p = KernelParams(variance=1.0, lengthscale=lengthscale, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(n, p, seed), p, jitter=0.125)
        u = stream(seed, LATENT).standard_normal(n)
        shifts, _ = build_quadrature(*spectral_envelope(K), 3)
        P = nystrom_factor(K, default_rank(n)) if preconditioned else None
        states = _solve_to_caps(K, shifts, u, caps, tol, P)
        assert len(states) == len(caps)
        for cap, state in zip(caps, states):
            assert_same_solve(state, shifted_solve(K, shifts, u, J=cap, tol=tol, precond=P))

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_only_the_lower_triangle_is_read(self, preconditioned):
        """With K's strict upper triangle overwritten by NaN, msMINRES, PCG
        (its factor built from that K too) and the final product of the
        square root give the bits they give on the intact K."""
        p = KernelParams(variance=1.0, lengthscale=0.7, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(64, p, 6), p, jitter=0.125)
        lower = GramMatrix(np.where(np.tri(64, dtype=bool), K.entries, np.nan), K.jitter)
        u = stream(6, LATENT).standard_normal(64)
        shifts, _ = build_quadrature(*spectral_envelope(K), 3)
        caps = (2, 9, 60)
        P = nystrom_factor(K, default_rank(64)) if preconditioned else None
        P_lower = nystrom_factor(lower, default_rank(64)) if preconditioned else None
        for got, want in zip(
            _solve_to_caps(lower, shifts, u, caps, 1e-10, P_lower),
            _solve_to_caps(K, shifts, u, caps, 1e-10, P),
        ):
            assert_same_solve(got, want)
        for got, want in zip(
            ciq_sqrt_mv(lower, u, 3, caps, P_lower), ciq_sqrt_mv(K, u, 3, caps, P)
        ):
            assert_same_solve(got, want)

    @pytest.mark.parametrize("preconditioned", [False, True])
    def test_caps_below_at_and_past_convergence(self, preconditioned):
        """The caps straddle the iteration at which the solve converges."""
        p = KernelParams(variance=1.0, lengthscale=0.7, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(64, p, 5), p, jitter=0.125)
        u = stream(5, LATENT).standard_normal(64)
        shifts, _ = build_quadrature(*spectral_envelope(K), 3)
        P = nystrom_factor(K, 8) if preconditioned else None
        stop = shifted_solve(K, shifts, u, J=400, precond=P)[1].iterations_run
        caps = (1, stop - 1, stop, stop + 1, 400)
        states = _solve_to_caps(K, shifts, u, caps, 1e-10, P)
        assert [bool(r.converged.all()) for _, r in states] == [False, False, True, True, True]
        assert [r.iterations_run for _, r in states] == [1, stop - 1, stop, stop, stop]
        for cap, state in zip(caps, states):
            assert_same_solve(state, shifted_solve(K, shifts, u, J=cap, precond=P))

    def test_caps_past_a_breakdown(self):
        """At n=3 with no tolerance the Lanczos recurrence breaks down at
        iteration 3; every later cap gets that final state."""
        p = KernelParams(variance=1.0, lengthscale=0.5, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(3, p, 4), p, jitter=0.125)
        u = stream(4, LATENT).standard_normal(3)
        states = _solve_to_caps(K, [0.1, 1.0], u, (2, 3, 7, 50), 0.0, None)
        assert [r.breakdown for _, r in states] == [False, True, True, True]
        assert [r.iterations_run for _, r in states] == [2, 3, 3, 3]
        for cap, state in zip((2, 3, 7, 50), states):
            assert_same_solve(state, shifted_solve(K, [0.1, 1.0], u, J=cap, tol=0.0))

    def test_caps_past_the_iteration_limit_run_to_it(self):
        """At variance 1e300 PCG stalls short of its tolerance at n=10; every
        cap above 16 iterations per point runs to that limit of 160, and the
        states at caps straddling it equal fresh solves capped there."""
        p = KernelParams(variance=1e300, lengthscale=1.0, noise_variance=0.25, dim=2)
        K = gram(sample_inputs(10, p, 1), p, jitter=0.125)
        P = nystrom_factor(K, 3)
        shifts, _ = build_quadrature(*spectral_envelope(K), 2)
        caps = (8, 159, 160, 161, 10**80)
        with np.errstate(over="ignore", invalid="ignore"):
            states = _solve_to_caps(K, shifts, np.ones(10), caps, 1e-10, P)
            for cap, state in zip(caps, states):
                assert_same_solve(state, shifted_solve(K, shifts, np.ones(10), J=cap, precond=P))
        assert [r.iterations_run for _, r in states] == [8, 159, 160, 160, 160]
        assert not any(r.converged.any() or r.breakdown for _, r in states)

    def test_caps_must_increase_from_one(self):
        for caps in ((), (0, 4), (4, 4), (8, 4)):
            with pytest.raises(ValueError):
                _solve_to_caps(GramMatrix(np.eye(2)), [1.0], np.ones(2), caps, 1e-10, None)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            shifted_solve(GramMatrix(np.eye(2)), [1.0], np.ones((2, 2)), J=4)
        with pytest.raises(ValueError):
            shifted_solve(GramMatrix(np.eye(2)), [1.0], np.ones(2), J=0)
        with pytest.raises(ValueError):
            shifted_solve(GramMatrix(np.eye(2)), [], np.ones(2), J=4)


class TestCiqSqrtMv:
    @pytest.mark.parametrize("c", [0.25, 1.0, 16.0])
    @pytest.mark.parametrize("Q", [8, 16])
    def test_scaled_identity_exact(self, c, Q):
        K = GramMatrix(entries=c * np.eye(6), jitter=c)
        u = stream(4, LATENT).standard_normal(6)
        f, _ = ciq_sqrt_mv(K, u, Q=Q, J=2)
        np.testing.assert_allclose(f, math.sqrt(c) * u, atol=1e-8)

    def test_two_point_diagonal(self):
        K = GramMatrix(entries=np.diag([4.0, 9.0]), jitter=4.0)
        f, _ = ciq_sqrt_mv(K, np.array([1.0, 1.0]), Q=12, J=8)
        np.testing.assert_allclose(f, [2.0, 3.0], atol=1e-6)

    def test_error_bound_dominates_on_dense_gram(self):
        """Across a (Q, J) grid the measured square-root error stays
        below the two-term certificate evaluated with the true extremal
        eigenvalues."""
        p = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)
        X = sample_inputs(64, p, seed=20)
        K = gram(X, p, jitter=0.125)
        lam, V = np.linalg.eigh(K.entries)
        target_mat = (V * np.sqrt(lam)) @ V.T
        kappa = float(lam[-1] / lam[0])
        u = stream(21, LATENT).standard_normal(64)
        target = target_mat @ u
        norm_u = float(np.linalg.norm(u))
        for Q in (4, 8, 16):
            for J in (4, 16, 32):
                f, _ = ciq_sqrt_mv(K, u, Q=Q, J=J)
                _, _, total = ciq_error_bound(Q, J, kappa, float(lam[0]), norm_u)
                assert float(np.linalg.norm(f - target)) <= total


class TestCiqSample:
    PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)

    def noisy_gram(self, n, seed):
        X = sample_inputs(n, self.PARAMS, seed=seed)
        return gram(X, self.PARAMS, jitter=self.PARAMS.noise_variance)

    def test_deterministic_per_seed(self):
        K_xi = self.noisy_gram(16, seed=2)
        a = ciq_sample(K_xi, self.PARAMS, eta=0.5, Q=4, J=8, seed=77)
        b = ciq_sample(K_xi, self.PARAMS, eta=0.5, Q=4, J=8, seed=77)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.method is SampleMethod.Ciq
        assert a.fidelity.Q == 4 and a.fidelity.J == 8

    @pytest.mark.parametrize("rank", [None, 4])
    def test_several_caps_give_the_draw_at_each(self, rank):
        """A tuple of caps gives one sample per cap, each bitwise the draw
        at that J, and leaves K_xi fully noisy; so does a one-cap tuple."""
        K_xi = self.noisy_gram(40, seed=3)
        before = K_xi.entries.copy()
        for caps in ((2, 9, 60), (9,)):
            samples = ciq_sample(K_xi, self.PARAMS, eta=0.5, Q=3, J=caps, seed=5, rank=rank)
            np.testing.assert_array_equal(K_xi.entries, before)
            assert len(samples) == len(caps)
            for J, sample in zip(caps, samples):
                alone = ciq_sample(K_xi, self.PARAMS, eta=0.5, Q=3, J=J, seed=5, rank=rank)
                assert sample.fidelity == alone.fidelity and sample.method is alone.method
                np.testing.assert_array_equal(sample.y, alone.y)
                np.testing.assert_array_equal(sample.f, alone.f)
                assert_same_solve((sample.y, sample.solver), (alone.y, alone.solver))

    def test_fortran_ordered_entries_give_the_same_draw(self):
        """A GramMatrix built from Fortran-ordered entries gives bitwise the
        ciq and pciq draws of the C-ordered one."""
        K_xi = self.noisy_gram(40, seed=7)
        K_f = GramMatrix(np.asfortranarray(K_xi.entries), K_xi.jitter)
        for rank in (None, default_rank(40)):
            a = ciq_sample(K_xi, self.PARAMS, eta=0.5, Q=3, J=30, seed=8, rank=rank)
            b = ciq_sample(K_f, self.PARAMS, eta=0.5, Q=3, J=30, seed=8, rank=rank)
            np.testing.assert_array_equal(a.y, b.y)
            assert_same_solve((a.y, a.solver), (b.y, b.solver))

    @pytest.mark.parametrize("jitter", [0.0, 0.25, 0.5])
    def test_the_diagonal_comes_back_as_the_caller_left_it(self, jitter):
        """K's diagonal comes back bit for bit as it was, whatever jitter K
        was assembled with (0, the noise variance or twice it), after a draw
        and after one that raises once the diagonal is lowered (a rank
        above n)."""
        K = gram(sample_inputs(12, self.PARAMS, seed=4), self.PARAMS, jitter=jitter)
        before = K.entries.copy()
        ciq_sample(K, self.PARAMS, eta=0.5, Q=3, J=8, seed=1)
        np.testing.assert_array_equal(K.entries, before)
        with pytest.raises(ValueError, match="rank"):
            ciq_sample(K, self.PARAMS, eta=0.5, Q=3, J=8, seed=1, rank=13)
        np.testing.assert_array_equal(K.entries, before)
        assert K.jitter == jitter

    @pytest.mark.parametrize("J", [10**4, (3, 10**4)])
    def test_a_non_finite_solve_is_refused(self, J):
        """The iterate after a NaN residual is garbage, so the draw raises
        ValueError instead of returning it."""
        p = KernelParams(variance=1e300, lengthscale=1.0, noise_variance=0.25, dim=2)
        K_xi = gram(sample_inputs(10, p, 1), p, jitter=p.noise_variance)
        with pytest.raises(ValueError, match="non-finite"):
            ciq_sample(K_xi, p, eta=0.5, Q=3, J=J, seed=4)
        np.testing.assert_array_equal(np.diag(K_xi.entries), np.full(10, 1e300 + 0.25))

    @pytest.mark.parametrize("method", [SampleMethod.Ciq, SampleMethod.CiqPreconditioned])
    def test_a_draw_at_variance_1e300_and_its_default_J_returns_within_a_second(self, method):
        """ciq's first product overflows and the draw is refused; pciq's
        default J is about 5.4e76, and its draw stops at the 160 iterations
        16 per point allow, unconverged, and records that J."""
        p = KernelParams(variance=1e300, lengthscale=1.0, noise_variance=0.25, dim=2)
        fidelity = resolve_fidelity(method, 10, p)
        X = sample_inputs(10, p, seed=0)
        start = time.monotonic()
        if method is SampleMethod.Ciq:
            with pytest.raises(ValueError, match="non-finite"):
                draw(method, X, p, fidelity, seed=0)
        else:
            sample = draw(method, X, p, fidelity, seed=0)
            assert fidelity.J > 10**76 and sample.fidelity.J == 160
            assert sample.solver.iterations_run == 160 and not sample.solver.converged.any()
        assert time.monotonic() - start < 1.0

    def test_caps_past_the_limit_give_the_draw_at_the_limit(self):
        """A tuple of caps that passes 16 iterations per point gives, at each
        cap past it, bitwise the draw at the limit, which records the limit
        as its J."""
        p = KernelParams(variance=1e300, lengthscale=1.0, noise_variance=0.25, dim=2)
        K_xi = gram(sample_inputs(10, p, 0), p, jitter=p.noise_variance)
        caps = (100, 160, 161, 10**80)
        samples = ciq_sample(K_xi, p, eta=0.5, Q=2, J=caps, seed=3, rank=3)
        assert [s.fidelity.J for s in samples] == [100, 160, 160, 160]
        for cap, sample in zip(caps, samples):
            alone = ciq_sample(K_xi, p, eta=0.5, Q=2, J=min(cap, 160), seed=3, rank=3)
            assert sample.fidelity == alone.fidelity
            np.testing.assert_array_equal(sample.y, alone.y)
            assert_same_solve((sample.y, sample.solver), (alone.y, alone.solver))

    def test_eta_domain(self):
        K_xi = self.noisy_gram(4, seed=2)
        for eta in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                ciq_sample(K_xi, self.PARAMS, eta=eta, Q=4, J=4, seed=0)

    def test_scalar_case_closed_form(self):
        """At n=1 the latent square root is exact, so the draw is a
        deterministic function of the two underlying normals."""
        K_xi = self.noisy_gram(1, seed=8)
        eta = 0.5
        s = ciq_sample(K_xi, self.PARAMS, eta=eta, Q=8, J=4, seed=31)
        u1 = stream(31, LATENT).standard_normal(1)[0]
        x1 = stream(31, NOISE).standard_normal(1)[0]
        expect = math.sqrt(1.0 + eta * 0.25) * u1 + math.sqrt((1 - eta) * 0.25) * x1
        assert s.y[0] == pytest.approx(expect, abs=1e-8)

    def test_empirical_covariance_matches_kernel(self):
        """With generous Q and J the quadrature error is far below the
        Monte-Carlo noise floor; 20000 seeds must reproduce the fully
        noisy Gram matrix within 4 standard errors."""
        n, reps = 4, 20000
        K = self.noisy_gram(n, seed=14)
        draws = np.stack([
            ciq_sample(K, self.PARAMS, eta=0.5, Q=16, J=32, seed=r).y for r in range(reps)
        ])
        emp = draws.T @ draws / reps
        for i in range(n):
            for j in range(n):
                se = math.sqrt((K.entries[i, i] * K.entries[j, j] + K.entries[i, j] ** 2) / reps)
                assert abs(emp[i, j] - K.entries[i, j]) < 4 * se
