"""Closed-form parameter calculators and divergence inequalities."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate

from gpforge import (
    DecayModel,
    FidelitySpec,
    KernelParams,
    belkin_lambda_bound,
    ciq_error_bound,
    ciq_min_iterations,
    ciq_min_quadrature,
    condition_number_bound,
    decay_regime,
    gram,
    kl_frobenius_bound,
    kl_gaussian_marginal,
    precond_min_iterations,
    preconditioned_condition_bound,
    rff_element_budget,
    rff_min_features,
    sample_inputs,
    tv_from_kl,
)
from gpforge import bounds
from gpforge.kernel import GramMatrix

PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)


class TestFidelitySpec:
    def test_exact_carries_no_parameters(self):
        spec = FidelitySpec()
        assert spec.epsilon is None and spec.D is None and spec.Q is None

    def test_ciq_fills_quadrature_and_iterations(self):
        spec = FidelitySpec.for_ciq(256, PARAMS, epsilon=0.1)
        assert spec.eta == 0.5
        cap = 0.1 * 0.5 * math.sqrt(0.5)
        assert spec.delta_Q == pytest.approx(0.5 * cap)
        assert spec.Q == ciq_min_quadrature(256, 0.5, 0.25, spec.delta_Q)
        assert spec.J == ciq_min_iterations(256, 0.5, 0.25, 0.1, spec.delta_Q, spec.Q)

    def test_pciq_takes_iterations_from_the_preconditioned_bound(self):
        """for_pciq keeps for_ciq's budget split and Q and takes J from the
        preconditioned bound at rank floor(sqrt(n)) = 16, with the decay
        model's unit constants: 507 at n=256, against ciq's 357."""
        ciq = FidelitySpec.for_ciq(256, PARAMS, epsilon=0.1)
        spec = FidelitySpec.for_pciq(256, PARAMS, epsilon=0.1)
        model = DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=2)
        lam_17 = belkin_lambda_bound(17, 256, model)
        assert (spec.delta_Q, spec.eta, spec.Q, spec.rank) == (ciq.delta_Q, 0.5, ciq.Q, 16)
        assert spec.J == precond_min_iterations(lam_17, 256, 0.5, 0.25, 0.1, ciq.delta_Q) == 507
        assert ciq.J == 357

    def test_pciq_sizes_no_ciq_iterations(self, monkeypatch):
        """for_pciq's J reads no Q, so it never asks ciq's iteration
        calculator, whose J it would only drop."""

        def refuse(*args):
            raise AssertionError("for_pciq sized ciq's J")

        monkeypatch.setattr(bounds, "ciq_min_iterations", refuse)
        assert FidelitySpec.for_pciq(256, PARAMS, 0.1).J == 507

    @pytest.mark.parametrize("n", [1, 256, 10**6])
    def test_default_delta_q_is_half_the_cap(self, n):
        """for_ciq and for_pciq take delta_Q as half of the cap
        epsilon*sigma_xi*sqrt(1-eta), bitwise, across the grid."""
        for epsilon in (0.01, 0.1, 0.5, 1.0):
            for sigma_xi2 in (1e-3, 0.25, 1.0, 3.0):
                for eta in (0.1, 0.5, 0.9):
                    params = KernelParams(1.0, 1.0, sigma_xi2, 2)
                    expect = 0.5 * (epsilon * math.sqrt(sigma_xi2) * math.sqrt(1.0 - eta))
                    assert FidelitySpec.for_ciq(n, params, epsilon, eta).delta_Q == expect
                    assert FidelitySpec.for_pciq(n, params, epsilon, eta).delta_Q == expect

    def test_quadrature_budget_cap_enforced(self):
        cap = 0.1 * 0.5 * math.sqrt(0.5)
        with pytest.raises(ValueError):
            FidelitySpec.for_ciq(256, PARAMS, epsilon=0.1, delta_Q=cap)
        with pytest.raises(ValueError):
            FidelitySpec.for_ciq(256, PARAMS, epsilon=0.1, delta_Q=2 * cap)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0},
            {"epsilon": 1.5},
            {"delta": 1.0},
            {"delta_Q": 0.0},
            {"eta": 1.0},
            {"D": 7},
            {"D": 0},
            {"Q": 0},
            {"J": 0},
            {"rank": -1},
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            FidelitySpec(**kwargs)

    def test_ciq_checks_eta_before_square_root(self):
        """An eta above 1 would reach sqrt(1 - eta) as a math domain
        error; it is refused by name instead."""
        with pytest.raises(ValueError, match="eta"):
            FidelitySpec.for_ciq(256, PARAMS, epsilon=0.1, eta=1.5)


class TestRffMinFeatures:
    def test_worked_example(self):
        assert rff_min_features(100, 0.1, 0.01, 1.0) == 6907756

    def test_monotone_in_epsilon_and_n(self):
        eps_grid = [0.05, 0.1, 0.2, 0.4]
        ds = [rff_min_features(64, e, 0.01, 1.0) for e in eps_grid]
        assert all(a > b for a, b in zip(ds, ds[1:]))
        n_grid = [16, 64, 256, 1024]
        ds = [rff_min_features(n, 0.1, 0.01, 1.0) for n in n_grid]
        assert all(a < b for a, b in zip(ds, ds[1:]))

    def test_noise_scaling_law(self):
        """The count scales as the inverse fourth power of the noise
        standard deviation: doubling the variance divides it by 4,
        doubling the standard deviation divides it by 16."""
        d1 = rff_min_features(1000, 0.1, 0.01, 1.0)
        assert abs(rff_min_features(1000, 0.1, 0.01, 2.0) - d1 / 4) <= 2
        assert abs(rff_min_features(1000, 0.1, 0.01, 4.0) - d1 / 16) <= 2

    @pytest.mark.parametrize(
        "n, epsilon, sigma_xi2", [(8, 0.1, 1e200), (100, 1e-160, 1e155), (100, 1e-200, 1e155)]
    )
    def test_noise_variance_whose_square_overflows(self, n, epsilon, sigma_xi2):
        """sigma_xi2**2 raises OverflowError above about 1.3e154; the count
        then matches the formula in exact arithmetic, 2 where the noise
        swamps everything and a large count where epsilon is tiny."""
        log_term = Fraction(math.log(n / math.sqrt(0.01)))
        exact = log_term * n**2 / (Fraction(epsilon) ** 2 * Fraction(sigma_xi2) ** 2)
        expected = max(2, math.ceil(exact))
        expected += expected % 2
        assert rff_min_features(n, epsilon, 0.01, sigma_xi2) == pytest.approx(expected, rel=1e-12)

    def test_equals_the_published_expression(self):
        """D is 8*log(n/sqrt(delta))*n^2 / (8*eps^2*sigma_xi^4), evaluated
        as written and rounded up to an even count, wherever it stays
        below 1e12."""
        checked = 0
        for n in (1, 2, 7, 100, 1000, 10**5):
            for epsilon in (0.01, 0.1, 0.37, 1.0):
                for delta in (1e-3, 0.01, 0.3, 0.9):
                    for sigma_xi2 in (0.1, 0.25, 1.0, 10.0, 1e3):
                        log_term = math.log(n / math.sqrt(delta))
                        raw = 8.0 * log_term * n**2 / (8.0 * epsilon**2 * sigma_xi2**2)
                        if raw >= 1e12:
                            continue
                        expect = max(2, math.ceil(raw))
                        expect += expect % 2
                        assert rff_min_features(n, epsilon, delta, sigma_xi2) == expect
                        checked += 1
        assert checked > 300

    def test_extreme_noise_variances(self):
        """A noise variance of 1e200 needs 2 features, one of 1e-200 is
        refused, and (n, eps, sigma_xi2) = (8, 1e-170, 1e160), where eps^2
        underflows and sigma_xi^4 overflows, gives the quotient through logs."""
        assert rff_min_features(100, 0.1, 0.01, 1e200) == 2
        with pytest.raises(ValueError, match="D is not a finite number"):
            rff_min_features(100, 0.1, 0.01, 1e-200)
        log_term = math.log(8 / math.sqrt(0.01))
        logs = math.exp(math.log(log_term * 8**2) - 2.0 * (math.log(1e-170) + math.log(1e160)))
        D = rff_min_features(8, 1e-170, 0.01, 1e160)
        assert math.isfinite(D) and D == pytest.approx(logs, rel=1e-12)

    def test_even_and_floor(self):
        d = rff_min_features(2, 1.0, 0.5, 10.0)
        assert d >= 2 and d % 2 == 0

    def test_budget_scales_inversely_with_n(self):
        b = rff_element_budget(16, 0.51, 1.0)
        assert b == pytest.approx(2.0 * math.sqrt(2.0) * 0.51 / 16, rel=1e-12)
        assert rff_element_budget(32, 0.51, 1.0) == pytest.approx(b / 2, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rff_min_features(0, 0.1, 0.01, 1.0)
        with pytest.raises(ValueError):
            rff_min_features(10, 0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            rff_element_budget(10, -0.1, 1.0)


class TestCiqMinQuadrature:
    def test_worked_example(self):
        assert ciq_min_quadrature(1000, 0.5, 0.1, 1e-3) == 5

    def test_unit_ratio_gives_single_node(self):
        # n/(eta*sigma_xi2) = 1 and delta_Q = 1/e: ceil(3/(2 pi^2)) = 1
        assert ciq_min_quadrature(1, 0.5, 2.0, math.exp(-1)) == 1

    def test_more_nodes_for_tighter_budget(self):
        qs = [ciq_min_quadrature(1000, 0.5, 0.1, dq) for dq in (1e-1, 1e-2, 1e-4, 1e-8)]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert qs[-1] > qs[0]

    def test_budget_domain(self):
        with pytest.raises(ValueError):
            ciq_min_quadrature(1000, 0.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            ciq_min_quadrature(1000, 0.5, 0.1, 0.0)


class TestCiqMinIterations:
    CAP = 0.1 * 0.5 * math.sqrt(0.5)

    def test_golden_value(self):
        dq = 0.5 * self.CAP
        Q = ciq_min_quadrature(1024, 0.5, 0.25, dq)
        assert Q == 3
        assert ciq_min_iterations(1024, 0.5, 0.25, 0.1, dq, Q) == 813

    def test_strictly_increasing_in_n(self):
        dq = 0.5 * self.CAP
        js = []
        for n in (64, 256, 1024, 4096):
            Q = ciq_min_quadrature(n, 0.5, 0.25, dq)
            js.append(ciq_min_iterations(n, 0.5, 0.25, 0.1, dq, Q))
        assert js == sorted(js) and len(set(js)) == len(js)

    def test_finite_near_unit_condition_number(self):
        # tiny problem keeps kappa barely above 1; result must stay sane
        j = ciq_min_iterations(1, 0.9, 1e6, 0.5, 1e-6, 1)
        assert j >= 1 and isinstance(j, int)

    def test_cap_violation_rejected(self):
        with pytest.raises(ValueError):
            ciq_min_iterations(1024, 0.5, 0.25, 0.1, self.CAP, 3)


@pytest.mark.parametrize(
    "value",
    [
        lambda: rff_min_features(8, 0.1, 0.01, 1e-200),
        lambda: ciq_min_quadrature(8, 0.5, 1e-320, 1e-3),
        lambda: ciq_min_iterations(8, 0.5, 5e-324, 0.1, 1e-170, 1),
        lambda: precond_min_iterations(1e308, 8, 0.5, 1e-310, 1.0, 1e-160),
        lambda: condition_number_bound(8, 0.5, 1e-320, 1.0),
    ],
    ids=["D-divisor-underflows", "Q-infinite", "J-divisor-underflows", "precond-J-infinite",
         "kappa-infinite"],
)
def test_value_that_is_not_finite_is_refused(value):
    """A square or product that underflows to a zero divisor raised
    ZeroDivisionError, ceil(inf) OverflowError, and the condition-number
    bound came back inf: each is ValueError now."""
    with pytest.raises(ValueError, match="not a finite number"):
        value()


def test_a_bound_whose_divisor_underflows_to_zero_is_refused():
    """eta * sigma_xi2 = 0.5 * 5e-324 and the square of 1e-200 round to zero:
    the preconditioned condition bound and the Frobenius KL bound refuse
    them with ValueError, as every calculator refuses a value that is not
    finite, where a bare division would raise ZeroDivisionError."""
    with pytest.raises(ValueError, match="kappa_bound is not a finite number"):
        preconditioned_condition_bound(1.0, 100, 0.5, 5e-324, 10)
    with pytest.raises(ValueError, match="kl_bound is not a finite number"):
        kl_frobenius_bound(1.0, 1e-200)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=0), "dim must be >= 1"),
        (lambda: ciq_min_quadrature(8, 1.0, 0.25, 1e-3), r"eta in \(0, 1\)"),
        (lambda: ciq_min_iterations(8, 0.5, 0.25, 0.1, 1e-3, 0), "Q must be >= 1"),
        (lambda: precond_min_iterations(-1e-3, 8, 0.5, 0.25, 0.1, 1e-3), "lambda_kp1 must be >= 0"),
        (
            lambda: belkin_lambda_bound(1, 0, DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=2)),
            "need n >= 1",
        ),
    ],
    ids=["decay-dim-0", "Q-eta-1", "J-Q-0", "precond-J-negative-tail", "lambda-n-0"],
)
def test_an_argument_outside_its_domain_is_refused(call, message):
    """Each calculator refuses an argument outside its domain by name,
    before any arithmetic."""
    with pytest.raises(ValueError, match=message):
        call()


class TestPrecondMinIterations:
    def test_perfect_tail(self):
        assert precond_min_iterations(0.0, 256, 0.5, 0.25, 0.2, 0.02) == 1

    def test_worked_example(self):
        assert precond_min_iterations(1e-3, 256, 0.5, 0.25, 0.2, 0.02, 0.0) == 9

    def test_monotone_in_tail(self):
        js = [
            precond_min_iterations(lam, 256, 0.5, 0.25, 0.2, 0.02)
            for lam in (0.0, 1e-4, 1e-2, 1.0)
        ]
        assert all(a <= b for a, b in zip(js, js[1:]))
        assert js[-1] > js[0]

    def test_cap_violation_rejected(self):
        with pytest.raises(ValueError):
            precond_min_iterations(1e-3, 256, 0.5, 0.25, 0.2, 0.2)


class TestDecayRegime:
    MODEL2 = DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=2)
    MODEL4 = DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=4)

    def test_flat_regime_worked_example(self):
        gamma, regime, estimate = decay_regime(100, self.MODEL2)
        assert gamma == pytest.approx(-0.9705, abs=1e-4)
        assert regime == "iii"
        assert estimate == 1.0

    def test_growth_regime_worked_example(self):
        gamma, regime, estimate = decay_regime(100, self.MODEL4)
        assert gamma == pytest.approx(2.4484, abs=1e-4)
        assert regime == "i"
        assert estimate == pytest.approx(100**0.875 * math.log(100), rel=1e-12)

    def test_middle_regime_reachable(self):
        hits = {decay_regime(n, self.MODEL4)[1] for n in range(2, 60)}
        assert "ii" in hits

    def test_exponent_eventually_negative(self):
        """For any finite dimension the square-root growth of the decay
        term overtakes the logarithm; at d=8 the crossover needs very
        large n (the term is still positive at n=1e12)."""
        model8 = DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=8)
        gamma, regime, _ = decay_regime(int(1e15), model8)
        assert gamma < 0
        assert regime == "iii"

    def test_domain(self):
        with pytest.raises(ValueError):
            decay_regime(0, self.MODEL2)
        with pytest.raises(ValueError):
            DecayModel(c1=-1.0, c2=1.0, sigma_f=1.0, dim=2)

    @pytest.mark.parametrize("field", ["c1", "c2", "sigma_f"])
    def test_nan_constant_rejected(self, field):
        constants = {"c1": 1.0, "c2": 1.0, "sigma_f": 1.0, field: math.nan}
        with pytest.raises(ValueError):
            DecayModel(**constants, dim=2)


class TestConditionNumberBound:
    def test_worked_example(self):
        assert condition_number_bound(100, 1.0, 0.01, 1.0) == pytest.approx(10001.0)

    def test_dense_gram_stays_below(self):
        eta = 0.5
        X = sample_inputs(128, PARAMS, seed=55)
        K = gram(X, PARAMS, jitter=eta * PARAMS.noise_variance)
        lam = np.linalg.eigvalsh(K.entries)
        assert lam[-1] / lam[0] <= condition_number_bound(128, eta, 0.25, 1.0)

    def test_full_noise_split_lowers_bound(self):
        assert condition_number_bound(128, 1.0, 0.25, 1.0) < condition_number_bound(
            128, 0.5, 0.25, 1.0
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            condition_number_bound(128, 1.5, 0.25, 1.0)


class TestCiqErrorBound:
    def test_unit_condition_number_kills_krylov_term(self):
        eps_q, B, total = ciq_error_bound(4, 2, 1.0, 0.5, 3.0)
        assert B == 0.0
        assert total == eps_q

    def test_krylov_term_decreasing_in_iterations(self):
        bs = [ciq_error_bound(4, j, 100.0, 0.5, 1.0)[1] for j in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(bs, bs[1:]))

    def test_quadrature_term_decreasing_in_nodes(self):
        es = [ciq_error_bound(q, 8, 100.0, 0.5, 1.0)[0] for q in (1, 2, 4, 8)]
        assert all(a > b for a, b in zip(es, es[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            ciq_error_bound(4, 4, 0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            ciq_error_bound(0, 4, 2.0, 0.5, 1.0)


def psd_gram(n, seed, noise):
    p = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=noise, dim=2)
    X = sample_inputs(n, p, seed=seed)
    return gram(X, p, jitter=noise)


class TestKlGaussianMarginal:
    def test_identical_covariances(self):
        K = psd_gram(8, 3, 0.25)
        assert kl_gaussian_marginal(K, K) == 0.0

    def test_scalar_closed_form(self):
        K = GramMatrix(entries=np.array([[1.0]]), jitter=1.0)
        K_hat = GramMatrix(entries=np.array([[2.0]]), jitter=2.0)
        expect = 0.5 * (2.0 - 1.0 - math.log(2.0))
        assert kl_gaussian_marginal(K_hat, K) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.15343, abs=5e-6)

    def test_non_negative_on_random_pairs(self):
        for i in range(20):
            K = psd_gram(12, 2 * i, 0.25)
            K_hat = psd_gram(12, 2 * i + 1, 0.3)
            assert kl_gaussian_marginal(K_hat, K) >= 0.0

    def test_size_mismatch_and_indefinite(self):
        K = psd_gram(8, 3, 0.25)
        with pytest.raises(ValueError):
            kl_gaussian_marginal(psd_gram(6, 3, 0.25), K)
        bad = GramMatrix(entries=np.array([[1.0, 2.0], [2.0, 1.0]]), jitter=1.0)
        with pytest.raises(ValueError):
            kl_gaussian_marginal(bad, psd_gram(2, 3, 0.25))


class TestKlFrobeniusBound:
    def test_zero_error(self):
        assert kl_frobenius_bound(0.0, 0.25) == 0.0

    def test_quadratic_scaling(self):
        assert kl_frobenius_bound(2.0, 0.5) == 4.0 * kl_frobenius_bound(1.0, 0.5)

    def test_dominates_dense_kl_on_perturbed_grams(self):
        """One hundred random n=16 pairs differing by a small symmetric
        perturbation: the dense KL never exceeds the Frobenius form."""
        noise = 0.25
        violations = 0
        for i in range(100):
            K = psd_gram(16, 700 + i, noise)
            rng = np.random.default_rng(1700 + i)
            E = rng.normal(scale=0.01, size=(16, 16))
            E = (E + E.T) / 2.0
            K_hat = GramMatrix(entries=K.entries + E, jitter=noise)
            kl = kl_gaussian_marginal(K_hat, K)
            bound = kl_frobenius_bound(float(np.linalg.norm(E)), noise)
            if kl > bound:
                violations += 1
        assert violations == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            kl_frobenius_bound(-1.0, 0.25)
        with pytest.raises(ValueError):
            kl_frobenius_bound(1.0, 0.0)


def gaussian_tv_numeric(m0, v0, m1, v1):
    def gap(x):
        a = math.exp(-((x - m0) ** 2) / (2 * v0)) / math.sqrt(2 * math.pi * v0)
        b = math.exp(-((x - m1) ** 2) / (2 * v1)) / math.sqrt(2 * math.pi * v1)
        return abs(a - b)

    val, _ = scipy.integrate.quad(gap, -60, 60, limit=400)
    return 0.5 * val


def gaussian_kl_scalar(m0, v0, m1, v1):
    return 0.5 * (v0 / v1 + (m1 - m0) ** 2 / v1 - 1.0 + math.log(v1 / v0))


class TestTvFromKl:
    def test_zero(self):
        assert tv_from_kl(0.0) == 0.0

    def test_clamp_boundary(self):
        assert tv_from_kl(2.0) == 1.0
        assert tv_from_kl(50.0) == 1.0

    def test_dominates_integrated_tv(self):
        tv = gaussian_tv_numeric(0.0, 1.0, 0.0, 1.5)
        kl = gaussian_kl_scalar(0.0, 1.0, 0.0, 1.5)
        assert tv <= tv_from_kl(kl)
        assert tv == pytest.approx(0.09778, abs=1e-4)

    def test_pinsker_sandwich_on_grid(self):
        for m in (0.0, 0.5, 1.0):
            for v in (0.5, 1.0, 2.0):
                if m == 0.0 and v == 1.0:
                    continue
                tv = gaussian_tv_numeric(0.0, 1.0, m, v)
                bound = tv_from_kl(gaussian_kl_scalar(0.0, 1.0, m, v))
                assert 0.0 <= tv <= bound <= 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tv_from_kl(-0.1)

    def test_nan_rejected(self):
        """NaN passes `kl < 0`; it used to give a TV bound of 1.0."""
        with pytest.raises(ValueError):
            tv_from_kl(math.nan)


class TestBelkinLambdaBound:
    MODEL = DecayModel(c1=1.0, c2=1.0, sigma_f=1.0, dim=2)

    def test_monotone_decreasing_in_k(self):
        vals = [belkin_lambda_bound(k, 256, self.MODEL) for k in (1, 2, 4, 16, 64, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_sqrt_rank_substitution_chain(self):
        """Substituting k = floor(sqrt(n)) into the envelope must keep
        sqrt(lambda_{k+1}) * n^(3/8) under sqrt(c2 sigma_f) * n^(7/8) *
        exp(-(c1/2) n^(1/(2d))); the decay exponent is k^(1/d) =
        n^(1/(2d)) at this rank, which is what makes the chain hold."""
        n, d = 256, 2
        k = int(math.isqrt(n))
        lhs = math.sqrt(belkin_lambda_bound(k + 1, n, self.MODEL)) * n**0.375
        rhs = math.sqrt(1.0) * n**0.875 * math.exp(-0.5 * n ** (1.0 / (2 * d)))
        assert lhs == pytest.approx(16.289, abs=2e-3)
        assert rhs == pytest.approx(17.323, abs=2e-3)
        assert lhs <= rhs

    def test_dense_spectrum_fits_envelope_qualitatively(self):
        """Fit the envelope's constants to a real spectrum by least
        squares on the decaying stretch, then require the inflated
        envelope to dominate that stretch."""
        X = sample_inputs(256, PARAMS, seed=77)
        K = gram(X, PARAMS, jitter=0.25)
        lam = np.linalg.eigvalsh(K.entries - 0.25 * np.eye(256))[::-1]
        ks = np.arange(1, 257)
        sel = (ks >= 4) & (ks <= 64) & (lam > 1e-12)
        A = np.vstack([np.ones(sel.sum()), -np.sqrt(ks[sel])]).T
        (logc, c1), *_ = np.linalg.lstsq(A, np.log(lam[sel]), rcond=None)
        fitted = DecayModel(c1=float(c1), c2=3.0 * math.exp(logc) / 256, sigma_f=1.0, dim=2)
        for k in range(4, 64):
            assert lam[k - 1] <= belkin_lambda_bound(k, 256, fitted)

    def test_domain(self):
        with pytest.raises(ValueError):
            belkin_lambda_bound(0, 256, self.MODEL)


class TestConditionalKlDominance:
    def test_conditioning_only_adds_divergence(self):
        """Discrete joint distributions sharing the conditioning
        variable's marginal: the Monte-Carlo average of the conditional
        KL must dominate the KL of the other margin (chain rule plus
        data processing), up to three standard errors of the estimate."""
        rng = np.random.default_rng(31)
        for _ in range(3):
            nu, nf = 4, 6
            q = rng.random((nu, nf)) + 0.05
            q /= q.sum()
            p = rng.random((nu, nf)) + 0.05
            p *= (q.sum(axis=1) / p.sum(axis=1))[:, None]
            kl_marginal = float(np.sum(q.sum(axis=0) * np.log(q.sum(axis=0) / p.sum(axis=0))))
            qu = q.sum(axis=1)
            cond = np.array(
                [float(np.sum(q[i] / qu[i] * np.log(q[i] / p[i]))) for i in range(nu)]
            )
            draws = cond[rng.choice(nu, size=4000, p=qu)]
            se = float(draws.std(ddof=1)) / math.sqrt(4000)
            assert float(draws.mean()) >= kl_marginal - 3.0 * se
