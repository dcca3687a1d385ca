"""Statistical verification layer: the normality test, binomial
intervals and the rejection-rate experiment harness."""

import contextlib
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import sys
import threading
import tracemalloc
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import gpforge
from gpforge import stats as stats_module
from gpforge.bounds import DEFAULT_EPSILON
from gpforge import (
    ExperimentConfig,
    ExperimentReport,
    FidelitySpec,
    KernelParams,
    SampleMethod,
    binomial_ci,
    cholesky_factor,
    ciq_sample,
    cvm_statistic,
    cvm_test,
    draw,
    exact_sample,
    gram,
    fidelity_rescaler,
    rejection_rate_experiment,
    report_csv_lines,
    report_to_json,
    resolve_fidelity,
    rff_sample,
    sample_inputs,
)

PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)
SHORT = KernelParams(variance=1.0, lengthscale=0.1, noise_variance=0.25, dim=2)


class TestCvmStatistic:
    def test_single_zero_observation(self):
        # probs and plotting positions coincide, leaving only the 1/(12n) term
        assert cvm_statistic(np.array([0.0])) == pytest.approx(1.0 / 12.0, rel=1e-14)

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(64)
        shuffled = z[rng.permutation(64)]
        assert cvm_statistic(z) == cvm_statistic(shuffled)

    def test_null_median_matches_asymptotic_value(self):
        rng = np.random.default_rng(12345)
        stats = [cvm_statistic(rng.standard_normal(100)) for _ in range(5000)]
        assert np.median(stats) == pytest.approx(0.119, abs=0.01)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cvm_statistic(np.array([]))
        with pytest.raises(ValueError):
            cvm_statistic(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            cvm_statistic(np.array([0.0, np.nan]))


class TestCvmTest:
    def test_quantile_grid_accepted_at_every_level(self):
        import scipy.special

        u = (np.arange(1, 201) - 0.5) / 200.0
        z = scipy.special.ndtri(u)
        for alpha in (0.10, 0.05, 0.01):
            res = cvm_test(z, alpha)
            assert not res.reject
            assert res.alpha == alpha

    def test_gross_shift_rejected_at_every_level(self):
        z = np.full(100, 5.0)
        for alpha in (0.10, 0.05, 0.01):
            assert cvm_test(z, alpha).reject

    def test_critical_values_wired_to_levels(self):
        z = np.zeros(10)
        assert cvm_test(z, 0.10).critical_value == 0.347
        assert cvm_test(z, 0.05).critical_value == 0.461
        assert cvm_test(z, 0.01).critical_value == 0.743

    def test_unsupported_level(self):
        with pytest.raises(ValueError):
            cvm_test(np.zeros(10), 0.2)

    def test_null_type_one_error_rate(self):
        """5000 standard-normal samples of size 256: the rejection rate
        at the 5 percent level sits near nominal."""
        rng = np.random.default_rng(999)
        rej = sum(cvm_test(rng.standard_normal(256), 0.05).reject for _ in range(5000))
        assert 0.042 <= rej / 5000 <= 0.058


class TestBinomialCi:
    def test_worked_interval(self):
        lo, hi = binomial_ci(0.05, 1000)
        assert lo == pytest.approx(0.0365, abs=5e-4)
        assert hi == pytest.approx(0.0635, abs=5e-4)

    def test_degenerate_rate_keeps_positive_width(self):
        lo, hi = binomial_ci(0.0, 200)
        assert lo == 0.0
        assert hi > 0.0
        lo1, hi1 = binomial_ci(1.0, 200)
        assert hi1 == 1.0
        assert lo1 < 1.0

    def test_width_scales_with_inverse_root_of_repeats(self):
        w100 = np.diff(binomial_ci(0.2, 100))[0]
        w400 = np.diff(binomial_ci(0.2, 400))[0]
        assert w100 / w400 == pytest.approx(2.0, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_ci(1.1, 100)
        with pytest.raises(ValueError):
            binomial_ci(0.5, 0)

    @pytest.mark.parametrize("level", [-0.2, 0.0, 1.0, 1.5, math.nan])
    def test_level_outside_the_open_unit_interval_is_refused(self, level):
        with pytest.raises(ValueError, match="level"):
            binomial_ci(0.3, 100, level=level)

    def test_equals_the_normal_quantile_formula_bitwise(self):
        """The quantile comes from scipy.special.ndtri; the interval is
        bit for bit the one scipy.stats.norm.ppf gives."""
        for level in (0.5, 0.9, 0.95, 0.99, 0.9999):
            z = float(scipy.stats.norm.ppf(0.5 + level / 2.0))
            for rate, N in ((0.0, 8), (0.05, 1000), (0.3, 100), (0.5, 7), (0.999, 4096), (1.0, 200)):
                p_width = min(max(rate, 0.5 / N), 1.0 - 0.5 / N)
                half = z * math.sqrt(p_width * (1.0 - p_width) / N)
                assert binomial_ci(rate, N, level) == (max(0.0, rate - half), min(1.0, rate + half))


class TestFidelityRescaler:
    def test_growth_laws(self):
        n = 64
        assert fidelity_rescaler(SampleMethod.Rff, n) == pytest.approx(n**2 * math.log(n))
        assert fidelity_rescaler(SampleMethod.Ciq, n) == pytest.approx(
            math.sqrt(n) * math.log(n)
        )
        assert fidelity_rescaler(SampleMethod.CiqPreconditioned, n) == pytest.approx(
            n**0.375 * math.log(n)
        )
        assert fidelity_rescaler(SampleMethod.Exact, n) is None


class TestResolveFidelity:
    def test_fills_defaults(self):
        ciq = FidelitySpec.for_ciq(64, PARAMS, epsilon=0.2, eta=0.3)
        pciq = FidelitySpec.for_pciq(64, PARAMS, epsilon=0.2, eta=0.3)
        assert resolve_fidelity(SampleMethod.Exact, 64, PARAMS) == FidelitySpec()
        assert resolve_fidelity(SampleMethod.Rff, 64, PARAMS, D=32) == FidelitySpec(D=32)
        assert resolve_fidelity(
            SampleMethod.Ciq, 64, PARAMS, J=7, eta=0.3, epsilon=0.2
        ) == FidelitySpec(eta=0.3, Q=ciq.Q, J=7)
        assert resolve_fidelity(
            SampleMethod.CiqPreconditioned, 64, PARAMS, Q=5, eta=0.3, epsilon=0.2
        ) == FidelitySpec(eta=0.3, Q=5, J=pciq.J, rank=8)
        assert resolve_fidelity(
            SampleMethod.CiqPreconditioned, 64, PARAMS, rank=2, eta=0.3, epsilon=0.2
        ) == FidelitySpec(eta=0.3, Q=ciq.Q, J=pciq.J, rank=2)

    @pytest.mark.parametrize(
        "method, kwargs",
        [
            (SampleMethod.Exact, {"n": 0}),
            (SampleMethod.Rff, {}),
            (SampleMethod.Rff, {"D": 3}),
            (SampleMethod.Ciq, {"eta": 1.5}),
            (SampleMethod.Ciq, {"epsilon": 2.0}),
            (SampleMethod.Ciq, {"Q": 0}),
            (SampleMethod.Ciq, {"J": 0}),
            (SampleMethod.CiqPreconditioned, {"rank": 0}),
            (SampleMethod.CiqPreconditioned, {"rank": 17}),
            (SampleMethod.Ciq, {"epsilon": 2.0, "Q": 3, "J": 5}),  # checked though unused
        ],
    )
    def test_rejects_invalid_values(self, method, kwargs):
        with pytest.raises(ValueError):
            resolve_fidelity(method, params=PARAMS, **{"n": 16, **kwargs})

    @pytest.mark.parametrize("n, J", [(256, 395), (2048, 1326)])
    def test_a_given_q_sizes_ciq_j_at_that_q(self, n, J):
        """ciq's J is sized at the Q given, not at the calculator's Q = 3,
        whose J is 357 at n = 256 and 1219 at n = 2048."""
        fidelity = resolve_fidelity(SampleMethod.Ciq, n, PARAMS, Q=16)
        assert (fidelity.Q, fidelity.J) == (16, J)


@settings(max_examples=60, deadline=None)
@given(
    pciq=st.booleans(),
    n=st.integers(1, 4096),
    noise=st.floats(1e-4, 1e2),
    Q=st.none() | st.integers(1, 64),
    J=st.none() | st.integers(1, 5000),
)
def test_a_given_q_or_j_passes_through_and_only_the_missing_one_is_sized(pciq, n, noise, Q, J):
    """resolve_fidelity returns a given Q and J unchanged and sizes what is
    missing at the given value: ciq's J at the Q that runs, pciq's J from the
    preconditioned bound, which reads no Q. Q is sized only when missing,
    ciq's calculator only when ciq's J is missing, the preconditioned one
    only when pciq's is, and with both given no calculator runs."""
    params = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=noise, dim=2)
    method = SampleMethod.CiqPreconditioned if pciq else SampleMethod.Ciq
    bounds = gpforge.bounds
    with contextlib.ExitStack() as stack:
        calls = {
            name: stack.enter_context(
                unittest.mock.patch.object(bounds, name, wraps=getattr(bounds, name))
            )
            for name in ("ciq_min_quadrature", "ciq_min_iterations", "precond_min_iterations")
        }
        f = resolve_fidelity(method, n, params, Q=Q, J=J)
    assert {name: mock.called for name, mock in calls.items()} == {
        "ciq_min_quadrature": Q is None,
        "ciq_min_iterations": J is None and not pciq,
        "precond_min_iterations": J is None and pciq,
    }
    delta_Q = FidelitySpec.for_ciq(n, params, DEFAULT_EPSILON).delta_Q
    assert f.Q == (bounds.ciq_min_quadrature(n, 0.5, noise, delta_Q) if Q is None else Q)
    if J is not None:
        assert f.J == J
    elif pciq:
        assert f.J == FidelitySpec.for_pciq(n, params, DEFAULT_EPSILON).J
    else:
        assert f.J == bounds.ciq_min_iterations(n, 0.5, noise, DEFAULT_EPSILON, delta_Q, f.Q)


def test_draw_dispatches_to_each_sampler():
    """draw gives, value for value, the draw of the sampler it picks."""
    X = sample_inputs(24, PARAMS, 2)
    K_xi = gram(X, PARAMS, jitter=PARAMS.noise_variance)
    cases = [
        (SampleMethod.Exact, exact_sample(cholesky_factor(K_xi), PARAMS, 2)),
        (SampleMethod.Rff, rff_sample(X, PARAMS, 16, 2)),
        (SampleMethod.Ciq, ciq_sample(K_xi, PARAMS, 0.5, 3, 20, 2)),
        (SampleMethod.CiqPreconditioned, ciq_sample(K_xi, PARAMS, 0.5, 3, 20, 2, rank=4)),
    ]
    for method, expected in cases:
        fidelity = resolve_fidelity(method, 24, PARAMS, D=16, Q=3, J=20, rank=4)
        sample = draw(method, X, PARAMS, fidelity, 2)
        assert sample.method is method
        assert sample.fidelity == expected.fidelity
        np.testing.assert_array_equal(sample.y, expected.y)


def record_calls(monkeypatch, fn):
    """Log (args, result) of each call to fn through every gpforge module
    that binds it."""
    calls = []

    def recorded(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    for name, mod in list(sys.modules.items()):
        if name == "gpforge" or name.startswith("gpforge."):
            for attr, bound in list(vars(mod).items()):
                if bound is fn:
                    monkeypatch.setattr(mod, attr, recorded)
    return calls


@pytest.mark.parametrize(
    "method, grid",
    [
        (SampleMethod.Exact, ()),
        (SampleMethod.Rff, (4, 16, 64)),
        (SampleMethod.Ciq, (4, 8, 20)),
        (SampleMethod.CiqPreconditioned, (4, 8, 20)),
    ],
)
def test_each_repeat_assembles_and_factors_once(monkeypatch, method, grid):
    """Each (n, repeat) makes one gram call and one Cholesky factorization,
    whatever the grid size: every cell at that n and its baseline share
    both, ciq and pciq included."""
    grams = record_calls(monkeypatch, gpforge.kernel.gram)
    factors = record_calls(monkeypatch, gpforge.exact.cholesky_factor)
    config = ExperimentConfig(
        method=method, n_list=(24, 32), params=PARAMS, fidelity_grid=grid, repeats=3
    )
    report = rejection_rate_experiment(config)
    assert not any(cell.failed for cell in report.cells + report.baseline)
    assert len(grams) == 2 * 3
    assert len(factors) == 2 * 3


@pytest.mark.parametrize("method", [SampleMethod.Ciq, SampleMethod.CiqPreconditioned])
def test_each_repeat_runs_one_solve_for_every_cap(monkeypatch, method):
    """The ciq or pciq cells at one n read their draws off one recurrence
    per (n, repeat), to the largest cap, and pciq builds one Nystrom
    factor per (n, repeat), where each cell used to run its own."""
    solves = record_calls(monkeypatch, gpforge.ciq._solve_to_caps)
    factors = record_calls(monkeypatch, gpforge.precond.nystrom_factor)
    config = ExperimentConfig(
        method=method, n_list=(24, 32), params=PARAMS, fidelity_grid=(4, 8, 20), repeats=3
    )
    report = rejection_rate_experiment(config)
    assert not any(cell.failed for cell in report.cells + report.baseline)
    assert len(solves) == 2 * 3
    assert len(factors) == (2 * 3 if method is SampleMethod.CiqPreconditioned else 0)


def test_a_pciq_cell_whose_factor_reaches_rank_zero_runs():
    """At variance 1e-20 each diagonal entry of K_eta, variance + eta *
    noise, rounds to eta * noise, so every repeat's Nystrom factor stops
    at rank 0; the pciq cells are still measured, where each used to
    fail with "rank must be >= 1, got 0"."""
    params = dataclasses.replace(PARAMS, variance=1e-20)
    config = ExperimentConfig(
        method=SampleMethod.CiqPreconditioned, n_list=(64,), params=params,
        fidelity_grid=(4, 20), repeats=3,
    )
    report = rejection_rate_experiment(config)
    assert not any(cell.failed for cell in report.cells + report.baseline)
    assert all(0.0 <= cell.rate <= 1.0 for cell in report.cells)


@pytest.mark.parametrize("method", [SampleMethod.Ciq, SampleMethod.CiqPreconditioned])
def test_a_sweep_whose_ciq_j_is_not_finite_runs_at_its_grid_j(method):
    """At noise variance 1e-100 ciq's iteration calculator gives no finite
    J, but a sweep gives every J and sizes only Q, so no cell fails; each
    used to fail with "J is not a finite number at these inputs"."""
    params = dataclasses.replace(PARAMS, noise_variance=1e-100)
    config = ExperimentConfig(
        method=method, n_list=(16,), params=params, fidelity_grid=(8, 16), repeats=2,
    )
    report = rejection_rate_experiment(config)
    assert not any(cell.failed for cell in report.cells + report.baseline)
    assert [cell.ran.J for cell in report.cells] == [8, 16]


@pytest.mark.parametrize("method", [SampleMethod.Ciq, SampleMethod.CiqPreconditioned])
def test_a_problem_sharing_caps_gives_each_seed_its_own_draws(monkeypatch, method):
    """Each repeat of a sweep makes one quadrature call, at the sorted
    distinct caps of its cells (9.0 and 9.2 both run J = 9), and its
    sample at each cap is bitwise the fresh draw at that cap and the
    repeat's seed."""
    inputs = record_calls(monkeypatch, sample_inputs)
    solves = record_calls(monkeypatch, ciq_sample)
    config = ExperimentConfig(
        method=method, n_list=(30,), params=PARAMS, fidelity_grid=(40.0, 3.0, 9.0, 9.2),
        repeats=3,
    )
    report = rejection_rate_experiment(config)
    monkeypatch.undo()
    assert not any(cell.failed for cell in report.cells + report.baseline)
    X_at = {args[2]: X for args, X in inputs}
    assert len(X_at) == len(solves) == 3
    for (_, _, _, _, caps, seed, _), samples in solves:
        assert caps == (3, 9, 40)
        for J, sample in zip(caps, samples):
            fidelity = resolve_fidelity(method, 30, PARAMS, J=J)
            y = fresh_draw(method, X_at[seed], fidelity, seed)
            np.testing.assert_array_equal(sample.y, y)


def test_a_shared_solve_that_raises_fails_each_quadrature_cell(monkeypatch):
    """When a repeat's one quadrature call raises, every ciq cell fails
    with its message, and the exact baseline is that of a clean run. The
    call is not retried for each cell, whose own draw would run the same
    checks on the same numerics: it is made once per (n, chunk)."""
    config = ExperimentConfig(
        method=SampleMethod.Ciq, n_list=(16, 24), params=PARAMS, fidelity_grid=(4.0, 8.0, 20.0),
        repeats=3,
    )
    clean = rejection_rate_experiment(config)
    calls = []

    def failing(*args):
        calls.append(args)
        raise ValueError("shared solve failed")

    monkeypatch.setattr(stats_module, "ciq_sample", failing)
    report = rejection_rate_experiment(config, threads=1)
    assert all(cell.failed and cell.message == "shared solve failed" for cell in report.cells)
    assert report.baseline == clean.baseline
    assert len(calls) == 2 * 3  # 2 sizes, in chunks of ceil(3 / 4) = 1 repeat


@pytest.mark.parametrize("stage", ["sample_inputs", "gram", "cholesky_factor"])
def test_a_shared_stage_that_raises_fails_every_cell_at_its_size(monkeypatch, stage):
    """When a repeat's inputs, assembly or factor raise at n = 12 only,
    every cell at 12, its baseline included, fails with that message, and
    the cells at 8 are those of a clean run. A failed shared stage ends
    its chunk: each of the 4 chunks of 2 repeats at n = 12 runs the stages
    up to the failing one once, and nothing after it."""
    config = ExperimentConfig(
        method=SampleMethod.Rff, n_list=(8, 12), params=PARAMS, fidelity_grid=(4.0, 16.0),
        repeats=8,
    )
    clean = rejection_rate_experiment(config, threads=1)
    log = []
    for name in ("sample_inputs", "gram", "rff_sample", "cholesky_factor", "exact_sample"):

        def logged(first, *args, name=name, real=getattr(stats_module, name), **kwargs):
            log.append(name)
            if name == stage and (first if name == "sample_inputs" else first.n) == 12:
                raise ValueError(f"{stage} failed")
            return real(first, *args, **kwargs)

        monkeypatch.setattr(stats_module, name, logged)
    report = rejection_rate_experiment(config, threads=1)
    cells, clean_cells = report.cells + report.baseline, clean.cells + clean.baseline
    at_12 = [c for c in cells if c.n == 12]
    assert len(at_12) == 3
    assert all(c.failed and c.message == f"{stage} failed" for c in at_12)
    assert [c for c in cells if c.n == 8] == [c for c in clean_cells if c.n == 8]
    repeat = [
        "sample_inputs", "gram", "rff_sample", "rff_sample", "cholesky_factor", "exact_sample"
    ]
    assert log == repeat * 8 + repeat[: repeat.index(stage) + 1] * 4


def test_a_cell_keeps_its_own_failure_when_the_factor_fails_after_it(monkeypatch):
    """A cell whose draw raised keeps that message when the same repeat's
    factor raises next; the other cells fail with the factor's."""
    rff = stats_module.rff_sample

    def failing_rff(X, params, D, seed):
        if D == 4:
            raise ValueError("no draw")
        return rff(X, params, D, seed)

    def failing_factor(*args, **kwargs):
        raise ValueError("no factor")

    monkeypatch.setattr(stats_module, "rff_sample", failing_rff)
    monkeypatch.setattr(stats_module, "cholesky_factor", failing_factor)
    config = ExperimentConfig(
        method=SampleMethod.Rff, n_list=(8,), params=PARAMS, fidelity_grid=(4.0, 16.0), repeats=2
    )
    report = rejection_rate_experiment(config, threads=1)
    assert [c.message for c in report.cells + report.baseline] == [
        "no draw", "no factor", "no factor"
    ]


def test_a_chunk_whose_draws_all_fail_stops(monkeypatch):
    """When every draw raises, each chunk makes one draw call per cell, at
    its first repeat, and stops there: 8 repeats in chunks of 2 draw the
    inputs 4 times, not 8."""
    draws = []

    def failing(*args):
        draws.append(args)
        raise ValueError("no draw")

    monkeypatch.setattr(stats_module, "rff_sample", failing)
    monkeypatch.setattr(stats_module, "exact_sample", failing)
    inputs = record_calls(monkeypatch, sample_inputs)
    config = ExperimentConfig(
        method=SampleMethod.Rff, n_list=(8,), params=PARAMS, fidelity_grid=(4.0, 16.0), repeats=8
    )
    report = rejection_rate_experiment(config, threads=1)
    assert all(c.failed and c.message == "no draw" for c in report.cells + report.baseline)
    assert len(draws) == 4 * 3
    assert len(inputs) == 4


def test_mcnemar_p_on_a_hand_built_table():
    """8 repeats only the cell rejected, 1 only the baseline, 3 both, 4
    neither: the two-sided exact p-value is 2 (1 + 9) / 2^9 on the 9
    discordant pairs; with no discordant pair it is 1."""
    cell = [True] * 8 + [False] + [True] * 3 + [False] * 4
    baseline = [False] * 8 + [True] + [True] * 3 + [False] * 4
    assert stats_module._mcnemar_p(cell, baseline) == pytest.approx(20 / 512, rel=1e-12)
    assert stats_module._mcnemar_p(baseline, cell) == pytest.approx(20 / 512, rel=1e-12)
    assert stats_module._mcnemar_p(cell, cell) == 1.0
    assert stats_module._mcnemar_p([True] * 6, [False] * 6) == pytest.approx(2 / 64, rel=1e-12)


def _table(only_cell, only_baseline, both=0):
    """Paired rejection records with the given discordant and concordant counts."""
    cell = [True] * only_cell + [False] * only_baseline + [True] * both
    baseline = [False] * only_cell + [True] * only_baseline + [True] * both
    return cell, baseline


def test_mcnemar_p_agrees_with_scipy_binomtest():
    """Every table with up to 60 discordant pairs, and a few large ones,
    against scipy.stats.binomtest's two-sided exact p-value."""
    tables = [(k, m - k) for m in range(1, 61) for k in range(m + 1)]
    for m in (500, 1000, 3000):
        tables += [(k, m - k) for k in (0, m // 10, m // 3, m // 2 - 1, m // 2 + 1)]
    for only_cell, only_baseline in tables:
        want = scipy.stats.binomtest(only_cell, only_cell + only_baseline).pvalue
        got = stats_module._mcnemar_p(*_table(only_cell, only_baseline, both=2))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (only_cell, only_baseline)


@settings(max_examples=200, deadline=None)
@given(
    only_cell=st.integers(0, 500),
    only_baseline=st.integers(0, 500),
    both=st.integers(0, 3),
)
def test_mcnemar_p_is_symmetric_and_a_probability(only_cell, only_baseline, both):
    """Swapping the cell and its baseline leaves the p-value unchanged,
    and up to 1000 discordant pairs it is a positive probability."""
    cell, baseline = _table(only_cell, only_baseline, both)
    p = stats_module._mcnemar_p(cell, baseline)
    assert p == stats_module._mcnemar_p(baseline, cell)
    assert 0.0 < p <= 1.0


def fresh_draw(method, X, fidelity, seed):
    return draw(method, X, PARAMS, fidelity, seed).y


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    order=st.permutations([SampleMethod.Rff, SampleMethod.Ciq, SampleMethod.CiqPreconditioned]),
)
def test_draws_on_a_shared_problem_equal_fresh_draws(n, seed, order):
    """On one K_xi, the rff, ciq and pciq draws in any order (a ciq draw
    before a pciq draw included), then the factor in place of K_xi and the
    exact draw, are each bitwise equal to draw() on fresh inputs."""
    X = sample_inputs(n, PARAMS, seed)
    K_xi = gram(X, PARAMS, jitter=PARAMS.noise_variance)
    for method in order:
        f = resolve_fidelity(method, n, PARAMS, D=8, J=12, rank=max(1, n // 4))
        if method is SampleMethod.Rff:
            y = rff_sample(X, PARAMS, f.D, seed).y
        else:
            y = ciq_sample(K_xi, PARAMS, f.eta, f.Q, (f.J,), seed, f.rank)[0].y
        np.testing.assert_array_equal(y, fresh_draw(method, X, f, seed))
    y = exact_sample(cholesky_factor(K_xi, overwrite=True), PARAMS, seed).y
    np.testing.assert_array_equal(y, fresh_draw(SampleMethod.Exact, X, FidelitySpec(), seed))


@pytest.mark.parametrize(
    "method, grid",
    [
        (SampleMethod.Exact, ()),
        (SampleMethod.Rff, (4.0, 16.0)),
        (SampleMethod.Ciq, (4.0, 16.0)),
        (SampleMethod.CiqPreconditioned, (4.0, 16.0)),
    ],
)
def test_each_cell_of_the_experiment_draws_as_a_fresh_problem(monkeypatch, method, grid):
    """Every draw the experiment makes on a repeat's shared inputs and K_xi
    is bitwise equal to draw() at the same inputs, fidelity and seed."""
    inputs = record_calls(monkeypatch, sample_inputs)
    calls = {fn: record_calls(monkeypatch, fn) for fn in (rff_sample, ciq_sample, exact_sample)}
    config = ExperimentConfig(
        method=method, n_list=(12, 20), params=PARAMS, fidelity_grid=grid, repeats=3
    )
    rejection_rate_experiment(config)
    monkeypatch.undo()
    X_at = {args[2]: X for args, X in inputs}
    draws = [(SampleMethod.Rff, FidelitySpec(D=D), seed, sample)
             for (_, _, D, seed), sample in calls[rff_sample]]
    draws += [(SampleMethod.Exact, FidelitySpec(), seed, sample)
              for (_, _, seed), sample in calls[exact_sample]]
    for (_, _, eta, Q, caps, seed, rank), samples in calls[ciq_sample]:
        m = SampleMethod.Ciq if rank is None else SampleMethod.CiqPreconditioned
        draws += [(m, FidelitySpec(eta=eta, Q=Q, J=J, rank=rank), seed, sample)
                  for J, sample in zip(caps, samples)]
    assert len(draws) == 2 * 3 * (len(grid) + 1 if grid else 1)
    for method, fidelity, seed, sample in draws:
        np.testing.assert_array_equal(sample.y, fresh_draw(method, X_at[seed], fidelity, seed))


def test_quadrature_draw_leaves_the_shared_matrix_fully_noisy():
    """ciq and pciq draw on the repeat's K_xi buffer with a lowered
    diagonal and put the diagonal back, bit for bit, also when the draw
    raises: a bad eta before anything is written, a bad rank after."""
    X = sample_inputs(40, PARAMS, 6)
    expected = gram(X, PARAMS, jitter=PARAMS.noise_variance).entries
    for method in (SampleMethod.Ciq, SampleMethod.CiqPreconditioned):
        K_xi = gram(X, PARAMS, jitter=PARAMS.noise_variance)
        f = resolve_fidelity(method, 40, PARAMS, Q=3, J=20, rank=4)
        ciq_sample(K_xi, PARAMS, f.eta, f.Q, (f.J,), 6, f.rank)
        np.testing.assert_array_equal(K_xi.entries, expected)
    K_xi = gram(X, PARAMS, jitter=PARAMS.noise_variance)
    for eta, rank in ((1.5, None), (0.5, 0)):
        with pytest.raises(ValueError):
            ciq_sample(K_xi, PARAMS, eta, 3, 20, 6, rank)
        np.testing.assert_array_equal(K_xi.entries, expected)


def test_a_sweep_holds_one_gram_buffer_per_repeat():
    """The factor is written over K_xi's buffer, and a repeat lets its
    buffer go before the next repeat assembles one: an in-process sweep
    at n = 512 peaks below 1.5 times one n x n float64 array, for exact,
    ciq and pciq. 8 repeats run in chunks of 2, so one call runs two."""
    n = 512
    for method, grid in (
        (SampleMethod.Exact, ()),
        (SampleMethod.Ciq, (4.0, 16.0, 64.0)),
        (SampleMethod.CiqPreconditioned, (4.0, 16.0, 64.0)),
    ):
        config = ExperimentConfig(
            method=method, n_list=(n,), params=PARAMS, fidelity_grid=grid, repeats=8
        )
        tracemalloc.start()
        try:
            report = rejection_rate_experiment(config, threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not any(cell.failed for cell in report.cells + report.baseline)
        assert peak < 1.5 * 8 * n * n, (method, peak / (8 * n * n))


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(method=SampleMethod.Exact, n_list=(), params=PARAMS)
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            ExperimentConfig(method=SampleMethod.Exact, n_list=(16, 0), params=PARAMS)
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            ExperimentConfig(method=SampleMethod.Exact, n_list=(16,), params=PARAMS, repeats=0)
        with pytest.raises(ValueError):
            ExperimentConfig(method=SampleMethod.Rff, n_list=(16,), params=PARAMS)
        with pytest.raises(ValueError, match="fidelity_grid"):
            ExperimentConfig(
                method=SampleMethod.Exact, n_list=(16,), params=PARAMS, fidelity_grid=(4.0,)
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                method=SampleMethod.Exact, n_list=(16,), params=PARAMS, alpha=0.2
            )
        with pytest.raises(ValueError):
            ExperimentConfig(
                method=SampleMethod.Ciq,
                n_list=(16,),
                params=PARAMS,
                fidelity_grid=(4.0,),
                eta=1.0,
            )
        # epsilon is a TV budget in (0, 1], the rule FidelitySpec applies
        for epsilon in (0.0, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                ExperimentConfig(
                    method=SampleMethod.Ciq,
                    n_list=(16,),
                    params=PARAMS,
                    fidelity_grid=(4.0,),
                    epsilon=epsilon,
                )


# arbitrary JSON values
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=8,
)


# each config field in declaration order, the three required ones first,
# with values that usually pass its checks
_CONFIG_VALUES = {
    "method": st.sampled_from([m.value for m in SampleMethod]),
    "n_list": st.lists(st.integers(1, 64), min_size=1, max_size=3),
    "params": st.fixed_dictionaries(
        {
            "variance": st.integers(0, 3) | st.floats(0, 2),
            "lengthscale": st.floats(0.1, 2),
            "noise_variance": st.floats(0.1, 1),
            "dim": st.integers(1, 3),
        }
    ),
    "fidelity_grid": st.lists(st.integers(1, 64) | st.floats(), min_size=1, max_size=3),
    "fidelity_as_fraction": st.booleans(),
    "eta": st.floats(0.01, 0.99),
    "alpha": st.sampled_from([0.1, 0.05, 0.01]),
    "epsilon": st.floats(0.01, 1),
    "repeats": st.integers(1, 100),
    "base_seed": st.integers(0, 2**40),
    "output": st.text(max_size=8),
}


@st.composite
def _near_configs(draw):
    """A config object of plausible values, a few of them (config or params
    fields, or a junk key) set to arbitrary JSON and a few optional fields
    dropped."""
    d = draw(st.fixed_dictionaries(_CONFIG_VALUES))
    names = [*_CONFIG_VALUES, *PARAMS.to_dict(), "bogus"]
    for name in draw(st.lists(st.sampled_from(names), max_size=3)):
        if name in PARAMS.to_dict() and isinstance(d.get("params"), dict):
            d["params"][name] = draw(_JSON)
        else:
            d[name] = draw(_JSON)
    for name in draw(st.lists(st.sampled_from(list(_CONFIG_VALUES)[3:]), max_size=2)):
        d.pop(name, None)
    return d


_FUZZED_CONFIGS = _near_configs() | st.dictionaries(
    st.sampled_from(list(_CONFIG_VALUES)) | st.text(max_size=6), _JSON
)

_VALID_CONFIGS = st.sampled_from(SampleMethod).flatmap(
    lambda method: st.builds(
        ExperimentConfig,
        method=st.just(method),
        n_list=st.lists(st.integers(1, 10**6), min_size=1, max_size=4).map(tuple),
        params=st.builds(
            KernelParams,
            variance=st.integers(0, 10) | st.floats(0, 1e6),
            lengthscale=st.floats(1e-3, 1e3),
            noise_variance=st.floats(1e-6, 1e3),
            dim=st.integers(1, 8),
        ),
        # the exact method takes no grid
        fidelity_grid=st.just(()) if method is SampleMethod.Exact else st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4
        ).map(tuple),
        fidelity_as_fraction=st.booleans(),
        eta=st.floats(0, 1, exclude_min=True, exclude_max=True),
        alpha=st.sampled_from([0.1, 0.05, 0.01]),
        epsilon=st.floats(0, 1, exclude_min=True),
        repeats=st.integers(1, 10**6),
        base_seed=st.integers(0, 2**63),
        output=st.none() | st.text(max_size=8),
    )
)


class TestExperimentConfigFromDict:
    def test_absent_fields_take_the_defaults(self):
        config = ExperimentConfig.from_dict(
            {"method": "exact", "n_list": [8], "params": PARAMS.to_dict()}
        )
        assert config == ExperimentConfig(method=SampleMethod.Exact, n_list=(8,), params=PARAMS)

    @pytest.mark.parametrize("missing", ["method", "n_list", "params"])
    def test_required_field_missing(self, missing):
        d = {"method": "exact", "n_list": [8], "params": PARAMS.to_dict()}
        del d[missing]
        with pytest.raises(ValueError, match=missing):
            ExperimentConfig.from_dict(d)

    def test_value_fields_match_the_dataclass(self):
        assert list(_CONFIG_VALUES) == [f.name for f in dataclasses.fields(ExperimentConfig)]

    @settings(max_examples=300, deadline=None)
    @given(d=_FUZZED_CONFIGS)
    def test_fuzzed_config_is_read_typed_or_refused(self, d):
        """Any JSON object either gives a config whose every field has its
        declared type, ints never bools, or raises ValueError; never
        another exception and never a coerced value."""
        try:
            config = ExperimentConfig.from_dict(d)
        except ValueError:
            return
        assert type(config.method) is SampleMethod
        assert type(config.params) is KernelParams and type(config.params.dim) is int
        assert all(type(v) in (int, float) for v in config.params.to_dict().values())
        assert type(config.n_list) is tuple and all(type(n) is int for n in config.n_list)
        assert type(config.fidelity_grid) is tuple
        assert all(type(v) is float for v in config.fidelity_grid)
        assert type(config.fidelity_as_fraction) is bool
        assert all(type(v) is float for v in (config.eta, config.alpha, config.epsilon))
        assert type(config.repeats) is int and type(config.base_seed) is int
        assert config.output is None or type(config.output) is str

    @settings(max_examples=100, deadline=None)
    @given(config=_VALID_CONFIGS)
    def test_reads_back_the_report_echo(self, config):
        """The config a JSON report echoes reads back as the config that
        produced it, less its output path."""
        report = ExperimentReport(config=config, cells=(), baseline=())
        echo = json.loads(report_to_json(report))["config"]
        assert ExperimentConfig.from_dict(echo) == dataclasses.replace(config, output=None)


def openblas_controls():
    """The thread-count getter and setter of each OpenBLAS this process has
    loaded, in path order; their names may carry a scipy_ prefix and a 64_
    suffix."""
    maps = Path("/proc/self/maps").read_text()
    paths = {line.split(maxsplit=5)[-1] for line in maps.splitlines()}
    controls = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            if hasattr(lib, f"{prefix}openblas_get_num_threads{suffix}"):
                get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_threads = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return controls


def openblas_thread_counts():
    """The thread count of each OpenBLAS this process has loaded, in path order."""
    return [get_threads() for get_threads, _ in openblas_controls()]


@contextlib.contextmanager
def openblas_threads(count):
    """Every loaded OpenBLAS at `count` threads for the body, each one's
    count put back after it; skips the test where no OpenBLAS is loaded."""
    controls = openblas_controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded")
    before = [get_threads() for get_threads, _ in controls]
    for _, set_threads in controls:
        set_threads(count)
    try:
        yield
    finally:
        for (_, set_threads), was in zip(controls, before):
            set_threads(was)


# the fidelity grids of the benchmark's grid-n256 workload
GRIDS_AT_256 = {"rff": (16.0, 256.0, 4096.0), "ciq": (4.0, 16.0, 64.0), "pciq": (4.0, 16.0, 64.0)}


class NoPool(Exception):
    pass


def no_pool(*args, **kwargs):
    """A stand-in for the sweep's fork point, stats._fork_share, that refuses to start."""
    raise NoPool


def rendered(report):
    """A report's CSV and its JSON less timing."""
    doc = json.loads(report_to_json(report))
    del doc["timing"]
    return "\n".join(report_csv_lines(report)), json.dumps(doc)


class TestRejectionRateExperiment:
    def test_exact_sampler_rejected_at_nominal_rate(self):
        """A faithful sampler is rejected at roughly the test level;
        with 500 repeats the rate must land inside the acceptance band
        around 0.05."""
        cfg = ExperimentConfig(
            method=SampleMethod.Exact,
            n_list=(256,),
            params=PARAMS,
            repeats=500,
            base_seed=11,
        )
        report = rejection_rate_experiment(cfg)
        cell = report.cells[0]
        assert 0.026 <= cell.rate <= 0.076
        assert report.baseline == report.cells
        assert cell.method == "exact"
        assert cell.fidelity is None and cell.rescaled_fidelity is None

    def test_crude_feature_count_detected(self):
        """Two random features cannot mimic a short-lengthscale kernel
        at n=256; the harness must reject far above the test level."""
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(256,),
            params=SHORT,
            fidelity_grid=(2.0,),
            repeats=100,
            base_seed=77,
        )
        report = rejection_rate_experiment(cfg)
        assert report.cells[0].rate > 0.5
        assert report.baseline[0].method == "exact"
        assert report.baseline[0].rate < 0.2

    def test_deterministic_given_base_seed(self):
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(32, 64),
            params=PARAMS,
            fidelity_grid=(8.0, 32.0),
            repeats=40,
            base_seed=123,
        )
        a = rejection_rate_experiment(cfg)
        b = rejection_rate_experiment(cfg)
        assert a.cells == b.cells
        assert a.baseline == b.baseline

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Ciq,
            n_list=(24, 48),
            params=PARAMS,
            fidelity_grid=(2.0, 8.0),
            repeats=30,
            base_seed=321,
        )
        serial = rejection_rate_experiment(cfg, threads=1)
        threaded = rejection_rate_experiment(cfg, threads=2)
        assert serial.cells == threaded.cells
        assert serial.baseline == threaded.baseline

    def test_worker_count_does_not_change_the_reports(self, monkeypatch):
        """The CSV and the JSON report less its timing are byte-identical at
        1, 2 and 4 workers, which split each cell into chunks of 3, 2 and 1
        repeats. That includes a grid value that does not resolve and a
        cell whose draws fail at some seeds: its message is that of its
        lowest failing repeat, as a serial loop meets it."""
        rff = stats_module.rff_sample

        def failing_rff(X, params, D, seed):
            if D == 16 and seed % 3 == 0:
                raise ValueError(f"no draw at seed {seed}")
            return rff(X, params, D, seed)

        monkeypatch.setattr(stats_module, "rff_sample", failing_rff)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(16, 24),
            params=PARAMS,
            fidelity_grid=(float("nan"), 4.0, 16.0),
            repeats=9,
            base_seed=17,
        )
        outputs = set()
        for workers in (1, 2, 4):
            report = rejection_rate_experiment(cfg, threads=workers)
            timing = json.loads(report_to_json(report))["timing"]
            outputs.add(rendered(report))
            assert [t.get("cell", t.get("baseline")) for t in timing] == [0, 1, 2, 3, 4, 5, 0, 1]
            for entry, cell in zip(timing, report.cells + report.baseline):
                seconds = entry["seconds"]
                assert list(seconds) == ["inputs", "assemble", "factor", "draw", "whiten", "test"]
                assert all(s > 0 for s in seconds.values()) or cell.failed
        assert len(outputs) == 1
        messages = [c.message for c in report.cells if c.failed]
        assert len(messages) == 4 and sum(m.startswith("no draw at seed") for m in messages) == 2

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
    )
    def test_dead_worker_fails_its_cells_and_the_sweep_returns(self, monkeypatch):
        """A worker process that dies fails the cells whose chunks did not
        return; the sweep still returns a report that renders."""
        rff = stats_module.rff_sample
        caller = os.getpid()

        def dying_rff(X, params, D, seed):
            if D == 16 and os.getpid() != caller:
                os._exit(3)
            return rff(X, params, D, seed)

        monkeypatch.setattr(stats_module, "rff_sample", dying_rff)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(16,),
            params=PARAMS,
            fidelity_grid=(4.0, 16.0),
            repeats=6,
            base_seed=3,
        )
        report = rejection_rate_experiment(cfg, threads=2)
        killed = report.cells[1]
        assert killed.failed and "worker process died" in killed.message
        for cell in report.cells + report.baseline:
            assert (cell.failed and cell.message) or 0.0 <= cell.rate <= 1.0
        assert len(report_csv_lines(report)) == 3
        assert len(json.loads(report_to_json(report))["timing"]) == 3

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
    )
    def test_the_caller_is_one_of_two_workers(self, monkeypatch, tmp_path):
        """At threads=2 a forked sweep's draws run in this process and in
        exactly one other."""
        pids = tmp_path / "pids"
        rff = stats_module.rff_sample

        def logging_rff(X, params, D, seed):
            with open(pids, "a") as log:
                log.write(f"{os.getpid()}\n")
            return rff(X, params, D, seed)

        monkeypatch.setattr(stats_module, "rff_sample", logging_rff)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Rff, n_list=(16,), params=PARAMS,
            fidelity_grid=(4.0,), repeats=8, base_seed=5,
        )
        rejection_rate_experiment(cfg, threads=2)
        seen = set(pids.read_text().split())
        assert len(seen) == 2 and str(os.getpid()) in seen

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
    )
    def test_a_child_whose_results_overfill_its_pipe_returns_them_all(self, monkeypatch):
        """A child's results wait in its pipe, which holds 64 KiB, until the
        caller's own share ends. At 50 rff cells and 6 sizes the child's share,
        tasks[1::2], returns more than that; the child blocks on a full pipe
        and the sweep still gives the report of an in-process one."""
        run_tasks, seen = stats_module._run_tasks, {}

        def recording_run_tasks(tasks, workers):
            seen.update(workers=workers, results=run_tasks(tasks, workers))
            return seen["results"]

        monkeypatch.setattr(stats_module, "_run_tasks", recording_run_tasks)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Rff, n_list=(4, 5, 6, 7, 8, 9), params=PARAMS,
            fidelity_grid=tuple(float(D) for D in range(2, 101, 2)), repeats=8, base_seed=7,
        )
        forked = rejection_rate_experiment(cfg, threads=2)
        assert seen["workers"] == 2
        assert sum(len(pickle.dumps(r)) for r in seen["results"][1::2]) > 64 * 1024
        serial = rejection_rate_experiment(cfg, threads=1)
        assert forked.cells == serial.cells
        assert forked.baseline == serial.baseline

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
    )
    @pytest.mark.parametrize("fault", [None, "a child exits", "the caller is interrupted"])
    def test_no_child_outlives_a_forked_sweep(self, monkeypatch, fault):
        """No forked child is left after a sweep: one that ran through, one
        whose child called os._exit, or one whose own share in this process
        raised KeyboardInterrupt, which propagates."""
        rff = stats_module.rff_sample
        caller = os.getpid()

        def faulty_rff(X, params, D, seed):
            if fault == "a child exits" and os.getpid() != caller:
                os._exit(3)
            if fault == "the caller is interrupted" and os.getpid() == caller:
                raise KeyboardInterrupt
            return rff(X, params, D, seed)

        monkeypatch.setattr(stats_module, "rff_sample", faulty_rff)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Rff, n_list=(16, 24), params=PARAMS,
            fidelity_grid=(4.0, 16.0), repeats=8, base_seed=5,
        )
        interrupted = fault == "the caller is interrupted"
        with pytest.raises(KeyboardInterrupt) if interrupted else contextlib.nullcontext():
            report = rejection_rate_experiment(cfg, threads=4)
            assert any(c.failed for c in report.cells) == (fault is not None)
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
    )
    def test_workers_run_one_blas_thread_and_the_caller_keeps_its_count(self, monkeypatch):
        """Each worker pins every OpenBLAS it has to one thread; the calling
        process, which has just run a multi-threaded matmul, keeps its counts."""
        a = np.random.default_rng(0).standard_normal((512, 512))
        a @ a
        before = openblas_thread_counts()
        if not before:
            pytest.skip("no OpenBLAS is loaded")
        caller = os.getpid()

        def reporting_draw(L, params, seed):
            if os.getpid() == caller:  # only a forked worker reports
                return exact_sample(L, params, seed)
            raise ValueError(f"OpenBLAS threads {openblas_thread_counts()}")

        monkeypatch.setattr(stats_module, "exact_sample", reporting_draw)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(8,), params=PARAMS, repeats=4, base_seed=2
        )
        report = rejection_rate_experiment(cfg, threads=2)
        assert report.cells[0].message == f"OpenBLAS threads {[1] * len(before)}"
        assert openblas_thread_counts() == before

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods() or not Path("/proc").is_dir(),
        reason="workers are forked, and their threads are counted in /proc",
    )
    def test_a_worker_inherits_one_blas_thread_and_starts_no_other(self, monkeypatch):
        """With the caller at two OpenBLAS threads, a forked worker runs one
        OS thread and every OpenBLAS in it reports one thread: the caller
        pins them before the fork, and the worker sets no count itself.
        Putting back the caller's count leaves no OpenBLAS helper thread
        running in the caller: every OS thread is a Python thread."""
        caller = os.getpid()

        def reporting_draw(L, params, seed):
            if os.getpid() == caller:  # only a forked worker reports
                return exact_sample(L, params, seed)
            tasks = len(os.listdir("/proc/self/task"))
            raise ValueError(f"tasks {tasks}, OpenBLAS threads {openblas_thread_counts()}")

        monkeypatch.setattr(stats_module, "exact_sample", reporting_draw)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(64,), params=PARAMS, repeats=4, base_seed=2
        )
        with openblas_threads(2):
            report = rejection_rate_experiment(cfg, threads=2)
            assert openblas_thread_counts() == [2] * len(openblas_controls())
            assert len(os.listdir("/proc/self/task")) == threading.active_count()
        libraries = len(openblas_controls())
        assert report.cells[0].message == f"tasks 1, OpenBLAS threads {[1] * libraries}"

    @pytest.mark.skipif(not Path("/proc").is_dir(), reason="threads are counted in /proc")
    @pytest.mark.parametrize("fails", [False, True])
    def test_an_in_process_sweep_puts_back_the_callers_blas_threads(self, monkeypatch, fails):
        """An in-process sweep runs every OpenBLAS at one thread, and after
        it, also after one whose draws raise, each reports the caller's two
        threads again, with no helper thread left running."""
        seen = []

        def reporting_draw(L, params, seed):
            seen.append(openblas_thread_counts())
            if fails:
                raise ValueError("no draw")
            return exact_sample(L, params, seed)

        monkeypatch.setattr(stats_module, "exact_sample", reporting_draw)
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(16,), params=PARAMS, repeats=3, base_seed=2
        )
        with openblas_threads(2):
            np.ones((512, 512)) @ np.ones((512, 512))  # starts the helper threads
            report = rejection_rate_experiment(cfg, threads=1)
            assert openblas_thread_counts() == [2] * len(openblas_controls())
            assert len(os.listdir("/proc/self/task")) == threading.active_count()
        assert report.cells[0].failed == fails
        assert seen and all(counts == [1] * len(openblas_controls()) for counts in seen)

    @pytest.mark.parametrize("method", ["ciq", "pciq"])
    def test_whitened_draws_keep_their_bits_at_any_caller_blas_thread_count(
        self, monkeypatch, method
    ):
        """An in-process ciq or pciq sweep at n=256, where dsymv's bits
        depend on the BLAS thread count, whitens bitwise the same draws
        with the caller at one OpenBLAS thread and at two."""
        whitened = []

        def recording_test(z, alpha):
            whitened.append(z.copy())
            return cvm_test(z, alpha)

        monkeypatch.setattr(stats_module, "cvm_test", recording_test)
        cfg = ExperimentConfig(
            method=SampleMethod(method), n_list=(256,), params=PARAMS,
            fidelity_grid=(4.0, 64.0), repeats=2, base_seed=5,
        )
        runs = []
        for count in (1, 2):
            whitened.clear()
            with openblas_threads(count):
                rejection_rate_experiment(cfg, threads=1)
            runs.append(list(whitened))
        assert len(runs[0]) == len(runs[1]) == 6
        for one, two in zip(*runs):
            np.testing.assert_array_equal(one, two)

    def test_a_cell_whose_draws_fail_leaves_the_others_unchanged(self, monkeypatch):
        """A cell whose draw raises at some seeds fails alone: every other
        cell at its n, and the baseline, keep the rate and McNemar p-value
        they have when nothing fails."""
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(16, 24),
            params=SHORT,
            fidelity_grid=(2.0, 4.0, 16.0),
            repeats=12,
            base_seed=8,
        )
        clean = rejection_rate_experiment(cfg)
        rff = stats_module.rff_sample

        def failing_rff(X, params, D, seed):
            if D == 4 and seed % 4 == 1:
                raise ValueError(f"no draw at seed {seed}")
            return rff(X, params, D, seed)

        monkeypatch.setattr(stats_module, "rff_sample", failing_rff)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)  # real workers, at any size
        for threads in (1, 2):
            report = rejection_rate_experiment(cfg, threads=threads)
            failed = [c for c in report.cells if c.failed]
            assert [c.fidelity for c in failed] == [4.0, 4.0]
            assert all(c.message.startswith("no draw at seed") for c in failed)
            assert all(c.mcnemar_p is None for c in failed)
            kept = [c for c in report.cells if c.fidelity != 4.0] + list(report.baseline)
            expected = [c for c in clean.cells if c.fidelity != 4.0] + list(clean.baseline)
            assert kept == expected

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_are_refused(self, threads):
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(8,), params=PARAMS, repeats=2, base_seed=1
        )
        with pytest.raises(ValueError, match="threads"):
            rejection_rate_experiment(cfg, threads=threads)

    def test_a_small_sweep_runs_in_this_process_with_the_same_report(self, monkeypatch):
        """ciq and pciq sweeps at the benchmark's grids, n=128 and 8 repeats,
        at threads=2 fork nothing, and their reports, less timing, equal those
        at threads=1."""
        monkeypatch.setattr(stats_module, "_fork_share", no_pool)
        for method in ("ciq", "pciq"):
            grid = GRIDS_AT_256[method]
            cfg = ExperimentConfig(
                method=SampleMethod(method), n_list=(128,), params=PARAMS,
                fidelity_grid=grid, repeats=8, base_seed=101,
            )
            assert len({rendered(rejection_rate_experiment(cfg, threads=t)) for t in (1, 2)}) == 1

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="workers are forked"
    )
    @pytest.mark.parametrize(
        "method, n, repeats",
        [(m, n, r) for m in sorted(GRIDS_AT_256) for n, r in ((1024, 8), (256, 32), (256, 8))],
    )
    def test_a_large_sweep_asks_for_a_pool(self, monkeypatch, method, n, repeats):
        monkeypatch.setattr(stats_module, "_fork_share", no_pool)
        cfg = ExperimentConfig(
            method=SampleMethod(method), n_list=(n,), params=PARAMS,
            fidelity_grid=GRIDS_AT_256[method], repeats=repeats, base_seed=1,
        )
        with pytest.raises(NoPool):
            rejection_rate_experiment(cfg, threads=2)

    def test_a_small_exact_sweep_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(stats_module, "_fork_share", no_pool)
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(256,), params=PARAMS, repeats=16, base_seed=1
        )
        assert not rejection_rate_experiment(cfg, threads=2).cells[0].failed

    def test_one_thread_never_forks(self, monkeypatch):
        monkeypatch.setattr(stats_module, "_fork_share", no_pool)
        monkeypatch.setattr(stats_module, "_POOL_MIN_WORK", 0)
        cfg = ExperimentConfig(
            method=SampleMethod.Rff, n_list=(16, 24), params=PARAMS,
            fidelity_grid=(4.0, 16.0), repeats=8, base_seed=1,
        )
        report = rejection_rate_experiment(cfg, threads=1)
        assert not any(c.failed for c in report.cells + report.baseline)

    def test_a_size_no_float_holds_fails_its_cell(self):
        """An exact sweep at n = 10^400, whose cost no float holds, still
        plans and returns: its one cell fails with the input draw's message."""
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(10**400,), params=PARAMS, repeats=2, base_seed=1
        )
        cell = rejection_rate_experiment(cfg, threads=1).cells[0]
        assert cell.failed and cell.message

    def test_mcnemar_p_pairs_each_cell_with_its_baseline(self):
        """A grid cell's mcnemar_p is McNemar's exact test of its rejections
        against the baseline's at the same n; baseline cells have none."""
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(64, 128),
            params=SHORT,
            fidelity_grid=(2.0, 4096.0),
            repeats=40,
            base_seed=77,
        )
        report = rejection_rate_experiment(cfg)
        crude, fine = report.cells[2:]
        assert crude.rate > report.baseline[1].rate and crude.mcnemar_p < 1e-3
        assert fine.mcnemar_p > 0.05
        assert all(0.0 <= c.mcnemar_p <= 1.0 for c in report.cells)
        assert all(c.mcnemar_p is None for c in report.baseline)
        doc = json.loads(report_to_json(report))
        assert [c["mcnemar_p"] for c in doc["cells"]] == [c.mcnemar_p for c in report.cells]
        assert [c["mcnemar_p"] for c in doc["baseline"]] == [None, None]
        assert report_csv_lines(report)[0].split(",")[-1] == "rescaled_fidelity"

    def test_broken_cell_is_isolated(self):
        """A fidelity value the sampler cannot digest marks its own
        cell failed and leaves the rest of the sweep intact."""
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(16,),
            params=PARAMS,
            fidelity_grid=(float("nan"), 16.0),
            repeats=10,
            base_seed=5,
        )
        report = rejection_rate_experiment(cfg)
        bad, good = report.cells
        assert bad.failed and math.isnan(bad.rate) and bad.message != ""
        assert not good.failed and 0.0 <= good.rate <= 1.0

    def test_rescaled_fidelity_column(self):
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(64,),
            params=PARAMS,
            fidelity_grid=(128.0,),
            repeats=5,
            base_seed=9,
        )
        cell = rejection_rate_experiment(cfg).cells[0]
        assert cell.rescaled_fidelity == pytest.approx(128.0 / (64**2 * math.log(64)))

    def test_cell_records_the_fidelity_that_ran(self):
        """A grid value is rounded to the count that runs (D up to even,
        J to an integer); the cell keeps the grid value and records the
        rounded one in `ran`."""
        rff = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(16,),
            params=PARAMS,
            fidelity_grid=(3.0,),
            repeats=3,
            base_seed=4,
        )
        cell = rejection_rate_experiment(rff).cells[0]
        assert cell.fidelity == 3.0 and cell.ran == FidelitySpec(D=4)
        pciq = ExperimentConfig(
            method=SampleMethod.CiqPreconditioned,
            n_list=(16,),
            params=PARAMS,
            fidelity_grid=(2.6,),
            repeats=3,
            base_seed=4,
        )
        report = rejection_rate_experiment(pciq)
        Q = FidelitySpec.for_ciq(16, PARAMS, 0.1).Q
        assert report.cells[0].ran == FidelitySpec(eta=0.5, Q=Q, J=3, rank=4)
        assert report.baseline[0].ran == FidelitySpec()

    def test_single_point_cell_has_no_rescaled_value(self):
        """The growth law n^2 log n is 0 at n=1; the cell runs and leaves
        rescaled_fidelity empty instead of dividing by zero."""
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(1,),
            params=PARAMS,
            fidelity_grid=(4.0,),
            repeats=3,
            base_seed=1,
        )
        cell = rejection_rate_experiment(cfg).cells[0]
        assert not cell.failed and cell.rescaled_fidelity is None

    def test_fractional_grid_multiplies_growth_law(self):
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(64,),
            params=PARAMS,
            fidelity_grid=(0.01,),
            fidelity_as_fraction=True,
            repeats=5,
            base_seed=9,
        )
        cell = rejection_rate_experiment(cfg).cells[0]
        assert cell.fidelity == pytest.approx(0.01 * 64**2 * math.log(64))
        assert cell.rescaled_fidelity == pytest.approx(0.01)


class TestReportSerialization:
    def make_report(self):
        cfg = ExperimentConfig(
            method=SampleMethod.Rff,
            n_list=(16,),
            params=PARAMS,
            fidelity_grid=(8.0, float("nan")),
            repeats=5,
            base_seed=2,
        )
        return rejection_rate_experiment(cfg)

    def test_csv_header_and_shape(self):
        lines = report_csv_lines(self.make_report())
        assert lines[0] == "n,fidelity,rate,ci_low,ci_high,repeats,method,rescaled_fidelity"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[0] == "16" and fields[6] == "rff"

    def test_csv_exact_rows_leave_fidelity_blank(self):
        cfg = ExperimentConfig(
            method=SampleMethod.Exact, n_list=(8,), params=PARAMS, repeats=5, base_seed=2
        )
        lines = report_csv_lines(rejection_rate_experiment(cfg))
        fields = lines[1].split(",")
        assert fields[1] == "" and fields[7] == ""

    def test_json_round_trip(self):
        report = self.make_report()
        doc = json.loads(report_to_json(report))
        assert doc["config"]["method"] == "rff"
        assert doc["config"]["base_seed"] == 2
        assert len(doc["cells"]) == 2
        assert doc["cells"][1]["failed"] is True
        assert doc["cells"][1]["rate"] is None
        assert len(doc["baseline"]) == 1

    def test_json_is_strict_and_records_ran(self):
        """A failed cell's NaN values are written as null, so the
        document parses without NaN extensions; `ran` is null where the
        grid value did not resolve."""
        text = report_to_json(self.make_report())

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(text, parse_constant=refuse)
        assert doc["config"]["fidelity_grid"] == [8.0, None]
        assert "output" not in doc["config"]
        good, bad = doc["cells"]
        assert good["ran"]["D"] == 8 and good["ran"]["rank"] is None
        assert bad["fidelity"] is None and bad["ran"] is None
