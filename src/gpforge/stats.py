"""Verification harness: normality testing and rejection-rate experiments.

A sampler is judged by whitening its draws against the true covariance
and testing the result for standard normality; a faithful sampler is
rejected at the nominal type-I rate, an unfaithful one more often.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.special
import scipy.stats

from . import _streams
from .bounds import FidelitySpec
from .ciq import ciq_sample
from .exact import SampleMethod, exact_sample, whiten
from .kernel import KernelParams, gram, sample_inputs
from .rff import rff_sample

# asymptotic critical values for the fully specified normal null
_CRITICAL_VALUES = {0.10: 0.347, 0.05: 0.461, 0.01: 0.743}

# seed-derivation tag separating baseline repeats from grid-cell repeats
_BASELINE_TAG = 1 << 32


@dataclass(frozen=True)
class CvmResult:
    statistic: float
    alpha: float
    critical_value: float
    reject: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid description for a rejection-rate experiment.

    fidelity_grid holds feature counts (rff) or iteration caps
    (ciq/pciq), either as absolute values or, when
    fidelity_as_fraction is set, as multiples of the method's
    growth-law rescaler evaluated at each n. epsilon only enters
    through the default quadrature order of the ciq methods.
    """

    method: SampleMethod
    n_list: tuple[int, ...]
    params: KernelParams
    fidelity_grid: tuple[float, ...] = ()
    fidelity_as_fraction: bool = False
    eta: float = 0.5
    alpha: float = 0.05
    epsilon: float = 0.1
    repeats: int = 100
    base_seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        if len(self.n_list) == 0:
            raise ValueError("n_list must be nonempty")
        if any(n < 1 for n in self.n_list):
            raise ValueError(f"all sizes must be >= 1, got {self.n_list}")
        if self.method is not SampleMethod.Exact and len(self.fidelity_grid) == 0:
            raise ValueError("fidelity_grid must be nonempty for approximate methods")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.alpha not in _CRITICAL_VALUES:
            raise ValueError(
                f"alpha must be one of {sorted(_CRITICAL_VALUES)}, got {self.alpha}"
            )
        if not 0 < self.eta < 1:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0 < self.epsilon <= 1:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class ExperimentCell:
    n: int
    fidelity: float | None
    rate: float
    ci_low: float
    ci_high: float
    repeats: int
    method: str
    rescaled_fidelity: float | None
    failed: bool = False
    message: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    cells: tuple[ExperimentCell, ...]
    baseline: tuple[ExperimentCell, ...]


def cvm_statistic(z: np.ndarray) -> float:
    """Cramer-von Mises distance of a sample from the standard normal law.

    The null is fully specified (mean 0, variance 1); nothing is
    estimated from the sample.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError(f"need a nonempty vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("sample contains non-finite values")
    n = z.shape[0]
    probs = scipy.special.ndtr(np.sort(z))
    i = np.arange(1, n + 1)
    return float(1.0 / (12.0 * n) + np.sum((probs - (2 * i - 1) / (2.0 * n)) ** 2))


def cvm_test(z: np.ndarray, alpha: float = 0.05) -> CvmResult:
    """Test a vector against the standard normal null at the given level."""
    if alpha not in _CRITICAL_VALUES:
        raise ValueError(
            f"alpha must be one of {sorted(_CRITICAL_VALUES)}, got {alpha}"
        )
    stat = cvm_statistic(z)
    critical = _CRITICAL_VALUES[alpha]
    return CvmResult(
        statistic=stat, alpha=alpha, critical_value=critical, reject=stat > critical
    )


def binomial_ci(rate: float, N: int, level: float = 0.95) -> tuple[float, float]:
    """Normal-approximation confidence interval for a Bernoulli rate.

    At the degenerate endpoints the width is computed from a half-count
    rate so the interval never collapses to a point.
    """
    if not 0 <= rate <= 1:
        raise ValueError(f"rate must lie in [0, 1], got {rate}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    z = float(scipy.stats.norm.ppf(0.5 + level / 2.0))
    p_width = min(max(rate, 0.5 / N), 1.0 - 0.5 / N)
    half = z * math.sqrt(p_width * (1.0 - p_width) / N)
    return max(0.0, rate - half), min(1.0, rate + half)


def fidelity_rescaler(method: SampleMethod, n: int) -> float | None:
    """Growth-law normalizer for the x-axis of convergence plots."""
    if method is SampleMethod.Rff:
        return n**2 * math.log(n)
    if method is SampleMethod.Ciq:
        return math.sqrt(n) * math.log(n)
    if method is SampleMethod.CiqPreconditioned:
        return n**0.375 * math.log(n)
    return None


def _resolve_fidelity(config: ExperimentConfig, n: int, raw: float | None) -> float | None:
    if raw is None or not config.fidelity_as_fraction:
        return raw
    scale = fidelity_rescaler(config.method, n)
    if scale is None:
        return raw
    return raw * scale


def _one_repeat(
    config: ExperimentConfig, n: int, fidelity: float | None, seed: int
) -> bool:
    """Generate, whiten and test a single draw; True means rejected."""
    params = config.params
    X = sample_inputs(n, params, seed)
    method = config.method
    if method is SampleMethod.Exact:
        sample = exact_sample(X, params, seed)
    elif method is SampleMethod.Rff:
        D = max(2, int(round(fidelity)))
        D += D % 2
        sample = rff_sample(X, params, D, seed)
    else:
        J = max(1, int(round(fidelity)))
        Q = FidelitySpec.for_ciq(n, params, config.epsilon, config.eta).Q
        rank = max(1, int(math.isqrt(n))) if method is SampleMethod.CiqPreconditioned else None
        sample = ciq_sample(X, params, config.eta, Q, J, seed, precond=rank)
    K_xi = gram(X, params, jitter=params.noise_variance)
    z = whiten(sample.y, K_xi)
    return cvm_test(z, config.alpha).reject


def _run_cell(
    config: ExperimentConfig,
    n: int,
    fidelity: float | None,
    cell_index: int,
    method_label: str,
    seed_tag: int = 0,
) -> ExperimentCell:
    rescaler = fidelity_rescaler(config.method, n)
    rescaled = (
        fidelity / rescaler if (fidelity is not None and rescaler is not None) else None
    )
    try:
        rejections = 0
        for r in range(config.repeats):
            seed = _streams.derive_seed(config.base_seed, seed_tag, cell_index, r)
            if _one_repeat(config, n, fidelity, seed):
                rejections += 1
        rate = rejections / config.repeats
        ci_low, ci_high = binomial_ci(rate, config.repeats)
        return ExperimentCell(
            n=n,
            fidelity=fidelity,
            rate=rate,
            ci_low=ci_low,
            ci_high=ci_high,
            repeats=config.repeats,
            method=method_label,
            rescaled_fidelity=rescaled,
        )
    except Exception as exc:
        return ExperimentCell(
            n=n,
            fidelity=fidelity,
            rate=float("nan"),
            ci_low=float("nan"),
            ci_high=float("nan"),
            repeats=config.repeats,
            method=method_label,
            rescaled_fidelity=rescaled,
            failed=True,
            message=str(exc),
        )


def rejection_rate_experiment(
    config: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Rejection rate of the configured sampler over an (n, fidelity) grid.

    Each cell runs `repeats` independent generate/whiten/test rounds
    with seeds derived from (base_seed, cell, repeat), so results do
    not depend on execution order or thread count. An exact-sampler
    baseline is measured at every n for reference. A failing cell is
    recorded as failed and the sweep continues.
    """
    fidelities = (None,) if config.method is SampleMethod.Exact else config.fidelity_grid
    cells_in_grid = [(n, raw) for n in config.n_list for raw in fidelities]
    tasks = [
        (config, n, _resolve_fidelity(config, n, raw), idx, config.method.value, 0)
        for idx, (n, raw) in enumerate(cells_in_grid)
    ]
    if config.method is not SampleMethod.Exact:
        # the exact grid is its own baseline; other methods get one exact cell per n
        baseline_config = ExperimentConfig(
            method=SampleMethod.Exact,
            n_list=config.n_list,
            params=config.params,
            alpha=config.alpha,
            repeats=config.repeats,
            base_seed=config.base_seed,
        )
        tasks += [
            (baseline_config, n, None, idx, "exact", _BASELINE_TAG)
            for idx, n in enumerate(config.n_list)
        ]

    def run_task(task: tuple) -> ExperimentCell:
        return _run_cell(*task)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_task, tasks))
    else:
        results = [run_task(task) for task in tasks]
    cells = tuple(results[: len(cells_in_grid)])
    baseline = tuple(results[len(cells_in_grid) :]) or cells
    return ExperimentReport(config=config, cells=cells, baseline=baseline)


def _format_value(value: float | None) -> str:
    if value is None:
        return ""
    return format(value, ".17g")


def report_csv_lines(report: ExperimentReport) -> list[str]:
    """Render a report as CSV lines (header first)."""
    lines = ["n,fidelity,rate,ci_low,ci_high,repeats,method,rescaled_fidelity"]
    for cell in report.cells:
        lines.append(
            ",".join(
                [
                    str(cell.n),
                    _format_value(cell.fidelity),
                    _format_value(cell.rate),
                    _format_value(cell.ci_low),
                    _format_value(cell.ci_high),
                    str(cell.repeats),
                    cell.method,
                    _format_value(cell.rescaled_fidelity),
                ]
            )
        )
    return lines


def report_to_json(report: ExperimentReport) -> str:
    """Render a report (config echo, cells, baseline) as a JSON document."""

    def cell_dict(cell: ExperimentCell) -> dict:
        return {
            "n": cell.n,
            "fidelity": cell.fidelity,
            "rate": None if math.isnan(cell.rate) else cell.rate,
            "ci_low": None if math.isnan(cell.ci_low) else cell.ci_low,
            "ci_high": None if math.isnan(cell.ci_high) else cell.ci_high,
            "repeats": cell.repeats,
            "method": cell.method,
            "rescaled_fidelity": cell.rescaled_fidelity,
            "failed": cell.failed,
            "message": cell.message,
        }

    payload = {
        "config": {
            "method": report.config.method.value,
            "n_list": list(report.config.n_list),
            "params": report.config.params.to_dict(),
            "fidelity_grid": list(report.config.fidelity_grid),
            "fidelity_as_fraction": report.config.fidelity_as_fraction,
            "eta": report.config.eta,
            "alpha": report.config.alpha,
            "epsilon": report.config.epsilon,
            "repeats": report.config.repeats,
            "base_seed": report.config.base_seed,
        },
        "cells": [cell_dict(c) for c in report.cells],
        "baseline": [cell_dict(c) for c in report.baseline],
    }
    return json.dumps(payload, indent=2)
