"""Verification harness: normality testing and rejection-rate experiments.

A sampler is judged by whitening its draws against the true covariance
and testing the result for standard normality; a faithful sampler is
rejected at the nominal type-I rate, an unfaithful one more often.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.special
import scipy.stats

from . import _streams
from .bounds import DEFAULT_EPSILON, DEFAULT_ETA, FidelitySpec
from .ciq import _ciq_draw
from .exact import GpSample, SampleMethod, _exact_draw, _whiten, cholesky_factor
from .kernel import (
    GramMatrix, InputData, KernelParams, gram, json_object, json_value, sample_inputs
)
from .precond import default_rank
from .rff import rff_sample

# asymptotic critical values for the fully specified normal null
_CRITICAL_VALUES = {0.10: 0.347, 0.05: 0.461, 0.01: 0.743}
DEFAULT_ALPHA = 0.05

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
    eta: float = DEFAULT_ETA
    alpha: float = DEFAULT_ALPHA
    epsilon: float = DEFAULT_EPSILON
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
        _critical_value(self.alpha)
        FidelitySpec(eta=self.eta, epsilon=self.epsilon)  # refuses either out of range

    @classmethod
    def from_dict(cls, d: Mapping) -> "ExperimentConfig":
        """The config a JSON object gives: method (a SampleMethod's string),
        n_list, params, and any other field or its default. Each value has its
        field's type as JSON gives it, a tuple as an array and a number as a
        float; nothing is coerced, and anything else raises ValueError."""
        hints = typing.get_type_hints(cls)
        json_object(d, "config", hints, required=("method", "n_list", "params"))
        kwargs = {
            "method": SampleMethod(json_value("method", d["method"], str)),
            "params": KernelParams.from_dict(d["params"]),
        }
        for name in [name for name in d if name not in kwargs]:
            hint = hints[name]
            kind = (typing.get_args(hint) or (hint,))[0]  # a tuple's item, or str of `str | None`
            if typing.get_origin(hint) is tuple:
                items = json_value(name, d[name], list)
                kwargs[name] = tuple(json_value(name, v, kind) for v in items)
            else:
                kwargs[name] = json_value(name, d[name], kind)
        return cls(**kwargs)


@dataclass(frozen=True)
class ExperimentCell:
    """One grid point. `fidelity` is the grid value (times the growth law
    for a fractional grid); `ran` is the fidelity the sampler ran at,
    after rounding and defaults, or None if the value did not resolve."""

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
    ran: FidelitySpec | None = None


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


def _critical_value(alpha: float) -> float:
    if alpha not in _CRITICAL_VALUES:
        raise ValueError(f"alpha must be one of {sorted(_CRITICAL_VALUES)}, got {alpha}")
    return _CRITICAL_VALUES[alpha]


def cvm_test(z: np.ndarray, alpha: float = DEFAULT_ALPHA) -> CvmResult:
    """Test a vector against the standard normal null at the given level."""
    critical = _critical_value(alpha)
    stat = cvm_statistic(z)
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


def resolve_fidelity(
    method: SampleMethod,
    n: int,
    params: KernelParams,
    D: int | None = None,
    Q: int | None = None,
    J: int | None = None,
    eta: float | None = None,
    epsilon: float | None = None,
    rank: int | None = None,
) -> FidelitySpec:
    """Check every fidelity value of `method` at size n and fill the defaults.

    rff needs D. ciq and pciq take a missing eta as DEFAULT_ETA, a
    missing epsilon as DEFAULT_EPSILON, a missing Q or J from
    FidelitySpec.for_ciq at budget epsilon, and pciq a missing rank from
    default_rank(n). Values a method does not use are ignored. Raises
    ValueError on any invalid value, before any sampling work.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method is SampleMethod.Exact:
        return FidelitySpec()
    if method is SampleMethod.Rff:
        if D is None:
            raise ValueError("the rff method needs a feature count D")
        return FidelitySpec(D=D)
    eta = DEFAULT_ETA if eta is None else eta
    epsilon = DEFAULT_EPSILON if epsilon is None else epsilon
    if Q is None or J is None:
        spec = FidelitySpec.for_ciq(n, params, epsilon, eta)
        Q = spec.Q if Q is None else Q
        J = spec.J if J is None else J
    if method is not SampleMethod.CiqPreconditioned:
        return FidelitySpec(eta=eta, Q=Q, J=J)
    rank = default_rank(n) if rank is None else rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank must satisfy 1 <= rank <= n, got rank={rank}, n={n}")
    return FidelitySpec(eta=eta, Q=Q, J=J, rank=rank)


def draw(
    method: SampleMethod,
    X: InputData,
    params: KernelParams,
    fidelity: FidelitySpec,
    seed: int,
) -> GpSample:
    """Draw one sample with the sampler of `method` at a fidelity from
    resolve_fidelity. A pciq sample records the preconditioner rank
    reached, which may fall below fidelity.rank."""
    return _Problem(X, params).draw(method, fidelity, seed)


class _Problem:
    """One repeat's problem: inputs and params, with the fully noisy Gram
    matrix K_xi and its Cholesky factor L in one n x n buffer. The exact
    draw is L u, a draw is whitened through L, and ciq and pciq draw on
    K_xi through ciq._ciq_draw. L is factored at most once, in place of
    K_xi; a K_xi() call after factor() assembles the matrix again. Not
    safe to share between threads.
    """

    def __init__(self, X: InputData, params: KernelParams) -> None:
        self.X = X
        self.params = params
        self._K_xi: GramMatrix | None = None
        self._L: np.ndarray | None = None

    def K_xi(self) -> GramMatrix:
        if self._K_xi is None:
            self._K_xi = gram(self.X, self.params, jitter=self.params.noise_variance)
        return self._K_xi

    def factor(self) -> np.ndarray:
        if self._L is None:
            K_xi, self._K_xi = self.K_xi(), None  # L takes over its buffer
            self._L = cholesky_factor(K_xi, overwrite=True)
        return self._L

    def whiten(self, y: np.ndarray) -> np.ndarray:
        return _whiten(y, self.factor())

    def draw(self, method: SampleMethod, fidelity: FidelitySpec, seed: int) -> GpSample:
        p = self.params
        if method is SampleMethod.Exact:
            return _exact_draw(self.factor(), p, seed)
        if method is SampleMethod.Rff:
            return rff_sample(self.X, p, fidelity.D, seed)
        return _ciq_draw(self.K_xi(), p, fidelity.eta, fidelity.Q, fidelity.J, seed, fidelity.rank)


def _run_cell(
    config: ExperimentConfig,
    n: int,
    grid_value: float | None,
    cell_index: int,
    seed_tag: int = 0,
) -> ExperimentCell:
    """Generate, whiten and test `repeats` draws at one grid point. Any
    failure, a grid value that does not resolve included, marks only
    this cell failed."""
    rescaler = fidelity_rescaler(config.method, n)  # None for exact cells, 0 at n=1
    fidelity = grid_value
    if config.fidelity_as_fraction and rescaler is not None:
        fidelity = grid_value * rescaler
    rescaled = fidelity / rescaler if rescaler else None
    params = config.params
    ran, failed, message = None, False, ""
    rate = ci_low = ci_high = math.nan
    try:
        # grid values become counts here: D to an even integer >= 2, J to an integer >= 1
        D = J = None
        if config.method is SampleMethod.Rff:
            D = max(2, round(fidelity))
            D += D % 2
        elif fidelity is not None:
            J = max(1, round(fidelity))
        ran = resolve_fidelity(
            config.method, n, params, D=D, J=J, eta=config.eta, epsilon=config.epsilon
        )
        rejections = 0
        for r in range(config.repeats):
            seed = _streams.derive_seed(config.base_seed, seed_tag, cell_index, r)
            problem = _Problem(sample_inputs(n, params, seed), params)
            y = problem.draw(config.method, ran, seed).y
            rejections += cvm_test(problem.whiten(y), config.alpha).reject
        rate = rejections / config.repeats
        ci_low, ci_high = binomial_ci(rate, config.repeats)
    except Exception as exc:
        failed, message = True, str(exc)
    return ExperimentCell(
        n=n,
        fidelity=fidelity,
        rate=rate,
        ci_low=ci_low,
        ci_high=ci_high,
        repeats=config.repeats,
        method=config.method.value,
        rescaled_fidelity=rescaled,
        failed=failed,
        message=message,
        ran=ran,
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
    tasks = [(config, n, raw, idx, 0) for idx, (n, raw) in enumerate(cells_in_grid)]
    if config.method is not SampleMethod.Exact:
        # the exact grid is its own baseline; other methods get one exact cell per n
        baseline_config = dataclasses.replace(config, method=SampleMethod.Exact)
        tasks += [
            (baseline_config, n, None, idx, _BASELINE_TAG)
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


# the CSV columns, in order: every cell field up to rescaled_fidelity
_CSV_COLUMNS = (
    "n", "fidelity", "rate", "ci_low", "ci_high", "repeats", "method", "rescaled_fidelity"
)


def _format_value(value: float | int | str | None) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, (int, str)) else format(value, ".17g")


def report_csv_lines(report: ExperimentReport) -> list[str]:
    """Render a report as CSV lines (header first)."""
    lines = [",".join(_CSV_COLUMNS)]
    for cell in report.cells:
        lines.append(",".join(_format_value(getattr(cell, k)) for k in _CSV_COLUMNS))
    return lines


def report_to_json(report: ExperimentReport) -> str:
    """Render a report (config echo, cells, baseline) as a JSON document.

    Every config field but `output` is echoed, and every cell field.
    """
    config = dataclasses.asdict(report.config)
    del config["output"]
    config["method"] = report.config.method.value
    payload = {
        "config": config,
        "cells": [dataclasses.asdict(c) for c in report.cells],
        "baseline": [dataclasses.asdict(c) for c in report.baseline],
    }
    # a round trip that writes NaN (a failed cell's rate) as null, which is valid JSON
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2)
