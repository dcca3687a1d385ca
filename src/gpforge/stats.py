"""Verification harness: normality testing and rejection-rate experiments.

A sampler is judged by whitening its draws against the true covariance
and testing the result for standard normality; a faithful sampler is
rejected at the nominal type-I rate, an unfaithful one more often.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import json
import math
import multiprocessing
import os
import time
import typing
from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

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

# the stages of one repeat, in order; a report's `timing` sums each per cell
_STAGES = ("inputs", "assemble", "factor", "draw", "whiten", "test")


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
    """The cells of a sweep and their exact baselines (the cells themselves
    for an exact sweep). `timing` has one entry per cell, then one per
    baseline cell that is not a grid cell: {"cell": i} or {"baseline": i},
    with "seconds", the wall time per stage (inputs, assemble, factor,
    draw, whiten, test) summed over the repeats that returned. Timings
    differ from run to run, so they stay out of cell equality and the CSV.
    """

    config: ExperimentConfig
    cells: tuple[ExperimentCell, ...]
    baseline: tuple[ExperimentCell, ...]
    timing: tuple[dict, ...] = ()


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


def _plan_cell(config: ExperimentConfig, n: int, grid_value: float | None) -> ExperimentCell:
    """The cell at one grid point before any repeat runs, with a NaN rate:
    failed, with no `ran`, if the grid value does not resolve."""
    rescaler = fidelity_rescaler(config.method, n)  # None for exact cells, 0 at n=1
    fidelity = grid_value
    if config.fidelity_as_fraction and rescaler is not None:
        fidelity = grid_value * rescaler
    ran, message = None, ""
    try:
        # grid values become counts here: D to an even integer >= 2, J to an integer >= 1
        D = J = None
        if config.method is SampleMethod.Rff:
            D = max(2, round(fidelity))
            D += D % 2
        elif fidelity is not None:
            J = max(1, round(fidelity))
        ran = resolve_fidelity(
            config.method, n, config.params, D=D, J=J, eta=config.eta, epsilon=config.epsilon
        )
    except Exception as exc:  # any value that does not resolve fails only its cell
        message = str(exc)
    return ExperimentCell(
        n=n,
        fidelity=fidelity,
        rate=math.nan,
        ci_low=math.nan,
        ci_high=math.nan,
        repeats=config.repeats,
        method=config.method.value,
        rescaled_fidelity=fidelity / rescaler if rescaler else None,
        failed=ran is None,
        message=message,
        ran=ran,
    )


def _run_repeats(
    config: ExperimentConfig,
    n: int,
    ran: FidelitySpec,
    cell_index: int,
    seed_tag: int,
    start: int,
    stop: int,
) -> tuple[int, dict[str, float], tuple[int, str] | None]:
    """Generate, whiten and test repeats start..stop-1 of one cell.

    Returns the rejection count, the seconds spent per stage, and the
    failure: None, or (repeat, message) for the first repeat that
    raised, after which no repeat runs.
    """
    params = config.params
    seconds = dict.fromkeys(_STAGES, 0.0)
    last = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal last
        now = time.perf_counter()
        seconds[stage] += now - last
        last = now

    rejections = 0
    for r in range(start, stop):
        try:
            seed = _streams.derive_seed(config.base_seed, seed_tag, cell_index, r)
            problem = _Problem(sample_inputs(n, params, seed), params)
            lap("inputs")
            problem.K_xi()
            lap("assemble")
            if config.method is SampleMethod.Exact:  # the exact draw is L u
                problem.factor()
                lap("factor")
            y = problem.draw(config.method, ran, seed).y
            lap("draw")
            problem.factor()
            lap("factor")
            z = problem.whiten(y)
            lap("whiten")
            rejections += cvm_test(z, config.alpha).reject
            lap("test")
        except Exception as exc:  # any failure of a repeat fails only its cell
            return rejections, seconds, (r, str(exc))
    return rejections, seconds, None


def _openblas_thread_controls() -> list[tuple[Callable[[], int], Callable[[int], None]]]:
    """The (get, set) thread-count functions of each OpenBLAS this process
    has loaded, as numpy and scipy do; their symbols may carry a scipy_
    prefix and a 64_ suffix. Empty where /proc/self/maps cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return []
    paths = {
        fields[5] for fields in (line.split(maxsplit=5) for line in maps.splitlines())
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5])
    }
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)  # already loaded: this only takes another reference
        except OSError:
            continue
        for prefix, suffix in [(p, s) for s in ("64_", "") for p in ("scipy_", "")]:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread, and restore the old counts
    on exit. Forking while OpenBLAS threads run can deadlock the child, and
    workers that each run one BLAS thread do not oversubscribe the cores."""
    controls = _openblas_thread_controls()
    before = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, before):
            set_(count)


def _run_tasks(tasks: list[tuple], workers: int) -> list:
    """_run_repeats(*task) for each task, in task order: on `workers` forked
    processes when workers > 1 and the platform can fork, else in this
    process. A task whose worker died before it returned gives None."""
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [_run_repeats(*task) for task in tasks]
    # fork, not spawn: a spawned worker pays the numpy and scipy imports again.
    # Fork copies only this thread, so a caller's other threads must not hold
    # locks the workers take; gpforge itself starts none.
    context = multiprocessing.get_context("fork")
    with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = []
        with contextlib.suppress(BrokenProcessPool):  # a worker died while tasks were queued
            for task in tasks:
                futures.append(pool.submit(_run_repeats, *task))
        outcomes = [
            None if isinstance(f.exception(), BrokenProcessPool) else f.result()
            for f in futures
        ]
    return outcomes + [None] * (len(tasks) - len(futures))


def rejection_rate_experiment(
    config: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Rejection rate of the configured sampler over an (n, fidelity) grid.

    Each cell runs `repeats` independent generate/whiten/test rounds
    with seeds derived from (base_seed, cell, repeat), so results do
    not depend on execution order or on the number of workers. An
    exact-sampler baseline is measured at every n for reference. A
    failing cell is recorded as failed and the sweep continues.

    Each cell's repeats are split into contiguous chunks of
    ceil(repeats / (4 * threads)), so that chunks of slow cells spread
    over the workers; with threads > 1 the chunks run on that many
    forked worker processes (in this process where fork is missing). A
    worker that dies fails the cells whose chunks did not return, and
    the sweep still returns its report.
    """
    fidelities = (None,) if config.method is SampleMethod.Exact else config.fidelity_grid
    cells_in_grid = [(n, raw) for n in config.n_list for raw in fidelities]
    jobs = [(config, n, raw, idx, 0) for idx, (n, raw) in enumerate(cells_in_grid)]
    if config.method is not SampleMethod.Exact:
        # the exact grid is its own baseline; other methods get one exact cell per n
        baseline_config = dataclasses.replace(config, method=SampleMethod.Exact)
        jobs += [
            (baseline_config, n, None, idx, _BASELINE_TAG)
            for idx, n in enumerate(config.n_list)
        ]
    cells = [_plan_cell(job_config, n, raw) for job_config, n, raw, _, _ in jobs]

    repeats = config.repeats
    size = math.ceil(repeats / (4 * max(1, threads)))
    owners, tasks = [], []
    for pos, ((job_config, n, _, idx, tag), cell) in enumerate(zip(jobs, cells)):
        if cell.failed:
            continue
        for start in range(0, repeats, size):
            owners.append(pos)
            tasks.append((job_config, n, cell.ran, idx, tag, start, min(start + size, repeats)))
    outcomes = _run_tasks(tasks, min(threads, len(tasks)))

    rejections = [0] * len(cells)
    seconds = [dict.fromkeys(_STAGES, 0.0) for _ in cells]
    failures: list[list[tuple[int, str]]] = [[] for _ in cells]
    for pos, task, outcome in zip(owners, tasks, outcomes):
        if outcome is None:  # its worker died
            start, stop = task[-2:]
            outcome = (0, {}, (start, f"a worker process died running repeats {start}-{stop - 1}"))
        count, spent, failure = outcome
        rejections[pos] += count
        for stage, s in spent.items():
            seconds[pos][stage] += s
        if failure is not None:
            failures[pos].append(failure)
    for pos, cell in enumerate(cells):
        if failures[pos]:
            # the lowest failing repeat's message, the one a serial loop meets
            cells[pos] = dataclasses.replace(cell, failed=True, message=min(failures[pos])[1])
        elif not cell.failed:
            rate = rejections[pos] / repeats
            ci_low, ci_high = binomial_ci(rate, repeats)
            cells[pos] = dataclasses.replace(cell, rate=rate, ci_low=ci_low, ci_high=ci_high)

    grid = len(cells_in_grid)
    timing = tuple(
        {"cell": pos, "seconds": spent} if pos < grid else {"baseline": pos - grid, "seconds": spent}
        for pos, spent in enumerate(seconds)
    )
    return ExperimentReport(
        config=config,
        cells=tuple(cells[:grid]),
        baseline=tuple(cells[grid:]) or tuple(cells),
        timing=timing,
    )


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
    """Render a report (config echo, cells, baseline, timing) as a JSON document.

    Every config field but `output` is echoed, and every cell field.
    """
    config = dataclasses.asdict(report.config)
    del config["output"]
    config["method"] = report.config.method.value
    payload = {
        "config": config,
        "cells": [dataclasses.asdict(c) for c in report.cells],
        "baseline": [dataclasses.asdict(c) for c in report.baseline],
        "timing": list(report.timing),
    }
    # a round trip that writes NaN (a failed cell's rate) as null, which is valid JSON
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    return json.dumps(strict, indent=2)
