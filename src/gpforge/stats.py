"""Verification harness: normality testing and rejection-rate experiments.

A sampler is judged by whitening its draws against the true covariance
and testing the result for standard normality; a faithful sampler is
rejected at the nominal type-I rate, an unfaithful one more often.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import time
import typing
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.special

from . import _streams
from .bounds import DEFAULT_EPSILON, DEFAULT_ETA, FidelitySpec
from .ciq import _J_PER_POINT, ciq_sample
from .exact import GpSample, SampleMethod, cholesky_factor, exact_sample, whiten
from .kernel import InputData, KernelParams, gram, json_object, json_value, sample_inputs
from .rff import rff_sample

# asymptotic critical values for the fully specified normal null
_CRITICAL_VALUES = {0.10: 0.347, 0.05: 0.461, 0.01: 0.743}
DEFAULT_ALPHA = 0.05

# seed-derivation tag of the repeats every cell at one n shares with its
# exact baseline; an exact sweep, its own baseline, derives from 0 instead
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
    growth-law rescaler evaluated at each n; it is empty for exact,
    which has no fidelity to vary. epsilon only enters
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
        if (self.method is SampleMethod.Exact) != (len(self.fidelity_grid) == 0):
            raise ValueError("fidelity_grid must be empty for exact and nonempty for other methods")
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
    after rounding and defaults, or None if the value did not resolve.
    `mcnemar_p` pairs a grid cell's rejections with its baseline's on
    the same repeats (McNemar's exact test); it is None on a baseline
    cell, on every cell of an exact sweep, and where either side failed."""

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
    mcnemar_p: float | None = None


@dataclass(frozen=True)
class ExperimentReport:
    """The cells of a sweep and their exact baselines (the cells themselves
    for an exact sweep). `timing` has one entry per cell, then one per
    baseline cell that is not a grid cell: {"cell": i} or {"baseline": i},
    with "seconds", the wall time per stage (inputs, assemble, factor,
    draw, whiten, test) summed over the repeats the cell ran. The cells
    at one n share each repeat's inputs, assemble and factor, and its
    ciq or pciq cells also share the draw, one solve at all their caps.
    A shared stage's time is split evenly over the cells that ran it,
    so the entries sum to the time spent. Timings differ from run to
    run, so they stay out of cell equality and the CSV.
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
    if not 0 < level < 1:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    z = float(scipy.special.ndtri(0.5 + level / 2.0))
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


# the fidelity values each method takes; resolve_fidelity refuses any other
_FIDELITY_VALUES = {
    SampleMethod.Exact: (),
    SampleMethod.Rff: ("D",),
    SampleMethod.Ciq: ("Q", "J", "eta", "epsilon"),
    SampleMethod.CiqPreconditioned: ("Q", "J", "eta", "epsilon", "rank"),
}


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

    rff takes D and needs it, ciq takes Q, J, eta and epsilon, pciq those
    and rank, and exact none. ciq and pciq take a missing eta as DEFAULT_ETA
    and a missing epsilon as DEFAULT_EPSILON, and pass a given Q and J to
    FidelitySpec.for_ciq (ciq) or FidelitySpec.for_pciq (pciq), which size
    only the one missing at budget epsilon; with both given, nothing is
    sized. pciq takes a missing rank from default_rank(n), and its J reads
    neither Q nor the rank asked for. Raises ValueError, before any sizing,
    on a value the method does not take, naming each, and on any invalid one.
    """
    given = {"D": D, "Q": Q, "J": J, "eta": eta, "epsilon": epsilon, "rank": rank}
    foreign = [k for k, v in given.items() if v is not None and k not in _FIDELITY_VALUES[method]]
    if foreign:
        raise ValueError(f"the {method.value} method takes no {', '.join(foreign)}")
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
    if method is SampleMethod.Ciq:
        spec = FidelitySpec.for_ciq(n, params, epsilon, eta, Q=Q, J=J)
        return FidelitySpec(eta=eta, Q=spec.Q, J=spec.J)
    spec = FidelitySpec.for_pciq(n, params, epsilon, eta, Q=Q, J=J)
    rank = spec.rank if rank is None else rank
    if not 1 <= rank <= n:
        raise ValueError(f"rank must satisfy 1 <= rank <= n, got rank={rank}, n={n}")
    return FidelitySpec(eta=eta, Q=spec.Q, J=spec.J, rank=rank)


def draw(
    method: SampleMethod,
    X: InputData,
    params: KernelParams,
    fidelity: FidelitySpec,
    seed: int,
) -> GpSample:
    """Draw one sample with the sampler of `method` at a fidelity from
    resolve_fidelity: rff from X alone, exact through the Cholesky factor
    of K_xi = gram(X, params, jitter=noise_variance), ciq and pciq on
    K_xi. A pciq sample records the preconditioner rank reached, which
    may fall below fidelity.rank."""
    if method is SampleMethod.Rff:
        return rff_sample(X, params, fidelity.D, seed)
    K_xi = gram(X, params, jitter=params.noise_variance)
    if method is SampleMethod.Exact:
        return exact_sample(cholesky_factor(K_xi, overwrite=True), params, seed)
    return ciq_sample(K_xi, params, fidelity.eta, fidelity.Q, fidelity.J, seed, fidelity.rank)


def _plan_cell(
    config: ExperimentConfig, method: SampleMethod, n: int, grid_value: float | None
) -> ExperimentCell:
    """The cell of `method` at one grid point before any repeat runs, with a
    NaN rate: failed, with no `ran`, if the grid value does not resolve."""
    rescaler = fidelity_rescaler(method, n)  # None for exact cells, 0 at n=1
    fidelity = grid_value
    if config.fidelity_as_fraction and rescaler is not None:
        fidelity = grid_value * rescaler
    ran, message = None, ""
    try:
        # grid values become counts here: D to an even integer >= 2, and J to an
        # integer in [1, _J_PER_POINT * n], the most iterations a solve runs
        values = {}
        if method is SampleMethod.Rff:
            D = max(2, round(fidelity))
            values = {"D": D + D % 2}
        elif method is not SampleMethod.Exact:
            J = min(max(1, round(fidelity)), _J_PER_POINT * n)
            values = {"J": J, "eta": config.eta, "epsilon": config.epsilon}
        ran = resolve_fidelity(method, n, config.params, **values)
    except Exception as exc:  # any value that does not resolve fails only its cell
        message = str(exc)
    return ExperimentCell(
        n=n,
        fidelity=fidelity,
        rate=math.nan,
        ci_low=math.nan,
        ci_high=math.nan,
        repeats=config.repeats,
        method=method.value,
        rescaled_fidelity=fidelity / rescaler if rescaler else None,
        failed=ran is None,
        message=message,
        ran=ran,
    )


def _run_repeats(
    config: ExperimentConfig, cells: tuple[ExperimentCell, ...], seed_path: tuple[int, int],
    repeats: range,
) -> list[tuple[list[bool], dict[str, float], tuple[int, str] | None]]:
    """Generate, whiten and test the given repeats of the planned cells at one n.

    A repeat draws the inputs X and assembles K_xi once, makes each rff
    draw on X and every ciq or pciq draw through one ciq_sample call at
    the sorted distinct caps of those cells (they differ only in J),
    factors K_xi in place, makes the exact draw, and whitens and tests
    every draw through the one factor. Returns, per cell, whether each
    repeat it ran rejected, the seconds it spent per stage, and its
    failure: None, or (repeat, message) for the first repeat that
    raised, after which the cell runs no repeat. Each stage runs through
    one runner that times it and, if it raises, fails the cells that
    share it: a draw, whitening or test only its own cell, the quadrature
    call every ciq or pciq cell, and inputs, assembly or factor every
    cell still running, which leaves no repeat to run. A shared stage's
    seconds are split evenly over the cells that ran it.
    """
    params = config.params
    rejects: list[list[bool]] = [[] for _ in cells]
    seconds = [dict.fromkeys(_STAGES, 0.0) for _ in cells]
    failures: list[tuple[int, str] | None] = [None] * len(cells)
    last = time.perf_counter()

    def run(among: list[int], r: int, stage: str, step: typing.Callable, *args, **kwargs):
        """step(*args, **kwargs) for the cells `among` at repeat r, or None after it raised."""
        nonlocal last
        try:
            return step(*args, **kwargs)
        except Exception as exc:  # a stage the cells share fails only those cells
            for k in among:
                failures[k] = failures[k] or (r, str(exc))  # a cell keeps an earlier failure
            return None
        finally:  # the time since the last stage ended is this one's
            now = time.perf_counter()
            for k in among:
                seconds[k][stage] += (now - last) / len(among)
            last = now

    for r in repeats:
        live = [k for k, failure in enumerate(failures) if failure is None]
        if not live:
            break
        cells_of = {m: [k for k in live if cells[k].method == m.value] for m in SampleMethod}
        quadrature = cells_of[SampleMethod.Ciq] + cells_of[SampleMethod.CiqPreconditioned]
        samples = {}
        seed = _streams.derive_seed(config.base_seed, *seed_path, r)
        X = run(live, r, "inputs", sample_inputs, cells[0].n, params, seed)
        K_xi = None if X is None else run(
            live, r, "assemble", gram, X, params, jitter=params.noise_variance
        )
        if K_xi is None:  # a failed shared stage failed every live cell: none is left to run
            break
        for k in cells_of[SampleMethod.Rff]:
            samples[k] = run([k], r, "draw", rff_sample, X, params, cells[k].ran.D, seed)
        if quadrature:
            # ciq_sample puts K_xi's diagonal back, so the factor comes after it
            f = cells[quadrature[0]].ran  # every quadrature cell shares eta, Q and rank
            caps = tuple(sorted({cells[k].ran.J for k in quadrature}))
            at = run(
                quadrature, r, "draw", ciq_sample, K_xi, params, f.eta, f.Q, caps, seed, f.rank
            )
            for k in quadrature:
                samples[k] = None if at is None else at[caps.index(cells[k].ran.J)]
        L = run(live, r, "factor", cholesky_factor, K_xi, overwrite=True)  # over K_xi's buffer
        if L is None:
            break
        for k in cells_of[SampleMethod.Exact]:  # the exact draw is L u
            samples[k] = run([k], r, "draw", exact_sample, L, params, seed)
        for k, sample in samples.items():
            z = None if sample is None else run([k], r, "whiten", whiten, sample.y, L)
            result = None if z is None else run([k], r, "test", cvm_test, z, config.alpha)
            if result is not None:
                rejects[k].append(result.reject)
        del K_xi, L  # the next repeat's K_xi is assembled with no other n x n buffer held
    return [(rejects[k], seconds[k], failures[k]) for k in range(len(cells))]


def _mcnemar_p(cell: list[bool], baseline: list[bool]) -> float:
    """McNemar's exact test of two paired rejection records: the two-sided
    binomial p-value of the repeats where exactly one of them rejected,
    1.0 where there are none. At p = 1/2 it is twice the lower tail
    I_{1/2}(m - k, k + 1) at the smaller count k of m, capped at 1."""
    only_cell = sum(a and not b for a, b in zip(cell, baseline))
    only_baseline = sum(b and not a for a, b in zip(cell, baseline))
    k, m = min(only_cell, only_baseline), only_cell + only_baseline
    return min(1.0, 2.0 * float(scipy.special.betainc(m - k, k + 1, 0.5))) if m else 1.0


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[typing.Callable, ...], ...]:
    """The thread-count getter and setter of every OpenBLAS this process has
    loaded, as numpy and scipy do, in path order, with its
    blas_thread_shutdown_, or None where it has none; the getter's and
    setter's names may carry a scipy_ prefix and a 64_ suffix. Found once,
    by a scan of /proc/self/maps; none where it cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
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
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_threads = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                stop_helpers = getattr(lib, "blas_thread_shutdown_", None)
                if stop_helpers is not None:
                    stop_helpers.argtypes, stop_helpers.restype = [], ctypes.c_int
                controls.append((get_threads, set_threads, stop_helpers))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread() -> typing.Iterator[None]:
    """Run the body with every loaded OpenBLAS at one thread, and put back
    each one's count after it, also when it raises. Workers forked inside
    inherit the one thread and start no helper threads. OpenBLAS stops its
    helper threads before a fork, and a setter called while they are
    stopped starts them, to spin for about 0.1 s beside the caller; so each
    set here stops them again, and the library starts them at its next
    multi-threaded call. No other thread of the caller may run BLAS
    meanwhile."""
    controls = _openblas_thread_controls()
    counts = [get_threads() for get_threads, _, _ in controls]

    def set_counts(to: list[int]) -> None:
        for (_, set_threads, stop_helpers), count in zip(controls, to):
            set_threads(count)
            if stop_helpers is not None:
                stop_helpers()

    set_counts([1] * len(controls))
    try:
        yield
    finally:
        set_counts(counts)


# a sweep forks only from this much estimated serial work, in Cholesky flops:
# measured at n = 128 to 512, this process and one forked child broke even
# with this process alone between 8.9e7 and 1.8e8, 15-25 ms of serial work.
# A child starts its first task about 4 ms after the sweep starts, and it
# and this process each pay about 1,000 page faults in their first task.
_POOL_MIN_WORK = 1e8


def _repeat_work(cells: Sequence[ExperimentCell]) -> int:
    """One repeat's estimated work for the planned cells at one n, in Cholesky
    flops: n³/3 for the factor they share, 48 per point and feature for each
    rff cell, and 4n² per Krylov iteration up to the largest cap J of the ciq
    and pciq cells, which share one recurrence; the weights are relative times
    measured at n = 128 to 1024 on one BLAS thread. An int, which compares
    exactly with _POOL_MIN_WORK even at sizes no float holds."""
    n = cells[0].n  # every n plans its exact cell
    features = sum(cell.ran.D for cell in cells if cell.ran.D is not None)
    caps = [cell.ran.J for cell in cells if cell.ran.J is not None]
    return n**3 // 3 + 48 * n * features + 4 * n * n * max(caps, default=0)


def _fork_share(tasks: list[tuple]) -> tuple:
    """A forked child that sends _run_repeats(*task) for each task over a
    one-way pipe as soon as it is done, and the pipe's receiving end; the
    child holds the only sending end, so its exit or death ends the pipe.
    Fork, not spawn: a spawned child pays the numpy and scipy imports again.
    Fork copies only this thread, so a caller's other threads must not hold
    locks the child takes; gpforge itself starts none."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)

    def send_results() -> None:
        for task in tasks:
            send.send(_run_repeats(*task))

    child = context.Process(target=send_results)
    child.start()
    send.close()
    return child, receive


def _run_tasks(tasks: list[tuple], workers: int) -> list:
    """_run_repeats(*task) for each task, in task order, with every OpenBLAS
    at one thread. When workers > 1 and the platform can fork, the tasks
    split into `workers` round-robin shares, tasks[w::workers]: this process
    runs share 0 and a forked child runs each other share. Else this process
    runs them all. A task whose child died before it returned gives None;
    if this process's own share raises, the children are terminated, and
    no child outlives the call."""
    with _one_blas_thread():
        if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
            return [_run_repeats(*task) for task in tasks]
        results = [None] * len(tasks)
        children = []
        try:
            for w in range(1, workers):
                children.append(_fork_share(tasks[w::workers]))
            results[::workers] = [_run_repeats(*task) for task in tasks[::workers]]
            for w, (_, receive) in enumerate(children, start=1):
                # a child that died, even mid-message, returned only its first tasks
                with contextlib.suppress(EOFError, OSError):
                    for i in range(w, len(tasks), workers):
                        results[i] = receive.recv()
        except BaseException:
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receive in children:
                child.join()
                receive.close()
    return results


def rejection_rate_experiment(
    config: ExperimentConfig, threads: int = 1
) -> ExperimentReport:
    """Rejection rate of the configured sampler over an (n, fidelity) grid.

    Each cell runs `repeats` generate/whiten/test rounds. An exact-sampler
    baseline is measured at every n for reference. Every cell at the
    n_list entry i takes the baseline's seeds, derived from (base_seed,
    baseline tag, i, repeat), so the cells at one n share each repeat's
    inputs, K_xi and Cholesky factor, and each grid cell's rejections
    pair with the baseline's: `mcnemar_p` is McNemar's exact test on
    them. An exact sweep is its own baseline, with seeds from
    (base_seed, 0, i, repeat). Results do not depend on execution order,
    on the number of workers or on the caller's OpenBLAS thread count. A
    failing cell is recorded as failed and the sweep continues.

    threads caps the workers, this process included: w = min(threads,
    sizes * repeats), or 1 at threads=1 and for a sweep whose estimated
    serial work is too small to pay for a fork. The (size i, repeat r)
    pairs are dealt round-robin in size-then-repeat order, one task per
    size and worker: worker v runs range((v - i * repeats) % w, repeats,
    w) at size i. This process is worker 0 and forked children are the
    others, where the platform can fork. Every loaded OpenBLAS runs one
    thread while the tasks run, and the caller's counts come back after,
    also on error; the children inherit the one thread, and no other
    thread of the caller may run BLAS meanwhile. A child that dies fails
    the cells whose tasks it did not return, and the sweep still returns
    its report; no child outlives the call. threads below 1 raises
    ValueError, and repeats that no float holds OverflowError, before any
    repeat runs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    exact = config.method is SampleMethod.Exact
    fidelities = (None,) if exact else config.fidelity_grid
    grid = [(i, n, raw) for i, n in enumerate(config.n_list) for raw in fidelities]
    plans = [(i, _plan_cell(config, config.method, n, raw)) for i, n, raw in grid]
    if not exact:
        # the exact grid is its own baseline; other methods get one exact cell per n
        plans += [
            (i, _plan_cell(config, SampleMethod.Exact, n, None))
            for i, n in enumerate(config.n_list)
        ]

    repeats = config.repeats
    float(repeats)  # a count no float holds raises OverflowError here, not after the repeats
    members = [  # the plans each size runs, in order
        [k for k, (j, cell) in enumerate(plans) if j == i and not cell.failed]
        for i in range(len(config.n_list))
    ]
    planned = [tuple(plans[k][1] for k in at_n) for at_n in members]
    work = repeats * sum(map(_repeat_work, planned))
    workers = min(threads, len(planned) * repeats) if work >= _POOL_MIN_WORK else 1
    tasks = [  # task i * workers + v runs worker v's repeats at size i
        (config, cells, (0 if exact else _BASELINE_TAG, i),
         range((v - i * repeats) % workers, repeats, workers))
        for i, cells in enumerate(planned) for v in range(workers)
    ]

    rejects = [[] for _ in plans]  # each plan's rejections, in task order, as its baseline's
    seconds = [dict.fromkeys(_STAGES, 0.0) for _ in plans]
    failures = [None] * len(plans)  # each plan's lowest failing repeat and its message
    for t, outcome in enumerate(_run_tasks(tasks, workers)):
        at_n, run = members[t // workers], tasks[t][-1]
        died = (run[0], f"a worker process died running the repeats in {run}") if run else None
        for k, (rejected, spent, failure) in zip(at_n, outcome or [([], {}, died)] * len(at_n)):
            rejects[k] += rejected
            for stage, s in spent.items():
                seconds[k][stage] += s
            failures[k] = min(filter(None, (failures[k], failure)), default=None)

    cells, timing = [], []
    for k, (i, cell) in enumerate(plans):
        if failures[k]:  # the lowest failing repeat's message, the one a serial loop meets
            cell = dataclasses.replace(cell, failed=True, message=failures[k][1])
        elif not cell.failed:
            rate = sum(rejects[k]) / repeats
            ci_low, ci_high = binomial_ci(rate, repeats)
            b = len(grid) + i  # a grid cell's baseline; a baseline cell and an exact sweep have none
            paired = k < b < len(plans) and not failures[b]
            cell = dataclasses.replace(
                cell, rate=rate, ci_low=ci_low, ci_high=ci_high,
                mcnemar_p=_mcnemar_p(rejects[k], rejects[b]) if paired else None,
            )
        cells.append(cell)
        label, index = ("cell", k) if k < len(grid) else ("baseline", i)
        timing.append({label: index, "seconds": seconds[k]})

    return ExperimentReport(
        config=config,
        cells=tuple(cells[: len(grid)]),
        baseline=tuple(cells[len(grid) :]) or tuple(cells),
        timing=tuple(timing),
    )


# the CSV columns, in order: every cell field up to rescaled_fidelity
_CSV_COLUMNS = (
    "n", "fidelity", "rate", "ci_low", "ci_high", "repeats", "method", "rescaled_fidelity"
)


def _format_value(value: float | int | str | None) -> str:
    if value is None:
        return ""
    return str(value) if isinstance(value, (int, str)) else format(value, ".17g")


def _csv_lines(header: Sequence[str], rows: Iterable[Iterable]) -> list[str]:
    """The header, then one CSV line per row, each value written by _format_value."""
    return [",".join(header)] + [",".join(map(_format_value, row)) for row in rows]


def report_csv_lines(report: ExperimentReport) -> list[str]:
    """Render a report as CSV lines (header first)."""
    return _csv_lines(_CSV_COLUMNS, ([getattr(c, k) for k in _CSV_COLUMNS] for c in report.cells))


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
