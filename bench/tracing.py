"""In-memory spans around gpforge's public functions, and the per-layer
metrics derived from them.

gpforge modules import each other by name (`from .kernel import gram`),
so a function is replaced in every gpforge module that binds it. Calls
that go through a module global (`exact.whiten` -> `cholesky_factor`,
`rff` -> `_streams.stream`) are caught the same way. Nothing under
`src/` is edited; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    label: str
    value: Any


def _gram_bytes(args, kwargs, result):
    return 8 * result.n**2


def _cholesky_flops(args, kwargs, result):
    return args[0].n ** 3 / 3.0


def _solve_report(args, kwargs, result):
    report = result[1]
    return report.iterations_run, int(report.converged.sum()), report.converged.size


def _experiment(args, kwargs, result):
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    failed = sum(cell.failed for cell in result.cells + result.baseline)
    return failed, threads


def _bytes_written(args, kwargs, result):
    output = args[0].output
    return os.path.getsize(output) + os.path.getsize(output + ".json")


# (module, function, span name, value recorded from the call's result)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("kernel", "gram", "kernel.gram", _gram_bytes),
    ("kernel", "sample_inputs", "kernel.sample_inputs", None),
    ("exact", "cholesky_factor", "exact.cholesky_factor", _cholesky_flops),
    ("exact", "whiten", "exact.whiten", None),
    ("exact", "exact_sample", "exact.exact_sample", None),
    ("rff", "sample_frequencies", "rff.sample_frequencies", None),
    ("rff", "rff_sample", "rff.rff_sample", None),
    ("rff", "rff_sample_streaming", "rff.rff_sample_streaming", None),
    ("_streams", "stream", "streams.stream", None),
    ("ciq", "ciq_sample", "ciq.ciq_sample", None),
    ("ciq", "build_quadrature", "ciq.build_quadrature", None),
    ("ciq", "shifted_solve", "ciq.shifted_solve", _solve_report),
    ("precond", "nystrom_factor", "precond.nystrom_factor", None),
    ("precond", "apply_shifted_inverse", "precond.apply_shifted_inverse", None),
    ("stats", "cvm_test", "stats.cvm_test", None),
    ("stats", "rejection_rate_experiment", "stats.rejection_rate_experiment", _experiment),
    ("cli", "main", "cli.main", None),
    ("cli", "cmd_sample", "cli.sample", _bytes_written),
    ("cli", "cmd_verify", "cli.verify", None),
)


class Tracer:
    """Records a span per wrapped call while a label is set.

    The benchmark sets `label` (the op being timed) around each timed
    call and clears it for the untimed output checks, so only program
    work inside the timed region is traced. Worker threads of the
    experiment pool have an empty stack of their own; their top-level
    spans take the innermost open span of the thread that built the
    tracer as parent.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.label: str | None = None
        self._ids = itertools.count(1)
        self.main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, value_of: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = tracer.label
            if label is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            value = value_of(args, kwargs, result) if value_of else None
            tracer.spans.append(
                Span(sid, name, start, end, parent, threading.get_ident(), label, value)
            )
            return result

        return traced

    def install(self) -> None:
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "gpforge" or mod_name.startswith("gpforge.")
        ]
        for home, func, name, value_of in TARGETS:
            original = getattr(sys.modules[f"gpforge.{home}"], func)
            wrapper = self._wrap(name, original, value_of)
            for mod in modules:
                for attr, bound in list(vars(mod).items()):
                    if bound is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of the intervals its children cover."""
    children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[s.sid] = (s.end - s.start) - covered
    return result


def layer_metrics(
    tracer: Tracer, n_ops: int, speed: float, label: str | None = None
) -> dict[str, float]:
    """Per-op layer figures over the traced ops (all, or one label's).

    Counts, times, bytes and flops are totals divided by the number of
    ops; times are divided by `speed` as well, the machine-speed factor
    of the traced ops, to read at nominal machine speed.
    `ciq.shifted_solve.iterations` is the mean per solve,
    `converged_frac` the share of shifted systems that converged,
    `stats.pool.busy_frac` the worker busy time over pool capacity
    (experiment wall time x threads) and `stats.cells_failed` a total.
    """
    spans = [s for s in tracer.spans if label is None or s.label == label]
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    values: dict[str, list] = defaultdict(list)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += selfs[s.sid]
        if s.value is not None:
            values[s.name].append(s.value)

    def per_op(x: float) -> float:
        return x / n_ops if n_ops else 0.0

    def ms(name: str) -> float:
        return per_op(1e3 * total[name] / speed)

    def self_ms(name: str) -> float:
        return per_op(1e3 * own[name] / speed)

    solves = values["ciq.shifted_solve"]
    shifts = sum(v[2] for v in solves)
    experiments = [s for s in spans if s.name == "stats.rejection_rate_experiment"]
    capacity = sum((s.end - s.start) * s.value[1] for s in experiments)
    experiment_ids = {s.sid for s in experiments}
    # a worker's top-level spans hang off the experiment span of the main thread
    busy = sum(
        s.end - s.start
        for s in spans
        if s.parent in experiment_ids and s.thread != tracer.main_thread
    )
    return {
        "kernel.gram.calls": per_op(calls["kernel.gram"]),
        "kernel.gram.ms": ms("kernel.gram"),
        "kernel.gram.bytes_computed": per_op(sum(values["kernel.gram"])),
        "kernel.sample_inputs.ms": ms("kernel.sample_inputs"),
        "exact.cholesky_factor.calls": per_op(calls["exact.cholesky_factor"]),
        "exact.cholesky_factor.ms": ms("exact.cholesky_factor"),
        "exact.cholesky_factor.flops_computed": per_op(sum(values["exact.cholesky_factor"])),
        "exact.whiten.self_ms": self_ms("exact.whiten"),
        "rff.rff_sample.self_ms": self_ms("rff.rff_sample"),
        "rff.rff_sample_streaming.self_ms": self_ms("rff.rff_sample_streaming"),
        "streams.stream.calls": per_op(calls["streams.stream"]),
        "ciq.build_quadrature.ms": ms("ciq.build_quadrature"),
        "ciq.shifted_solve.self_ms": self_ms("ciq.shifted_solve"),
        "ciq.shifted_solve.iterations": (
            sum(v[0] for v in solves) / len(solves) if solves else 0.0
        ),
        "ciq.shifted_solve.converged_frac": (
            sum(v[1] for v in solves) / shifts if shifts else 0.0
        ),
        "precond.nystrom_factor.ms": ms("precond.nystrom_factor"),
        "precond.apply_shifted_inverse.calls": per_op(calls["precond.apply_shifted_inverse"]),
        "precond.apply_shifted_inverse.ms": ms("precond.apply_shifted_inverse"),
        "stats.cvm_test.ms": ms("stats.cvm_test"),
        "stats.pool.busy_frac": busy / capacity if capacity else 0.0,
        "stats.cells_failed": float(sum(v[0] for v in values["stats.rejection_rate_experiment"])),
        "cli.sample.self_ms": self_ms("cli.sample"),
        "cli.verify.self_ms": self_ms("cli.verify"),
        "cli.bytes_written": per_op(sum(values["cli.sample"])),
    }
