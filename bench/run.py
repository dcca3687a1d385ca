"""gpforge benchmark: closed-loop workloads driven from one process.

    python3 bench/run.py --workload draw-n2048 --seed 1 --seconds 25 --trace 0

Run it from any directory; it imports gpforge from the `src/` next to
this directory. It prints the run environment and per-method figures
as lines starting with `#`, and as its last line one JSON object with
the keys correct, attempted, failed and metrics. With `--trace 0` the
metrics are the end-to-end ones in BENCHMARK.json; with `--trace 1` the
run is split into an untraced and a traced half and the metrics are the
per-layer ones, including the tracing overhead.

Exit codes: 0 when a result was printed (its `correct` field says
whether every output check passed), 2 when gpforge cannot be found.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: one OpenBLAS thread, so the
# experiment pool (2 threads) never oversubscribes a 2-core machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# GPFORGE_SEED would override the seeds the benchmark derives.
os.environ.pop("GPFORGE_SEED", None)

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR_BASE = ROOT / ".bench_tmp"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("grid-n256", "draw-n2048", "stream-n8192")

# per-method figures the traced run reports; 0 where a workload has no such op
FIGURES = (
    "rff.repeats_per_s",
    "ciq.repeats_per_s",
    "pciq.repeats_per_s",
    "exact.draw_verify_ms",
    "rff.draw_verify_ms",
    "ciq.draw_verify_ms",
    "pciq.draw_verify_ms",
    "stream.points_per_s",
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Put this checkout's src/ first on sys.path and import the workloads."""
    if not (SRC / "gpforge" / "__init__.py").is_file():
        raise ProgramMissing(f"no gpforge package under {SRC}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gpforge

    if Path(gpforge.__file__).resolve().parent != SRC / "gpforge":
        raise ProgramMissing(f"gpforge was imported from {gpforge.__file__}, not {SRC}")
    import workloads

    return workloads


class MachineSpeed:
    """Times a fixed reference computation, run between ops.

    On a shared machine the speed of a core drifts by tens of percent
    over tens of seconds, whatever the program does. Each op is scaled
    by the mean of the reference times measured just before and just
    after it, over the reference's time on an uncontended core, so a
    gated timing reads as wall time at that nominal speed. The
    reference is a Python loop of small numpy calls on fresh Philox
    streams, the work that dominates the grid and stream workloads;
    with `dense` it adds LAPACK and elementwise work on a dense matrix,
    as the draw workload does.
    """

    NOMINAL_S = {False: 0.0065, True: 0.0115}

    def __init__(self, dense: bool) -> None:
        import numpy as np
        import scipy.linalg

        self.dense = dense
        self._np = np
        self._cholesky = scipy.linalg.cholesky
        m = np.random.default_rng(0).standard_normal((384, 384))
        self._matrix = m
        self._spd = m @ m.T + 384.0 * np.eye(384)

    def factor(self) -> float:
        """Reference time now over its nominal time (above 1: slower than nominal)."""
        np = self._np
        start = time.perf_counter()
        for key in range(200):
            w = np.random.Generator(np.random.Philox(key=key)).standard_normal(256)
            float(np.dot(np.sin(w), np.cos(w)))
        if self.dense:
            for _ in range(4):
                self._cholesky(self._spd, lower=True)
            float(np.exp(-np.abs(self._matrix)).sum())
        return (time.perf_counter() - start) / self.NOMINAL_S[self.dense]


@dataclass
class Op:
    label: str
    seconds: float
    work: int
    error: str | None
    speed: float = 1.0  # mean MachineSpeed.factor() just before and after the op

    @property
    def scaled(self) -> float:
        """Op time at nominal machine speed."""
        return self.seconds / self.speed


def timed_op(workload, label: str, cycle: int, tracer=None) -> Op:
    if tracer is not None:
        tracer.label = label
    start = time.perf_counter()
    try:
        result = workload.call(label, cycle)
        error = None
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if tracer is not None:
        tracer.label = None
    if error is None:
        try:
            error = workload.check(label, cycle, result)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            error = f"check raised {type(exc).__name__}: {exc}"
    if error is not None:
        print(f"# FAILED {label} cycle {cycle}: {error}", file=sys.stderr)
    return Op(label, seconds, workload.work(label), error)


def run_cycles(
    workload, seconds: float, first_cycle: int, speed: MachineSpeed, tracer=None
) -> list[list[Op]]:
    """Run whole cycles (every label once) until `seconds` have passed."""
    cycles = []
    before = speed.factor()
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle = first_cycle + len(cycles)
        ops = []
        for label in workload.labels:
            op = timed_op(workload, label, cycle, tracer)
            after = speed.factor()
            op.speed = 0.5 * (before + after)
            before = after
            ops.append(op)
        cycles.append(ops)
    return cycles


def cycle_ms(cycles: list[list[Op]]) -> float:
    """Median cycle time at nominal machine speed."""
    return 1e3 * statistics.median(sum(op.scaled for op in ops) for ops in cycles)


def tail(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def figures(workload, cycles: list[list[Op]]) -> dict[str, float]:
    """Median per-method figure (e.g. `ciq.repeats_per_s`) at nominal
    machine speed, printed with its slow tail, count and raw median."""
    result = {}
    ops = [op for ops in cycles for op in ops if op.error is None]
    for label in workload.labels:
        mine = [op for op in ops if op.label == label]
        if not mine:
            continue
        name = f"{label}.{workload.figure_name}"
        result[name] = workload.figure(label, statistics.median(op.scaled for op in mine))
        line = f"# {name} median {result[name]:.6g} {workload.figure_unit}"
        slow = tail([op.scaled for op in mine])
        if slow:
            line += f", at p{slow[0]} op time {workload.figure(label, slow[1]):.6g}"
        raw = workload.figure(label, statistics.median(op.seconds for op in mine))
        print(line + f", n={len(mine)}; raw median {raw:.6g}")
    return result


def environment(threads: int | None) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_info(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "pool_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git directly: the benchmark may run
    in a copy that is not a git repository, inside one that is."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_info() -> list[dict]:
    """Version and thread count of each OpenBLAS that numpy and scipy load."""
    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    site = Path(numpy.__file__).resolve().parent.parent
    found = []
    for path in sorted(site.glob("*.libs/*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        info = {"library": path.name}
        for suffix in ("64_", ""):
            for prefix in ("scipy_", ""):
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    info["config"] = config().decode()
                    info["threads"] = threads()
        found.append(info)
    return found


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure_setup(
    workload_name: str, spec: dict, seed: int, probes: int, speed: MachineSpeed
) -> float:
    """Median time from starting a fresh interpreter to ready (gpforge
    imported and one warm-up op done), at nominal machine speed.

    The child reports time.monotonic() when ready; CLOCK_MONOTONIC is
    shared by every process on one Linux machine.
    """
    probe = json.dumps({"workload": workload_name, "spec": spec, "seed": seed})
    raw, scaled = [], []
    before = speed.factor()
    for _ in range(probes):
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", probe],
            capture_output=True, text=True, timeout=150,
        )
        last = child.stdout.strip().splitlines()[-1:] or [""]
        if child.returncode != 0 or not last[0].startswith("ready "):
            raise RuntimeError(f"setup probe failed ({child.returncode}): {child.stderr[-2000:]}")
        raw.append(float(last[0].split()[1]) - start)
        after = speed.factor()
        scaled.append(raw[-1] / (0.5 * (before + after)))
        before = after
    print(f"# setup_s raw median {statistics.median(raw):.6g} s, n={probes}")
    return statistics.median(scaled)


def setup_probe(probe_json: str) -> int:
    probe = json.loads(probe_json)
    workloads = load_program()
    WORKDIR_BASE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR_BASE) as workdir:
        workload = workloads.WORKLOADS[probe["workload"]](probe["spec"], probe["seed"], Path(workdir))
        op = timed_op(workload, workload.labels[0], 0)
        ready = time.monotonic()
    if op.error is not None:
        return 1
    print(f"ready {ready!r}", flush=True)
    return 0


def run_benchmark(
    workload_name: str, seed: int, seconds: float, trace: bool,
    spec: dict | None = None, setup_probes: int = SETUP_PROBES,
) -> dict:
    """Run one workload and return the result object printed as the last line."""
    workloads = load_program()
    spec = spec if spec is not None else workloads.SPECS[workload_name]
    print("# env " + json.dumps(environment(spec.get("threads"))))
    print(f"# workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("# spec " + json.dumps(spec))
    speed = MachineSpeed(dense=workloads.WORKLOADS[workload_name].dense_reference)
    if not trace:
        setup_s = measure_setup(workload_name, spec, seed, setup_probes, speed)
    WORKDIR_BASE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR_BASE) as workdir:
        workload = workloads.WORKLOADS[workload_name](spec, seed, Path(workdir))
        warm = [timed_op(workload, label, 0) for label in workload.labels]
        if trace:
            import tracing

            untraced = run_cycles(workload, seconds / 2, 1, speed)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_cycles(workload, seconds / 2, 1 + len(untraced), speed, tracer)
            finally:
                tracer.uninstall()
            cycles = untraced + traced
        else:
            cycles = run_cycles(workload, seconds, 1, speed)
        run_error = workload.finish()
    ops = [op for ops in cycles for op in ops]
    failed = sum(op.error is not None for op in ops)
    if run_error is not None:
        print(f"# FAILED run check: {run_error}", file=sys.stderr)
        failed = len(ops)
    print(f"# ops {len(ops)} failed {failed}")
    if trace:
        values = traced_metrics(workload, tracing, tracer, untraced, traced)
    else:
        print(f"# speed factor median {statistics.median(op.speed for op in ops):.4f}")
        figures(workload, cycles)
        elapsed = sum(op.scaled for op in ops)
        values = {
            "cycle_ms": cycle_ms(cycles),
            "work_per_s": sum(op.work for op in ops if op.error is None) / elapsed,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    metrics = with_units(values, "per_layer" if trace else "end_to_end")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    return {
        "correct": failed == 0 and all(op.error is None for op in warm),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def with_units(values: dict[str, float], section: str) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def traced_metrics(workload, tracing, tracer, untraced, traced) -> dict:
    """Per-layer metrics of the traced half, per-method figures of the
    untraced half, and the tracing overhead between the two."""
    speed = statistics.median(op.speed for ops in traced for op in ops)
    values = tracing.layer_metrics(tracer, sum(len(ops) for ops in traced), speed)
    for label in workload.labels:
        per_label = tracing.layer_metrics(tracer, len(traced), speed, label)
        shown = " ".join(f"{k}={v:.4g}" for k, v in per_label.items() if v)
        print(f"# layers[{label}] per op: {shown}")
    values["trace.overhead_pct"] = 100.0 * (cycle_ms(traced) / cycle_ms(untraced) - 1.0)
    measured = figures(workload, untraced)
    values.update({name: measured.get(name, 0.0) for name in FIGURES})
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gpforge benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe is not None:
            return setup_probe(args.setup_probe)
        if args.workload is None:
            parser.error("--workload is required")
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
