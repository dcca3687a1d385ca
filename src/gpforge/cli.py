"""Command-line front end: fidelity calculators, samplers, experiments
and verification over files.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration
error. The environment variable GPFORGE_SEED, when set, overrides the
base seed from both flags and config files.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import precond as precond_mod
from .bounds import DEFAULT_DELTA, DEFAULT_EPSILON, DEFAULT_ETA, DecayModel, FidelitySpec
from .exact import GpSample, SampleMethod, cholesky_factor, whiten
from .kernel import InputData, KernelParams, gram, json_value, sample_inputs
from .stats import (
    DEFAULT_ALPHA,
    ExperimentConfig,
    _critical_value,
    _csv_lines,
    cvm_test,
    draw,
    rejection_rate_experiment,
    report_csv_lines,
    report_to_json,
    resolve_fidelity,
)

SCHEMA_VERSION = 1

# kernel flag defaults, also filled in under a config file's partial params
_DEFAULT_PARAMS = KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)
_METHODS = sorted(m.value for m in SampleMethod)

# the methods each optional fidelity flag of `sample` applies to
_SAMPLE_FLAG_METHODS = {
    "features": ("rff",),
    "rank": ("pciq",),
    "eta": ("ciq", "pciq"),
    "eps": ("ciq", "pciq"),
    "quadrature": ("ciq", "pciq"),
    "iterations": ("ciq", "pciq"),
}


class UsageError(ValueError):
    """Invalid flags or configuration; maps to exit code 2."""


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("GPFORGE_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"GPFORGE_SEED must be an integer, got {env!r}") from exc


def _number_list(text: str, flag: str, convert: type) -> list:
    """The comma-separated values of a list flag; a malformed one is a usage error."""
    try:
        return [convert(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _params_from_args(args: argparse.Namespace) -> KernelParams:
    try:
        return KernelParams.from_dict({k: getattr(args, k) for k in _DEFAULT_PARAMS.to_dict()})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    d = _DEFAULT_PARAMS
    parser.add_argument("--variance", type=float, default=d.variance, help="signal variance")
    parser.add_argument(
        "--lengthscale", type=float, default=d.lengthscale, help="kernel lengthscale"
    )
    parser.add_argument(
        "--noise-variance", type=float, default=d.noise_variance,
        help="observation noise variance",
    )
    parser.add_argument("--dim", type=int, default=d.dim, help="input dimension")


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print the fidelity parameters sufficient for the requested budget."""
    method = SampleMethod(args.method)
    params = _params_from_args(args)
    sigma_xi2 = params.noise_variance
    payload: dict[str, object] = {
        "method": args.method,
        "n": args.n,
        "epsilon": args.eps,
        "delta": args.delta,
        "delta_Q": None,
        "eta": args.eta,
        "D": None,
        "Q": None,
        "J": None,
        "kappa_bound": None,
        "regime": None,
    }
    try:
        FidelitySpec(epsilon=args.eps, delta=args.delta)  # refuses a bad budget for any method
        payload["kappa_bound"] = bounds_mod.condition_number_bound(
            args.n, args.eta, sigma_xi2, params.variance
        )
        model = DecayModel(
            c1=args.c1, c2=args.c2, sigma_f=math.sqrt(params.variance), dim=params.dim
        )
        payload["regime"] = bounds_mod.decay_regime(args.n, model)[1]
        if method is SampleMethod.Rff:
            payload["D"] = bounds_mod.rff_min_features(args.n, args.eps, args.delta, sigma_xi2)
        elif method is not SampleMethod.Exact:
            budget = (args.n, params, args.eps, args.eta, args.delta_q)
            if method is SampleMethod.Ciq:
                spec = FidelitySpec.for_ciq(*budget)
            else:
                spec = FidelitySpec.for_pciq(*budget, args.c1, args.c2, args.c_tilde)
            payload.update(delta_Q=spec.delta_Q, Q=spec.Q, J=spec.J)
    except (ValueError, OverflowError) as exc:  # a size no float holds is out of range too
        raise UsageError(str(exc)) from exc
    print(json.dumps(payload, indent=None if args.json else 2))
    return 0


def _read_table(path: str, header: list[str]) -> np.ndarray:
    """Rows of finite numbers from a CSV file whose first line is `header`.

    A missing file, another header, a ragged row, a non-numeric or
    non-finite cell, or no data row at all is a usage error.
    """
    try:
        with open(path) as f:
            found = f.readline().strip()
            if found.split(",") != header:
                raise UsageError(f"{path} has header {found!r}, expected {','.join(header)!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows: refused below
                table = np.loadtxt(f, delimiter=",", ndmin=2)
    except UsageError:
        raise
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    if table.shape[0] == 0 or table.shape[1] != len(header):
        raise UsageError(f"{path} must hold rows of {len(header)} numbers below its header")
    if not np.all(np.isfinite(table)):
        raise UsageError(f"{path} holds a non-finite cell")
    return table


def _read_inputs(path: str, dim: int) -> InputData:
    """Points from a CSV file with header x0,x1,...; points InputData refuses are a usage error."""
    points = _read_table(path, [f"x{i}" for i in range(dim)])
    try:
        return InputData(points=points)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


def _inputs_sha256(X: InputData) -> str:
    """SHA-256 of the points' float64 C-order bytes: the sidecar's record of
    the inputs a sample was drawn at."""
    return hashlib.sha256(np.ascontiguousarray(X.points).tobytes()).hexdigest()


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    Path(path).write_text("\n".join(_csv_lines(header, rows)) + "\n")


def _write_sample(sample: GpSample, X: InputData, output: str) -> None:
    _write_csv(output, ["index", "y"], enumerate(sample.y.tolist()))
    sidecar = {
        "method": sample.method.value,
        "params": sample.params.to_dict(),
        "fidelity": dataclasses.asdict(sample.fidelity),
        "seed": sample.seed,
        "n": sample.n,
        "inputs_sha256": _inputs_sha256(X),
    }
    if sample.solver is not None:
        sidecar["solver"] = {
            "iterations": sample.solver.iterations_run,
            "max_residual": float(np.max(sample.solver.residual_norms)),
            "converged": bool(np.all(sample.solver.converged)),
            "breakdown": sample.solver.breakdown,
        }
    Path(output + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def cmd_sample(args: argparse.Namespace) -> int:
    """Generate one sample and write it as CSV plus a JSON sidecar."""
    method = SampleMethod(args.method)
    params = _params_from_args(args)
    seed = _resolve_seed(args.seed)
    n, X = args.n, None
    if args.inputs is not None:
        X = _read_inputs(args.inputs, params.dim)
        if args.n is not None and args.n != X.n:
            raise UsageError(f"--n {args.n} contradicts inputs file with {X.n} rows")
        n = X.n
    elif args.n is None:
        raise UsageError("either --n or --inputs is required")
    for flag, methods in _SAMPLE_FLAG_METHODS.items():
        if getattr(args, flag) is not None and args.method not in methods:
            raise UsageError(f"--{flag} does not apply to the {args.method} method")
    if method is SampleMethod.Rff:
        if args.features is None:
            raise UsageError("--features is required for the rff method")
        if args.features % 2 != 0 or args.features < 2:
            raise UsageError(f"--features must be an even count >= 2, got {args.features}")
    try:
        fidelity = resolve_fidelity(
            method, n, params, D=args.features, Q=args.quadrature, J=args.iterations,
            eta=args.eta, epsilon=args.eps, rank=args.rank,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if X is None:
        X = sample_inputs(n, params, seed)
    sample = draw(method, X, params, fidelity, seed)
    _write_sample(sample, X, args.output)
    if sample.solver is not None and not np.all(sample.solver.converged):
        print(
            f"warning: the shifted solves did not converge in J={sample.fidelity.J} iterations; "
            "the sample was written, and its sidecar has \"converged\": false",
            file=sys.stderr,
        )
    return 0


def _build_experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file under the flags, with the kernel flag defaults under a
    partial params, read by ExperimentConfig.from_dict; GPFORGE_SEED wins."""
    raw = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot parse config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config must be a JSON object")
        version = raw.pop("schema_version", None)
        if version != SCHEMA_VERSION or isinstance(version, (bool, float)):
            raise UsageError(f"config schema_version must be {SCHEMA_VERSION}, got {version!r}")
    if args.n_list is not None:
        raw["n_list"] = _number_list(args.n_list, "--n-list", int)
    if args.fidelity_grid is not None:
        raw["fidelity_grid"] = _number_list(args.fidelity_grid, "--fidelity-grid", float)
    for key in ("method", "fidelity_as_fraction", "eta", "alpha", "epsilon", "repeats",
                "base_seed", "output"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    params = raw.get("params", {})
    if isinstance(params, dict):
        raw["params"] = {**_DEFAULT_PARAMS.to_dict(), **params}
    try:
        config = ExperimentConfig.from_dict(raw)
        return dataclasses.replace(config, base_seed=_resolve_seed(config.base_seed))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _usable_cpus() -> int:
    """The count of CPUs this process may run on where the platform reports it, else
    the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run a rejection-rate experiment and write its CSV and JSON reports."""
    config = _build_experiment_config(args)
    if config.output is None:
        raise UsageError("config needs an output path (flag --output or config file)")
    threads = args.threads if args.threads is not None else _usable_cpus()
    if threads < 1:
        raise UsageError(f"--threads must be >= 1, got {threads}")
    report = rejection_rate_experiment(config, threads=threads)
    out = Path(config.output)
    out.write_text("\n".join(report_csv_lines(report)) + "\n")
    Path(str(out) + ".json").write_text(report_to_json(report) + "\n")
    failed = [c for c in report.cells if c.failed]
    for cell in failed:
        print(
            f"warning: cell n={cell.n} fidelity={cell.fidelity} failed: {cell.message}",
            file=sys.stderr,
        )
    return 0


def cmd_precond_sweep(args: argparse.Namespace) -> int:
    """Sweep preconditioner quality over sizes and lengthscales."""
    params = _params_from_args(args)
    seed = _resolve_seed(args.seed)
    n_list = _number_list(args.n_list, "--n-list", int)
    lengthscales = _number_list(args.lengthscales, "--lengthscales", float)
    if min(n_list) < 1:
        raise UsageError(f"--n-list sizes must be >= 1, got {args.n_list}")
    if not all(math.isfinite(ls) and ls > 0 for ls in lengthscales):
        raise UsageError(f"--lengthscales must be finite and > 0, got {args.lengthscales}")
    rows = precond_mod.effectiveness_sweep(n_list, lengthscales, params, seed)
    _write_csv(args.output, ["n", "lengthscale", "metric"], rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Whiten an existing sample file against its true covariance and test it."""
    try:
        _critical_value(args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    index, y = _read_table(args.sample, ["index", "y"]).T
    if not np.array_equal(index, np.arange(len(y))):
        raise UsageError(f"{args.sample}: the index column must run 0..{len(y) - 1} in order")
    sidecar_path = Path(args.sample + ".json")
    if not sidecar_path.exists():
        raise UsageError(f"sidecar {sidecar_path} not found")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        params = KernelParams.from_dict(sidecar["params"])
        seed = json_value("seed", sidecar["seed"], int) if args.inputs is None else None
        recorded = sidecar.get("inputs_sha256")  # absent from older sidecars
    except KeyError as exc:
        raise UsageError(f"sidecar {sidecar_path} has no {exc} field") from exc
    except (TypeError, ValueError) as exc:
        raise UsageError(f"malformed sidecar {sidecar_path}: {exc}") from exc
    if args.inputs is not None:
        X = _read_inputs(args.inputs, params.dim)
    else:
        X = sample_inputs(len(y), params, seed)
    if X.n != len(y):
        raise UsageError(f"inputs have {X.n} rows but sample has {len(y)}")
    if recorded is not None and recorded != _inputs_sha256(X):
        source = args.inputs if args.inputs is not None else f"seed {seed}"
        raise UsageError(
            f"the inputs from {source} are not the ones the sample was drawn at "
            "(inputs_sha256 differs); pass the sample's inputs with --inputs"
        )
    z = whiten(y, cholesky_factor(gram(X, params, jitter=params.noise_variance), overwrite=True))
    if not np.all(np.isfinite(z)):
        raise UsageError(f"{args.sample} whitens to non-finite values: its entries overflow")
    print(json.dumps(dataclasses.asdict(cvm_test(z, args.alpha))))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpforge",
        description="Draw large approximate Gaussian process prior samples "
        "with certified fidelity, and verify them statistically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="print sufficient fidelity parameters")
    p_bounds.add_argument("--method", required=True, choices=_METHODS)
    p_bounds.add_argument("--n", type=int, required=True, help="dataset size")
    p_bounds.add_argument("--eps", type=float, required=True, help="total-variation budget")
    p_bounds.add_argument("--delta", type=float, default=DEFAULT_DELTA, help="failure probability")
    p_bounds.add_argument("--eta", type=float, default=DEFAULT_ETA, help="noise split")
    p_bounds.add_argument(
        "--delta-q", type=float, default=None, dest="delta_q",
        help="quadrature budget (default: half its cap)",
    )
    p_bounds.add_argument(
        "--c1", type=float, default=bounds_mod.DEFAULT_C1, help="decay-model rate constant"
    )
    p_bounds.add_argument(
        "--c2", type=float, default=bounds_mod.DEFAULT_C2, help="decay-model scale constant"
    )
    p_bounds.add_argument(
        "--c-tilde", type=float, default=bounds_mod.DEFAULT_C_TILDE, dest="c_tilde",
        help="slack constant of the preconditioned iteration bound",
    )
    p_bounds.add_argument("--json", action="store_true", help="single-line JSON output")
    _add_kernel_flags(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sample = sub.add_parser("sample", help="draw one sample to CSV + JSON sidecar")
    p_sample.add_argument("--method", required=True, choices=_METHODS)
    p_sample.add_argument("--n", type=int, default=None, help="number of input points")
    p_sample.add_argument("--inputs", default=None, help="CSV file of input points")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--output", required=True, help="sample CSV path")
    p_sample.add_argument("--features", type=int, default=None, help="rff feature count D")
    p_sample.add_argument("--eta", type=float, help=f"ciq noise split [{DEFAULT_ETA}]")
    p_sample.add_argument("--eps", type=float, help=f"ciq default budget [{DEFAULT_EPSILON}]")
    p_sample.add_argument(
        "--quadrature", type=int, help="ciq node count Q [sized]; ciq's J is then sized at this Q"
    )
    p_sample.add_argument(
        "--iterations", type=int, help="ciq iteration cap J [sized]; a given J sizes only Q"
    )
    p_sample.add_argument("--rank", type=int, default=None, help="pciq preconditioner rank")
    _add_kernel_flags(p_sample)
    p_sample.set_defaults(func=cmd_sample)

    p_exp = sub.add_parser("experiment", help="run a rejection-rate experiment")
    p_exp.add_argument("--config", default=None, help="JSON config file (schema_version 1)")
    p_exp.add_argument("--method", default=None, choices=_METHODS)
    p_exp.add_argument("--n-list", default=None, dest="n_list", help="comma-separated sizes")
    p_exp.add_argument(
        "--fidelity-grid", default=None, dest="fidelity_grid",
        help="comma-separated D or J values",
    )
    p_exp.add_argument(
        "--fidelity-as-fraction", action="store_true", dest="fidelity_as_fraction", default=None,
        help="treat grid values as fractions of the growth-law rescaler",
    )
    p_exp.add_argument("--eta", type=float, default=None)
    p_exp.add_argument("--alpha", type=float, default=None)
    p_exp.add_argument("--epsilon", type=float, default=None)
    p_exp.add_argument("--repeats", type=int, default=None)
    p_exp.add_argument("--base-seed", type=int, default=None, dest="base_seed")
    p_exp.add_argument("--output", default=None)
    p_exp.add_argument(
        "--threads", type=int, default=None,
        help="the most worker processes, this one included [usable CPUs]: a sweep forks "
        "at most threads - 1 children and runs a share itself; one too small to pay for a fork "
        "runs in this process; either way OpenBLAS runs one thread while the sweep runs; "
        "results do not depend on it",
    )
    p_exp.set_defaults(func=cmd_experiment)

    p_sweep = sub.add_parser("precond-sweep", help="preconditioner effectiveness sweep")
    p_sweep.add_argument("--n-list", required=True, dest="n_list")
    p_sweep.add_argument("--lengthscales", required=True)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--output", required=True)
    _add_kernel_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_precond_sweep)

    p_verify = sub.add_parser("verify", help="whiten and test an existing sample file")
    p_verify.add_argument("--sample", required=True, help="sample CSV written by `sample`")
    p_verify.add_argument("--inputs", default=None, help="CSV of the inputs, if loaded")
    p_verify.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
