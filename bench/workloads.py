"""The benchmark's workloads: inputs derived from a seed, one caller in a
closed loop, and output checks kept outside the timed region.

Each workload splits an op into `call` (the timed program work) and
`check` (verification of what the call produced), and names the
work units an op completes (`work`) and its per-method figure
(`figure`).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import gpforge
from gpforge import cli

PARAMS = gpforge.KernelParams(variance=1.0, lengthscale=1.0, noise_variance=0.25, dim=2)
ALPHA = 0.05

# The exact baseline's rejection count over a whole run must sit in this
# binomial band around ALPHA. At 99.99% a faithful exact sampler fails
# the check about once in 10,000 runs.
BASELINE_BAND = 0.9999

# The seed's ciq and pciq draws at one seed agree to about 1e-10; both
# solve to a relative residual of 1e-10.
CIQ_PCIQ_ATOL = 1e-7

SPECS = {
    "grid-n256": {
        "n": 256,
        "repeats": 8,
        "threads": 2,
        "grids": {"rff": [16, 256, 4096], "ciq": [4, 16, 64], "pciq": [4, 16, 64]},
    },
    "draw-n2048": {"n": 2048, "features": 1024, "methods": ["exact", "rff", "ciq", "pciq"]},
    "stream-n8192": {"n": 8192, "features": 1024},
}


def op_seed(seed: int, *path: int) -> int:
    """Program seed for one op, derived from the run's seed and the op's position."""
    return int(np.random.SeedSequence([seed % 2**64, *path]).generate_state(1)[0])


class Grid:
    """Rejection-rate experiments at small n: rff, ciq and pciq grids, each
    with its exact baseline cells, run on the experiment's thread pool."""

    figure_name = "repeats_per_s"
    figure_unit = "1/s"
    dense_reference = False

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.labels = list(spec["grids"])
        self.baseline_rejections = 0
        self.baseline_rounds = 0

    def work(self, label: str) -> int:
        # generate -> whiten -> CvM rounds: every grid cell plus one baseline cell
        return self.spec["repeats"] * (len(self.spec["grids"][label]) + 1)

    def figure(self, label: str, seconds: float) -> float:
        return self.work(label) / seconds

    def call(self, label: str, cycle: int):
        config = gpforge.ExperimentConfig(
            method=gpforge.SampleMethod(label),
            n_list=(self.spec["n"],),
            params=PARAMS,
            fidelity_grid=tuple(self.spec["grids"][label]),
            alpha=ALPHA,
            repeats=self.spec["repeats"],
            base_seed=op_seed(self.seed, cycle, self.labels.index(label)),
        )
        return gpforge.rejection_rate_experiment(config, threads=self.spec["threads"])

    def check(self, label: str, cycle: int, report) -> str | None:
        cells = report.cells + report.baseline
        failed = [c for c in cells if c.failed]
        if failed:
            return f"{len(failed)} failed cells, first: {failed[0].message}"
        if len(report.cells) != len(self.spec["grids"][label]) or len(report.baseline) != 1:
            return f"expected {len(self.spec['grids'][label])} cells and 1 baseline"
        if not all(0.0 <= c.rate <= 1.0 for c in cells):
            return "a rejection rate lies outside [0, 1]"
        for c in report.baseline:
            self.baseline_rejections += round(c.rate * c.repeats)
            self.baseline_rounds += c.repeats
        return None

    def finish(self) -> str | None:
        if self.baseline_rounds == 0:
            return None
        rate = self.baseline_rejections / self.baseline_rounds
        low, high = gpforge.binomial_ci(ALPHA, self.baseline_rounds, level=BASELINE_BAND)
        if not low <= rate <= high:
            return (
                f"exact baseline rate {rate:.4f} over {self.baseline_rounds} rounds "
                f"is outside [{low:.4f}, {high:.4f}]"
            )
        return None


class Draw:
    """`gpforge sample` then `gpforge verify`, in-process through cli.main,
    for each method at one seed per cycle."""

    figure_name = "draw_verify_ms"
    figure_unit = "ms"
    dense_reference = True

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.labels = list(spec["methods"])
        self.ciq_draw: tuple[int, np.ndarray] | None = None

    def work(self, label: str) -> int:
        return 1

    def figure(self, label: str, seconds: float) -> float:
        return 1e3 * seconds

    def _path(self, label: str) -> Path:
        return self.workdir / f"{label}.csv"

    def call(self, label: str, cycle: int):
        out = str(self._path(label))
        argv = ["sample", "--method", label, "--n", str(self.spec["n"]),
                "--seed", str(op_seed(self.seed, cycle)), "--output", out]
        if label == "rff":
            argv += ["--features", str(self.spec["features"])]
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            sample_code = cli.main(argv)
            verify_code = cli.main(["verify", "--sample", out])
        return sample_code, verify_code, captured.getvalue()

    def check(self, label: str, cycle: int, result) -> str | None:
        sample_code, verify_code, stdout = result
        if sample_code != 0 or verify_code != 0:
            return f"exit codes: sample {sample_code}, verify {verify_code}"
        y = np.loadtxt(self._path(label), delimiter=",", skiprows=1, usecols=1, ndmin=1)
        if y.shape != (self.spec["n"],):
            return f"sample CSV has {y.shape[0]} rows, expected {self.spec['n']}"
        statistic = json.loads(stdout.strip().splitlines()[-1])["statistic"]
        if not math.isfinite(statistic):
            return f"CvM statistic is not finite: {statistic}"
        if label == "ciq":
            self.ciq_draw = (cycle, y)
        elif label == "pciq":
            if self.ciq_draw is None or self.ciq_draw[0] != cycle:
                return "no ciq draw at this seed to compare with"
            gap = float(np.max(np.abs(y - self.ciq_draw[1])))
            if not gap <= CIQ_PCIQ_ATOL:
                return f"pciq differs from ciq at the same seed by {gap:.3g}"
        return None

    def finish(self) -> str | None:
        return None


class Stream:
    """rff_sample_streaming into an in-memory sink."""

    figure_name = "points_per_s"
    figure_unit = "1/s"
    dense_reference = False

    def __init__(self, spec: dict, seed: int, workdir: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.labels = ["stream"]
        self.out = np.full(spec["n"], np.nan)
        self.compared_with_batch = False

    def work(self, label: str) -> int:
        return self.spec["n"]

    def figure(self, label: str, seconds: float) -> float:
        return self.spec["n"] / seconds

    def call(self, label: str, cycle: int):
        seed = op_seed(self.seed, cycle)
        gpforge.rff_sample_streaming(
            self.spec["n"], PARAMS, self.spec["features"], seed, self.out.__setitem__
        )
        return seed

    def check(self, label: str, cycle: int, seed: int) -> str | None:
        try:
            if not np.all(np.isfinite(self.out)):
                return "stream left elements unset or non-finite"
            if not self.compared_with_batch:
                # the first op of a run must equal the batch sampler bitwise
                self.compared_with_batch = True
                n, D = self.spec["n"], self.spec["features"]
                batch = gpforge.rff_sample(gpforge.sample_inputs(n, PARAMS, seed), PARAMS, D, seed)
                if not np.array_equal(batch.y, self.out):
                    return "stream differs from rff_sample at the same seed"
            return None
        finally:
            self.out.fill(np.nan)

    def finish(self) -> str | None:
        return None


WORKLOADS = {"grid-n256": Grid, "draw-n2048": Draw, "stream-n8192": Stream}
