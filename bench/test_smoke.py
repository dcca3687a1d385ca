"""Smoke test of the benchmark's own code: every workload at toy size,
untraced and traced, reports every metric BENCHMARK.json names, with its
unit, and passes its output checks.

    python3 -m pytest bench/test_smoke.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TOY_SPECS = {
    "grid-n256": {
        "n": 24,
        "repeats": 2,
        "threads": 2,
        "grids": {"rff": [4, 8], "ciq": [2, 4], "pciq": [2, 4]},
    },
    "draw-n2048": {"n": 48, "features": 16, "methods": ["exact", "rff", "ciq", "pciq"]},
    "stream-n8192": {"n": 64, "features": 16},
}

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(TOY_SPECS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_reports_every_metric(workload, trace):
    result = run.run_benchmark(
        workload, seed=1, seconds=0.2, trace=trace, spec=TOY_SPECS[workload], setup_probes=1
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_missing_program_exits_nonzero_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "grid-n256", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
