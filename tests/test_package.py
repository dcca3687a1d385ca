"""The package namespace: what `gpforge` exports."""

import ast
import importlib
import importlib.util
import inspect
import re
from collections import Counter
from pathlib import Path

import gpforge
from gpforge import cli


def test_all_lists_exactly_the_names_bound_from_submodules():
    """__init__.py names every export twice, in an import and in __all__;
    the two lists must agree, with __version__ the one extra entry."""
    tree = ast.parse(inspect.getsource(gpforge))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    public = {name for name in imported if not name.startswith("_")}
    assert len(gpforge.__all__) == len(set(gpforge.__all__))
    assert set(gpforge.__all__) == public | {"__version__"}


def test_every_export_is_read_outside_its_own_definition():
    """A public name only its own unit tests read is surface to delete:
    each export but __version__ must appear in the library's modules, the
    benchmark or the acceptance tests on some line other than its own
    `def` or `class` line."""
    root = Path(__file__).resolve().parents[1]
    files = [p for p in sorted((root / "src" / "gpforge").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "bench").glob("*.py")) + [root / "tests" / "test_acceptance.py"]
    lines = [line for path in files for line in path.read_text().splitlines()]
    unread = [
        name
        for name in gpforge.__all__
        if name != "__version__"
        and not any(
            re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line)
            for line in lines
        )
    ]
    assert unread == []


def bench_tracing():
    """The benchmark's tracer module, loaded from bench/tracing.py."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("gpforge_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_benchmark_trace_target_exists():
    """bench/tracing.py wraps each (module, function) of its TARGETS by
    name, and `bench/run.py --trace 1` fails on one that is gone; these
    tests do not otherwise run the benchmark, so renaming or deleting a
    traced function must fail here."""
    tracing = bench_tracing()
    missing = [
        f"gpforge.{module}.{function}"
        for module, function, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(f"gpforge.{module}"), function)
    ]
    assert tracing.TARGETS
    assert missing == []


def test_the_traced_draw_path_is_the_one_sample_and_verify_run(tmp_path):
    """The tracer's draw-path targets are what `sample` and `verify` call:
    over sample then verify for each method, one exact draw, two
    quadrature draws (ciq and pciq), each through one traced shifted
    solve, one Nystrom factor (pciq) and one whitening per verify."""
    tracing = bench_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.label = "draw"
        for method, *flags in (("exact",), ("rff", "--features", "16"), ("ciq",), ("pciq",)):
            out = str(tmp_path / f"{method}.csv")
            assert cli.main(["sample", "--method", method, "--n", "24", "--output", out, *flags]) == 0
            assert cli.main(["verify", "--sample", out]) == 0
    finally:
        tracer.label = None
        tracer.uninstall()
    counts = Counter(span.name for span in tracer.spans)
    assert counts["exact.exact_sample"] == 1
    assert counts["ciq.ciq_sample"] == 2
    assert counts["ciq.shifted_solve"] == 2
    assert counts["precond.nystrom_factor"] == 1
    assert counts["exact.whiten"] == 4
