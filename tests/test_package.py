"""The package namespace: what `gpforge` exports."""

import ast
import dataclasses
import graphlib
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import typing
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


def test_importing_the_package_loads_no_numerics_beyond_scipy_stats():
    """The benchmark's setup_s times the package import, and scipy.stats
    already loads every numpy and scipy module the package uses; a fresh
    interpreter that imports scipy.stats first must load no further
    numpy.* or scipy.* module when it imports gpforge."""
    src = Path(gpforge.__file__).resolve().parents[1]
    script = (
        "import sys, scipy.stats\n"
        "before = set(sys.modules)\n"
        "import gpforge\n"
        "print(sorted(m for m in set(sys.modules) - before if m.split('.')[0] in ('numpy', 'scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_package_loads_no_scipy_stats():
    """scipy.stats costs about half a second and 33 MB at start-up, and
    every CLI call is a fresh process: a fresh `import gpforge,
    gpforge.cli` must not load it."""
    src = Path(gpforge.__file__).resolve().parents[1]
    script = "import sys, gpforge, gpforge.cli\nprint('scipy.stats' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_every_exported_dataclass_has_type_hints_that_resolve():
    """A hint named only under `if TYPE_CHECKING:` is a string no module
    binds at run time, so get_type_hints raises NameError on it."""
    records = [getattr(gpforge, name) for name in gpforge.__all__]
    records = [r for r in records if dataclasses.is_dataclass(r)]
    assert records
    for record in records:
        typing.get_type_hints(record)


def test_the_package_imports_in_one_direction():
    """Every import in src/gpforge sits at module level, so none hides a
    cycle inside a function or an `if TYPE_CHECKING:` block, and the graph
    of the package's imports of its own modules has no cycle."""
    src = Path(gpforge.__file__).resolve().parent
    graph = {}
    nested = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = set(map(id, tree.body))
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if id(node) not in top:
                nested.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                graph[path.stem].update(names)
    assert nested == []
    # static_order raises graphlib.CycleError, naming the modules of a cycle
    list(graphlib.TopologicalSorter(graph).static_order())


def test_only_bounds_calls_the_fidelity_calculators():
    """Every Q and J is sized by FidelitySpec.for_ciq or for_pciq, so no
    module of the package but bounds.py calls the calculators behind them;
    a second caller would be a second sizing path."""
    calculators = {"ciq_min_quadrature", "ciq_min_iterations", "precond_min_iterations"}
    src = Path(gpforge.__file__).resolve().parent
    callers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in calculators and path.name != "bounds.py":
                    callers.append(f"{path.name}:{node.lineno} {name}")
    assert callers == []


def test_bounds_owns_the_sizing_arithmetic():
    """bounds.py imports no module of the package but kernel; pciq's default
    rank, the preconditioned condition bound and the rff failure probability
    default are defined there and in no other module, by a `def` or a
    module-level assignment; and `gpforge bounds --delta` defaults to that
    constant."""
    owned = {"default_rank", "preconditioned_condition_bound", "DEFAULT_DELTA"}
    src = Path(gpforge.__file__).resolve().parent
    homes = {name: [] for name in owned}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in owned.intersection(names):
                homes[name].append(path.name)
        if path.name == "bounds.py":
            imported = {
                node.module or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names
            }
            assert imported == {"kernel"}
    assert homes == {name: ["bounds.py"] for name in owned}
    # argparse hands back a default that is not a string as the object given
    args = cli.build_parser().parse_args(["bounds", "--method", "rff", "--n", "8", "--eps", "0.1"])
    assert args.delta is gpforge.bounds.DEFAULT_DELTA
