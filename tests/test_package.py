"""The package namespace: what `gpforge` exports."""

import ast
import inspect

import gpforge


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
