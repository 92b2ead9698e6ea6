"""Every name a package module imports is used in that module, no
package function imports for itself but the lazy OEIS download, and every
probe of the benchmark tracer names a callable that exists."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

MODULES = sorted(
    path
    for path in (Path(__file__).parent.parent / "src" / "esfg").glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _benchmark_probes():
    path = Path(__file__).parent.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_esfg_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
    finally:
        del sys.modules[spec.name]
    return tracing.PROBES


@pytest.mark.parametrize("probe", _benchmark_probes(), ids=lambda probe: probe.name)
def test_every_benchmark_probe_resolves(probe):
    """The span tracer patches these callables by name; a probe whose
    target moved or was renamed would break the traced benchmark run."""
    module = importlib.import_module(probe.module)
    owner_name, _, attr = probe.qualname.rpartition(".")
    if owner_name:
        assert attr in vars(getattr(module, owner_name))
    else:
        assert callable(getattr(module, attr, None))


def test_the_oracle_imports_nothing_from_the_package():
    """The brute-force search stays independent of the builder and the
    validity predicate, so that its agreement with them proves something."""
    path = Path(__file__).parent.parent / "src" / "esfg" / "familysearch.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sources = {
        "esfg" if node.level else node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert "esfg" not in sources


def test_every_size_limit_is_enforced():
    """Each ``SIZE_LIMITS`` key is named, as a string, in some
    ``check_size`` or ``_refuse_size`` call: a limit nothing enforces is
    dead."""
    from esfg.bijection import SIZE_LIMITS

    named = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "check_size",
                "_refuse_size",
            ):
                named |= {
                    arg.value
                    for arg in ast.walk(node)
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                }
    assert sorted(set(SIZE_LIMITS) - named) == []


#: The only imports a package function may make for itself: the OEIS
#: download stays lazy, so that ``import esfg`` does not pay for it.
LAZY_IMPORTS = {
    ("oeis.py", "_download", "http.client"),
    ("oeis.py", "_download", "urllib.request"),
}


def test_imports_sit_at_module_level():
    """A function-local import hides a module's dependencies; every one
    outside ``LAZY_IMPORTS`` fails."""
    local = set()
    for path in MODULES:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    local |= {(path.name, func.name, alias.name) for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    source = "." * node.level + (node.module or "")
                    local.add((path.name, func.name, source))
    assert sorted(local - LAZY_IMPORTS) == []
