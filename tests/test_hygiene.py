"""Every name a package module imports is used in that module, every
private function but an interpreter's ``__dunder__`` hook is called by
the package, no package function imports for itself but the lazy OEIS
download, the package reads no environment variable it does not list,
every module parses at the declared Python floor, the oracle and the
tests' reference import nothing from the package, full-graph recognition
imports nothing from the event-structure module, ``import esfg`` loads
the package index and nothing else, every export the index hands out is
the object its home module defines, every probe of the benchmark tracer
names a callable that exists, every oracle reaches the search probe, and
the package builds no relation through its public constructor, reads no
``pairs`` view outside ``relation.py`` and hand-writes no equality,
hashing or immutability that a frozen dataclass would derive."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "esfg").glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def test_every_module_parses_at_the_python_floor():
    """The tests run on one Python, newer than the ``requires-python``
    floor, so each module's grammar is held to the floor here: below 3.11,
    ``except*`` fails.  The floor is read by regex, since ``tomllib`` is
    newer than 3.10."""
    declared = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', declared).groups()))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in PACKAGE:
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=floor)


def _benchmark_probes():
    path = ROOT / "benchmarks" / "tracing.py"
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


def test_every_oracle_reaches_the_search_probe(monkeypatch):
    """The tracer counts searches by wrapping ``search_set_family`` in
    every ``esfg`` module that binds it.  An ES oracle call, an FG oracle
    call and an oracle-mode listing must each reach that wrapper, or the
    benchmark's search count reads 0 on them.  ``esfg.cli`` loads every
    module first, as the benchmark does, so that none binds the search
    while it is wrapped."""
    import esfg
    import esfg.cli  # noqa: F401
    from esfg import familysearch

    search = familysearch.search_set_family
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    binders = [
        module
        for name, module in sorted(sys.modules.items())
        if name.split(".")[0] == "esfg" and vars(module).get("search_set_family") is search
    ]
    assert familysearch in binders
    for module in binders:
        monkeypatch.setattr(module, "search_set_family", wrapped)
    antichain = esfg.Relation(2, {(0, 0), (1, 1)})
    edge = esfg.Relation(2, {(0, 1), (1, 0)})
    oracles = {
        "es": lambda: esfg.find_representation_bruteforce(antichain, edge, 4),
        "fg": lambda: esfg.find_fg_representation_bruteforce(antichain, edge, 4),
        "listing": lambda: esfg.enumerate_fullgraph_edge_sets(antichain, oracle=True),
    }
    reached = {}
    for name, oracle in oracles.items():
        calls.clear()
        oracle()
        reached[name] = len(calls)
    assert reached == {"es": 1, "fg": 1, "listing": 2}


@pytest.mark.parametrize(
    "path",
    [ROOT / "src" / "esfg" / "familysearch.py", ROOT / "tests" / "reference.py"],
    ids=lambda path: path.name,
)
def test_the_oracle_imports_nothing_from_the_package(path):
    """The brute-force search stays independent of the builder and the
    validity predicate, and the tests' reference definitions of the whole
    package, so that agreeing with them proves something."""
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


def test_full_graph_recognition_imports_nothing_from_event_structure():
    """Recognition checks the canonical family, not the event-structure
    axioms on the complement, so that the complement theorem the tests
    check links two sides derived apart."""
    tree = ast.parse((ROOT / "src" / "esfg" / "fullgraph.py").read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named |= {*(node.module or "").split("."), *(alias.name for alias in node.names)}
        elif isinstance(node, ast.Import):
            named |= {part for alias in node.names for part in alias.name.split(".")}
    assert "event_structure" not in named


def _names(tree):
    """How often each name, attribute and imported name appears in ``tree``."""
    return Counter(
        getattr(node, "id", None) or getattr(node, "attr", None) or node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    )


def test_every_private_function_is_called_by_the_package():
    """A module-level ``_private`` function that no package module names
    outside its own body serves only the tests, and belongs with them.
    Public names are API, and exempt, as are ``__dunder__`` hooks such as
    the index's ``__getattr__``: the interpreter calls those."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE]
    named = sum(map(_names, trees), Counter())
    defs = [f for tree in trees for f in tree.body if isinstance(f, ast.FunctionDef)]
    private = [f for f in defs if f.name[0] == "_" and not re.fullmatch(r"__\w+__", f.name)]
    unused = [f.name for f in private if named[f.name] == _names(f)[f.name]]
    assert unused == []


def test_the_package_builds_relations_from_rows():
    """Inside the package a relation is built from its rows or from pairs
    a document holds, never through the public constructor from pairs the
    package wrote itself, and only ``relation.py`` reads the ``pairs``
    view: the frozenset is for callers outside the package."""
    built, read = [], []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Relation":
                built.append((path.name, node.lineno))
            if isinstance(node, ast.Attribute) and node.attr == "pairs":
                if path.name != "relation.py":
                    read.append((path.name, node.lineno))
    assert (built, read) == ([], [])


#: What ``@dataclass(frozen=True)`` writes for a value type from its fields.
VALUE_PROTOCOL = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__slots__"}


def test_no_class_hand_writes_the_value_protocol():
    """Every value type is a frozen dataclass: a class that writes its own
    equality, hashing, immutability or slots keeps a second copy of what
    the dataclass derives from the fields."""
    written = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    names = {item.name}
                elif isinstance(item, ast.Assign):
                    names = {getattr(target, "id", None) for target in item.targets}
                elif isinstance(item, ast.AnnAssign):
                    names = {getattr(item.target, "id", None)}
                else:
                    continue
                written += [(path.name, node.name, name) for name in sorted(names & VALUE_PROTOCOL)]
    assert written == []


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


#: The only environment variables the package reads, by module: the OEIS
#: cache follows the XDG base directory convention.
ENVIRONMENT_READS = {("oeis.py", "XDG_CACHE_HOME")}


def _environment_reads(tree):
    """``(variable, line)``, by line, for each read of ``os.environ`` or
    ``os.getenv`` in the tree; the variable is None unless it is a string
    literal read by subscript, ``os.environ.get`` or ``os.getenv``."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
            reads += [(None, node.lineno)] * len(names & {"environ", "getenv"})
        if not (
            isinstance(node, ast.Attribute)
            and node.attr in ("environ", "getenv")
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            continue
        parent, key = parents[node], None
        if node.attr == "environ" and isinstance(parent, ast.Subscript):
            key = parent.slice
        elif node.attr == "environ" and isinstance(parent, ast.Attribute) and parent.attr == "get":
            call = parents[parent]
            key = call.args[0] if isinstance(call, ast.Call) and call.args else None
        elif node.attr == "getenv" and isinstance(parent, ast.Call) and parent.args:
            key = parent.args[0]
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        reads.append((key.value if literal else None, node.lineno))
    return sorted(reads, key=lambda read: read[1])


def test_environment_reads_are_found():
    source = (
        "import os\n"
        "os.environ.get('A')\n"
        "os.getenv('B', 'b')\n"
        "os.environ['C']\n"
        "os.getenv(name)\n"
        "dict(os.environ)\n"
        "from os import environ\n"
    )
    assert _environment_reads(ast.parse(source)) == [
        ("A", 2),
        ("B", 3),
        ("C", 4),
        (None, 5),
        (None, 6),
        (None, 7),
    ]


def test_environment_reads_are_listed():
    """Each environment variable the package reads is named by a string
    literal and listed in ``ENVIRONMENT_READS``: a setting that only an
    environment variable can reach is one that no test, option or
    document shows."""
    unlisted = [
        (path.name, variable, line)
        for path in MODULES
        for variable, line in _environment_reads(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, variable) not in ENVIRONMENT_READS
    ]
    assert unlisted == []


def _fresh_interpreter(script):
    """The standard output of ``script`` run by a new interpreter that
    finds the package under ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout


#: What ``import esfg`` adds to ``sys.modules`` in a fresh CPython 3.11
#: interpreter: the package index alone, which loads each submodule on
#: first use.  Every launch pays for each of these, so a module joins the
#: list on purpose or not at all.
IMPORTED_MODULES = {"esfg"}


def test_import_esfg_loads_only_the_listed_modules():
    """One fresh interpreter diffs ``sys.modules`` around ``import esfg``;
    a module outside ``IMPORTED_MODULES`` fails.  ``importlib``, through
    which the index loads its submodules, is imported first: it is the
    interpreter's own import system, which site start-up already loads on
    most launches."""
    script = (
        "import importlib, sys; before = set(sys.modules); import esfg; "
        "print(*sorted(set(sys.modules) - before))"
    )
    assert sorted(set(_fresh_interpreter(script).split()) - IMPORTED_MODULES) == []


EXPORT_CONTRACT = """
import inspect, json
from importlib import import_module
import esfg
table = esfg._EXPORTS
homes = {name: "esfg." + home for home, names in table.items() for name in names}
different = sorted(
    name for name, home in homes.items()
    if getattr(esfg, name) is not getattr(import_module(home), name)
)
cached = sorted(name for name in homes if vars(esfg).get(name) is not getattr(esfg, name))
misplaced = sorted(
    (name, value.__module__) for name, value in ((name, getattr(esfg, name)) for name in homes)
    if (inspect.isfunction(value) or inspect.isclass(value)) and value.__module__ != homes[name]
)
star = {}
exec("from esfg import *", star)
print(json.dumps({
    "all": sorted(esfg.__all__) == sorted(name for names in table.values() for name in names),
    "different": different,
    "cached": cached,
    "misplaced": misplaced,
    "not_starred": sorted(set(homes) - set(star)),
    "not_in_dir": sorted(set(homes) - set(dir(esfg))),
    "unknown": hasattr(esfg, "no_such_name"),
    "version": esfg.__version__,
}))
"""


def test_every_export_is_its_home_modules_object():
    """In a fresh interpreter, so that no earlier test has filled the
    index's cache: ``__all__`` is the export table, each export is the
    very object its home module defines and stays cached as that object,
    the table names the defining module and not a re-binder,
    ``from esfg import *`` and ``dir(esfg)`` cover every export, and an
    unknown name is an ``AttributeError``."""
    assert json.loads(_fresh_interpreter(EXPORT_CONTRACT)) == {
        "all": True,
        "different": [],
        "cached": [],
        "misplaced": [],
        "not_starred": [],
        "not_in_dir": [],
        "unknown": False,
        "version": "0.1.0",
    }
