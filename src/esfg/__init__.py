"""Finite event structures, full graphs, and their set-family
representations, with exhaustive desk-scale enumeration and verification.

``import esfg`` loads this index alone.  The module-level ``__getattr__``
imports each public name from its home module on first access and caches
it here.  To monkeypatch an export, patch its home module and read the
name through that module: ``esfg.X`` keeps the first object it handed
out.
"""

from importlib import import_module

#: The public names, grouped by the submodule that defines them.
_EXPORTS = {
    "bijection": (
        *("BijectionReport", "enumerate_admissible_conflicts", "enumerate_fullgraph_edge_sets"),
        *("es_to_fg", "fg_to_es", "incomparable_complement", "verify_bijection"),
    ),
    "documents": (
        *("DocumentError", "StructureDocument", "export_dot", "from_event_structure"),
        *("from_full_graph", "parse_document", "representation_document", "serialize_document"),
    ),
    "enumeration": ("count_es", "count_fg", "emit_structures", "enumerate_partial_orders"),
    "event_structure": (
        *("EventStructure", "EventStructureError", "es_failures", "is_conflict_propagating"),
        *("is_event_structure", "terminal_events"),
    ),
    "fullgraph": (
        *("FullGraph", "FullGraphError", "fg_failures", "find_fg_representation_bruteforce"),
        *("is_fg_representation", "is_full_graph"),
    ),
    "oeis": ("OeisCheck", "OeisError", "oeis_crosscheck"),
    "relation": ("Relation",),
    "representation": (
        *("RepresentationCertificate", "StructureFlags", "build_representation"),
        *("extend_with_terminal", "find_representation_bruteforce", "is_representation"),
        "structure_from_representation",
    ),
    "setfamily": ("SetFamily", "overlaps"),
    "verify": ("SuiteReport", "run_theorem_suite"),
}

_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
