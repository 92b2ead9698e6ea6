"""Finite event structures, full graphs, and their set-family
representations, with exhaustive desk-scale enumeration and verification.
"""

from .bijection import (
    BijectionReport,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
    es_to_fg,
    fg_to_es,
    incomparable_complement,
    verify_bijection,
)
from .documents import (
    DocumentError,
    StructureDocument,
    export_dot,
    from_event_structure,
    from_full_graph,
    parse_document,
    representation_document,
    serialize_document,
)
from .enumeration import (
    count_es,
    count_fg,
    emit_structures,
    enumerate_partial_orders,
)
from .event_structure import (
    EventStructure,
    EventStructureError,
    es_failures,
    is_conflict_propagating,
    is_event_structure,
    terminal_events,
)
from .fullgraph import (
    FullGraph,
    FullGraphError,
    fg_failures,
    find_fg_representation_bruteforce,
    is_fg_representation,
    is_full_graph,
)
from .oeis import OeisCheck, OeisError, oeis_crosscheck
from .relation import Relation
from .representation import (
    RepresentationCertificate,
    StructureFlags,
    build_representation,
    extend_with_terminal,
    find_representation_bruteforce,
    is_representation,
    structure_from_representation,
)
from .setfamily import SetFamily, overlaps
from .verify import SuiteReport, run_theorem_suite

__all__ = [
    "BijectionReport",
    "DocumentError",
    "EventStructure",
    "EventStructureError",
    "FullGraph",
    "FullGraphError",
    "OeisCheck",
    "OeisError",
    "Relation",
    "RepresentationCertificate",
    "SetFamily",
    "StructureDocument",
    "StructureFlags",
    "SuiteReport",
    "build_representation",
    "count_es",
    "count_fg",
    "emit_structures",
    "enumerate_admissible_conflicts",
    "enumerate_fullgraph_edge_sets",
    "enumerate_partial_orders",
    "es_failures",
    "es_to_fg",
    "export_dot",
    "extend_with_terminal",
    "fg_failures",
    "fg_to_es",
    "find_fg_representation_bruteforce",
    "find_representation_bruteforce",
    "from_event_structure",
    "from_full_graph",
    "incomparable_complement",
    "is_conflict_propagating",
    "is_event_structure",
    "is_fg_representation",
    "is_full_graph",
    "is_representation",
    "oeis_crosscheck",
    "overlaps",
    "parse_document",
    "representation_document",
    "run_theorem_suite",
    "serialize_document",
    "structure_from_representation",
    "terminal_events",
    "verify_bijection",
]

__version__ = "0.1.0"
