"""The computable correspondence between event structures and full graphs.

For a fixed directed relation D, complementing within the incomparability
square swaps valid conflict relations with valid undirected edge sets:
U = incomparable-but-not-T and T = incomparable-but-not-U.  The same
set family witnesses both sides, because disjointness and proper overlap
partition the incomparable pairs once containment is pinned down.

``verify_bijection`` materialises both candidate sets for a given D and
checks the complement map is a size-preserving bijection between them;
``bijection_report`` runs the same check on sets already materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .event_structure import EventStructure, is_event_structure
from .fullgraph import FullGraph, FullGraphError, fg_failures, is_full_graph
from .fullgraph import find_fg_representation_bruteforce
from .relation import Relation, pairs_key
from .representation import build_representation

#: Largest event count the exhaustive enumerators accept.
MAX_EVENTS = 5


def check_size(n: int) -> None:
    """Reject an event count the enumerators do not accept."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n > MAX_EVENTS:
        raise ValueError(f"n={n} exceeds the limit {MAX_EVENTS}")


def incomparable_complement(base: Relation, rel: Relation) -> Relation:
    """Complement ``rel`` within the incomparability square of ``base``."""
    return base.sym_complement() - rel


def es_to_fg(structure: EventStructure) -> FullGraph:
    """Convert a valid event structure to its full graph.

    The undirected edges are the incomparable non-conflicts, and the
    attached certificate is the representation family built for the
    structure (the builder rejects an invalid structure with
    ``EventStructureError``); the ``FullGraph`` constructor re-validates
    that the same family certifies the graph side.
    """
    causality, conflict = structure.causality, structure.conflict
    certificate = build_representation(causality, conflict).family
    undirected = incomparable_complement(causality, conflict)
    return FullGraph(causality, undirected, certificate)


def fg_to_es(graph: FullGraph) -> EventStructure:
    """Convert a full graph back to its event structure.

    A graph without a certificate is recognized first (``FullGraphError``
    if that fails); a certified one need not be.  Its constructor checked
    that the family is injective, empty-free, keyed by the vertices, and
    realises D as containment and T as proper overlap.  Incomparable sets
    that do not properly overlap are disjoint, so the family represents
    (D, square - T), a valid conflict by the representation theorem.
    """
    if graph.certificate is None:
        failures = fg_failures(graph.directed, graph.undirected)
        if failures:
            raise FullGraphError(failures)
    conflict = incomparable_complement(graph.directed, graph.undirected)
    return EventStructure(graph.directed, conflict)


def _symmetric_subsets(base: Relation) -> Iterator[Relation]:
    """Every symmetric subset of the incomparability square of ``base``,
    by unordered-pair mask (mirror twins toggled together)."""
    comp = base.sym_complement()
    reps = sorted({(min(a, b), max(a, b)) for a, b in comp.pairs})
    for mask in range(1 << len(reps)):
        pairs: set[tuple[int, int]] = set()
        for i, (a, b) in enumerate(reps):
            if mask >> i & 1:
                pairs.add((a, b))
                pairs.add((b, a))
        yield Relation(base.universe, pairs)


def enumerate_admissible_conflicts(base: Relation) -> tuple[Relation, ...]:
    """All conflict relations U making (base, U) a valid event structure.

    Candidates range over symmetric subsets of the incomparability square
    (nothing outside it can ever be admissible).  Sorted by pair list;
    empty for a ``base`` that is not an order.
    """
    if not base.is_partial_order:
        return ()
    found = [u for u in _symmetric_subsets(base) if is_event_structure(base, u)]
    found.sort(key=pairs_key)
    return tuple(found)


def enumerate_fullgraph_edge_sets(
    base: Relation, *, oracle: bool = False
) -> tuple[Relation, ...]:
    """All undirected edge sets T making (base, T) a full graph.

    Runs the graph-side recognition path; with ``oracle=True`` (test mode,
    desk scale only) each candidate is instead vetted by the exhaustive
    search for an fg-representation, independent of recognition.  Sorted
    by pair list; empty for a ``base`` that is not an order.
    """
    if not base.is_partial_order:
        return ()
    size = len(base.field)
    if oracle:
        bound = size * size
        keep = [
            t
            for t in _symmetric_subsets(base)
            if find_fg_representation_bruteforce(base, t, bound) is not None
        ]
    else:
        keep = [t for t in _symmetric_subsets(base) if is_full_graph(base, t)]
    keep.sort(key=pairs_key)
    return tuple(keep)


@dataclass(frozen=True)
class BijectionReport:
    """Result of materialising both sides for one base relation.

    When every flag is true the two sizes are forced equal, and the
    constructor refuses inconsistent reports.
    """

    base_relation: Relation
    x_size: int
    y_size: int
    forward_onto: bool
    backward_onto: bool
    injective_on_x: bool
    injective_on_y: bool

    def __post_init__(self) -> None:
        if self.all_hold and self.x_size != self.y_size:
            raise ValueError("a verified bijection cannot change cardinality")

    @property
    def all_hold(self) -> bool:
        return (
            self.forward_onto
            and self.backward_onto
            and self.injective_on_x
            and self.injective_on_y
        )


def verify_bijection(base: Relation) -> BijectionReport:
    """Check that complementing within the incomparability square maps the
    full-graph edge sets onto the admissible conflicts and back,
    injectively both ways."""
    check_size(len(base.field))
    return bijection_report(
        base, enumerate_fullgraph_edge_sets(base), enumerate_admissible_conflicts(base)
    )


def bijection_report(
    base: Relation, edge_sets: Iterable[Relation], conflicts: Iterable[Relation]
) -> BijectionReport:
    """The ``verify_bijection`` check on both sides as given: the
    full-graph edge sets and the admissible conflicts of ``base``."""
    x_side = set(edge_sets)
    y_side = set(conflicts)
    forward = {incomparable_complement(base, t) for t in x_side}
    backward = {incomparable_complement(base, u) for u in y_side}
    return BijectionReport(
        base_relation=base,
        x_size=len(x_side),
        y_size=len(y_side),
        forward_onto=(forward == y_side),
        backward_onto=(backward == x_side),
        injective_on_x=(len(forward) == len(x_side)),
        injective_on_y=(len(backward) == len(y_side)),
    )
