"""The computable correspondence between event structures and full graphs.

For a fixed directed relation D, complementing within the incomparability
square swaps valid conflict relations with valid undirected edge sets:
U = incomparable-but-not-T and T = incomparable-but-not-U.  The same
set family witnesses both sides, because disjointness and proper overlap
partition the incomparable pairs once containment is pinned down.

Both sides filter one mask encoding per order: bit i of a candidate is
the i-th incomparable pair with its mirror, so symmetry, irreflexivity,
conflict inside the field and T inside the square hold by construction;
a per-order guard covers causality, and each pair lists the pairs
propagation requires with it.  The conflict filter tests a mask,
the edge-set filter ``full ^ mask``.  That map is a bijection between
the two accepted sets, so the two filters' per-order sizes agree by
construction; the independent checks of the filters are the structural
``enumeration.count_es`` and the brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Container, Iterable, Iterator, Sequence

from .event_structure import EventStructure, is_event_structure
from .fullgraph import FullGraph, FullGraphError, fg_failures
from .fullgraph import find_fg_representation_bruteforce
from .relation import Pair, Relation, pairs_key
from .representation import build_representation

Rules = tuple[tuple[int, int], ...]

#: Largest event count each kind of exhaustive work accepts: the
#: structural count (``count_es``), the mask filters over every labeled
#: order (``count_fg``), and listing structures one by one (the
#: enumerators, ``verify``, emitted documents).
SIZE_LIMITS = {"count": 7, "filter": 6, "list": 5}


def check_size(n: int, work: str) -> None:
    """Reject an event count the given kind of work does not accept."""
    if n < 0:
        raise ValueError("n must be a natural number")
    if n > SIZE_LIMITS[work]:
        raise ValueError(f"n={n} exceeds the {work} limit {SIZE_LIMITS[work]}")


def incomparable_complement(base: Relation, rel: Relation) -> Relation:
    """Complement ``rel`` within the incomparability square of ``base``."""
    return base.sym_complement() - rel


def es_to_fg(structure: EventStructure) -> FullGraph:
    """Convert a valid event structure to its full graph: the edges are
    the incomparable non-conflicts, certified by the family the builder
    makes (it raises ``EventStructureError`` on an invalid structure), and
    the ``FullGraph`` constructor re-checks the family on the graph side.
    """
    causality, conflict = structure.causality, structure.conflict
    certificate = build_representation(causality, conflict).family
    undirected = incomparable_complement(causality, conflict)
    return FullGraph(causality, undirected, certificate)


def fg_to_es(graph: FullGraph) -> EventStructure:
    """Convert a full graph back to its event structure.

    A graph without a certificate is recognized first (``FullGraphError``
    if that fails).  A certificate's family realises D as containment and
    T as proper overlap, so it represents (D, square - T): incomparable
    sets that do not properly overlap are disjoint.
    """
    if graph.certificate is None:
        failures = fg_failures(graph.directed, graph.undirected)
        if failures:
            raise FullGraphError(failures)
    conflict = incomparable_complement(graph.directed, graph.undirected)
    return EventStructure(graph.directed, conflict)


def _pair_kernel(
    field: Sequence[int], order: Container[Pair]
) -> tuple[tuple[Pair, ...], Rules]:
    """One order's incomparable pairs a < b of the sorted ``field``, in
    bit order, and for each pair that requires others its bit and the
    mask of those.  A pair outside the square gets a bit no mask holds."""
    above = {x: [y for y in field if y != x and (x, y) in order] for x in field}
    pairs = [p for p in combinations(field, 2) if p not in order and p[::-1] not in order]
    index = {pair: i for i, pair in enumerate(pairs)}
    rules = []
    for (a, b), i in index.items():
        need = 0
        for x, z in ((a, b), (b, a)):
            for y in above[x]:
                need |= 1 << index.get((min(y, z), max(y, z)), len(index))
        if need:
            rules.append((1 << i, need))
    return tuple(pairs), tuple(rules)


def _propagates(mask: int, rules: Rules) -> bool:
    """Every pair in ``mask`` has every pair it requires in ``mask``."""
    for bit, need in rules:
        if mask & bit and need & ~mask:
            return False
    return True


def _conflict_masks(size: int, rules: Rules) -> Iterator[int]:
    """The event-structure filter: candidate masks that propagate."""
    return (m for m in range(1 << size) if _propagates(m, rules))


def _edge_set_masks(size: int, rules: Rules) -> Iterator[int]:
    """The full-graph filter: masks whose complement propagates."""
    full = (1 << size) - 1
    return (m for m in range(full + 1) if _propagates(full ^ m, rules))


def _count_conflicts(field: Sequence[int], order: Container[Pair]) -> int:
    """How many conflicts of one order the event-structure filter accepts."""
    pairs, rules = _pair_kernel(field, order)
    return sum(1 for _ in _conflict_masks(len(pairs), rules))


def _count_edge_sets(field: Sequence[int], order: Container[Pair]) -> int:
    """How many edge sets of one order the full-graph filter accepts."""
    pairs, rules = _pair_kernel(field, order)
    return sum(1 for _ in _edge_set_masks(len(pairs), rules))


def _relations(
    universe: int, pairs: Sequence[Pair], masks: Iterable[int]
) -> tuple[Relation, ...]:
    """The symmetric relation of each mask, sorted by pair list."""
    chosen = ([pair for i, pair in enumerate(pairs) if m >> i & 1] for m in masks)
    found = (Relation(universe, c + [(b, a) for a, b in c]) for c in chosen)
    return tuple(sorted(found, key=pairs_key))


def enumerate_admissible_conflicts(base: Relation) -> tuple[Relation, ...]:
    """All conflict relations U making (base, U) a valid event structure,
    sorted by pair list; empty for a ``base`` that is not an order."""
    if not is_event_structure(base, Relation(base.universe)):
        return ()  # the empty conflict is valid exactly when base is an order
    pairs, rules = _pair_kernel(base.field, base.pairs)
    return _relations(base.universe, pairs, _conflict_masks(len(pairs), rules))


def enumerate_fullgraph_edge_sets(
    base: Relation, *, oracle: bool = False
) -> tuple[Relation, ...]:
    """All undirected edge sets T making (base, T) a full graph, sorted by
    pair list; empty for a ``base`` that is not an order.  ``oracle=True``
    (desk scale only) vets every candidate with the exhaustive search for
    an fg-representation instead of the filter."""
    if not base.is_partial_order:
        return ()
    pairs, rules = _pair_kernel(base.field, base.pairs)
    if not oracle:
        return _relations(base.universe, pairs, _edge_set_masks(len(pairs), rules))
    bound = len(base.field) ** 2
    return tuple(
        t
        for t in _relations(base.universe, pairs, range(1 << len(pairs)))
        if find_fg_representation_bruteforce(base, t, bound) is not None
    )


@dataclass(frozen=True)
class BijectionReport:
    """Result of materialising both sides for one base relation.  When
    every flag holds the sizes are forced equal; the constructor refuses
    inconsistent reports."""

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
    check_size(len(base.field), "list")
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
