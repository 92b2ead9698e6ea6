"""The computable correspondence between event structures and full graphs.

For a fixed directed relation D, complementing within the incomparability
square swaps valid conflict relations with valid undirected edge sets:
U = incomparable-but-not-T and T = incomparable-but-not-U.  The same
set family witnesses both sides, because disjointness and proper overlap
partition the incomparable pairs once containment is pinned down; the
builder's family is the canonical full-graph family of (D, T).

Both sides filter one mask encoding per order: bit i of a candidate is
the i-th incomparable pair with its mirror, so symmetry, irreflexivity,
conflict inside the field and T inside the square hold by construction;
a per-order guard covers causality, and each pair lists the pairs
propagation requires with it.  The conflict filter tests a mask, the
edge-set filter ``full ^ mask``, a bijection between the accepted sets:
the filters share these rules, so their per-order sizes agree by
construction.  Recognition (``fullgraph.fg_failures``, on the canonical
family) shares none of them.  The filters are checked against it, the
brute-force oracle and the structural ``enumeration.count_es``, which
shares only the order side of ``count_fg`` (natural orders, n!/e(P)).

The scalar filters here are the reference for the bit-parallel count
of ``enumeration``, whose docstring describes the walk over the orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .event_structure import EventStructure
from .familysearch import search_set_family
from .fullgraph import FullGraph, FullGraphError, fg_failures
from .relation import Pair, Relation, _strict_rows
from .representation import build_representation

Rules = tuple[tuple[int, int], ...]

#: Largest event count each kind of exhaustive work accepts: the counts
#: and the order walk behind them (``count_es``, ``count_fg``), listing
#: structures one by one (``enumerate_partial_orders``, emitted documents,
#: and the enumerators and ``verify_bijection`` below, by the field of
#: their base), and the mask pass of ``verify``.
SIZE_LIMITS = {"count": 7, "list": 5, "verify": 6}


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
    the ``FullGraph`` constructor re-checks the family on the graph side,
    from the same read of its masks.
    """
    causality, conflict = structure.causality, structure.conflict
    certificate = build_representation(causality, conflict).family
    undirected = incomparable_complement(causality, conflict)
    return FullGraph(causality, undirected, certificate)


def fg_to_es(graph: FullGraph) -> EventStructure:
    """Convert a full graph back to its event structure.

    A graph without a certificate is first recognized by its canonical
    family (``FullGraphError`` if that fails).  Either family realises D
    as containment and T as proper overlap, so it represents (D, square - T):
    incomparable sets that do not properly overlap are disjoint.
    """
    if graph.certificate is None:
        failures = fg_failures(graph.directed, graph.undirected)
        if failures:
            raise FullGraphError(failures)
    conflict = incomparable_complement(graph.directed, graph.undirected)
    return EventStructure(graph.directed, conflict)


def _pair_kernel(above: Sequence[int]) -> tuple[tuple[Pair, ...], Rules]:
    """One order's incomparable pairs a < b of its positions 0..k-1, in
    bit order, and for each pair that requires others its bit and the
    mask of those; ``above`` holds the strict up-set mask of each
    position.  A pair outside the square gets a bit no mask holds."""
    k = len(above)
    pairs = [
        (a, b) for a, b in combinations(range(k), 2) if not (above[a] >> b | above[b] >> a) & 1
    ]
    bit = [[1 << len(pairs)] * k for _ in range(k)]
    for i, (a, b) in enumerate(pairs):
        bit[a][b] = bit[b][a] = 1 << i
    members = [[y for y in range(k) if m >> y & 1] for m in above]
    rules = []
    for i, (a, b) in enumerate(pairs):
        need = 0
        for y in members[a]:
            need |= bit[y][b]
        for y in members[b]:
            need |= bit[y][a]
        if need:
            rules.append((1 << i, need))
    return tuple(pairs), tuple(rules)


def _pair_rows(k: int, pairs: Sequence[Pair], mask: int) -> list[int]:
    """The symmetric relation of a mask over ``_pair_kernel``'s pairs, as k rows."""
    rows = [0] * k
    for i, (a, b) in enumerate(pairs):
        if mask >> i & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


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


def _truth_tables(size: int) -> tuple[int, ...]:
    """T_0 .. T_{size-1} over the 2^size candidate masks: bit m of T_i is
    bit i of m.  T_i repeats 2^i zeros then 2^i ones."""
    full = (1 << (1 << size)) - 1
    return tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(size)
    )


def _relations(
    base: Relation, pairs: Sequence[Pair], masks: Iterable[int]
) -> tuple[Relation, ...]:
    """The symmetric relation of each mask over ``base``'s field, sorted by pair list."""
    k = len(base.field)
    found = (Relation._of_rows(base.universe, base.field, _pair_rows(k, pairs, m)) for m in masks)
    return tuple(sorted(found, key=tuple))


def enumerate_admissible_conflicts(base: Relation) -> tuple[Relation, ...]:
    """All conflict relations U making (base, U) a valid event structure,
    sorted by pair list; empty for a ``base`` that is not an order.  A
    field above the ``list`` size limit raises ``ValueError``."""
    check_size(len(base.field), "list")
    if not base.is_partial_order:
        return ()
    pairs, rules = _pair_kernel(_strict_rows(base.field, base))
    return _relations(base, pairs, _conflict_masks(len(pairs), rules))


def enumerate_fullgraph_edge_sets(
    base: Relation, *, oracle: bool = False
) -> tuple[Relation, ...]:
    """All undirected edge sets T making (base, T) a full graph, sorted by
    pair list; empty for a ``base`` that is not an order.  ``oracle=True``
    (desk scale only) vets every candidate mask instead of the filter: the
    exhaustive search for an fg-representation with labels below k * k,
    for k vertices, reads the order's rows and the mask's.  A field above
    the ``list`` size limit raises ``ValueError``."""
    check_size(len(base.field), "list")
    if not base.is_partial_order:
        return ()
    pairs, rules = _pair_kernel(_strict_rows(base.field, base))
    if not oracle:
        return _relations(base, pairs, _edge_set_masks(len(pairs), rules))
    k = len(base.field)

    def vetted(t: int) -> bool:
        rows = _pair_rows(k, pairs, t)
        return search_set_family(base.rows, rows, second_overlap=True, label_bound=k * k) is not None

    return _relations(base, pairs, filter(vetted, range(1 << len(pairs))))


@dataclass(frozen=True)
class BijectionReport:
    """Result of materialising both sides for one base relation.  When
    every flag holds the sizes are forced equal; the constructor refuses
    inconsistent reports.  Public API, as ``verify_bijection`` is."""

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
    injectively both ways.  Public API for checking one order by hand;
    ``verify`` runs the same check on masks."""
    check_size(len(base.field), "list")
    x_side = set(enumerate_fullgraph_edge_sets(base))
    y_side = set(enumerate_admissible_conflicts(base))
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
