"""The computable correspondence between event structures and full graphs.

For a fixed directed relation D, complementing within the incomparability
square swaps valid conflict relations with valid undirected edge sets:
U = incomparable-but-not-T and T = incomparable-but-not-U.  The same
set family witnesses both sides, because disjointness and proper overlap
partition the incomparable pairs once containment is pinned down; the
builder's family is the canonical full-graph family of (D, T).

Both sides read one mask encoding per order: bit i of a mask is the
i-th incomparable pair with its mirror, so symmetry, irreflexivity,
conflict inside the field and T inside the square hold by construction;
a per-order guard covers causality.  ``_pair_kernel`` numbers the pairs
along the builder's peel order, maximal positions first, and gives each
side its own needs: the conflict side's from the up-sets, so every pair
a pair requires sits on a lower bit, and the edge-set side's from the
strict down-sets and the pairs with a common upper bound, so every pair
an edge requires sits on a higher bit.  ``_closed_masks`` lists each
side's masks, deciding the pairs so that each comes after the pairs it
requires, and makes no invalid candidate.  The sides share only the
pair numbering, so whether complementing maps one listing onto the
other, and whether their per-order sizes agree, is checked, not built in.
Recognition (``fullgraph.fg_failures``, on the canonical family) shares
none of the needs.  The sides are checked against it, the brute-force
oracle and the structural ``enumeration.count_es``, which shares only
the order side of ``count_fg`` (natural orders, n!/e(P)).

The filters over every mask that the listings replaced are kept in
``tests/reference.py``, as the listings' references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .event_structure import EventStructure
from .familysearch import search_set_family
from .fullgraph import FullGraph, FullGraphError, fg_failures
from .relation import Pair, Relation, _strict_rows
from .representation import _peel_order, build_representation

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


def _pair_kernel(
    above: Sequence[int],
) -> tuple[tuple[Pair, ...], tuple[int, ...], tuple[int, ...], int]:
    """One order's incomparable pairs, the mask of the pairs each requires
    as a conflict and as an edge, and the mask of the forced edges;
    ``above`` holds the strict up-set mask of each position.

    The pairs are numbered along ``_peel_order``, maximal positions
    first: by the position of the pair peeled later, then by the one
    peeled earlier.  As a conflict, a pair (a, b) requires (y, b) for
    each y above a and (a, y) for each y above b.  Each such y is peeled
    before the position it replaces, so every pair a conflict requires
    sits on a lower bit.  A pair whose positions have a common upper
    bound also requires the bit just past the pairs, which no mask holds;
    as an edge it is forced.  As an edge, (a, b) requires (y, b) for each
    y below a and (a, y) for each y below b, each on a higher bit.
    ``touching[v]`` holds the bits of v's pairs, ``reach[v]`` those of
    the positions above v and ``fall[v]`` those of the positions below
    it, all built in one walk over set bits, so the pairs (y, b) with y
    above a are the bits ``touching[b]`` and ``reach[a]`` share."""
    peeled = _peel_order(tuple(above))
    pairs: list[Pair] = []
    touching = [0] * len(above)
    for j, b in enumerate(peeled):
        for a in peeled[:j]:
            if not above[b] >> a & 1:
                bit = 1 << len(pairs)
                touching[a] |= bit
                touching[b] |= bit
                pairs.append((a, b))
    reach = [0] * len(above)
    fall = [0] * len(above)
    for v, up in enumerate(above):
        while up:
            low = up & -up
            u = low.bit_length() - 1
            reach[v] |= touching[u]
            fall[u] |= touching[v]
            up ^= low
    out, forced = 1 << len(pairs), 0
    needs, edge_needs = [], []
    for i, (a, b) in enumerate(pairs):
        common = above[a] & above[b]
        forced |= bool(common) << i
        needs.append(touching[b] & reach[a] | touching[a] & reach[b] | (out if common else 0))
        edge_needs.append(touching[b] & fall[a] | touching[a] & fall[b])
    return tuple(pairs), tuple(needs), tuple(edge_needs), forced


def _pair_rows(k: int, pairs: Sequence[Pair], mask: int) -> list[int]:
    """The symmetric relation of a mask over ``_pair_kernel``'s pairs, as k rows."""
    rows = [0] * k
    while mask:
        low = mask & -mask
        a, b = pairs[low.bit_length() - 1]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
        mask ^= low
    return rows


def _closed_masks(needs: Sequence[int], order: Iterable[int], start: int = 0) -> list[int]:
    """Every mask that holds ``start`` and, with each of its pairs, the
    pairs that pair requires.  The pairs outside ``start`` are decided in
    ``order``, each after all the pairs it requires: each mask listed so
    far is taken with pair i too when it holds ``needs[i]``.  Every mask
    made is valid, and each comes once.  The conflict side runs ascending
    from 0, which lists its masks ascending; the edge-set side runs
    descending from its forced edges."""
    masks = [start]
    for i in order:
        if not start >> i & 1:
            bit, need = 1 << i, needs[i]
            masks += [m | bit for m in masks if not need & ~m]
    return masks


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
    pairs, needs, _, _ = _pair_kernel(_strict_rows(base.field, base))
    return _relations(base, pairs, _closed_masks(needs, range(len(pairs))))


def enumerate_fullgraph_edge_sets(
    base: Relation, *, oracle: bool = False
) -> tuple[Relation, ...]:
    """All undirected edge sets T making (base, T) a full graph, sorted by
    pair list; empty for a ``base`` that is not an order.  They are listed
    from the full-graph rules, the edge needs and forced edges of
    ``_pair_kernel``, and never read off the conflicts.  ``oracle=True``
    (desk scale only) vets every candidate mask instead: the exhaustive
    search for an fg-representation with labels below k * k, for k
    vertices, reads the order's rows and the mask's.  A field above the
    ``list`` size limit raises ``ValueError``."""
    check_size(len(base.field), "list")
    if not base.is_partial_order:
        return ()
    pairs, _, edge_needs, forced = _pair_kernel(_strict_rows(base.field, base))
    if not oracle:
        return _relations(base, pairs, _closed_masks(edge_needs, reversed(range(len(pairs))), forced))
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
