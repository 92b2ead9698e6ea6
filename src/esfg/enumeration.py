"""Exhaustive labeled enumeration of event structures and full graphs.

Counting is over vertex set exactly ``{0..n-1}`` (labeled structures, not
isomorphism classes), building no ``Relation``, along two independent
paths.  ``count_fg`` runs the full-graph mask filter of ``bijection`` on
every labeled order.  ``count_es`` counts by structure: by the conflict
axioms, a valid conflict on an order P is exactly an up-set of the poset
Q(P) of event pairs with no common upper bound, ordered componentwise.
The count is isomorphism invariant, so it sums over the naturally
labeled orders only (i below j only if i < j), each weighted by the
n!/e(P) labeled orders it stands for, e(P) being its number of linear
extensions.  Each entry point rejects n above its ``SIZE_LIMITS`` entry.

Labeled orders stream depth first: vertex k joins an order on 0..k-1
above a down-closed set B and below an up-closed set A, with B wholly
below A.  That is transitive as it stands, and each order arises once: B
and A are k's strict down-set and up-set, and the rest is an order on
0..k-1.  Naturally labeled orders are the case A = {}.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import factorial
from typing import Callable, Iterator, Sequence

from .bijection import (
    _count_edge_sets,
    check_size,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
)
from .documents import from_event_structure, from_full_graph, serialize_document
from .event_structure import EventStructure
from .fullgraph import FullGraph
from .relation import Pair, Relation


def _closed(sets: Sequence[int]) -> list[int]:
    """The vertex sets s with sets[v] inside s for every v in s, ascending."""
    k = len(sets)
    return [
        s for s in range(1 << k) if all(sets[v] | s == s for v in range(k) if s >> v & 1)
    ]


def _posets(n: int) -> Iterator[frozenset[Pair]]:
    """The pair set of every partial order on {0..n-1}, each once.
    ``above`` and ``below`` hold the strict up-set and down-set masks of
    the vertices placed so far."""
    check_size(n, "filter")

    def grow(above: list[int], below: list[int]) -> Iterator[frozenset[Pair]]:
        k = len(above)
        if k == n:
            yield frozenset(
                (v, w) for v in range(n) for w in range(n) if v == w or above[v] >> w & 1
            )
            return
        ups = _closed(above)
        for low in _closed(below):
            for high in ups:
                if all(above[v] | high == above[v] for v in range(k) if low >> v & 1):
                    yield from grow(
                        [m | (low >> v & 1) << k for v, m in enumerate(above)] + [high],
                        [m | (high >> v & 1) << k for v, m in enumerate(below)] + [low],
                    )

    return grow([], [])


def _natural_posets(n: int) -> Iterator[tuple[int, ...]]:
    """Every naturally labeled partial order on {0..n-1}, each once, as
    the strict down-set mask of each vertex (OEIS A006455)."""
    check_size(n, "count")

    def grow(below: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(below) == n:
            yield below
            return
        for low in _closed(below):
            yield from grow(below + (low,))

    return grow(())


def _linear_extensions(below: Sequence[int]) -> int:
    """e(P) for the order with these strict down-set masks: a DP over its
    down-sets, one vertex more per layer, each added once its down-set is in."""
    ways = {0: 1}
    for _ in below:
        grown: dict[int, int] = {}
        for s, w in ways.items():
            for v, low in enumerate(below):
                if not (s >> v & 1 or low & ~s):
                    grown[s | 1 << v] = grown.get(s | 1 << v, 0) + w
        ways = grown
    return ways[(1 << len(below)) - 1]


def _count_conflict_upsets(below: Sequence[int]) -> int:
    """How many valid conflicts the order with these strict down-set
    masks has: the up-sets of Q(P), its pairs {x,z} with no common upper
    bound, {x,z} below {y,w} when x <= y and z <= w.  The memoised count
    includes or excludes the first pair left, and with it every pair
    above or below it."""
    n = len(below)
    up = [1 << v | sum(1 << u for u in range(n) if below[u] >> v & 1) for v in range(n)]
    members = [[y for y in range(n) if m >> y & 1] for m in up]
    pairs = [(x, z) for x, z in combinations(range(n), 2) if not up[x] & up[z]]
    index = {pair: i for i, pair in enumerate(pairs)}
    above = [0] * len(pairs)
    under = [0] * len(pairs)
    for i, (x, z) in enumerate(pairs):
        for y in members[x]:
            for w in members[z]:
                j = index[min(y, w), max(y, w)]
                above[i] |= 1 << j
                under[j] |= 1 << i

    @cache
    def upsets(rest: int) -> int:
        if not rest:
            return 1
        i = (rest & -rest).bit_length() - 1
        return upsets(rest & ~above[i]) + upsets(rest & ~under[i])

    return upsets((1 << len(pairs)) - 1)


def enumerate_partial_orders(n: int) -> Iterator[Relation]:
    """Every reflexive, transitive, antisymmetric relation with field
    exactly {0..n-1}, each once, sorted by pair list."""
    check_size(n, "list")
    for pairs in sorted(_posets(n), key=sorted):
        yield Relation(n, pairs)


def count_es(n: int) -> int:
    """Number of labeled event structures on exactly n events: the
    conflict count of each naturally labeled order times n!/e(P)."""
    from fractions import Fraction  # here, so that ``import esfg`` does not pay for it

    by_extensions: dict[int, int] = {}
    for below in _natural_posets(n):
        e = _linear_extensions(below)
        by_extensions[e] = by_extensions.get(e, 0) + _count_conflict_upsets(below)
    total = sum(Fraction(factorial(n) * c, e) for e, c in by_extensions.items())
    if total.denominator != 1:
        raise ArithmeticError(f"the weighted count {total} is not an integer")
    return int(total)


def count_fg(n: int, *, oracle: bool = False) -> int:
    """Number of labeled full graphs on exactly n vertices, via the
    graph-side filter; ``oracle=True`` swaps in the brute-force
    fg-representation search for every candidate (desk scale only)."""
    if oracle:
        orders = enumerate_partial_orders(n)
        return sum(len(enumerate_fullgraph_edge_sets(d, oracle=True)) for d in orders)
    return sum(_count_edge_sets(range(n), pairs) for pairs in _posets(n))


def emit_structures(n: int, kind: str, write: Callable[[bytes], None]) -> int:
    """Serialize every enumerated structure of the given kind to ``write``,
    one canonical document per call, in a deterministic order (orders as
    enumerated, each order's relations sorted by pair list); returns how
    many."""
    check_size(n, "list")
    if kind not in ("es", "fg"):
        raise ValueError(f"kind must be 'es' or 'fg', got {kind!r}")
    emitted = 0
    for order in enumerate_partial_orders(n):
        if kind == "es":
            for conflict in enumerate_admissible_conflicts(order):
                doc = from_event_structure(EventStructure(order, conflict))
                write(serialize_document(doc))
                emitted += 1
        else:
            for undirected in enumerate_fullgraph_edge_sets(order):
                doc = from_full_graph(FullGraph(order, undirected))
                write(serialize_document(doc))
                emitted += 1
    return emitted
