"""Exhaustive labeled enumeration of event structures and full graphs.

Counting is over vertex set exactly ``{0..n-1}`` (labeled structures, not
isomorphism classes), through the two filters of ``bijection``, building
no ``Relation``.  The filters share one encoding, so the totals agree by
construction.  Every entry point rejects n above ``bijection.MAX_EVENTS``.

Orders stream depth first: vertex k joins an order on 0..k-1 above a
down-closed set B and below an up-closed set A, with B wholly below A.
That is transitive as it stands, and each order arises once: B and A are
k's strict down-set and up-set, and the rest is an order on 0..k-1.
"""

from __future__ import annotations

from typing import Callable, Iterator

from .bijection import (
    _count_conflicts,
    _count_edge_sets,
    check_size,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
)
from .documents import from_event_structure, from_full_graph, serialize_document
from .event_structure import EventStructure
from .fullgraph import FullGraph
from .relation import Pair, Relation


def _posets(n: int) -> Iterator[frozenset[Pair]]:
    """The pair set of every partial order on {0..n-1}, each once.
    ``above`` and ``below`` hold the strict up-set and down-set masks of
    the vertices placed so far."""
    check_size(n)

    def closed(sets: list[int]) -> list[int]:
        """The vertex sets s with sets[v] inside s for every v in s."""
        k = len(sets)
        return [
            s for s in range(1 << k) if all(sets[v] | s == s for v in range(k) if s >> v & 1)
        ]

    def grow(above: list[int], below: list[int]) -> Iterator[frozenset[Pair]]:
        k = len(above)
        if k == n:
            yield frozenset(
                (v, w) for v in range(n) for w in range(n) if v == w or above[v] >> w & 1
            )
            return
        ups = closed(above)
        for low in closed(below):
            for high in ups:
                if all(above[v] | high == above[v] for v in range(k) if low >> v & 1):
                    yield from grow(
                        [m | (low >> v & 1) << k for v, m in enumerate(above)] + [high],
                        [m | (high >> v & 1) << k for v, m in enumerate(below)] + [low],
                    )

    return grow([], [])


def enumerate_partial_orders(n: int) -> Iterator[Relation]:
    """Every reflexive, transitive, antisymmetric relation with field
    exactly {0..n-1}, each once, sorted by pair list."""
    for pairs in sorted(_posets(n), key=sorted):
        yield Relation(n, pairs)


def count_es(n: int) -> int:
    """Number of labeled event structures on exactly n events."""
    return sum(_count_conflicts(range(n), pairs) for pairs in _posets(n))


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
    check_size(n)
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
