"""Exhaustive labeled enumeration of event structures and full graphs.

Counting is over vertex set exactly ``{0..n-1}`` (labeled structures, not
isomorphism classes).  The two totals flow through different code paths:
the event-structure count filters conflict candidates directly, while the
full-graph count runs graph-side recognition per edge-set candidate, so
their equality for every n is a real check rather than an identity.
Every entry point rejects n above ``bijection.MAX_EVENTS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .bijection import (
    check_size,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
)
from .documents import from_event_structure, from_full_graph, serialize_document
from .event_structure import EventStructure
from .fullgraph import FullGraph
from .relation import Relation


def enumerate_partial_orders(n: int) -> Iterator[Relation]:
    """Every reflexive, transitive, antisymmetric relation with field
    exactly {0..n-1}, each once, in a deterministic order.

    Orders are grown one new maximal vertex at a time over a downward
    closed subset of the existing vertices, deduplicating by exact pair
    set (the same order arises from every peeling sequence).
    """
    check_size(n)
    states: set[frozenset[tuple[int, int]]] = {frozenset()}
    for _ in range(n):
        grown: set[frozenset[tuple[int, int]]] = set()
        for pairs in states:
            members = {a for a, _ in pairs}
            predecessors = {
                m: frozenset(a for a, b in pairs if b == m) for m in members
            }
            ordered = sorted(members)
            for v in range(n):
                if v in members:
                    continue
                for mask in range(1 << len(ordered)):
                    below = {ordered[i] for i in range(len(ordered)) if mask >> i & 1}
                    if any(not predecessors[m] <= below for m in below):
                        continue  # not downward closed
                    grown.add(
                        pairs | {(a, v) for a in below} | {(v, v)}
                    )
        states = grown
    for pairs in sorted(states, key=sorted):
        yield Relation(n, pairs)


def count_es(n: int) -> int:
    """Number of labeled event structures on exactly n events."""
    return sum(
        len(enumerate_admissible_conflicts(order))
        for order in enumerate_partial_orders(n)
    )


def count_fg(n: int, *, oracle: bool = False) -> int:
    """Number of labeled full graphs on exactly n vertices, via the
    graph-side path; ``oracle=True`` swaps in the brute-force
    fg-representation search (desk scale only)."""
    return sum(
        len(enumerate_fullgraph_edge_sets(order, oracle=oracle))
        for order in enumerate_partial_orders(n)
    )


@dataclass(frozen=True)
class CountReport:
    """Both totals for one n, with the per-order split of the ES side."""

    n: int
    es_count: int
    fg_count: int
    per_order_breakdown: tuple[tuple[Relation, int], ...]
    elapsed_seconds: float

    def __post_init__(self) -> None:
        if self.es_count != sum(c for _, c in self.per_order_breakdown):
            raise ValueError("per-order breakdown does not add up to es_count")


def count_report(n: int) -> CountReport:
    started = time.perf_counter()
    breakdown = tuple(
        (order, len(enumerate_admissible_conflicts(order)))
        for order in enumerate_partial_orders(n)
    )
    es_total = sum(c for _, c in breakdown)
    fg_total = count_fg(n)
    return CountReport(
        n=n,
        es_count=es_total,
        fg_count=fg_total,
        per_order_breakdown=breakdown,
        elapsed_seconds=time.perf_counter() - started,
    )


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
