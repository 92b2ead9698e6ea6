"""Seeded inputs for the benchmark, built without calling ``esfg``.

Everything here is plain Python over sets of pairs, so the benchmark can
check the program's answers against an independent implementation:

* ``orders(n)`` lists every reflexive partial order on ``{0..n-1}``;
* ``is_event_structure`` is the benchmark's own validity check;
* ``certify_batch`` makes the seeded stream of event-structure documents
  for the ``certify`` workload, valid by construction and re-checked.

A structure is a pair of frozensets of ``(a, b)`` pairs: causality
(reflexive on every event ``0..n-1``) and conflict (symmetric).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product

Pairs = frozenset[tuple[int, int]]

#: The certify grid: every pass makes one document per cell, in seeded
#: order.  Builder cost grows with the number of concurrent pairs, so the
#: shapes run from wide (most pairs concurrent) to chains (few), and the
#: densities from no conflict (every incomparable pair concurrent) to
#: every admissible conflict seeded.
#: Layered structures have three equal layers; chains are three
#: interleaved chains.
SHAPES = ("wide", "layered", "chains")
DENSITIES = {"none": 0.0, "sparse": 0.15, "medium": 0.5, "dense": 1.0}
SIZES = (8, 12, 16, 20, 24, 28, 32, 36, 40)


def closure(n: int, edges) -> Pairs:
    """Reflexive-transitive closure of ``edges`` on ``{0..n-1}``."""
    above = [{v} for v in range(n)]
    for a, b in edges:
        above[a].add(b)
    changed = True
    while changed:
        changed = False
        for v in range(n):
            grown = set().union(*(above[w] for w in above[v]))
            if len(grown) > len(above[v]):
                above[v] = grown
                changed = True
    return frozenset((a, b) for a in range(n) for b in above[a])


def orders(n: int) -> list[Pairs]:
    """Every reflexive partial order on ``{0..n-1}``, in a fixed order."""
    cells = [(a, b) for a in range(n) for b in range(n) if a != b]
    found = []
    for bits in product((0, 1), repeat=len(cells)):
        strict = {c for c, bit in zip(cells, bits) if bit}
        pairs = frozenset(strict | {(v, v) for v in range(n)})
        if is_partial_order(n, pairs):
            found.append(pairs)
    return found


def symmetric_relations(n: int) -> list[Pairs]:
    """Every symmetric relation on ``{0..n-1}``, diagonal cells included."""
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    return [
        frozenset(
            p for (a, b), bit in zip(cells, bits) if bit for p in ((a, b), (b, a))
        )
        for bits in product((0, 1), repeat=len(cells))
    ]


def _above(n: int, causality: Pairs) -> list[set[int]]:
    above: list[set[int]] = [set() for _ in range(n)]
    for a, b in causality:
        above[a].add(b)
    return above


def is_partial_order(n: int, causality: Pairs) -> bool:
    """Reflexive on ``{0..n-1}``, antisymmetric and transitive."""
    if any(not (0 <= a < n and 0 <= b < n) for a, b in causality):
        return False
    if any((v, v) not in causality for v in range(n)):
        return False
    if any(a != b and (b, a) in causality for a, b in causality):
        return False
    above = _above(n, causality)
    return all(above[b] <= above[a] for a, b in causality)


def is_event_structure(n: int, causality: Pairs, conflict: Pairs) -> bool:
    """Causality a partial order on ``{0..n-1}``; conflict symmetric,
    irreflexive, on those events and inherited along causality."""
    if not is_partial_order(n, causality):
        return False
    if any(not (0 <= a < n and 0 <= b < n) for a, b in conflict):
        return False
    if any(a == b or (b, a) not in conflict for a, b in conflict):
        return False
    above = _above(n, causality)
    return all((y, z) in conflict for x, z in conflict for y in above[x])


def incomparable(n: int, causality: Pairs) -> Pairs:
    """Ordered pairs of distinct events related neither way."""
    return frozenset(
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and (a, b) not in causality and (b, a) not in causality
    )


@dataclass(frozen=True)
class Document:
    """One generated event structure and the mix cell it was drawn from."""

    n: int
    shape: str
    density: str
    causality: Pairs
    conflict: Pairs

    def to_json(self) -> bytes:
        return json.dumps(
            {
                "kind": "es",
                "universe": self.n,
                "causality": sorted(map(list, self.causality)),
                "conflict": sorted(map(list, self.conflict)),
            }
        ).encode()


def _edges(rng: random.Random, n: int, shape: str) -> list[tuple[int, int]]:
    """Cover-candidate edges between positions ``0..n-1`` (lower first)."""
    if shape == "wide":
        return [(a, b) for a, b in combinations(range(n), 2) if rng.random() < 0.03]
    if shape == "layered":
        level = [3 * v // n for v in range(n)]
        return [
            (a, b)
            for a, b in combinations(range(n), 2)
            if level[b] == level[a] + 1 and rng.random() < 0.3
        ]
    return [(v, v + 3) for v in range(n - 3)]


def make_document(rng: random.Random, n: int, shape: str, density: str) -> Document:
    """A valid event structure on ``n`` events of the given shape.

    Conflict is seeded only on incomparable pairs with no common upper
    bound, then closed upward along causality; both steps keep it valid.
    Event ids are shuffled so that id order is not a topological order.
    """
    label = list(range(n))
    rng.shuffle(label)
    causality = closure(n, [(label[a], label[b]) for a, b in _edges(rng, n, shape)])
    above = _above(n, causality)
    rate = DENSITIES[density]
    seeded = [
        (a, b)
        for a, b in combinations(range(n), 2)
        if not above[a] & above[b] and rng.random() < rate
    ]
    conflict = frozenset(
        p
        for a, b in seeded
        for x in above[a]
        for y in above[b]
        for p in ((x, y), (y, x))
    )
    doc = Document(n, shape, density, causality, conflict)
    if not is_event_structure(n, causality, conflict):
        raise ValueError(f"generated an invalid structure: {doc}")
    return doc


def certify_batch(seed: int, index: int) -> list[Document]:
    """Pass ``index`` of the certify stream: one document per grid cell,
    in seeded order."""
    rng = random.Random(f"certify:{seed}:{index}")
    cells = list(product(SIZES, SHAPES, DENSITIES))
    rng.shuffle(cells)
    return [make_document(rng, n, shape, density) for n, shape, density in cells]
