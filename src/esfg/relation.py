"""Finite binary relations over a bounded vertex universe.

Vertices are 0-based naturals below an explicit ``universe`` bound, and a
relation is an immutable set of ordered pairs.  Everything downstream
(event structures, full graphs, set-family representations) is built on
this type, so the operations here are the shared algebraic substrate:
converse, relational image, override, symmetric complement, and the
elementary order/symmetry predicates evaluated by direct quantification.

Every relation, the results of set operations included, is built by the
one checking constructor, which holds each pair inside the universe.  All
values are immutable after construction and safe to share freely.

The fast paths work on the row form of a relation over a key list: bit y
of row x for the pair (keys[x], keys[y]).  ``_rows`` writes it,
``_strict_rows`` writes an order's strict up-sets (the rows without the
diagonal), and ``_row_pairs`` reads rows back as pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

Pair = tuple[int, int]


@dataclass(frozen=True)
class Relation:
    """An immutable set of ordered pairs over ``range(universe)``.

    The universe is part of the value: two relations with equal pair sets
    but different universes are distinct (serialization declares the
    universe, so identity must too).  Binary operations accept operands
    with different universes and carry the larger one.
    """

    universe: int
    pairs: frozenset[Pair]

    def __init__(self, universe: int, pairs: Iterable[Pair] = ()):
        # A frozenset of exact int pairs, as the set operations pass, is
        # kept as it is; anything else is rebuilt as int tuples.
        if type(pairs) is not frozenset or not all(
            type(p) is tuple and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            for p in pairs
        ):
            pairs = frozenset((int(a), int(b)) for a, b in pairs)
        object.__setattr__(self, "universe", int(universe))
        object.__setattr__(self, "pairs", pairs)
        if self.universe < 0:
            raise ValueError("universe must be a natural number")
        for a, b in self.pairs:
            if not (0 <= a < self.universe and 0 <= b < self.universe):
                raise ValueError(
                    f"pair ({a}, {b}) outside universe of size {self.universe}"
                )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(sorted(self.pairs))

    def __or__(self, other: Relation) -> Relation:
        return Relation(max(self.universe, other.universe), self.pairs | other.pairs)

    def __and__(self, other: Relation) -> Relation:
        return Relation(max(self.universe, other.universe), self.pairs & other.pairs)

    def __sub__(self, other: Relation) -> Relation:
        return Relation(max(self.universe, other.universe), self.pairs - other.pairs)

    # ------------------------------------------------------------------
    # field and domain
    # ------------------------------------------------------------------

    @cached_property
    def domain(self) -> tuple[int, ...]:
        """Sorted first components."""
        return tuple(sorted({a for a, _ in self.pairs}))

    @cached_property
    def field(self) -> tuple[int, ...]:
        """Sorted union of domain and range: the vertices actually used."""
        return tuple(sorted({v for pair in self.pairs for v in pair}))

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------

    def converse(self) -> Relation:
        """Every pair flipped: (x, y) becomes (y, x)."""
        return Relation(self.universe, ((b, a) for a, b in self.pairs))

    def image(self, sources: Iterable[int]) -> frozenset[int]:
        """All second components reachable from ``sources`` in one step."""
        src = set(sources)
        return frozenset(b for a, b in self.pairs if a in src)

    def override(self, other: Relation) -> Relation:
        """Relational update: ``other`` wins on its domain, self elsewhere.

        Equals ``(self - (domain(other) x range(self))) | other``; preserves
        right-uniqueness when both operands are right-unique.
        """
        dom = set(other.domain)
        kept = (p for p in self.pairs if p[0] not in dom)
        return Relation(
            max(self.universe, other.universe), set(kept) | set(other.pairs)
        )

    def remove_vertex_pairs(self, x: int, y: int) -> Relation:
        """Drop every pair whose first component is x or second is y.

        This excises a vertex when called with x == y: nothing mentioning
        it on either side survives.
        """
        return Relation(
            self.universe, (p for p in self.pairs if p[0] != x and p[1] != y)
        )

    def sym_complement(self) -> Relation:
        """The incomparability square: field x field minus self and converse.

        Always symmetric, and disjoint from both the relation and its
        converse.  Built once per relation and shared afterwards.
        """
        return self._incomparability_square

    @cached_property
    def _incomparability_square(self) -> Relation:
        fld, pairs = self.field, self.pairs
        square = {(a, b) for a in fld for b in fld if (a, b) not in pairs}
        return Relation(self.universe, square - {(b, a) for a, b in pairs})

    def transitive_reduction(self) -> Relation:
        """Covering pairs of a finite order: self-loops dropped, implied
        pairs removed.  The reflexive-transitive closure of the result
        equals the input.

        Only defined for inputs that are transitive, antisymmetric and
        reflexive over their field; anything else is rejected.
        """
        if not self.is_partial_order:
            raise ValueError(
                "transitive reduction requires a transitive, antisymmetric "
                "relation that is reflexive over its field"
            )
        strict = {(a, b) for a, b in self.pairs if a != b}
        reduced = {
            (a, b)
            for a, b in strict
            if not any((a, z) in strict and (z, b) in strict for z in self.field)
        }
        return Relation(self.universe, reduced)

    # ------------------------------------------------------------------
    # predicates (cached: relations are immutable)
    # ------------------------------------------------------------------

    @cached_property
    def _successors(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {}
        for a, b in self.pairs:
            adj.setdefault(a, set()).add(b)
        return {a: frozenset(bs) for a, bs in adj.items()}

    @cached_property
    def is_transitive(self) -> bool:
        adj = self._successors
        empty: frozenset[int] = frozenset()
        return all(
            adj.get(b, empty) <= targets
            for a, targets in adj.items()
            for b in targets
        )

    @cached_property
    def is_antisymmetric(self) -> bool:
        return all(a == b for a, b in self.pairs if (b, a) in self.pairs)

    @cached_property
    def is_symmetric(self) -> bool:
        return all((b, a) in self.pairs for a, b in self.pairs)

    @cached_property
    def is_irreflexive(self) -> bool:
        return all(a != b for a, b in self.pairs)

    @cached_property
    def is_reflexive_over_field(self) -> bool:
        return all((v, v) in self.pairs for v in self.field)

    @cached_property
    def is_partial_order(self) -> bool:
        """Reflexive over its field, transitive and antisymmetric."""
        return (
            self.is_reflexive_over_field
            and self.is_transitive
            and self.is_antisymmetric
        )

    @cached_property
    def is_right_unique(self) -> bool:
        """At most one second component per first component (a function)."""
        seen: dict[int, int] = {}
        for a, b in self.pairs:
            if seen.setdefault(a, b) != b:
                return False
        return True

    def __repr__(self) -> str:
        return f"Relation({self.universe}, {sorted(self.pairs)!r})"


def pairs_key(relation: Relation) -> tuple[Pair, ...]:
    """Deterministic sort key for relations sharing a universe."""
    return tuple(sorted(relation.pairs))


def _rows(keys: Sequence[int], relation: Relation) -> list[int]:
    """``relation`` over the positions of ``keys``: bit y of row x for the
    pair (keys[x], keys[y]).  Pairs outside ``keys`` are left out."""
    position = {key: p for p, key in enumerate(keys)}
    rows = [0] * len(keys)
    for x, y in relation.pairs:
        if x in position and y in position:
            rows[position[x]] |= 1 << position[y]
    return rows


def _strict_rows(keys: Sequence[int], order: Relation) -> list[int]:
    """``_rows`` of ``order`` without the diagonal: strict up-sets."""
    return [row & ~(1 << p) for p, row in enumerate(_rows(keys, order))]


def _row_pairs(keys: Sequence[int], rows: Sequence[int]) -> list[Pair]:
    """The pairs of ``rows`` over ``keys``: (keys[x], keys[y]) for each
    bit y of row x, sorted when ``keys`` ascend."""
    return [(a, b) for a, row in zip(keys, rows) for y, b in enumerate(keys) if row >> y & 1]
