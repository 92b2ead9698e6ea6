"""Finite binary relations over a bounded vertex universe.

Vertices are 0-based naturals below an explicit ``universe`` bound.  The
paper states its definitions over sets of ordered pairs; a ``Relation``
stores the same value in row form.  Its ``field`` holds the sorted
vertices some pair uses, and ``rows`` one bit row per field vertex: bit j
of ``rows[i]`` stands for the pair (field[i], field[j]).  ``pairs`` is a
view of that value as a frozenset, built on first use, for callers
outside the package; the package itself reads the rows.  The field is
fixed by the pairs, so equal pair sets give equal rows; its size, never
the universe's, sizes a relation.

Everything downstream (event structures, full graphs, set-family
representations) is built on this type, so the operations here are the
shared algebraic substrate: converse, relational image, override,
symmetric complement, and the elementary order and symmetry predicates,
each computed on the rows.

Every relation passes a bounds check.  The constructor holds each pair
inside the universe; ``_of_pairs`` does the same for pairs a caller has
type-checked, and ``_of_rows``, which builds the results of the set
operations, drops the vertices no pair uses and holds the field's ends
inside the universe.  All values are immutable and safe to share freely.

The fast paths work on the row form of a relation over any key list:
bit y of row x for the pair (keys[x], keys[y]).  ``_rows`` writes it (a
copy of the stored rows when the keys are the field), ``_strict_rows``
writes an order's strict up-sets (the rows without the diagonal), and
``_row_pairs`` reads rows back as pairs.  ``_bits`` spells out the bits
of a row, so that ``itertools.compress`` can pick what they select, and
``_packing`` gives the ``_remap`` weights that close the gaps of a mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress, count
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

Pair = tuple[int, int]

#: ``bin`` digits to the bytes ``_bits`` returns.
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _bits(row: int) -> bytes:
    """Byte i is 1 when bit i of ``row`` is set and 0 when not, up to its
    highest set bit."""
    return bin(row)[:1:-1].encode().translate(_DIGIT_FLAGS)


def _remap(row: int, weight: Sequence[int]) -> int:
    """``row`` with each set bit j replaced by ``weight[j]``: a distinct
    power of two, or 0 to drop the bit."""
    return sum(compress(weight, _bits(row)))


def _packing(used: int) -> list[int]:
    """The ``_remap`` weights that close the gaps of ``used``: its k-th set
    bit goes to bit k, and every clear bit is dropped."""
    weight = [0] * used.bit_length()
    for new, old in enumerate(compress(count(), _bits(used))):
        weight[old] = 1 << new
    return weight


def _transpose(rows: Sequence[int]) -> list[int]:
    """The rows of the converse: bit i of column j when bit j of row i."""
    columns = [0] * len(rows)
    positions = range(len(rows))
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in compress(positions, _bits(row)):
            columns[j] |= bit
    return columns


@dataclass(frozen=True, init=False, repr=False)
class Relation:
    """An immutable set of ordered pairs over ``range(universe)``, stored
    as its ``field`` and one bit row per field vertex: a frozen dataclass
    of those three fields, whose cached views (``pairs``, the predicates,
    the square) sit beside them in the instance dict.

    The universe is part of the value: two relations with equal pair sets
    but different universes are distinct (serialization declares the
    universe, so identity must too).  Binary operations accept operands
    with different universes and carry the larger one.
    """

    universe: int
    field: tuple[int, ...]
    rows: tuple[int, ...]

    def __init__(self, universe: int, pairs: Iterable[Pair] = ()):
        self._fill(universe, [(int(a), int(b)) for a, b in pairs])

    @classmethod
    def _of_pairs(cls, universe: int, pairs: Sequence[Sequence[int]]) -> Relation:
        """The relation of ``pairs``, each two exact ints, which the caller
        has checked; the bounds are checked here."""
        made = cls.__new__(cls)
        made._fill(universe, pairs)
        return made

    def _fill(self, universe: int, pairs: Sequence[Sequence[int]]) -> None:
        universe = int(universe)
        if universe < 0:
            raise ValueError("universe must be a natural number")
        field = tuple(sorted(set(chain.from_iterable(pairs))))
        if field and (field[0] < 0 or field[-1] >= universe):
            for a, b in frozenset(map(tuple, pairs)):
                if not (0 <= a < universe and 0 <= b < universe):
                    raise ValueError(f"pair ({a}, {b}) outside universe of size {universe}")
        weight = {v: 1 << i for i, v in enumerate(field)}
        rows = dict.fromkeys(field, 0)
        for a, b in pairs:
            rows[a] |= weight[b]
        self.__dict__.update(universe=universe, field=field, rows=tuple(rows.values()))

    @classmethod
    def _of_rows(
        cls, universe: int, field: Sequence[int], rows: Sequence[int]
    ) -> Relation:
        """The relation with ``rows`` over the ascending ``field``: the
        vertices no pair uses are dropped, and the rest must lie inside
        the universe."""
        n = len(field)
        used = reduce(or_, rows, 0) | sum(compress(map((1).__lshift__, range(n)), rows))
        if used != (1 << n) - 1:
            kept, weight = _bits(used), _packing(used)
            field = tuple(compress(field, kept))
            rows = [_remap(row, weight) for row in compress(rows, kept)]
        if field and (field[0] < 0 or field[-1] >= universe):
            outside = next(v for v in field if not 0 <= v < universe)
            raise ValueError(f"vertex {outside} outside universe of size {universe}")
        made = cls.__new__(cls)
        made.__dict__.update(universe=universe, field=tuple(field), rows=tuple(rows))
        return made

    @cached_property
    def pairs(self) -> frozenset[Pair]:
        """The pairs, as a frozenset view of the rows."""
        return frozenset(_row_pairs(self.field, self.rows))

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return sum(map(int.bit_count, self.rows))

    def __iter__(self) -> Iterator[Pair]:
        return iter(_row_pairs(self.field, self.rows))

    def _combine(self, other: Relation, op) -> Relation:
        """``op`` of the two relations' rows over the union of their fields."""
        field = self.field
        if field != other.field:
            field = tuple(sorted({*field, *other.field}))
        rows = map(op, _rows(field, self), _rows(field, other))
        return Relation._of_rows(max(self.universe, other.universe), field, list(rows))

    def __or__(self, other: Relation) -> Relation:
        return self._combine(other, or_)

    def __and__(self, other: Relation) -> Relation:
        return self._combine(other, and_)

    def __sub__(self, other: Relation) -> Relation:
        return self._combine(other, lambda mine, theirs: mine & ~theirs)

    # ------------------------------------------------------------------
    # domain and operations
    # ------------------------------------------------------------------

    @cached_property
    def domain(self) -> tuple[int, ...]:
        """Sorted first components."""
        return tuple(compress(self.field, self.rows))

    @cached_property
    def _columns(self) -> list[int]:
        """The rows of the converse, over the same field."""
        return _transpose(self.rows)

    def converse(self) -> Relation:
        """Every pair flipped: (x, y) becomes (y, x)."""
        return Relation._of_rows(self.universe, self.field, self._columns)

    def image(self, sources: Iterable[int]) -> frozenset[int]:
        """All second components reachable from ``sources`` in one step."""
        src = set(sources)
        reached = (row for v, row in zip(self.field, self.rows) if v in src)
        return frozenset(compress(self.field, _bits(reduce(or_, reached, 0))))

    def override(self, other: Relation) -> Relation:
        """Relational update: ``other`` wins on its domain, self elsewhere.

        Equals ``(self - (domain(other) x range(self))) | other``; preserves
        right-uniqueness when both operands are right-unique.
        """
        dom = set(other.domain)
        kept = [0 if v in dom else row for v, row in zip(self.field, self.rows)]
        return Relation._of_rows(self.universe, self.field, kept) | other

    def remove_vertex_pairs(self, x: int, y: int) -> Relation:
        """Drop every pair whose first component is x or second is y.

        This excises a vertex when called with x == y: nothing mentioning
        it on either side survives.
        """
        column = ~(1 << self.field.index(y)) if y in self.field else -1
        kept = [0 if v == x else row & column for v, row in zip(self.field, self.rows)]
        return Relation._of_rows(self.universe, self.field, kept)

    def sym_complement(self) -> Relation:
        """The incomparability square: field x field minus self and converse.

        Always symmetric, and disjoint from both the relation and its
        converse.  Built once per relation and shared afterwards.
        """
        return self._incomparability_square

    @cached_property
    def _incomparability_square(self) -> Relation:
        full = (1 << len(self.field)) - 1
        square = [full & ~(row | col) for row, col in zip(self.rows, self._columns)]
        return Relation._of_rows(self.universe, self.field, square)

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
        strict = [row & ~(1 << i) for i, row in enumerate(self.rows)]
        reduced = [up & ~reduce(or_, compress(strict, _bits(up)), 0) for up in strict]
        return Relation._of_rows(self.universe, self.field, reduced)

    # ------------------------------------------------------------------
    # predicates (cached: relations are immutable)
    # ------------------------------------------------------------------

    @cached_property
    def is_transitive(self) -> bool:
        rows = self.rows
        return not any(reduce(or_, compress(rows, _bits(row)), 0) & ~row for row in rows)

    @cached_property
    def is_antisymmetric(self) -> bool:
        return not any(
            row & col & ~(1 << i) for i, (row, col) in enumerate(zip(self.rows, self._columns))
        )

    @cached_property
    def is_symmetric(self) -> bool:
        return list(self.rows) == self._columns

    @cached_property
    def is_irreflexive(self) -> bool:
        return not any(row >> i & 1 for i, row in enumerate(self.rows))

    @cached_property
    def is_reflexive_over_field(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

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
        return not any(row & (row - 1) for row in self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.universe}, {_row_pairs(self.field, self.rows)!r})"


def _rows(keys: Sequence[int], relation: Relation) -> list[int]:
    """``relation`` over the positions of ``keys``: bit y of row x for the
    pair (keys[x], keys[y]).  Pairs outside ``keys`` are left out."""
    if keys == relation.field:
        return list(relation.rows)
    position = {key: p for p, key in enumerate(keys)}
    weight = [1 << position[v] if v in position else 0 for v in relation.field]
    rows = [0] * len(keys)
    for v, row in zip(relation.field, relation.rows):
        if v in position:
            rows[position[v]] = _remap(row, weight)
    return rows


def _strict_rows(keys: Sequence[int], order: Relation) -> list[int]:
    """``_rows`` of ``order`` without the diagonal: strict up-sets."""
    return [row & ~(1 << p) for p, row in enumerate(_rows(keys, order))]


def _row_pairs(keys: Sequence[int], rows: Sequence[int]) -> list[Pair]:
    """The pairs of ``rows`` over ``keys``: (keys[x], keys[y]) for each
    bit y of row x, sorted when ``keys`` ascend."""
    return [(a, b) for a, row in zip(keys, rows) for b in compress(keys, _bits(row))]
