"""Set-valued maps, one finite set of natural-number labels per vertex,
and the package's one reader and checker of them.

A ``SetFamily`` is right-unique by construction (it is a map) and
immutable.  Domain membership is an explicit ``in`` check.  For event
structures and full graphs alike, ``_mask_relations`` reads containment,
disjointness and overlap off a family's label masks, ``represents``
checks them against a pair of relations, ``family_failures`` checks a
whole certificate, and ``_find_family`` is the search behind both
brute-force oracles.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .familysearch import search_set_family
from .relation import Relation, _rows


class SetFamily:
    """Immutable finite map from vertex ids to finite label sets."""

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[int, Iterable[int]] | Iterable[tuple[int, Iterable[int]]] = (),
    ):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[int, frozenset[int]] = {}
        for key, labels in items:
            key = int(key)
            if key < 0:
                raise ValueError(f"vertex id {key} is not a natural number")
            value = frozenset(map(int, labels))
            if value and min(value) < 0:
                raise ValueError(f"labels of {key} must be natural numbers")
            if key in store:
                raise ValueError(f"duplicate key {key}")
            store[key] = value
        # stored in key order, so the accessors below never sort
        self._entries = dict(sorted(store.items()))

    @classmethod
    def _of(cls, entries: Mapping[int, frozenset[int]]) -> SetFamily:
        """The family of ``entries``, whose keys and labels the caller has
        checked: distinct natural keys, each to a frozenset of natural
        ints."""
        family = cls.__new__(cls)
        family._entries = dict(sorted(entries.items()))
        return family

    # ------------------------------------------------------------------

    @property
    def keys(self) -> tuple[int, ...]:
        return tuple(self._entries)

    def items(self) -> tuple[tuple[int, frozenset[int]], ...]:
        return tuple(self._entries.items())

    def values(self) -> tuple[frozenset[int], ...]:
        return tuple(self._entries.values())

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {sorted(v)}" for k, v in self.items())
        return f"SetFamily({{{body}}})"

    # ------------------------------------------------------------------

    def is_injective(self) -> bool:
        """No two distinct keys share the same value set."""
        return len(set(self._entries.values())) == len(self._entries)

    def union_of_range(self) -> frozenset[int]:
        """All labels used anywhere in the family."""
        return frozenset().union(*self._entries.values())


def overlaps(a: frozenset[int] | set[int], b: frozenset[int] | set[int]) -> bool:
    """Proper two-sided overlap: a nonempty intersection that is neither
    whole set."""
    inter = a & b
    return bool(inter) and inter != a and inter != b


def _mask_relations(masks: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The three relations a family realises, read off its label masks as
    row masks over positions: bit y of row x is set in the first when
    masks[x] contains masks[y], in the second when the two are disjoint,
    and in the third when they properly overlap."""
    contains, partners, edges = [], [], []
    for fx in masks:
        sup = apart = over = 0
        bit = 1
        for fy in masks:
            inter = fx & fy
            if not inter:
                apart |= bit
                if not fy:  # the empty set lies inside every set
                    sup |= bit
            elif inter == fy:
                sup |= bit
            elif inter != fx:
                over |= bit
            bit <<= 1
        contains.append(sup)
        partners.append(apart)
        edges.append(over)
    return contains, partners, edges


def represents(
    family: SetFamily, containment: Relation, second: Relation, *, overlap: bool
) -> bool:
    """Over every ordered pair of keys: (x, y) in ``containment`` iff
    f(x) >= f(y), and (x, y) in ``second`` iff f(x) and f(y) are disjoint
    (properly overlap, with ``overlap``).  The labels are numbered 0, 1,
    ... first, so a label's size never matters, and the rows
    ``_mask_relations`` reads off the masks are compared."""
    labels = family.union_of_range()
    weight = dict(zip(labels, map((1).__lshift__, range(len(labels)))))
    masks = [sum(map(weight.__getitem__, value)) for value in family.values()]
    keys = family.keys
    contains, partners, edges = _mask_relations(masks)
    related = edges if overlap else partners
    return contains == _rows(keys, containment) and related == _rows(keys, second)


def _find_family(
    containment: Relation, second: Relation, label_bound: int, *, overlap: bool
) -> SetFamily | None:
    """The exhaustive search behind both oracles: an injective, empty-free
    family keyed by the vertices of the pair, with labels below
    ``label_bound``, that ``represents`` the pair; None if there is none."""
    found = search_set_family(
        containment.field + second.field,
        containment.pairs,
        second.pairs,
        second_overlap=overlap,
        label_bound=label_bound,
    )
    return None if found is None else SetFamily(found)


def family_failures(
    family: SetFamily, containment: Relation, second: Relation, *, overlap: bool
) -> tuple[str, ...]:
    """Every way ``family`` falls short of certifying the pair: it must
    satisfy ``represents``, be injective and empty-free, and have exactly
    the vertices of both relations as keys.  Empty when it certifies."""
    failed = []
    if not represents(family, containment, second, overlap=overlap):
        failed.append(
            "is-not-an-fg-representation" if overlap else "is-not-a-representation"
        )
    if not family.is_injective():
        failed.append("not-injective")
    if frozenset() in set(family.values()):
        failed.append("contains-empty-set")
    if set(family.keys) != set(containment.field + second.field):
        failed.append("keys-differ-from-vertices")
    return tuple(failed)
