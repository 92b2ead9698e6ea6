"""Set-valued maps, one finite set of natural-number labels per vertex,
and the package's one reader and checker of them.

A ``SetFamily`` is right-unique by construction (it is a map) and
immutable.  It stores its ascending ``keys``, its ascending ``labels``
(every label some set holds) and one int per key in ``masks``: bit i
stands for labels[i].  ``items()`` and ``values()`` are frozenset views
built when asked for.  For event structures and full graphs alike,
``_mask_relations`` reads containment, disjointness and overlap off the
masks; a family is read once, on first use, and keeps the result.
``represents`` checks the read against a pair of relations,
``family_failures`` checks a whole certificate, and ``_find_family`` is
the search behind both brute-force oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, compress
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .familysearch import search_set_family
from .relation import Relation, _bits, _packing, _remap, _rows


def _as_masks(sets: Mapping[int, Iterable[int]]) -> tuple[list[int], list[int], list[int]]:
    """The keys of ``sets`` ascending, the mask of each key's set, and the
    labels ascending: bit i of a mask stands for labels[i].  A mask is
    written as a binary numeral first, so that it costs time linear in
    the label count rather than a big-int sum per label."""
    keys = sorted(sets)
    labels = sorted(set(chain.from_iterable(sets.values())))
    place = dict(zip(labels, range(len(labels), 0, -1)))  # the digit of each label's bit
    blank = bytearray(b"0") * (len(labels) + 1)
    masks = []
    for key in keys:
        digits = blank[:]
        for label in sets[key]:
            digits[place[label]] = 49  # ord("1")
        masks.append(int(digits, 2))
    return keys, masks, labels


@dataclass(frozen=True, init=False, repr=False)
class SetFamily:
    """Immutable finite map from vertex ids to finite label sets: a frozen
    dataclass of its ascending ``keys``, its ascending ``labels`` (every
    label in use) and ``masks``, one per key with bit i for labels[i]."""

    keys: tuple[int, ...]
    labels: tuple[int, ...]
    masks: tuple[int, ...]

    def __init__(
        self,
        entries: Mapping[int, Iterable[int]] | Iterable[tuple[int, Iterable[int]]] = (),
    ):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[int, list[int]] = {}
        for key, labels in items:
            key = int(key)
            if key < 0:
                raise ValueError(f"vertex id {key} is not a natural number")
            value = list(map(int, labels))
            if value and min(value) < 0:
                raise ValueError(f"labels of {key} must be natural numbers")
            if key in store:
                raise ValueError(f"duplicate key {key}")
            store[key] = value
        self._fill(*_as_masks(store))

    @classmethod
    def _of_masks(
        cls, keys: Sequence[int], masks: Sequence[int], labels: Sequence[int] | None = None
    ) -> SetFamily:
        """The family mapping keys[i] to the labels masks[i] selects, bit j
        for labels[j], or for label j when ``labels`` is None; the caller
        gives ascending natural keys and labels."""
        family = cls.__new__(cls)
        family._fill(keys, masks, labels)
        return family

    def _fill(
        self, keys: Sequence[int], masks: Sequence[int], labels: Sequence[int] | None
    ) -> None:
        """Store the family ``_of_masks`` describes.  The labels no set
        holds are dropped, so that equal families store equal fields."""
        used = reduce(or_, masks, 0)
        labels = tuple(range(used.bit_length()) if labels is None else labels)
        if used != (1 << len(labels)) - 1:
            weight = _packing(used)
            labels = tuple(compress(labels, _bits(used)))
            masks = [_remap(mask, weight) for mask in masks]
        self.__dict__.update(keys=tuple(keys), labels=labels, masks=tuple(masks))

    @cached_property
    def _relations(self) -> tuple[list[int], list[int], list[int]]:
        """``_mask_relations`` of the masks, read on first use and kept."""
        return _mask_relations(self.masks)

    def _label_lists(self) -> list[list[int]]:
        """Each key's labels, ascending, read off its mask."""
        return [list(compress(self.labels, _bits(mask))) for mask in self.masks]

    # ------------------------------------------------------------------

    def values(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self._label_lists()))

    def items(self) -> tuple[tuple[int, frozenset[int]], ...]:
        return tuple(zip(self.keys, self.values()))

    def __contains__(self, key: int) -> bool:
        return key in self.keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[int]:
        return iter(self.keys)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in zip(self.keys, self._label_lists()))
        return f"SetFamily({{{body}}})"

    # ------------------------------------------------------------------

    def is_injective(self) -> bool:
        """No two distinct keys share the same value set."""
        return len(set(self.masks)) == len(self.masks)

    def union_of_range(self) -> frozenset[int]:
        """All labels used anywhere in the family."""
        return frozenset(self.labels)


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
    (properly overlap, with ``overlap``).  The family's one read of its
    masks is compared row by row, so a label's size never matters."""
    keys = family.keys
    contains, partners, edges = family._relations
    related = edges if overlap else partners
    return contains == _rows(keys, containment) and related == _rows(keys, second)


def _find_family(
    containment: Relation, second: Relation, label_bound: int, *, overlap: bool
) -> SetFamily | None:
    """The exhaustive search behind both oracles: an injective, empty-free
    family keyed by the vertices of the pair, with labels below
    ``label_bound``, that ``represents`` the pair; None if there is none.
    The search reads the pair's rows over the keys and returns a label
    mask per key."""
    keys = tuple(sorted({*containment.field, *second.field}))
    found = search_set_family(
        _rows(keys, containment),
        _rows(keys, second),
        second_overlap=overlap,
        label_bound=label_bound,
    )
    return None if found is None else SetFamily._of_masks(keys, found)


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
    if 0 in family.masks:
        failed.append("contains-empty-set")
    if set(family.keys) != set(containment.field + second.field):
        failed.append("keys-differ-from-vertices")
    return tuple(failed)
