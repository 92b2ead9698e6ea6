"""Set-family representations of event structures.

A family f represents a candidate pair (D, U) when, over the family's
keys, causality coincides with set containment and conflict with set
disjointness:

    (x, y) in D  <=>  f(x) >= f(y)
    (x, y) in U  <=>  f(x) & f(y) == {}

``build_representation`` constructs such a family for any valid event
structure.  Its core, ``_label_masks``, works on masks over positions
0..k-1 and builds the canonical full-graph family of (D, T), for
T = incomparability square - U: one family that certifies (D, U) by
disjointness and (D, T) by proper overlap.  The public functions map the
field to positions and hand the masks to the family unchanged.  The
finished family is checked once, as a ``RepresentationCertificate``,
rather than trusted.

``find_representation_bruteforce`` is the independent existence oracle:
an exhaustive search that never consults the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .event_structure import EventStructureError, es_failures, is_conflict_propagating
from .relation import Relation, _rows, _strict_rows
from .setfamily import SetFamily, _find_family
from .setfamily import family_failures, represents


def is_representation(family: SetFamily, causality: Relation, conflict: Relation) -> bool:
    """Both biconditionals, evaluated over every ordered pair of keys."""
    return represents(family, causality, conflict, overlap=False)


@lru_cache(maxsize=1)
def _peel_order(above: tuple[int, ...]) -> tuple[int, ...]:
    """The positions in the order the builder peels them off: each time
    the smallest one with nothing left above it.  ``above`` holds each
    position's strict up-set mask.  The last order's answer is kept, so
    that many calls on one order peel it once."""
    k = len(above)
    peeled = []
    remaining = (1 << k) - 1
    while remaining:
        for s in range(k):
            if remaining >> s & 1 and not above[s] & remaining:
                break
        else:
            raise ValueError("the causality order has a cycle")
        remaining ^= 1 << s
        peeled.append(s)
    return tuple(peeled)


def _complement_rows(square: Sequence[int], rows: Sequence[int]) -> list[int]:
    """Each row's complement inside the incomparability square: the edge
    rows T = square - U of the conflict rows U, and U of T."""
    return [inside & ~row for inside, row in zip(square, rows)]


def _label_masks(above: Sequence[int], edges: Sequence[int]) -> tuple[list[int], int]:
    """Each position's label mask in the canonical full-graph family of
    the order with strict up-sets ``above`` and the symmetric T with rows
    ``edges``, and the label count.

    Terminal positions are peeled off, smallest first, and attached again
    in reverse.  Attaching s gives a fresh label to s and to each attached
    x (ascending) joined to it in T, then a closing label to s alone; a
    position holds its own labels and those of all above it.  No attached
    position is above s, so each event v has one label, held by all below
    v, and each edge {a, b} of T one, held by all below a or b.  With T =
    square - U, ancestors of s contain its set, conflicting positions miss
    it, and concurrent ones properly overlap it.  Both steps walk the set
    bits of a mask, never all k positions.
    """
    own = [0] * len(above)
    label = attached = 0
    for s in reversed(_peel_order(tuple(above))):
        start = label
        fresh = attached & edges[s]
        while fresh:
            low = fresh & -fresh
            own[low.bit_length() - 1] |= 1 << label
            label += 1
            fresh ^= low
        own[s] = (2 << label) - (1 << start)  # its fresh labels and the closing one
        label += 1
        attached |= 1 << s
    masks = []
    for mask, up in zip(own, above):
        while up:  # the labels of each position above, lowest first
            low = up & -up
            mask |= own[low.bit_length() - 1]
            up ^= low
        masks.append(mask)
    return masks, label


def extend_with_terminal(
    family: SetFamily, causality: Relation, conflict: Relation, s: int
) -> SetFamily:
    """Grow a representation of the structure-without-``s`` into one of the
    full structure, where ``s`` is terminal (no successor but itself).

    Existing events split, relative to ``s``, into ancestors, conflicting
    events, and concurrent events; the labels ``_label_masks`` gives when
    it attaches ``s`` last are placed on the input family, renumbered to
    start above every label in use.  The result is checked with
    ``is_representation``.  Public API: the builder's inductive step on
    its own, which ``build_representation`` runs on masks instead.
    """
    # at position 0, a terminal s holds only itself, is peeled first and
    # attached last, so its own mask is exactly the labels of that last step
    events = (s, *(v for v in causality.field if v != s))
    contains = _rows(events, causality)
    if contains[0] != 1:
        raise ValueError(f"event {s} is not terminal in the causality order")
    if s in family:
        raise ValueError(f"event {s} is already a key of the family")
    partners = _rows(events, conflict)
    if partners[0] & 1:
        raise ValueError(f"event {s} conflicts with itself")
    if not set(conflict.field) <= set(causality.field):
        raise ValueError("conflict names a vertex that is not an event")
    if 0 in family.masks:
        raise ValueError("family maps some event to the empty set")

    above = [row & ~(1 << p) for p, row in enumerate(contains)]
    square = _rows(events, causality.sym_complement())
    masks, count = _label_masks(above, _complement_rows(square, partners))
    first = (masks[0] & -masks[0]).bit_length() - 1
    used = family.labels
    fresh = used[-1] + 1 if used else 0
    grown = dict(zip(family.keys, family.masks))
    for v, mask in zip(events, masks):
        if mask >> first:  # the new labels go above the old ones
            grown[v] = grown.get(v, 0) | mask >> first << len(used)
    keys = sorted(grown)
    extended = SetFamily._of_masks(
        keys, [grown[v] for v in keys], used + tuple(range(fresh, fresh + count - first))
    )
    if not is_representation(extended, causality, conflict):
        raise ValueError(
            "extension did not yield a representation; the input family "
            "cannot have represented the reduced structure"
        )
    return extended


@dataclass(frozen=True)
class RepresentationCertificate:
    """A checked witness that (for_causality, for_conflict) is representable.

    Constructing one re-validates every requirement, so holding a
    certificate is holding the proof: the family satisfies both
    biconditionals, is injective and empty-free, covers exactly the event
    set, and uses labels strictly below ``fresh_label_bound``.
    """

    family: SetFamily
    for_causality: Relation
    for_conflict: Relation
    fresh_label_bound: int

    def __post_init__(self) -> None:
        failures = family_failures(
            self.family, self.for_causality, self.for_conflict, overlap=False
        )
        if failures:
            raise ValueError("family is not a certificate: " + ", ".join(failures))
        if self.family.labels and self.family.labels[-1] >= self.fresh_label_bound:
            raise ValueError("family uses labels at or above the stated bound")


def build_representation(causality: Relation, conflict: Relation) -> RepresentationCertificate:
    """Construct a representation for any valid event structure.

    ``_label_masks`` over the events in ascending order, with labels
    consecutive from 0, so equal inputs give equal certificates; its masks
    become the family's masks as they are.  The family is checked once,
    as the returned certificate.  Rejects invalid input with the validity
    diagnostics.
    """
    failures = es_failures(causality, conflict)
    if failures:
        raise EventStructureError(failures)
    events = causality.field
    square = _rows(events, causality.sym_complement())
    edges = _complement_rows(square, _rows(events, conflict))
    masks, count = _label_masks(_strict_rows(events, causality), edges)
    return RepresentationCertificate(
        family=SetFamily._of_masks(events, masks),
        for_causality=causality,
        for_conflict=conflict,
        fresh_label_bound=count,
    )


def find_representation_bruteforce(
    causality: Relation, conflict: Relation, label_bound: int
) -> SetFamily | None:
    """Exhaustively search for an injective, empty-free representation with
    keys = the event set and labels below ``label_bound``; None if there
    is none within the bound.  Independent of the constructive builder:
    ``_find_family`` in disjointness mode."""
    return _find_family(causality, conflict, label_bound, overlap=False)


@dataclass(frozen=True)
class StructureFlags:
    """Structural consequences read off a representation.

    The unconditional flags hold for every representation; the two
    conditional ones are material implications (injectivity forces
    antisymmetry, an empty-free range forces irreflexive conflict).
    """

    transitive: bool
    reflexive_over_field: bool
    antisymmetric_if_injective: bool
    conflict_symmetric: bool
    conflict_propagating: bool
    conflict_irreflexive_if_no_empty: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.transitive
            and self.reflexive_over_field
            and self.antisymmetric_if_injective
            and self.conflict_symmetric
            and self.conflict_propagating
            and self.conflict_irreflexive_if_no_empty
        )


def structure_from_representation(
    family: SetFamily, causality: Relation, conflict: Relation
) -> StructureFlags:
    """Evaluate the structural consequences of having a representation.

    Requires that ``family`` actually represents the pair and that both
    relations live on the family's keys.
    """
    if not is_representation(family, causality, conflict):
        raise ValueError("family is not a representation of the given pair")
    keys = set(family.keys)
    if not (set(causality.field) | set(conflict.field)) <= keys:
        raise ValueError("relations mention vertices outside the family keys")

    return StructureFlags(
        transitive=causality.is_transitive,
        reflexive_over_field=causality.is_reflexive_over_field,
        antisymmetric_if_injective=(
            not family.is_injective() or causality.is_antisymmetric
        ),
        conflict_symmetric=conflict.is_symmetric,
        conflict_propagating=is_conflict_propagating(conflict, causality),
        conflict_irreflexive_if_no_empty=(
            0 in family.masks or conflict.is_irreflexive
        ),
    )
