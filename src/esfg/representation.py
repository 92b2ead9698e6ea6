"""Set-family representations of event structures.

A family f represents a candidate pair (D, U) when, over the family's
keys, causality coincides with set containment and conflict with set
disjointness:

    (x, y) in D  <=>  f(x) >= f(y)
    (x, y) in U  <=>  f(x) & f(y) == {}

``build_representation`` constructs such a family for any valid event
structure by peeling terminal events off and re-attaching them one at a
time, growing one family in place with fresh labels so that exactly the
right containments, overlaps and disjointnesses appear.  The finished
family is checked once, as a ``RepresentationCertificate``, rather than
trusted.

``find_representation_bruteforce`` is the independent existence oracle:
an exhaustive search that never consults the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

from .event_structure import EventStructureError, es_failures
from .familysearch import causes_first_order, search_set_family
from .relation import Relation
from .setfamily import SetFamily, family_failures, represents


def is_representation(family: SetFamily, causality: Relation, conflict: Relation) -> bool:
    """Both biconditionals, evaluated over every ordered pair of keys."""
    return represents(family, causality, conflict, overlap=False)


def _attach(
    family: dict[int, set[int]],
    s: int,
    concurrent: Iterable[int],
    down: Mapping[int, AbstractSet[int]],
    label: int,
) -> int:
    """Give ``s`` its set in ``family``, in place, with labels from
    ``label`` on; returns the next unused label.

    Each concurrent event x (ascending) takes one fresh label, which goes
    to the down-sets of x and of ``s`` (both include the event itself); a
    closing label goes to the down-set of ``s`` alone.  So ancestors of
    ``s`` contain its set, conflicting events miss it entirely, and
    concurrent events properly overlap it.
    """
    for x in sorted(concurrent):
        for y in down[x] | down[s]:
            family.setdefault(y, set()).add(label)
        label += 1
    for y in down[s]:
        family.setdefault(y, set()).add(label)
    return label + 1


def extend_with_terminal(
    family: SetFamily, causality: Relation, conflict: Relation, s: int
) -> SetFamily:
    """Grow a representation of the structure-without-``s`` into one of the
    full structure, where ``s`` is terminal (no successor but itself).

    Existing events split, relative to ``s``, into ancestors, conflicting
    events, and concurrent events; fresh labels start above every label in
    use and are placed as ``_attach`` describes.  The result is checked
    with ``is_representation``.
    """
    if (s, s) not in causality.pairs or not causality.image((s,)) <= {s}:
        raise ValueError(f"event {s} is not terminal in the causality order")
    if s in family:
        raise ValueError(f"event {s} is already a key of the family")
    if (s, s) in conflict.pairs:
        raise ValueError(f"event {s} conflicts with itself")
    if frozenset() in set(family.values()):
        raise ValueError("family maps some event to the empty set")

    causes = causality.converse()
    down = {x: causes.image((x,)) for x in causality.field}
    concurrent = set(causality.field) - down[s] - conflict.converse().image((s,))
    used = family.union_of_range()
    grown = {key: set(labels) for key, labels in family.items()}
    _attach(grown, s, concurrent, down, max(used) + 1 if used else 0)

    extended = SetFamily(grown)
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
        if any(v >= self.fresh_label_bound for v in self.family.union_of_range()):
            raise ValueError("family uses labels at or above the stated bound")


def build_representation(causality: Relation, conflict: Relation) -> RepresentationCertificate:
    """Construct a representation for any valid event structure.

    Peels terminal events off, smallest id first, then re-attaches them in
    reverse peel order, growing one family in place with labels
    consecutive from 0, so equal inputs give equal certificates.  The
    family is checked once, as the returned certificate.  Rejects invalid
    input with the validity diagnostics.
    """
    failures = es_failures(causality, conflict)
    if failures:
        raise EventStructureError(failures)

    events = causality.field
    down: dict[int, set[int]] = {v: set() for v in events}
    waiting = dict.fromkeys(events, 0)  # successors other than itself, not yet peeled
    for a, b in causality.pairs:
        down[b].add(a)
        if a != b:
            waiting[a] += 1
    partners: dict[int, set[int]] = {v: set() for v in events}
    for a, b in conflict.pairs:
        partners[a].add(b)

    peeled: list[int] = []
    remaining = set(events)
    while remaining:
        s = min(v for v in remaining if not waiting[v])
        remaining.remove(s)
        peeled.append(s)
        for a in down[s] - {s}:
            waiting[a] -= 1

    family: dict[int, set[int]] = {}
    label = 0
    for s in reversed(peeled):
        concurrent = family.keys() - down[s] - partners[s]
        label = _attach(family, s, concurrent, down, label)

    return RepresentationCertificate(
        family=SetFamily(family),
        for_causality=causality,
        for_conflict=conflict,
        fresh_label_bound=label,
    )


def find_representation_bruteforce(
    causality: Relation, conflict: Relation, label_bound: int
) -> SetFamily | None:
    """Exhaustively search for an injective, empty-free representation with
    keys = the event set and labels below ``label_bound``.

    Independent of the constructive builder; absence is a value.  Events
    are assigned causes-first so containment constraints prune early.
    """
    order = causes_first_order(causality.field, causality.pairs)
    found = search_set_family(
        order,
        causality.pairs,
        conflict.pairs,
        second_overlap=False,
        label_bound=label_bound,
    )
    if found is None:
        return None
    return SetFamily(found)


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
    from .event_structure import is_conflict_propagating

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
            frozenset() in set(family.values()) or conflict.is_irreflexive
        ),
    )
