"""Set-family representations of event structures.

A family f represents a candidate pair (D, U) when, over the family's
keys, causality coincides with set containment and conflict with set
disjointness:

    (x, y) in D  <=>  f(x) >= f(y)
    (x, y) in U  <=>  f(x) & f(y) == {}

``build_representation`` constructs such a family for any valid event
structure by peeling terminal events off and re-attaching them one at a
time, growing the family with fresh labels so that exactly the right
containments, overlaps and disjointnesses appear.  Each extension step is
re-validated against the checker rather than trusted.

``find_representation_bruteforce`` is the independent existence oracle:
an exhaustive search that never consults the builder.
"""

from __future__ import annotations

from dataclasses import dataclass

from .event_structure import EventStructureError, es_failures, terminal_events
from .familysearch import causes_first_order, search_set_family
from .relation import Relation
from .setfamily import SetFamily, family_failures, represents


def is_representation(family: SetFamily, causality: Relation, conflict: Relation) -> bool:
    """Both biconditionals, evaluated over every ordered pair of keys."""
    return represents(family, causality, conflict, overlap=False)


def extend_with_terminal(
    family: SetFamily, causality: Relation, conflict: Relation, s: int
) -> SetFamily:
    """Grow a representation of the structure-without-``s`` into one of the
    full structure, where ``s`` is terminal (no successor but itself).

    Existing events split, relative to ``s``, into ancestors, conflicting
    events, and concurrent events.  One fresh label is allocated per
    concurrent event x (ascending) and added to x, to x's causal
    ancestors, and to the ancestors of ``s``; one final fresh label goes
    to the ancestors of ``s`` alone.  The set for ``s`` collects exactly
    the fresh labels of the concurrent events plus the final one, which
    makes ancestors contain it, conflicting events miss it entirely, and
    concurrent events properly overlap it.
    """
    events = set(causality.field)
    if (s, s) not in causality.pairs or not causality.image((s,)) <= {s}:
        raise ValueError(f"event {s} is not terminal in the causality order")
    if s in family:
        raise ValueError(f"event {s} is already a key of the family")
    if (s, s) in conflict.pairs:
        raise ValueError(f"event {s} conflicts with itself")
    if frozenset() in set(family.values()):
        raise ValueError("family maps some event to the empty set")

    causes = causality.converse()
    ancestors = causes.image((s,)) - {s}
    conflicting = conflict.converse().image((s,))
    concurrent = (events - {s}) - ancestors - conflicting

    used = family.union_of_range()
    next_label = max(used) + 1 if used else 0

    grown = family
    fresh: set[int] = set()
    for x in sorted(concurrent):
        label = next_label
        next_label += 1
        fresh.add(label)
        receivers = causes.image((x,)) | ancestors
        grown = grown.point_union(
            SetFamily({y: {label} for y in receivers})
        )
    closing = next_label
    fresh.add(closing)
    grown = grown.point_union(SetFamily({y: {closing} for y in ancestors}))

    extended = grown.paste(s, fresh)
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

    Deterministic: the smallest-id terminal event is peeled off first and
    fresh labels are consecutive from 0, so equal inputs give equal
    certificates.  Rejects invalid input with the validity diagnostics.
    """
    failures = es_failures(causality, conflict)
    if failures:
        raise EventStructureError(failures)

    peeled: list[tuple[int, Relation, Relation]] = []
    cur_d, cur_u = causality, conflict
    while cur_d.field:
        terminals = terminal_events(cur_d)
        s = terminals[0]
        peeled.append((s, cur_d, cur_u))
        cur_d = cur_d.remove_vertex_pairs(s, s)
        cur_u = cur_u.remove_vertex_pairs(s, s)

    family = SetFamily()
    for s, step_d, step_u in reversed(peeled):
        family = extend_with_terminal(family, step_d, step_u, s)

    used = family.union_of_range()
    bound = max(used) + 1 if used else 0
    return RepresentationCertificate(
        family=family,
        for_causality=causality,
        for_conflict=conflict,
        fresh_label_bound=bound,
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
