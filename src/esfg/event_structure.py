"""Event structures: a causality order plus a conflict relation.

Causality is stored reflexively (every event carries its self-loop), so
the set of events is exactly the field of the causality relation and
isolated events are representable through their self-loop alone.
Conflict must be symmetric, irreflexive, live on the events, and
propagate along causality: a conflict with a cause is inherited by every
effect of that cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterator

from .relation import Relation, _bits


class EventStructureError(ValueError):
    """Raised when an operation requires a valid event structure.

    ``failures`` names each violated conjunct.
    """

    def __init__(self, failures: tuple[str, ...]):
        self.failures = failures
        super().__init__("not an event structure: " + ", ".join(failures))


def is_conflict_propagating(conflict: Relation, causality: Relation) -> bool:
    """Conflicts inherited along causality: x#z and x<=y imply y#z.

    Evaluated on the rows: each causality vertex holds its conflict row
    (its partners, over the conflict field), and that of each x must lie
    inside that of each y with x <= y.
    """
    partners = dict(zip(conflict.field, conflict.rows))
    held = [partners.get(v, 0) for v in causality.field]
    for mine, above in zip(held, causality.rows):
        if mine:
            for theirs in compress(held, _bits(above)):
                if mine & ~theirs:
                    return False
    return True


def _violations(causality: Relation, conflict: Relation) -> Iterator[str]:
    """Each violated validity conjunct, lazily, in one fixed order.
    Propagation comes first: it is the one that candidate conflicts drawn
    from the incomparability square of an order actually fail."""
    if not is_conflict_propagating(conflict, causality):
        yield "conflict-not-propagating"
    if not conflict.is_symmetric:
        yield "conflict-not-symmetric"
    if not conflict.is_irreflexive:
        yield "conflict-not-irreflexive"
    if not causality.is_transitive:
        yield "causality-not-transitive"
    if not causality.is_antisymmetric:
        yield "causality-not-antisymmetric"
    if not causality.is_reflexive_over_field:
        yield "causality-not-reflexive-over-field"
    if not set(conflict.field) <= set(causality.field):
        yield "conflict-events-outside-causality"


def es_failures(causality: Relation, conflict: Relation) -> tuple[str, ...]:
    """Every violated validity conjunct, empty when (D, U) is an event
    structure."""
    return tuple(_violations(causality, conflict))


def is_event_structure(causality: Relation, conflict: Relation) -> bool:
    """True when every validity conjunct holds; stops at the first that
    fails."""
    return next(_violations(causality, conflict), None) is None


def terminal_events(causality: Relation) -> tuple[int, ...]:
    """Events with no successor other than themselves, sorted."""
    field, rows = causality.field, causality.rows
    return tuple(s for i, (s, row) in enumerate(zip(field, rows)) if not row & ~(1 << i))


@dataclass(frozen=True)
class EventStructure:
    """A (causality, conflict) pair over one shared universe.

    Construction requires both components to share a universe and the
    conflict field to stay inside the event set (``EventStructureError``
    otherwise); full validity is available through ``failures`` /
    ``is_valid`` so that rejection diagnostics can be reported.
    """

    causality: Relation
    conflict: Relation

    def __post_init__(self) -> None:
        if self.causality.universe != self.conflict.universe:
            raise ValueError("causality and conflict must share a universe")
        if not set(self.conflict.field) <= set(self.causality.field):
            raise EventStructureError(("conflict-events-outside-causality",))

    @property
    def events(self) -> tuple[int, ...]:
        return self.causality.field

    @cached_property
    def failures(self) -> tuple[str, ...]:
        return es_failures(self.causality, self.conflict)

    @property
    def is_valid(self) -> bool:
        return not self.failures

    @property
    def terminals(self) -> tuple[int, ...]:
        return terminal_events(self.causality)

    def remove_event(self, s: int) -> EventStructure:
        """The structure with event ``s`` excised from both relations."""
        if s not in self.causality.field:
            raise ValueError(f"{s} is not an event of this structure")
        return EventStructure(
            self.causality.remove_vertex_pairs(s, s),
            self.conflict.remove_vertex_pairs(s, s),
        )
