"""Full graphs: mixed graphs realisable by set containment and overlap.

A directed relation D together with a symmetric undirected relation T
forms a full graph when some injective family of nonempty finite sets
certifies it: directed edges coincide with containment, undirected edges
with proper two-sided overlap.

Recognition reads that definition, with no event-structure axiom: D must
be an order and T sit inside its incomparability square, and then the
canonical family (``representation._label_masks``: a label per vertex v
held by all below v, one per edge {a, b} held by all below a or b) must
certify (D, T).  It needs of T only what every certificate needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relation import Relation, _rows, _strict_rows
from .representation import _label_masks
from .setfamily import SetFamily, _find_family, family_failures, represents


class FullGraphError(ValueError):
    """Raised when recognition fails; ``failures`` names each reason."""

    def __init__(self, failures: tuple[str, ...]):
        self.failures = failures
        super().__init__("not a full graph: " + ", ".join(failures))


def is_fg_representation(
    family: SetFamily, directed: Relation, undirected: Relation
) -> bool:
    """Containment matches the directed edges and overlap the undirected
    ones, over every ordered pair of keys."""
    return represents(family, directed, undirected, overlap=True)


def _shape_failures(directed: Relation, undirected: Relation) -> list[str]:
    """The recognition conjuncts that ``FullGraph`` also enforces on
    construction: T is symmetric and lives on the vertices of D."""
    failed = []
    if not set(undirected.field) <= set(directed.field):
        failed.append("undirected-field-outside-directed")
    if not undirected.is_symmetric:
        failed.append("undirected-not-symmetric")
    return failed


def fg_failures(directed: Relation, undirected: Relation) -> tuple[str, ...]:
    """Diagnostics for full-graph recognition, empty when (D, T) is one.
    The canonical family is checked only on an order with T in its square."""
    failed = _shape_failures(directed, undirected)
    if len(undirected - directed.sym_complement()):
        failed.append("undirected-not-within-incomparable-pairs")
    if not directed.is_partial_order:
        failed.append("directed-not-a-partial-order")
    if failed:
        return tuple(failed)
    field = directed.field
    masks = _label_masks(_strict_rows(field, directed), _rows(field, undirected))[0]
    family = family_failures(SetFamily._of_masks(field, masks), directed, undirected, overlap=True)
    return tuple("canonical-family-" + problem for problem in family)


def is_full_graph(directed: Relation, undirected: Relation) -> bool:
    """Whether (D, T) is a full graph."""
    return not fg_failures(directed, undirected)


def find_fg_representation_bruteforce(
    directed: Relation, undirected: Relation, label_bound: int
) -> SetFamily | None:
    """Exhaustive independent search for an injective, empty-free family
    certifying (D, T) with labels below ``label_bound``; None if there is
    no such family within the bound.  ``_find_family`` in overlap mode."""
    return _find_family(directed, undirected, label_bound, overlap=True)


@dataclass(frozen=True)
class FullGraph:
    """A (directed, undirected) pair, optionally carrying a certificate.

    The undirected part must be symmetric and live on the directed
    vertices (``FullGraphError`` otherwise).  When a certificate is
    attached it is re-validated: it must be an injective, empty-free
    fg-representation covering exactly the vertex set, so a ``FullGraph``
    with a certificate is a proven one.
    """

    directed: Relation
    undirected: Relation
    certificate: SetFamily | None = None

    def __post_init__(self) -> None:
        if self.directed.universe != self.undirected.universe:
            raise ValueError("directed and undirected must share a universe")
        malformed = _shape_failures(self.directed, self.undirected)
        if malformed:
            raise FullGraphError(tuple(malformed))
        if self.certificate is not None:
            problems = family_failures(
                self.certificate, self.directed, self.undirected, overlap=True
            )
            if problems:
                raise FullGraphError(tuple("certificate-" + p for p in problems))
