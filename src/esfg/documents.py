"""JSON documents for structures, plus DOT rendering.

One document schema covers the three kinds: event structures (``es``,
fields ``causality``/``conflict``), full graphs (``fg``, fields
``directed``/``undirected``) and representation certificates
(``representation``, which additionally requires ``family``).  Canonical
serialization sorts every list and emits no insignificant whitespace, so
distinct structures always serialize to distinct bytes and golden files
diff cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Any

from .event_structure import EventStructure
from .fullgraph import FullGraph
from .relation import Relation, _row_pairs, _strict_rows
from .setfamily import SetFamily, _as_masks

KINDS = ("es", "fg", "representation")

#: JSON field names for the two relations, by document kind.
_REL_FIELDS = {
    "es": ("causality", "conflict"),
    "fg": ("directed", "undirected"),
    "representation": ("causality", "conflict"),
}


class DocumentError(ValueError):
    """A malformed document; ``code`` is one of ``syntax``, ``schema``,
    ``bounds``, ``symmetry``, ``duplicate-key``."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class StructureDocument:
    """Normalized content of one document.

    For ``fg`` documents the ``causality``/``conflict`` fields hold the
    directed/undirected parts (the JSON field names differ by kind).
    """

    kind: str
    universe: int
    causality: Relation
    conflict: Relation
    family: SetFamily | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DocumentError("schema", f"unknown kind {self.kind!r}")
        if self.causality.universe != self.universe or self.conflict.universe != self.universe:
            raise DocumentError("schema", "relations must use the declared universe")
        if not self.conflict.is_symmetric:
            raise DocumentError(
                "symmetry", f"{_REL_FIELDS[self.kind][1]} list is not symmetric"
            )
        if self.kind == "representation" and self.family is None:
            raise DocumentError("schema", "representation documents need a family")
        if self.family is not None:
            for key in self.family.keys:
                if key >= self.universe:
                    raise DocumentError(
                        "bounds", f"family key {key} outside universe {self.universe}"
                    )

    def to_event_structure(self) -> EventStructure:
        if self.kind == "fg":
            raise DocumentError("schema", "fg documents do not hold an event structure")
        return EventStructure(self.causality, self.conflict)

    def to_full_graph(self) -> FullGraph:
        if self.kind != "fg":
            raise DocumentError("schema", f"{self.kind} documents are not full graphs")
        return FullGraph(self.causality, self.conflict, self.family)


def from_event_structure(structure: EventStructure) -> StructureDocument:
    return StructureDocument(
        "es", structure.causality.universe, structure.causality, structure.conflict
    )


def from_full_graph(graph: FullGraph) -> StructureDocument:
    return StructureDocument(
        "fg",
        graph.directed.universe,
        graph.directed,
        graph.undirected,
        graph.certificate,
    )


def representation_document(
    causality: Relation, conflict: Relation, family: SetFamily
) -> StructureDocument:
    return StructureDocument(
        "representation", causality.universe, causality, conflict, family
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def _pairs_as_lists(rel: Relation) -> list[list[int]]:
    return list(map(list, _row_pairs(rel.field, rel.rows)))


def serialize_document(doc: StructureDocument, *, canonical: bool = True) -> bytes:
    first, second = _REL_FIELDS[doc.kind]
    obj: dict[str, Any] = {
        "kind": doc.kind,
        "universe": doc.universe,
        first: _pairs_as_lists(doc.causality),
        second: _pairs_as_lists(doc.conflict),
    }
    if doc.family is not None:
        obj["family"] = list(map(list, zip(doc.family.keys, doc.family._label_lists())))
    if canonical:
        return json.dumps(obj, separators=(",", ":")).encode()
    return (json.dumps(obj, indent=2) + "\n").encode()


def parse_document(data: bytes | str) -> StructureDocument:
    """Parse and validate one document.

    Violations raise ``DocumentError`` with a code naming the first
    problem found: JSON trouble is ``syntax``, shape/type trouble is
    ``schema``, out-of-range vertices or labels are ``bounds``, a
    one-sided undirected pair is ``symmetry`` and a repeated family
    vertex is ``duplicate-key``.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise DocumentError("syntax", str(exc)) from exc
    if not isinstance(obj, dict):
        raise DocumentError("syntax", "top-level value must be an object")

    kind = obj.get("kind")
    if kind not in KINDS:
        raise DocumentError("schema", f"kind must be one of {KINDS}, got {kind!r}")
    first, second = _REL_FIELDS[kind]
    allowed = {"kind", "universe", first, second, "family"}
    extra = set(obj) - allowed
    if extra:
        raise DocumentError("schema", f"unknown fields: {sorted(extra)}")

    universe = obj.get("universe")
    if not isinstance(universe, int) or isinstance(universe, bool) or universe < 0:
        raise DocumentError("schema", "universe must be a natural number")

    def read_relation(name: str) -> Relation:
        raw = obj.get(name, None)
        if raw is None:
            raise DocumentError("schema", f"missing field {name!r}")
        if not isinstance(raw, list):
            raise DocumentError("schema", f"{name} must be a list of pairs")
        # json.loads makes exact lists and ints, so ``type`` tests them and
        # refuses a bool, whose type is not int
        if not (
            {list}.issuperset(map(type, raw))
            and {2}.issuperset(map(len, raw))
            and {int}.issuperset(map(type, chain.from_iterable(raw)))
        ):
            raise DocumentError("schema", f"{name} entries must be [int, int]")
        try:
            return Relation._of_pairs(universe, raw)
        except ValueError as exc:
            raise DocumentError("bounds", f"{name}: {exc}") from exc

    causality = read_relation(first)
    conflict = read_relation(second)

    family = None
    if "family" in obj:
        raw_family = obj["family"]
        if not isinstance(raw_family, list):
            raise DocumentError("schema", "family must be a list of [vertex, labels]")
        entries: dict[int, list[int]] = {}
        for item in raw_family:
            if (
                not isinstance(item, list)
                or len(item) != 2
                or not isinstance(item[0], int)
                or isinstance(item[0], bool)
                or not isinstance(item[1], list)
            ):
                raise DocumentError("schema", "family entries must be [vertex, labels]")
            key, labels = item
            if not {int}.issuperset(map(type, labels)):
                raise DocumentError("schema", "family labels must be integers")
            if key in entries:
                raise DocumentError("duplicate-key", f"family repeats vertex {key}")
            if not 0 <= key < universe:
                raise DocumentError(
                    "bounds", f"family key {key} outside universe {universe}"
                )
            if min(labels, default=0) < 0:
                raise DocumentError("bounds", "family labels must be naturals")
            entries[key] = labels
        family = SetFamily._of_masks(*_as_masks(entries))

    return StructureDocument(kind, universe, causality, conflict, family)


# ----------------------------------------------------------------------
# DOT rendering
# ----------------------------------------------------------------------


def export_dot(doc: StructureDocument, *, hasse: bool = False) -> str:
    """Render the document as a mixed graph in DOT.

    Solid arrows for the directed part (self-loops always omitted,
    transitively reduced when ``hasse`` is set), dashed undirected lines
    for the second relation, one per unordered pair.  Node and edge order
    is deterministic.
    """
    shown = doc.causality.transitive_reduction() if hasse else doc.causality
    nodes = sorted(set(doc.causality.field) | set(doc.conflict.field))
    lines = ["digraph G {"]
    lines.extend(f"  {v};" for v in nodes)
    arrows = _row_pairs(shown.field, _strict_rows(shown.field, shown))
    lines.extend(f"  {a} -> {b};" for a, b in arrows)
    # the conflict is symmetric: each unordered pair once, ascending
    lines.extend(f"  {a} -> {b} [dir=none, style=dashed];" for a, b in doc.conflict if a <= b)
    lines.append("}")
    return "\n".join(lines) + "\n"
