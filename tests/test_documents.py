import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esfg import (
    DocumentError,
    EventStructure,
    Relation,
    SetFamily,
    StructureDocument,
    build_representation,
    export_dot,
    from_event_structure,
    from_full_graph,
    es_to_fg,
    parse_document,
    representation_document,
    serialize_document,
)
from esfg.cli import main


def test_minimal_es_document_round_trips_byte_identically():
    raw = b'{"kind":"es","universe":1,"causality":[[0,0]],"conflict":[]}'
    doc = parse_document(raw)
    assert doc.kind == "es" and doc.universe == 1
    assert serialize_document(doc) == raw


def test_parse_accepts_unsorted_input_and_canonicalizes():
    raw = '{"universe": 2, "kind": "es", "causality": [[1,1],[0,0],[0,1]], "conflict": []}'
    doc = parse_document(raw)
    canonical = serialize_document(doc)
    assert json.loads(canonical)["causality"] == [[0, 0], [0, 1], [1, 1]]
    assert parse_document(canonical) == doc


def test_symmetry_error():
    raw = '{"kind":"es","universe":2,"causality":[[0,0],[1,1]],"conflict":[[0,1]]}'
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.code == "symmetry"


def test_bounds_error():
    raw = '{"kind":"es","universe":2,"causality":[[0,2]],"conflict":[]}'
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.code == "bounds"


def test_syntax_error():
    with pytest.raises(DocumentError) as err:
        parse_document(b"{not json")
    assert err.value.code == "syntax"
    with pytest.raises(DocumentError) as err:
        parse_document(b"[1, 2]")
    assert err.value.code == "syntax"


def test_schema_errors():
    with pytest.raises(DocumentError) as err:
        parse_document('{"kind":"mixed","universe":1,"causality":[],"conflict":[]}')
    assert err.value.code == "schema"
    with pytest.raises(DocumentError) as err:
        parse_document('{"kind":"es","universe":1,"conflict":[]}')
    assert err.value.code == "schema"
    with pytest.raises(DocumentError) as err:
        parse_document(
            '{"kind":"es","universe":1,"causality":[],"conflict":[],"extra":1}'
        )
    assert err.value.code == "schema"
    with pytest.raises(DocumentError) as err:
        parse_document('{"kind":"representation","universe":0,"causality":[],"conflict":[]}')
    assert err.value.code == "schema"


def test_a_document_built_directly_is_checked():
    """The constructor refuses what the parser would: an unknown kind, a
    relation on another universe, a family key outside the universe."""
    point = Relation(1, {(0, 0)})
    cases = [
        (("mixed", 1, point, Relation(1)), "schema", "unknown kind 'mixed'"),
        (("es", 2, point, Relation(2)), "schema", "relations must use the declared universe"),
        (
            ("representation", 1, point, Relation(1), SetFamily({0: {0}, 1: {1}})),
            "bounds",
            "family key 1 outside universe 1",
        ),
    ]
    for fields, code, message in cases:
        with pytest.raises(DocumentError, match=f"^{code}: {message}$") as err:
            StructureDocument(*fields)
        assert err.value.code == code


def test_a_document_converts_only_to_its_own_kind():
    point = Relation(1, {(0, 0)})
    with pytest.raises(DocumentError, match="fg documents do not hold an event structure"):
        StructureDocument("fg", 1, point, Relation(1)).to_event_structure()
    for kind in ("es", "representation"):
        family = SetFamily({0: {0}}) if kind == "representation" else None
        doc = StructureDocument(kind, 1, point, Relation(1), family)
        with pytest.raises(DocumentError, match=f"{kind} documents are not full graphs"):
            doc.to_full_graph()


@pytest.mark.parametrize(
    "entry", ["[true, 0]", "[0.5, 1]", "[0, 1, 2]", '"01"'], ids=["bool", "float", "triple", "string"]
)
def test_a_relation_entry_must_be_two_ints(capsys, tmp_path, entry):
    """A relation entry that is not a list of exactly two ints, a bool not
    counting as one, is a schema error, and ``esfg check`` exits 2 on it."""
    raw = f'{{"kind":"es","universe":2,"causality":[[0,0],{entry}],"conflict":[]}}'
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.code == "schema"
    path = tmp_path / "entry.json"
    path.write_text(raw)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: schema:")


def test_duplicate_family_key_error():
    raw = (
        '{"kind":"representation","universe":1,"causality":[[0,0]],'
        '"conflict":[],"family":[[0,[0]],[0,[1]]]}'
    )
    with pytest.raises(DocumentError) as err:
        parse_document(raw)
    assert err.value.code == "duplicate-key"


def test_fg_documents_use_directed_field_names():
    graph = es_to_fg(
        EventStructure(Relation(2, {(0, 0), (1, 1)}), Relation(2))
    )
    doc = from_full_graph(graph)
    payload = json.loads(serialize_document(doc))
    assert set(payload) == {"kind", "universe", "directed", "undirected", "family"}
    assert parse_document(serialize_document(doc)) == doc


def test_representation_documents_round_trip():
    order = Relation(2, {(0, 0), (1, 1), (0, 1)})
    cert = build_representation(order, Relation(2))
    doc = representation_document(order, Relation(2), cert.family)
    parsed = parse_document(serialize_document(doc))
    assert parsed.family == cert.family
    assert parsed == doc


def test_distinct_structures_serialize_distinctly():
    blobs = set()
    for pairs in [set(), {(0, 0)}, {(0, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)}]:
        doc = from_event_structure(EventStructure(Relation(2, pairs), Relation(2)))
        blobs.add(serialize_document(doc))
    assert len(blobs) == 4


def test_pretty_mode_parses_back_to_the_same_document():
    doc = from_event_structure(
        EventStructure(Relation(2, {(0, 0), (1, 1)}), Relation(2, {(0, 1), (1, 0)}))
    )
    assert parse_document(serialize_document(doc, canonical=False)) == doc


def test_dot_examples():
    chain = from_event_structure(
        EventStructure(Relation(2, {(0, 0), (1, 1), (0, 1)}), Relation(2))
    )
    rendered = export_dot(chain)
    assert "0 -> 1;" in rendered
    assert "dashed" not in rendered

    clash = from_event_structure(
        EventStructure(Relation(2, {(0, 0), (1, 1)}), Relation(2, {(0, 1), (1, 0)}))
    )
    rendered = export_dot(clash)
    assert "0 -> 1 [dir=none, style=dashed];" in rendered
    assert rendered.count("->") == 1

    empty = from_event_structure(EventStructure(Relation(0), Relation(0)))
    assert export_dot(empty) == "digraph G {\n}\n"


def test_dot_hasse_reduces_chains():
    k = 4
    pairs = {(a, b) for a in range(k) for b in range(k) if a <= b}
    doc = from_event_structure(EventStructure(Relation(k, pairs), Relation(k)))
    rendered = export_dot(doc, hasse=True)
    assert rendered.count("->") == k - 1
    full = export_dot(doc, hasse=False)
    assert full.count("->") == k * (k - 1) // 2


def test_dot_hasse_rejects_non_orders():
    doc = parse_document('{"kind":"es","universe":2,"causality":[[0,1]],"conflict":[]}')
    with pytest.raises(ValueError):
        export_dot(doc, hasse=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
RELATION_FIELDS = {
    "es": ("causality", "conflict"),
    "fg": ("directed", "undirected"),
    "representation": ("causality", "conflict"),
}
SMALL_INTS = st.integers(-1, 3)
PAIRS = st.lists(st.lists(SMALL_INTS, min_size=2, max_size=2), max_size=5)
FAMILIES = st.lists(
    st.tuples(SMALL_INTS, st.lists(SMALL_INTS, max_size=3)).map(list), max_size=4
)


@st.composite
def documents(draw):
    """A document of each kind with its fields, up to two of them (or a
    stray key) then replaced by arbitrary JSON."""
    kind = draw(st.sampled_from(sorted(RELATION_FIELDS)))
    first, second = RELATION_FIELDS[kind]
    doc = {"kind": kind, "universe": draw(SMALL_INTS)}
    doc[first], doc[second] = draw(PAIRS), draw(PAIRS)
    if draw(st.booleans()):
        doc["family"] = draw(FAMILIES)
    for key in draw(st.lists(st.sampled_from([*doc, "stray"]), max_size=2)):
        doc[key] = draw(JSON_VALUES)
    return doc


@given(JSON_VALUES | documents())
def test_any_json_shape_parses_or_raises_a_document_error(shape):
    """Random JSON, and objects with the document keys holding values of
    the right or the wrong type, either parse or fail as documents."""
    raw = json.dumps(shape)
    for data in (raw, raw.encode()):
        try:
            doc = parse_document(data)
        except DocumentError:
            continue
        assert isinstance(doc, StructureDocument)
