import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esfg import Relation
from esfg.relation import _rows

from . import reference
from .strategies import posets, relation_pairs, relations, right_unique_relations


def test_field_examples():
    assert Relation(1).field == ()
    assert Relation(2, {(0, 0), (0, 1)}).field == (0, 1)
    assert Relation(6, {(2, 5)}).field == (2, 5)


def test_converse_examples():
    assert Relation(2).converse() == Relation(2)
    assert Relation(2, {(0, 1)}).converse() == Relation(2, {(1, 0)})
    symmetric = Relation(2, {(0, 1), (1, 0)})
    assert symmetric.converse() == symmetric


def test_image_examples():
    assert Relation(3, {(0, 1), (0, 2)}).image({0}) == {1, 2}
    assert Relation(2, {(0, 1)}).image(set()) == frozenset()
    assert Relation(2, {(0, 0), (0, 1), (1, 1)}).image({1}) == {1}


def test_override_examples():
    p = Relation(8, {(0, 5), (1, 6)})
    assert p.override(Relation(8, {(1, 7)})).pairs == {(0, 5), (1, 7)}
    assert Relation(8, {(0, 5)}).override(Relation(8)).pairs == {(0, 5)}
    q = Relation(10, {(2, 9)})
    assert Relation(10, {(0, 5), (1, 6)}).override(q).pairs == {(0, 5), (1, 6), (2, 9)}


def test_remove_vertex_pairs_examples():
    assert Relation(2, {(0, 0), (0, 1), (1, 1)}).remove_vertex_pairs(1, 1).pairs == {(0, 0)}
    assert Relation(3).remove_vertex_pairs(0, 2) == Relation(3)
    assert Relation(4, {(0, 1), (2, 3)}).remove_vertex_pairs(0, 3).pairs == set()


def test_sym_complement_examples():
    assert Relation(2, {(0, 0), (1, 1), (0, 1)}).sym_complement().pairs == set()
    assert Relation(2, {(0, 0), (1, 1)}).sym_complement().pairs == {(0, 1), (1, 0)}
    assert Relation(0).sym_complement().pairs == set()


@given(relations())
def test_sym_complement_is_built_once(rel):
    square = rel.sym_complement()
    assert rel.sym_complement() is square
    fld = {v for pair in rel.pairs for v in pair}
    assert square == Relation(
        rel.universe,
        {
            (a, b)
            for a in fld
            for b in fld
            if (a, b) not in rel.pairs and (b, a) not in rel.pairs
        },
    )


def test_properties_examples():
    empty = Relation(0)
    assert empty.is_transitive and empty.is_antisymmetric and empty.is_symmetric
    assert empty.is_irreflexive and empty.is_reflexive_over_field
    swap = Relation(2, {(0, 1), (1, 0)})
    assert swap.is_symmetric and swap.is_irreflexive
    assert not (
        swap.is_antisymmetric or swap.is_reflexive_over_field or swap.is_transitive
    )
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert chain.is_transitive and chain.is_antisymmetric
    assert chain.is_reflexive_over_field
    assert not (chain.is_irreflexive or chain.is_symmetric)
    assert Relation(0).is_partial_order
    assert Relation(2, {(0, 0), (1, 1), (0, 1)}).is_partial_order
    assert not Relation(2, {(0, 1), (1, 0)}).is_partial_order


def test_transitive_reduction_examples():
    three_chain = Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)})
    assert three_chain.transitive_reduction().pairs == {(0, 1), (1, 2)}
    assert Relation(1, {(0, 0)}).transitive_reduction().pairs == set()
    assert Relation(2, {(0, 0), (1, 1)}).transitive_reduction().pairs == set()


def test_transitive_reduction_rejects_non_orders():
    with pytest.raises(ValueError):
        Relation(2, {(0, 1)}).transitive_reduction()  # not reflexive over field
    with pytest.raises(ValueError):
        Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}).transitive_reduction()


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        Relation(2, {(0, 2)})
    with pytest.raises(ValueError):
        Relation(-1)


def test_a_relation_is_immutable():
    rel = Relation(2, {(0, 1)})
    with pytest.raises(AttributeError, match="cannot assign to field 'rows'"):
        rel.rows = (0, 0)
    with pytest.raises(AttributeError, match="cannot delete field 'universe'"):
        del rel.universe
    assert rel == Relation(2, {(0, 1)})


def test_a_relation_never_equals_a_foreign_value():
    rel = Relation(2, {(0, 1)})
    assert (rel == {(0, 1)}) is False
    assert (rel == [(0, 1)]) is False
    assert rel != rel.pairs


@pytest.mark.parametrize("wrap", [list, frozenset], ids=["list", "frozenset"])
def test_the_constructor_normalises_pairs_and_checks_bounds(wrap):
    """Pairs come out as tuples of exact ints, whether or not they come in
    a frozenset, and a pair outside the universe is refused either way."""
    rel = Relation(2, wrap([(True, 0)]))
    assert [type(v) for pair in rel.pairs for v in pair] == [int, int]
    assert repr(rel) == "Relation(2, [(1, 0)])"
    assert Relation(2, [[0, 1], [1, 1]]).pairs == {(0, 1), (1, 1)}
    with pytest.raises(ValueError, match=r"^pair \(0, 2\) outside universe of size 2$"):
        Relation(2, wrap([(0, 0), (0, 2)]))


@given(relations(), relations())
def test_set_operations_match_the_public_constructor(a, b):
    """``-``, ``|``, ``&`` and the incomparability square each give the
    relation the public constructor builds from the same pairs: it
    equals, hashes and prints alike."""
    universe = max(a.universe, b.universe)
    incomparable = reference.incomparable_complement(a.pairs, frozenset())
    for made, checked in (
        (a - b, Relation(universe, set(a.pairs) - set(b.pairs))),
        (a | b, Relation(universe, set(a.pairs) | set(b.pairs))),
        (a & b, Relation(universe, set(a.pairs) & set(b.pairs))),
        (a.sym_complement(), Relation(a.universe, incomparable)),
    ):
        assert made == checked
        assert hash(made) == hash(checked)
        assert repr(made) == repr(checked)
        assert type(made.pairs) is frozenset and type(made.universe) is int


@given(relations())
def test_field_is_domain_union_range(rel):
    assert set(rel.field) == set(rel.domain) | {b for _, b in rel.pairs}


@given(relations())
def test_partial_order_is_its_three_conjuncts(rel):
    assert rel.is_partial_order == (
        rel.is_reflexive_over_field and rel.is_transitive and rel.is_antisymmetric
    )
    assert rel.is_partial_order == reference.is_partial_order(rel.pairs)


@given(relations())
def test_converse_is_an_involution(rel):
    assert rel.converse().converse() == rel


@given(relation_pairs())
def test_override_agrees_with_each_side(rels):
    p, q = rels
    merged = p.override(q)
    dom_q = set(q.domain)
    assert {pair for pair in merged.pairs if pair[0] in dom_q} == set(q.pairs)
    assert {pair for pair in merged.pairs if pair[0] not in dom_q} == {
        pair for pair in p.pairs if pair[0] not in dom_q
    }


@given(right_unique_relations(), right_unique_relations())
def test_override_preserves_right_uniqueness(p, q):
    assert p.is_right_unique and q.is_right_unique
    assert p.override(q).is_right_unique


@given(relations())
def test_remove_vertex_pairs_excises_the_vertex(rel):
    for x in range(rel.universe):
        assert x not in rel.remove_vertex_pairs(x, x).field


@given(relations())
def test_sym_complement_partitions_the_square(rel):
    comp = rel.sym_complement()
    assert comp.is_symmetric
    fld = set(rel.field)
    square = {(a, b) for a in fld for b in fld}
    both_ways = rel.pairs | rel.converse().pairs
    assert both_ways | comp.pairs == square
    assert not both_ways & comp.pairs


@given(posets())
def test_transitive_reduction_closure_round_trip(order):
    assert order.is_partial_order
    reduced = order.transitive_reduction()
    assert reference.reflexive_transitive_closure(reduced.pairs, order.field) == order.pairs
    assert all(a != b for a, b in reduced.pairs)


def _made_and_meant(a, b):
    """Relations made each way, with the pairs each should hold by the
    reference definitions: ``a`` and ``b`` from pairs by the constructor,
    the rest from rows by the operations."""
    first, second = a.pairs, b.pairs
    made = [
        (a, first),
        (b, second),
        (a | b, first | second),
        (a & b, first & second),
        (a - b, first - second),
        (b - a, second - first),
        (a.converse(), reference.converse(first)),
        (a.override(b), reference.override(first, second)),
        (a.sym_complement(), reference.incomparable_complement(first, frozenset())),
    ]
    made += [
        (a.remove_vertex_pairs(x, y), {(s, t) for s, t in first if s != x and t != y})
        for x in range(a.universe)
        for y in range(a.universe)
    ]
    return made


@settings(max_examples=40)
@given(relation_pairs())
def test_the_row_form_agrees_with_the_pair_definitions(rels):
    """Every relation, made from pairs or from rows, holds the pairs the
    reference definitions give, equals, hashes and prints like its twin
    made from those pairs, and answers each predicate, ``domain``,
    ``image``, ``len`` and ``iter`` as the definitions do."""
    universe = rels[0].universe
    for rel, meant in _made_and_meant(*rels):
        twin = Relation(universe, set(meant))
        assert rel.pairs == meant
        assert rel == twin and hash(rel) == hash(twin) and repr(rel) == repr(twin)
        assert (rel.field, rel.rows) == (twin.field, twin.rows)
        assert rel.field == tuple(sorted(reference.field(meant)))
        assert rel.rows == tuple(reference.rows(rel.field, meant))
        assert repr(rel) == f"Relation({universe}, {sorted(meant)!r})"
        assert rel.domain == tuple(sorted({x for x, _ in meant}))
        assert len(rel) == len(meant) and list(rel) == sorted(meant)
        square = [(x, y) for x in range(universe + 1) for y in range(universe + 1)]
        assert all((pair in rel) == (pair in meant) for pair in square)
        for sources in ({0}, {1, 3}, set(range(universe))):
            assert rel.image(sources) == reference.image(meant, sources)
        for predicate in (
            "is_transitive",
            "is_antisymmetric",
            "is_symmetric",
            "is_irreflexive",
            "is_reflexive_over_field",
            "is_right_unique",
            "is_partial_order",
        ):
            assert getattr(rel, predicate) == getattr(reference, predicate)(meant), predicate


@settings(max_examples=40)
@given(posets(), relations(max_universe=3))
def test_transitive_reduction_is_the_covering_pairs(order, other):
    """On orders, and on orders that ``-`` or ``|`` made from rows."""
    for rel in (order, order - Relation(order.universe), order | Relation(0)):
        reduced = rel.transitive_reduction()
        assert reduced.pairs == reference.covering_pairs(rel.pairs)
        assert reduced == Relation(rel.universe, reference.covering_pairs(rel.pairs))
    made = order | other
    if reference.is_partial_order(made.pairs):
        assert made.transitive_reduction().pairs == reference.covering_pairs(made.pairs)


@settings(max_examples=40)
@given(relations(max_universe=5), st.data())
def test_rows_over_keys_other_than_the_field(rel, data):
    """``_rows`` over a superset, a subset and a reordering of the field
    agrees with the row form read off the pairs, and over the field
    itself gives a copy of the stored rows."""
    fld = list(rel.field)
    extra = data.draw(st.sets(st.integers(0, 7)))
    supersets = data.draw(st.permutations(sorted(set(fld) | extra)))
    subset = data.draw(st.lists(st.sampled_from(fld), unique=True)) if fld else []
    for keys in (supersets, subset, data.draw(st.permutations(fld)), rel.field):
        assert _rows(keys, rel) == reference.rows(keys, rel.pairs), keys
    copied = _rows(rel.field, rel)
    assert copied == list(rel.rows)
    copied.append(1)
    assert len(rel.rows) == len(rel.field)


def test_a_relation_made_from_rows_is_bounds_checked():
    """The rows constructor holds the field inside the universe, as the
    pair constructor holds each pair, and drops vertices no pair uses."""
    with pytest.raises(ValueError, match=r"^vertex 5 outside universe of size 2$"):
        Relation._of_rows(2, (0, 5), [0b10, 0])
    emptied = Relation(3, {(0, 2), (1, 1)}) - Relation(3, {(0, 2)})
    assert (emptied.field, emptied.rows) == ((1,), (1,))
