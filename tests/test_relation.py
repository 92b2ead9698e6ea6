import pytest
from hypothesis import given

from esfg import Relation

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
