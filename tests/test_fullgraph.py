from itertools import product

import pytest
from hypothesis import given, settings

from esfg import (
    FullGraph,
    FullGraphError,
    Relation,
    SetFamily,
    enumerate_fullgraph_edge_sets,
    enumerate_partial_orders,
    es_to_fg,
    fg_to_es,
    find_fg_representation_bruteforce,
    fg_failures,
    is_event_structure,
    is_fg_representation,
    is_full_graph,
    overlaps,
)

from . import reference
from .strategies import full_graphs


def test_overlaps_examples():
    assert overlaps({1, 2}, {2, 3})
    assert not overlaps({1}, {1, 2})
    assert not overlaps({1}, {2})
    assert not overlaps(set(), {1})
    assert not overlaps({1}, {1})


def test_is_fg_representation_examples():
    assert is_fg_representation(SetFamily(), Relation(0), Relation(0))
    family = SetFamily({0: {1, 2}, 1: {0, 1}})
    discrete = Relation(2, {(0, 0), (1, 1)})
    touch = Relation(2, {(0, 1), (1, 0)})
    assert is_fg_representation(family, discrete, touch)
    assert reference.certifies(family, discrete.pairs, touch.pairs, overlap=True)
    # containment holds both ways for equal sets, so the directed edge is
    # required by the biconditional
    assert not is_fg_representation(
        SetFamily({0: {1}, 1: {1}}), discrete, Relation(2)
    )


def test_is_full_graph_examples():
    discrete = Relation(2, {(0, 0), (1, 1)})
    touch = Relation(2, {(0, 1), (1, 0)})
    assert is_full_graph(discrete, touch)
    leftover = discrete.sym_complement() - touch
    assert is_event_structure(discrete, leftover)

    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert not is_full_graph(chain, touch)
    assert "undirected-not-within-incomparable-pairs" in fg_failures(chain, touch)

    assert is_full_graph(Relation(0), Relation(0))


def test_short_circuit_recognition_agrees_with_the_diagnostics():
    """Every relation pair with n <= 2, cycles and non-orders included:
    the diagnostics never raise (the canonical family is built only on an
    order with T in its square), and ``is_full_graph`` gives their verdict."""
    for n in range(3):
        rels = [Relation(n, r) for r in reference.all_relations(n)]
        for directed, undirected in product(rels, rels):
            assert is_full_graph(directed, undirected) == (
                not fg_failures(directed, undirected)
            )


def test_constructor_rejects_bad_certificates():
    discrete = Relation(2, {(0, 0), (1, 1)})
    touch = Relation(2, {(0, 1), (1, 0)})
    with pytest.raises(FullGraphError) as err:
        FullGraph(discrete, touch, SetFamily({0: {1}, 1: {2}}))  # disjoint, no overlap
    assert err.value.failures == ("certificate-is-not-an-fg-representation",)
    with pytest.raises(FullGraphError) as err:
        FullGraph(discrete, Relation(2), SetFamily({0: set(), 1: set()}))
    assert err.value.failures == (
        "certificate-is-not-an-fg-representation",
        "certificate-not-injective",
        "certificate-contains-empty-set",
    )
    with pytest.raises(FullGraphError) as err:
        FullGraph(discrete, touch, SetFamily({0: {0, 1}, 1: {1, 2}, 2: {3}}))
    assert err.value.failures == (
        "certificate-is-not-an-fg-representation",
        "certificate-keys-differ-from-vertices",
    )


def test_constructor_rejects_malformed_edges():
    discrete = Relation(2, {(0, 0), (1, 1)})
    with pytest.raises(FullGraphError) as err:
        FullGraph(discrete, Relation(2, {(0, 1)}))  # one-sided undirected edge
    assert err.value.failures == ("undirected-not-symmetric",)
    with pytest.raises(FullGraphError) as err:
        FullGraph(Relation(2, {(0, 0)}), Relation(2, {(0, 1)}))
    assert err.value.failures == (
        "undirected-field-outside-directed",
        "undirected-not-symmetric",
    )
    with pytest.raises(ValueError) as err:
        FullGraph(discrete, Relation(3))
    assert type(err.value) is ValueError


def test_undirected_edges_of_full_graphs_are_irreflexive():
    for n in range(4):
        for order in enumerate_partial_orders(n):
            for undirected in enumerate_fullgraph_edge_sets(order):
                assert undirected.is_irreflexive


def test_derived_graphs_stay_within_the_incomparable_square():
    """Read a full graph off any family: its undirected edges can only sit
    between containment-incomparable vertices."""
    values = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1}), frozenset({0, 2})]
    for va, vb, vc in product(values, repeat=3):
        family = SetFamily({0: va, 1: vb, 2: vc})
        directed, undirected = (Relation(3, r) for r in reference.realised(family, overlap=True))
        assert is_fg_representation(family, directed, undirected)
        assert undirected.pairs <= directed.sym_complement().pairs


def test_oracle_agrees_with_recognition_small_scan():
    """Complete scan at n <= 2: recognition coincides with the existence of
    a family (with the field side condition carried separately, exactly as
    the definition states it)."""
    for n in range(3):
        rels = [Relation(n, r) for r in reference.all_relations(n)]
        for directed, undirected in product(rels, rels):
            by_search = (
                set(undirected.field) <= set(directed.field)
                and find_fg_representation_bruteforce(
                    directed, undirected, max(n * n, 1)
                )
                is not None
            )
            assert by_search == is_full_graph(directed, undirected)


def test_oracle_agrees_with_recognition_n3():
    # Label bound 6 = 3*4/2 suffices: a full graph's certificate is the
    # builder's family for its complement structure, and the builder's
    # i-th event brings at most i labels (the argument is in
    # test_representation.py::test_completeness_and_growth_on_small_structures).
    sym = [Relation(3, t) for t in reference.symmetric_relations(3)]
    for directed in enumerate_partial_orders(3):
        for undirected in sym:
            by_search = (
                set(undirected.field) <= set(directed.field)
                and find_fg_representation_bruteforce(directed, undirected, 6)
                is not None
            )
            assert by_search == is_full_graph(directed, undirected)


@pytest.mark.parametrize(
    "n, candidates, accepted",
    [
        (0, 1, 1),
        (1, 1, 1),
        (2, 4, 4),
        (3, 50, 41),
        (4, 1784, 916),
        pytest.param(5, 172864, 41099, marks=pytest.mark.slow),
    ],
)
def test_recognition_agrees_with_the_canonical_family(n, candidates, accepted):
    """Every order D against every symmetric T inside its incomparable
    pairs: (D, T) is a full graph exactly when the canonical family
    certifies it as containment plus proper overlap, a check read off the
    definition with no event-structure axiom in it.  The paper's theorem
    is the same verdict reached the other way: the complement of T in
    the incomparability square is a valid conflict for D."""
    seen = found = 0
    for order in enumerate_partial_orders(n):
        for undirected in reference.symmetric_relations(n, order.sym_complement().pairs):
            family = reference.canonical_family(order.pairs, undirected)
            certifies = reference.certifies(family, order.pairs, undirected, overlap=True)
            assert is_full_graph(order, Relation(n, undirected)) == certifies, (order, undirected)
            conflict = reference.incomparable_complement(order.pairs, undirected)
            assert certifies == reference.is_event_structure(order.pairs, conflict)
            seen += 1
            found += certifies
    assert (seen, found) == (candidates, accepted)


def check_drawn_graph(drawn):
    """The graph is recognised, converts to its event structure and back
    to itself, and the canonical family certifies it."""
    directed, undirected = drawn
    assert is_full_graph(directed, undirected)
    again = es_to_fg(fg_to_es(FullGraph(directed, undirected)))
    assert (again.directed, again.undirected) == (directed, undirected)
    family = reference.canonical_family(directed.pairs, undirected.pairs)
    assert reference.certifies(family, directed.pairs, undirected.pairs, overlap=True)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(full_graphs(max_events=32))
def test_random_full_graphs_beyond_the_exhaustive_sizes(drawn):
    """``check_drawn_graph`` on 8 to 32 vertices, labels shuffled, drawn
    with no package code."""
    check_drawn_graph(drawn)


@pytest.mark.slow
@settings(max_examples=200, derandomize=True, deadline=None)
@given(full_graphs(max_events=80))
def test_random_full_graphs_up_to_eighty_vertices(drawn):
    """``check_drawn_graph`` on 8 to 80 vertices, labels shuffled."""
    check_drawn_graph(drawn)
