from fractions import Fraction
from math import factorial

import pytest

import esfg.enumeration
from esfg import (
    Relation,
    count_es,
    count_fg,
    emit_structures,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
    enumerate_partial_orders,
    is_event_structure,
    is_full_graph,
    parse_document,
)
from esfg.bijection import _count_conflicts


def brute_posets(n):
    """Filter of all 2^(n*n) relations (independent of the generator)."""
    cells = [(a, b) for a in range(n) for b in range(n)]
    out = []
    for mask in range(1 << len(cells)):
        rel = Relation(n, (c for i, c in enumerate(cells) if mask >> i & 1))
        if (
            rel.field == tuple(range(n))
            and rel.is_transitive
            and rel.is_antisymmetric
            and rel.is_reflexive_over_field
        ):
            out.append(rel)
    return out


def test_partial_order_examples():
    assert [r.pairs for r in enumerate_partial_orders(0)] == [frozenset()]
    assert [r.pairs for r in enumerate_partial_orders(1)] == [frozenset({(0, 0)})]
    two = list(enumerate_partial_orders(2))
    assert {r.pairs for r in two} == {
        frozenset({(0, 0), (1, 1)}),
        frozenset({(0, 0), (1, 1), (0, 1)}),
        frozenset({(0, 0), (1, 1), (1, 0)}),
    }


def test_partial_orders_match_brute_filter():
    for n in range(4):
        assert set(enumerate_partial_orders(n)) == set(brute_posets(n))


def test_partial_order_count_n4():
    # 219 labeled orders on four points, cross-checked against the brute
    # filter of all 2^16 relations once during development
    assert sum(1 for _ in enumerate_partial_orders(4)) == 219


def test_enumeration_is_deterministic_and_duplicate_free():
    listed = list(enumerate_partial_orders(3))
    assert listed == list(enumerate_partial_orders(3))
    assert len(listed) == len(set(listed)) == 19


def test_limit_is_enforced():
    """Each kind of work has its own largest n: 7 for the structural
    count, 6 for the filter count over every labeled order, 5 for
    listing."""
    with pytest.raises(ValueError):
        list(enumerate_partial_orders(6))
    with pytest.raises(ValueError):
        emit_structures(6, "es", lambda _: None)
    with pytest.raises(ValueError):
        count_es(8)
    with pytest.raises(ValueError):
        list(esfg.enumeration._natural_posets(8))
    with pytest.raises(ValueError):
        count_fg(7)
    with pytest.raises(ValueError):
        list(esfg.enumeration._posets(7))


def test_count_examples():
    assert count_es(0) == 1
    assert count_es(1) == 1
    assert count_es(2) == 4
    assert count_fg(0) == 1
    assert count_fg(1) == 1
    assert count_fg(2) == 4


def test_counts_match_zero_structure_brute_force_n2():
    cells = [(a, b) for a in range(2) for b in range(2)]
    rels = [
        Relation(2, (c for i, c in enumerate(cells) if mask >> i & 1))
        for mask in range(16)
    ]
    total = sum(
        1
        for d in rels
        if d.field == (0, 1)
        for u in rels
        if is_event_structure(d, u)
    )
    assert total == count_es(2) == 4


def test_small_count_regressions():
    # derived by this suite's own independent paths (conflict filtering vs
    # graph recognition vs brute-force families), frozen as regressions
    assert count_es(3) == count_fg(3) == 41
    assert count_es(4) == count_fg(4) == 916
    assert count_fg(3, oracle=True) == 41


def test_per_order_sides_have_equal_size():
    for n in range(4):
        for order in enumerate_partial_orders(n):
            assert len(enumerate_admissible_conflicts(order)) == len(
                enumerate_fullgraph_edge_sets(order)
            )


def test_emit_matches_counts_and_structures_are_valid():
    for n in range(3):
        for kind in ("es", "fg"):
            chunks = []
            emitted = emit_structures(n, kind, chunks.append)
            expected = count_es(n) if kind == "es" else count_fg(n)
            assert emitted == len(chunks) == expected
            assert len(set(chunks)) == len(chunks)  # canonical bytes are unique
            for chunk in chunks:
                doc = parse_document(chunk)
                assert doc.universe == n
                if kind == "es":
                    assert is_event_structure(doc.causality, doc.conflict)
                else:
                    assert is_full_graph(doc.causality, doc.conflict)


def test_emit_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        emit_structures(1, "graphs", lambda _: None)


def test_streaming_generator_yields_each_order_once():
    """Distinct partial orders on exactly {0..n-1}, as many as there are
    labeled posets (OEIS A001035), so each of them exactly once."""
    for n, total in enumerate((1, 1, 3, 19, 219, 4231)):
        orders = list(esfg.enumeration._posets(n))
        assert len(orders) == len(set(orders)) == total
        for pairs in orders:
            order = Relation(n, pairs)
            assert order.field == tuple(range(n)) and order.is_partial_order


def test_counts_at_five():
    assert count_es(5) == count_fg(5) == 41099


def test_counts_build_at_most_one_relation_per_order(monkeypatch):
    built = 0
    original = Relation.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Relation, "__init__", counted)
    for count in (count_es, count_fg):
        built = 0
        assert count(4) == 916
        assert built <= 219


def _strict_down_sets(n, pairs):
    return [sum(1 << u for u in range(n) if u != v and (u, v) in pairs) for v in range(n)]


def test_structural_count_matches_the_filter_per_order():
    """For every labeled order up to five events, the up-sets of Q(P)
    are exactly the conflicts the mask filter accepts."""
    for n in range(6):
        for pairs in esfg.enumeration._posets(n):
            below = _strict_down_sets(n, pairs)
            assert esfg.enumeration._count_conflict_upsets(below) == _count_conflicts(
                range(n), pairs
            ), sorted(pairs)


def test_natural_generator_yields_each_naturally_labeled_order_once():
    """Orders on {0..n-1} in which i below j implies i < j (OEIS A006455),
    each exactly once."""
    for n, total in enumerate((1, 1, 2, 7, 40, 357, 4824)):
        orders = list(esfg.enumeration._natural_posets(n))
        assert len(orders) == len(set(orders)) == total
        for below in orders:
            pairs = {(u, v) for v in range(n) for u in range(n) if u == v or below[v] >> u & 1}
            order = Relation(n, pairs)
            assert order.field == tuple(range(n)) and order.is_partial_order
            assert all(u < v for u, v in pairs if u != v)


def test_natural_orders_weighted_by_extensions_give_the_labeled_orders():
    """Sum of n!/e(P) over the naturally labeled orders is the number of
    labeled orders (OEIS A001035), and matches the labeled generator."""
    for n, total in enumerate((1, 1, 3, 19, 219, 4231, 130023)):
        weights = sum(
            Fraction(factorial(n), esfg.enumeration._linear_extensions(below))
            for below in esfg.enumeration._natural_posets(n)
        )
        assert weights == total
        if n <= 5:
            assert weights == len(list(esfg.enumeration._posets(n)))


def test_structural_count_at_six():
    assert count_es(6) == 3_528_258


@pytest.mark.slow
def test_filter_count_agrees_with_the_structural_count_at_six():
    assert count_fg(6) == count_es(6) == 3_528_258


@pytest.mark.slow
def test_structural_count_at_seven():
    assert count_es(7) == 561_658_287
