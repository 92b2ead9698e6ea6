import hashlib
from fractions import Fraction
from itertools import repeat
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
from esfg.bijection import _pair_kernel

from . import reference


def _count_conflicts(above):
    """How many conflicts of one order the reference event-structure filter
    accepts."""
    return len(reference.conflict_masks(_pair_kernel(above)[1]))


def _edge_set_counts(n):
    """The reference filter's count on each labeled order on {0..n-1}, in
    the order ``_posets(n)`` yields the orders: the reference for
    ``count_fg``."""
    walk = zip(esfg.enumeration._joins(n), repeat(1))
    return (count for count, _ in reference.filter_counts(walk, n))


def _natural_posets(n):
    """Every naturally labeled partial order on {0..n-1}, each once, as
    the strict down-set mask of each vertex (OEIS A006455)."""
    if n == 0:
        yield ()
    for _, below, low, _, _ in esfg.enumeration._joins(n, natural=True):
        if len(below) == n - 1:
            yield (*below, low)


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
    for n in range(5):
        assert [r.pairs for r in enumerate_partial_orders(n)] == list(reference.partial_orders(n))


def test_partial_order_count_n4():
    # 219 labeled orders on four points (OEIS A001035), the reference's
    # filter of the 2^12 relations off the diagonal included
    assert sum(1 for _ in enumerate_partial_orders(4)) == 219


def test_enumeration_is_deterministic_and_duplicate_free():
    listed = list(enumerate_partial_orders(3))
    assert listed == list(enumerate_partial_orders(3))
    assert len(listed) == len(set(listed)) == 19


def test_limit_is_enforced():
    """Each kind of work has its own largest n: 7 for the counts, which
    share the natural orders and their n!/e(P) weights but not the
    conflict side (Q(P) up-sets on one, edge sets closed under the
    full-graph rules on the other), and for the labeled walk, 5 for
    listing."""
    with pytest.raises(ValueError):
        list(enumerate_partial_orders(6))
    with pytest.raises(ValueError):
        emit_structures(6, "es", lambda _: None)
    with pytest.raises(ValueError):
        count_es(8)
    with pytest.raises(ValueError):
        list(_natural_posets(8))
    with pytest.raises(ValueError):
        count_fg(8)
    with pytest.raises(ValueError):
        list(esfg.enumeration._posets(8))


def test_count_examples():
    assert count_es(0) == 1
    assert count_es(1) == 1
    assert count_es(2) == 4
    assert count_fg(0) == 1
    assert count_fg(1) == 1
    assert count_fg(2) == 4


def test_counts_match_zero_structure_brute_force_n2():
    assert reference.count_event_structures(2) == count_es(2) == 4


def test_small_count_regressions():
    # derived by this suite's own independent paths (conflict filtering vs
    # graph recognition vs brute-force families), frozen as regressions
    assert count_es(3) == count_fg(3) == 41
    assert count_es(4) == count_fg(4) == 916
    orders = enumerate_partial_orders(3)
    assert sum(len(enumerate_fullgraph_edge_sets(d, oracle=True)) for d in orders) == 41


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
        for above in orders:
            pairs = reference.order_pairs(reference.strict_down_sets(above))
            assert reference.field(pairs) == set(range(n)) and reference.is_partial_order(pairs)


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
        assert built == 0


def test_each_step_carries_its_orders_down_sets():
    """The down-sets each step hands on, carried down the walk from the
    parent's, are those of the step's order, ascending, on both walks up
    to five events."""
    for n in range(6):
        for natural in (False, True):
            for _, below, _, _, downs in esfg.enumeration._joins(n, natural):
                assert downs == reference.closed_directly(below), below


def test_structural_count_matches_the_filter_per_order():
    """For every labeled order up to five events, the up-sets of Q(P)
    are exactly the conflicts the mask filter accepts."""
    for n in range(6):
        for above in esfg.enumeration._posets(n):
            below = reference.strict_down_sets(above)
            assert reference.count_conflict_upsets(below) == _count_conflicts(above), above


def _assert_carried_upsets_match_the_reference(n):
    carried = esfg.enumeration._upset_counts(esfg.enumeration._extensions(n), n)
    for below, (count, _) in zip(_natural_posets(n), carried, strict=True):
        assert count == reference.count_conflict_upsets(below), below


def test_carried_upsets_match_the_reference_per_order():
    """The Q(P) carried down the natural walk has, on every naturally
    labeled order up to six events, as many up-sets as Q(P) built from
    scratch, and the counts come in ``_natural_posets`` order."""
    for n in range(1, 7):
        _assert_carried_upsets_match_the_reference(n)


@pytest.mark.slow
def test_carried_upsets_match_the_reference_per_order_at_seven():
    _assert_carried_upsets_match_the_reference(7)


def test_upset_counts_need_naturally_labeled_orders():
    """The carried count pivots on the lowest pair left, which is minimal
    in Q(P) only under natural labels, so a step joining below a vertex
    is refused; on no events it counts the one empty conflict."""
    with pytest.raises(ValueError):
        list(esfg.enumeration._upset_counts(zip(esfg.enumeration._joins(3), repeat(1)), 3))
    assert list(esfg.enumeration._upset_counts(esfg.enumeration._extensions(0), 0)) == [(1, 1)]


def test_closed_edge_set_counts_need_naturally_labeled_orders():
    """The closed-set count pivots on the lowest free pair left, which no
    pair needs, and counts each leaf on its parent's pairs with k maximal,
    so a step joining below a vertex is refused; on no vertices it counts
    the one empty edge set."""
    counts = esfg.enumeration._closed_edge_set_counts
    with pytest.raises(ValueError):
        list(counts(zip(esfg.enumeration._joins(3), repeat(1)), 3))
    assert list(counts(esfg.enumeration._extensions(0), 0)) == [(1, 1)]


def test_counts_share_no_conflict_side(monkeypatch):
    """``count_fg`` runs with the up-set count broken, and ``count_es``
    with the pair kernel that ``enumeration`` binds broken, while each
    break stops the count it belongs to: the two counts share the order
    side and nothing that builds a pair order."""

    def broken(*args):
        raise LookupError("a broken conflict side was called")

    sides = (("_upset_counts", count_fg, count_es), ("_pair_kernel", count_es, count_fg))
    for name, kept, stopped in sides:
        with monkeypatch.context() as patched:
            patched.setattr(esfg.enumeration, name, broken)
            assert kept(5) == 41099
            with pytest.raises(LookupError):
                stopped(1)


def test_truth_table_bit_m_is_bit_i_of_m():
    for size in range(6):
        tables = reference.truth_tables(size)
        assert len(tables) == size
        for i, table in enumerate(tables):
            assert table >> (1 << size) == 0
            assert all(table >> m & 1 == m >> i & 1 for m in range(1 << size))


def _assert_table_count_matches_the_scalar_filter(n):
    counts = _edge_set_counts(n)
    for above, count in zip(esfg.enumeration._posets(n), counts, strict=True):
        assert count == len(reference.edge_set_masks(_pair_kernel(above)[1])), above


def test_table_count_matches_the_scalar_filter_per_order():
    """The reference's table carried down the labeled walk accepts, on
    every labeled order up to five events, as many masks as the
    one-mask-at-a-time filter on that order's own kernel, and it yields
    one count per order in ``_posets`` order."""
    for n in range(6):
        _assert_table_count_matches_the_scalar_filter(n)


def test_natural_generator_yields_each_naturally_labeled_order_once():
    """Orders on {0..n-1} in which i below j implies i < j (OEIS A006455),
    each exactly once."""
    for n, total in enumerate((1, 1, 2, 7, 40, 357, 4824)):
        orders = list(_natural_posets(n))
        assert len(orders) == len(set(orders)) == total
        for below in orders:
            pairs = reference.order_pairs(below)
            assert reference.field(pairs) == set(range(n)) and reference.is_partial_order(pairs)
            assert all(u < v for u, v in pairs if u != v)


def _carried_extensions(n):
    """Each naturally labeled order on {0..n-1}, as strict down-set masks,
    with the e(P) the natural walk carries to it."""
    return [
        ((*below, low), e)
        for (_, below, low, _, _), e in esfg.enumeration._extensions(n)
        if len(below) == n - 1
    ]


def test_carried_extensions_match_the_down_set_dp():
    """The prefix-count table carried down the natural walk gives, for
    every naturally labeled order up to six events, the e(P) of a DP run
    on that order alone, and reaches the orders in ``_natural_posets``
    order."""
    for n in range(1, 7):
        carried = _carried_extensions(n)
        assert [below for below, _ in carried] == list(_natural_posets(n))
        for below, e in carried:
            assert e == reference.linear_extensions(below), below


def test_natural_orders_weighted_by_extensions_give_the_labeled_orders():
    """Sum of n!/e(P) over the naturally labeled orders, with the carried
    e(P), is the number of labeled orders (OEIS A001035), and matches the
    labeled generator; the exact integer weighting agrees."""
    for n, total in enumerate((1, 3, 19, 219, 4231, 130023), start=1):  # no steps at n=0
        carried = _carried_extensions(n)
        weights = sum(Fraction(factorial(n), e) for _, e in carried)
        assert weights == total
        assert esfg.enumeration._weighted_sum(n, ((1, e) for _, e in carried)) == total
        if n <= 5:
            assert weights == len(list(esfg.enumeration._posets(n)))


def test_weighted_sum_refuses_a_fraction():
    assert esfg.enumeration._weighted_sum(3, [(1, 2), (1, 3), (1, 6)]) == 6
    with pytest.raises(ArithmeticError):
        esfg.enumeration._weighted_sum(2, [(1, 3)])


def _assert_natural_counts_match_the_labeled_counts(n):
    labeled = dict(zip(esfg.enumeration._posets(n), _edge_set_counts(n), strict=True))
    natural = esfg.enumeration._closed_edge_set_counts(esfg.enumeration._extensions(n), n)
    for below, (count, _) in zip(_natural_posets(n), natural, strict=True):
        above = tuple(reference.strict_down_sets(below))  # transposing down-sets gives up-sets
        assert count == labeled[above], below


def test_natural_filter_counts_match_the_labeled_counts():
    """The closed edge sets ``count_fg`` counts on each naturally labeled
    order up to five events, from the full-graph rules, are as many as
    the reference filter accepts on the same order down the labeled walk,
    reading the event-structure rules on the complement."""
    for n in range(6):
        _assert_natural_counts_match_the_labeled_counts(n)


@pytest.mark.slow
def test_natural_filter_counts_match_the_labeled_counts_at_six():
    _assert_natural_counts_match_the_labeled_counts(6)


#: sha256 of ``repr(list(walk(n)))`` for n = 0..6.  The carried table's
#: counts come out in ``_posets`` order, so that order is part of the
#: walk's contract and is frozen here.
WALK_DIGESTS = {
    "_posets": (
        "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
        "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
        "0d2b79cb842645ee767e6ed5878f2899f65f375601f178c5aa3c1f4e0b4b3cc2",
        "42b2b9a9929a0dc2e57b71e7da8e91b9a1e3b4e25d824f664a9d335c5f521118",
        "3ed2aee23b3d8d920700105a51dae006b34129ad10cb71c42c18c4a93c031638",
        "fa3401c38d61121360f5f21fdae93d1d14b1d235d0f3bbde2562260e8b7da9ad",
        "9bcf5dba135d784042e8e5e30c420d624da3ac53c38d82433dc5cdd0be6a0505",
    ),
    "_natural_posets": (
        "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
        "78fce9491f4b0e3b895728f3c6efe71e16e4ae77f5f6db9148e6e0584bc5fd42",
        "6eb681965c5b82a90cca16c8bdf17656f2924a055ac074ea7f4c45a594d0b76a",
        "bbac89ee09f4fcd42fbcfd0e12ad28781646ae46e7c7ba8eb417f11206ddf8bf",
        "994fbb6082b8c5ad407970940d52cc28a2114eec5a36c890e1ed891a4ea9c3d5",
        "46780a943dd1eb84665136aa749660f38a72a31e7654f82ed54d9207edba2fa8",
        "66bc02ad755fc8fcf1c4016979b5d8107e8995676b2bf580b0393abcf5f1a2b5",
    ),
}


def _assert_walk_digest(walk, n):
    listed = list(walk(n))
    assert hashlib.sha256(repr(listed).encode()).hexdigest() == WALK_DIGESTS[walk.__name__][n]


def test_walk_order_is_pinned():
    for n in range(6):
        _assert_walk_digest(esfg.enumeration._posets, n)
    for n in range(7):
        _assert_walk_digest(_natural_posets, n)


@pytest.mark.slow
def test_walk_order_is_pinned_at_six():
    _assert_walk_digest(esfg.enumeration._posets, 6)


def _joined(above, low, high):
    """The strict up-set masks once vertex len(above) joins a step."""
    k = len(above)
    return (*(m | (low >> v & 1) << k for v, m in enumerate(above)), high)


def test_each_depth_of_the_walk_lists_the_smaller_orders():
    """Joining the steps of ``_joins(n)`` at depth k gives the orders on
    k + 1 events in ``_posets`` order, so every smaller order is visited
    once; the natural walk never joins below anything, and its steps at
    depth k give the natural orders on k + 1 events."""
    for n in range(6):
        steps = list(esfg.enumeration._joins(n))
        natural = list(esfg.enumeration._joins(n, natural=True))
        assert all(high == 0 for _, _, _, high, _ in natural)
        for k in range(n):
            joined = [_joined(a, low, high) for a, _, low, high, _ in steps if len(a) == k]
            assert joined == list(esfg.enumeration._posets(k + 1))
            grown = [(*below, low) for _, below, low, _, _ in natural if len(below) == k]
            assert grown == list(_natural_posets(k + 1))
            labeled = set(joined)
            for above, below, low, _, _ in natural:
                if len(above) == k:
                    assert _joined(above, low, 0) in labeled
                    assert all(m >> v == 0 for v, m in enumerate((*below, low)))


def test_structural_count_at_six():
    assert count_es(6) == 3_528_258


def test_filter_count_agrees_with_the_structural_count_at_six():
    assert count_fg(6) == count_es(6) == 3_528_258


@pytest.mark.slow
def test_table_count_matches_the_scalar_filter_per_order_at_six():
    _assert_table_count_matches_the_scalar_filter(6)


@pytest.mark.slow
def test_structural_count_at_seven():
    assert count_es(7) == 561_658_287


@pytest.mark.slow
def test_filter_count_at_seven():
    """The closed edge sets over the 96,428 naturally labeled orders on
    seven events agree with the structural count.  The two share the
    order side (the natural orders and their n!/e(P) weights) but not the
    conflict side: the full-graph rules against the up-sets of Q(P)."""
    assert count_fg(7) == 561_658_287


@pytest.mark.slow
def test_labeled_filter_count_at_seven():
    """The reference filter over all 6,129,859 labeled orders on seven
    events, which shares neither side with either count, still gives the
    term."""
    assert sum(_edge_set_counts(7)) == 561_658_287
