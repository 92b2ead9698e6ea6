import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esfg.setfamily as setfamily_mod
from esfg import (
    BijectionReport,
    EventStructure,
    EventStructureError,
    FullGraph,
    FullGraphError,
    Relation,
    build_representation,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
    enumerate_partial_orders,
    es_failures,
    es_to_fg,
    fg_to_es,
    from_event_structure,
    incomparable_complement,
    is_full_graph,
    parse_document,
    representation_document,
    serialize_document,
    verify_bijection,
)
from esfg.bijection import _closed_masks, _pair_kernel
from esfg.cli import main
from esfg.enumeration import _posets

from . import reference
from .strategies import event_structures, posets, small_structures


def shifted(order):
    """The same order on vertices 1..n inside a universe of n + 1, so that
    its field is not a prefix of the universe."""
    return Relation(order.universe + 1, {(a + 1, b + 1) for a, b in order.pairs})


def test_filters_agree_with_the_reference_per_order():
    """Each filter keeps, in pair-list order, the symmetric subsets of the
    incomparability square that the reference event-structure definition
    (on the conflict side) or recognition (on the graph side) accepts."""
    orders = [order for n in range(5) for order in enumerate_partial_orders(n)]
    orders += [shifted(order) for order in orders if order.universe <= 3]
    for order in orders:
        subsets = reference.symmetric_relations(order.universe, order.sym_complement().pairs)
        candidates = sorted((Relation(order.universe, u) for u in subsets), key=tuple)
        assert enumerate_admissible_conflicts(order) == tuple(
            u for u in candidates if reference.is_event_structure(order.pairs, u.pairs)
        )
        assert enumerate_fullgraph_edge_sets(order) == tuple(
            t for t in candidates if is_full_graph(order, t)
        )


def _assert_listing_matches_the_reference_filter(n):
    for above in _posets(n):
        needs = _pair_kernel(above)[1]
        past = 1 << len(needs)
        assert all(need & ~past < 1 << i for i, need in enumerate(needs)), above
        masks = _closed_masks(needs, range(len(needs)))
        assert masks == reference.conflict_masks(needs), above


def _assert_edge_listing_matches_the_reference_filter(n):
    for above in _posets(n):
        _, needs, edge_needs, forced = _pair_kernel(above)
        assert all(not need & ((2 << i) - 1) for i, need in enumerate(edge_needs)), above
        masks = _closed_masks(edge_needs, reversed(range(len(needs))), forced)
        assert all(not forced & ~m for m in masks), above
        assert len(set(masks)) == len(masks), above
        assert sorted(masks) == reference.edge_set_masks(needs), above


def test_conflict_listing_matches_the_reference_filter_per_order():
    """On every labeled order up to five events, each pair requires only
    pairs on lower bits (and the bit past the pairs), and the listing gives
    the reference filter's masks, in its ascending order, one for one."""
    for n in range(6):
        _assert_listing_matches_the_reference_filter(n)


def test_edge_set_listing_matches_the_reference_filter_per_order():
    """On every labeled order up to five events, each edge requires only
    pairs on higher bits, and the listing from the full-graph needs holds
    the forced edges in every mask, makes no mask twice, and gives the
    masks whose complements the event-structure filter accepts."""
    for n in range(6):
        _assert_edge_listing_matches_the_reference_filter(n)


@pytest.mark.slow
def test_conflict_listing_matches_the_reference_filter_at_six():
    _assert_listing_matches_the_reference_filter(6)


@pytest.mark.slow
def test_edge_set_listing_matches_the_reference_filter_at_six():
    _assert_edge_listing_matches_the_reference_filter(6)


def test_incomparable_complement_examples():
    discrete = Relation(2, {(0, 0), (1, 1)})
    assert incomparable_complement(discrete, Relation(2)).pairs == {(0, 1), (1, 0)}
    assert incomparable_complement(discrete, Relation(2, {(0, 1), (1, 0)})).pairs == set()
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert incomparable_complement(chain, Relation(2)).pairs == set()


def test_es_to_fg_examples():
    discrete = Relation(2, {(0, 0), (1, 1)})
    graph = es_to_fg(EventStructure(discrete, Relation(2)))
    assert graph.undirected.pairs == {(0, 1), (1, 0)}
    assert graph.certificate is not None
    certificate = dict(graph.certificate.items())
    assert certificate[0] == {1, 2} and certificate[1] == {0, 1}

    clash = Relation(2, {(0, 1), (1, 0)})
    assert es_to_fg(EventStructure(discrete, clash)).undirected.pairs == set()
    assert es_to_fg(EventStructure(Relation(0), Relation(0))).undirected.pairs == set()


def test_es_to_fg_rejects_invalid_structures():
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    bad = EventStructure(chain, Relation(2, {(0, 1), (1, 0)}))
    assert not bad.is_valid
    with pytest.raises(EventStructureError):
        es_to_fg(bad)


def test_fg_to_es_examples():
    discrete = Relation(2, {(0, 0), (1, 1)})
    touch = Relation(2, {(0, 1), (1, 0)})
    assert fg_to_es(FullGraph(discrete, touch)).conflict.pairs == set()
    assert fg_to_es(FullGraph(discrete, Relation(2))).conflict.pairs == {(0, 1), (1, 0)}
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert fg_to_es(FullGraph(chain, Relation(2))).conflict.pairs == set()


def test_fg_to_es_rejects_non_full_graphs():
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    graph = FullGraph(chain, Relation(2, {(0, 1), (1, 0)}))
    with pytest.raises(FullGraphError) as err:
        fg_to_es(graph)
    assert "undirected-not-within-incomparable-pairs" in err.value.failures


def test_enumerate_admissible_conflicts_examples():
    discrete = Relation(2, {(0, 0), (1, 1)})
    found = enumerate_admissible_conflicts(discrete)
    assert {u.pairs for u in found} == {frozenset(), frozenset({(0, 1), (1, 0)})}
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert [u.pairs for u in enumerate_admissible_conflicts(chain)] == [frozenset()]
    assert enumerate_admissible_conflicts(Relation(2, {(0, 1)})) == ()


def test_enumerate_fullgraph_edge_sets_examples():
    discrete = Relation(2, {(0, 0), (1, 1)})
    found = enumerate_fullgraph_edge_sets(discrete)
    assert {t.pairs for t in found} == {frozenset(), frozenset({(0, 1), (1, 0)})}
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert [t.pairs for t in enumerate_fullgraph_edge_sets(chain)] == [frozenset()]
    empty = enumerate_fullgraph_edge_sets(Relation(0))
    assert len(empty) == 1 and empty[0].pairs == frozenset()


def test_edge_set_enumeration_agrees_with_oracle_mode():
    """Oracle mode vets each candidate mask with the search on the order's
    rows: it lists the filter's edge sets on every order with up to 3
    points, and on each order on 3 points moved onto {1, 3, 4}."""
    moved = {0: 1, 1: 3, 2: 4}
    orders = [order for n in range(4) for order in enumerate_partial_orders(n)]
    orders += [Relation(5, {(moved[a], moved[b]) for a, b in o}) for o in orders if o.universe == 3]
    assert len(orders) == 1 + 1 + 3 + 19 + 19
    for order in orders:
        assert enumerate_fullgraph_edge_sets(order) == enumerate_fullgraph_edge_sets(
            order, oracle=True
        ), order


def test_verify_bijection_examples():
    report = verify_bijection(Relation(2, {(0, 0), (1, 1)}))
    assert report.x_size == 2 and report.y_size == 2 and report.all_hold
    report = verify_bijection(Relation(2, {(0, 0), (1, 1), (0, 1)}))
    assert report.x_size == 1 and report.y_size == 1 and report.all_hold
    report = verify_bijection(Relation(2, {(0, 1)}))
    assert report.x_size == 0 and report.y_size == 0 and report.all_hold


def test_a_report_of_a_bijection_keeps_the_size():
    order = Relation(2, {(0, 0), (1, 1)})
    with pytest.raises(ValueError, match="cannot change cardinality"):
        BijectionReport(order, 2, 1, True, True, True, True)
    assert not BijectionReport(order, 2, 1, True, False, True, True).all_hold


def test_verify_bijection_enforces_the_size_limit():
    """``verify_bijection`` and both enumerators refuse a field above the
    list limit, before any candidate is built."""
    wide = Relation(6, {(v, v) for v in range(6)})
    for lister in (
        verify_bijection,
        enumerate_admissible_conflicts,
        enumerate_fullgraph_edge_sets,
        lambda base: enumerate_fullgraph_edge_sets(base, oracle=True),
    ):
        with pytest.raises(ValueError):
            lister(wide)
    antichain = Relation(5, {(v, v) for v in range(5)})
    assert len(enumerate_admissible_conflicts(antichain)) == 1 << 10


@given(posets(), st.integers(0, 63))
def test_complement_is_an_involution_inside_the_square(order, seed):
    cells = sorted(order.sym_complement().pairs)
    chosen = Relation(
        order.universe, (c for i, c in enumerate(cells) if seed >> i & 1)
    )
    image = incomparable_complement(order, chosen)
    assert image.pairs == reference.incomparable_complement(order.pairs, chosen.pairs)
    assert incomparable_complement(order, image) == chosen


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


def check_drawn_structure(drawn, documents):
    """The builder takes at most n(n + 1)/2 labels, the conversions round
    trip, the certificate's document keeps its bytes through a parse, and
    the complement inside the square is a full graph.  In-process, ``esfg
    represent`` then ``esfg check`` on its output exits 0, and ``esfg
    convert --to fg`` then ``--to es`` gives the input document's bytes
    back.  Dropping an inherited conflict (y, z), one with x < y and
    x # z, and its mirror breaks propagation."""
    order, conflict = drawn
    n = order.universe
    cert = build_representation(order, conflict)
    assert cert.fresh_label_bound <= n * (n + 1) // 2
    structure = EventStructure(order, conflict)
    assert fg_to_es(es_to_fg(structure)) == structure
    blob = serialize_document(representation_document(order, conflict, cert.family))
    assert serialize_document(parse_document(blob)) == blob
    assert is_full_graph(order, incomparable_complement(order, conflict))
    source, represented, graph, back = (
        documents / name for name in ("es.json", "rep.json", "fg.json", "back.json")
    )
    document = serialize_document(from_event_structure(structure))
    source.write_bytes(document)
    assert main(["represent", str(source), "-o", str(represented)]) == 0
    assert main(["check", str(represented)]) == 0
    assert main(["convert", "--to", "fg", str(source), "-o", str(graph)]) == 0
    assert main(["convert", "--to", "es", str(graph), "-o", str(back)]) == 0
    assert back.read_bytes() == document
    inherited = sorted(
        (y, z)
        for x, y in order.pairs
        if x != y
        for w, z in conflict.pairs
        if w == x and (y, z) in conflict.pairs
    )
    if inherited:
        y, z = inherited[0]
        dropped = Relation(n, conflict.pairs - {(y, z), (z, y)})
        assert "conflict-not-propagating" in es_failures(order, dropped)
        with pytest.raises(EventStructureError):
            build_representation(order, dropped)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(event_structures(max_events=40))
def test_random_structures_beyond_the_exhaustive_sizes(documents, drawn):
    """``check_drawn_structure`` on 8 to 40 events, labels shuffled."""
    check_drawn_structure(drawn, documents)


@pytest.mark.slow
@settings(max_examples=200, derandomize=True, deadline=None)
@given(event_structures(max_events=80))
def test_random_structures_up_to_eighty_events(documents, drawn):
    """``check_drawn_structure`` on 8 to 80 events, labels shuffled."""
    check_drawn_structure(drawn, documents)


def test_certified_graphs_convert_like_uncertified_ones():
    for order, conflict in small_structures(4):
        structure = EventStructure(order, conflict)
        graph = es_to_fg(structure)
        assert graph.certificate is not None
        bare = FullGraph(graph.directed, graph.undirected)
        assert fg_to_es(graph) == fg_to_es(bare) == structure


def test_es_to_fg_reads_its_family_once(monkeypatch):
    """The certificate check on the structure side and the ``FullGraph``
    check on the graph side both run, on one read of the family's masks."""
    reads = []
    original = setfamily_mod._mask_relations

    def counted(masks):
        reads.append(masks)
        return original(masks)

    monkeypatch.setattr(setfamily_mod, "_mask_relations", counted)
    order = Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1)})
    graph = es_to_fg(EventStructure(order, Relation(3, {(1, 2), (2, 1)})))
    assert graph.certificate is not None and graph.undirected.pairs == {(0, 2), (2, 0)}
    assert len(reads) == 1
