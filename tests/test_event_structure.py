from itertools import product, starmap

import pytest
from hypothesis import given

from esfg import (
    EventStructure,
    EventStructureError,
    Relation,
    enumerate_partial_orders,
    es_failures,
    is_conflict_propagating,
    is_event_structure,
    terminal_events,
)

from . import reference
from .strategies import relation_pairs, small_structures


def test_propagation_examples():
    assert is_conflict_propagating(Relation(2), Relation(2, {(0, 1)}))
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    clash = Relation(2, {(0, 1), (1, 0)})
    assert not is_conflict_propagating(clash, chain)
    # bottom of a chain conflicting with a third event forces the top to as well
    causality = Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1)})
    conflict = Relation(3, {(0, 2), (2, 0), (1, 2), (2, 1)})
    assert is_conflict_propagating(conflict, causality)
    assert reference.is_inherited(causality.pairs, conflict.pairs)


@given(relation_pairs(max_universe=3))
def test_propagation_matches_brute_scan(rels):
    conflict, causality = rels
    assert is_conflict_propagating(conflict, causality) == reference.is_inherited(
        causality.pairs, conflict.pairs
    )


def test_is_event_structure_examples():
    assert is_event_structure(Relation(0), Relation(0))
    assert is_event_structure(Relation(2, {(0, 0), (1, 1)}), Relation(2, {(0, 1), (1, 0)}))
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    clash = Relation(2, {(0, 1), (1, 0)})
    assert not is_event_structure(chain, clash)
    assert "conflict-not-propagating" in es_failures(chain, clash)


def test_failures_name_each_conjunct():
    bad_order = Relation(2, {(0, 1)})
    bad_conflict = Relation(2, {(0, 0), (0, 1)})
    failures = es_failures(bad_order, bad_conflict)
    assert "causality-not-reflexive-over-field" in failures
    assert "conflict-not-symmetric" in failures
    assert "conflict-not-irreflexive" in failures


def scanned_pairs():
    """Every relation pair on at most 2 points, then every order on 3
    points against every symmetric relation on 3 points."""
    for k in range(3):
        relations = [Relation(k, r) for r in reference.all_relations(k)]
        yield from product(relations, relations)
    conflicts = [Relation(3, u) for u in reference.symmetric_relations(3)]
    yield from product(enumerate_partial_orders(3), conflicts)


def test_predicate_agrees_with_failures_on_small_pairs():
    """The predicate, its failure list and the reference definition give
    one verdict on every scanned pair."""
    scanned = 0
    for causality, conflict in scanned_pairs():
        scanned += 1
        verdict = reference.is_event_structure(causality.pairs, conflict.pairs)
        assert is_event_structure(causality, conflict) == verdict, (causality, conflict)
        assert (not es_failures(causality, conflict)) == verdict, (causality, conflict)
    assert scanned == 1 + 4 + 256 + 19 * 64


def test_failures_keep_their_order():
    causality = Relation(4, {(0, 1), (1, 0), (1, 2)})
    conflict = Relation(4, {(3, 3), (0, 3)})
    assert es_failures(causality, conflict) == (
        "conflict-not-propagating",
        "conflict-not-symmetric",
        "conflict-not-irreflexive",
        "causality-not-transitive",
        "causality-not-antisymmetric",
        "causality-not-reflexive-over-field",
        "conflict-events-outside-causality",
    )
    assert not is_event_structure(causality, conflict)


def test_terminal_events_examples():
    assert terminal_events(Relation(2, {(0, 0), (1, 1), (0, 1)})) == (1,)
    assert terminal_events(Relation(2, {(0, 0), (1, 1)})) == (0, 1)
    assert terminal_events(Relation(0)) == ()


def test_remove_event_examples():
    chain = EventStructure(Relation(2, {(0, 0), (1, 1), (0, 1)}), Relation(2))
    cut = chain.remove_event(1)
    assert cut.causality.pairs == {(0, 0)} and cut.conflict.pairs == set()
    single = EventStructure(Relation(1, {(0, 0)}), Relation(1))
    assert single.remove_event(0).events == ()
    wide = EventStructure(
        Relation(3, {(0, 0), (1, 1), (2, 2), (0, 2)}),
        Relation(3, {(1, 2), (2, 1)}),
    )
    cut = wide.remove_event(2)
    assert cut.causality.pairs == {(0, 0), (1, 1)}
    assert cut.conflict.pairs == set()


def test_remove_event_rejects_unknown_events():
    with pytest.raises(ValueError):
        EventStructure(Relation(2, {(0, 0)}), Relation(2)).remove_event(1)


def test_constructor_rejects_conflicts_outside_event_set():
    with pytest.raises(EventStructureError) as err:
        EventStructure(Relation(2, {(0, 0)}), Relation(2, {(0, 1), (1, 0)}))
    assert err.value.failures == ("conflict-events-outside-causality",)
    with pytest.raises(ValueError) as err:
        EventStructure(Relation(1, {(0, 0)}), Relation(2))
    assert type(err.value) is ValueError


def test_terminal_removal_keeps_validity():
    # exhaustive at n <= 3: peeling any terminal of a valid structure
    # leaves a valid structure
    for structure in starmap(EventStructure, small_structures(3)):
        for s in structure.terminals:
            assert structure.remove_event(s).is_valid


def test_every_nonempty_structure_has_a_terminal():
    for structure in starmap(EventStructure, small_structures(3)):
        if structure.events:
            assert structure.terminals


def test_causally_related_events_never_conflict():
    for structure in starmap(EventStructure, small_structures(3)):
        for x, y in structure.causality.pairs:
            if x != y:
                assert (x, y) not in structure.conflict.pairs
