import pytest

import esfg.bijection as bijection_mod
import esfg.verify as verify_mod
from esfg import EventStructure, Relation, run_theorem_suite


def test_suite_passes_at_small_sizes():
    outcome = run_theorem_suite(3)
    assert outcome.passed
    assert [(check.name, check.passed, check.detail) for check in outcome.checks] == [
        ("representation-built-for-every-structure", True, "47 structures"),
        ("one-family-certifies-both-sides", True, "47 structures"),
        ("conversions-round-trip", True, "47 structures"),
        ("complement-is-a-bijection-per-order", True, "24 orders"),
        ("counts-agree-on-both-paths", True, "sizes 0..3"),
        ("oracle-agrees-with-validity-check", True, "217 relation pairs"),
    ]


def test_suite_catches_a_dropped_edge_set(monkeypatch):
    """The count check sums the lists the bijection check uses; losing one
    graph-side edge set must fail both, not neither."""
    original = verify_mod.enumerate_fullgraph_edge_sets
    dropped = []

    def drop_one(base):
        found = original(base)
        if found and not dropped:
            dropped.append(found[-1])
            return found[:-1]
        return found

    monkeypatch.setattr(verify_mod, "enumerate_fullgraph_edge_sets", drop_one)
    outcome = run_theorem_suite(2)
    assert len(dropped) == 1
    failed = {check.name for check in outcome.checks if not check.passed}
    assert failed == {
        "complement-is-a-bijection-per-order",
        "counts-agree-on-both-paths",
    }


def test_suite_catches_a_broken_round_trip(monkeypatch):
    """fg_to_es losing one conflict pair on one structure fails the
    round-trip check, and only it."""
    original = verify_mod.fg_to_es
    broken = []

    def drop_a_conflict(graph):
        structure = original(graph)
        if structure.conflict.pairs and not broken:
            a, b = min(structure.conflict.pairs)
            broken.append((a, b))
            dropped = Relation(structure.conflict.universe, {(a, b), (b, a)})
            return EventStructure(structure.causality, structure.conflict - dropped)
        return structure

    monkeypatch.setattr(verify_mod, "fg_to_es", drop_a_conflict)
    outcome = run_theorem_suite(2)
    assert len(broken) == 1
    failed = {check.name for check in outcome.checks if not check.passed}
    assert failed == {"conversions-round-trip"}


def test_suite_catches_a_family_that_does_not_certify_the_pair(monkeypatch):
    """The witness check reads the certificate ``es_to_fg`` attaches.  A
    builder handing back the family of the order without conflict (so
    every incomparable pair overlaps) certifies no structure with a
    conflict, and that must fail the witness check, and only it."""
    original = bijection_mod.build_representation

    def conflict_free(causality, conflict):
        return original(causality, Relation(conflict.universe))

    monkeypatch.setattr(bijection_mod, "build_representation", conflict_free)
    outcome = run_theorem_suite(2)
    failed = {check.name: check.detail for check in outcome.checks if not check.passed}
    assert list(failed) == ["one-family-certifies-both-sides"]
    assert failed["one-family-certifies-both-sides"].startswith(
        "D=[(0, 0), (1, 1)] U=[(0, 1), (1, 0)]"
    )


def test_suite_rejects_oversized_requests():
    with pytest.raises(ValueError):
        run_theorem_suite(7)
