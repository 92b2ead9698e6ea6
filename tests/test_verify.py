from itertools import product

import pytest

import esfg.verify as verify_mod
from esfg import (
    EventStructure,
    FullGraphError,
    Relation,
    count_es,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
    enumerate_partial_orders,
    es_to_fg,
    fg_to_es,
    find_representation_bruteforce,
    is_event_structure,
    run_theorem_suite,
    verify_bijection,
)
from esfg.verify import CheckResult

from . import reference


def reference_suite(n):
    """The suite as a loop over ``Relation`` objects: the conversions, the
    builder's certificates and ``verify_bijection`` on every order that
    ``enumerate_partial_orders`` lists (the mask pass's reference)."""
    build_bad, witness_bad, roundtrip_bad, bijection_bad, count_bad = [], [], [], [], []
    structures = orders = 0
    for k in range(n + 1):
        fg_total = 0
        for order in enumerate_partial_orders(k):
            orders += 1
            conflicts = enumerate_admissible_conflicts(order)
            edge_sets = enumerate_fullgraph_edge_sets(order)
            fg_total += len(edge_sets)
            report = verify_bijection(order)
            if not report.all_hold or report.x_size != report.y_size:
                bijection_bad.append(f"order {sorted(order.pairs)}")
            for conflict in conflicts:
                structures += 1
                tag = f"D={sorted(order.pairs)} U={sorted(conflict.pairs)}"
                structure = EventStructure(order, conflict)
                try:
                    graph = es_to_fg(structure)
                except FullGraphError as exc:
                    witness_bad.append(f"{tag}: {exc}")
                    continue
                except ValueError as exc:
                    build_bad.append(f"{tag}: {exc}")
                    continue
                if graph.certificate is None:
                    witness_bad.append(tag)
                if fg_to_es(graph) != structure:
                    roundtrip_bad.append(tag)
        if count_es(k) != fg_total:
            count_bad.append(f"n={k}: es={count_es(k)} fg={fg_total}")
    oracle_bad = []
    scanned = 0
    for k in range(min(n, 2) + 1):
        relations = [Relation(k, r) for r in reference.all_relations(k)]
        for base, conflict in product(relations, relations):
            if not set(conflict.field) <= set(base.field):
                continue
            scanned += 1
            found = find_representation_bruteforce(base, conflict, k * k)
            if (found is not None) != is_event_structure(base, conflict):
                oracle_bad.append(f"D={sorted(base.pairs)} U={sorted(conflict.pairs)}")
    outcomes = (
        ("representation-built-for-every-structure", build_bad, f"{structures} structures"),
        ("one-family-certifies-both-sides", witness_bad, f"{structures} structures"),
        ("conversions-round-trip", roundtrip_bad, f"{structures} structures"),
        ("complement-is-a-bijection-per-order", bijection_bad, f"{orders} orders"),
        ("counts-agree-on-both-paths", count_bad, f"sizes 0..{n}"),
        ("oracle-agrees-with-validity-check", oracle_bad, f"{scanned} relation pairs"),
    )
    return tuple(
        CheckResult(name, not bad, "; ".join(bad[:3]) if bad else ok)
        for name, bad, ok in outcomes
    )


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


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)]
)
def test_mask_pass_agrees_with_the_object_loop(n):
    assert run_theorem_suite(n).checks == reference_suite(n)


def test_suite_catches_a_dropped_edge_set(monkeypatch):
    """The count check sums the lists the bijection check uses; losing one
    graph-side edge set must fail both, not neither.  The edge set is
    dropped from the graph side's listing, the one run from the top bit
    down, on the first order with a rule, 2 below 0 on three events, and
    the bijection failure names that order by its sorted pairs."""
    original = verify_mod._closed_masks
    dropped = []

    def drop_one(needs, order, start=0):
        order = list(order)
        found = original(needs, order, start)
        if any(needs) and order[0] > order[-1] and not dropped:
            dropped.append(found[-1])
            return found[:-1]
        return found

    monkeypatch.setattr(verify_mod, "_closed_masks", drop_one)
    outcome = run_theorem_suite(3)
    assert len(dropped) == 1
    failed = {check.name: check.detail for check in outcome.checks if not check.passed}
    assert failed == {
        "complement-is-a-bijection-per-order": "order [(0, 0), (1, 1), (2, 0), (2, 2)]",
        "counts-agree-on-both-paths": "n=3: es=41 fg=40",
    }


def test_suite_catches_a_broken_round_trip(monkeypatch):
    """The row complement that maps a full graph back losing one conflict
    pair on one structure fails the round-trip check, and only it."""
    original = verify_mod._complement_rows
    broken = []

    def drop_a_conflict(square, rows):
        back = original(square, rows)
        if any(back) and not broken:
            a = next(v for v, row in enumerate(back) if row)
            b = (back[a] & -back[a]).bit_length() - 1
            broken.append((a, b))
            back[a] &= ~(1 << b)
            back[b] &= ~(1 << a)
        return back

    monkeypatch.setattr(verify_mod, "_complement_rows", drop_a_conflict)
    outcome = run_theorem_suite(2)
    assert len(broken) == 1
    failed = {check.name for check in outcome.checks if not check.passed}
    assert failed == {"conversions-round-trip"}


def test_suite_catches_a_family_that_does_not_certify_the_pair(monkeypatch):
    """A builder that ignores T hands back the family with no edge labels
    (so every incomparable pair is disjoint).  It certifies no structure
    with a concurrent pair, and that must fail the witness check, and
    only it."""
    original = verify_mod._label_masks

    def edge_free(above, edges):
        return original(above, [0] * len(edges))

    monkeypatch.setattr(verify_mod, "_label_masks", edge_free)
    outcome = run_theorem_suite(2)
    failed = {check.name: check.detail for check in outcome.checks if not check.passed}
    assert list(failed) == ["one-family-certifies-both-sides"]
    assert failed["one-family-certifies-both-sides"].startswith("D=[(0, 0), (1, 1)] U=[]")


@pytest.mark.parametrize(
    "spoil",
    [
        lambda masks: masks[:1] * len(masks),  # one set for every event
        lambda masks: masks[:-1] + [0],  # the last event's set empty
    ],
    ids=["not-injective", "empty-set"],
)
def test_suite_catches_a_builder_family_that_is_no_family(monkeypatch, spoil):
    """Two events sharing a set, or an event with the empty set, fail the
    build check on the first structure with two events."""
    original = verify_mod._label_masks

    def spoiled(above, edges):
        masks, count = original(above, edges)
        return (spoil(masks) if len(masks) == 2 else masks), count

    monkeypatch.setattr(verify_mod, "_label_masks", spoiled)
    outcome = run_theorem_suite(2)
    built = outcome.checks[0]
    assert built.name == "representation-built-for-every-structure"
    assert not built.passed
    assert built.detail.startswith("D=[(0, 0), (1, 1)] U=[];")


def test_suite_catches_an_oracle_that_misses_every_conflict(monkeypatch):
    """An oracle that finds no family once there is a conflict misses the
    one event structure on at most 2 points with one, and the oracle check
    names it by its sorted pairs, and only it fails."""
    original = verify_mod.find_representation_bruteforce

    def conflict_blind(causality, conflict, label_bound):
        return None if len(conflict) else original(causality, conflict, label_bound)

    monkeypatch.setattr(verify_mod, "find_representation_bruteforce", conflict_blind)
    outcome = run_theorem_suite(2)
    failed = {check.name: check.detail for check in outcome.checks if not check.passed}
    assert failed == {
        "oracle-agrees-with-validity-check": "D=[(0, 0), (1, 1)] U=[(0, 1), (1, 0)]"
    }


def test_suite_rejects_oversized_requests():
    with pytest.raises(ValueError):
        run_theorem_suite(7)


@pytest.mark.slow
def test_suite_passes_at_n6():
    outcome = run_theorem_suite(6)
    assert [(check.name, check.passed, check.detail) for check in outcome.checks] == [
        ("representation-built-for-every-structure", True, "3570320 structures"),
        ("one-family-certifies-both-sides", True, "3570320 structures"),
        ("conversions-round-trip", True, "3570320 structures"),
        ("complement-is-a-bijection-per-order", True, "134497 orders"),
        ("counts-agree-on-both-paths", True, "sizes 0..6"),
        ("oracle-agrees-with-validity-check", True, "217 relation pairs"),
    ]
