import hashlib
import random
from itertools import combinations, product

import pytest

import esfg.representation as representation_mod
import esfg.setfamily as setfamily_mod
from esfg import (
    EventStructureError,
    Relation,
    RepresentationCertificate,
    SetFamily,
    build_representation,
    enumerate_partial_orders,
    es_failures,
    extend_with_terminal,
    find_fg_representation_bruteforce,
    find_representation_bruteforce,
    is_representation,
    representation_document,
    serialize_document,
    structure_from_representation,
    terminal_events,
)
from esfg.relation import _rows, _strict_rows
from esfg.representation import _label_masks

from . import reference
from .strategies import small_structures

#: Causality on {0} and a conflict between 1 and 2, which are no events:
#: a family keyed by 0 alone must certify nothing about them.
LONE = Relation(3, {(0, 0)})
OUTSIDE = Relation(3, {(1, 2), (2, 1)})


def all_small_families():
    """Every family with keys within {0,1,2} and labels within {0,1,2}."""
    labels = [frozenset(s) for k in range(4) for s in combinations(range(3), k)]
    for size in range(4):
        for keys in combinations(range(3), size):
            for values in product(labels, repeat=size):
                yield SetFamily(zip(keys, values))


def test_is_representation_examples():
    assert is_representation(SetFamily(), Relation(0), Relation(0))
    family = SetFamily({0: {0, 1}, 1: {1}})
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert is_representation(family, chain, Relation(2))
    assert reference.certifies(family, chain.pairs, frozenset(), overlap=False)
    shared = SetFamily({0: {0}, 1: {0}})
    assert not is_representation(shared, Relation(2, {(0, 0), (1, 1)}), Relation(2))


def test_extend_with_terminal_examples():
    grown = extend_with_terminal(SetFamily(), Relation(1, {(0, 0)}), Relation(1), 0)
    assert grown == SetFamily({0: {0}})

    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    grown = extend_with_terminal(SetFamily({0: {0}}), chain, Relation(2), 1)
    assert grown == SetFamily({0: {0, 1}, 1: {1}})

    discrete = Relation(2, {(0, 0), (1, 1)})
    grown = extend_with_terminal(SetFamily({1: {0}}), discrete, Relation(2), 0)
    assert grown == SetFamily({0: {1, 2}, 1: {0, 1}})


def test_extend_with_terminal_precondition_errors():
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    with pytest.raises(ValueError, match="not terminal"):
        extend_with_terminal(SetFamily({1: {0}}), chain, Relation(2), 0)
    with pytest.raises(ValueError, match="already a key"):
        extend_with_terminal(SetFamily({1: {0}}), chain, Relation(2), 1)
    with pytest.raises(ValueError, match="conflicts with itself"):
        extend_with_terminal(
            SetFamily({0: {0}}), chain, Relation(2, {(1, 1)}), 1
        )
    with pytest.raises(ValueError, match="empty set"):
        extend_with_terminal(SetFamily({0: set()}), chain, Relation(2), 1)


def test_extend_with_terminal_rejects_a_cyclic_causality():
    """0 and 1 cause each other, so once the terminal 2 is peeled off no
    event is left with nothing above it."""
    cycle = Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)})
    with pytest.raises(ValueError, match="^the causality order has a cycle$"):
        extend_with_terminal(SetFamily({0: {0}, 1: {1}}), cycle, Relation(3), 2)


def test_extend_with_terminal_rejects_a_family_of_another_structure():
    """0 causes 1, but the family puts 1's set around 0's; the labels that
    attaching 2 adds cannot turn that round."""
    chain = Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1)})
    with pytest.raises(ValueError, match="did not yield a representation"):
        extend_with_terminal(SetFamily({0: {0}, 1: {0, 1}}), chain, Relation(3), 2)


def test_a_certificate_refuses_a_label_at_its_bound():
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    cert = build_representation(chain, Relation(2))
    assert cert.family.labels == (0, 1) and cert.fresh_label_bound == 2
    with pytest.raises(ValueError, match="at or above the stated bound"):
        RepresentationCertificate(cert.family, chain, Relation(2), 1)


def test_extend_with_terminal_rejects_a_conflict_on_no_event():
    discrete = Relation(3, {(0, 0), (1, 1)})
    with pytest.raises(ValueError, match="not an event"):
        extend_with_terminal(SetFamily({0: {0}}), discrete, OUTSIDE, 1)


def test_build_representation_examples():
    cert = build_representation(Relation(0), Relation(0))
    assert len(cert.family) == 0 and cert.fresh_label_bound == 0

    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert build_representation(chain, Relation(2)).family == SetFamily(
        {0: {0, 1}, 1: {1}}
    )

    discrete = Relation(2, {(0, 0), (1, 1)})
    clash = Relation(2, {(0, 1), (1, 0)})
    assert build_representation(discrete, clash).family == SetFamily({0: {1}, 1: {0}})


def test_build_representation_rejects_invalid_input():
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    clash = Relation(2, {(0, 1), (1, 0)})
    with pytest.raises(EventStructureError) as err:
        build_representation(chain, clash)
    assert "conflict-not-propagating" in err.value.failures


def test_build_is_deterministic():
    order = Relation(3, {(0, 0), (1, 1), (2, 2), (0, 1)})
    conflict = Relation(3, {(0, 2), (2, 0), (1, 2), (2, 1)})
    first = build_representation(order, conflict)
    second = build_representation(order, conflict)
    assert first.family == second.family
    assert first.fresh_label_bound == second.fresh_label_bound


def test_bruteforce_examples():
    assert find_representation_bruteforce(
        Relation(1, {(0, 0)}), Relation(1), 1
    ) == SetFamily({0: {0}})

    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    clash = Relation(2, {(0, 1), (1, 0)})
    assert find_representation_bruteforce(chain, clash, 9) is None

    discrete = Relation(2, {(0, 0), (1, 1)})
    found = find_representation_bruteforce(discrete, Relation(2), 4)
    assert found is not None
    assert is_representation(found, discrete, Relation(2))
    assert found.is_injective()
    assert frozenset() not in set(found.values())
    assert found.keys == (0, 1)
    # deterministic: repeat runs return the same family
    assert found == find_representation_bruteforce(discrete, Relation(2), 4)


def test_oracles_find_no_family_for_a_conflict_on_no_event():
    """Both relations' vertices are keys, so 1 and 2 need sets; no set can
    contain itself without (1, 1) in causality, and the search says so."""
    assert find_representation_bruteforce(LONE, OUTSIDE, 4) is None
    assert find_fg_representation_bruteforce(LONE, OUTSIDE, 4) is None


def test_certificate_keys_are_the_vertices_of_both_relations():
    assert es_failures(LONE, OUTSIDE) == ("conflict-events-outside-causality",)
    assert not reference.certifies({0: frozenset({0})}, LONE.pairs, OUTSIDE.pairs, overlap=False)
    with pytest.raises(ValueError, match="keys-differ-from-vertices"):
        RepresentationCertificate(SetFamily({0: {0}}), LONE, OUTSIDE, 1)


def test_structure_flags_examples():
    assert structure_from_representation(SetFamily(), Relation(0), Relation(0)).all_hold

    family = SetFamily({0: {0, 1}, 1: {1}})
    chain = Relation(2, {(0, 0), (1, 1), (0, 1)})
    assert structure_from_representation(family, chain, Relation(2)).all_hold

    # non-injective probe: both directions of containment hold, so the
    # derived order is not antisymmetric, but the implication is vacuous
    shared = SetFamily({0: {0}, 1: {0}})
    loop = Relation(2, {(0, 0), (1, 1), (0, 1), (1, 0)})
    flags = structure_from_representation(shared, loop, Relation(2))
    assert flags.all_hold
    assert not loop.is_antisymmetric and not shared.is_injective()


def test_structure_flags_rejects_non_representations():
    with pytest.raises(ValueError):
        structure_from_representation(
            SetFamily({0: {0}}), Relation(1), Relation(1)
        )
    with pytest.raises(ValueError):
        structure_from_representation(
            SetFamily(), Relation(1, {(0, 0)}), Relation(1)
        )


def test_soundness_exhaustive_over_small_families():
    """Derive the containment/disjointness relations from every family with
    keys and labels within {0,1,2}; the structural consequences must hold."""
    checked = 0
    for family in all_small_families():
        order, conflict = (Relation(3, r) for r in reference.realised(family, overlap=False))
        assert is_representation(family, order, conflict)
        assert structure_from_representation(family, order, conflict).all_hold
        checked += 1
    assert checked == 729


def test_completeness_and_growth_on_small_structures():
    """Replaying the peel order: each extension step grows every existing
    set, adds one fresh label per concurrent event plus a closing label,
    and the final family is a valid certificate.  The event attached i-th
    has at most i - 1 concurrent events, so it brings at most i labels,
    and n events take at most 1 + 2 + ... + n = n(n + 1)/2."""
    cases = list(small_structures(3)) + [
        (Relation(n, order), Relation(n, conflict))
        for n, order, conflict in reference.random_structures(20)
    ]
    assert max(len(order.field) for order, _ in cases) > 20
    for order, conflict in cases:
        n = len(order.field)
        peeled = []
        cur_d, cur_u = order, conflict
        while cur_d.field:
            s = terminal_events(cur_d)[0]
            peeled.append((s, cur_d, cur_u))
            cur_d = cur_d.remove_vertex_pairs(s, s)
            cur_u = cur_u.remove_vertex_pairs(s, s)
        family = SetFamily()
        for s, step_d, step_u in reversed(peeled):
            used = family.union_of_range()
            events = set(step_d.field)
            ancestors = step_d.converse().image((s,)) - {s}
            conflicting = step_u.converse().image((s,))
            concurrent = events - {s} - ancestors - conflicting
            grown = extend_with_terminal(family, step_d, step_u, s)
            before, after = dict(family.items()), dict(grown.items())
            for x in family.keys:
                assert before[x] <= after[x]
            fresh = after[s]
            assert len(fresh) == len(concurrent) + 1
            assert not fresh & used
            family = grown
        cert = build_representation(order, conflict)
        assert cert.family == family
        assert cert.fresh_label_bound <= n * (n + 1) // 2


def test_certificates_match_the_golden_digest():
    """The documents and label bounds of every structure with n <= 4, in
    enumeration order, hash to the value the step-by-step builder gave."""
    digest = hashlib.sha256()
    count = 0
    for order, conflict in small_structures(4):
        cert = build_representation(order, conflict)
        document = representation_document(order, conflict, cert.family)
        digest.update(serialize_document(document) + b"\n")
        digest.update(str(cert.fresh_label_bound).encode() + b"\n")
        count += 1
    assert count == 963
    assert (
        digest.hexdigest()
        == "341d810c674c79d33a64e666d49a179b4c4931b8c778229f0f0691d511e2e9e4"
    )


def test_label_masks_agree_with_the_reference_loop():
    """The builder's bit walks, handed T = square - U, against the loop
    over all k positions they replaced, which reads U, on every structure
    with n <= 4 and one random structure of each size from 8 to 40
    events."""
    rng = random.Random(2306)
    drawn = [reference.random_structure(rng, n) + (n,) for n in range(8, 41)]
    cases = [*small_structures(4), *((Relation(n, d), Relation(n, u)) for d, u, n in drawn)]
    for order, conflict in cases:
        events = order.field
        above, partners = _strict_rows(events, order), _rows(events, conflict)
        square = _rows(events, order.sym_complement())
        edges = [inside & ~row for inside, row in zip(square, partners)]
        assert _label_masks(above, edges) == reference.label_masks(above, partners)


def _holders(keys, sets):
    """The multiset of label-holder sets: for each label, the keys whose
    set holds it, as a sorted list of sorted tuples."""
    labels = set().union(*sets)
    return sorted(tuple(k for k, held in zip(keys, sets) if label in held) for label in labels)


def test_the_builder_family_is_the_canonical_full_graph_family():
    """Every order D with n <= 4 against every symmetric T inside its
    incomparable pairs, full graph or not: ``_label_masks(above, T)``
    gives ``reference.canonical_family(D, T)`` up to label names, one
    label per event and per edge of T."""
    seen = 0
    for n in range(5):
        for order in enumerate_partial_orders(n):
            events = order.field
            above = _strict_rows(events, order)
            for undirected in reference.symmetric_relations(n, order.sym_complement().pairs):
                masks, count = _label_masks(above, _rows(events, Relation(n, undirected)))
                assert count == n + len(undirected) // 2
                built = [{i for i in range(count) if mask >> i & 1} for mask in masks]
                canonical = reference.canonical_family(order.pairs, undirected)
                assert _holders(events, built) == _holders(
                    events, [canonical[v] for v in events]
                ), (order, undirected)
                seen += 1
    assert seen == 1840


def test_the_family_is_checked_once(monkeypatch):
    calls = []
    original = setfamily_mod.represents

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # representation.py binds its own copy of the name at import
    monkeypatch.setattr(setfamily_mod, "represents", counted)
    monkeypatch.setattr(representation_mod, "represents", counted)
    order = Relation(6, {(v, v) for v in range(6)} | {(0, 1), (2, 3), (0, 3), (2, 1)})
    conflict = Relation(6, {(4, 5), (5, 4)})
    cert = build_representation(order, conflict)
    assert len(cert.family) == 6
    assert len(calls) == 1
