"""The exhaustive set-family search: its candidate stream and Venn tables
against bare references, its refusals, a differential check against a
bare reference search in causes-first order, and golden digests of
every family it returns on the 3-point and 4-point sweeps, with their
candidate counts."""

import hashlib
import random
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

import esfg.familysearch
from esfg import (
    Relation,
    enumerate_partial_orders,
    find_fg_representation_bruteforce,
    find_representation_bruteforce,
    is_event_structure,
    is_fg_representation,
    is_full_graph,
)
from esfg.familysearch import _ascending_submasks, _venn_widths, search_set_family
from esfg.representation import is_representation
from esfg.setfamily import _find_family

from . import reference

# sha256 over every family returned on the 3-point sweeps at label bound 9
# (recipe in ``_digest``).  A pruning rule may speed the search up, but it
# must return exactly these families.
ES_SWEEP_DIGEST = "eb42a4e41c9a7d9fbb46cf67a810ded94348d84db93b12e737d0ebc6b1c5e211"
FG_SWEEP_DIGEST = "ce0718282c2f5c35dae5e50860e52806f81f7df5e551b96695bbd4935d3a4c2d"
# The same over the 4-point searches at label bound 10, in
# ``square_candidates(4)`` order.
ES_FOUR_POINT_DIGEST = "083905363ebb2f19cf078591eed40d761ff7126963bac045402da66349957cdb"
FG_FOUR_POINT_DIGEST = "49bb82c529837d35f6bc6d1d856ad59fbf12914f56f33880dad25e73d2b68cd9"


def square_candidates(n):
    """Every order on n points, each against every symmetric subset of
    its incomparable pairs, as relations."""
    return [
        (order, Relation(n, second))
        for order in enumerate_partial_orders(n)
        for second in reference.symmetric_relations(n, order.sym_complement().pairs)
    ]


def reference_search(order, containment, second, *, overlap, bound):
    """The definition, searched naively: each event tries every nonempty
    mask below ``2 ** bound`` in ascending order, kept when it is new and
    every clause holds in both directions against the assigned prefix and
    against itself.  No interval bounds, no symmetry rule."""

    def clauses_hold(x, mx, y, my):
        inter = mx & my
        if overlap:
            related = inter != 0 and inter != mx and inter != my
        else:
            related = inter == 0
        return ((x, y) in containment) == ((mx | my) == mx) and (
            (x, y) in second
        ) == related

    assigned = []

    def extend(level):
        if level == len(order):
            return True
        y = order[level]
        for my in range(1, 1 << bound):
            if any(my == mx for _, mx in assigned):
                continue
            if all(
                clauses_hold(x, mx, y, my) and clauses_hold(y, my, x, mx)
                for x, mx in assigned + [(y, my)]
            ):
                assigned.append((y, my))
                if extend(level + 1):
                    return True
                assigned.pop()
        return False

    if not extend(0):
        return None
    return {x: frozenset(b for b in range(bound) if mx >> b & 1) for x, mx in assigned}


def reference_causes_first_order(events, containment):
    """The quadratic rescan: take the first waiting event, in the order
    given, none of whose strict sources is still waiting, until none is
    ready."""
    waiting = list(dict.fromkeys(events))
    strict = {(a, b) for a, b in containment if a != b}
    order = []
    while waiting:
        ready = [v for v in waiting if not any((u, v) in strict for u in waiting)]
        if not ready:
            break
        order.append(ready[0])
        waiting.remove(ready[0])
    return order + waiting


def count_candidates(monkeypatch):
    """Count the candidates the search's stream yields, in
    ``counter.yielded``."""
    counter = SimpleNamespace(yielded=0)
    original = esfg.familysearch._ascending_submasks

    def counted(low, high):
        for mask in original(low, high):
            counter.yielded += 1
            yield mask

    monkeypatch.setattr(esfg.familysearch, "_ascending_submasks", counted)
    return counter


def test_ascending_submasks_is_the_sorted_filter():
    pairs = [(0, 0), (0, 1), (0, 0b1011), (0b10, 0b1110), (0b101, 0b101), (1, 0b111111)]
    for low, high in pairs:
        expected = [m for m in range(high + 1) if m & low == low and m & ~high == 0]
        assert list(_ascending_submasks(low, high)) == expected


def test_a_wide_label_bound_is_not_materialised():
    found = find_representation_bruteforce(Relation(1, {(0, 0)}), Relation(1), 64)
    assert dict(found.items()) == {0: frozenset({0})}


def test_no_labels_give_no_family():
    assert search_set_family([1], [0], second_overlap=False, label_bound=0) is None
    assert search_set_family([1], [0], second_overlap=True, label_bound=0) is None


def realised_patterns(k, label_bound, overlap):
    """The patterns that some k distinct nonempty masks below
    ``2 ** label_bound`` realise, read off every ordered choice of masks:
    for each pair s < t, in ``combinations`` order and three bits each,
    1 if s holds t, 2 if t holds s, 4 if they are disjoint (or properly
    overlap, with ``overlap``)."""
    pairs = list(enumerate(combinations(range(k), 2)))
    realised = set()
    for sets in permutations(range(1, 1 << label_bound), k):
        pattern = 0
        for p, (s, t) in pairs:
            a, b = sets[s], sets[t]
            inter = a & b
            related = inter not in (0, a, b) if overlap else inter == 0
            pattern |= ((a | b == a) | (a | b == b) << 1 | related << 2) << 3 * p
        realised.add(pattern)
    return realised


def table_verdicts(k, label_bound, overlap):
    return {p for p, width in _venn_widths(k, overlap).items() if width <= label_bound}


def test_pair_table_is_the_brute_force_at_every_bound():
    """Two sets have three Venn regions, so three labels realise every
    pattern a pair can show: the table agrees with every pair of distinct
    nonempty masks below 2 ** label_bound, up to 5 labels."""
    for label_bound in range(1, 6):
        for overlap in (False, True):
            assert table_verdicts(2, label_bound, overlap) == realised_patterns(
                2, label_bound, overlap
            ), (label_bound, overlap)


@pytest.mark.parametrize(
    "label_bound",
    [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow), pytest.param(7, marks=pytest.mark.slow)],
)
def test_triple_table_is_the_brute_force_at_every_bound(label_bound):
    """Three sets have seven Venn regions, so seven labels give every
    region subset a label each: the table agrees with every ordered triple
    of distinct nonempty masks below 2 ** label_bound, in both modes."""
    for overlap in (False, True):
        assert table_verdicts(3, label_bound, overlap) == realised_patterns(
            3, label_bound, overlap
        ), overlap


def test_an_unsatisfiable_pair_is_rejected_before_any_candidate(monkeypatch):
    """f(2) >= f(1) with 1 and 2 in conflict holds for no two nonempty
    sets, whatever the other events do."""
    counter = count_candidates(monkeypatch)
    causality = Relation(3, {(0, 0), (1, 1), (2, 2), (2, 1)})
    conflict = Relation(3, {(1, 2), (2, 1)})
    assert find_representation_bruteforce(causality, conflict, 9) is None
    assert counter.yielded == 0


def test_the_key_order_does_not_matter(monkeypatch):
    """A chain given its keys ascending, descending or shuffled, each a
    relabelling of the search's positions: the search assigns
    causes-first whatever the order it is given, so it returns the same
    family from the same number of candidates."""
    counter = count_candidates(monkeypatch)
    candidates = {1: 2, 2: 7, 3: 24, 4: 101, 5: 550}
    for k, overlap in product(range(1, 6), (False, True)):
        chain = {(a, b) for a in range(k) for b in range(a, k)}  # a holds b
        shuffled = list(range(k))
        random.Random(k).shuffle(shuffled)
        tried = []
        for keys in (range(k), reversed(range(k)), shuffled):
            counter.yielded = 0
            found = reference.keyed_search(
                search_set_family, keys, chain, (), second_overlap=overlap, label_bound=k + 2
            )
            assert found == {v: frozenset(range(k - v)) for v in range(k)}
            tried.append(counter.yielded)
        assert tried == [candidates[k]] * 3, (k, overlap)


def test_a_containment_that_is_no_order_is_refused_before_any_candidate(monkeypatch):
    """The search orders its positions causes-first only after its
    refusals, which must leave containment a partial order on the keys:
    every other relation on up to 3 points is refused before a candidate
    is tried, in both modes."""
    counter = count_candidates(monkeypatch)
    searched = 0
    for n in range(4):
        for containment in reference.all_relations(n):
            if all((v, v) in containment for v in range(n)) and reference.is_partial_order(
                containment
            ):
                continue
            for overlap in (False, True):
                found = reference.keyed_search(
                    search_set_family,
                    reversed(range(n)),
                    containment,
                    (),
                    second_overlap=overlap,
                    label_bound=9,
                )
                assert found is None, (containment, overlap)
                searched += 1
    assert searched == 1014
    assert counter.yielded == 0


def test_overlap_search_does_not_depend_on_the_labelling(monkeypatch):
    """({0<1}, T={2-3}) on 4 points needs five labels: two for the nested
    pair, three for the overlapping one, and the two pairs are unrelated,
    hence disjoint.  Every pair and triple fits in four labels, so at
    bound 4 the search itself must prove that no family exists.  Every
    relabelling must do so from a few dozen candidates: an event unrelated
    to an assigned one is kept disjoint from it at once."""
    counter = count_candidates(monkeypatch)
    directed = {(v, v) for v in range(4)} | {(0, 1)}
    undirected = {(2, 3), (3, 2)}
    tried = []
    for p in permutations(range(4)):
        counter.yielded = 0
        found = find_fg_representation_bruteforce(
            Relation(4, {(p[a], p[b]) for a, b in directed}),
            Relation(4, {(p[a], p[b]) for a, b in undirected}),
            4,
        )
        assert found is None
        tried.append(counter.yielded)
    assert min(tried) > 0
    assert max(tried) <= 100
    assert max(tried) <= 2 * min(tried)
    family = find_fg_representation_bruteforce(Relation(4, directed), Relation(4, undirected), 5)
    assert family is not None


def test_search_matches_the_reference_search():
    """The search, given its keys reversed with one repeated and a
    containment pair to a key outside (the row reader drops both), against
    the reference search in causes-first order over those positions."""
    cases = [
        (n, containment, second, bound)
        for n in range(3)
        for containment, second in product(reference.all_relations(n), repeat=2)
        for bound in range(1, 5)
    ]
    cases += [
        (3, order, second, 3)
        for order in reference.partial_orders(3)
        for second in reference.symmetric_relations(3)
    ]
    for n, containment, second, bound in cases:
        keys = list(reversed(range(n)))
        keys += keys[:1]
        order = reference_causes_first_order(keys, containment)
        for overlap in (False, True):
            found = reference.keyed_search(
                search_set_family,
                keys,
                containment | {(0, n)},
                second,
                second_overlap=overlap,
                label_bound=bound,
            )
            expected = reference_search(order, containment, second, overlap=overlap, bound=bound)
            assert found == expected, (containment, second, bound, overlap)


def test_find_family_reads_the_rows_the_pairs_give():
    """``_find_family`` reads its rows with ``relation._rows`` over the
    sorted vertices of both relations, remapping any field that differs
    from them.  Every order on 3 points moved onto {1, 3, 4}, against
    every symmetric relation on those points (its field any subset of
    theirs) and one reaching vertex 5, equals the search on rows read
    from the pairs."""
    moved = {0: 1, 1: 3, 2: 4}
    def move(pairs):
        return Relation(6, {(moved[a], moved[b]) for a, b in pairs})

    orders = [move(o) for o in reference.partial_orders(3)]
    seconds = [move(r) for r in reference.symmetric_relations(3)]
    seconds.append(Relation(6, {(3, 5), (5, 3)}))
    for overlap in (False, True):
        representable = 0
        for order, second in product(orders, seconds):
            found = _find_family(order, second, 6, overlap=overlap)
            expected = reference.keyed_search(
                search_set_family,
                sorted({*order.field, *second.field}),
                order.pairs,
                second.pairs,
                second_overlap=overlap,
                label_bound=6,
            )
            read = None if found is None else dict(found.items())
            assert read == expected, (order, second, overlap)
            representable += found is not None
        assert representable == 41, overlap


def _digest(families):
    h = hashlib.sha256()
    for family in families:
        entries = None
        if family is not None:
            entries = [(k, sorted(v)) for k, v in family.items()]
        h.update(repr(entries).encode() + b"\n")
    return h.hexdigest()


def es_sweep():
    """The 1216 ES searches: every order on 3 points against every
    symmetric relation on 3 points."""
    return [
        find_representation_bruteforce(order, Relation(3, conflict), 9)
        for order in enumerate_partial_orders(3)
        for conflict in reference.symmetric_relations(3)
    ]


def fg_sweep():
    """The FG searches: every order on 3 points against every symmetric
    subset of its incomparability square."""
    return [
        find_fg_representation_bruteforce(order, undirected, 9)
        for order, undirected in square_candidates(3)
    ]


def test_es_sweep_returns_the_golden_families(monkeypatch):
    counter = count_candidates(monkeypatch)
    families = es_sweep()
    assert len(families) == 1216
    assert sum(f is not None for f in families) == 41
    assert _digest(families) == ES_SWEEP_DIGEST
    assert counter.yielded == 933


def test_fg_sweep_returns_the_golden_families(monkeypatch):
    counter = count_candidates(monkeypatch)
    families = fg_sweep()
    assert sum(f is not None for f in families) == 41
    assert _digest(families) == FG_SWEEP_DIGEST
    assert counter.yielded == 933


def test_every_absence_on_four_points_is_refused_before_any_candidate(monkeypatch):
    """Each validity conjunct of an event structure names at most three
    events, so every pair on 4 points that the validity check (or, on the
    graph side, recognition) rejects fails the Venn table of some pair or
    triple, and its search returns None before it tries a candidate."""
    counter = count_candidates(monkeypatch)
    sides = [
        (find_representation_bruteforce, is_event_structure),
        (find_fg_representation_bruteforce, is_full_graph),
    ]
    for find, valid in sides:
        absent = [(order, t) for order, t in square_candidates(4) if not valid(order, t)]
        assert len(absent) == 1784 - 916
        for order, second in absent:
            assert find(order, second, 10) is None, (order, second)
        assert counter.yielded == 0


def test_es_oracle_agrees_with_the_validity_check_on_four_points(monkeypatch):
    """Every order on 4 points against every symmetric relation on its
    incomparable pairs, with 10 = 4 * 5 / 2 labels."""
    counter = count_candidates(monkeypatch)
    cases = square_candidates(4)
    assert len(cases) == 1784
    families = [find_representation_bruteforce(order, conflict, 10) for order, conflict in cases]
    for family, (order, conflict) in zip(families, cases):
        assert (family is not None) == is_event_structure(order, conflict), (order, conflict)
        if family is not None:
            assert is_representation(family, order, conflict)
    assert sum(f is not None for f in families) == 916
    assert _digest(families) == ES_FOUR_POINT_DIGEST
    assert counter.yielded == 78219


def test_fg_oracle_agrees_with_recognition_on_four_points(monkeypatch):
    """The full-graph twin of the test above: every order on 4 points
    against every symmetric subset of its incomparable pairs, bound 10."""
    counter = count_candidates(monkeypatch)
    cases = square_candidates(4)
    assert len(cases) == 1784
    families = [
        find_fg_representation_bruteforce(order, undirected, 10) for order, undirected in cases
    ]
    for family, (order, undirected) in zip(families, cases):
        assert (family is not None) == is_full_graph(order, undirected), (order, undirected)
        if family is not None:
            assert is_fg_representation(family, order, undirected)
    assert sum(f is not None for f in families) == 916
    assert _digest(families) == FG_FOUR_POINT_DIGEST
    assert counter.yielded == 78219
