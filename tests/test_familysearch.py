"""The exhaustive set-family search: its candidate stream, its event
order and pair table against bare references, a differential check
against a bare reference search, and a golden digest of every family it
returns on the 3-point sweep."""

import hashlib
from itertools import permutations, product
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
from esfg.familysearch import (
    _ascending_submasks,
    _pair_satisfiable,
    causes_first_order,
    search_set_family,
)
from esfg.relation import pairs_key
from esfg.representation import is_representation

# sha256 over every family returned on the 3-point sweeps at label bound 9
# (recipe in ``_digest``).  A pruning rule may speed the search up, but it
# must return exactly these families.
ES_SWEEP_DIGEST = "eb42a4e41c9a7d9fbb46cf67a810ded94348d84db93b12e737d0ebc6b1c5e211"
FG_SWEEP_DIGEST = "ce0718282c2f5c35dae5e50860e52806f81f7df5e551b96695bbd4935d3a4c2d"


def all_relations(n):
    cells = [(a, b) for a in range(n) for b in range(n)]
    return [
        Relation(n, (c for i, c in enumerate(cells) if mask >> i & 1))
        for mask in range(1 << len(cells))
    ]


def symmetric_relations(n, within=None):
    """Every symmetric relation on ``n`` points, or every symmetric subset
    of the pairs ``within``, by unordered-pair mask."""
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    if within is not None:
        cells = [c for c in cells if c in within]
    return [
        Relation(
            n,
            {
                pair
                for i, (a, b) in enumerate(cells)
                if mask >> i & 1
                for pair in ((a, b), (b, a))
            },
        )
        for mask in range(1 << len(cells))
    ]


def orders_on(n):
    return sorted(enumerate_partial_orders(n), key=pairs_key)


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
    """The quadratic rescan: take the smallest waiting event none of whose
    strict sources is still waiting, until none is ready."""
    waiting = sorted(set(events))
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


def test_causes_first_order_examples():
    assert causes_first_order([], []) == []
    assert causes_first_order([2, 0, 1], []) == [0, 1, 2]
    # sources first, smallest ready event first
    assert causes_first_order([0, 1, 2], [(2, 0), (1, 1), (2, 1)]) == [2, 0, 1]
    assert causes_first_order([0, 1, 2, 3], [(3, 1), (2, 0)]) == [2, 0, 3, 1]
    # pairs leaving the event set are ignored
    assert causes_first_order([0, 1], [(5, 0), (1, 0)]) == [1, 0]
    # a cycle is appended in ascending order after everything that is ready
    assert causes_first_order([0, 1, 2, 3], [(1, 0), (0, 1), (3, 2)]) == [3, 2, 0, 1]


def test_causes_first_order_matches_the_reference():
    """Every relation on up to 3 points (cycles included), read on all of
    its points, on a subset of them and with pairs to an event outside,
    repeated pairs too."""
    for n in range(4):
        cells = [(a, b) for a in range(n) for b in range(n)]
        for mask in range(1 << len(cells)):
            pairs = [c for i, c in enumerate(cells) if mask >> i & 1]
            inputs = [
                (range(n), pairs),
                (range(n), pairs + [(5, 0), (0, 5)] + pairs),
                (range(0, n, 2), pairs),
                ([n - 1 - v for v in range(n)] + [7], pairs),
            ]
            for events, containment in inputs:
                assert causes_first_order(events, containment) == reference_causes_first_order(
                    events, containment
                ), (list(events), containment)


def test_pair_table_is_the_brute_force_at_every_bound():
    """Two sets have three Venn regions, so three labels decide whether a
    pair's own clauses can hold: the table agrees with every pair of
    distinct nonempty masks below 2 ** label_bound, up to 5 labels."""
    for label_bound in range(1, 6):
        masks = range(1, 1 << label_bound)
        for overlap in (False, True):
            realised = set()
            for a, b in product(masks, repeat=2):
                if a != b:
                    inter = a & b
                    if overlap:
                        related = inter not in (0, a, b)
                    else:
                        related = inter == 0
                    realised.add((a | b == a, a | b == b, related))
            for pattern in product((False, True), repeat=3):
                assert _pair_satisfiable(*pattern, overlap=overlap, label_bound=label_bound) == (
                    pattern in realised
                ), (label_bound, overlap, pattern)


def test_an_unsatisfiable_pair_is_rejected_before_any_candidate(monkeypatch):
    """f(2) >= f(1) with 1 and 2 in conflict holds for no two nonempty
    sets, whatever the other events do."""
    counter = count_candidates(monkeypatch)
    causality = Relation(3, {(0, 0), (1, 1), (2, 2), (2, 1)})
    conflict = Relation(3, {(1, 2), (2, 1)})
    assert find_representation_bruteforce(causality, conflict, 9) is None
    assert counter.yielded == 0


def test_intervals_carry_containment_both_ways(monkeypatch):
    """A chain searched smallest set first: each event's interval already
    holds the set below it, so it tries the empty set or that repeat, then
    one fresh label, and never backtracks."""
    counter = count_candidates(monkeypatch)
    for k, overlap in product(range(1, 6), (False, True)):
        chain = {(a, b) for a in range(k) for b in range(a, k)}  # a holds b
        counter.yielded = 0
        found = search_set_family(
            list(reversed(range(k))), chain, (), second_overlap=overlap, label_bound=k + 2
        )
        assert found == {v: frozenset(range(k - v)) for v in range(k)}
        assert counter.yielded <= 2 * k


def test_overlap_search_does_not_depend_on_the_labelling(monkeypatch):
    """({0<1}, T={1-2}) has no fg-representation.  Every relabelling must
    find that out from a few thousand candidates: the event unrelated to
    the first one is kept disjoint from it at once.  Without that bound
    this labelling tried 515,582 candidates and its relabellings 6,124;
    with it, and only lowest-first fresh labels generated, 1,946 and
    1,058."""
    counter = count_candidates(monkeypatch)
    directed = {(0, 0), (1, 1), (2, 2), (0, 1)}
    undirected = {(1, 2), (2, 1)}
    tried = []
    for p in permutations(range(3)):
        counter.yielded = 0
        found = find_fg_representation_bruteforce(
            Relation(3, {(p[a], p[b]) for a, b in directed}),
            Relation(3, {(p[a], p[b]) for a, b in undirected}),
            9,
        )
        assert found is None
        tried.append(counter.yielded)
    assert tried[0] <= 4098
    assert max(tried) <= 2 * min(tried)


def test_search_matches_the_reference_search():
    cases = [
        (n, containment, second, bound)
        for n in range(3)
        for containment, second in product(all_relations(n), repeat=2)
        for bound in range(1, 5)
    ]
    cases += [
        (3, order, second, 3)
        for order in orders_on(3)
        for second in symmetric_relations(3)
    ]
    for n, containment, second, bound in cases:
        order = causes_first_order(range(n), containment.pairs)
        for overlap in (False, True):
            found = search_set_family(
                order,
                containment.pairs,
                second.pairs,
                second_overlap=overlap,
                label_bound=bound,
            )
            expected = reference_search(
                order, containment.pairs, second.pairs, overlap=overlap, bound=bound
            )
            assert found == expected, (containment, second, bound, overlap)


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
        find_representation_bruteforce(order, conflict, 9)
        for order in orders_on(3)
        for conflict in symmetric_relations(3)
    ]


def fg_sweep():
    """The FG searches: every order on 3 points against every symmetric
    subset of its incomparability square."""
    return [
        find_fg_representation_bruteforce(order, undirected, 9)
        for order in orders_on(3)
        for undirected in symmetric_relations(3, order.sym_complement().pairs)
    ]


def test_es_sweep_returns_the_golden_families():
    families = es_sweep()
    assert len(families) == 1216
    assert sum(f is not None for f in families) == 41
    assert _digest(families) == ES_SWEEP_DIGEST


def test_fg_sweep_returns_the_golden_families():
    families = fg_sweep()
    assert sum(f is not None for f in families) == 41
    assert _digest(families) == FG_SWEEP_DIGEST


@pytest.mark.slow
def test_es_oracle_agrees_with_the_validity_check_on_four_points():
    """Every order on 4 points against every symmetric relation on its
    incomparable pairs, with 10 = 4 * 5 / 2 labels."""
    cases = [
        (order, conflict)
        for order in orders_on(4)
        for conflict in symmetric_relations(4, order.sym_complement().pairs)
    ]
    assert len(cases) == 1784
    found = 0
    for order, conflict in cases:
        family = find_representation_bruteforce(order, conflict, 10)
        assert (family is not None) == is_event_structure(order, conflict), (order, conflict)
        if family is not None:
            assert is_representation(family, order, conflict)
            found += 1
    assert found == 916


@pytest.mark.slow
def test_fg_oracle_agrees_with_recognition_on_four_points():
    """The full-graph twin of the test above: every order on 4 points
    against every symmetric subset of its incomparable pairs, bound 10."""
    cases = [
        (order, undirected)
        for order in orders_on(4)
        for undirected in symmetric_relations(4, order.sym_complement().pairs)
    ]
    assert len(cases) == 1784
    found = 0
    for order, undirected in cases:
        family = find_fg_representation_bruteforce(order, undirected, 10)
        assert (family is not None) == is_full_graph(order, undirected), (order, undirected)
        if family is not None:
            assert is_fg_representation(family, order, undirected)
            found += 1
    assert found == 916
