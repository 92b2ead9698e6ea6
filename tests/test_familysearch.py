"""The exhaustive set-family search: its candidate stream, its event
order, a differential check against a bare reference search, and a golden
digest of every family it returns on the 3-point sweep."""

import hashlib
from itertools import permutations, product

import esfg.familysearch
from esfg import (
    Relation,
    enumerate_partial_orders,
    find_fg_representation_bruteforce,
    find_representation_bruteforce,
)
from esfg.familysearch import (
    _ascending_submasks,
    causes_first_order,
    search_set_family,
)
from esfg.relation import pairs_key

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


def test_overlap_search_does_not_depend_on_the_labelling(monkeypatch):
    """({0<1}, T={1-2}) has no fg-representation.  Every relabelling must
    find that out from a few thousand candidates: the event unrelated to
    the first one is kept disjoint from it at once.  Without that bound
    this labelling tried 515,582 candidates and its relabellings 6,124;
    with it, and only lowest-first fresh labels generated, 1,946 and
    1,058."""
    yielded = 0
    original = esfg.familysearch._ascending_submasks

    def counted(low, high):
        nonlocal yielded
        for mask in original(low, high):
            yielded += 1
            yield mask

    monkeypatch.setattr(esfg.familysearch, "_ascending_submasks", counted)
    directed = {(0, 0), (1, 1), (2, 2), (0, 1)}
    undirected = {(1, 2), (2, 1)}
    tried = []
    for p in permutations(range(3)):
        yielded = 0
        found = find_fg_representation_bruteforce(
            Relation(3, {(p[a], p[b]) for a, b in directed}),
            Relation(3, {(p[a], p[b]) for a, b in undirected}),
            9,
        )
        assert found is None
        tried.append(yielded)
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
