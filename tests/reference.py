"""The definitions the tests check the package against, each written once
and literally, its docstring opening with the definition it transcribes.
Relations are frozensets of pairs over ``range(n)``, families map vertices
to frozensets of labels, and the mask-form counts at the end take an order
as its strict down-set masks, or a walk of orders.  Nothing here comes from ``esfg``
(``test_hygiene.py`` checks), so that agreeing with it proves something."""

import random
from functools import cache
from itertools import combinations
from operator import ge


def field(pairs):
    """The field of a relation: every vertex in one of its pairs."""
    return {v for pair in pairs for v in pair}


def _subsets(cells, within):
    """Every subset of ``cells`` (of those in ``within``), by mask."""
    cells = [c for c in cells if within is None or c in within]
    return [
        frozenset(c for i, c in enumerate(cells) if mask >> i & 1)
        for mask in range(1 << len(cells))
    ]


def all_relations(n, within=None):
    """Every relation on ``range(n)``, or every subset of the pairs
    ``within``, by mask over the pairs in row-major order."""
    return _subsets([(a, b) for a in range(n) for b in range(n)], within)


def symmetric_relations(n, within=None):
    """Every symmetric relation on ``range(n)``, or every symmetric subset
    of the pairs ``within``, by mask over the unordered pairs a <= b."""
    cells = [(a, b) for a in range(n) for b in range(a, n)]
    return [r | {(b, a) for a, b in r} for r in _subsets(cells, within)]


def reflexive_transitive_closure(pairs, vertices):
    """Reflexive-transitive closure over ``vertices``: the least relation
    holding ``pairs`` and (v, v) for each vertex, closed under chaining."""
    closed = set(pairs) | {(v, v) for v in vertices}
    while True:
        extra = {(a, d) for a, b in closed for c, d in closed if b == c and (a, d) not in closed}
        if not extra:
            return frozenset(closed)
        closed |= extra


def converse(pairs):
    """Converse: (y, x) for each pair (x, y)."""
    return frozenset((b, a) for a, b in pairs)


def image(pairs, sources):
    """Image: every y with (x, y) a pair for some x in ``sources``."""
    return frozenset(b for a, b in pairs if a in sources)


def override(pairs, other):
    """Override: the pairs of ``other``, and those of ``pairs`` whose
    first component is not a first component of ``other``."""
    return frozenset(other) | {(a, b) for a, b in pairs if a not in {x for x, _ in other}}


def is_reflexive_over_field(pairs):
    """Reflexive over the field: (v, v) for every vertex v of the field."""
    return all((v, v) in pairs for v in field(pairs))


def is_irreflexive(pairs):
    """Irreflexive: no pair (v, v)."""
    return all(a != b for a, b in pairs)


def is_symmetric(pairs):
    """Symmetric: (y, x) with each pair (x, y)."""
    return all((b, a) in pairs for a, b in pairs)


def is_antisymmetric(pairs):
    """Antisymmetric: (x, y) and (y, x) only when x = y."""
    return all(a == b for a, b in pairs if (b, a) in pairs)


def is_transitive(pairs):
    """Transitive: (x, y) and (y, z) give (x, z)."""
    return all((a, d) in pairs for a, b in pairs for c, d in pairs if b == c)


def is_right_unique(pairs):
    """Right-unique: at most one y for each x."""
    return all(b == d for a, b in pairs for c, d in pairs if a == c)


def is_partial_order(pairs):
    """Partial order: reflexive over its field, transitive, antisymmetric."""
    return is_reflexive_over_field(pairs) and is_transitive(pairs) and is_antisymmetric(pairs)


def covering_pairs(order):
    """Covering pairs of an order: x < y with no z such that x < z < y."""
    strict = {(a, b) for a, b in order if a != b}
    return frozenset(
        (a, b) for a, b in strict if not any((a, z) in strict and (z, b) in strict for z in field(order))
    )


def rows(keys, pairs):
    """The row form over ``keys``: bit y of row x for the pair
    (keys[x], keys[y])."""
    return [sum(1 << y for y, b in enumerate(keys) if (a, b) in pairs) for a in keys]


def keyed_search(search, keys, containment, second, **options):
    """The family search read the way it once read its input: ``keys`` in
    the order given, repeats dropped, are positions 0..n-1, each relation
    is a set of pairs read into ``rows`` over them (a pair with a vertex
    outside ``keys`` is left out), and each key gets the label set its
    mask selects; None when ``search`` finds no family."""
    keys = list(dict.fromkeys(keys))
    found = search(rows(keys, containment), rows(keys, second), **options)
    if found is None:
        return None
    bits = (frozenset(b for b in range(m.bit_length()) if m >> b & 1) for m in found)
    return dict(zip(keys, bits))


@cache
def partial_orders(n):
    """The partial orders with field exactly ``range(n)``, sorted by sorted
    pair list.  Each holds the diagonal, so the diagonal joined to each
    relation on the other pairs is filtered."""
    diagonal = frozenset((v, v) for v in range(n))
    off_diagonal = {(a, b) for a in range(n) for b in range(n) if a != b}
    candidates = [diagonal | r for r in all_relations(n, within=off_diagonal)]
    return tuple(sorted(filter(is_partial_order, candidates), key=sorted))


def is_inherited(order, conflict):
    """Conflict inheritance: x # z and x <= y give y # z."""
    return all((y, z) in conflict for x, z in conflict for w, y in order if w == x)


def is_event_structure(order, conflict):
    """Event structure: causality a partial order, and a conflict on its
    events that is irreflexive, symmetric and inherited."""
    return (
        is_partial_order(order)
        and field(conflict) <= field(order)
        and all(a != b for a, b in conflict)
        and all((b, a) in conflict for a, b in conflict)
        and is_inherited(order, conflict)
    )


@cache
def event_structures(n):
    """The event structures on ``range(n)`` as (causality, conflict),
    orders and then each order's conflicts sorted by sorted pair list.
    x # y with x <= y would give y # y, so a conflict lies in the
    incomparability square, and its symmetric subsets are filtered."""
    return tuple(
        (order, conflict)
        for order in partial_orders(n)
        for conflict in sorted(
            symmetric_relations(n, incomparable_complement(order, frozenset())), key=sorted
        )
        if is_event_structure(order, conflict)
    )


def count_event_structures(n):
    """Event structures on exactly ``range(n)``, counted over every pair
    of relations on it (2^(2n^2) pairs)."""
    rels = all_relations(n)
    return sum(field(d) == set(range(n)) and is_event_structure(d, u) for d in rels for u in rels)


def realised(family, *, overlap):
    """The relations a family realises over its keys: containment
    f(x) >= f(y), and disjointness (proper overlap, with ``overlap``)."""

    def related(a, b):
        return a & b not in (frozenset(), a, b) if overlap else not a & b

    items = family.items()
    return tuple(
        frozenset((x, y) for x, fx in items for y, fy in items if holds(fx, fy))
        for holds in (ge, related)
    )


def represents(family, containment, second, *, overlap):
    """Representation, and with ``overlap`` full-graph representation:
    over every ordered pair of keys, (x, y) in ``containment`` iff
    f(x) >= f(y), and (x, y) in ``second`` iff f(x) and f(y) are disjoint
    (properly overlap, with ``overlap``)."""
    keys = {x for x, _ in family.items()}
    square = {(x, y) for x in keys for y in keys}
    return realised(family, overlap=overlap) == (square & set(containment), square & set(second))


def certifies(family, containment, second, *, overlap):
    """Certificate: a family that ``represents`` the pair, is injective and
    empty-free, and has the vertices of the pair (both fields) as its keys."""
    sets = [frozenset(fx) for _, fx in family.items()]
    return (
        represents(family, containment, second, overlap=overlap)
        and len(set(sets)) == len(sets)
        and frozenset() not in sets
        and {x for x, _ in family.items()} == field(containment) | field(second)
    )


def label_masks(above, partners):
    """The builder's label masks and label count, for the order with these
    strict up-set masks and these conflict partner masks: peel off the
    smallest position with nothing left above it until none is left, and
    attach them again in reverse.  Attaching s gives a fresh label to s
    and to each attached x (ascending) neither below s nor its partner,
    then a closing label to s alone; a position's mask holds its own
    labels and those of every position above it."""
    k = len(above)
    peeled, remaining = [], set(range(k))
    while remaining:
        s = min(v for v in remaining if not any(above[v] >> w & 1 for w in remaining))
        remaining.remove(s)
        peeled.append(s)
    own = [0] * k
    label = attached = 0
    for s in reversed(peeled):
        bit = 1 << s
        loose = attached & ~partners[s]
        for x in range(k):
            if loose >> x & 1 and not above[x] & bit:
                own[x] |= 1 << label
                own[s] |= 1 << label
                label += 1
        own[s] |= 1 << label
        label += 1
        attached |= bit
    masks = []
    for mask, up in zip(own, above):
        for w in range(k):
            if up >> w & 1:
                mask |= own[w]
        masks.append(mask)
    return masks, label


def incomparable_complement(order, chosen):
    """The complement map: the pairs of the incomparability square of
    ``order`` (vertex pairs related neither way) outside ``chosen``."""
    vertices = field(order)
    return frozenset(
        (a, b)
        for a in vertices
        for b in vertices
        if (a, b) not in order and (b, a) not in order and (a, b) not in chosen
    )


def canonical_family(order, undirected):
    """The full-graph definition's own witness: each vertex v gets a label
    that goes in f(x) when x <= v, and each edge {a, b} of T a label that
    goes in f(x) when x <= a or x <= b."""
    vertices = sorted(field(order))
    tops = [(v,) for v in vertices] + sorted((a, b) for a, b in undirected if a < b)
    return {
        x: frozenset(i for i, top in enumerate(tops) if any((x, v) in order for v in top))
        for x in vertices
    }


def _random_order(rng, n):
    """A random order on ``range(n)`` as the up-set of each vertex: random
    edges between shuffled positions, closed transitively."""
    ids = list(range(n))
    rng.shuffle(ids)  # so that id order is not a topological order
    edge_rate = rng.choice((0.05, 0.15, 0.3))
    above = {v: {v} for v in ids}
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if rng.random() < edge_rate:
                above[ids[i]] |= above[ids[j]]
    return above


def random_structure(rng, n):
    """A valid event structure on ``range(n)``, as (causality, conflict):
    a ``_random_order``, and conflict seeded on pairs with no common upper
    bound, then inherited upward along causality."""
    above = _random_order(rng, n)
    order = frozenset((a, b) for a in range(n) for b in above[a])
    seed_rate = rng.choice((0.0, 0.1, 0.4))
    conflict = frozenset(
        pair
        for a, b in combinations(range(n), 2)
        if not above[a] & above[b] and rng.random() < seed_rate
        for x in above[a]
        for y in above[b]
        for pair in ((x, y), (y, x))
    )
    return order, conflict


def random_full_graph(rng, n):
    """A full graph on ``range(n)``, as (directed, undirected): a
    ``_random_order``, and T the incomparable pairs with a common upper
    bound plus random seed pairs, closed downwards: {a, b} in T, x <= a,
    z <= b and x, z incomparable give {x, z} in T.  So the rest of the
    square is a conflict inherited upward, with no common upper bound."""
    above = _random_order(rng, n)
    order = frozenset((a, b) for a in range(n) for b in above[a])
    below = {v: {x for x in range(n) if v in above[x]} for v in range(n)}
    seed_rate = rng.choice((0.0, 0.1, 0.4))
    square = incomparable_complement(order, frozenset())
    seeds = [
        (a, b)
        for a, b in sorted(square)
        if a < b and (above[a] & above[b] or rng.random() < seed_rate)
    ]
    undirected = frozenset(
        pair
        for a, b in seeds
        for x in below[a]
        for z in below[b]
        if (x, z) in square
        for pair in ((x, z), (z, x))
    )
    return order, undirected


def random_structures(count, seed=2306):
    """Seeded valid event structures of 10-24 events, as (n, order, conflict)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(10, 24)
        order, conflict = random_structure(rng, n)
        assert is_event_structure(order, conflict)
        yield n, order, conflict


def order_pairs(below):
    """The order with these strict down-set masks: u <= v iff u = v or u < v."""
    n = len(below)
    return {(u, v) for v in range(n) for u in range(n) if u == v or below[v] >> u & 1}


def strict_down_sets(above):
    """Strict down-sets, from strict up-sets: u < v iff v is above u."""
    n = len(above)
    return [sum(1 << u for u in range(n) if above[u] >> v & 1) for v in range(n)]


def closed_directly(sets):
    """Down-sets: the vertex sets holding each member's strict down-set."""
    k = len(sets)
    return [
        s for s in range(1 << k) if all(sets[v] | s == s for v in range(k) if s >> v & 1)
    ]


def conflict_masks(needs):
    """The event-structure filter over one order's incomparable pairs:
    every mask below 2^s, for s pairs, that holds ``needs[i]`` whenever it
    holds pair i, ascending.  ``needs[i]`` is the mask of the pairs pair i
    requires, with bit s, which no mask holds, for a pair whose events have
    a common upper bound."""
    rules = [(1 << i, need) for i, need in enumerate(needs) if need]

    def holds(m):
        for bit, need in rules:
            if m & bit and need & ~m:
                return False
        return True

    return [m for m in range(1 << len(needs)) if holds(m)]


def edge_set_masks(needs):
    """The edge-set filter over one order's incomparable pairs: every mask
    below 2^s whose complement ``conflict_masks`` accepts, ascending.  It
    reads the event-structure needs on the pairs a mask leaves out, not
    the full-graph rules, so the graph side's listing is checked against
    the theorem, not against itself."""
    full = (1 << len(needs)) - 1
    conflicts = set(conflict_masks(needs))
    return [m for m in range(full + 1) if full ^ m in conflicts]


def truth_tables(size):
    """T_0 .. T_{size-1} over the 2^size candidate masks: bit m of T_i is
    bit i of m.  T_i repeats 2^i zeros then 2^i ones."""
    full = (1 << (1 << size)) - 1
    return tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(size)
    )


def filter_counts(walk, n):
    """The edge-set filter, carried down a walk of the orders on
    {0..n-1}: how many masks ``edge_set_masks`` accepts on each order the
    walk reaches, each with the number its leaf step has.  A step is
    ``((above, below, low, high, downs), number)``: the strict up-set and
    down-set masks of an order on 0..k-1, and vertex k joining it above
    ``low`` and below ``high``; the steps with k = n - 1 are the leaves.
    The walk refuses the sizes it does not take.

    ``carried[k]`` holds, for the order on 0..k-1 the walk is at, its
    number of incomparable pairs and the truth table of the masks it
    rejects (bit m set when mask m fails a rule; see ``truth_tables``).
    A mask holds the edges, so a rule of pair i rejects the masks that
    lack i and hold a pair i requires, or all that lack i if it requires a
    comparable pair: the event-structure rules on the complement.  The
    new pairs (v, k) take the next bits, and the table is copied across
    each new bit.  An old pair {a, b} keeps its rules and gains the need
    {k, b} when k is above a.  A new pair (v, k) needs {y, k} for each y
    above v, and {v, w} for each w above k."""
    if n == 0:
        yield 1, 1  # the one order on no events has one edge set, one extension
    members = [[v for v in range(n) if m >> v & 1] for m in range(1 << n)]
    # bit[v][w]: the bit of the incomparable pair {v, w}.  A vertex
    # placed at depth k writes row and column k afresh, and deeper
    # vertices write only higher ones, so the walk shares one grid.
    bit = [[0] * n for _ in range(n)]
    tables = {}
    carried = [(0, 0)] * n
    for (above, below, low, high, _), e in walk:
        k = len(above)
        size, r = carried[k]
        everything = (1 << k) - 1
        new = members[everything & ~(low | high)]
        grown = size + len(new)
        if grown not in tables:
            tables[grown] = (1 << (1 << grown)) - 1, truth_tables(grown)
        full, holding = tables[grown]
        for j in range(size, grown):
            r |= r << (1 << j)
        for j, v in enumerate(new, size):
            bit[v][k] = bit[k][v] = j
        for a in members[low]:
            for b in members[everything & ~(above[a] | below[a] | 1 << a)]:
                if low >> b & 1:
                    r |= full ^ holding[bit[a][b]]  # {k, b} is comparable
                else:
                    r |= holding[bit[k][b]] & ~holding[bit[a][b]]
        for j, v in enumerate(new, size):
            if (above[v] | below[v]) & high:
                r |= full ^ holding[j]  # some {v, w} with w above k is comparable
                continue
            holds = 0
            for y in members[above[v]]:
                holds |= holding[bit[y][k]]
            for w in members[high]:
                holds |= holding[bit[v][w]]
            r |= holds & ~holding[j]
        if k + 1 == n:
            yield (1 << grown) - r.bit_count(), e
        else:
            carried[k + 1] = grown, r


def count_conflict_upsets(below):
    """The valid conflicts as the up-sets of Q(P), counted from scratch for
    the order with these strict down-set masks: Q(P) is its pairs {x,z}
    with no common upper bound, {x,z} below {y,w} when x <= y and z <= w.
    The memoised count includes or excludes the first pair left, and with
    it every pair above or below it."""
    n = len(below)
    up = [1 << v | sum(1 << u for u in range(n) if below[u] >> v & 1) for v in range(n)]
    members = [[y for y in range(n) if m >> y & 1] for m in up]
    pairs = [(x, z) for x, z in combinations(range(n), 2) if not up[x] & up[z]]
    index = {pair: i for i, pair in enumerate(pairs)}
    above = [0] * len(pairs)
    under = [0] * len(pairs)
    for i, (x, z) in enumerate(pairs):
        for y in members[x]:
            for w in members[z]:
                j = index[min(y, w), max(y, w)]
                above[i] |= 1 << j
                under[j] |= 1 << i

    @cache
    def upsets(rest):
        if not rest:
            return 1
        i = (rest & -rest).bit_length() - 1
        return upsets(rest & ~above[i]) + upsets(rest & ~under[i])

    return upsets((1 << len(pairs)) - 1)


def linear_extensions(below):
    """e(P), the number of linear extensions, for the order with these
    strict down-set masks: a DP over its down-sets, one vertex more per
    layer, each added once its down-set is in (the reference for the
    carried table)."""
    ways = {0: 1}
    for _ in below:
        grown = {}
        for s, w in ways.items():
            for v, low in enumerate(below):
                if not (s >> v & 1 or low & ~s):
                    grown[s | 1 << v] = grown.get(s | 1 << v, 0) + w
        ways = grown
    return ways[(1 << len(below)) - 1]
