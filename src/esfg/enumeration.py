"""Exhaustive labeled enumeration of event structures and full graphs.

Counting is over vertex set exactly ``{0..n-1}`` (labeled structures, not
isomorphism classes), building no ``Relation``.  Both counts share the
order side: they sum over the naturally labeled orders (i below j only
if i < j), each weighted by the n!/e(P) labeled orders it stands for,
e(P) being its number of linear extensions.  Their conflict sides are
independent.  ``count_es`` counts the up-sets of the poset Q(P) of event
pairs with no common upper bound, ordered componentwise: by the conflict
axioms, those are exactly the valid conflicts on P.  ``count_fg`` tests
all of an order's candidate edge sets bit-parallel, against the conflict
axioms read on the pairs each one leaves out: the event-structure rules
on the complement, not the full-graph rules ``bijection`` lists by.
Each entry point rejects n above its ``SIZE_LIMITS`` entry.

Every exhaustive path walks the orders depth first through ``_joins``:
vertex k joins an order on 0..k-1 above a down-closed set B and below
an up-closed set A, with B wholly below A.  That is transitive as it
stands, and each order arises once: B and A are k's strict down-set and
up-set, and the rest is an order on 0..k-1.  Naturally labeled orders
are the case A = {}.  The walk carries each order's down-sets from its
parent's, so it never searches for them, hands them to its readers, and
takes the up-sets as their complements.  ``_posets`` yields each labeled
order as the strict up-set mask of each vertex.  The counts carry tables
down the walk, so each join only adds what vertex k brings: to the
candidates an order rejects, to the linear extensions of its down-sets,
and to Q(P), whose pairs inside k's down-set leave it as the pairs
{v, k} join.  Q(P) goes down to the parents of the leaves only: a leaf's
up-sets are counted on its parent's Q(P), one term for each of the
parent's down-sets that holds B, with one memo for all the parent's
leaves.
"""

from __future__ import annotations

from functools import cache
from math import factorial, lcm
from typing import Callable, Iterable, Iterator

from .bijection import check_size, enumerate_admissible_conflicts, enumerate_fullgraph_edge_sets
from .documents import from_event_structure, from_full_graph, serialize_document
from .event_structure import EventStructure
from .fullgraph import FullGraph
from .relation import Relation

#: A step of the order walk: ``(above, below, low, high, downs)``, see
#: ``_joins``.  ``downs`` lists the down-sets of the order on 0..k-1 that
#: vertex k joins, ascending; its up-sets are their complements.
Step = tuple[list[int], list[int], int, int, list[int]]


@cache
def _members(n: int) -> tuple[tuple[int, ...], ...]:
    """The vertices of each mask on {0..n-1}, ascending, by mask."""
    return tuple(tuple(v for v in range(n) if m >> v & 1) for m in range(1 << n))


def _joined_sets(downs: list[int], low: int, high: int, k: int) -> list[int]:
    """The down-sets of an order once vertex k joins it above ``low`` and
    below ``high``, ascending, from its ``downs``: those that miss
    ``high``, then those that hold ``low``, with k added."""
    return [d for d in downs if not d & high] + [d | 1 << k for d in downs if not low & ~d]


def _joins(n: int, natural: bool = False) -> Iterator[Step]:
    """The steps of the depth-first walk over the orders on {0..n-1}, as
    ``(above, below, low, high, downs)``: the strict up-set and down-set
    masks of an order on 0..k-1, a way vertex k joins it, above ``low``
    and below ``high``, and the order's down-sets, ascending.  ``low`` is
    one of those down-sets, and ``high`` is an up-set inside ``cap``, the
    part of the order above every vertex of ``low``.  The walk goes on
    from each step with k + 1 < n to the joined order, so the steps with
    k = n - 1 are the leaves, one per order on {0..n-1}.  Each order's
    down-sets come from its parent's by ``_joined_sets``, and its up-sets
    are their complements, ascending as the down-sets descend.  With
    ``natural``, ``high`` is 0, the one up-set it tries."""
    check_size(n, "count")
    members = _members(n)

    def walk(above: list[int], below: list[int], downs: list[int]) -> Iterator[Step]:
        k = len(above)
        everything = (1 << k) - 1
        ups = [0] if natural else [everything ^ d for d in reversed(downs)]
        for low in downs:
            cap = -1  # every cap admits the natural high, 0
            if not natural:
                cap = everything
                for v in members[low]:
                    cap &= above[v]
            for high in ups:
                if high & ~cap:
                    continue
                yield above, below, low, high, downs
                if k + 1 < n:
                    yield from walk(
                        [m | (low >> v & 1) << k for v, m in enumerate(above)] + [high],
                        [m | (high >> v & 1) << k for v, m in enumerate(below)] + [low],
                        _joined_sets(downs, low, high, k),
                    )

    return walk([], [], [0]) if n else iter(())


def _posets(n: int) -> Iterator[tuple[int, ...]]:
    """Every partial order on {0..n-1}, each once, as the strict up-set
    mask of each vertex."""
    if n == 0:
        yield ()
    for above, _, low, high, _ in _joins(n):
        if len(above) == n - 1:
            yield (*(m | (low >> v & 1) << n - 1 for v, m in enumerate(above)), high)


def _extensions(n: int) -> Iterator[tuple[Step, int]]:
    """The steps of ``_joins(n, natural=True)``, each with e(P) of the
    order it joins.  ``pre[D]`` is e of the order on the down-set D.  As
    vertex k joins above ``low``, a linear extension of a down-set D + k
    ends in k or in a vertex of D - ``low`` maximal in D, for each D of
    the step's ``downs`` that holds ``low``.  Only depth k writes entries
    with top bit k, so the walk shares one table."""
    steps = _joins(n, natural=True)  # checks n before the tables below use it
    members = _members(n)
    pre = [1] + [0] * ((1 << n) - 1)
    for step in steps:
        above, _, low, _, downs = step
        top = 1 << len(above)
        for d in downs:
            if low & ~d:
                continue
            e = pre[d]
            for v in members[d & ~low]:
                if not above[v] & d:
                    e += pre[(d ^ 1 << v) | top]
            pre[d | top] = e
        yield step, pre[(top << 1) - 1]


def _truth_tables(size: int) -> tuple[int, ...]:
    """T_0 .. T_{size-1} over the 2^size candidate masks: bit m of T_i is
    bit i of m.  T_i repeats 2^i zeros then 2^i ones."""
    full = (1 << (1 << size)) - 1
    return tuple(
        full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
        for i in range(size)
    )


def _filter_counts(walk: Iterable[tuple[Step, int]], n: int) -> Iterator[tuple[int, int]]:
    """How many edge sets the edge-set filter accepts on each order on
    {0..n-1} the walk reaches, each with the number its leaf step has.
    The filter reads the event-structure rules on each candidate's
    complement; ``tests/reference.py::edge_set_masks`` is its scalar
    reference.

    ``carried[k]`` holds, for the order on 0..k-1 the walk is at, its
    number of incomparable pairs and the truth table of the masks it
    rejects (bit m set when mask m fails a rule; see
    ``_truth_tables``).  A mask holds the edges, so a rule of
    pair i rejects the masks that lack i and hold a pair i requires, or
    all that lack i if it requires a comparable pair.  The new pairs
    (v, k) take the next bits, and the table is copied across each new
    bit.  An old pair {a, b} keeps its rules and gains the need {k, b}
    when k is above a.  A new pair (v, k) needs {y, k} for each y above v,
    and {v, w} for each w above k.  Every candidate still meets every
    rule, so the conflict side is independent of the structural count."""
    check_size(n, "count")
    if n == 0:
        yield 1, 1  # the one order on no events has one edge set, one extension
    members = _members(n)
    # bit[v][w]: the bit of the incomparable pair {v, w}.  A vertex
    # placed at depth k writes row and column k afresh, and deeper
    # vertices write only higher ones, so the walk shares one grid.
    bit = [[0] * n for _ in range(n)]
    tables: dict[int, tuple[int, tuple[int, ...]]] = {}
    carried = [(0, 0)] * n
    for (above, below, low, high, _), e in walk:
        k = len(above)
        size, r = carried[k]
        everything = (1 << k) - 1
        new = members[everything & ~(low | high)]
        grown = size + len(new)
        if grown not in tables:
            tables[grown] = (1 << (1 << grown)) - 1, _truth_tables(grown)
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


def _upset_counts(walk: Iterable[tuple[Step, int]], n: int) -> Iterator[tuple[int, int]]:
    """How many up-sets Q(P) has on each naturally labeled order on
    {0..n-1} the walk reaches, each with the number its leaf step has.
    Q(P) is the order's pairs {x, z} with no common upper bound, {x, z}
    below {y, w} when x <= y and z <= w; its up-sets are the valid
    conflicts.

    ``carried[k]`` holds, for the order on 0..k-1 the walk is at, the
    mask of Q's pairs, pair {x, z} (x < z) at bit x*n + z, and the list
    ``above`` of each pair's up-set in Q, itself included.  As vertex k
    joins above ``low``, the pairs inside ``low`` gain k as a common upper
    bound and leave Q.  An old pair with one end in ``low`` and the other,
    z, outside gains the pairs {w, k} for w >= z; the new pairs are {v, k}
    for v outside ``low``, each below the pairs {y, k} for y >= v.  The
    bits rise with a linear extension of Q, so the lowest pair left is
    minimal, and leaving it out leaves out no other: the memoised
    ``upsets`` takes or leaves that pair.

    A leaf P' is its parent P with k = n - 1 joined above ``low``, and
    its count comes from Q(P), with one memo that all of P's leaves share:

        count(P') = sum over down-sets D of P holding ``low`` of
                    upsets(Q(P) - (inside[D] ^ inside[D - low]))

    - The new pairs form an up-set of Q(P'), ordered like P - ``low``,
      and nothing old lies above them.
    - So an up-set of Q(P') picks a down-set D holding ``low``, which
      fixes its new pairs as {w, k} for w outside D, and an up-set of Q(P)
      with no pair inside ``low`` and none with one end in ``low`` and
      the other in D, since such a pair lies below {w, k} for w in D.
    - Those pairs are ``inside[D] ^ inside[D - low]``, a down-set of Q(P),
      so the pairs left are an up-set of Q(P), and their up-sets are the
      up-sets of Q(P) inside them."""
    check_size(n, "count")
    if n == 0:
        yield 1, 1  # the one order on no events has one conflict, the empty one
    grid = 1 << n
    members = _members(n)
    # inside[s]: the pairs with both ends in s.  ends[k][s]: the pairs
    # {w, k} for w in s, a set of vertices below k.
    inside = [0] * grid
    ends = []
    for k in range(n):
        row = [0] * (1 << k)
        for s in range(1, 1 << k):
            w = (s & -s).bit_length() - 1
            row[s] = row[s & (s - 1)] | 1 << (w * n + k)
        ends.append(row)
        for s in range(1 << k):
            inside[s | 1 << k] = inside[s] | row[s]
    carried = [(0, [0] * (n * n))] * n
    # upsets reads the ``above`` of the leaf's parent and the memo of that
    # parent, which starts afresh each time the walk reaches a new parent.
    memo: dict[int, int] = {0: 1}

    def upsets(rest: int) -> int:
        count = memo.get(rest)
        if count is None:
            lowest = rest & -rest
            count = upsets(rest & ~above[lowest.bit_length() - 1]) + upsets(rest ^ lowest)
            memo[rest] = count
        return count

    for (up, _, low, high, downs), e in walk:
        if high:
            raise ValueError("the up-set count needs naturally labeled orders")
        k = len(up)
        alive, above = carried[k]
        if k + 1 == n:
            yield sum(
                upsets(alive & ~(inside[d] ^ inside[d & ~low])) for d in downs if not low & ~d
            ), e
            continue
        alive &= ~inside[low]
        above = above.copy()
        row = ends[k]
        for v in members[((1 << k) - 1) & ~low]:
            gained = row[up[v] | 1 << v]
            above[v * n + k] = gained
            alive |= 1 << (v * n + k)
            for x in members[low]:
                i = x * n + v if x < v else v * n + x
                if alive >> i & 1:
                    above[i] |= gained
        carried[k + 1] = alive, above
        if k + 2 == n:
            memo = {0: 1}


def enumerate_partial_orders(n: int) -> Iterator[Relation]:
    """Every reflexive, transitive, antisymmetric relation with field
    exactly {0..n-1}, each once, sorted by pair list."""
    check_size(n, "list")
    reflexive = ([up | 1 << v for v, up in enumerate(above)] for above in _posets(n))
    yield from sorted((Relation._of_rows(n, range(n), rows) for rows in reflexive), key=tuple)


def _weighted_sum(n: int, counts: Iterable[tuple[int, int]]) -> int:
    """The sum of c * n!/e over ``(c, e)`` pairs in exact integers: the
    counts grouped by e, divided once over the lcm of the e."""
    by_extensions: dict[int, int] = {}
    for c, e in counts:
        by_extensions[e] = by_extensions.get(e, 0) + c
    common = lcm(*by_extensions)
    scaled = sum(c * (common // e) for e, c in by_extensions.items())
    total, rest = divmod(factorial(n) * scaled, common)
    if rest:
        raise ArithmeticError(f"the weighted count {total} + {rest}/{common} is not an integer")
    return total


def count_es(n: int) -> int:
    """Number of labeled event structures on exactly n events: the
    up-sets of each naturally labeled order's Q(P) times n!/e(P).  Q(P)
    is carried down the natural walk to each leaf's parent, and the
    leaf's up-sets are counted on the parent's Q(P)."""
    return _weighted_sum(n, _upset_counts(_extensions(n), n))


def count_fg(n: int) -> int:
    """Number of labeled full graphs on exactly n vertices: the edge-set
    filter's count on each naturally labeled order times n!/e(P), the
    order side ``count_es`` has too.  The filter still reads the
    event-structure rules on the complement, not the full-graph rules."""
    return _weighted_sum(n, _filter_counts(_extensions(n), n))


def emit_structures(n: int, kind: str, write: Callable[[bytes], None]) -> int:
    """Serialize every enumerated structure of the given kind to ``write``,
    one canonical document per call, in a deterministic order (orders as
    enumerated, each order's relations sorted by pair list); returns how
    many."""
    sides = {
        "es": (enumerate_admissible_conflicts, EventStructure, from_event_structure),
        "fg": (enumerate_fullgraph_edge_sets, FullGraph, from_full_graph),
    }
    if kind not in sides:
        raise ValueError(f"kind must be 'es' or 'fg', got {kind!r}")
    lister, structure, document = sides[kind]
    emitted = 0
    for order in enumerate_partial_orders(n):
        for relation in lister(order):
            write(serialize_document(document(structure(order, relation))))
            emitted += 1
    return emitted
