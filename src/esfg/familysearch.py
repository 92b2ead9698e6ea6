"""Exhaustive search for label-set families under pairwise constraints.

This is the independent existence oracle behind the brute-force checks:
given a containment relation and a second relation (read either as
disjointness or as overlap), it looks for an injective family of nonempty
label sets realising both biconditionals exactly, or certifies that no
such family exists with labels below the given bound.  It imports nothing
from the rest of the package.

The events of ``order`` become positions 0..n-1, and the relations
become bit rows built once per search: ``sup[i]`` holds the positions
whose set lies inside i's, ``sub[i]`` those whose set holds i's,
``rel[i]`` those in the second relation with i, and ``apart[i]`` those
whose set must miss i's (the second relation in disjointness mode; in
overlap mode the pairs related no way, as nonempty sets neither nested
nor properly overlapping are disjoint).  Candidate sets are bitmasks over
``range(label_bound)``, assigned depth first in position order.  A
candidate is kept when it is nonempty and its rows against the assigned
prefix (the masks that hold it, that it holds, that it misses or
properly overlaps) equal the expected rows on that prefix, with no mask
both holding and held (no repeat), so a returned family is exact.

Three pruning rules drop only branches without a solution, so the first
solution in ascending-mask order stays first.  It is the one returned,
which makes results deterministic.  ``None`` means unsatisfiable within
the bound.

- **Pairs.**  Two sets have at most three Venn regions, so a pair's own
  clauses hold for some two distinct nonempty masks iff they hold for
  two such masks over ``min(label_bound, 3)`` labels.  ``_PAIR_PATTERNS``
  lists the satisfiable patterns (width, mode, each containment, second
  relation), and a search with an unsatisfiable pair returns ``None``
  before it tries a candidate.  This is set semantics only.
- **Intervals.**  Each unassigned position carries an interval
  ``low <= S <= high``.  Assigning mask c at position i sets
  ``high &= c`` along ``sup[i]``, ``low |= c`` along ``sub[i]`` and
  ``high &= ~c`` along ``apart[i]``, and the candidate is dropped when
  an interval is left without a nonempty mask.  Only candidates inside
  their own interval are generated.
- **Label symmetry.**  ``high`` only intersects with assigned masks or
  removes assigned labels, and ``low`` is a union of assigned masks, so
  each interval holds all labels no assigned set uses yet, or none of
  them.  Swapping two unused labels maps solutions to solutions and fixes
  the prefix, so only candidates whose fresh labels are the lowest unused
  ones are generated; lowering the fresh labels of the first solution
  would give a smaller one, so it is never skipped.  The used labels are
  then always 0..m-1, and the candidates are a submask of them plus
  labels m..m+j-1, by j and then ascending, which is ascending overall.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, Sequence

Pair = tuple[int, int]


def causes_first_order(events: Iterable[int], containment: Iterable[Pair]) -> list[int]:
    """Events ordered so containment sources come before their targets.

    Repeatedly takes the smallest event none of whose strict sources is
    still waiting; events on a cycle (possible for garbage inputs) are
    appended in ascending order.  Assigning supersets before their
    subsets lets the search enumerate candidate subsets directly.
    """
    waiting = set(events)
    targets: dict[int, list[int]] = {v: [] for v in waiting}
    sources = dict.fromkeys(waiting, 0)
    for a, b in containment:
        if a != b and a in waiting and b in waiting:
            targets[a].append(b)
            sources[b] += 1
    ready = [v for v in waiting if not sources[v]]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        waiting.remove(v)
        for w in targets[v]:
            sources[w] -= 1
            if not sources[w]:
                heapq.heappush(ready, w)
    return order + sorted(waiting)


def _ascending_submasks(low: int, high: int) -> Iterator[int]:
    """All masks S with low <= S <= high (bitwise), ascending as integers."""
    free = high & ~low
    sub = 0
    while True:
        yield sub | low
        if sub == free:
            return
        sub = (sub - free) & free


def _pair_pattern(a: int, b: int, overlap: bool) -> tuple[bool, bool, bool]:
    """Whether a holds b, b holds a, and a, b are disjoint (or properly
    overlap, with ``overlap``)."""
    inter = a & b
    if overlap:
        related = inter != 0 and inter != a and inter != b
    else:
        related = inter == 0
    return inter == b, inter == a, related


#: (width, overlap, holds, held, related) for every pattern some two
#: distinct nonempty masks below ``2 ** width`` realise, width 1..3.
_PAIR_PATTERNS = frozenset(
    (width, overlap, *_pair_pattern(a, b, overlap))
    for width in (1, 2, 3)
    for overlap in (False, True)
    for a in range(1, 1 << width)
    for b in range(1, 1 << width)
    if a != b
)


def _pair_satisfiable(
    holds: bool, held: bool, related: bool, *, overlap: bool, label_bound: int
) -> bool:
    """Whether two distinct nonempty masks below ``2 ** label_bound`` show
    this pattern.  Two sets have three Venn regions, and the pattern
    depends only on which of them are empty, so three labels decide it
    for every wider bound."""
    pattern = (bool(holds), bool(held), bool(related))
    return (min(label_bound, 3), overlap, *pattern) in _PAIR_PATTERNS


def search_set_family(
    order: Sequence[int],
    containment: Iterable[Pair],
    second: Iterable[Pair],
    *,
    second_overlap: bool,
    label_bound: int,
) -> dict[int, frozenset[int]] | None:
    """Find an injective family of nonempty subsets of ``range(label_bound)``
    keyed by the distinct keys ``order`` such that, for all keys x, y:

      (x, y) in containment  <=>  family[x] >= family[y]
      (x, y) in second       <=>  family[x] and family[y] are disjoint
                                  (or overlap, with ``second_overlap``)

    Returns the first solution in ascending-mask order, or ``None``.
    """
    order = list(order)
    n = len(order)
    if n == 0:
        return {}
    if label_bound <= 0:
        return None
    position = {x: i for i, x in enumerate(order)}
    sup = [0] * n
    sub = [0] * n
    rel = [0] * n
    for x, y in containment:
        i, j = position.get(x), position.get(y)
        if i is not None and j is not None:
            sup[i] |= 1 << j
            sub[j] |= 1 << i
    for x, y in second:
        i, j = position.get(x), position.get(y)
        if i is not None and j is not None:
            rel[i] |= 1 << j

    # Assignment-independent contradictions: a nonempty set always contains
    # itself and never is disjoint from (or overlaps) itself, the second
    # biconditional reads the same intersection for (x,y) and (y,x), and
    # each pair's own clauses must be satisfiable.
    for i in range(n):
        bit = 1 << i
        if not sup[i] & bit or rel[i] & bit:
            return None
        for j in range(i + 1, n):
            related = rel[i] >> j & 1
            if rel[j] >> i & 1 != related or not _pair_satisfiable(
                sup[i] >> j & 1,
                sub[i] >> j & 1,
                related,
                overlap=second_overlap,
                label_bound=label_bound,
            ):
                return None

    everyone = (1 << n) - 1
    if second_overlap:
        apart = [everyone & ~(sup[i] | sub[i] | rel[i]) for i in range(n)]
    else:
        apart = rel
    # per position: its expected rows on the prefix, and for each later
    # position the interval updates an assignment at it makes
    expected = []
    steps = []
    for i in range(n):
        prefix = (1 << i) - 1
        expected.append((sub[i] & prefix, sup[i] & prefix, rel[i] & prefix))
        steps.append(
            [
                (j, sup[i] >> j & 1, sub[i] >> j & 1, apart[i] >> j & 1)
                for j in range(i + 1, n)
                if (sup[i] | sub[i] | apart[i]) >> j & 1
            ]
        )
    masks = [0] * n

    def extend(i: int, used: int, lows: list[int], highs: list[int]) -> bool:
        if i == n:
            return True
        low, high = lows[i], highs[i]
        holders, held, seconds = expected[i]
        prefix = (1 << i) - 1
        for top in range(used.bit_length(), label_bound + 1):
            fresh = ((1 << top) - 1) & ~used  # the lowest unused labels
            if fresh & ~high:
                break
            for candidate in _ascending_submasks(low | fresh, (high & used) | fresh):
                if candidate == 0:
                    continue
                inside = outside = missed = 0  # prefix masks holding, held, missed
                for x in range(i):
                    mask = masks[x]
                    inter = candidate & mask
                    if inter == candidate:
                        inside |= 1 << x
                    if inter == mask:
                        outside |= 1 << x
                    if not inter:
                        missed |= 1 << x
                if inside != holders or outside != held or inside & outside:
                    continue
                if second_overlap:
                    missed = prefix & ~(inside | outside | missed)  # properly overlapped
                if missed != seconds:
                    continue
                next_lows, next_highs = lows[:], highs[:]
                for j, within, around, away in steps[i]:
                    lo, hi = next_lows[j], next_highs[j]
                    if within:
                        hi &= candidate
                    if around:
                        lo |= candidate
                    if away:
                        hi &= ~candidate
                    if not hi or lo & ~hi:
                        break
                    next_lows[j], next_highs[j] = lo, hi
                else:
                    masks[i] = candidate
                    if extend(i + 1, used | candidate, next_lows, next_highs):
                        return True
        return False

    if not extend(0, 0, [0] * n, [(1 << label_bound) - 1] * n):
        return None
    return {
        x: frozenset(b for b in range(mask.bit_length()) if mask >> b & 1)
        for x, mask in zip(order, masks)
    }
