"""Exhaustive search for label-set families under pairwise constraints.

This is the independent existence oracle behind the brute-force checks:
given a containment relation and a second relation (read either as
disjointness or as overlap), it looks for an injective family of nonempty
label sets realising both biconditionals exactly, or certifies that no
such family exists with labels below the given bound.  It imports nothing
from the rest of the package.

Candidate sets are bitmasks over ``range(label_bound)``, assigned depth
first in a fixed event order.  Each event's candidates lie in an interval
``low <= S <= high`` read off the assigned prefix; a branch is abandoned
when a remaining event's interval is empty or an exact pairwise clause
fails against the prefix, so a returned family is exact.  The interval
drops only masks some clause rejects (in overlap mode a pair related no
way must be disjoint, as nonempty sets neither nested nor properly
overlapping are), so the first solution in ascending-mask order stays
first.  It is the one returned, which makes results deterministic.

The one other pruning rule is label symmetry.  ``high`` only intersects
with assigned masks or removes assigned labels, and ``low`` is a union of
assigned masks, so each interval holds all labels no assigned set uses
yet, or none of them.  Swapping two unused labels maps solutions to
solutions and fixes the prefix, so only candidates whose fresh labels are
the lowest unused ones are generated; lowering the fresh labels of the
first solution would give a smaller one, so it is never skipped.  The
used labels are then always 0..m-1, and the candidates are a submask of
them plus labels m..m+j-1, by j and then ascending, which is ascending
overall.  ``None`` means unsatisfiable within the bound.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Pair = tuple[int, int]


def causes_first_order(events: Iterable[int], containment: Iterable[Pair]) -> list[int]:
    """Events ordered so containment sources come before their targets.

    Repeatedly takes the smallest event none of whose strict sources is
    still waiting; events on a cycle (possible for garbage inputs) are
    appended in ascending order.  Assigning supersets before their
    subsets lets the search enumerate candidate subsets directly.
    """
    waiting = sorted(set(events))
    strict = {(a, b) for a, b in containment if a != b}
    order: list[int] = []
    while waiting:
        ready = [v for v in waiting if not any((u, v) in strict for u in waiting)]
        if not ready:
            break
        order.append(ready[0])
        waiting.remove(ready[0])
    return order + waiting


def _ascending_submasks(low: int, high: int) -> Iterator[int]:
    """All masks S with low <= S <= high (bitwise), ascending as integers."""
    free = high & ~low
    sub = 0
    while True:
        yield sub | low
        if sub == free:
            return
        sub = (sub - free) & free


def search_set_family(
    order: Sequence[int],
    containment: Iterable[Pair],
    second: Iterable[Pair],
    *,
    second_overlap: bool,
    label_bound: int,
) -> dict[int, frozenset[int]] | None:
    """Find an injective family of nonempty subsets of ``range(label_bound)``
    keyed by ``order`` such that, for all keys x, y:

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
    containment = frozenset(containment)
    second = frozenset(second)

    # Assignment-independent contradictions: a nonempty set always contains
    # itself and never is disjoint from (or overlaps) itself, and the second
    # biconditional reads the same intersection for (x,y) and (y,x).
    for x in order:
        if (x, x) not in containment:
            return None
        if (x, x) in second:
            return None
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            if ((x, y) in second) != ((y, x) in second):
                return None

    full = (1 << label_bound) - 1

    def bounds(y: int, assigned: list[tuple[int, int]]) -> tuple[int, int] | None:
        """Interval of masks the assigned prefix still permits for ``y``,
        or None when it holds no nonempty mask."""
        low, high = 0, full
        for x, mx in assigned:
            contains, contained = (x, y) in containment, (y, x) in containment
            if contains:
                high &= mx
            if contained:
                low |= mx
            if second_overlap:
                disjoint = not (contains or contained or (x, y) in second)
            else:
                disjoint = (x, y) in second
            if disjoint:
                high &= ~mx
        if low & ~high or high == 0:
            return None
        return low, high

    def compatible(x: int, mx: int, y: int, my: int) -> bool:
        """Exact biconditional clauses between two assigned events."""
        if ((x, y) in containment) != ((mx | my) == mx):
            return False
        if ((y, x) in containment) != ((mx | my) == my):
            return False
        inter = mx & my
        if second_overlap:
            status = inter != 0 and inter != mx and inter != my
        else:
            status = inter == 0
        return ((x, y) in second) == status

    assigned: list[tuple[int, int]] = []

    def extend(level: int, used: int) -> bool:
        if level == n:
            return True
        for z in order[level:]:
            if bounds(z, assigned) is None:
                return False
        y = order[level]
        low, high = bounds(y, assigned)  # feasible: checked just above
        taken = {m for _, m in assigned}
        for top in range(used.bit_length(), label_bound + 1):
            fresh = ((1 << top) - 1) & ~used  # the lowest unused labels
            if fresh & ~high:
                break
            for candidate in _ascending_submasks(low | fresh, (high & used) | fresh):
                if candidate == 0 or candidate in taken:
                    continue
                if all(compatible(x, mx, y, candidate) for x, mx in assigned):
                    assigned.append((y, candidate))
                    if extend(level + 1, used | candidate):
                        return True
                    assigned.pop()
        return False

    if not extend(0, 0):
        return None
    return {
        x: frozenset(b for b in range(label_bound) if mx >> b & 1)
        for x, mx in assigned
    }
