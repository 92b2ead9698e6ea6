"""Desk-scale verification: run every major property on all instances up
to a given size and report per-check outcomes.

This is the library behind ``esfg verify``.  Each check covers sizes 0..n
exhaustively, on masks.  ``enumeration._posets`` yields each order as
the strict up-set mask of each position.  ``bijection._pair_kernel``
numbers its incomparable pairs along the builder's peel order, which
leaves that peel cached for the builder on each structure of the order,
and gives each side its own needs; ``bijection._closed_masks`` lists the
conflict masks m from the event-structure needs and the edge-set masks t
from the full-graph needs and forced edges, and ``full`` holds every
pair.  A relation on positions is in ``relation``'s row form: bit y of
row x for the pair (x, y); ``bijection._pair_rows`` writes a pair mask
in it.

- built: ``_label_masks`` on the rows of ``full ^ m`` gives one nonempty
  label mask per position, no two equal, all below its label count;
- certifies both sides: ``_mask_relations`` reads those masks once, and
  its containment, disjointness and overlap rows are the order's up-sets
  with the diagonal, the rows of m and the rows of ``full ^ m``;
- round trip: the rows of ``full ^ m``, complemented inside the
  incomparability square, are the rows of m;
- bijection: ``full ^ t`` over the edge-set listing is the conflict listing;
- counts: the edge-set masks on k events number ``count_es(k)``;
- oracle: at very small sizes the brute-force existence oracle is played
  against the validity predicate over every pair of relations.

A failure's detail is read off the rows by ``relation._row_pairs``:
``D=[...] U=[...]`` (or ``order [...]``) with their sorted pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .bijection import _closed_masks, _pair_kernel, _pair_rows, check_size
from .enumeration import _posets, count_es
from .event_structure import is_event_structure
from .relation import Relation, _row_pairs
from .representation import _complement_rows, _label_masks, find_representation_bruteforce
from .setfamily import _mask_relations


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def _all_relations(universe: int) -> list[Relation]:
    """Every relation on ``range(universe)``: row a of mask m is its a-th
    run of ``universe`` bits."""
    field, row = range(universe), (1 << universe) - 1
    return [
        Relation._of_rows(universe, field, [m >> a * universe & row for a in field])
        for m in range(1 << universe * universe)
    ]


def _tag(contains: Sequence[int], partners: Sequence[int]) -> str:
    """A structure's order and conflict rows worded as sorted pairs."""
    keys = range(len(contains))
    return f"D={_row_pairs(keys, contains)} U={_row_pairs(keys, partners)}"


def run_theorem_suite(n: int) -> SuiteReport:
    """Run every check on all instances of sizes 0..n, in one pass over
    the orders as masks: each order's conflicts and edge sets are listed
    once and feed the structure checks and the bijection check, and the
    edge sets' total is matched against the structural ``count_es``."""
    check_size(n, "verify")

    build_bad: list[str] = []
    witness_bad: list[str] = []
    roundtrip_bad: list[str] = []
    bijection_bad: list[str] = []
    count_bad: list[str] = []
    structures = 0
    orders = 0

    for k in range(n + 1):
        fg_total = 0
        for above in _posets(k):
            orders += 1
            pairs, needs, edge_needs, forced = _pair_kernel(above)
            full = (1 << len(pairs)) - 1
            conflicts = _closed_masks(needs, range(len(pairs)))
            edge_sets = _closed_masks(edge_needs, reversed(range(len(pairs))), forced)
            fg_total += len(edge_sets)
            contains = [up | 1 << v for v, up in enumerate(above)]
            if {full ^ t for t in edge_sets} != set(conflicts):
                bijection_bad.append(f"order {_row_pairs(range(k), contains)}")
            square = _pair_rows(k, pairs, full)
            for m in conflicts:
                structures += 1
                partners = _pair_rows(k, pairs, m)
                edges = _pair_rows(k, pairs, full ^ m)
                masks, count = _label_masks(above, edges)
                if len(set(masks)) != k or 0 in masks or max(masks, default=0) >> count:
                    build_bad.append(_tag(contains, partners))
                if _mask_relations(masks) != (contains, partners, edges):
                    witness_bad.append(_tag(contains, partners))
                if _complement_rows(square, edges) != partners:
                    roundtrip_bad.append(_tag(contains, partners))
        es_total = count_es(k)
        if es_total != fg_total:
            count_bad.append(f"n={k}: es={es_total} fg={fg_total}")

    oracle_bad: list[str] = []
    scanned = 0
    for k in range(min(n, 2) + 1):  # 2^(2k^2) relation pairs on k points
        relations = _all_relations(k)
        for base, conflict in product(relations, relations):
            if not set(conflict.field) <= set(base.field):
                continue
            scanned += 1
            found = find_representation_bruteforce(base, conflict, k * k)
            if (found is not None) != is_event_structure(base, conflict):
                oracle_bad.append(f"D={list(base)} U={list(conflict)}")

    def result(name: str, bad: list[str], ok_detail: str) -> CheckResult:
        if bad:
            shown = "; ".join(bad[:3])
            more = f" (+{len(bad) - 3} more)" if len(bad) > 3 else ""
            return CheckResult(name, False, shown + more)
        return CheckResult(name, True, ok_detail)

    each = f"{structures} structures"
    checks = (
        result("representation-built-for-every-structure", build_bad, each),
        result("one-family-certifies-both-sides", witness_bad, each),
        result("conversions-round-trip", roundtrip_bad, each),
        result("complement-is-a-bijection-per-order", bijection_bad, f"{orders} orders"),
        result("counts-agree-on-both-paths", count_bad, f"sizes 0..{n}"),
        result("oracle-agrees-with-validity-check", oracle_bad, f"{scanned} relation pairs"),
    )
    return SuiteReport(n=n, checks=checks)
