"""Desk-scale verification: run every major property on all instances up
to a given size and report per-check outcomes.

This is the library behind ``esfg verify``.  Each check covers sizes 0..n
exhaustively: the builder must succeed on every event structure, the
conversion certificate must witness both sides, conversions must round
trip, complementation must be a size-preserving bijection per order, and
the structural ``count_es`` must match the full graphs the filter finds.
At very small sizes the brute-force existence oracle is also played
against the validity predicate over a complete scan of relation pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .bijection import (
    bijection_report,
    check_size,
    enumerate_admissible_conflicts,
    enumerate_fullgraph_edge_sets,
    es_to_fg,
    fg_to_es,
)
from .enumeration import count_es, enumerate_partial_orders
from .event_structure import EventStructure, is_event_structure
from .fullgraph import FullGraphError, is_fg_representation
from .relation import Relation
from .representation import find_representation_bruteforce, is_representation


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
    cells = [(a, b) for a in range(universe) for b in range(universe)]
    out = []
    for mask in range(1 << len(cells)):
        out.append(
            Relation(universe, (c for i, c in enumerate(cells) if mask >> i & 1))
        )
    return out


def run_theorem_suite(n: int) -> SuiteReport:
    """Run every check on all instances of sizes 0..n, in one pass over
    the orders: each order's conflicts and edge sets are enumerated once
    and feed the structure checks and the bijection check, and the edge
    sets' total is matched against the structural ``count_es``."""
    check_size(n, "list")

    build_bad: list[str] = []
    witness_bad: list[str] = []
    roundtrip_bad: list[str] = []
    bijection_bad: list[str] = []
    count_bad: list[str] = []
    structures = 0
    orders = 0

    for k in range(n + 1):
        fg_total = 0
        for order in enumerate_partial_orders(k):
            orders += 1
            conflicts = enumerate_admissible_conflicts(order)
            edge_sets = enumerate_fullgraph_edge_sets(order)
            fg_total += len(edge_sets)
            report = bijection_report(order, edge_sets, conflicts)
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
                family = graph.certificate
                if family is None or not (
                    is_representation(family, order, conflict)
                    and is_fg_representation(family, order, graph.undirected)
                ):
                    witness_bad.append(tag)
                # the graph side's round trip is bijection_report's to check
                if fg_to_es(graph) != structure:
                    roundtrip_bad.append(tag)
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
                oracle_bad.append(
                    f"D={sorted(base.pairs)} U={sorted(conflict.pairs)}"
                )

    def result(name: str, bad: list[str], ok_detail: str) -> CheckResult:
        if bad:
            shown = "; ".join(bad[:3])
            more = f" (+{len(bad) - 3} more)" if len(bad) > 3 else ""
            return CheckResult(name, False, shown + more)
        return CheckResult(name, True, ok_detail)

    checks = (
        result(
            "representation-built-for-every-structure",
            build_bad,
            f"{structures} structures",
        ),
        result(
            "one-family-certifies-both-sides", witness_bad, f"{structures} structures"
        ),
        result("conversions-round-trip", roundtrip_bad, f"{structures} structures"),
        result(
            "complement-is-a-bijection-per-order", bijection_bad, f"{orders} orders"
        ),
        result("counts-agree-on-both-paths", count_bad, f"sizes 0..{n}"),
        result(
            "oracle-agrees-with-validity-check",
            oracle_bad,
            f"{scanned} relation pairs",
        ),
    )
    return SuiteReport(n=n, checks=checks)
