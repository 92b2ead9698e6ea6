"""The six benchmark workloads and their correctness gates.

Each workload is driven through ``esfg``'s public entry points from one
thread, as a closed loop: the next operation starts when the previous
one has returned.  ``run_pass`` performs one pass of fixed work, times
each user-visible operation on the given ``Stopwatch``, checks every
output against the benchmark's own expectations, and counts each wrong
or failed operation.  Nothing is skipped and no failure aborts the pass.

Modules are looked up at call time (``cli.main``, not a bound name), so
the tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import esfg
import esfg.cli as cli

import docgen
from stopwatch import Stopwatch

#: Labeled counts from the paper for n = 5.
COUNT_N5 = 41099
#: Lines ``esfg verify --n 4`` prints when every check passes.
VERIFY_N4 = (
    "representation-built-for-every-structure: PASS (963 structures)\n"
    "one-family-certifies-both-sides: PASS (963 structures)\n"
    "conversions-round-trip: PASS (963 structures)\n"
    "complement-is-a-bijection-per-order: PASS (243 orders)\n"
    "counts-agree-on-both-paths: PASS (sizes 0..4)\n"
    "oracle-agrees-with-validity-check: PASS (217 relation pairs)\n"
)
#: Label bound for the ES-side oracle sweep on 3 points.
ORACLE_LABEL_BOUND = 9
#: Marks an operation that raised instead of returning.
RAISED = object()


@dataclass
class PassResult:
    """Verdicts checked and verdicts wrong in one pass."""

    attempted: int
    failed: int


def _report(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr, flush=True)


def _cli(argv: list[str]) -> tuple[int | None, str]:
    """Run ``esfg <argv>`` in-process: exit code (None if it raised) and
    captured stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, out.getvalue()


def _represents(family: dict[int, frozenset[int]], n: int, containment, second, overlap: bool) -> bool:
    """The benchmark's own certificate check: an injective family of
    nonempty sets on exactly ``0..n-1`` with containment matching
    ``containment`` and disjointness (or proper overlap) matching
    ``second``, over every ordered pair."""
    if sorted(family) != list(range(n)) or len(set(family.values())) != n:
        return False
    if frozenset() in family.values():
        return False
    for x, fx in family.items():
        for y, fy in family.items():
            if ((x, y) in containment) != (fx >= fy):
                return False
            inter = fx & fy
            status = bool(inter) and inter != fx and inter != fy if overlap else not inter
            if ((x, y) in second) != status:
                return False
    return True


def _pairs(raw: list) -> frozenset[tuple[int, int]]:
    return frozenset((a, b) for a, b in raw)


def _family(raw: list) -> dict[int, frozenset[int]]:
    family = {key: frozenset(labels) for key, labels in raw}
    if len(family) != len(raw):
        raise ValueError("family repeats a vertex")
    return family


class Census:
    """``esfg enumerate --n 5 --kind <kind> --count-only --slow``."""

    def __init__(self, kind: str):
        self.argv = ["enumerate", "--n", "5", "--kind", kind, "--count-only", "--slow"]

    def run_pass(self, index: int, watch: Stopwatch) -> PassResult:
        with watch.op():
            code, out = _cli(self.argv)
        ok = code == 0 and out == f"{COUNT_N5}\n"
        if not ok:
            _report(f"esfg {' '.join(self.argv)}: exit {code}, output {out!r}")
        return PassResult(1, 0 if ok else 1)


class Verify:
    """``esfg verify --n 4``: six checks, all PASS."""

    def __init__(self, seed: int, workdir: Path):
        pass

    def run_pass(self, index: int, watch: Stopwatch) -> PassResult:
        with watch.op():
            code, out = _cli(["verify", "--n", "4"])
        ok = code == 0 and out == VERIFY_N4
        if not ok:
            _report(f"esfg verify --n 4: exit {code}, output {out!r}")
        return PassResult(1, 0 if ok else 1)


class OracleEs:
    """ES-side existence search: every order on 3 points against every
    symmetric relation on 3 points (19 x 64 = 1216 searches), each
    verdict checked against the benchmark's own validity check."""

    def __init__(self, seed: int, workdir: Path):
        self.cases = [
            (esfg.Relation(3, order), esfg.Relation(3, conflict), order, conflict)
            for order in docgen.orders(3)
            for conflict in docgen.symmetric_relations(3)
        ]
        self.expected = [docgen.is_event_structure(3, o, c) for _, _, o, c in self.cases]
        if len(self.cases) != 1216 or sum(self.expected) != 41:
            raise RuntimeError("oracle-es inputs do not match the paper's 41 structures")

    def run_pass(self, index: int, watch: Stopwatch) -> PassResult:
        search = esfg.find_representation_bruteforce
        found: list = []
        with watch.op():
            for causality, conflict, _, _ in self.cases:
                try:
                    found.append(search(causality, conflict, ORACLE_LABEL_BOUND))
                except Exception:
                    traceback.print_exc()
                    found.append(RAISED)
        failed = 0
        for (_, _, order, conflict), family, valid in zip(self.cases, found, self.expected):
            if family is RAISED:
                ok = False
            elif family is None:
                ok = not valid
            else:
                ok = valid and _represents(dict(family.items()), 3, order, conflict, False)
            if not ok:
                failed += 1
                _report(f"oracle-es D={sorted(order)} U={sorted(conflict)}: {family}")
        return PassResult(len(self.cases), failed)


class OracleFg:
    """FG-side oracle: the edge sets of every order on 3 points, each
    candidate vetted by the exhaustive fg-representation search (the
    work of ``count_fg(3, oracle=True)``, order by order, so that every
    order's verdicts are checked).  41 edge sets in total."""

    def __init__(self, seed: int, workdir: Path):
        self.orders = [(esfg.Relation(3, order), order) for order in docgen.orders(3)]
        self.expected = []
        for _, order in self.orders:
            square = docgen.incomparable(3, order)
            self.expected.append(
                {
                    square - conflict
                    for conflict in docgen.symmetric_relations(3)
                    if docgen.is_event_structure(3, order, conflict)
                }
            )
        if sum(map(len, self.expected)) != 41:
            raise RuntimeError("oracle-fg inputs do not match the paper's 41 graphs")

    def run_pass(self, index: int, watch: Stopwatch) -> PassResult:
        enumerate_edge_sets = esfg.enumerate_fullgraph_edge_sets
        results: list = []
        with watch.op():
            for relation, _ in self.orders:
                try:
                    results.append(enumerate_edge_sets(relation, oracle=True))
                except Exception:
                    traceback.print_exc()
                    results.append(RAISED)
        failed = 0
        for (_, order), got, want in zip(self.orders, results, self.expected):
            if got is RAISED or {t.pairs for t in got} != want or len(got) != len(want):
                failed += 1
                _report(f"oracle-fg D={sorted(order)}: {got}")
        return PassResult(len(self.orders), failed)


class Certify:
    """Seeded stream of valid ES documents; each goes through
    ``esfg represent``, ``esfg check`` on the certificate and
    ``esfg convert --to fg``, on files in the work directory."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.meta = {
            "mix": {
                "sizes": docgen.SIZES,
                "shapes": docgen.SHAPES,
                "densities": docgen.DENSITIES,
            }
        }
        self.source = workdir / "structure.json"
        self.certificate = workdir / "certificate.json"
        self.graph = workdir / "graph.json"

    def run_pass(self, index: int, watch: Stopwatch) -> PassResult:
        docs = docgen.certify_batch(self.seed, index)
        failed = 0
        for doc in docs:
            self.source.write_bytes(doc.to_json())
            with watch.op():
                steps = [
                    _cli(["represent", str(self.source), "-o", str(self.certificate)]),
                    _cli(["check", str(self.certificate)]),
                    _cli(["convert", "--to", "fg", str(self.source), "-o", str(self.graph)]),
                ]
            if not self._correct(doc, steps):
                failed += 1
                _report(f"certify n={doc.n} {doc.shape}/{doc.density}: {steps}")
        return PassResult(len(docs), failed)

    def _correct(self, doc: docgen.Document, steps: list) -> bool:
        codes = [code for code, _ in steps]
        if codes != [0, 0, 0]:
            return False
        if steps[1][1] != f"valid representation document ({doc.n} vertices)\n":
            return False
        try:
            cert = json.loads(self.certificate.read_bytes())
            graph = json.loads(self.graph.read_bytes())
            undirected = docgen.incomparable(doc.n, doc.causality) - doc.conflict
            return (
                cert["kind"] == "representation"
                and cert["universe"] == doc.n
                and _pairs(cert["causality"]) == doc.causality
                and _pairs(cert["conflict"]) == doc.conflict
                and _represents(_family(cert["family"]), doc.n, doc.causality, doc.conflict, False)
                and graph["kind"] == "fg"
                and graph["universe"] == doc.n
                and _pairs(graph["directed"]) == doc.causality
                and _pairs(graph["undirected"]) == undirected
                and _represents(_family(graph["family"]), doc.n, doc.causality, undirected, True)
            )
        except (OSError, ValueError, KeyError, TypeError):
            traceback.print_exc()
            return False


WORKLOADS = {
    "census-es": lambda seed, workdir: Census("es"),
    "census-fg": lambda seed, workdir: Census("fg"),
    "verify": Verify,
    "oracle-es": OracleEs,
    "oracle-fg": OracleFg,
    "certify": Certify,
}
