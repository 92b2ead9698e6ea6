"""Span tracing of ``esfg`` from outside the package.

A ``Tracer`` replaces the public functions listed in ``PROBES`` with
wrappers while it is installed, in the defining module and in every
``esfg`` module that re-binds the same object with ``from .x import y``.
Each wrapped call records one span (name, start, end, parent) in memory;
hot constructors only bump a counter.  ``restore`` puts every original
back.  Per-layer metrics are derived from the spans afterwards: a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

Observer = Callable[["Tracer", tuple, Any], None]


def _incomparable_pairs(rel) -> int:
    """Unordered pairs of the field related neither way."""
    pairs = rel.pairs
    field = sorted({v for pair in pairs for v in pair})
    return sum(
        1
        for i, a in enumerate(field)
        for b in field[i + 1 :]
        if (a, b) not in pairs and (b, a) not in pairs
    )


def _candidates(prefix: str) -> Observer:
    """Count the 2^k symmetric candidates an enumerator tried (it tries
    none for a non-order, and returns at least one set for an order)."""

    def observe(tracer: Tracer, args: tuple, result: Any) -> None:
        if result:
            tracer.counters[prefix + "candidates"] += 1 << _incomparable_pairs(args[0])
        tracer.counters[prefix + "found"] += len(result)

    return observe


def _labels(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["labels"] += result.fresh_label_bound


def _search(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["search_found"] += result is not None


def _bytes_in(tracer: Tracer, args: tuple, result: Any) -> None:
    data = args[0]
    tracer.counters["bytes_in"] += len(data if isinstance(data, bytes) else data.encode())


def _bytes_out(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.counters["bytes_out"] += len(result)


@dataclass(frozen=True)
class Probe:
    """One traced callable.

    ``kind`` is ``span`` (one span per call), ``generator`` (one span per
    resumption, and a count of items under ``counter``) or ``count``
    (calls counted under ``counter``, no span: used for constructors hot
    enough that a span per call would dominate).
    """

    module: str
    qualname: str
    kind: str = "span"
    counter: str = ""
    observe: Observer | None = None

    @property
    def name(self) -> str:
        return self.module.removeprefix("esfg.") + "." + self.qualname


PROBES = (
    Probe("esfg.enumeration", "enumerate_partial_orders", "generator", "orders"),
    Probe("esfg.bijection", "enumerate_admissible_conflicts", observe=_candidates("conflict_")),
    Probe("esfg.bijection", "enumerate_fullgraph_edge_sets", observe=_candidates("edge_set_")),
    Probe("esfg.bijection", "verify_bijection"),
    Probe("esfg.bijection", "es_to_fg"),
    Probe("esfg.bijection", "fg_to_es"),
    Probe("esfg.event_structure", "is_event_structure"),
    Probe("esfg.event_structure", "es_failures"),
    Probe("esfg.fullgraph", "fg_failures"),
    Probe("esfg.fullgraph", "is_fg_representation"),
    Probe("esfg.relation", "Relation.__init__", "count", "relations"),
    Probe("esfg.relation", "Relation.sym_complement"),
    Probe("esfg.representation", "build_representation", observe=_labels),
    Probe("esfg.representation", "extend_with_terminal"),
    Probe("esfg.representation", "is_representation"),
    Probe("esfg.setfamily", "SetFamily.__init__", "count", "set_families"),
    Probe("esfg.familysearch", "search_set_family", observe=_search),
    Probe("esfg.documents", "parse_document", observe=_bytes_in),
    Probe("esfg.documents", "serialize_document", observe=_bytes_out),
    Probe("esfg.cli", "main"),
    Probe("esfg.verify", "run_theorem_suite"),
)


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "esfg" or name.startswith("esfg.")
    ]


class Tracer:
    """Installs the probes, records spans and counters, restores originals.

    Use as a context manager around the traced work.
    """

    def __init__(self) -> None:
        self.names = [probe.name for probe in PROBES]
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.counters: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # install / restore

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def install(self) -> None:
        try:
            for index, probe in enumerate(PROBES):
                self._install(index, probe)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self, index: int, probe: Probe) -> None:
        module = sys.modules[probe.module]
        owner_name, _, attr = probe.qualname.rpartition(".")
        if owner_name:
            # A method: patching the class covers every reference to it.
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(index, probe, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(index, probe, original)
        for other in _package_modules():
            for name, value in list(vars(other).items()):
                if value is original:
                    self._patch(other, name, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    # wrappers

    def _open(self, name_id: int) -> int:
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name_id: int, probe: Probe, fn: Callable) -> Callable:
        counters = self.counters
        if probe.kind == "count":
            key = probe.counter

            def counted(*args, **kwargs):
                counters[key] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        if probe.kind == "generator":
            key = probe.counter

            def resumed(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    span = self._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    counters[key] += 1
                    yield item

            return functools.wraps(fn)(resumed)

        observe = probe.observe

        def spanned(*args, **kwargs):
            span = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, args, result)
            return result

        return functools.wraps(fn)(spanned)

    # ------------------------------------------------------------------
    # results

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s`` and
        the longest single span ``max_s``."""
        count = len(self.span_name)
        child_ns = array("q", bytes(8 * count))
        durations = array(
            "q", (end - start for start, end in zip(self.span_start, self.span_end))
        )
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                child_ns[parent] += durations[index]
        totals = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            for name in self.names
        }
        for index in range(count):
            entry = totals[self.names[self.span_name[index]]]
            seconds = durations[index] / 1e9
            entry["calls"] += 1
            entry["total_s"] += seconds
            entry["self_s"] += seconds - child_ns[index] / 1e9
            entry["max_s"] = max(entry["max_s"], seconds)
        return totals

    def write_spans(self, path: Path) -> None:
        """Every span as gzipped TSV: name, start_ns, end_ns, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for name_id, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                out.write(f"{self.names[name_id]}\t{start}\t{end}\t{parent}\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, as ``name: (value, unit)``."""
    spans = tracer.span_totals()
    counts = tracer.counters

    def calls(name: str) -> int:
        return spans[name]["calls"]

    def total(name: str) -> float:
        return spans[name]["total_s"]

    def own(name: str) -> float:
        return spans[name]["self_s"]

    conflicts = counts["conflict_candidates"]
    edge_sets = counts["edge_set_candidates"]
    searches = calls("familysearch.search_set_family")
    return {
        "enumeration.orders": (counts["orders"], "count"),
        "enumeration.orders_s": (total("enumeration.enumerate_partial_orders"), "s"),
        "bijection.conflict_candidates": (conflicts, "count"),
        "bijection.conflicts_found": (counts["conflict_found"], "count"),
        "bijection.conflict_yield": (_ratio(counts["conflict_found"], conflicts), "ratio"),
        "bijection.conflicts_self_s": (own("bijection.enumerate_admissible_conflicts"), "s"),
        "bijection.edge_set_candidates": (edge_sets, "count"),
        "bijection.edge_sets_found": (counts["edge_set_found"], "count"),
        "bijection.edge_sets_self_s": (own("bijection.enumerate_fullgraph_edge_sets"), "s"),
        "bijection.verify_bijection_s": (total("bijection.verify_bijection"), "s"),
        "bijection.es_to_fg_s": (total("bijection.es_to_fg"), "s"),
        "bijection.fg_to_es_s": (total("bijection.fg_to_es"), "s"),
        "event_structure.validity_checks": (
            calls("event_structure.is_event_structure") + calls("event_structure.es_failures"),
            "count",
        ),
        "event_structure.validity_s": (
            total("event_structure.is_event_structure") + total("event_structure.es_failures"),
            "s",
        ),
        "fullgraph.recognitions": (calls("fullgraph.fg_failures"), "count"),
        "fullgraph.recognition_s": (total("fullgraph.fg_failures"), "s"),
        "fullgraph.certificate_checks": (calls("fullgraph.is_fg_representation"), "count"),
        "fullgraph.certificate_check_s": (total("fullgraph.is_fg_representation"), "s"),
        "relation.constructions": (counts["relations"], "count"),
        "relation.sym_complement_s": (total("relation.Relation.sym_complement"), "s"),
        "representation.builds": (calls("representation.build_representation"), "count"),
        "representation.build_self_s": (own("representation.build_representation"), "s"),
        "representation.extend_steps": (calls("representation.extend_with_terminal"), "count"),
        "representation.extend_s": (total("representation.extend_with_terminal"), "s"),
        "representation.is_representation_calls": (
            calls("representation.is_representation"),
            "count",
        ),
        "representation.is_representation_s": (total("representation.is_representation"), "s"),
        "representation.labels_allocated": (counts["labels"], "count"),
        "setfamily.constructions": (counts["set_families"], "count"),
        "familysearch.searches": (searches, "count"),
        "familysearch.found_ratio": (_ratio(counts["search_found"], searches), "ratio"),
        "familysearch.search_s": (total("familysearch.search_set_family"), "s"),
        "familysearch.search_max_s": (spans["familysearch.search_set_family"]["max_s"], "s"),
        "documents.parse_s": (total("documents.parse_document"), "s"),
        "documents.serialize_s": (total("documents.serialize_document"), "s"),
        "documents.bytes_in": (counts["bytes_in"], "bytes"),
        "documents.bytes_out": (counts["bytes_out"], "bytes"),
        "cli.main_self_s": (own("cli.main"), "s"),
        "verify.suite_self_s": (own("verify.run_theorem_suite"), "s"),
        "trace.spans": (tracer.span_count, "count"),
    }
