"""Tests of the benchmark itself.  Run from the repository root with

    python -m pytest benchmarks/tests
"""

import json
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import docgen
import esfg
import tracing
from stopwatch import Stopwatch

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_certify_stream_is_deterministic_per_seed():
    assert docgen.certify_batch(3, 0) == docgen.certify_batch(3, 0)
    assert docgen.certify_batch(3, 0) != docgen.certify_batch(4, 0)
    assert docgen.certify_batch(3, 0) != docgen.certify_batch(3, 1)


def test_certify_stream_covers_the_mix_with_valid_structures():
    docs = docgen.certify_batch(11, 0)
    cells = {(d.n, d.shape, d.density) for d in docs}
    assert cells == set(product(docgen.SIZES, docgen.SHAPES, docgen.DENSITIES))
    assert len(docs) == len(cells)
    for doc in docs:
        assert docgen.is_event_structure(doc.n, doc.causality, doc.conflict)
        causality = esfg.Relation(doc.n, doc.causality)
        conflict = esfg.Relation(doc.n, doc.conflict)
        assert esfg.es_failures(causality, conflict) == ()
    assert any(d.conflict for d in docs if d.density == "dense")
    assert not any(d.conflict for d in docs if d.density == "none")


def test_own_checks_reproduce_the_small_counts():
    assert [len(docgen.orders(n)) for n in range(4)] == [1, 1, 3, 19]
    assert len(docgen.symmetric_relations(3)) == 64
    valid = [
        docgen.is_event_structure(3, order, conflict)
        for order in docgen.orders(3)
        for conflict in docgen.symmetric_relations(3)
    ]
    assert sum(valid) == 41


def _bindings():
    """Every attribute of every esfg module, plus the probed classes' dicts."""
    modules = tracing._package_modules()
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for cls in (esfg.Relation, esfg.SetFamily):
        snapshot.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snapshot


def test_tracer_restores_every_wrapped_function():
    import esfg.cli  # noqa: F401  (the probes cover the CLI module too)

    before = _bindings()
    original = esfg.bijection.is_event_structure
    with tracing.Tracer() as tracer:
        assert esfg.bijection.is_event_structure is not original
        assert esfg.verify.is_event_structure is esfg.bijection.is_event_structure
        assert esfg.fullgraph.es_failures is esfg.event_structure.es_failures
        assert esfg.count_es(3) == 41
    assert _bindings() == before
    assert tracer.span_count > 0

    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert _bindings() == before


def test_tracer_counts_the_layers_it_wraps():
    with tracing.Tracer() as tracer:
        assert esfg.count_es(3) == 41
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
    assert metrics["enumeration.orders"] == 19
    assert metrics["bijection.conflict_candidates"] == 50
    assert metrics["bijection.conflicts_found"] == 41
    assert metrics["event_structure.validity_checks"] == 50
    assert metrics["familysearch.searches"] == 0
    totals = tracer.span_totals()
    conflicts = totals["bijection.enumerate_admissible_conflicts"]
    assert 0 < conflicts["self_s"] < conflicts["total_s"]


def test_stopwatch_samples_speed_inside_each_operation():
    import signal

    handler = signal.getsignal(signal.SIGALRM)
    watch = Stopwatch()
    with watch.op():
        assert esfg.count_es(4) == 916
    with watch.op():
        pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(watch.walls) == len(watch.costs) == 2
    assert all(cost > 0 for cost in watch.costs)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_declared_metric(trace, section):
    done = _run(ROOT, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
