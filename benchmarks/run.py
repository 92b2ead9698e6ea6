"""Benchmark for ``esfg``: one workload, timed end to end or traced per layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 10 --trace 0

The program under test is the checkout's own ``src/esfg``; the benchmark
refuses to run without it.  With ``--trace 0`` the workload repeats
passes of fixed work until ``--seconds`` are used (at least one pass) and
reports the end-to-end metrics, with operation costs in reference seconds
(see ``stopwatch.py``) and the raw wall times in the metadata.  With
``--trace 1`` it runs one untraced pass and one traced pass of the same
inputs and reports the per-layer metrics, with the tracing overhead as
the difference of their wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run's metadata.  See README.md for the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Gitignored directory of the checkout for work files and span dumps.
OUT = ROOT / ".bench_out"
#: Fresh interpreters started to time ``import esfg``; the median counts.
SETUP_REPEATS = 7


def _import_program() -> None:
    """Import ``esfg`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "esfg" / "__init__.py").is_file():
        raise SystemExit(f"error: no esfg sources at {SRC}/esfg; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import esfg

    if Path(esfg.__file__).resolve().parent != SRC / "esfg":
        raise SystemExit(f"error: imported esfg from {esfg.__file__}, not {SRC}")


def _setup_seconds() -> float:
    """Median wall time of a fresh interpreter running ``import esfg``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import esfg"], cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _commit() -> str | None:
    """HEAD of the checkout's git directory, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def _metadata(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "nproc": os.cpu_count(),
        "src_loc": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
    }


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def main(argv: list[str] | None = None) -> int:
    _import_program()
    import tracing
    from stopwatch import Stopwatch
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = _metadata(args)
    setup_s = None if args.trace else _setup_seconds()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        meta.update(getattr(workload, "meta", {}))
        if args.trace:
            plain, traced = Stopwatch(), Stopwatch()
            passes = [workload.run_pass(0, plain)]
            with tracing.Tracer() as tracer:
                passes.append(workload.run_pass(0, traced))
            metrics = tracing.layer_metrics(tracer)
            metrics["trace.overhead_s"] = (sum(traced.walls) - sum(plain.walls), "s")
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            tracer.write_spans(spans)
            meta["spans_file"] = str(spans.relative_to(ROOT))
        else:
            passes = []
            watch = Stopwatch()
            started = time.perf_counter()
            while True:
                passes.append(workload.run_pass(len(passes), watch))
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            costs = watch.costs
            metrics = {
                "op_p50_ref_s": (statistics.median(costs), "ref-s"),
                "op_p90_ref_s": (_p90(costs), "ref-s"),
                "ops_per_ref_s": (len(costs) / sum(costs), "1/ref-s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            meta["ops"] = len(costs)
            meta["wall"] = {
                "op_p50_s": statistics.median(watch.walls),
                "op_p90_s": _p90(watch.walls),
                "ops_per_s": len(watch.walls) / sum(watch.walls),
            }
    meta["passes"] = len(passes)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
