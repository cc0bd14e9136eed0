"""Koios serving benchmark: one command, seeded workloads.

Run from the root of a checkout (the program is imported from
``src/``)::

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload read-write --seed 1 --repeat 5

``--trace 0`` serves the workload through ``repro gateway serve`` and
prints the end-to-end metrics; ``--trace 1`` adds the in-process traced
pass and prints the per-layer metrics instead. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an answer was wrong
or an operation failed. ``--repeat N`` runs seeds ``seed .. seed+N-1``
each in its own process and prints every metric's median and quartiles.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process (the traced pass
# and the oracle run here): one BLAS thread, as in the served process.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import ALPHA, K, WORKLOADS  # noqa: E402

#: Scratch space (snapshots, WALs, the gateway config) and trace
#: output, inside the checkout the benchmark runs from.
WORK = Path(".perfbench")


def _median_ms(values) -> float:
    return statistics.median(values) * 1000.0


def end_to_end(served) -> dict:
    timed = served.phase("timed")
    queries = [r for r in timed if not r.op.is_write]
    # The first read after each write: a search right behind a write.
    after_write = [
        read for write, read in zip(served.records, served.records[1:])
        if write.op.is_write and not read.op.is_write
        and read.phase in ("timed", "checks", "burst")
    ]
    return {
        "setup_s": (statistics.median(served.setup_seconds), "s"),
        "qps": (len(queries) / served.timed_seconds, "1/s"),
        "query_p50_ms": (_median_ms(r.seconds for r in queries), "ms"),
        "peak_rss_mb": (served.peak_rss_mb, "MB"),
        "read_after_write_p50_ms": (
            _median_ms(r.seconds for r in after_write), "ms"
        ),
    }


def run_once(args, root: Path) -> int:
    from inputs import build_plan
    from oracle import Checker
    from served import served_pass

    run_name = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = root / WORK / "work" / run_name
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        started = time.perf_counter()
        plan = build_plan(args.workload, args.seed, workdir)
        print(f"# inputs built in {time.perf_counter() - started:.1f}s",
              flush=True)
        served = served_pass(plan, root, workdir, args.seconds)
        memo: dict = {}
        checker = Checker(plan.corpus, ALPHA, K, memo)
        records = list(served.records)
        for record in records:
            if not record.failed:
                checker.check(record.op, record.response)
        errors = list(checker.errors)
        if args.trace:
            from traced import layer_metrics, traced_pass

            traced = traced_pass(plan, workdir)
            traced_checker = Checker(plan.corpus, ALPHA, K, memo)
            for record in traced.records:
                if not record.failed:
                    traced_checker.check(record.op, record.response)
            errors += [f"traced: {e}" for e in traced_checker.errors]
            records += traced.records
            metrics = layer_metrics(traced, plan, served)
            trace_path = root / WORK / "traces" / (
                f"{args.workload}-seed{args.seed}.jsonl"
            )
            traced.tracer.write(trace_path)
            print(f"# {len(traced.tracer.spans)} spans written to "
                  f"{trace_path.relative_to(root)}")
        else:
            metrics = end_to_end(served)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"# MISMATCH {error}", flush=True)
    timed = served.phase("timed")
    print(
        f"# {args.workload} seed {args.seed}: {len(timed)} timed ops in "
        f"{served.timed_seconds:.2f}s, {len(served.records)} served "
        f"requests, {len(errors)} mismatches"
    )
    failed = sum(1 for r in records if r.failed)
    result = {
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    # A wrong answer or a failed operation fails the run.
    return 1 if errors or failed else 0


def run_repeated(args) -> int:
    """Run ``--repeat`` seeds in fresh processes; print each metric's
    median, quartiles and quartile spread (IQR / median)."""
    values: dict[str, list[float]] = {}
    failures = 0
    for seed in range(args.seed, args.seed + args.repeat):
        proc = subprocess.run(
            [
                sys.executable, __file__, "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"seed {seed}: exit {proc.returncode}, no result")
            print(proc.stderr[-2000:])
            return 1
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}")
        failures += result["failed"] + (not result["correct"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        ), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, series in values.items():
        if len(series) > 1:
            q1, q2, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q2 = q3 = series[0]
        spread = (q3 - q1) / q2 if q2 else 0.0
        print(f"{name:32} {q2:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    print(f"failed operations and incorrect runs: {failures}")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run this many seeds and summarise")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout "
              "(no src/repro here)", file=sys.stderr)
        return 2
    if args.repeat:
        return run_repeated(args)
    # SIGTERM unwinds like an exception, so the gateway is stopped and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, str(root / "src"))
    return run_once(args, root)


if __name__ == "__main__":
    sys.exit(main())
