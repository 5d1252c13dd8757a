"""One workload run in a fresh interpreter; started by run.py.

The first thing this process does is import ``choosiow.cli`` (numpy and scipy
included) and time it, so nothing the benchmark imports is counted there or
hidden from it.  It then builds the seeded inputs (not timed), runs the
warm-up ops (timed as set-up), and, by mode:

* ``setup``: stops and reports the set-up times only;
* ``run``: repeats whole rounds of the workload for ``--seconds`` and reports
  throughput and op latencies, with tracing off;
* ``trace``: untraced and traced rounds alternate for a third of
  ``--seconds`` each, then a second traced pass repeats the traced rounds;
  reports the per-layer figures of the first traced pass, the tracing
  overhead (traced over untraced op time), and whether the work counts of
  the two traced passes repeat exactly.

Every op's output is checked between rounds, outside the timed intervals.
An op that raises counts as failed; an op whose output fails a check counts
as failed and as wrong.  After each round a fixed pure-Python loop is timed
as a probe of the host's speed.
The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

MAX_FAILURE_MESSAGES = 20
PROBE_STEPS = 20_000  # multiply-modulo steps of the host-speed probe, ~2-5 ms


def _timed_rounds(workload, seconds=None, rounds=None, tracer=None) -> dict:
    """Run whole rounds until `seconds` of op time or `rounds` rounds have passed."""
    latencies, failures, probes = [], [], []
    wall = 0.0
    done = failed = wrong = emitted = 0
    while (done < rounds) if rounds is not None else (wall < seconds):
        outputs = []
        start = previous = time.perf_counter()
        for op in workload.ops:
            if tracer is not None:
                tracer.op += 1
            try:
                output = workload.run(op)
            except Exception as exc:  # an op that raises counts as failed
                output = exc
            now = time.perf_counter()
            latencies.append(now - previous)
            previous = now
            outputs.append(output)
        wall += previous - start
        for op, output in zip(workload.ops, outputs):
            if isinstance(output, Exception):
                problems = [f"raised {type(output).__name__}: {output}"]
            else:
                try:
                    problems = workload.check(op, output)
                except Exception as exc:  # a malformed output fails its check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                wrong += bool(problems)
                emitted += _emitted_bytes(output)
            if problems:
                failed += 1
                failures.extend(problems[: MAX_FAILURE_MESSAGES - len(failures)])
        done += 1
        probes.append(_probe_ms())
    return {
        "rounds": done,
        "ops": len(latencies),
        "failed": failed,
        "wrong": wrong,
        "failures": failures,
        "wall_s": wall,
        "latencies": latencies,
        "probe_ms": probes,
        "emitted_bytes": emitted,
    }


def _merge(results: list) -> dict:
    keys = ("rounds", "ops", "failed", "wrong", "wall_s", "emitted_bytes")
    merged = {key: sum(r[key] for r in results) for key in keys}
    merged["failures"] = [f for r in results for f in r["failures"]]
    merged["latencies"] = [x for r in results for x in r["latencies"]]
    merged["probe_ms"] = [x for r in results for x in r["probe_ms"]]
    return merged


def _probe_ms() -> float:
    """Time of a fixed pure-Python loop, a probe of the host's speed.

    It runs once after each round, outside the timed intervals, and is
    recorded beside the results, never folded into them: runs whose probes
    differ widely ran in different machine states.
    """
    start = time.perf_counter()
    x = 1
    for _ in range(PROBE_STEPS):
        x = x * 48271 % 2147483647
    return 1e3 * (time.perf_counter() - start)


def _emitted_bytes(output) -> int:
    """Report bytes of a CLI op, whose output maps command -> (exit code, text)."""
    if isinstance(output, dict):
        return sum(len(text.encode("utf-8")) for _, text in output.values())
    return 0


def _end_to_end(result: dict) -> dict:
    ms = sorted(1e3 * x for x in result["latencies"])
    return {
        "ops_per_s": result["ops"] / result["wall_s"],
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10)[8],
    }


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for scratch and trace files")
    parser.add_argument("--source", type=Path, required=True, help="the src directory under test")
    args = parser.parse_args()

    start = time.perf_counter()
    import choosiow.cli  # noqa: F401  (timed: the program's own import)

    import_s = time.perf_counter() - start
    package_dir = Path(choosiow.cli.__file__).resolve().parent
    if package_dir.parent != args.source.resolve():
        print(f"imported choosiow from {package_dir}, not from {args.source}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    result = {"import_s": import_s, "env": _environment()}
    with tempfile.TemporaryDirectory(dir=args.out, prefix="work-") as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        start = time.perf_counter()
        for op in workload.warmup:
            try:
                workload.run(op)
            except Exception:  # counted when the same op runs in the timed rounds
                pass
        result["warmup_s"] = time.perf_counter() - start

        if args.mode == "run":
            timed = _timed_rounds(workload, seconds=args.seconds)
            result["metrics"] = _end_to_end(timed)
        elif args.mode == "trace":
            tracer = tracing.Tracer()
            untraced, traced = [], []
            # Untraced and traced rounds alternate, so that both see the same
            # machine state and their ratio is the tracing overhead.
            while sum(r["wall_s"] for r in untraced) < args.seconds / 3:
                untraced.append(_timed_rounds(workload, rounds=1))
                tracer.install()
                try:
                    traced.append(_timed_rounds(workload, rounds=1, tracer=tracer))
                finally:
                    tracer.uninstall()
            untraced, timed = _merge(untraced), _merge(traced)
            spans, counts = tracer.spans, tracer.counts()
            tracer.reset()
            tracer.install()
            try:
                repeat = _timed_rounds(workload, rounds=timed["rounds"], tracer=tracer)
            finally:
                tracer.uninstall()
            repeat_counts = tracer.counts()
            tracer.spans = spans
            metrics = tracer.metrics(timed["ops"])
            metrics["cli.emit_bytes_per_op"] = {
                "value": timed["emitted_bytes"] / timed["ops"], "unit": "B/op"}
            metrics["trace.overhead"] = {
                "value": 100.0 * (timed["wall_s"] / untraced["wall_s"] - 1.0), "unit": "%"}
            result["metrics"] = metrics
            result["absent"] = tracer.absent
            result["counts"] = counts
            result["counts_repeat"] = counts == repeat_counts
            if not result["counts_repeat"]:
                timed["failures"].append(f"traced counts differ: {counts} vs {repeat_counts}")
            timed = dict(_merge([timed, untraced, repeat]), rounds=timed["rounds"])
            trace_path = args.out / f"trace_{args.workload}_seed{args.seed}.json"
            tracer.write(trace_path)
            result["trace_file"] = str(trace_path)

    if args.mode != "setup":
        result.update(
            probe_ms={
                "min": min(timed["probe_ms"]),
                "median": statistics.median(timed["probe_ms"]),
                "max": max(timed["probe_ms"]),
            },
            attempted=timed["ops"],
            failed=timed["failed"],
            wrong=timed["wrong"],
            failures=timed["failures"][:MAX_FAILURE_MESSAGES],
            rounds=timed["rounds"],
            wall_s=timed["wall_s"],
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
