"""Benchmark of choosiow: one workload run, results as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload many-small --seed 1 --seconds 20 --trace 0

Workloads: many-small, large-lopsided, cli-session (see bench/README.md).
With --trace 0 the last line of standard output holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a separate traced
run.  `correct` is false if any op's output failed an oracle check; such an
op, and one that raised, count in `failed`.  The full record, with the
machine and library versions and a host-speed probe, is written to
bench/out/.

Each run starts fresh interpreters: SETUP_PROBES of them only import the
program and run the warm-up ops, for the median set-up time, then one runs
the workload.  All of them get a single BLAS thread and write no bytecode.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOADS = ("many-small", "large-lopsided", "cli-session")
SETUP_PROBES = 4  # set-up only processes; the workload process makes one more sample
SINGLE_THREAD = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _worker(mode: str, args, timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SOURCE), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in SINGLE_THREAD})
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--out", str(OUT), "--source", str(SOURCE),
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{mode} process exited {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="choosiow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "choosiow" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    probes = [_worker("setup", args, timeout=60) for _ in range(SETUP_PROBES)]
    mode = "trace" if args.trace else "run"
    run = _worker(mode, args, timeout=max(120.0, 4 * args.seconds))
    samples = probes + [run]
    import_s = statistics.median(p["import_s"] for p in samples)
    warmup_s = statistics.median(p["warmup_s"] for p in samples)

    if args.trace:
        metrics = dict(run["metrics"])
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.warmup_s"] = {"value": warmup_s, "unit": "s"}
        correct = run["wrong"] == 0 and run["counts_repeat"]
    else:
        e2e = run["metrics"]
        metrics = {
            "ops_per_s": {"value": e2e["ops_per_s"], "unit": "1/s"},
            "op_ms_p50": {"value": e2e["op_ms_p50"], "unit": "ms"},
            "op_ms_p90": {"value": e2e["op_ms_p90"], "unit": "ms"},
            "setup_s": {
                "value": statistics.median(p["import_s"] + p["warmup_s"] for p in samples),
                "unit": "s",
            },
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
        correct = run["wrong"] == 0
    summary = {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }

    record_path = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record = {
        "args": vars(args),
        "env": run["env"],
        "summary": summary,
        "rounds": run["rounds"],
        "timed_wall_s": run["wall_s"],
        "failures": run["failures"],
        "wrong": run["wrong"],
        # host-speed probe, ms per fixed pure-Python loop after each round;
        # see bench/README.md, "Spread"
        "probe_ms": run["probe_ms"],
        "setup_samples": [{"import_s": p["import_s"], "warmup_s": p["warmup_s"]} for p in samples],
    }
    for key in ("absent", "counts", "trace_file"):
        if key in run:
            record[key] = run[key]
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in run["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    if run.get("absent"):
        print(f"absent from the program, not traced: {', '.join(run['absent'])}", file=sys.stderr)
    print(f"env: {json.dumps(run['env'])}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
