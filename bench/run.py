#!/usr/bin/env python3
"""Benchmark for btamari: one workload per call, in fresh processes.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  A run times SETUP_RUNS fresh interpreters that only set the
workload up, half before and half after the worker, after one untimed one
that fills the bytecode and file caches.  The one worker process sets up,
warms up and runs closed-loop passes (one caller, each call after the
previous one returns) over the workload's inputs for ``--seconds``; with
``--trace 1`` it adds one traced pass.  Every output is checked against
references.json.  Set-up and pass times are wall times scaled to a
reference core speed sampled during the run, which takes out most of the
drift of a shared host's cores (pace.py); the table prints the wall
medians beside them.

Standard output is a readable table, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json when untraced, its per-layer metrics when traced.  ``all``
runs every workload in turn and prefixes each metric with the workload name.
The worker writes the traced run's spans to ``bench/out/``.  The exit code is
0 only when a result was printed; a missing ``src/btamari`` or a crashed,
hung or misreporting worker exits with 2 before any result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 10
RUN_LIMIT_S = 170.0  # a worker still alive after this is killed: runs must end in 180 s


def _child_env() -> dict[str, str]:
    """The caller's environment with btamari pinned to this checkout.

    Single-threaded numeric libraries keep every workload at threads = 1; a
    fixed hash seed keeps set and dict iteration order the same across runs.
    """
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("PYTHONPATH", "TAMARI_B_CAP")
    }
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py once: wall seconds until it printed ``ready``, and its
    last line, a JSON object."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *argv],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise WorkerError(f"worker {' '.join(argv)} exited with code {proc.returncode}")
    try:
        return setup_s, json.loads(rest[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerError(f"worker {' '.join(argv)} printed no result") from exc


def scaled_setup(wall_s: float, result: dict) -> float:
    """Set-up wall time at the reference core speed (see pace.py)."""
    return wall_s * result["setup_factor"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up-only runs plus one worker run; returns the measurements."""
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_only = ["--workload", name, "--seed", str(seed), "--setup-only"]
    run_worker(setup_only, deadline)
    # Half the set-up runs come before the worker and half after it, so the
    # set-up figure samples the machine at both ends of the run.
    before = SETUP_RUNS // 2
    setups = [scaled_setup(*run_worker(setup_only, deadline)) for _ in range(before)]
    worker_setup, result = run_worker(
        ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        deadline,
    )
    setups.append(scaled_setup(worker_setup, result))
    setups += [
        scaled_setup(*run_worker(setup_only, deadline))
        for _ in range(SETUP_RUNS - before)
    ]
    result["setup_s"] = setups
    return result


def end_to_end(result: dict) -> dict[str, float]:
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "pass_s": statistics.median(result["pass_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, names: list[str]) -> dict[str, float]:
    """Per-layer metrics from the traced pass.

    A metric is ``<module>.<function>.<stat>``: stat is calls, self_s,
    total_s, p50_s or a count, and ``kept_ratio`` is aligned rows kept over
    rows scanned.  A function that was never called reads 0.  ``trace.*``
    describes the traced pass itself, in wall time: no probe interrupts it.
    """
    trace = result["trace"]
    untraced = statistics.median(result["wall_s"])
    own = {
        "trace.pass_s": trace["pass_s"],
        "trace.overhead_s": trace["pass_s"] - untraced,
        "trace.span_share": trace["root_s"] / trace["pass_s"],
    }
    values = {}
    for metric in names:
        if metric in own:
            values[metric] = own[metric]
            continue
        span, stat = metric.rsplit(".", 1)
        row = trace["layers"].get(span, {})
        if stat == "kept_ratio":
            values[metric] = row.get("kept", 0) / row["rows"] if row.get("rows") else 0.0
        else:
            values[metric] = row.get(stat, 0)
    return values


def print_report(name: str, seed: int, ref: dict, result: dict, trace: bool):
    passes = result["pass_s"]
    q1, med, q3 = quartiles(passes)
    attempted, failed = result["attempted"], result["failed"]
    print(f"== {name}  seed {seed}: {ref['compositions']:,} compositions and "
          f"{ref['rows']:,} quotient rows per pass, closed loop, one caller")
    print(f"  setup_s      {statistics.median(result['setup_s']):10.4f} s      "
          f"median of {len(result['setup_s'])} fresh interpreters")
    print(f"  pass_s       {med:10.4f} s      q1 {q1:.4f}  q3 {q3:.4f}  "
          f"{len(passes)} untraced passes; wall median "
          f"{statistics.median(result['wall_s']):.4f} s")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:10.2f} MB     worker process")
    print(f"  failed_frac  {failed / attempted:10.4f} ratio  "
          f"{failed} of {attempted} inputs")
    if not trace:
        return
    t = result["trace"]
    wall = statistics.median(result["wall_s"])
    print(f"  traced pass {t['pass_s']:.4f} s wall, overhead {t['pass_s'] - wall:+.4f} s"
          f" over the wall median; self times sum to {t['root_s']:.4f} s")
    if t["absent"]:
        print(f"  absent (renamed or removed): {', '.join(t['absent'])}")
    print(f"  {'layer span':38} {'calls':>9} {'self_s':>9} {'total_s':>9} "
          f"{'p50_s':>9}  counts")
    rows = sorted(t["layers"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, row in rows:
        counts = ", ".join(
            f"{k}={v:,}" for k, v in row.items()
            if k not in ("calls", "self_s", "total_s", "p50_s")
        )
        print(f"  {span:38} {row['calls']:9,} {row['self_s']:9.4f} "
              f"{row['total_s']:9.4f} {row['p50_s']:9.5f}  {counts}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "btamari" / "__init__.py").is_file():
        print(f"no btamari sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    refs = json.loads((BENCH / "references.json").read_text())
    names = [m["name"] for m in metrics]
    chosen = workloads if args.workload == "all" else [args.workload]
    attempted = failed = 0
    values_out = {}
    for name in chosen:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(exc, file=sys.stderr)
            return 2
        print_report(name, args.seed, refs[name], result, bool(args.trace))
        values = per_layer(result, names) if args.trace else end_to_end(result)
        prefix = f"{name}." if args.workload == "all" else ""
        for m in metrics:
            values_out[prefix + m["name"]] = {
                "value": values[m["name"]], "unit": m["unit"],
            }
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": values_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
