"""Benchmark of `geodesk verify all` at its shipped default configurations.

    python3 perfbench/run.py --workload n2-m16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1          # every workload in turn

Each round of a workload runs in a fresh interpreter (worker.py) with one
BLAS thread; rounds repeat until `--seconds` of passes were measured.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced process.  The last line of output is one JSON
object: correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # a run, set-up included, ends within 180 s

# n, grid m, consecutive seeds per round, GEODESK_THREADS, fewest rounds.
# The threaded peak RSS depends on which two suites overlap at the peak, so
# that workload always takes the median of three rounds.
WORKLOADS = {
    "n2-m16": (2, 16, 1, 1, 1),
    "n1-m64-sweep": (1, 64, 8, 1, 1),
    "n2-m16-threads2": (2, 16, 1, 2, 3),
}
# The independent Ricci-form checks run at every seed of a round and at the
# other default configuration too.
DEFAULT_CONFIGS = ((1, 64), (2, 16))


class BenchError(Exception):
    pass


def start_worker(spec: dict, deadline: float) -> dict:
    """Run worker.py; set-up is the time from spawn to its `ready` line."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", GEODESK_THREADS=str(spec["threads"]))
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - spawned
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} before a result")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Fresh-process rounds until `seconds` of measured passes and at least
    `min_rounds` rounds; then, when traced, one traced round."""
    n, m, seeds, threads, min_rounds = WORKLOADS[name]
    deadline = time.monotonic() + DEADLINE_S
    passes = [[n, m, seed + i] for i in range(seeds)]
    independent = passes + [[dn, dm, seed] for dn, dm in DEFAULT_CONFIGS if dn != n]
    base = {"workload": name, "seed": seed, "threads": threads, "trace": False,
            "passes": passes, "independent": []}
    rounds = []
    while len(rounds) < min_rounds or sum(r["seconds"] for r in rounds) < seconds:
        rounds.append(start_worker(dict(base, independent=[] if rounds else independent),
                                   deadline))
    runs = list(rounds)
    if trace:
        traced = start_worker(dict(base, trace=True), deadline)
        runs.append(traced)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["seconds"] - statistics.median(r["seconds"] for r in rounds),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["seconds"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
            "setup_s": {"value": rounds[0]["setup_s"], "unit": "s"}}
    for note in (n for r in runs for n in r["notes"]):
        print(f"[{name}] note: {note}", file=sys.stderr)
    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print(f"[{name}] {p}", file=sys.stderr)
    failed = sum(r["failed"] for r in runs)
    return {"correct": not problems and failed == 0,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                   help="one workload; every workload in turn when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "geodesk" / "cli.py").is_file():
        print(f"no geodesk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"[{name}] {exc}", file=sys.stderr)
            return 1
        for metric, v in results[name]["metrics"].items():
            print(f"{name:16s} {metric:36s} {v['value']:.6g} {v['unit']}")
    if args.workload:
        summary = results[args.workload]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{w}/{k}": v for w, r in results.items()
                               for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
