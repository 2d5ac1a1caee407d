"""Record a BENCH_*.json point: alternating parent/change perfbench pairs.

    python3 tools/bench_record.py --parent ../parent --change . \\
        --pairs 10 --first-seed 101 --out BENCH_11.json

`--parent` and `--change` are two checkouts of the repository.  For each
workload and each pair i, both checkouts run

    python3 perfbench/run.py --workload W --seed first_seed+i --seconds 20 --trace 0

in turn, parent first on even i and change first on odd i.  The script reads
the JSON object on the last line of each run's output.  It writes, per
workload and end-to-end metric, both sides' median and quartiles, every
run's value, and the pairs the change won, with the seeds and a host
fingerprint.  A run that is not `correct` or has failed operations stops
the recording.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

# perfbench's end-to-end metrics (BENCHMARK.json); lower is better for each
METRICS = ("wall_s", "peak_rss_mb", "setup_s")
# the benchmark's fixed run length (BENCHMARK.json)
SECONDS = 20


def perfbench_workloads(root: Path) -> dict:
    """perfbench's WORKLOADS table: name -> (n, m, seeds, GEODESK_THREADS, rounds)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def run_once(root: Path, workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"{root}: {workload} seed {seed} was not correct: {doc}")
    return {m: doc["metrics"][m]["value"] for m in METRICS}


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def host(workloads: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": 1,
            "geodesk_threads": {w: spec[3] for w, spec in workloads.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=101)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 10:
        p.error("a BENCH point needs at least 10 pairs")
    workloads = perfbench_workloads(args.change)
    seeds = [args.first_seed + i for i in range(args.pairs)]
    doc = {"command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
           "seeds": seeds, "pairs": args.pairs, "host": host(workloads), "workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run_once(root.resolve(), workload, seed))
                print(f"{workload} seed {seed} {side}: {runs[side][-1]}", file=sys.stderr)
        doc["workloads"][workload] = {
            metric: {
                "parent": summary([r[metric] for r in runs["parent"]]),
                "change": summary([r[metric] for r in runs["change"]]),
                "change_wins": sum(new[metric] < old[metric]
                                   for old, new in zip(runs["parent"], runs["change"])),
            } for metric in METRICS}
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
