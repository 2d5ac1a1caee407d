"""Peak memory and wall time of each suite alone, and of `verify all`.

    python3 tools/suite_peaks.py --n 2 --grid 16
    python3 tools/suite_peaks.py --n 2 --grid 16 --root ../parent --root .

Each suite runs alone at seed 1 in a fresh interpreter with one BLAS thread,
then `verify all` runs serially and with GEODESK_THREADS=2.  A run's peak is
the VmHWM line of its own /proc/self/status (Linux), the high-water resident
memory of the process image: `ru_maxrss` carries over fork and exec, so a
child would report its parent's peak.  Peaks are printed in MB (10⁶ bytes),
wall times in seconds.  With several `--root` checkouts each row runs once in
each of them, in the order given, and the table has one column pair per
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 1  # the seed of every suite table in the repository

# the child: run one suite, or `verify all`, then report its VmHWM and wall
CHILD = """
import contextlib, io, json, re, sys, time
from geodesk import cli
suite, n, m, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if suite == "all":
        cli.main(["verify", "all", "--n", str(n), "--grid", str(m), "--seed", str(seed)])
    else:
        cli.run_suite(suite, n, m, seed, None, 1.0)
wall = time.perf_counter() - start
status = open("/proc/self/status").read()
hwm = int(re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1)) * 1024
print(json.dumps({"wall_s": wall, "peak_mb": hwm / 1e6}))
"""


def run(root: Path, suite: str, n: int, m: int, threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", GEODESK_THREADS=str(threads),
               PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-c", CHILD, suite, str(n), str(m), str(SEED)],
                         cwd=root, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def planned(root: Path, n: int) -> list[str]:
    """The suites `verify all` runs at n, as the checkout's own table says."""
    code = f"from geodesk import cli; print(' '.join(cli.planned_suites('all', {n})))"
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(root / "src")))
    return out.stdout.split()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--root", type=Path, action="append",
                   help="a checkout of the repository (repeatable); this one when omitted")
    args = p.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [ROOT])]
    rows = [(s, 1) for s in planned(roots[0], args.n)] + [("all", 1), ("all", 2)]
    print(f"n={args.n} m={args.grid} seed={SEED}; peak MB, wall s per checkout: "
          + ", ".join(str(r) for r in roots))
    for suite, threads in rows:
        results = [run(root, suite, args.n, args.grid, threads) for root in roots]
        label = suite if suite != "all" else f"verify all, {threads} thread(s)"
        cells = [f"{r['peak_mb']:8.1f} MB {r['wall_s']:7.2f} s" for r in results]
        print(f"{label:28s}" + " | ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
