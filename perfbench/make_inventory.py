"""Regenerate inventory.json: the check names and shipped tolerances of today.

    python3 perfbench/make_inventory.py

Runs `geodesk verify all` at both benchmark configurations (seed 1) and
records, per suite, every check name with its tolerance.  The benchmark then
fails a suite run that loses one of these checks or loosens its tolerance.
Regenerate only when checks are added, renamed or retuned on purpose.
"""

from __future__ import annotations

import json
import os
import sys

from checks import INVENTORY_PATH, config_key, split_by_suite
from worker import OUT, import_geodesk, run_pass

CONFIGS = ((1, 64), (2, 16))


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    cli = import_geodesk()
    OUT.mkdir(exist_ok=True)
    inventory = {}
    for n, m in CONFIGS:
        res = run_pass(cli, n, m, 1, 1, OUT / "inventory-report.json")
        if res["rc"] != 0 or res["doc"] is None:
            print(f"n={n} m={m}: verify all failed (exit {res['rc']})\n{res['stderr']}",
                  file=sys.stderr)
            return 1
        inventory[config_key(n, m)] = {
            s["suite"]: {c["name"]: c["tol"] for c in s["checks"]}
            for s in split_by_suite(res["stdout"], res["doc"])}
    with open(INVENTORY_PATH, "w") as fh:
        json.dump(inventory, fh, indent=1)
        fh.write("\n")
    print(f"wrote {INVENTORY_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
