"""Pin the reference documents the benchmark checks its passes against.

    python3 perfbench/pin.py --seeds 1-10

For each grid and seed, runs one untimed pass of the grid's workload and
records the sha256 of its sweep document plus a digest of every point's
document in ``reference.json`` (existing pins of other seeds are kept).
Run it on the commit whose answers are the reference; a pass that fails its
workload oracle pins nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import run
from suite import WORKLOADS

#: The workload whose pass pins each grid.
PINNING = {w.grid: w for w in WORKLOADS.values()}


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, required=True, help="N or LO-HI")
    parser.add_argument("--grid", choices=sorted(PINNING), action="append")
    args = parser.parse_args(argv)
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text())
    base = run.ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    for grid in args.grid or sorted(PINNING):
        workload = PINNING[grid]
        for seed in args.seeds:
            work = Path(tempfile.mkdtemp(prefix="pin-", dir=base))
            try:
                # Two processes fill a serial sweep's grid faster; the
                # document is the same for any job count.
                flag = "--parallel" if workload.jobs == 1 else None
                cache = Path(tempfile.mkdtemp(prefix="cache-", dir=work))
                p = run.run_pass(workload, seed, cache, work, "pin", flag, None,
                                 time.monotonic() + 600)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if p["code"] != 0 or p["failed"]:
                print(f"{grid} seed {seed}: pass failed, nothing pinned", file=sys.stderr)
                return 1
            reference.setdefault(grid, {})[str(seed)] = {
                "sha256": p["doc_sha256"], "points": dict(sorted(p["produced"].items())),
            }
            print(f"{grid} seed {seed}: {p['doc_sha256']}")
            path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
