"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/passrun.py pass  --workload W --seed N --out DIR [--trace|--parallel]
    python3 perfbench/passrun.py setup --workload W

``pass`` runs the workload's grid once, the way a user runs it (the
``repro sweep`` CLI), writes the sweep document to ``DIR/doc.json`` and the
probe records to ``DIR/proc-<pid>.json``.  ``setup`` does the work every
first run pays before its first point: import ``repro``, build every grid
program (compile cache) and its timing superblocks (tblocks cache).  Both
take the cache root from ``REPRO_CACHE_DIR``, which the caller points at a
fresh directory.

The program is imported from the ``src/`` next to this directory and
nowhere else: a missing tree is an error, not a fallback to an installed
copy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(Path(__file__).resolve().parent))
from suite import BENCHMARKS, WORKLOADS  # noqa: E402


def _import_repro() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"passrun: no program tree at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"passrun: imported repro from {repro.__file__}, not {SRC}")


def setup(workload) -> None:
    _import_repro()
    from repro.cpu.predecode import timing_blocks
    from repro.workloads.registry import make_workload

    for bench in BENCHMARKS:
        timing_blocks(make_workload(bench, scale=workload.scale).program)


def _record_counts(out: Path) -> dict:
    """Counters of this pass's points, read back from the result store.

    Simulation counts cover the points this pass simulated (store misses);
    ``record_kb`` is the mean stored record size over every point.
    """
    from repro.jobs import ResultStore

    store = ResultStore.default()
    counts = dict.fromkeys(("turns", "engine_steps", "manager_steps", "host_steps",
                            "instructions", "l1_accesses", "l1_misses"), 0)
    sizes = []
    for proc in out.glob("proc-*.json"):
        for sample in json.loads(proc.read_text())["points"]:
            if "key" not in sample:
                continue
            sizes.append(store.path(sample["key"]).stat().st_size)
            if sample["hit"]:
                continue
            record = store.load(sample["key"])
            stats = record["stats"]
            counts["turns"] += stats["engine.core_turns"]
            counts["engine_steps"] += stats["engine.steps"]
            counts["manager_steps"] += stats["engine.manager_steps"]
            counts["host_steps"] += stats["host.steps"]
            counts["instructions"] += record["metrics"]["instructions"]
            for core in record["cores"]:
                counts["l1_accesses"] += core["l1_accesses"]
                counts["l1_misses"] += core["l1_misses"]
    counts["record_kb"] = sum(sizes) / len(sizes) / 1024 if sizes else 0.0
    return counts


def run_pass(workload, seed: int, out: Path, trace: bool, parallel: bool) -> int:
    _import_repro()
    from probes import Recorder, clock, install

    rec = Recorder(str(out), trace=trace)
    install(rec)
    doc_path = out / "doc.json"
    status = 0
    t0 = clock()
    try:
        from repro.cli import main

        status = main(workload.sweep_argv(seed, str(doc_path), jobs=2 if parallel else None))
    finally:
        t1 = clock()
        rec.flush()
    info = {"start_ns": t0, "end_ns": t1, "root_child_ns": rec.stack[0]}
    if trace and status == 0:
        info["records"] = _record_counts(out)
    (out / "pass.json").write_text(json.dumps(info))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pass", "setup"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--parallel", action="store_true",
                        help="run the sweep on two processes (the document is the same)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        setup(workload)
        return 0
    return run_pass(workload, args.seed, Path(args.out), args.trace, args.parallel)


if __name__ == "__main__":
    sys.exit(main())
