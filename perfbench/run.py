"""The repository benchmark: paper sweep workflows, timed end to end.

    python3 perfbench/run.py --workload fig8-cold --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each timed pass is a fresh interpreter
(``passrun.py``) with a fresh, empty cache root inside ``.perfbench/work/``,
so no compile, tblocks, trace or result store is shared between passes (or
with any other checkout).  Passes repeat until ``--seconds`` of passes have
run, and at least :data:`MIN_PASSES` times; a timing is the best one over
them (the pass's, or each point's), set-up and memory are medians.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics of the traced
one (README.md has every definition).  Either way each point's document is
checked against the pins in ``reference.json`` when the seed is pinned, and
against the workload's own oracle always.  The last line of standard output
is the JSON result; the lines before it print the same figures for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics as M  # noqa: E402
from suite import WORKLOADS  # noqa: E402

#: Metric names and units, declared once at the repository root.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Timed passes per run, whatever ``--seconds`` says: a timing is each
#: point's and the pass's best over them (README.md).
MIN_PASSES = 3
#: Seconds of passes a run with two passes done does not outgrow to reach
#: MIN_PASSES (three typical passes take 50-60 s), so that a loaded host
#: cannot stretch a run much past a minute.
PASS_BUDGET_S = 65.0
#: Where a traced run leaves the point spans of its traced pass.
SPANS_DIR = ROOT / ".perfbench" / "spans"
#: The whole run must end within this many seconds of its start.
RUN_BUDGET_S = 170.0


class PassFailed(RuntimeError):
    pass


# ------------------------------------------------------------------ processes
def _env(cache_root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_root)
    env.pop("PYTHONPATH", None)
    # One hash seed for every pass: set and dict orders, and with them the
    # program's memory layout, stop varying between otherwise equal passes.
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a pass's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(args: list, cache_root: Path, log: Path, timeout: float) -> "tuple[float, int]":
    """Run ``passrun.py *args`` to completion: (wall seconds, exit code)."""
    cmd = [sys.executable, str(HERE / "passrun.py"), *args]
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(cache_root),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        # Block on a pidfd rather than ``proc.wait(timeout)``, which polls
        # with sleeps of up to 50 ms and would round every wall time up.
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(timeout, 1.0))
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        if not exited:
            os.killpg(proc.pid, signal.SIGKILL)
        code = proc.wait()
        _stop_group(proc.pid)
    if not exited:
        raise PassFailed(f"passrun {' '.join(args)} timed out after {wall:.0f}s")
    return wall, code


# --------------------------------------------------------------------- a pass
def read_pass(out: Path, wall: float, code: int, pins: "dict | None", workload) -> dict:
    """Everything the benchmark needs from one finished pass directory."""
    procs = [json.loads(p.read_text()) for p in sorted(out.glob("proc-*.json"))]
    main = next((p for p in procs if p["main"]), None)
    info = json.loads((out / "pass.json").read_text()) if (out / "pass.json").exists() else {}
    doc_path = out / "doc.json"
    produced, doc_sha = {}, None
    if code == 0 and doc_path.exists():
        raw = doc_path.read_bytes()
        doc_sha = hashlib.sha256(raw).hexdigest()
        produced = {k: M.point_digest(v) for k, v in json.loads(raw)["points"].items()}
    reference = pins["points"] if pins else None
    if produced:
        failed = M.count_failures(reference or produced, produced, reference)
    else:
        failed = workload.points
    points = [s for p in procs for s in p["points"]]
    return {
        "wall_s": wall,
        "code": code,
        "doc_sha256": doc_sha,
        "produced": produced,
        "attempted": workload.points,
        "failed": failed,
        "points": points,
        "procs": procs,
        "main": main,
        "info": info,
    }


def run_pass(workload, seed: int, cache_root: Path, work: Path, tag: str,
             flag: "str | None", pins, deadline: float) -> dict:
    """One pass; *flag* is None, ``"--trace"`` or ``"--parallel"``."""
    out = work / tag
    out.mkdir()
    args = ["pass", "--workload", workload.name, "--seed", str(seed), "--out", str(out)]
    if flag:
        args.append(flag)
    wall, code = launch(args, cache_root, out / "stderr.log", deadline - time.monotonic())
    if code != 0:
        sys.stderr.write((out / "stderr.log").read_text()[-4000:])
    return read_pass(out, wall, code, pins, workload)


# ------------------------------------------------------------------- metrics
def end_to_end(passes: list, setups: list, workload) -> "tuple[dict, dict]":
    """Timings are best-of-passes (README.md, "Best of the passes")."""
    samples = [(s["key"], (s["end_ns"] - s["start_ns"]) / 1e6)
               for p in passes for s in p["points"] if "error" not in s]
    points = list(M.best_per_key(samples).values())
    best = min(passes, key=lambda p: p["wall_s"])
    # Committed instructions the pass simulated; every pass of a run
    # simulates the same ones.
    instructions = sum(s.get("instructions", 0) for s in best["points"] if not s.get("hit"))
    values = {
        "sweep_s": best["wall_s"],
        "wall_kips": instructions / best["wall_s"] / 1000.0,
        "point_p50_ms": M.percentile(points, 0.5),
        "point_p90_ms": M.percentile(points, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            sum(pr["maxrss_kb"] for pr in p["procs"]) / 1024.0 for p in passes),
    }
    notes = {"grid points": len(points), "point samples": len(samples),
             "p90 has >=10 points beyond it": M.tail_supported(len(points), 0.9),
             "highest quantile with >=10 beyond": round(M.highest_supported_quantile(len(points)), 3),
             "passes": len(passes), "setups": len(setups)}
    return values, notes


def layer_metrics(p: dict, workload) -> dict:
    """Per-layer figures of one traced pass."""
    procs, main, info = p["procs"], p["main"], p["info"]
    root = info["end_ns"] - info["start_ns"]
    agg: dict = {}
    for pr in procs:
        for name, (count, total, own) in pr["agg"].items():
            a = agg.setdefault(name, [0, 0, 0])
            a[0] += count
            a[1] += total
            a[2] += own
    unwrapped = root - info["root_child_ns"]
    layers = M.layer_self(agg, unwrapped)
    g = lambda name, i: agg.get(name, [0, 0, 0])[i]  # noqa: E731
    s = lambda ns: ns / 1e9  # noqa: E731

    spans = [sp for pr in procs for sp in pr["spans"] if sp["name"] == "experiments.point"]
    submitted = main["submitted"] if main else {}
    wait = 0
    for pid in {sp["pid"] for sp in spans}:
        prev = info["start_ns"]
        for sp in sorted((x for x in spans if x["pid"] == pid), key=lambda x: x["start_ns"]):
            ready = submitted.get(sp["id"], prev)
            wait += sp["start_ns"] - ready
            prev = sp["end_ns"]
    busy = sum(sp["end_ns"] - sp["start_ns"] for sp in spans)

    samples = p["points"]
    misses = [x for x in samples if not x.get("hit")]
    rec = info.get("records", {})
    out = {
        "experiments.self_s": s(layers.get("experiments", 0)),
        "experiments.point_wait_s": s(wait),
        "experiments.worker_busy_ratio": busy / (workload.jobs * root),
        "jobs.self_s": s(layers.get("jobs", 0)),
        "jobs.execute_calls": g("jobs.execute", 0),
        "jobs.hit_ratio": sum(1 for x in samples if x.get("hit")) / max(len(samples), 1),
        "jobs.store_load_s": s(g("jobs.store_load", 1)),
        "jobs.store_put_s": s(g("jobs.store_put", 1)),
        "jobs.record_kb": rec.get("record_kb", 0.0),
        "jobs.verify_s": s(g("jobs.verify", 1)),
        "workloads.self_s": s(layers.get("workloads", 0)),
        "workloads.build_s": s(g("workloads.build", 1)),
        "workloads.build_calls": g("workloads.build", 0),
        "lang.self_s": s(layers.get("lang", 0)),
        "lang.compile_s": s(g("lang.compile", 1)),
        "lang.compile_calls": g("lang.compile", 0),
        "core.self_s": s(layers.get("core", 0)),
        "core.engine_self_s": s(g("core.engine", 2)),
        "core.corethread_self_s": s(g("core.corethread", 2)),
        "core.manager_self_s": s(g("core.manager", 2)),
        "core.turns": rec.get("turns", 0),
        "core.engine_steps": rec.get("engine_steps", 0),
        "core.manager_steps": rec.get("manager_steps", 0),
        "host.self_s": s(layers.get("host", 0)),
        "host.calls": g("host.run", 0) + g("host.cost", 0),
        "host.steps": rec.get("host_steps", 0),
        "cpu.self_s": s(layers.get("cpu", 0)),
        "cpu.tblocks_s": s(g("cpu.tblocks", 1)),
        "cpu.tblocks_calls": g("cpu.tblocks", 0),
        "cpu.instructions": rec.get("instructions", 0),
        "cpu.l1_miss_ratio": rec.get("l1_misses", 0) / max(rec.get("l1_accesses", 0), 1),
        "mem.self_s": s(layers.get("mem", 0)),
        "mem.requests": g("mem.service", 0),
        "trace.self_s": s(layers.get("trace", 0)),
        "trace.capture_s": s(g("trace.capture", 1)),
        "trace.read_s": s(g("trace.read", 1)),
        "trace.replay_ratio": sum(1 for x in misses if x.get("replayed")) / max(len(misses), 1),
        "stats.self_s": s(layers.get("stats", 0)),
        "stats.dump_s": s(g("stats.dump", 1)),
        "tracing.pass_s": s(root),
    }
    # Serial passes: every nanosecond of the pass is some layer's self time.
    out["tracing.unattributed_s"] = s(root - sum(layers.values())) if workload.jobs == 1 else 0.0
    return out


# ---------------------------------------------------------------------- main
def load_pins(workload, seed: int) -> "dict | None":
    pins = json.loads((HERE / "reference.json").read_text())
    return pins.get(workload.grid, {}).get(str(seed))


def measure(workload, seed: int, seconds: float, trace: bool, work: Path,
            deadline: float) -> dict:
    pins = load_pins(workload, seed)

    def fresh_root() -> Path:
        return Path(tempfile.mkdtemp(prefix="cache-", dir=work))

    setups = []
    if not trace:
        for i in range(SETUP_REPEATS):
            wall, code = launch(["setup", "--workload", workload.name], fresh_root(),
                                work / f"setup-{i}.log", deadline - time.monotonic())
            if code != 0:
                raise PassFailed((work / f"setup-{i}.log").read_text()[-4000:])
            setups.append(wall)

    checked = []  # every pass whose documents count toward attempted/failed
    timed, traced = [], []
    started = time.monotonic()
    while True:
        round_start = time.monotonic()
        for kind in ([False, True] if trace else [False]):
            root = fresh_root()
            p = run_pass(workload, seed, root, work, f"pass-{len(checked)}",
                         "--trace" if kind else None, pins, deadline)
            if kind:
                p["layers"] = layer_metrics(p, workload) if p["code"] == 0 else None
                traced.append(p)
            else:
                timed.append(p)
            checked.append(p)
            shutil.rmtree(root, ignore_errors=True)
        now = time.monotonic()
        last = now - round_start
        enough = trace or (now - started >= seconds and len(timed) >= MIN_PASSES)
        if enough or now + 2 * last > deadline:
            break
        # A loaded host stretches every pass: with two passes done, stop
        # rather than let the passes run past PASS_BUDGET_S.
        if len(timed) >= 2 and now + last > started + PASS_BUDGET_S:
            break

    digests = {p["doc_sha256"] for p in checked}
    pinned = pins["sha256"] if pins else None
    failed = sum(p["failed"] for p in checked)
    correct = (failed == 0 and len(digests) == 1 and None not in digests
               and (pinned is None or digests == {pinned}))
    result = {
        "pinned": pins is not None,
        "digest": next(iter(digests)) if len(digests) == 1 else sorted(map(str, digests)),
        "attempted": sum(p["attempted"] for p in checked),
        "failed": failed,
        "correct": correct,
    }
    if trace:
        # One untraced and one traced pass: the traced pass's figures whole,
        # so that its self times add up to its wall time.
        untraced, pass_ = timed[0], traced[0]
        values, declared = {}, DECLARED["per_layer"]
        result["notes"] = {}
        if pass_["layers"] and untraced["code"] == 0:
            values = dict(pass_["layers"])
            values["tracing.overhead_ratio"] = pass_["wall_s"] / untraced["wall_s"]
            if abs(values["tracing.unattributed_s"]) > 1e-6:
                result["correct"] = False
            spans = SPANS_DIR / f"{workload.name}-seed{seed}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            spans.write_text(json.dumps([sp for pr in pass_["procs"] for sp in pr["spans"]]))
            result["notes"]["point spans"] = spans.relative_to(ROOT)
    else:
        ok = [p for p in timed if p["code"] == 0]
        values, declared = {}, DECLARED["end_to_end"]
        result["notes"] = {}
        if ok:
            values, result["notes"] = end_to_end(ok, setups, workload)
    result["metrics"] = {m["name"]: (values[m["name"]], m["unit"])
                         for m in declared if m["name"] in values}
    if len(result["metrics"]) != len(declared):
        result["correct"] = False
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ROOT / ".perfbench" / "work"
    base.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work, deadline)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, attempted = result["failed"], result["attempted"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"digest={result['digest']} pinned={result['pinned']} correct={result['correct']}")
    print(f"  {'failed_ratio':28s} {failed / attempted:.4f} failed/attempted ({failed}/{attempted})")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for name, value in result["notes"].items():
        print(f"  ({name}: {value})")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
