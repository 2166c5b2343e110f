"""Layer probes installed around the program's public functions, from outside.

Nothing under ``src/`` is edited: :func:`install` replaces functions and
methods on the imported ``repro`` modules with thin wrappers.  Two kinds of
record come out of one :class:`Recorder`:

* **Point samples** — one pair of clock reads around every ``execute()``
  call.  They are always on: ``point_p50_ms``/``point_p90_ms`` come from
  them, so the untimed-overhead run records them too.
* **Layer aggregates** (``trace=True`` only) — at every wrapped boundary a
  count, total ns and self ns, where self time is the call's duration minus
  the time its wrapped callees took.  A stack of child-time accumulators
  does the subtraction online, so ~1.5M hot calls per pass cost no memory.
  Point-level boundaries (the sweep point, ``execute``,
  ``SequentialEngine.run``) also keep a span, tagged with the point's id.

Pool workers are forked from the pass process, so they inherit the
wrappers; :func:`os.register_at_fork` clears what they inherit.  A worker
leaves by ``os._exit`` without exit hooks, so it rewrites its own record
file after every point; the pass process writes its file once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import time

clock = time.perf_counter_ns

#: (module, attribute path, boundary).  A boundary's layer is the part of
#: its name before the first dot; boundaries that share a name share one
#: aggregate.  ``HostModel`` binds ``run`` to ``_run_linear`` per instance
#: for H <= 16, so both are wrapped.
HOT_BOUNDARIES = (
    ("repro.jobs.store", "ResultStore.load", "jobs.store_load"),
    ("repro.jobs.store", "ResultStore.put", "jobs.store_put"),
    ("repro.workloads.base", "Workload.mismatches", "jobs.verify"),
    ("repro.workloads.registry", "make_workload", "workloads.build"),
    ("repro.workloads.base", "compile_source", "lang.compile"),
    ("repro.core.engine", "SequentialEngine.__init__", "core.engine"),
    ("repro.core.corethread", "CoreThread.step_many", "core.corethread"),
    ("repro.core.corethread", "CoreThread.run", "core.corethread"),
    ("repro.core.manager", "SimulationManager.step", "core.manager"),
    ("repro.host.hostmodel", "HostModel.run", "host.run"),
    ("repro.host.hostmodel", "HostModel._run_linear", "host.run"),
    ("repro.host.costmodel", "CostModel.core_batch_cost", "host.cost"),
    ("repro.host.costmodel", "CostModel.manager_step_cost", "host.cost"),
    ("repro.cpu.inorder", "InOrderCore.step", "cpu.step"),
    ("repro.cpu.inorder", "InOrderCore.block_step", "cpu.step"),
    ("repro.cpu.ooo", "OoOCore.step", "cpu.step"),
    ("repro.cpu.inorder", "timing_blocks", "cpu.tblocks"),
    ("repro.mem.memsys", "MemorySystem.service", "mem.service"),
    ("repro.trace.replay", "ReplayCore.step", "trace.replay"),
    ("repro.trace.replay", "ReplayCore.block_step", "trace.replay"),
    ("repro.trace.format", "read_trace", "trace.read"),
    ("repro.core.results", "SimulationResult.stats", "stats.dump"),
    ("repro.core.results", "SimulationResult.stats_sha256", "stats.dump"),
    ("repro.core.results", "SimulationResult.dump_json", "stats.dump"),
)


class Recorder:
    """Per-process store of point samples, spans and layer aggregates."""

    def __init__(self, out_dir: str, *, trace: bool) -> None:
        self.out_dir = out_dir
        self.trace = trace
        self.main_pid = os.getpid()
        #: Child-time accumulators of the open wrapped calls; the bottom
        #: entry collects calls made outside any wrapped boundary.
        self.stack = [0]
        #: boundary -> [count, total_ns, self_ns] (mutated in place: the
        #: wrappers hold references to these lists).
        self.agg: dict[str, list] = {}
        self.points: list[dict] = []
        self.spans: list[dict] = []
        self.point_id: "str | None" = None
        #: Point id -> pool submit time (pass process only; a worker's
        #: points are matched to these after the pass).
        self.submitted: dict[str, int] = {}

    # ------------------------------------------------------------ wrappers
    def stat(self, name: str) -> list:
        return self.agg.setdefault(name, [0, 0, 0])

    def enter(self) -> int:
        """Open a wrapped call: a fresh child-time accumulator, the start."""
        self.stack.append(0)
        return clock()

    def leave(self, stat: list, t0: int) -> int:
        """Close the call opened at *t0* into *stat*; returns the end time."""
        t1 = clock()
        dt = t1 - t0
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - self.stack.pop()
        self.stack[-1] += dt
        return t1

    def wrap(self, fn, name: str):
        """Aggregate-only wrapper: count, total and self time.

        The body inlines :meth:`enter`/:meth:`leave`; it runs ~3M times per
        traced fig8 pass, where two method calls more are measurable.
        """
        stat = self.stat(name)
        stack = self.stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt

        return probe

    def span(self, name: str, t0: int, t1: int) -> None:
        self.spans.append({"id": self.point_id, "name": name, "start_ns": t0,
                           "end_ns": t1, "pid": os.getpid()})

    # -------------------------------------------------------------- output
    def reset_for_child(self) -> None:
        """Drop what a forked worker inherited from the pass process."""
        self.stack[:] = [0]
        for stat in self.agg.values():
            stat[:] = [0, 0, 0]
        self.points.clear()
        self.spans.clear()
        self.submitted.clear()
        self.point_id = None

    def flush(self) -> None:
        """Write this process's record file (atomic replace)."""
        pid = os.getpid()
        doc = {
            "pid": pid,
            "main": pid == self.main_pid,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "points": self.points,
            "spans": self.spans,
            "agg": self.agg,
            "submitted": self.submitted,
        }
        path = os.path.join(self.out_dir, f"proc-{pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

    def flush_if_worker(self) -> None:
        if os.getpid() != self.main_pid:
            self.flush()


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _replace(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(fn)``, keeping properties properties."""
    current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(current, property):
        setattr(owner, attr, property(make(current.fget)))
    else:
        setattr(owner, attr, make(current))


def install(rec: Recorder) -> None:
    """Wrap the program's boundaries (import ``repro`` first)."""
    import repro.jobs

    if rec.trace:
        for module, path, name in HOT_BOUNDARIES:
            owner, attr = _resolve(module, path)
            _replace(owner, attr, lambda fn, name=name: rec.wrap(fn, name))
        _install_point_boundaries(rec)
    # ``_run_point_ex`` imports ``execute`` from the package at call time.
    repro.jobs.execute = _execute_probe(rec, repro.jobs.execute)
    os.register_at_fork(after_in_child=rec.reset_for_child)


def _execute_probe(rec: Recorder, execute):
    """The point sample: one pair of clock reads around ``execute()``."""
    stat = rec.stat("jobs.execute") if rec.trace else None

    @functools.wraps(execute)
    def probe(spec, *args, **kwargs):
        sample = {"id": rec.point_id, "pid": os.getpid()}
        t0 = rec.enter() if stat is not None else clock()
        try:
            outcome = execute(spec, *args, **kwargs)
        except BaseException as exc:
            sample["error"] = f"{type(exc).__name__}: {exc}"
            raise
        else:
            sample.update(
                key=outcome.key, hit=outcome.hit, replayed=outcome.replayed,
                instructions=outcome.record["metrics"]["instructions"],
            )
            return outcome
        finally:
            t1 = rec.leave(stat, t0) if stat is not None else clock()
            sample.update(start_ns=t0, end_ns=t1)
            rec.points.append(sample)
            if stat is not None:
                rec.span("jobs.execute", t0, t1)
            else:
                rec.flush_if_worker()

    return probe


def _install_point_boundaries(rec: Recorder) -> None:
    """Span-keeping wrappers: sweep point, engine run, pool submit."""
    import repro.experiments.parallel as parallel
    from repro.core.engine import SequentialEngine

    point_stat = rec.stat("experiments.point")
    run_point = parallel._run_point_ex

    @functools.wraps(run_point)  # same qualname: pickles to pool workers
    def point_probe(spec):
        rec.point_id = parallel.point_key(spec)
        t0 = rec.enter()
        try:
            return run_point(spec)
        finally:
            rec.span("experiments.point", t0, rec.leave(point_stat, t0))
            rec.point_id = None
            rec.flush_if_worker()

    parallel._run_point_ex = point_probe

    class SubmitProbe(parallel.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            if args and isinstance(args[0], parallel.PointSpec):
                rec.submitted[parallel.point_key(args[0])] = clock()
            return super().submit(fn, *args, **kwargs)

    parallel.ProcessPoolExecutor = SubmitProbe

    engine_stat = rec.stat("core.engine")
    capture_stat = rec.stat("trace.capture")
    engine_run = SequentialEngine.run

    @functools.wraps(engine_run)
    def engine_probe(self):
        capture = self.sim.trace_mode == "capture"
        t0 = rec.enter()
        try:
            return engine_run(self)
        finally:
            t1 = rec.leave(capture_stat if capture else engine_stat, t0)
            rec.span("trace.capture" if capture else "core.engine.run", t0, t1)

    SequentialEngine.run = engine_probe
