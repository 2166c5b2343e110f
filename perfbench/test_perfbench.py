"""Self-tests of the benchmark's arithmetic and failure accounting.

    python3 -m pytest perfbench -q

They need no simulation: every input is made by hand, and the probe tests
wrap plain functions under a fake clock.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import metrics as M  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
from suite import WORKLOADS  # noqa: E402


# ------------------------------------------------------------------ self time
def test_probe_stack_splits_total_into_self_times(monkeypatch):
    ticks = iter(range(0, 10_000, 5))
    monkeypatch.setattr(probes, "clock", lambda: next(ticks))
    rec = probes.Recorder("unused", trace=True)

    def leaf():
        return 1

    wrapped_leaf = rec.wrap(leaf, "cpu.step")

    def middle():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = rec.wrap(middle, "core.corethread")
    assert wrapped_middle() == 2

    leaf_stat, middle_stat = rec.agg["cpu.step"], rec.agg["core.corethread"]
    assert leaf_stat[0] == 2 and middle_stat[0] == 1
    assert leaf_stat[1] == leaf_stat[2]  # a leaf's self time is its total
    assert middle_stat[2] == middle_stat[1] - leaf_stat[1]
    # Everything under the outermost call is some boundary's self time.
    assert rec.stack == [middle_stat[1]]
    layers = M.layer_self(rec.agg)
    assert layers["core"] + layers["cpu"] == middle_stat[1]
    assert layers["experiments"] == 0


def test_probe_keeps_accounting_when_the_callee_raises(monkeypatch):
    ticks = iter(range(0, 1000, 10))
    monkeypatch.setattr(probes, "clock", lambda: next(ticks))
    rec = probes.Recorder("unused", trace=True)

    def boom():
        raise ValueError("mis-executed")

    with pytest.raises(ValueError):
        rec.wrap(boom, "jobs.verify")()
    assert rec.agg["jobs.verify"] == [1, 10, 10]
    assert rec.stack == [10]


# ---------------------------------------------------------------- percentiles
def test_percentile_is_a_weighted_mean_of_order_statistics():
    assert M.percentile([4, 1, 3, 2, 5], 0.5) == pytest.approx(3)  # symmetric
    assert M.percentile([7], 0.9) == pytest.approx(7)
    assert M.percentile([3.0] * 28, 0.9) == pytest.approx(3.0)
    # Converges to the sample quantile on many samples.
    assert M.percentile(list(range(1001)), 0.9) == pytest.approx(900, abs=1)
    with pytest.raises(ValueError):
        M.percentile([], 0.5)


def test_percentile_does_not_jump_across_a_gap():
    # 24 light points and 4 heavy ones, as in one table3 pass: p90 sits
    # inside the heavy cluster.  Making its lightest point 1.5x heavier moves
    # an interpolation between ranks 24 and 25 from 2.3 to 3.0 (x1.30); the
    # weighted mean moves by under 10%.
    light = [1.0 + i / 100 for i in range(24)]
    a = M.percentile(light + [2.0, 3.0, 3.1, 3.2], 0.9)
    b = M.percentile(light + [3.0, 3.0, 3.1, 3.2], 0.9)
    assert 2.0 < a < b < 3.2
    assert b / a < 1.1


def test_best_per_key_keeps_each_points_fastest_pass():
    samples = [("fft/cc/h2", 5.0), ("lu/su/h8", 9.0), ("fft/cc/h2", 4.0),
               ("lu/su/h8", 12.0), ("fft/cc/h2", 6.0)]
    assert M.best_per_key(samples) == {"fft/cc/h2": 4.0, "lu/su/h8": 9.0}
    assert M.best_per_key([]) == {}


def test_end_to_end_takes_the_best_pass_and_each_points_best_time():
    def sample(key, ms, instructions=1000, hit=False):
        return {"key": key, "start_ns": 0, "end_ns": int(ms * 1e6),
                "instructions": instructions, "hit": hit}

    def a_pass(wall, times):
        return {"wall_s": wall, "procs": [{"maxrss_kb": 2048}],
                "points": [sample(k, ms) for k, ms in times.items()]}

    passes = [a_pass(3.0, {"a": 10.0, "b": 30.0}), a_pass(2.0, {"a": 12.0, "b": 20.0}),
              a_pass(4.0, {"a": 11.0, "b": 25.0})]
    values, notes = run.end_to_end(passes, [0.5, 0.7, 0.6], WORKLOADS["fig8-cold"])
    assert values["sweep_s"] == 2.0
    assert values["wall_kips"] == pytest.approx(2000 / 2.0 / 1000)
    # p50 of the best times {10, 20}, not of all six samples.
    assert values["point_p50_ms"] == pytest.approx(15.0)
    assert values["setup_s"] == 0.6
    assert values["peak_rss_mb"] == 2.0
    assert notes["grid points"] == 2 and notes["point samples"] == 6


def test_tail_needs_ten_samples_beyond_it():
    assert not M.tail_supported(88, 0.9)  # one fig8 pass: 8.8 beyond p90
    assert M.tail_supported(100, 0.9)
    assert M.tail_supported(176, 0.9)
    assert M.highest_supported_quantile(100) == pytest.approx(0.9)
    assert M.highest_supported_quantile(16) == pytest.approx(0.375)
    assert M.highest_supported_quantile(10) == 0.0
    assert M.highest_supported_quantile(0) == 0.0


# ---------------------------------------------------------- failure accounting
def _documents():
    docs = {f"fft/cc/h{h}": {"host_time": 100.0 / h, "stats_digest": "ab"} for h in (1, 2, 4)}
    return docs, {k: M.point_digest(v) for k, v in docs.items()}


def test_matching_documents_do_not_fail():
    docs, pins = _documents()
    produced = {k: M.point_digest(v) for k, v in docs.items()}
    assert M.count_failures(pins, produced, pins) == 0


def test_perturbed_reference_counts_as_failure():
    docs, pins = _documents()
    produced = {k: M.point_digest(v) for k, v in docs.items()}
    perturbed = dict(pins, **{"fft/cc/h2": "0" * 16})
    failed = M.count_failures(perturbed, produced, perturbed)
    assert failed == 1
    assert failed / len(perturbed) > 0


def test_makespan_change_outside_the_stats_digest_fails():
    docs, pins = _documents()
    docs["fft/cc/h4"] = dict(docs["fft/cc/h4"], host_time=26.0)
    produced = {k: M.point_digest(v) for k, v in docs.items()}
    assert M.count_failures(pins, produced, pins) == 1


def test_missing_points_fail_with_or_without_a_pin():
    docs, pins = _documents()
    produced = {k: M.point_digest(v) for k, v in docs.items() if not k.endswith("h1")}
    assert M.count_failures(pins, produced, pins) == 1
    assert M.count_failures(pins, produced, None) == 1


def test_read_pass_counts_a_perturbed_pin(tmp_path):
    import json

    docs, pins = _documents()
    (tmp_path / "doc.json").write_text(json.dumps({"points": docs}))
    workload = WORKLOADS["table3-trace-j2"]
    good = run.read_pass(tmp_path, 1.0, 0, {"points": pins}, workload)
    assert good["failed"] == 0
    bad = run.read_pass(tmp_path, 1.0, 0, {"points": dict(pins, **{"fft/cc/h1": "x"})},
                        workload)
    assert bad["failed"] == 1
    died = run.read_pass(tmp_path, 1.0, 1, {"points": pins}, workload)
    assert died["failed"] == died["attempted"] == workload.points


def test_traced_pass_yields_every_declared_layer_metric():
    # A serial pass of 10 ms: a 6 ms point whose execute() spent 4 ms in the
    # engine, 1 ms of it in a core step.
    agg = {"experiments.point": [1, 6_000_000, 2_000_000],
           "core.engine": [1, 4_000_000, 3_000_000],
           "cpu.step": [1, 1_000_000, 1_000_000]}
    span = {"id": "fft/cc/h1", "pid": 1, "name": "experiments.point",
            "start_ns": 2_000_000, "end_ns": 8_000_000}
    proc = {"pid": 1, "main": True, "maxrss_kb": 1, "points": [], "spans": [span],
            "agg": agg, "submitted": {}}
    p = {"procs": [proc], "main": proc, "points": [],
         "info": {"start_ns": 0, "end_ns": 10_000_000, "root_child_ns": 6_000_000}}
    layers = run.layer_metrics(p, WORKLOADS["fig8-cold"])
    declared = {m["name"] for m in run.DECLARED["per_layer"]}
    assert declared - set(layers) == {"tracing.overhead_ratio"}
    assert layers["experiments.self_s"] == pytest.approx(0.006)  # 4 ms unwrapped + 2 ms
    assert layers["core.self_s"] == pytest.approx(0.003)
    assert layers["cpu.self_s"] == pytest.approx(0.001)
    assert layers["tracing.unattributed_s"] == 0
    assert layers["experiments.point_wait_s"] == pytest.approx(0.002)
    assert layers["experiments.worker_busy_ratio"] == pytest.approx(0.6)
