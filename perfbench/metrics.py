"""Pure arithmetic of the benchmark: percentiles, layer self time, failures.

No clocks, files or processes here, so ``test_perfbench.py`` can check
every rule on hand-made inputs.
"""

from __future__ import annotations

import hashlib
import json
import math

#: A tail percentile is trusted only with this many samples beyond it.
TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The Harrell–Davis estimate of the *q*-quantile (0 < q < 1) of *values*.

    A weighted mean of every order statistic, with Beta((n+1)q, (n+1)(1-q))
    weights, instead of an interpolation between the two samples around
    rank q(n-1).  A sweep's points are few and uneven (p90 of the 28 table3
    points falls inside the cluster of four cc points), and there the two
    neighbouring samples jump from run to run; the weighted mean does not.
    It converges to the sample quantile as n grows.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 32  # midpoint rule per rank interval: never evaluates t = 0 or 1
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        ts = (i / n + (k + 0.5) * h for k in range(steps))
        weights.append(h * sum(
            math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)
            for t in ts))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def best_per_key(samples) -> dict:
    """The smallest value seen for each key of ``(key, value)`` *samples*.

    A run repeats the same grid in several passes; a point's best time over
    them is its time with the least interference from the rest of the host
    (the rule ``timeit`` follows).
    """
    best: dict = {}
    for key, value in samples:
        if key not in best or value < best[key]:
            best[key] = value
    return best


def highest_supported_quantile(n: int) -> float:
    """The highest quantile with at least :data:`TAIL_SAMPLES` samples
    beyond it among *n* (0 when there are too few for any tail)."""
    return max(0.0, 1.0 - TAIL_SAMPLES / n) if n else 0.0


def tail_supported(n: int, q: float) -> bool:
    """Whether *n* samples leave at least ten beyond the *q*-quantile."""
    return n * (1.0 - q) >= TAIL_SAMPLES - 1e-9


def layer_self(agg: dict, unwrapped: int = 0) -> dict:
    """Self time per layer from ``{boundary: [count, total, self]}``.

    *unwrapped* is time inside the pass that no wrapped boundary covers;
    it is the sweep's own orchestration, i.e. the ``experiments`` layer.
    """
    layers = {"experiments": unwrapped}
    for name, (_count, _total, own) in agg.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0) + own
    return layers


def point_digest(document: dict) -> str:
    """Short content digest of one point's document."""
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def count_failures(expected, produced: dict, reference: "dict | None") -> int:
    """Points of *expected* that failed.

    A point fails when it produced no document (it raised, or its pass
    died) or, with a pinned *reference*, when its digest differs from the
    pin.  *produced* maps point key -> document digest.
    """
    failed = 0
    for key in expected:
        digest = produced.get(key)
        if digest is None or (reference is not None and reference.get(key) != digest):
            failed += 1
    return failed
