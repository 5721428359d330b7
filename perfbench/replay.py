"""Event-time replay of generated GPS records, and the statistics the
benchmark reports. Pure numpy/pandas: nothing here starts Spark.

A record of snapshot ``t`` is stamped at a seeded ``ts`` inside its
interval ``[(t-1)*interval, t*interval)``. Its *arrival* adds a seeded
delay of 0..``max_delay`` whole intervals, so records come out of
order, but never later than the last-time field lets ``SnapshotBuffer``
absorb.

In the open loop each record is *due* at a wall offset fixed by its
arrival and a rate in snapshot intervals per second, whether or not the
system has kept up; latency is timed from the due time.
"""
from __future__ import annotations

import math

import numpy as np
import pandas as pd

RECORD_COLS = ["oid", "t", "x", "y", "last_t"]


def arrivals(records: pd.DataFrame, *, interval: float, max_delay: int,
             seed: int) -> pd.DataFrame:
    """Records ``(oid, t, x, y, last_t)`` stamped and in arrival order.

    Adds ``ts``, uniform inside snapshot ``t``'s interval, and
    ``arrival = ts + interval * d`` with ``d`` uniform in
    ``0..max_delay``, both drawn from ``seed``. Ties keep event-time
    order.
    """
    g = np.random.default_rng(seed)
    out = records.sort_values(["t", "oid"], ignore_index=True)
    out["ts"] = (out["t"].to_numpy() - 1 + g.random(len(out))) * interval
    delay = g.integers(0, max_delay + 1, size=len(out)) * interval
    out["arrival"] = out["ts"].to_numpy() + delay
    return out.sort_values(["arrival", "ts"], kind="stable",
                           ignore_index=True)


def open_loop_due(arrival: np.ndarray, *, interval: float,
                  rate: float) -> np.ndarray:
    """Wall offset (s) at which each record is due: ``rate`` intervals/s."""
    return np.asarray(arrival, dtype=float) / (interval * rate)


def snapshot_last_due(t: np.ndarray, due: np.ndarray) -> dict[int, float]:
    """Due time of the last record of each snapshot."""
    s = pd.Series(np.asarray(due, dtype=float)).groupby(np.asarray(t)).max()
    return {int(k): float(v) for k, v in s.items()}


def emitted_latencies(calls: list[tuple[float, int, int]],
                      last_due: dict[int, float]) -> list[float]:
    """Per emitted snapshot: return of the emitting call minus the due
    time of the snapshot's last record.

    ``calls`` holds ``(return_time, released_before, released_after)``
    per call; snapshots ``before+1..after`` were emitted by it. A
    snapshot in which no trajectory reported has no records and no
    sample.
    """
    out = []
    for end, before, after in calls:
        out += [end - last_due[t] for t in range(before + 1, after + 1)
                if t in last_due]
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``%
    of the samples at or below it."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    return float(s[max(0, math.ceil(q / 100.0 * len(s)) - 1)])


def summary(values) -> dict[str, float]:
    """p50 and p95 of ``values``, the sample count and how many samples
    lie above p95."""
    p95 = percentile(values, 95)
    return {"p50": percentile(values, 50), "p95": p95, "n": len(values),
            "beyond_p95": sum(v > p95 for v in values)}
