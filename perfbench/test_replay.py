"""Tests of the benchmark's own helpers (no Spark session is started).

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""
import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import replay  # noqa: E402
from repro import trajgen  # noqa: E402
from repro.stream.ordering import SnapshotBuffer  # noqa: E402
from tracing import Tracer  # noqa: E402


def _records(seed=0, n_objects=40, n_snapshots=15):
    cfg = trajgen.TrajConfig(n_objects=n_objects, n_snapshots=n_snapshots,
                             dropout=0.1, seed=seed)
    return trajgen.with_last_time(trajgen.generate(cfg))


def test_replay_is_deterministic_per_seed():
    recs = _records()
    a = replay.arrivals(recs, interval=5.0, max_delay=2, seed=3)
    b = replay.arrivals(recs, interval=5.0, max_delay=2, seed=3)
    c = replay.arrivals(recs, interval=5.0, max_delay=2, seed=4)
    pd.testing.assert_frame_equal(a, b)
    assert not a["arrival"].equals(c["arrival"])


def test_make_inputs_is_deterministic_per_seed():
    import workloads

    a = workloads.make_inputs("taxi-rt", 5, 15)
    b = workloads.make_inputs("taxi-rt", 5, 15)
    pd.testing.assert_frame_equal(a.records, b.records)
    np.testing.assert_array_equal(a.due, b.due)
    c = workloads.make_inputs("taxi-rt", 6, 15)
    assert not a.snapshots.equals(c.snapshots)


def test_warm_pass_hands_over_the_same_records_at_once():
    import workloads

    inp = workloads.make_inputs("taxi-rt", 5, 15)
    warm = workloads.warm(inp)
    assert warm.records is inp.records and not warm.due.any()
    assert inp.due.any()  # the timed inputs keep their schedule


@pytest.mark.parametrize("max_delay", [0, 2])
def test_delay_is_bounded_whole_intervals(max_delay):
    recs = replay.arrivals(_records(), interval=5.0, max_delay=max_delay,
                           seed=1)
    lo = (recs["t"] - 1) * 5.0
    assert ((recs["ts"] >= lo) & (recs["ts"] < lo + 5.0)).all()
    d = (recs["arrival"] - recs["ts"]) / 5.0
    whole = d.round()
    assert np.allclose(d, whole)
    assert whole.min() >= 0 and whole.max() <= max_delay
    assert recs["arrival"].is_monotonic_increasing
    if max_delay:
        assert not recs["ts"].is_monotonic_increasing  # really out of order


def test_bounded_delay_is_absorbed_by_the_last_time_buffer():
    recs = replay.arrivals(_records(seed=2), interval=5.0, max_delay=2,
                           seed=2)
    buf = SnapshotBuffer(expected_oids=recs["oid"].unique())
    released = []
    for chunk in np.array_split(np.arange(len(recs)), 40):
        buf.ingest(recs.iloc[chunk][replay.RECORD_COLS])  # never "late data"
        released += [t for t, _ in buf.release()]
    released += [t for t, _ in buf.flush_all()]
    assert released == list(range(1, int(recs["t"].max()) + 1))


def test_open_loop_due_follows_the_rate():
    due = replay.open_loop_due(np.array([0.0, 5.0, 12.5]), interval=5.0,
                               rate=2.0)
    np.testing.assert_allclose(due, [0.0, 0.5, 1.25])


def test_emitted_latencies_one_sample_per_emitted_snapshot():
    last_due = {1: 0.5, 2: 1.0, 3: 1.5, 5: 2.5}  # snapshot 4 had no records
    calls = [(0.9, 0, 0), (2.0, 0, 2), (4.0, 2, 5)]
    lat = replay.emitted_latencies(calls, last_due)
    assert lat == pytest.approx([1.5, 1.0, 2.5, 1.5])


def test_percentile_is_nearest_rank():
    xs = list(range(1, 21))  # 1..20
    assert replay.percentile(xs, 50) == 10
    assert replay.percentile(xs, 95) == 19
    assert replay.percentile(xs, 100) == 20
    assert replay.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        replay.percentile([], 50)


@pytest.mark.parametrize("n", [1, 19, 20, 200, 201])
def test_summary_reports_sample_counts(n):
    s = replay.summary(np.arange(n, dtype=float))
    assert s["n"] == n
    assert s["beyond_p95"] == n - int(np.ceil(0.95 * n))
    assert s["p50"] <= s["p95"]


def test_tracer_wraps_and_restores():
    class Box:
        def double(self, x):
            return 2 * x

    box, tr = Box(), Tracer()
    seen = []
    tr.wrap(box, "double", "box.double",
            after=lambda tr, args, kw, res: seen.append(res))
    with tr.span("outer"):
        assert box.double(3) == 6
    with pytest.raises(AttributeError):
        tr.wrap(box, "missing", "box.missing")
    tr.unwrap_all()
    assert "double" not in box.__dict__ and box.double(2) == 4
    assert seen == [6]
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and inner["name"] == "box.double"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taxi-rt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""
