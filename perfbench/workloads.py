"""The benchmark's workloads: inputs from a seed, the drive, the checks.

- ``taxi-rt``: the taxi-like stream into ``StreamingDetector`` (RJC +
  FBA), open loop at ``RT_RATE`` snapshot intervals per second with a
  trigger every ``TRIGGER_S`` seconds; records arrive up to
  ``MAX_DELAY`` whole intervals late.
- ``dense-batch``: taxi-like with ``DENSE_SCALE`` times the trajectories
  and groups (same group size), through ``repro.core.icpe.detect``
  (RJC + VBA) as one batch job.

The system is driven only through ``StreamingDetector.process_batch`` /
``finish`` and ``detect``. Every run's pattern object sets are compared
with ``reference_patterns(brute_clusters(...))``. Throughput is
snapshots per second spent inside those calls: on the open loop the
wall span is fixed by the offered rate, so only the time the system
itself takes can show a change.
"""
from __future__ import annotations

import dataclasses
import sys
import time
import traceback
from collections import Counter

import numpy as np
import pandas as pd

import replay
from repro import trajgen
from repro.cluster import cluster_stream, neighbor_stream, rangejoin
from repro.cluster.grid import allocate
from repro.core import icpe
from repro.core.reference import brute_clusters, reference_patterns
from repro.experiments import params_for
from repro.stream import pipeline
from repro.stream.pipeline import StreamingDetector

INTERVAL = 5.0        # event-time seconds per snapshot (trajgen default)
MAX_DELAY = 2         # taxi-rt arrival delay, whole intervals
RT_RATE = 2.0         # taxi-rt: snapshot intervals due per wall second
TRIGGER_S = 3.0       # taxi-rt: wall seconds between triggers
DENSE_SCALE = 4       # dense-batch: trajectories and groups per taxi one
DENSE_SNAPSHOTS = 16
PASSES = {"taxi-rt": 1, "dense-batch": 3}  # timed passes after a warm one
SNAPSHOT_SCHEMA = "t long, oid long, x double, y double"


@dataclasses.dataclass
class Inputs:
    """Everything one workload run hands to the system, made from a seed."""

    params: object
    snapshots: pd.DataFrame              # (oid, t, x, y)
    records: pd.DataFrame | None = None  # taxi-rt, in arrival order
    due: np.ndarray | None = None        # taxi-rt: wall offset per record


@dataclasses.dataclass
class Run:
    """What one pass over the inputs returned and how long it took."""

    patterns: set
    latencies: list[float]
    delays: list[int]    # detection delays, in snapshots
    snapshots: int       # snapshots emitted
    busy_s: float        # time inside the system's calls
    attempted: int
    failed: int
    lag_end_s: float = 0.0  # how late the last trigger fired


def make_inputs(name: str, seed: int, seconds: int) -> Inputs:
    """Generate the workload's inputs; the same seed gives the same inputs."""
    gen_seed, ts_seed = (int(s) for s in
                         np.random.SeedSequence(seed).generate_state(2))
    if name == "taxi-rt":
        # The stream lasts the run at the fixed rate.
        cfg = trajgen.taxi_like(seed=gen_seed,
                                n_snapshots=max(20, round(RT_RATE * seconds)))
        inp = Inputs(params_for(cfg), trajgen.generate(cfg))
        inp.records = replay.arrivals(trajgen.with_last_time(inp.snapshots),
                                      interval=INTERVAL, max_delay=MAX_DELAY,
                                      seed=ts_seed)
        inp.due = replay.open_loop_due(inp.records["arrival"].to_numpy(),
                                       interval=INTERVAL, rate=RT_RATE)
        return inp
    if name == "dense-batch":
        cfg = trajgen.taxi_like(seed=gen_seed, n_snapshots=DENSE_SNAPSHOTS)
        dense = dataclasses.replace(cfg, n_objects=cfg.n_objects * DENSE_SCALE,
                                    n_groups=cfg.n_groups * DENSE_SCALE)
        return Inputs(params_for(cfg), trajgen.generate(dense))
    raise ValueError(f"unknown workload {name!r}")


def warm(inp: Inputs) -> Inputs:
    """The inputs of a warm pass: the same records, all due at once, so
    that every call path runs at full size without the schedule's waits."""
    if inp.due is None:
        return inp
    return dataclasses.replace(inp, due=np.zeros_like(inp.due))


def warm_up(spark) -> None:
    """One tiny stream through the detector, so that the session's Python
    workers are up and the clustering job has run once."""
    cfg = trajgen.TrajConfig(n_objects=24, n_snapshots=6, n_groups=3,
                             cohesion=0.4, grouped_frac=0.8, seed=123)
    recs = trajgen.with_last_time(trajgen.generate(cfg))
    det = StreamingDetector(spark, params_for(cfg, m=3, k=3, l=1, g=2,
                                              min_pts=3),
                            expected_oids=recs["oid"].unique())
    det.process_batch(recs[replay.RECORD_COLS])
    det.finish()


def reference(inp: Inputs) -> set:
    """Object sets of the exhaustive reference miner's patterns."""
    p = inp.params
    return set(reference_patterns(
        brute_clusters(inp.snapshots, p.eps, p.min_pts), p))


# ------------------------------------------------------------------ drive

class _Calls:
    """Times each call into the system and counts the ones that raise.

    With a tracer, each call also gets its own Spark job group, whose
    jobs, stages and tasks are read back from the status tracker.
    """

    def __init__(self, spark, tracer=None) -> None:
        self.sc = spark.sparkContext
        self.tracer = tracer
        self.attempted = self.failed = 0
        self.busy = 0.0

    def __call__(self, name: str, fn, *args) -> float:
        """Run ``fn(*args)``; return the wall clock at its return."""
        self.attempted += 1
        tr = self.tracer
        group = f"perfbench-{self.attempted}"
        if tr is not None:
            self.sc.setJobGroup(group, name)
        start = time.perf_counter()
        try:
            if tr is None:
                fn(*args)
            else:
                with tr.span(name, call=self.attempted):
                    fn(*args)
        except Exception:  # a failed call is counted, the replay goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
        end = time.perf_counter()
        self.busy += end - start
        if tr is not None:
            self._count_spark(group)
        return end

    def _count_spark(self, group: str) -> None:
        st = self.sc.statusTracker()
        tr = self.tracer
        for jid in st.getJobIdsForGroup(group):
            tr.add("spark.jobs", 1)
            job = st.getJobInfo(jid)
            for sid in (job.stageIds if job else ()):
                stage = st.getStageInfo(sid)
                if stage is not None:
                    tr.add("spark.stages", 1)
                    tr.add("spark.tasks", stage.numTasks)


def run_stream(spark, inp: Inputs, tracer=None) -> Run:
    """Open-loop replay of ``inp.records`` into a fresh detector.

    A trigger fires every ``TRIGGER_S`` seconds and hands over every
    record due so far; one that comes due while a call is still running
    fires as soon as the call returns (Spark's processing-time trigger).
    """
    recs, due = inp.records, inp.due
    det = StreamingDetector(spark, inp.params, enum_method="fba",
                            expected_oids=recs["oid"].unique())
    if tracer is not None:
        trace_detector(tracer, det)
    call = _Calls(spark, tracer)
    calls = []  # (return time, released before, released after)
    lag_end = 0.0
    t0 = time.perf_counter()

    def hand_over(name, fn, *args):
        before = det.buffer.released_until
        end = call(name, fn, *args) - t0
        calls.append((end, before, det.buffer.released_until))

    i, n, scheduled = 0, len(recs), 0.0
    while i < n:
        now = time.perf_counter() - t0
        lag_end = now - scheduled  # > 0 once a call overran its trigger
        j = int(np.searchsorted(due, now, side="right"))
        if j > i:
            hand_over("pipeline.batch", det.process_batch,
                      recs.iloc[i:j][replay.RECORD_COLS])
            i = j
        if i == n:
            break
        # The next trigger is the first multiple of TRIGGER_S after this one.
        scheduled = (now // TRIGGER_S + 1) * TRIGGER_S
        wait = scheduled - (time.perf_counter() - t0)
        if wait > 0:
            time.sleep(wait)
    hand_over("pipeline.finish", det.finish)
    return Run(
        patterns=set(det.patterns),
        # Snapshots that only the end of the stream releases have no
        # sample: an unbounded stream would release them with later data.
        latencies=replay.emitted_latencies(
            calls[:-1], replay.snapshot_last_due(recs["t"].to_numpy(), due)),
        delays=list(det.metrics.detection_delays),
        snapshots=det.buffer.released_until,
        busy_s=call.busy, attempted=call.attempted, failed=call.failed,
        lag_end_s=lag_end,
    )


def run_batch(spark, inp: Inputs, tracer=None) -> Run:
    """One ``detect`` job over the whole stream (input lifted inside)."""
    call = _Calls(spark, tracer)
    out = {}

    def job():
        sdf = spark.createDataFrame(inp.snapshots[["t", "oid", "x", "y"]],
                                    schema=SNAPSHOT_SCHEMA)
        out["res"] = icpe.detect(sdf, inp.params, enum_method="vba")

    call("runner.detect", job)
    res = out.get("res")
    patterns = res.patterns if res is not None else {}
    return Run(
        patterns=set(patterns),
        latencies=[call.busy],
        delays=[],  # a batch job reports every pattern at the end
        snapshots=int(inp.snapshots["t"].nunique()),
        busy_s=call.busy,
        attempted=call.attempted, failed=call.failed,
    )


# ------------------------------------------------------------------ trace

def trace_detector(tr, det) -> None:
    """Spans and counts around the detector's calls into each layer."""
    state = {"ingested": 0, "released": 0, "max_t": 0}

    def ingested(tr, args, kwargs, result):
        recs = args[0]
        state["ingested"] += len(recs)
        state["max_t"] = max(state["max_t"], int(recs["t"].max()))
        tr.peak("ordering.held_max", state["ingested"] - state["released"])

    def released(tr, args, kwargs, result):
        state["released"] += sum(len(pdf) for _, pdf in result)
        tr.samples("ordering.release_wait_snap",
                   [state["max_t"] - t for t, _ in result])

    def clustered(tr, args, kwargs, result):
        frames = [pdf.assign(t=t) for t, pdf in args[0] if len(pdf)]
        tr.samples("pipeline.rows_per_cluster_call",
                   [sum(len(f) for f in frames)])
        tr.samples("frames", frames)

    def partitioned(tr, args, kwargs, result):
        labels_by_t, m = args[0], args[1]
        for labels in labels_by_t.values():
            sizes = Counter(labels.values()).values()
            kept = sum(n >= m for n in sizes)
            tr.add("dbscan.clusters", len(sizes))
            tr.add("partition.clusters_kept", kept)
            tr.add("partition.clusters_dropped", len(sizes) - kept)
        tr.add("partition.rows", sum(len(members) for by_t in result.values()
                                     for members in by_t.values()))

    tr.wrap(det.buffer, "ingest", "ordering.ingest", after=ingested)
    tr.wrap(det.buffer, "release", "ordering.release", after=released)
    tr.wrap(det, "_cluster", "pipeline.cluster_call", after=clustered)
    tr.wrap(pipeline, "id_partitions_py", "partition", after=partitioned)
    tr.wrap(det.engine, "step", "engine.step")
    tr.wrap(det.engine, "finish", "engine.finish")


def trace_batch(tr) -> None:
    """Spans around ``detect``'s calls into partitioning and the runner."""
    from pyspark.sql import functions as F

    def partitioned(tr, args, kwargs, result):
        clusters, m = args[0], args[1]  # cached by detect
        sc = clusters.sparkSession.sparkContext
        # These probe jobs are the benchmark's, not the call's.
        group = sc.getLocalProperty("spark.jobGroup.id")
        sc.setJobGroup("perfbench-probe", "per-layer counts")
        try:
            sizes = clusters.groupBy("t", "cid").count().toPandas()
            with tr.span("partition.spark"):
                row = result.agg(F.count("*").alias("rows"),
                                 F.countDistinct("anchor").alias("anchors")
                                 ).collect()[0]
        finally:
            sc.setJobGroup(group, "runner.detect")
        kept = int((sizes["count"] >= m).sum())
        tr.add("dbscan.clusters", len(sizes))
        tr.add("partition.clusters_kept", kept)
        tr.add("partition.clusters_dropped", len(sizes) - kept)
        tr.add("partition.rows", row["rows"])
        tr.add("runner.anchors", row["anchors"])

    tr.wrap(icpe, "id_partitions", "partition.plan", after=partitioned)
    tr.wrap(icpe, "collect_patterns", "runner.enumerate")


def cluster_layers(spark, frame: pd.DataFrame, params) -> dict[str, float]:
    """GridAllocate, GridQuery, GridSync and DBSCAN on ``frame``, timed as
    cumulative prefixes (each ``.count()``), plus the serial per-cell
    GridQuery kernel over the same GridObjects and the layers' counts."""
    sdf = spark.createDataFrame(frame[["t", "oid", "x", "y"]],
                                schema=SNAPSHOT_SCHEMA)
    eps, lg = params.eps, params.lg
    prefixes = [
        allocate(sdf, lg=lg, eps=eps, upper_half=True),
        rangejoin.rjc_pairs(sdf, eps=eps, lg=lg),
        neighbor_stream(sdf, params),
        cluster_stream(sdf, params),
    ]
    cum, counts = [], []
    for df in prefixes:
        start = time.perf_counter()
        counts.append(df.count())
        cum.append(time.perf_counter() - start)
    gobj = prefixes[0].toPandas()
    data = gobj[~gobj["flag"]]
    out = {
        "grid.allocate_s": cum[0],
        "rangejoin.gridquery_s": cum[1] - cum[0],
        "rangejoin.gridsync_s": cum[2] - cum[1],
        "dbscan.s": cum[3] - cum[2],
        "grid.data_objects": len(data),
        "grid.query_objects": len(gobj) - len(data),
        "grid.replication": len(gobj) / max(1, len(data)),
        "rangejoin.pairs": counts[1],
        "rangejoin.cells": int(gobj.groupby(["kx", "ky"]).ngroups),
        "rangejoin.cell_occupancy_max":
            int(data.groupby(["t", "kx", "ky"]).size().max()),
        "dbscan.clustered_points": counts[3],
    }
    cells = [c for _, c in gobj.groupby(["kx", "ky"])]
    start = time.perf_counter()
    pairs = sum(len(rangejoin._grid_query_cell(c, eps)) for c in cells)
    out["rangejoin.kernel_serial_s"] = time.perf_counter() - start
    if pairs != counts[1]:
        raise RuntimeError(f"serial GridQuery kernel found {pairs} pairs, "
                           f"Spark GridQuery {counts[1]}")
    return out
