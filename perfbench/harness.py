"""Set-up, the untraced measurement and the traced run of one workload."""
from __future__ import annotations

import os
import resource
import statistics
import time

import pandas as pd

import replay
import workloads
from tracing import Tracer

SETUP_REPEATS = 3


def set_up():
    """Start a session and warm it up, repeatedly (stopping the previous
    session); return the last session and the time of every set-up."""
    from jobs._common import get_spark

    times, spark = [], None
    for _ in range(SETUP_REPEATS):
        if spark is not None:
            spark.stop()
        start = time.perf_counter()
        spark = get_spark("perfbench")
        spark.sparkContext.setLogLevel("ERROR")
        workloads.warm_up(spark)
        times.append(time.perf_counter() - start)
    return spark, times


def _runner(inp):
    return workloads.run_batch if inp.records is None else workloads.run_stream


def measure(spark, inp, passes: int):
    """A discarded warm pass, then ``passes`` timed untraced passes; all
    the runs, the end-to-end metrics and the latency sample summary.

    The pass count is fixed per workload, never by how fast the program
    is, so a faster program changes the figures, not how they are taken.
    """
    run = _runner(inp)
    runs = [run(spark, workloads.warm(inp))]
    timed = [run(spark, inp) for _ in range(passes)]
    lat = replay.summary([x for r in timed for x in r.latencies])
    return runs + timed, {
        "throughput_snap_s": statistics.median(
            r.snapshots / r.busy_s for r in timed),
        "latency_p50_ms": 1000.0 * lat["p50"],
        "latency_p95_ms": 1000.0 * lat["p95"],
        "py_peak_rss_mb": py_peak_rss_mb(),
    }, lat


def traced(spark, inp, trace_path: str):
    """A discarded warm pass, a traced pass and an untraced one, then the
    clustering layers on the frames the traced pass clustered; the passes
    and the per-layer metrics. Layers a workload does not use read 0."""
    run = _runner(inp)
    warm = run(spark, workloads.warm(inp))
    tr = Tracer()
    try:
        if inp.records is None:
            workloads.trace_batch(tr)
        traced_run = run(spark, inp, tracer=tr)
    finally:
        tr.unwrap_all()
    plain = run(spark, inp)
    frames = tr.lists.get("frames")
    frame = pd.concat(frames, ignore_index=True) if frames else inp.snapshots
    layers = workloads.cluster_layers(spark, frame, inp.params)
    tr.dump(trace_path)

    c, lists = tr.counts, tr.lists

    def p(q, xs):
        return replay.percentile(xs, q) if xs else 0.0

    batch_s = tr.durations("pipeline.batch")
    return [warm, traced_run, plain], {
        **layers,
        **{k: c.get(k, 0) for k in (
            "spark.jobs", "spark.stages", "spark.tasks", "ordering.held_max",
            "dbscan.clusters", "partition.clusters_kept",
            "partition.clusters_dropped", "partition.rows",
            "runner.anchors")},
        "spark.jvm_peak_rss_mb": jvm_peak_rss_mb(spark),
        "pipeline.batches": len(batch_s),
        "pipeline.batch_s_p50": p(50, batch_s),
        "pipeline.cluster_call_s": tr.total("pipeline.cluster_call"),
        "pipeline.rows_per_cluster_call_p50": p(
            50, lists.get("pipeline.rows_per_cluster_call", [])),
        "ordering.ingest_s": tr.total("ordering.ingest"),
        "ordering.release_s": tr.total("ordering.release"),
        "ordering.release_wait_snap_p95": p(
            95, lists.get("ordering.release_wait_snap", [])),
        "partition.s": tr.total("partition"),
        "partition.spark_s": tr.total("partition.spark"),
        "engine.step_s": tr.total("engine.step"),
        "engine.finish_s": tr.total("engine.finish"),
        "engine.patterns": len(traced_run.patterns),
        "runner.enumerate_s": tr.total("runner.enumerate"),
        "delay.p50_snap": p(50, traced_run.delays),
        "delay.p95_snap": p(95, traced_run.delays),
        "replay.lag_end_s": traced_run.lag_end_s,
        "replay.failed_frac": traced_run.failed / traced_run.attempted,
        # Time inside the system's calls, traced minus untraced.
        "trace.overhead_s": traced_run.busy_s - plain.busy_s,
    }


def stop(spark) -> None:
    """Stop the session, then end the JVM it ran in and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        gateway.shutdown()
        proc.stdin.close()  # the JVM exits at the end of its stdin
        proc.wait(timeout=60)


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the JVM")


def py_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(spark) -> dict:
    """What the numbers depend on besides the code."""
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "pyspark": pyspark.__version__,
    }
