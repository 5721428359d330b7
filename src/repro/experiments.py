"""Experiment harness reproducing the paper's evaluation (Sec 7).

One entry point per measured quantity; ``jobs/table_*.py`` (through
``repro.tables``) are thin wrappers. Metrics (DESIGN.md §3):

- **latency_ms** — wall time of the whole run / snapshots, the median
  of ``RUNS`` runs, with the fastest and slowest as ``latency_ms_min``
  and ``latency_ms_max``;
- **throughput_tps** — snapshots / median wall;
- **delay_snap** — average detection delay in snapshots (report time −
  first time the pattern was valid). This is the substrate-independent
  latency that separates FBA from VBA;
- **avg_cluster_size** — as plotted by Figs 12/13.

Only Figs 10, 11 and 14, where the paper distributes, take a
SparkSession. Detection (Figs 12/13) streams through the in-process
``StreamingDetector``; the enumeration-only runs (Fig 15, where the
paper omits clustering) take labels from ``cluster.cluster_local``.
"""
from __future__ import annotations

import json
import os
import time
from collections import Counter

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro import trajgen
from repro.cluster import cluster_stream
from repro.core.icpe import detect
from repro.enumeration.ba import BAExplodedError
from repro.enumeration.engine import run_engine
from repro.enumeration.partition import id_partitions_py
from repro.params import CPParams, pct_of_extent
from repro.stream.pipeline import StreamingDetector, feed_batches
from repro.trajgen import TrajConfig

DATASETS = {
    "geolife": trajgen.geolife_like,
    "taxi": trajgen.taxi_like,
    "brinkhoff": trajgen.brinkhoff_like,
}

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "results")

RUNS = 3       # timed runs per table cell
N_BATCHES = 8  # micro-batches per streamed detection run

# A run whose BA enumeration exploded: the paper's missing bar.
_DNF = {"dnf": True, "latency_ms": float("nan"),
        "throughput_tps": float("nan"), "delay_snap": float("nan"),
        "n_patterns": 0}


def make_dataset(name: str, *, or_ratio: float = 1.0,
                 n_snapshots: int | None = None) -> tuple[TrajConfig, pd.DataFrame]:
    """Generate one of the three dataset substitutes."""
    kw = {"or_ratio": or_ratio}
    if n_snapshots is not None:
        kw["n_snapshots"] = n_snapshots
    cfg = DATASETS[name](**kw)
    return cfg, trajgen.generate(cfg)


def params_for(cfg: TrajConfig, *, eps_pct: float = 0.06,
               lg_pct: float = 1.6, **overrides) -> CPParams:
    """Scaled Table-3 defaults with %-style ϵ and lg (DESIGN.md §5)."""
    base = dict(
        m=5, k=12, l=3, g=3, min_pts=5,
        eps=pct_of_extent(cfg.l1_extent, eps_pct),
        lg=pct_of_extent(cfg.l1_extent, lg_pct),
    )
    base.update(overrides)
    return CPParams(**base)


def avg_cluster_size(clusters: dict[int, dict[int, int]]) -> float:
    sizes = [n for labels in clusters.values()
             for n in Counter(labels.values()).values()]
    return float(np.mean(sizes)) if sizes else 0.0


def _timed(fn, n_snapshots: int) -> tuple[dict, object]:
    """Run ``fn`` ``RUNS`` times: a row's timing columns and the result
    of the median run (the one whose wall is the median)."""
    runs = []
    for _ in range(RUNS):
        start = time.perf_counter()
        res = fn()
        runs.append((time.perf_counter() - start, res))
    runs.sort(key=lambda run: run[0])
    wall, res = runs[RUNS // 2]
    return {
        "latency_ms": 1000.0 * wall / n_snapshots,
        "latency_ms_min": 1000.0 * runs[0][0] / n_snapshots,
        "latency_ms_max": 1000.0 * runs[-1][0] / n_snapshots,
        "throughput_tps": n_snapshots / wall,
    }, res


# ------------------------------------------------------------ clustering

_WARMED: set[int] = set()


def warm_up(spark: SparkSession) -> None:
    """One tiny end-to-end pipeline run so JVM/Arrow/codegen warm-up cost
    does not land on whichever measured method happens to run first."""
    if id(spark) in _WARMED:
        return
    cfg = TrajConfig(n_objects=24, n_snapshots=4, n_groups=3, seed=123,
                     cohesion=0.4, grouped_frac=0.8)
    params = params_for(cfg)
    sdf = trajgen.to_spark(spark, trajgen.generate(cfg))
    for method in ("rjc", "srj", "gdc"):
        cluster_stream(sdf, params, method).count()
    detect(sdf, params, enum_method="fba")
    _WARMED.add(id(spark))


def run_clustering(spark: SparkSession, pdf: pd.DataFrame, params: CPParams,
                   method: str) -> dict:
    """Figs 10/11: full-stream clustering of RJC/SRJ/GDC."""
    warm_up(spark)
    sdf = trajgen.to_spark(spark, pdf)
    timing, n_rows = _timed(
        lambda: cluster_stream(sdf, params, method).count(),
        int(pdf["t"].nunique()))
    return {"method": method, **timing, "clustered_rows": int(n_rows)}


# ------------------------------------------------------------- detection

def run_detection(pdf: pd.DataFrame, params: CPParams,
                  enum_method: str) -> dict:
    """Figs 12/13: full pattern detection (clustering + enumeration).

    B/F/V all stream through the in-process detector in ``N_BATCHES``
    micro-batches, which yields detection delay and the clustering /
    enumeration split of the latency. B reports DNF when 2^|P|
    explodes, like the missing B bars of Fig 12.
    """
    recs = trajgen.with_last_time(pdf)
    oids = recs["oid"].unique()

    def stream() -> StreamingDetector:
        det = StreamingDetector(None, params, enum_method=enum_method,
                                expected_oids=oids)
        feed_batches(det, recs, n_batches=N_BATCHES)
        return det

    try:
        timing, det = _timed(stream, int(pdf["t"].nunique()))
    except BAExplodedError:
        return {"method": enum_method, **_DNF}
    return {
        "method": enum_method, "dnf": False, **timing,
        "cluster_ms": det.metrics.avg_cluster_ms,
        "enum_ms": det.metrics.avg_enum_ms,
        "delay_snap": det.metrics.avg_delay_snapshots,
        "n_patterns": len(det.patterns),
    }


def run_detection_batch(spark: SparkSession, pdf: pd.DataFrame,
                        params: CPParams, enum_method: str, *,
                        shuffle_partitions: int) -> dict:
    """Fig 14: fully distributed batch run with throttled parallelism.

    ``shuffle_partitions`` emulates the cluster size N (DESIGN.md §3):
    every keyed stage runs N tasks, and enumeration runs in N subtasks
    (``repartition("anchor")`` buckets). AQE's partition coalescing is
    off for the run, since it would merge small buckets into one task
    whatever N is. Both confs are restored afterwards.
    """
    warm_up(spark)
    conf = spark.conf
    throttle = {
        "spark.sql.shuffle.partitions": str(shuffle_partitions),
        "spark.sql.adaptive.coalescePartitions.enabled": "false",
    }
    old = {k: conf.get(k) for k in throttle}
    for k, v in throttle.items():
        conf.set(k, v)
    try:
        sdf = trajgen.to_spark(spark, pdf)
        timing, res = _timed(
            lambda: detect(sdf, params, enum_method=enum_method),
            int(pdf["t"].nunique()))
        return {"method": enum_method, **timing,
                "n_patterns": len(res.patterns)}
    finally:
        for k, v in old.items():
            conf.set(k, v)


# ----------------------------------------------------------- enumeration

def run_enumeration(clusters: dict[int, dict[int, int]], params: CPParams,
                    method: str) -> dict:
    """Fig 15: enumeration phase only, over precomputed ``{t: {oid: cid}}``
    labels (clustering omitted, as in the paper)."""
    t_lo, t_hi = min(clusters), max(clusters)
    parts_all = id_partitions_py(clusters, params.m)
    try:
        timing, engine = _timed(
            lambda: run_engine(parts_all, params, method, t_end=t_hi),
            t_hi - t_lo + 1)
    except BAExplodedError:
        return {"method": method, **_DNF}
    delays = engine.delays
    return {
        "method": method, "dnf": False, **timing,
        "delay_snap": float(np.mean(delays)) if delays else 0.0,
        "n_patterns": len(engine.patterns),
    }


# -------------------------------------------------------------- reporting

def format_table(title: str, rows: list[dict], columns: list[str]) -> str:
    """Plain-text table matching the figure's axes (paper-style rows)."""
    widths = {c: max(len(c), *(len(format_cell(r, c)) for r in rows))
              for c in columns}
    lines = [title, "  ".join(c.ljust(widths[c]) for c in columns)]
    for r in rows:
        lines.append("  ".join(format_cell(r, c).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)


def format_cell(row: dict, column: str) -> str:
    """One table cell: NaN is the paper's missing bar (DNF), and
    ``latency_ms`` reads ``median [min–max]`` when the row has the range."""
    v = row.get(column)
    if v is None:
        return "-"
    if isinstance(v, float):
        if v != v:
            return "DNF"
        if column == "latency_ms" and "latency_ms_min" in row:
            return (f"{v:.2f} [{row['latency_ms_min']:.2f}–"
                    f"{row['latency_ms_max']:.2f}]")
        return f"{v:.2f}"
    return str(v)


def save_results(name: str, rows: list[dict]) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(rows, f, indent=2, default=str)
    return path
