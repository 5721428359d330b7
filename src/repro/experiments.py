"""Experiment harness reproducing the paper's evaluation (Sec 7).

One entry point per measured quantity; ``jobs/table_*.py`` (through
``repro.tables``) are thin wrappers. Metrics (DESIGN.md §3):

- **latency_ms** — average per-snapshot processing wall time
  (clustering + enumeration; amortized over the stream);
- **throughput_tps** — snapshots processed per second over the whole
  run (wall-clock of the full stream);
- **delay_snap** — average detection delay in snapshots (report time −
  first time the pattern was valid). This is the substrate-independent
  latency that separates FBA from VBA;
- **avg_cluster_size** — as plotted by Figs 12/13.

The enumeration-only experiments (Fig 15, where the paper omits
clustering) and the cluster-size stat cluster in-process with
``reference.brute_clusters``, whose DBSCAN shares ``cluster_snapshot``
with the Spark path and so has identical semantics.
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
from repro.core.reference import brute_clusters
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


def run_clustering(spark: SparkSession, pdf: pd.DataFrame, cfg: TrajConfig,
                   params: CPParams, method: str, *, repeats: int = 2) -> dict:
    """Figs 10/11: full-stream clustering of RJC/SRJ/GDC (best of N)."""
    warm_up(spark)
    sdf = trajgen.to_spark(spark, pdf)
    walls = []
    n_rows = 0
    for _ in range(repeats):
        start = time.perf_counter()
        n_rows = cluster_stream(sdf, params, method).count()
        walls.append(time.perf_counter() - start)
    wall = min(walls)
    n = int(pdf["t"].nunique())
    return {
        "method": method,
        "latency_ms": 1000.0 * wall / n,
        "throughput_tps": n / wall,
        "clustered_rows": int(n_rows),
    }


# ------------------------------------------------------------- detection

def run_detection(spark: SparkSession, pdf: pd.DataFrame, cfg: TrajConfig,
                  params: CPParams, enum_method: str, *,
                  n_batches: int = 8, cluster_stats: bool = True) -> dict:
    """Figs 12/13: full pattern detection (clustering + enumeration).

    B/F/V all stream through the detector, which yields per-snapshot
    latency and detection delay. B reports DNF when 2^|P| explodes,
    like the missing B bars of Fig 12.
    """
    warm_up(spark)
    n = int(pdf["t"].nunique())
    out = {"method": enum_method, "dnf": False}
    if cluster_stats:
        out["avg_cluster_size"] = avg_cluster_size(
            brute_clusters(pdf, params.eps, params.min_pts))
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(spark, params, enum_method=enum_method,
                            expected_oids=recs["oid"].unique())
    start = time.perf_counter()
    try:
        feed_batches(det, recs, n_batches=n_batches)
    except BAExplodedError:
        out.update(_DNF)
        return out
    wall = time.perf_counter() - start
    out.update(
        latency_ms=det.metrics.avg_latency_ms,
        cluster_ms=det.metrics.avg_cluster_ms,
        enum_ms=det.metrics.avg_enum_ms,
        throughput_tps=n / wall,
        delay_snap=det.metrics.avg_delay_snapshots,
        n_patterns=len(det.patterns),
    )
    return out


def run_detection_batch(spark: SparkSession, pdf: pd.DataFrame,
                        params: CPParams, enum_method: str, *,
                        shuffle_partitions: int | None = None,
                        repeats: int = 2) -> dict:
    """Fig 14: fully distributed batch run with throttled parallelism.

    ``shuffle_partitions`` emulates the cluster size N (DESIGN.md §3):
    every keyed stage runs N tasks, and enumeration runs in N subtasks
    (``repartition("anchor")`` buckets). AQE's partition coalescing is
    off for the run, since it would merge small buckets into one task
    whatever N is. Both confs are restored afterwards.
    Best of ``repeats`` runs (single-run Spark walls are ±15% noisy).
    """
    warm_up(spark)
    conf = spark.conf
    throttle = {} if shuffle_partitions is None else {
        "spark.sql.shuffle.partitions": str(shuffle_partitions),
        "spark.sql.adaptive.coalescePartitions.enabled": "false",
    }
    old = {k: conf.get(k) for k in throttle}
    for k, v in throttle.items():
        conf.set(k, v)
    try:
        sdf = trajgen.to_spark(spark, pdf)
        n = int(pdf["t"].nunique())
        walls, res = [], None
        for _ in range(repeats):
            start = time.perf_counter()
            res = detect(sdf, params, enum_method=enum_method)
            walls.append(time.perf_counter() - start)
        wall = min(walls)
        return {
            "method": enum_method,
            "latency_ms": 1000.0 * wall / n,
            "throughput_tps": n / wall,
            "n_patterns": len(res.patterns),
        }
    finally:
        for k, v in old.items():
            conf.set(k, v)


# ----------------------------------------------------------- enumeration

def run_enumeration(pdf: pd.DataFrame, params: CPParams, method: str) -> dict:
    """Fig 15: enumeration phase only (clustering precomputed/omitted)."""
    clusters = brute_clusters(pdf, params.eps, params.min_pts)
    t_lo, t_hi = min(clusters), max(clusters)
    n = t_hi - t_lo + 1
    parts_all = id_partitions_py(clusters, params.m)
    start = time.perf_counter()
    try:
        engine = run_engine(parts_all, params, method, t_end=t_hi)
    except BAExplodedError:
        return {"method": method, **_DNF}
    wall = time.perf_counter() - start
    delays = engine.delays
    return {
        "method": method,
        "dnf": False,
        "latency_ms": 1000.0 * wall / n,
        "throughput_tps": n / wall,
        "delay_snap": float(np.mean(delays)) if delays else 0.0,
        "n_patterns": len(engine.patterns),
    }


# -------------------------------------------------------------- reporting

def format_table(title: str, rows: list[dict], columns: list[str]) -> str:
    """Plain-text table matching the figure's axes (paper-style rows)."""
    widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in rows))
              for c in columns}
    lines = [title, "  ".join(c.ljust(widths[c]) for c in columns)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v != v:  # NaN → the paper's missing bar
            return "DNF"
        return f"{v:.2f}"
    return str(v)


def save_results(name: str, rows: list[dict]) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(rows, f, indent=2, default=str)
    return path
