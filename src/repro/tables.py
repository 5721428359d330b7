"""Per-table sweep drivers for the evaluation section (Figs 10–15).

Each ``sweep_*`` reproduces one results figure as a printed table of
rows: the same parameter axis, the same methods, the same metrics (see
``repro.experiments`` for metric definitions). ``jobs/table_*.py`` are
the spark-submit entrypoints.

Sweep ranges follow Table 3; dataset sizes follow the scaled presets
(DESIGN.md §5). ``quick=True`` trims each axis to its endpoints for
smoke runs.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro import experiments as ex
from repro.cluster import cluster_local

EPS_SWEEP = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12]          # % of max distance
LG_SWEEP = [0.2, 0.4, 0.8, 1.6, 3.2, 6.4]                 # % of max distance
OR_SWEEP = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
N_SWEEP = [1, 2, 4, 6, 8, 10]
M_SWEEP = [3, 4, 5, 6, 7]        # paper: 5..25 at ~20 members/cluster
K_SWEEP = [8, 10, 12, 14, 16]    # paper: 120..240 (we keep K/L ≈ 4)
L_SWEEP = [2, 3, 4, 5, 6]        # paper: 10..50
G_SWEEP = [1, 2, 3, 4, 5]        # paper: 10..50

CLUSTER_DATASETS = ["geolife", "taxi", "brinkhoff"]
DETECT_DATASETS = ["taxi", "brinkhoff"]  # as in Figs 12–14
ENUM_DATASET = "brinkhoff"               # as in Fig 15

# Snapshots per dataset for the clustering sweeps (keeps GDC runs sane).
CLUSTER_SNAPSHOTS = 40

_DETECT = ["latency_ms", "throughput_tps", "delay_snap", "avg_cluster_size",
           "n_patterns"]
# The printed/rendered columns of each table, keyed by its results file.
COLUMNS = {
    "t2_datasets": ["dataset", "n_trajectories", "n_locations",
                    "n_snapshots", "manhattan"],
    "t10_clustering_eps": ["dataset", "eps_pct", "method", "latency_ms",
                           "throughput_tps"],
    "t11_clustering_lg": ["dataset", "lg_pct", "method", "latency_ms",
                          "throughput_tps"],
    "t12_detection_or": ["dataset", "or_pct", "method", *_DETECT],
    "t13_detection_eps": ["dataset", "eps_pct", "method", *_DETECT],
    "t14_scalability": ["dataset", "n_workers", "method", "latency_ms",
                        "throughput_tps", "n_patterns"],
    "t15_enumeration": ["dataset", "axis", "value", "method", "latency_ms",
                        "throughput_tps", "delay_snap", "n_patterns"],
}


def _trim(values, quick):
    return [values[0], values[-1]] if quick else values


# --------------------------------------------------------------- Fig 10

def sweep_t10_clustering_eps(spark: SparkSession, *, quick: bool = False,
                             datasets=None) -> list[dict]:
    """Clustering latency/throughput vs ϵ — RJC vs SRJ vs GDC."""
    rows = []
    for name in datasets or CLUSTER_DATASETS:
        cfg, pdf = ex.make_dataset(name, n_snapshots=CLUSTER_SNAPSHOTS)
        for eps_pct in _trim(EPS_SWEEP, quick):
            params = ex.params_for(cfg, eps_pct=eps_pct)
            for method in ("rjc", "srj", "gdc"):
                r = ex.run_clustering(spark, pdf, params, method)
                rows.append({"dataset": name, "eps_pct": eps_pct, **r})
    return rows


# --------------------------------------------------------------- Fig 11

def sweep_t11_clustering_lg(spark: SparkSession, *, quick: bool = False,
                            datasets=None) -> list[dict]:
    """Clustering latency/throughput vs lg — GDC is lg-independent, so it
    is measured once per dataset and repeated across the axis (its curve
    is flat by construction, as in the paper)."""
    rows = []
    for name in datasets or CLUSTER_DATASETS:
        cfg, pdf = ex.make_dataset(name, n_snapshots=CLUSTER_SNAPSHOTS)
        gdc_row = ex.run_clustering(spark, pdf, ex.params_for(cfg), "gdc")
        for lg_pct in _trim(LG_SWEEP, quick):
            params = ex.params_for(cfg, lg_pct=lg_pct)
            for method in ("rjc", "srj"):
                r = ex.run_clustering(spark, pdf, params, method)
                rows.append({"dataset": name, "lg_pct": lg_pct, **r})
            rows.append({"dataset": name, "lg_pct": lg_pct, **gdc_row})
    return rows


# --------------------------------------------------------------- Fig 12

def sweep_t12_detection_or(*, quick: bool = False,
                           datasets=None) -> list[dict]:
    """Pattern detection vs Or — B (DNFs at scale) vs F vs V, plus the
    average cluster size curve."""
    rows = []
    for name in datasets or DETECT_DATASETS:
        for or_ratio in _trim(OR_SWEEP, quick):
            cfg, pdf = ex.make_dataset(name, or_ratio=or_ratio)
            params = ex.params_for(cfg)
            size = ex.avg_cluster_size(cluster_local(pdf, params))
            for method in ("ba", "fba", "vba"):
                r = ex.run_detection(pdf, params, method)
                rows.append({"dataset": name, "or_pct": int(or_ratio * 100),
                             **r, "avg_cluster_size": size})
    return rows


# --------------------------------------------------------------- Fig 13

def sweep_t13_detection_eps(*, quick: bool = False,
                            datasets=None) -> list[dict]:
    """Pattern detection vs ϵ — F vs V, plus average cluster size."""
    rows = []
    for name in datasets or DETECT_DATASETS:
        cfg, pdf = ex.make_dataset(name)
        for eps_pct in _trim(EPS_SWEEP, quick):
            params = ex.params_for(cfg, eps_pct=eps_pct)
            size = ex.avg_cluster_size(cluster_local(pdf, params))
            for method in ("fba", "vba"):
                r = ex.run_detection(pdf, params, method)
                rows.append({"dataset": name, "eps_pct": eps_pct, **r,
                             "avg_cluster_size": size})
    return rows


# --------------------------------------------------------------- Fig 14

def _t14_dataset(name: str):
    """Denser variant for the scalability sweep: at the presets' size the
    fixed per-job overhead flattens the N-curve (Amdahl); 2.5x objects
    (same members-per-group, more groups) gives the parallel stages
    enough work to show the paper's scaling shape."""
    from dataclasses import replace

    from repro import trajgen

    cfg = ex.DATASETS[name](n_snapshots=60)
    cfg = replace(cfg, n_objects=int(cfg.n_objects * 2.5),
                  n_groups=int(cfg.n_groups * 2.5))
    return cfg, trajgen.generate(cfg)


def sweep_t14_scalability(spark: SparkSession, *, quick: bool = False,
                          datasets=None) -> list[dict]:
    """Pattern detection vs worker count N (parallelism throttle)."""
    rows = []
    for name in datasets or DETECT_DATASETS:
        cfg, pdf = _t14_dataset(name)
        params = ex.params_for(cfg)
        for n in _trim(N_SWEEP, quick):
            for method in ("fba", "vba"):
                r = ex.run_detection_batch(spark, pdf, params, method,
                                           shuffle_partitions=n)
                rows.append({"dataset": name, "n_workers": n, **r})
    return rows


# --------------------------------------------------------------- Fig 15

def sweep_t15_enumeration(*, quick: bool = False, dataset: str | None = None
                          ) -> list[dict]:
    """Enumeration phase vs M, K, L, G — FBA vs VBA (clustering omitted,
    as in the paper; runs without Spark). The data is clustered once:
    ϵ and minPts are the same in every cell."""
    name = dataset or ENUM_DATASET
    cfg, pdf = ex.make_dataset(name)
    clusters = cluster_local(pdf, ex.params_for(cfg))
    rows = []
    axes = {
        "M": ("m", M_SWEEP), "K": ("k", K_SWEEP),
        "L": ("l", L_SWEEP), "G": ("g", G_SWEEP),
    }
    for axis, (field, sweep) in axes.items():
        for v in _trim(sweep, quick):
            params = ex.params_for(cfg, **{field: v})
            for method in ("fba", "vba"):
                r = ex.run_enumeration(clusters, params, method)
                rows.append({"dataset": name, "axis": axis, "value": v, **r})
    return rows


# ---------------------------------------------------------------- Table 2

def table_t2_datasets() -> list[dict]:
    """Dataset statistics, the analogue of Table 2."""
    rows = []
    for name in CLUSTER_DATASETS:
        cfg, pdf = ex.make_dataset(name)
        rows.append({
            "dataset": name,
            "n_trajectories": int(pdf["oid"].nunique()),
            "n_locations": int(len(pdf)),
            "n_snapshots": int(pdf["t"].nunique()),
            "manhattan": cfg.manhattan,
        })
    return rows
