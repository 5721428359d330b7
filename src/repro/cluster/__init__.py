"""Indexed clustering phase (Sec 5): GR-index range join + DBSCAN.

``cluster_stream`` is the phase's distributed front door: snapshots →
cluster snapshots, with ``method`` selecting the paper's RJC or one of
the two adapted comparison methods (SRJ, GDC). ``cluster_local`` runs
the same RJC window kernel and DBSCAN in the calling process; the
streaming detector clusters its released snapshots with it, because a
Spark job per micro-batch costs far more than the work (DESIGN.md §4).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

from repro.cluster.dbscan import cluster_snapshot, dbscan
from repro.cluster.gdc import gdc_pairs
from repro.cluster.rangejoin import _grid_query_cell, grid_sync, rjc_pairs
from repro.cluster.srj import srj_pairs
from repro.params import CPParams

METHODS = ("rjc", "srj", "gdc")


def neighbor_stream(snapshots: DataFrame, params: CPParams,
                    method: str = "rjc") -> DataFrame:
    """Symmetric neighbor stream (t, a, b) under the chosen range join."""
    if method == "rjc":
        pairs = rjc_pairs(snapshots, eps=params.eps, lg=params.lg)
    elif method == "srj":
        pairs = srj_pairs(snapshots, eps=params.eps, lg=params.lg)
    elif method == "gdc":
        pairs = gdc_pairs(snapshots, eps=params.eps)
    else:
        raise ValueError(f"unknown clustering method {method!r}; use {METHODS}")
    return grid_sync(pairs)


def cluster_stream(snapshots: DataFrame, params: CPParams,
                   method: str = "rjc") -> DataFrame:
    """Snapshots (t, oid, x, y) → cluster snapshots (t, cid, oid)."""
    sym = neighbor_stream(snapshots, params, method)
    return dbscan(snapshots, sym, min_pts=params.min_pts)


def cluster_local(snapshots: pd.DataFrame,
                  params: CPParams) -> dict[int, dict[int, int]]:
    """Snapshots (t, oid, x, y) → ``{t: {oid: cid}}``, in this process.

    The whole input is one GridQuery cell of data objects, so Lemma 2's
    forward window yields each unordered pair once; each snapshot is
    then clustered by ``cluster_snapshot``. Labels equal the collected
    ``cluster_stream(..., "rjc")`` rows, plus an empty dict for every
    snapshot that is all noise (as ``brute_clusters`` gives).
    """
    pairs = _grid_query_cell(snapshots.assign(flag=False), params.eps)
    by_t = {t: (g["a"].tolist(), g["b"].tolist())
            for t, g in pairs.groupby("t")}
    out: dict[int, dict[int, int]] = {}
    for t, snap in snapshots.groupby("t"):
        a, b = by_t.get(t, ([], []))
        out[int(t)] = cluster_snapshot(snap["oid"].tolist(),
                                       list(zip(a + b, b + a)),
                                       params.min_pts)
    return out
