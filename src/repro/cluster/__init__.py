"""Indexed clustering phase (Sec 5): GR-index range join + DBSCAN.

``cluster_stream`` is the phase's distributed front door: snapshots →
cluster snapshots, with ``method`` selecting the paper's RJC or one of
the two adapted comparison methods (SRJ, GDC). Each method's pairs,
every unordered pair once, go straight into DBSCAN (``dbscan``: one
``dbscan_arrays`` call per bucket of snapshots). ``cluster_local`` runs
the same RJC window kernel and the same DBSCAN kernel in the calling
process; the streaming detector clusters its released snapshots with
it, because a Spark job per micro-batch costs far more than the work
(DESIGN.md §4). Both see only points that have a neighbor, so at
minPts = 1 neither emits a 1-member cluster (``repro.cluster.dbscan``).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.cluster.dbscan import dbscan, dbscan_arrays
from repro.cluster.gdc import gdc_pairs
from repro.cluster.rangejoin import _grid_query_cell, grid_sync, rjc_pairs
from repro.cluster.srj import srj_pairs
from repro.params import CPParams

METHODS = ("rjc", "srj", "gdc")


def _pairs(snapshots: DataFrame, params: CPParams, method: str) -> DataFrame:
    """The chosen range join's pairs (t, a, b), each unordered pair once."""
    if method == "rjc":
        return rjc_pairs(snapshots, eps=params.eps, lg=params.lg)
    if method == "srj":
        return srj_pairs(snapshots, eps=params.eps, lg=params.lg)
    if method == "gdc":
        return gdc_pairs(snapshots, eps=params.eps)
    raise ValueError(f"unknown clustering method {method!r}; use {METHODS}")


def neighbor_stream(snapshots: DataFrame, params: CPParams,
                    method: str = "rjc") -> DataFrame:
    """Symmetric neighbor stream (t, a, b) under the chosen range join:
    its pairs through GridSync."""
    return grid_sync(_pairs(snapshots, params, method))


def cluster_stream(snapshots: DataFrame, params: CPParams,
                   method: str = "rjc") -> DataFrame:
    """Snapshots (t, oid, x, y) → cluster snapshots (t, cid, oid).

    Classic DBSCAN at minPts ≥ 2; at minPts = 1 without its 1-member
    clusters (``repro.cluster.dbscan``).
    """
    return dbscan(_pairs(snapshots, params, method), min_pts=params.min_pts)


def cluster_local(snapshots: pd.DataFrame,
                  params: CPParams) -> dict[int, dict[int, int]]:
    """Snapshots (t, oid, x, y) → ``{t: {oid: cid}}``, in this process.

    The whole input is one GridQuery cell of data objects, so Lemma 2's
    forward window yields each unordered pair once; one
    ``dbscan_arrays`` call then clusters every snapshot. Labels equal
    the collected ``cluster_stream(..., "rjc")`` rows, plus an empty
    dict for every snapshot without a cluster. At minPts ≥ 2 that is
    exactly ``brute_clusters``; at minPts = 1 it omits the singletons.
    """
    pairs = _grid_query_cell(snapshots.assign(flag=False), params.eps)
    t, cid, oid = dbscan_arrays(pairs["t"].to_numpy(), pairs["a"].to_numpy(),
                                pairs["b"].to_numpy(), params.min_pts)
    out: dict[int, dict[int, int]] = {
        int(s): {} for s in snapshots["t"].unique()}
    ts, lo = np.unique(t, return_index=True)  # t is sorted
    for s, i, j in zip(ts.tolist(), lo, np.r_[lo[1:], len(t)]):
        out[s] = dict(zip(oid[i:j].tolist(), cid[i:j].tolist()))
    return out
