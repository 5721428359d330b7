"""GDC comparison method ([14], adapted to the distributed setting).

Grid-based DBSCAN: the space is divided by the *distance threshold* ϵ
itself (not a tunable lg), locations are replicated to every
neighboring cell intersecting the full square region, and each cell is
scanned with a nested loop (no local index). With cell width = ϵ this
creates many tiny partitions — the overhead the paper blames for GDC
losing to RJC — and its cost is independent of lg (flat curves in
Fig 11).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.cluster.grid import allocate
from repro.cluster.rangejoin import PAIRS_SCHEMA, _snapshot_slices, canonical


def _cell_scan(pdf: pd.DataFrame, eps: float) -> pd.DataFrame:
    """Brute-force scan of one ϵ-cell: data×all candidates, per snapshot."""
    ts, As, Bs = [], [], []
    for t, oid, x, y, n_data in _snapshot_slices(pdf):
        dx = np.abs(x[:n_data, None] - x[None, :])
        dy = np.abs(y[:n_data, None] - y[None, :])
        a_idx, b_idx = np.nonzero(dx + dy <= eps)
        a = oid[:n_data][a_idx]
        b = oid[b_idx]
        keep = a != b
        ts.append(np.full(int(keep.sum()), t, dtype="int64"))
        As.append(a[keep])
        Bs.append(b[keep])
    if not ts:
        return pd.DataFrame({"t": [], "a": [], "b": []}, dtype="int64")
    return pd.DataFrame({
        "t": np.concatenate(ts), "a": np.concatenate(As),
        "b": np.concatenate(Bs),
    }).astype("int64")


def gdc_pairs(snapshots: DataFrame, *, eps: float,
              lg: float | None = None) -> DataFrame:
    """ϵ-grid range join; ``lg`` is accepted and ignored (GDC has none)."""
    gobj = allocate(snapshots, lg=eps, eps=eps, upper_half=False)

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        return _cell_scan(pdf, eps)

    raw = gobj.groupBy("kx", "ky").applyInPandas(fn, schema=PAIRS_SCHEMA)
    return canonical(raw).distinct()
