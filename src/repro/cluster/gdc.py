"""GDC comparison method ([14], adapted to the distributed setting).

Grid-based DBSCAN: the space is divided by the *distance threshold* ϵ
itself (not a tunable lg), locations are replicated to every
neighboring cell intersecting the full square region, and each cell is
scanned with a nested loop (no local index). With cell width = ϵ there
are far more cells than locations (68,708 cells for 12,575 locations on
taxi-like at ϵ = 0.02 %, each location in 9 cells). Every cell and
snapshot is one scan of a handful of rows at a fixed Python cost of
~0.3 ms per cell, and those scans, not Spark's partitioning, are most
of GDC's time and its loss to RJC (EXPERIMENTS.md T10). A larger ϵ
means fewer cells, so GDC gets cheaper as ϵ grows; its cost is
independent of lg (flat curves in Fig 11).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.cluster.grid import allocate
from repro.cluster.rangejoin import _snapshot_slices, canonical, per_cell


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
    """ϵ-grid range join; ``lg`` is accepted and ignored (GDC has none).

    GridAllocate over the full square of ϵ-cells, ``_cell_scan`` on
    every cell through ``per_cell`` (the same dispatch as RJC), then the
    global distinct.
    """
    gobj = allocate(snapshots, lg=eps, eps=eps, upper_half=False)
    raw = per_cell(gobj, lambda cell: _cell_scan(cell, eps))
    return canonical(raw).distinct()
