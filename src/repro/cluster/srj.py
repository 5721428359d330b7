"""SRJ comparison method (Zhang et al. [36], adapted as in Sec 7).

The state-of-the-art distributed streaming range join *without* the
paper's two pruning lemmas: every location is replicated to **all**
grid cells intersecting its full square range region, every data and
query object in a cell probes the cell's data objects over the full
square (the same sorted-x window kernel as RJC, without its masks), and
the duplicated results are removed by a global distinct — the extra
replication and the dedup shuffle are exactly what RJC's Lemmas 1 and 2
avoid.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.cluster.grid import allocate
from repro.cluster.rangejoin import (_sorted_cell, canonical, per_cell,
                                     window_join)


def _cell_join(pdf: pd.DataFrame, eps: float) -> pd.DataFrame:
    """Every data and query object probes the cell's data objects."""
    t, flag, oid, x, y = _sorted_cell(pdf)
    i, j = window_join(t, x, y, np.flatnonzero(~flag), np.arange(len(t)),
                       eps)
    keep = oid[i] != oid[j]
    i, j = i[keep], j[keep]
    return pd.DataFrame({"t": t[i], "a": oid[i], "b": oid[j]}, dtype="int64")


def srj_pairs(snapshots: DataFrame, *, eps: float, lg: float) -> DataFrame:
    """Full-replication range join; canonical deduped pairs ``(t, a<b)``.

    GridAllocate over the full square, ``_cell_join`` on every cell
    through ``per_cell`` (the same dispatch as RJC), then the global
    distinct.
    """
    gobj = allocate(snapshots, lg=lg, eps=eps, upper_half=False)
    raw = per_cell(gobj, lambda cell: _cell_join(cell, eps))
    return canonical(raw).distinct()
