"""RJC: the GR-index based range join of Sec 5.2 (Algorithms 1 + 2).

Pipeline (Fig 5): GridAllocate (grid.py, pure Catalyst) → GridQuery
(``per_cell``: the GridObjects hashed by cell into buckets, one Python
call per bucket that runs a sorted-x window over each cell's data
objects, forward-only among data objects for Lemma 2, upper-half
probes for query objects). Each unordered pair is emitted exactly once
by GridQuery — RJC needs no dedup shuffle, which is precisely its edge
over SRJ — so DBSCAN takes GridQuery's pairs as they are. GridSync
(symmetrize, one Catalyst projection) only builds the neighbor stream
``cluster.neighbor_stream``.

Distances are L1 (Sec 3.3): the inclusive square ``[x±ϵ]×[y±ϵ]`` is
the candidate region, the exact |dx|+|dy| ≤ ϵ check happens at
emission.

Tie handling (exact-equal y across cells): the upper-half probe keeps a
hit ``v`` for query object ``u`` iff ``v.y > u.y`` or
(``v.y == u.y`` and ``v.oid > u.oid``), so ties are found once, from
exactly one side (see DESIGN.md).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.cluster.grid import allocate

PAIRS_SCHEMA = "t long, a long, b long"


def _sorted_cell(pdf: pd.DataFrame):
    """One cell's GridObjects as numpy arrays ``(t, flag, oid, x, y)``
    sorted by ``(t, flag, x, oid)``: per snapshot, the data objects
    (flag=false) come first and in x order — the order the window kernel
    searches — then the query objects. Everything downstream is plain
    numpy work; pandas indexing is far too slow inside the per-cell
    kernels."""
    t, flag, oid, x, y = (pdf[c].to_numpy()
                          for c in ("t", "flag", "oid", "x", "y"))
    order = np.lexsort((oid, x, flag, t))  # last key is primary
    return t[order], flag[order], oid[order], x[order], y[order]


def _snapshot_slices(pdf: pd.DataFrame):
    """Yield one cell's ``(t, oid, x, y, n_data)`` per snapshot, in the
    order of ``_sorted_cell`` (data objects first)."""
    t_arr, flag_arr, oid_arr, x_arr, y_arr = _sorted_cell(pdf)
    starts = np.flatnonzero(np.r_[True, t_arr[1:] != t_arr[:-1]])
    bounds = np.r_[starts, len(t_arr)]
    for i, lo in enumerate(starts):
        hi = bounds[i + 1]
        n_data = int((~flag_arr[lo:hi]).sum())
        yield (int(t_arr[lo]), oid_arr[lo:hi], x_arr[lo:hi], y_arr[lo:hi],
               n_data)


def _tx_key(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(t, x)`` as one complex key. numpy orders complex numbers
    lexicographically (real part first), so one ``searchsorted`` over a
    whole cell finds an x window inside a probe's own snapshot."""
    key = np.empty(len(t), dtype=np.complex128)
    key.real = t
    key.imag = x
    return key


def window_join(t: np.ndarray, x: np.ndarray, y: np.ndarray,
                data: np.ndarray, probes: np.ndarray, eps: float, *,
                forward: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``: data object ``j`` in probe ``i``'s range.

    ``data`` and ``probes`` index into ``t, x, y``; ``data`` must be in
    ``(t, x)`` order. For every probe, ``searchsorted`` finds the data
    objects of the same snapshot whose x lies in the inclusive window
    ``[x−ϵ, x+ϵ]``; the windows are expanded into index pairs without a
    Python loop, then the y side of the same inclusive square and the
    exact L1 check ``|dx|+|dy| ≤ ϵ`` filter them. ``forward`` (probes
    are the data objects themselves) keeps only data after the probe.
    """
    keys = _tx_key(t[data], x[data])
    tp, xp = t[probes], x[probes]
    lo = np.searchsorted(keys, _tx_key(tp, xp - eps), side="left")
    hi = np.searchsorted(keys, _tx_key(tp, xp + eps), side="right")
    if forward:
        lo = np.maximum(lo, np.arange(1, len(probes) + 1))
    n = np.maximum(hi - lo, 0)
    i = np.repeat(probes, n)
    j = data[np.arange(int(n.sum())) + np.repeat(lo - (np.cumsum(n) - n), n)]
    yi, yj = y[i], y[j]
    keep = ((yj >= yi - eps) & (yj <= yi + eps)
            & (np.abs(x[j] - x[i]) + np.abs(yj - yi) <= eps))
    return i[keep], j[keep]


def _grid_query_cell(pdf: pd.DataFrame, eps: float) -> pd.DataFrame:
    """GridQuery (Algorithm 2) for one cell subtask, every snapshot.

    One grid cell is one keyed subtask that sees the cell's GridObjects
    of *all* snapshots (Flink's keyBy(cell)); the x-sorted local index
    never mixes snapshots (Sec 5.2: "a GR-index is built for each
    snapshot, and is deleted after querying").
    """
    t, flag, oid, x, y = _sorted_cell(pdf)
    data, query = np.flatnonzero(~flag), np.flatnonzero(flag)
    # Lemma 2: a data object pairs only with the data objects after it
    # in x order, so each within-cell pair is found once.
    i, j = window_join(t, x, y, data, data, eps, forward=True)
    # Lemma 1: query objects keep upper-half hits, with the y/id tie-break.
    qi, qj = window_join(t, x, y, data, query, eps)
    up = (y[qj] > y[qi]) | ((y[qj] == y[qi]) & (oid[qj] > oid[qi]))
    a, b = np.r_[i, qi[up]], np.r_[j, qj[up]]
    return pd.DataFrame({"t": t[a], "a": oid[a], "b": oid[b]}, dtype="int64")


def per_bucket(df: DataFrame, keys: list[str], fn, schema: str
               ) -> DataFrame:
    """Hash ``df`` by ``keys`` into buckets; ``fn(bucket) → frame`` once
    per bucket.

    There are at most ``spark.sql.shuffle.partitions`` buckets,
    coalesced by AQE, and each is one Python call over all of its rows:
    a keyed subtask per key, as in Flink, without Spark's per-group
    Arrow round-trip. An empty bucket yields no frame.
    """
    def run(batches):
        pdfs = [pdf for pdf in batches if len(pdf)]
        if pdfs:
            yield fn(pd.concat(pdfs, ignore_index=True))

    return df.repartition(*keys).mapInPandas(run, schema=schema)


def per_cell(gobj: DataFrame, kernel) -> DataFrame:
    """Run ``kernel(cell) → (t, a, b)`` on every grid cell of ``gobj``.

    ``per_bucket`` keyed by cell ``(kx, ky)``; the bucket's rows are
    split by cell with a pandas ``groupby``.
    """
    return per_bucket(
        gobj, ["kx", "ky"],
        lambda bucket: pd.concat([kernel(cell) for _, cell in
                                  bucket.groupby(["kx", "ky"], sort=False)],
                                 ignore_index=True),
        PAIRS_SCHEMA)


def rjc_pairs(snapshots: DataFrame, *, eps: float, lg: float) -> DataFrame:
    """Range join RJ(S_t, ϵ) for every snapshot — each unordered pair once.

    Input ``(t, oid, x, y)``; output ``(t, a, b)`` with a ≠ b,
    d_L1 ≤ ϵ, and {a,b} unique per t (in arbitrary orientation).
    GridAllocate with Lemma 1's upper half, then ``_grid_query_cell``
    on every cell through ``per_cell``.
    """
    gobj = allocate(snapshots, lg=lg, eps=eps, upper_half=True)
    return per_cell(gobj, lambda cell: _grid_query_cell(cell, eps))


def grid_sync(pairs: DataFrame) -> DataFrame:
    """GridSync: symmetrize to the neighbor stream (both orientations).

    One projection: every pair becomes the two rows ``(a, b)`` and
    ``(b, a)``, so the pairs' plan (GridQuery) runs once.
    """
    return pairs.select("t", F.inline(F.array(
        F.struct("a", "b"),
        F.struct(F.col("b").alias("a"), F.col("a").alias("b")))))


def canonical(pairs: DataFrame) -> DataFrame:
    """(t, least, greatest) — for result comparison and dedup."""
    return pairs.select(
        "t",
        F.least("a", "b").alias("a"),
        F.greatest("a", "b").alias("b"),
    )
