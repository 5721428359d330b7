"""GR-index global grid: key computation and GridAllocate (Algorithm 1).

The global index is a uniform grid of width ``lg``; a location's home
cell key is ``(⌊x/lg⌋, ⌊y/lg⌋)`` (Sec 5.1). GridAllocate replicates
every location into *GridObjects* (Definition 12):

- one **data object** ``(key, flag=false, location)`` for its home cell;
- **query objects** ``(key_i, flag=true, location)`` for every other
  cell that must be probed.

For RJC the probed cells are only those intersecting the *upper half*
of the range region (Lemma 1): x ∈ [⌊(x−ϵ)/lg⌋, ⌊(x+ϵ)/lg⌋],
y ∈ [⌊y/lg⌋, ⌊(y+ϵ)/lg⌋]. For the SRJ baseline the full square is
used (y from ⌊(y−ϵ)/lg⌋), which finds every pair twice and forces a
global dedup later.

Both key ranges contain the home key, so one pass over the probed
square yields every GridObject of a location: the data object is the
square's home cell. Allocation is a single Catalyst generator
(``inline`` over that square): one scan of the input, no union and no
Python round-trip.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

GRIDOBJ_SCHEMA_COLS = ["t", "kx", "ky", "flag", "oid", "x", "y"]


def _key(coord: Column, lg: float) -> Column:
    return F.floor(coord / F.lit(lg))


def with_home_key(df: DataFrame, lg: float) -> DataFrame:
    """Add home-cell key columns kx, ky (Sec 5.1 key computation)."""
    return df.withColumn("kx", _key(F.col("x"), lg)).withColumn(
        "ky", _key(F.col("y"), lg))


def allocate(snapshots: DataFrame, *, lg: float, eps: float,
             upper_half: bool = True) -> DataFrame:
    """GridAllocate: snapshots ``(t, oid, x, y)`` → GridObject stream.

    ``upper_half=True`` is RJC (Lemma 1); ``False`` is the SRJ/GDC full
    square. Output columns: t, kx, ky, flag, oid, x, y — one data object
    per location plus its query-object replicas (home cell excluded).
    """
    x, y, e = F.col("x"), F.col("y"), F.lit(eps)
    home_kx, home_ky = _key(x, lg), _key(y, lg)
    y_lo = y if upper_half else y - e
    cells = F.flatten(F.transform(
        F.sequence(_key(x - e, lg), _key(x + e, lg)),
        lambda i: F.transform(
            F.sequence(_key(y_lo, lg), _key(y + e, lg)),
            lambda j: F.struct(
                i.alias("kx"), j.alias("ky"),
                (~((i == home_kx) & (j == home_ky))).alias("flag")))))
    return snapshots.select("t", F.inline(cells), "oid", "x", "y")
