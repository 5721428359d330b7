"""Id-based partitioning (Sec 6.1) with the Lemma 3 size filter.

For each cluster snapshot, every trajectory ``o`` receives the
partition ``P_t(o)`` = the other members of its cluster with ids
larger than ``o.id``; at different times the partitions with the same
anchor are routed to the same subtask (in Spark: the same
anchor bucket of the runner). Clusters smaller than the significance
constraint M are discarded up front (Lemma 3).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame

PARTITIONS_SCHEMA = "t long, anchor long, member long"


def id_partitions_py(labels_by_t: dict[int, dict[int, int]], m: int
                     ) -> dict[int, dict[int, frozenset[int]]]:
    """Id-based partitioning: {anchor → {t → P_t(anchor)}}.

    ``member > anchor`` avoids duplicate pattern discovery: a pattern is
    found exactly once, in the subtask of its minimum-id member. The one
    implementation: the Spark ``id_partitions`` runs it per snapshot.
    """
    out: dict[int, dict[int, frozenset[int]]] = {}
    for t, labels in labels_by_t.items():
        by_cid: dict[int, list[int]] = {}
        for oid, cid in labels.items():
            by_cid.setdefault(cid, []).append(oid)
        for members in by_cid.values():
            if len(members) < m:
                continue  # Lemma 3
            members.sort()
            for i, anchor in enumerate(members[:-1]):
                out.setdefault(anchor, {})[t] = frozenset(members[i + 1:])
    return out


def id_partitions(clusters: DataFrame, m: int) -> DataFrame:
    """Cluster snapshots ``(t, cid, oid)`` → partitions ``(t, anchor, member)``.

    One ``applyInPandas`` group per snapshot runs ``id_partitions_py``.
    """
    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        t = int(pdf["t"].iloc[0])
        labels = dict(zip(pdf["oid"].tolist(), pdf["cid"].tolist()))
        rows = [(t, anchor, member)
                for anchor, by_t in id_partitions_py({t: labels}, m).items()
                for member in by_t[t]]
        return pd.DataFrame(rows, columns=["t", "anchor", "member"],
                            dtype="int64")

    return clusters.groupBy("t").applyInPandas(fn, schema=PARTITIONS_SCHEMA)
