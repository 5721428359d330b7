"""Id-based partitioning: Spark vs pure-Python vs DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest

from repro.enumeration.partition import id_partitions, id_partitions_py
from repro.oracle import assert_equivalent


def _random_cluster_rows(seed, n_obj=30, n_t=5, n_clusters=4):
    g = np.random.default_rng(seed)
    rows = []
    for t in range(1, n_t + 1):
        for oid in range(n_obj):
            if g.random() < 0.8:
                rows.append((t, int(g.integers(0, n_clusters)), oid))
    return pd.DataFrame(rows, columns=["t", "cid", "oid"])


def test_paper_fig7_time1(spark):
    # Fig 7 at time 1: clusters {o1,o2}, {o3,o4}, {o5,o6,o7} (M=2) →
    # P1(o1)={o2}, P1(o3)={o4}, P1(o5)={o6,o7}, P1(o6)={o7}, others empty.
    pdf = pd.DataFrame({
        "t": [1] * 7,
        "cid": [1, 1, 3, 3, 5, 5, 5],
        "oid": [1, 2, 3, 4, 5, 6, 7],
    })
    df = spark.createDataFrame(pdf, schema="t long, cid long, oid long")
    rows = id_partitions(df, m=2).collect()
    got = {}
    for r in rows:
        got.setdefault(r.anchor, set()).add(r.member)
    assert got == {1: {2}, 3: {4}, 5: {6, 7}, 6: {7}}


def test_lemma3_filters_small_clusters(spark):
    # With M=3, the Fig 7 time-1 clusters {o1,o2} and {o3,o4} disappear.
    pdf = pd.DataFrame({
        "t": [1] * 7,
        "cid": [1, 1, 3, 3, 5, 5, 5],
        "oid": [1, 2, 3, 4, 5, 6, 7],
    })
    df = spark.createDataFrame(pdf, schema="t long, cid long, oid long")
    rows = id_partitions(df, m=3).collect()
    assert {(r.anchor, r.member) for r in rows} == {(5, 6), (5, 7), (6, 7)}


@pytest.mark.parametrize("m", [2, 3, 5])
def test_partitions_match_oracle(spark, m):
    pdf = _random_cluster_rows(seed=m, n_obj=40)
    df = spark.createDataFrame(pdf, schema="t long, cid long, oid long")
    out = id_partitions(df, m)
    assert_equivalent(
        out,
        f"""
        WITH sized AS (
          SELECT t, cid FROM clusters GROUP BY t, cid HAVING count(*) >= {m}
        )
        SELECT a.t AS t, a.oid AS anchor, b.oid AS member
        FROM clusters a
        JOIN sized s ON a.t = s.t AND a.cid = s.cid
        JOIN clusters b ON a.t = b.t AND a.cid = b.cid AND b.oid > a.oid
        """,
        clusters=pdf,
    )


@pytest.mark.parametrize("m", [2, 4])
def test_partitions_spark_matches_python(spark, m):
    pdf = _random_cluster_rows(seed=77 + m)
    labels_by_t = {
        int(t): dict(zip(sub["oid"], sub["cid"]))
        for t, sub in pdf.groupby("t")
    }
    expect = id_partitions_py(labels_by_t, m)
    df = spark.createDataFrame(pdf, schema="t long, cid long, oid long")
    got: dict[int, dict[int, set]] = {}
    for r in id_partitions(df, m).collect():
        got.setdefault(r.anchor, {}).setdefault(r.t, set()).add(r.member)
    got_f = {a: {t: frozenset(s) for t, s in d.items()} for a, d in got.items()}
    assert got_f == expect


def test_empty_cluster_stream(spark):
    df = spark.createDataFrame(
        pd.DataFrame(columns=["t", "cid", "oid"]).astype("int64"),
        schema="t long, cid long, oid long",
    )
    assert id_partitions(df, 2).count() == 0
