"""DBSCAN correctness: Spark pipeline vs brute-force reference, plus
oracle checks for the SQL-expressible pieces (core points)."""
import re

import numpy as np
import pandas as pd
import pytest

from repro import trajgen
from repro.cluster import cluster_local, cluster_stream
from repro.cluster.dbscan import cluster_snapshot
from repro.core.reference import brute_clusters, brute_pairs
from repro.oracle import assert_equivalent
from repro.params import CPParams
from repro.trajgen import TrajConfig
from tests.test_rangejoin import _cloud, _points


def _clusters_as_sets(rows):
    """(t,cid,oid) rows → {t: {cid: frozenset(oids)}}."""
    out = {}
    for r in rows:
        out.setdefault(r.t, {}).setdefault(r.cid, set()).add(r.oid)
    return {t: {c: frozenset(m) for c, m in d.items()} for t, d in out.items()}


def _ref_as_sets(ref):
    out = {}
    for t, labels in ref.items():
        d = {}
        for oid, cid in labels.items():
            d.setdefault(cid, set()).add(oid)
        if d:
            out[t] = {c: frozenset(m) for c, m in d.items()}
    return out


# ------------------------------------------------------ pure-python core

def test_cluster_snapshot_two_blobs():
    # Two triangles far apart; minPts=3 makes each a cluster.
    oids = [1, 2, 3, 11, 12, 13]
    pairs = [(1, 2), (2, 3), (1, 3), (11, 12), (12, 13), (11, 13)]
    sym = pairs + [(b, a) for a, b in pairs]
    got = cluster_snapshot(oids, sym, min_pts=3)
    assert got == {1: 1, 2: 1, 3: 1, 11: 11, 12: 11, 13: 11}


def test_cluster_snapshot_border_point():
    # 1-2-3 chain plus 4 hanging off 3: with minPts=3, only 2 and 3 are
    # core (2: {1,2,3}, 3: {2,3,4}); 1 and 4 are borders.
    oids = [1, 2, 3, 4]
    pairs = [(1, 2), (2, 3), (3, 4)]
    sym = pairs + [(b, a) for a, b in pairs]
    got = cluster_snapshot(oids, sym, min_pts=3)
    assert got == {1: 1, 2: 1, 3: 1, 4: 1}


def test_cluster_snapshot_noise_dropped():
    got = cluster_snapshot([1, 2, 9], [(1, 2), (2, 1)], min_pts=3)
    assert got == {}  # nobody reaches minPts=3


def test_cluster_snapshot_minpts_counts_self():
    # Pair at distance <= eps: neighborhood size 2 each -> core at
    # minPts=2 (self counts), not at minPts=3.
    sym = [(1, 2), (2, 1)]
    assert cluster_snapshot([1, 2], sym, 2) == {1: 1, 2: 1}
    assert cluster_snapshot([1, 2], sym, 3) == {}


def test_cluster_snapshot_minpts_one_singletons():
    got = cluster_snapshot([5, 6], [], min_pts=1)
    assert got == {5: 5, 6: 6}  # every point is its own core/cluster


def test_border_tiebreak_smallest_core_neighbor():
    # Border 5 touches cores of two different clusters (2 and 11):
    # deterministic rule -> joins cluster of core 2.
    pairs = [(1, 2), (2, 3), (1, 3), (11, 12), (12, 13), (11, 13), (5, 2), (5, 11)]
    sym = pairs + [(b, a) for a, b in pairs]
    got = cluster_snapshot([1, 2, 3, 5, 11, 12, 13], sym, min_pts=3)
    assert got[5] == got[2] == 1


def test_density_reachability_chain():
    # Paper Fig 2 at time 3 (structure): chain of cores connects one
    # big cluster with reachable ends.
    # o3..o7 pairwise-chained cores, o2/o8 reachable endpoints.
    pairs = [(3, 4), (4, 5), (5, 6), (6, 7), (3, 5), (4, 6), (5, 7),
             (2, 3), (7, 8)]
    sym = pairs + [(b, a) for a, b in pairs]
    got = cluster_snapshot([2, 3, 4, 5, 6, 7, 8], sym, min_pts=3)
    assert set(got) == {2, 3, 4, 5, 6, 7, 8}
    assert len(set(got.values())) == 1  # one cluster {o2..o8}


# ------------------------------------------------------------ Spark stage

@pytest.mark.parametrize("method", ["rjc", "srj", "gdc"])
def test_cluster_stream_matches_reference(spark, method):
    cfg = TrajConfig(n_objects=90, n_snapshots=4, seed=13)
    pdf = trajgen.generate(cfg)
    params = CPParams(eps=10.0, lg=50.0, min_pts=4)
    got = _clusters_as_sets(
        cluster_stream(trajgen.to_spark(spark, pdf), params, method).collect()
    )
    ref = _ref_as_sets(brute_clusters(pdf, params.eps, params.min_pts))
    assert got == ref


def test_cluster_stream_dense_groups(spark):
    # Group-structured data: every tight group of >= minPts members must
    # come out as (part of) a cluster at every snapshot.
    cfg = TrajConfig(n_objects=60, n_snapshots=3, n_groups=6,
                     grouped_frac=1.0, churn=0.0, dropout=0.0,
                     cohesion=2.0, seed=19)
    pdf = trajgen.generate(cfg)
    params = CPParams(eps=9.0, lg=45.0, min_pts=5)
    got = cluster_stream(trajgen.to_spark(spark, pdf), params).collect()
    clustered = {(r.t, r.oid) for r in got}
    for t in (1, 2, 3):
        for oid in range(60):
            assert (t, oid) in clustered  # 10 co-located members >= minPts
    assert _clusters_as_sets(got) == _ref_as_sets(
        brute_clusters(pdf, params.eps, params.min_pts)
    )


def _executed_nodes(df):
    """Operator names of ``df``'s executed physical plan (after AQE)."""
    plan = df._jdf.queryExecution().executedPlan()
    if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
        plan = plan.executedPlan()
    return [re.match(r"[\s:+|-]*(?:\*\(\d+\) )?(\w+)", line).group(1)
            for line in plan.toString().splitlines() if line.strip()]


def test_cluster_stream_runs_gridquery_once(spark):
    # GridSync symmetrizes in one projection, so the GridQuery kernel is
    # one Python node of the plan (one call per cell bucket), not one per
    # orientation of the pairs.
    pdf = trajgen.generate(TrajConfig(n_objects=90, n_snapshots=4, seed=13))
    df = cluster_stream(trajgen.to_spark(spark, pdf),
                        CPParams(eps=10.0, lg=50.0, min_pts=4))
    df.collect()
    nodes = _executed_nodes(df)
    assert nodes.count("MapInPandas") == 1
    assert "FlatMapGroupsInPandas" not in nodes
    assert nodes.count("FlatMapCoGroupsInPandas") == 1  # DBSCAN


def test_core_points_match_oracle(spark):
    # Core points are SQL-expressible: neighborhood counts (self incl.)
    # >= minPts. Checked via DuckDB over the same snapshot.
    g = np.random.default_rng(29)
    pdf = pd.DataFrame({
        "oid": np.arange(80, dtype=np.int64),
        "t": np.ones(80, dtype=np.int64),
        "x": g.uniform(0, 60, 80),
        "y": g.uniform(0, 60, 80),
    })
    eps, min_pts = 8.0, 4
    sdf = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    from repro.cluster import neighbor_stream
    from pyspark.sql import functions as F
    sym = neighbor_stream(sdf, CPParams(eps=eps, lg=30.0, min_pts=min_pts))
    core = (
        sym.groupBy("a").agg((F.count("b") + 1).alias("n"))
        .where(F.col("n") >= min_pts)
        .select(F.col("a").alias("oid"), "n")
    )
    assert_equivalent(
        core,
        f"""
        SELECT p.oid AS oid, count(*) AS n
        FROM pts p JOIN pts q
          ON abs(p.x - q.x) + abs(p.y - q.y) <= {eps}
        GROUP BY p.oid HAVING count(*) >= {min_pts}
        """,
        pts=pdf,
    )


# ------------------------------------------------------ in-process path
#
# cluster_local runs the RJC window kernel over the whole input as one
# cell, then cluster_snapshot per snapshot. Its labels must equal the
# brute-force reference exactly and the Spark stage's collected rows
# (which omit all-noise snapshots). Point sets are the per-cell kernel
# edge cases of tests/test_rangejoin.py.

def _check_local(spark, pdf, params):
    got = cluster_local(pdf, params)
    assert got == brute_clusters(pdf, params.eps, params.min_pts)
    sdf = spark.createDataFrame(pdf[["t", "oid", "x", "y"]],
                                schema="t long, oid long, x double, y double")
    dist = {}
    for r in cluster_stream(sdf, params).collect():
        dist.setdefault(r.t, {})[r.oid] = r.cid
    assert {t: labels for t, labels in got.items() if labels} == dist
    return got


def test_cluster_local_pair_at_exactly_eps(spark):
    # (1,1)-(3,3) and (9,5)-(11,7) are exactly ϵ = 4 apart, the second
    # across the x = 10 cell border; (9,5)-(11.5,7) is 4.5.
    pdf = _points([(1.0, 1.0), (3.0, 3.0), (9.0, 5.0), (11.0, 7.0),
                   (11.5, 7.0)])
    got = _check_local(spark, pdf, CPParams(eps=4.0, lg=10.0, min_pts=2))
    assert got == {1: {0: 0, 1: 0, 2: 2, 3: 2, 4: 2}}


def test_cluster_local_coincident_points(spark):
    k = 6
    pdf = _points([(2.5, 2.5)] * k + [(10.0, 10.0)] * k)
    got = _check_local(spark, pdf, CPParams(eps=1.0, lg=10.0, min_pts=k))
    assert sorted(got[1].values()) == [0] * k + [k] * k


@pytest.mark.parametrize("eps", [5.0, 7.5])   # ϵ = lg, ϵ > lg
def test_cluster_local_lattice_eps_at_least_lg(spark, eps):
    pdf = _cloud(n=150, n_t=2, extent=20.0, seed=int(eps * 10))
    pdf["x"] = (pdf["x"] * 2).round() / 2
    pdf["y"] = (pdf["y"] * 2).round() / 2
    got = _check_local(spark, pdf, CPParams(eps=eps, lg=5.0, min_pts=4))
    assert all(got[t] for t in (1, 2))


def test_cluster_local_empty_release(spark):
    pdf = _points([(0.0, 0.0)]).iloc[:0]
    assert _check_local(spark, pdf, CPParams(eps=4.0, lg=10.0,
                                             min_pts=2)) == {}


def test_cluster_local_all_noise(spark):
    # Pairs exist, but no point reaches minPts: every snapshot is noise.
    pdf = pd.concat([_points([(0.0, 0.0), (1.0, 0.0), (50.0, 50.0)], t=t)
                     for t in (3, 4)], ignore_index=True)
    got = _check_local(spark, pdf, CPParams(eps=2.0, lg=10.0, min_pts=3))
    assert got == {3: {}, 4: {}}


def test_cluster_local_trajectories(spark):
    pdf = trajgen.generate(TrajConfig(n_objects=90, n_snapshots=4, seed=13))
    got = _check_local(spark, pdf, CPParams(eps=10.0, lg=50.0, min_pts=4))
    assert any(got.values())
