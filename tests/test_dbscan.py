"""DBSCAN correctness: the array kernel vs the union-find oracle, the
Spark stage and the in-process path vs the brute-force reference, plus
oracle checks for the SQL-expressible pieces (core points)."""
import re
import time
from collections import Counter

import numpy as np
import pandas as pd
import pytest

from repro import trajgen
from repro.cluster import cluster_local, cluster_stream
from repro.cluster.dbscan import cluster_snapshot, dbscan_arrays
from repro.core import icpe
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


# ------------------------------------------------ oracle and array kernel
#
# Every hand case runs through both implementations: the oracle
# ``cluster_snapshot`` (both orientations of every pair, all points) and
# the kernel ``dbscan_arrays`` (each pair once, no points side).

def _kernel_labels(t, a, b, min_pts):
    """``dbscan_arrays`` output as {t: {oid: cid}}."""
    out = {}
    for s, cid, oid in zip(*(x.tolist() for x in dbscan_arrays(t, a, b,
                                                               min_pts))):
        out.setdefault(s, {})[oid] = cid
    return out


def _dbscan(oids, pairs, min_pts):
    """One snapshot's labels; asserts the oracle and the kernel agree."""
    sym = pairs + [(b, a) for a, b in pairs]
    want = cluster_snapshot(oids, sym, min_pts)
    a, b = zip(*pairs) if pairs else ((), ())
    assert _kernel_labels([1] * len(pairs), a, b, min_pts).get(1, {}) == want
    return want


def test_cluster_snapshot_two_blobs():
    # Two triangles far apart; minPts=3 makes each a cluster.
    oids = [1, 2, 3, 11, 12, 13]
    pairs = [(1, 2), (2, 3), (1, 3), (11, 12), (12, 13), (11, 13)]
    got = _dbscan(oids, pairs, min_pts=3)
    assert got == {1: 1, 2: 1, 3: 1, 11: 11, 12: 11, 13: 11}


def test_cluster_snapshot_border_point():
    # 1-2-3 chain plus 4 hanging off 3: with minPts=3, only 2 and 3 are
    # core (2: {1,2,3}, 3: {2,3,4}); 1 and 4 are borders.
    oids = [1, 2, 3, 4]
    pairs = [(1, 2), (2, 3), (3, 4)]
    got = _dbscan(oids, pairs, min_pts=3)
    assert got == {1: 1, 2: 1, 3: 1, 4: 1}


def test_cluster_snapshot_noise_dropped():
    got = _dbscan([1, 2, 9], [(1, 2)], min_pts=3)
    assert got == {}  # nobody reaches minPts=3


def test_cluster_snapshot_minpts_counts_self():
    # Pair at distance <= eps: neighborhood size 2 each -> core at
    # minPts=2 (self counts), not at minPts=3.
    assert _dbscan([1, 2], [(1, 2)], 2) == {1: 1, 2: 1}
    assert _dbscan([1, 2], [], 2) == {}
    assert _dbscan([1, 2], [(1, 2)], 3) == {}


def test_cluster_snapshot_minpts_one_singletons():
    # The oracle makes every point its own core/cluster. The kernel sees
    # only pairs, so it never emits a point without a neighbor.
    got = cluster_snapshot([5, 6], [], min_pts=1)
    assert got == {5: 5, 6: 6}
    assert _kernel_labels([], [], [], 1) == {}
    assert _kernel_labels([1], [5], [7], 1) == {1: {5: 5, 7: 5}}


def test_border_tiebreak_smallest_core_neighbor():
    # Border 5 touches cores of two different clusters (2 and 11):
    # deterministic rule -> joins cluster of core 2.
    pairs = [(1, 2), (2, 3), (1, 3), (11, 12), (12, 13), (11, 13), (5, 2), (5, 11)]
    got = _dbscan([1, 2, 3, 5, 11, 12, 13], pairs, min_pts=3)
    assert got[5] == got[2] == 1


def test_core_whose_borders_all_join_other_clusters():
    # minPts=4: core 9's three neighbors are borders, and each has a
    # smaller core neighbor (1 or 5), so 9 is a cluster of one.
    pairs = ([(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8)]
             + [(9, 2), (9, 3), (9, 6)])
    got = _dbscan(list(range(1, 10)), pairs, min_pts=4)
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 5: 5, 6: 5, 7: 5, 8: 5, 9: 9}


def test_density_reachability_chain():
    # Paper Fig 2 at time 3 (structure): chain of cores connects one
    # big cluster with reachable ends.
    # o3..o7 pairwise-chained cores, o2/o8 reachable endpoints.
    pairs = [(3, 4), (4, 5), (5, 6), (6, 7), (3, 5), (4, 6), (5, 7),
             (2, 3), (7, 8)]
    got = _dbscan([2, 3, 4, 5, 6, 7, 8], pairs, min_pts=3)
    assert set(got) == {2, 3, 4, 5, 6, 7, 8}
    assert len(set(got.values())) == 1  # one cluster {o2..o8}


def _random_snapshots(rng, n_snapshots, base):
    """Snapshots of random points on a coarse lattice (coincident points,
    chains, border ties) or of random graphs, with oids from ``base``.
    Returns ({t: (oids, pairs)}, one-orientation arrays t, a, b)."""
    snaps, rows = {}, []
    for t in rng.choice(1000, n_snapshots, replace=False).tolist():
        n = int(rng.integers(0, 40))
        oids = (base + rng.choice(10 * n + 1, n, replace=False)).tolist()
        if rng.random() < 0.5:
            xy = rng.integers(0, 6, (n, 2))
            pairs = [(oids[i], oids[j]) for i in range(n)
                     for j in range(i + 1, n)
                     if np.abs(xy[i] - xy[j]).sum() <= 1]
        else:
            p = rng.uniform(0.02, 0.3)
            pairs = [(oids[i], oids[j]) for i in range(n)
                     for j in range(i + 1, n) if rng.random() < p]
        snaps[t] = (oids, pairs)
        rows += [(t, b, a) if rng.random() < 0.5 else (t, a, b)
                 for a, b in pairs]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    t, a, b = (np.array(c, dtype=np.int64).reshape(-1)
               for c in (zip(*rows) if rows else ((), (), ())))
    return snaps, t, a, b


@pytest.mark.parametrize("base", [0, 2**32 + 7, 2**62])
def test_kernel_matches_oracle_on_random_graphs(base):
    # Several snapshots per call, shuffled pair order and orientation.
    rng = np.random.default_rng(base % 1000 + 5)
    for _ in range(60):
        snaps, t, a, b = _random_snapshots(rng, int(rng.integers(1, 5)), base)
        for min_pts in range(2, 7):
            got = _kernel_labels(t, a, b, min_pts)
            want = {s: cluster_snapshot(oids, pairs + [(y, x) for x, y in
                                                       pairs], min_pts)
                    for s, (oids, pairs) in snaps.items()}
            assert got == {s: lab for s, lab in want.items() if lab}


def test_kernel_long_chain_descending_ids():
    # A path of 20,000 points whose ids fall along it: one component,
    # found by pointer jumping in a few rounds, not one per link.
    n = 20_000
    oids = np.arange(n, 0, -1, dtype=np.int64) + 2**40
    start = time.perf_counter()
    t, cid, oid = dbscan_arrays(np.zeros(n - 1, dtype=np.int64), oids[:-1],
                                oids[1:], 3)
    elapsed = time.perf_counter() - start
    assert sorted(oid.tolist()) == sorted(oids.tolist())
    assert set(cid.tolist()) == {2**40 + 1} and set(t.tolist()) == {0}
    assert elapsed < 2.0


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


def _without_singletons(clusters):
    out = {}
    for t, labels in clusters.items():
        sizes = Counter(labels.values())
        out[t] = {o: c for o, c in labels.items() if sizes[c] > 1}
    return out


@pytest.mark.parametrize("method", ["rjc", "srj", "gdc"])
def test_minpts_one_is_reference_without_singletons(spark, method):
    # At minPts = 1 every point is core, and classic DBSCAN makes each
    # point without a neighbor a cluster of one. Pairs alone cannot show
    # such a point, so both paths emit the reference minus those.
    pdf = trajgen.generate(TrajConfig(n_objects=90, n_snapshots=4, seed=13))
    params = CPParams(eps=6.0, lg=50.0, min_pts=1)
    ref = brute_clusters(pdf, params.eps, params.min_pts)
    want = _without_singletons(ref)
    assert want != ref  # the input has isolated points
    if method == "rjc":
        assert cluster_local(pdf, params) == want
    got = _clusters_as_sets(
        cluster_stream(trajgen.to_spark(spark, pdf), params, method).collect())
    assert got == _ref_as_sets(want)


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


def _executed_plan(df) -> str:
    """``df``'s executed physical plan (after AQE), one node a line."""
    plan = df._jdf.queryExecution().executedPlan()
    if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
        plan = plan.executedPlan()
    return plan.toString()


def _executed_nodes(df):
    """Operator names of ``df``'s executed physical plan (after AQE)."""
    return [re.match(r"[\s:+|-]*(?:\*\(\d+\) )?(\w+)", line).group(1)
            for line in _executed_plan(df).splitlines() if line.strip()]


def test_cluster_stream_runs_gridquery_once(spark):
    # DBSCAN takes GridQuery's one-orientation pairs as they are: the plan
    # is two Python nodes, GridQuery (one call per cell bucket) and
    # DBSCAN (one call per snapshot bucket), with no points side, no
    # GridSync and no cogroup.
    pdf = trajgen.generate(TrajConfig(n_objects=90, n_snapshots=4, seed=13))
    df = cluster_stream(trajgen.to_spark(spark, pdf),
                        CPParams(eps=10.0, lg=50.0, min_pts=4))
    df.collect()
    nodes = _executed_nodes(df)
    assert nodes.count("MapInPandas") == 2
    assert "FlatMapGroupsInPandas" not in nodes
    assert "FlatMapCoGroupsInPandas" not in nodes


def test_detect_dbscan_is_one_stage_keyed_by_t(spark, monkeypatch):
    # In detect's plan, DBSCAN is one MapInPandas (output t, cid, oid) fed
    # by a hash exchange on t alone, and nothing is cogrouped.
    seen, real = [], icpe.collect_patterns

    def collect_patterns(df):
        seen.append(df)
        return real(df)

    monkeypatch.setattr(icpe, "collect_patterns", collect_patterns)
    pdf = trajgen.generate(TrajConfig(n_objects=36, n_snapshots=8,
                                      n_groups=6, cohesion=2.5, seed=3))
    icpe.detect(trajgen.to_spark(spark, pdf),
                CPParams(m=3, k=4, l=2, g=2, eps=9.0, min_pts=3, lg=45.0))
    lines = _executed_plan(seen[0]).splitlines()
    assert not any("CoGroup" in line for line in lines)
    stages = [i for i, line in enumerate(lines)
              if re.search(r"MapInPandas .*\[t#\d+L, cid#\d+L, oid#\d+L\]",
                           line)]
    assert len(stages) == 1
    below = lines[stages[0] + 1:]
    exchange = next(line for line in below if "Exchange" in line)
    assert re.search(r"Exchange hashpartitioning\(t#\d+L, \d+\)", exchange)
    assert all(re.search(r"AQEShuffleRead|ShuffleQueryStage", line)
               for line in below[:below.index(exchange)])


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
