"""End-to-end ICPE (Fig 3): generated trajectory streams → patterns,
checked against the exhaustive reference over brute-force clustering."""
import pandas as pd
import pytest

from repro import trajgen
from repro.core import icpe
from repro.core.icpe import detect
from repro.core.reference import brute_clusters, reference_patterns
from repro.enumeration.ba import BAExplodedError
from repro.enumeration.engine import run_engine
from repro.enumeration.partition import id_partitions_py
from repro.enumeration.runner import collect_patterns, enumerate_patterns
from repro.experiments import run_detection
from repro.params import CPParams
from repro.stream.pipeline import StreamingDetector, feed_batches
from repro.trajgen import TrajConfig

PARAMS = CPParams(m=3, k=4, l=2, g=2, eps=9.0, min_pts=3, lg=45.0)


def _small_stream(seed=0):
    cfg = TrajConfig(n_objects=36, n_snapshots=12, n_groups=6,
                     grouped_frac=0.8, churn=0.08, away_len=2,
                     dropout=0.05, cohesion=2.5, seed=seed)
    return trajgen.generate(cfg)


def _reference(pdf, params):
    clusters = brute_clusters(pdf, params.eps, params.min_pts)
    return reference_patterns(clusters, params)


@pytest.mark.parametrize("enum_method", ["ba", "fba", "vba"])
def test_detect_matches_reference(spark, enum_method):
    pdf = _small_stream(seed=3)
    res = detect(trajgen.to_spark(spark, pdf), PARAMS,
                 enum_method=enum_method)
    ref = _reference(pdf, PARAMS)
    assert set(res.patterns) == set(ref)
    if enum_method != "ba":
        # The per-anchor Spark subtasks find exactly what one in-process
        # engine finds over the same partitions, witnesses included.
        parts = id_partitions_py(
            brute_clusters(pdf, PARAMS.eps, PARAMS.min_pts), PARAMS.m)
        engine = run_engine(parts, PARAMS, enum_method,
                            t_end=int(pdf["t"].max()))
        assert res.patterns == engine.patterns


@pytest.mark.parametrize("enum_method", ["fba", "vba"])
def test_minpts_one_matches_reference(spark, enum_method):
    # At minPts = 1 clustering omits the 1-member clusters of points
    # without a neighbor (repro.cluster.dbscan); Lemma 3 drops them for
    # every M ≥ 2, so batch and streaming detection still equal the
    # reference miner over classic DBSCAN, witnesses included.
    params = PARAMS.with_(m=2, min_pts=1, eps=6.0)
    pdf = _small_stream(seed=3)
    ref = _reference(pdf, params)
    assert ref
    res = detect(trajgen.to_spark(spark, pdf), params,
                 enum_method=enum_method)
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(None, params, enum_method=enum_method,
                            expected_oids=recs["oid"].unique())
    feed_batches(det, recs, n_batches=4)
    assert set(res.patterns) == set(det.patterns) == set(ref)
    engine = run_engine(
        id_partitions_py(brute_clusters(pdf, params.eps, params.min_pts),
                         params.m), params, enum_method)
    assert res.patterns == engine.patterns


@pytest.mark.parametrize("cluster_method", ["rjc", "srj", "gdc"])
def test_detect_cluster_methods_agree(spark, cluster_method):
    pdf = _small_stream(seed=5)
    res = detect(trajgen.to_spark(spark, pdf), PARAMS,
                 cluster_method=cluster_method, enum_method="fba")
    assert set(res.patterns) == set(_reference(pdf, PARAMS))


def test_detect_finds_planted_group(spark):
    # A fully cohesive churn-free group must qualify for the whole stream.
    cfg = TrajConfig(n_objects=20, n_snapshots=10, n_groups=2,
                     grouped_frac=1.0, churn=0.0, dropout=0.0,
                     cohesion=2.0, seed=11)
    pdf = trajgen.generate(cfg)
    params = CPParams(m=5, k=10, l=10, g=1, eps=9.0, min_pts=5, lg=45.0)
    res = detect(trajgen.to_spark(spark, pdf), params, enum_method="fba")
    group0 = frozenset(range(0, 20, 2))   # oids with oid % 2 == 0
    group1 = frozenset(range(1, 20, 2))
    assert group0 in res.patterns and group1 in res.patterns
    assert res.patterns[group0] == tuple(range(1, 11))


def test_detect_empty_when_no_density(spark):
    # Spread-out noise, minPts high: no clusters, no patterns.
    cfg = TrajConfig(n_objects=15, n_snapshots=6, n_groups=0,
                     grouped_frac=0.0, dropout=0.0, seed=13)
    pdf = trajgen.generate(cfg)
    params = CPParams(m=3, k=4, l=2, g=2, eps=0.5, min_pts=5, lg=10.0)
    res = detect(trajgen.to_spark(spark, pdf), params)
    assert res.patterns == {}


def test_detect_caches_nothing(spark, monkeypatch):
    # The clusters frame feeds only the partitioning, so detect runs it as
    # part of one plan instead of caching it (a cache keeps AQE from
    # coalescing the clustering stage's tasks).
    cache = spark._jsparkSession.sharedState().cacheManager()
    assert cache.isEmpty()
    seen, real = [], icpe.id_partitions

    def id_partitions(clusters, m):
        seen.append(cache.isEmpty())
        return real(clusters, m)

    monkeypatch.setattr(icpe, "id_partitions", id_partitions)
    res = detect(trajgen.to_spark(spark, _small_stream(seed=3)), PARAMS)
    assert res.patterns
    assert seen == [True]
    assert cache.isEmpty()
    assert spark.sparkContext._jsc.getPersistentRDDs().isEmpty()


def test_detect_collects_once(spark, monkeypatch):
    # The patterns are the only rows detect brings back: no side job
    # measures the stream (its end or its length) first. The session's
    # frames are of pyspark's classic subclass, which has its own collect.
    frame_cls = type(spark.range(1))
    calls, real = [], frame_cls.collect

    def collect(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(frame_cls, "collect", collect)
    res = detect(trajgen.to_spark(spark, _small_stream(seed=3)), PARAMS,
                 enum_method="vba")
    assert res.patterns
    assert len(calls) == 1


def _detect_with_conf(spark, sdf, enum_method, conf):
    old = {k: spark.conf.get(k) for k in conf}
    for k, v in conf.items():
        spark.conf.set(k, v)
    try:
        return detect(sdf, PARAMS, enum_method=enum_method)
    finally:
        for k, v in old.items():
            spark.conf.set(k, v)


@pytest.mark.parametrize("enum_method", ["ba", "fba", "vba"])
def test_runner_bucket_count_invariant(spark, enum_method):
    # spark.sql.shuffle.partitions (the Fig 14 N) bounds how many anchor
    # buckets, i.e. enumeration subtasks, there are; 1 puts every anchor
    # into one engine. Results must not depend on it.
    shuffle = "spark.sql.shuffle.partitions"
    # AQE would coalesce any bucket count into one at this size.
    coalesce = "spark.sql.adaptive.coalescePartitions.enabled"
    before = {k: spark.conf.get(k) for k in (shuffle, coalesce)}
    sdf = trajgen.to_spark(spark, _small_stream(seed=7))
    spread = _detect_with_conf(spark, sdf, enum_method,
                               {shuffle: "8", coalesce: "false"})
    single = _detect_with_conf(spark, sdf, enum_method, {shuffle: "1"})
    assert spread.patterns
    assert single.patterns == spread.patterns
    assert {k: spark.conf.get(k) for k in before} == before


def test_detect_ba_explosion_raises_typed_error(spark):
    # Two fully cohesive groups of 20: |P_t(o)| reaches 19 > MAX_PARTITION.
    cfg = TrajConfig(n_objects=40, n_snapshots=6, n_groups=2,
                     grouped_frac=1.0, churn=0, dropout=0, cohesion=2.0,
                     seed=11)
    pdf = trajgen.generate(cfg)
    with pytest.raises(BAExplodedError):
        detect(trajgen.to_spark(spark, pdf), PARAMS, enum_method="ba")
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(None, PARAMS, enum_method="ba",
                            expected_oids=recs["oid"].unique())
    with pytest.raises(BAExplodedError):
        feed_batches(det, recs, n_batches=2)
    r = run_detection(pdf, PARAMS, "ba")
    assert r["dnf"] and r["n_patterns"] == 0


def test_runner_rejects_unknown_method(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"t": [1], "anchor": [1], "member": [2]}),
        schema="t long, anchor long, member long",
    )
    with pytest.raises(ValueError):
        enumerate_patterns(df, PARAMS, method="nope")


def test_collect_patterns_roundtrip(spark):
    df = spark.createDataFrame(
        pd.DataFrame({"t": [1, 2, 3, 4], "anchor": [1] * 4, "member": [2] * 4}),
        schema="t long, anchor long, member long",
    )
    params = CPParams(m=2, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)
    got = collect_patterns(enumerate_patterns(df, params, method="fba"))
    assert got == {frozenset({1, 2}): (1, 2, 3, 4)}
