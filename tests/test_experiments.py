"""Tests for the experiment harness (metrics, sweeps, reporting)."""
import math
from types import SimpleNamespace

import pytest

from repro import experiments as ex
from repro import tables
from repro.cluster import cluster_local


def test_avg_cluster_size():
    clusters = {1: {1: 1, 2: 1, 3: 1, 7: 7, 8: 7}, 2: {1: 1, 2: 1}}
    assert ex.avg_cluster_size(clusters) == pytest.approx((3 + 2 + 2) / 3)
    assert ex.avg_cluster_size({1: {}}) == 0.0


def test_make_dataset_or_ratio_scales():
    cfg_full, pdf_full = ex.make_dataset("taxi")
    cfg_half, pdf_half = ex.make_dataset("taxi", or_ratio=0.5)
    assert cfg_half.n_objects == cfg_full.n_objects // 2
    assert pdf_half["oid"].nunique() < pdf_full["oid"].nunique()


def test_params_for_percentages():
    cfg, _ = ex.make_dataset("geolife")  # extent 1000 -> L1 extent 2000
    p = ex.params_for(cfg, eps_pct=0.06, lg_pct=1.6)
    assert p.eps == pytest.approx(1.2)
    assert p.lg == pytest.approx(32.0)
    assert ex.params_for(cfg, m=7).m == 7


def test_run_enumeration_metrics_and_shape():
    cfg, pdf = ex.make_dataset("geolife", n_snapshots=30)
    params = ex.params_for(cfg)
    clusters = cluster_local(pdf, params)
    f = ex.run_enumeration(clusters, params, "fba")
    v = ex.run_enumeration(clusters, params, "vba")
    assert not f["dnf"] and not v["dnf"]
    assert f["n_patterns"] == v["n_patterns"]       # same pattern set size
    assert f["latency_ms"] > 0 and v["throughput_tps"] > 0
    if f["n_patterns"]:
        # The paper's trade-off: FBA reports sooner, VBA processes faster.
        assert f["delay_snap"] <= v["delay_snap"]


def test_run_enumeration_ba_dnf():
    cfg, pdf = ex.make_dataset("taxi")
    params = ex.params_for(cfg)
    r = ex.run_enumeration(cluster_local(pdf, params), params, "ba")
    assert r["dnf"] and math.isnan(r["latency_ms"])


def test_format_table_renders_dnf():
    rows = [{"m": "ba", "latency_ms": float("nan")},
            {"m": "fba", "latency_ms": 3.25},
            {"m": "vba", "latency_ms": 2.5, "latency_ms_min": 2.0,
             "latency_ms_max": 4.125}]
    out = ex.format_table("T", rows, ["m", "latency_ms"])
    assert "DNF" in out and "3.25" in out and out.startswith("T")
    assert "2.50 [2.00–4.12]" in out


def test_save_results_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(ex, "RESULTS_DIR", str(tmp_path))
    path = ex.save_results("unit", [{"a": 1}])
    import json
    assert json.load(open(path)) == [{"a": 1}]


def test_table2_rows():
    rows = tables.table_t2_datasets()
    assert [r["dataset"] for r in rows] == ["geolife", "taxi", "brinkhoff"]
    taxi = rows[1]
    assert taxi["n_trajectories"] == 320
    assert taxi["n_locations"] > taxi["n_trajectories"]


def test_sweep_t15_quick_shapes(monkeypatch):
    calls = []

    def counting(pdf, params):
        calls.append(params)
        return cluster_local(pdf, params)

    monkeypatch.setattr(tables, "cluster_local", counting)
    rows = tables.sweep_t15_enumeration(quick=True)
    # ϵ and minPts are the same in every cell: the data is clustered once.
    assert len(calls) == 1
    # 4 axes x 2 endpoint values x 2 methods.
    assert len(rows) == 16
    axes = {r["axis"] for r in rows}
    assert axes == {"M", "K", "L", "G"}
    for r in rows:
        assert r["method"] in ("fba", "vba") and not r["dnf"]


def test_detection_run_smoke(monkeypatch):
    # T12/T13 start no JVM: detection streams through the in-process
    # detector and never warms a Spark session.
    def no_spark(spark):
        raise AssertionError("run_detection warmed Spark")

    monkeypatch.setattr(ex, "warm_up", no_spark)
    cfg, pdf = ex.make_dataset("geolife", n_snapshots=24)
    params = ex.params_for(cfg)
    r = ex.run_detection(pdf, params, "vba")
    assert r["throughput_tps"] > 0
    assert r["cluster_ms"] > 0 and r["enum_ms"] > 0
    assert ex.avg_cluster_size(cluster_local(pdf, params)) > 0
    assert not r["dnf"]


def test_every_run_row_has_median_within_range(spark):
    cfg, pdf = ex.make_dataset("geolife", n_snapshots=8)
    params = ex.params_for(cfg)
    rows = [
        ex.run_clustering(spark, pdf, params, "rjc"),
        ex.run_detection(pdf, params, "fba"),
        ex.run_detection_batch(spark, pdf, params, "vba",
                               shuffle_partitions=2),
        ex.run_enumeration(cluster_local(pdf, params), params, "fba"),
    ]
    for r in rows:
        lo, mid, hi = (r[k] for k in
                       ("latency_ms_min", "latency_ms", "latency_ms_max"))
        assert 0 < lo <= mid <= hi
        assert r["throughput_tps"] == pytest.approx(
            1000.0 / r["latency_ms"])


def test_detection_batch_throttle_smoke(spark):
    cfg, pdf = ex.make_dataset("geolife", n_snapshots=24)
    params = ex.params_for(cfg)
    r2 = ex.run_detection_batch(spark, pdf, params, "fba",
                                shuffle_partitions=2)
    assert r2["throughput_tps"] > 0
    # conf restored after the run
    assert spark.conf.get("spark.sql.shuffle.partitions") != "2"


def test_detection_batch_throttle_sets_and_restores_confs(spark,
                                                          monkeypatch):
    # N must set the keyed-stage task count, so AQE may not coalesce the
    # N shuffle partitions during the run; both confs come back after.
    keys = ("spark.sql.shuffle.partitions",
            "spark.sql.adaptive.coalescePartitions.enabled")
    before = {k: spark.conf.get(k) for k in keys}
    seen = []

    def fake_detect(sdf, params, enum_method):
        seen.append({k: spark.conf.get(k) for k in keys})
        return SimpleNamespace(patterns={})

    monkeypatch.setattr(ex, "warm_up", lambda spark: None)
    monkeypatch.setattr(ex, "detect", fake_detect)
    cfg, pdf = ex.make_dataset("geolife", n_snapshots=4)
    ex.run_detection_batch(spark, pdf, ex.params_for(cfg), "fba",
                           shuffle_partitions=3)
    assert seen == [{keys[0]: "3", keys[1]: "false"}] * ex.RUNS
    assert {k: spark.conf.get(k) for k in keys} == before
