"""Streaming pipeline ≡ batch ICPE, including out-of-order delivery and
the real Structured Streaming query (file source + foreachBatch)."""
import pandas as pd
import pytest

from repro import trajgen
from repro.core.icpe import detect
from repro.core.reference import brute_clusters, reference_patterns
from repro.params import CPParams
from repro.stream.pipeline import (StreamingDetector, feed_batches,
                                   run_structured_stream, write_stream_files)
from repro.trajgen import TrajConfig

PARAMS = CPParams(m=3, k=4, l=2, g=2, eps=9.0, min_pts=3, lg=45.0)


def _stream(seed=0, n_objects=30, n_snapshots=12):
    cfg = TrajConfig(n_objects=n_objects, n_snapshots=n_snapshots,
                     n_groups=5, grouped_frac=0.8, churn=0.08, away_len=2,
                     dropout=0.05, cohesion=2.5, seed=seed)
    return trajgen.generate(cfg)


def _reference(pdf, params=PARAMS):
    return reference_patterns(
        brute_clusters(pdf, params.eps, params.min_pts), params
    )


@pytest.mark.parametrize("enum_method", ["fba", "vba"])
def test_streaming_matches_batch(spark, enum_method):
    pdf = _stream(seed=1)
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(spark, PARAMS, enum_method=enum_method,
                            expected_oids=recs["oid"].unique())
    feed_batches(det, recs, n_batches=5)
    batch = detect(trajgen.to_spark(spark, pdf), PARAMS,
                   enum_method=enum_method)
    assert set(det.patterns) == set(batch.patterns)
    assert set(det.patterns) == set(_reference(pdf))


@pytest.mark.parametrize("enum_method", ["fba", "vba"])
def test_streaming_runs_without_spark(enum_method):
    # Micro-batches are clustered in-process: with no Spark session at
    # all the detector still yields the reference patterns.
    pdf = _stream(seed=1)
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(None, PARAMS, enum_method=enum_method,
                            expected_oids=recs["oid"].unique())
    feed_batches(det, recs, n_batches=5)
    assert det.patterns
    assert set(det.patterns) == set(_reference(pdf))


@pytest.mark.parametrize("shuffle_seed", [7, 42])
def test_streaming_out_of_order_delivery(spark, shuffle_seed):
    pdf = _stream(seed=2)
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(spark, PARAMS, enum_method="fba",
                            expected_oids=recs["oid"].unique())
    feed_batches(det, recs, n_batches=6, shuffle_seed=shuffle_seed)
    assert set(det.patterns) == set(_reference(pdf))


def test_streaming_metrics_populated(spark):
    pdf = _stream(seed=3)
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(spark, PARAMS, enum_method="fba",
                            expected_oids=recs["oid"].unique())
    feed_batches(det, recs, n_batches=4)
    assert len(det.metrics.snapshot_seconds) == pdf["t"].nunique()
    if det.patterns:
        assert len(det.metrics.detection_delays) == len(det.patterns)
        assert all(d >= 0 for d in det.metrics.detection_delays)
        assert det.metrics.avg_latency_ms > 0


def test_vba_delay_exceeds_fba_delay(spark):
    # The paper's trade-off: VBA reports at episode close, FBA at window
    # close — VBA's detection delay must not be smaller on the same data.
    pdf = _stream(seed=4, n_objects=40, n_snapshots=16)
    recs = trajgen.with_last_time(pdf)
    delays = {}
    for method in ("fba", "vba"):
        det = StreamingDetector(spark, PARAMS, enum_method=method,
                                expected_oids=recs["oid"].unique())
        feed_batches(det, recs, n_batches=4)
        if not det.patterns:
            pytest.skip("stream produced no patterns for this seed")
        delays[method] = det.metrics.avg_delay_snapshots
    assert delays["vba"] >= delays["fba"]


def test_structured_streaming_query(spark, tmp_path):
    pdf = _stream(seed=5, n_objects=24, n_snapshots=8)
    recs = trajgen.to_records(pdf, t0=0.0, interval=5.0)
    in_dir, ckpt = str(tmp_path / "in"), str(tmp_path / "ckpt")
    paths = write_stream_files(recs, in_dir, n_files=4)
    assert len(paths) == 4
    det = StreamingDetector(spark, PARAMS, enum_method="vba",
                            expected_oids=recs["oid"].unique())
    run_structured_stream(det, in_dir, checkpoint_dir=ckpt,
                          t0=0.0, duration=5.0, max_files_per_trigger=2)
    assert set(det.patterns) == set(_reference(pdf))


@pytest.mark.parametrize("shuffle_seed", [7, 42])
def test_streaming_ba_out_of_order_matches_reference(shuffle_seed):
    # BA runs in the engine's η-windows like FBA, so it streams too.
    pdf = _stream(seed=2)
    recs = trajgen.with_last_time(pdf)
    det = StreamingDetector(None, PARAMS, enum_method="ba",
                            expected_oids=recs["oid"].unique())
    feed_batches(det, recs, n_batches=6, shuffle_seed=shuffle_seed)
    assert det.patterns
    assert set(det.patterns) == set(_reference(pdf))
    assert len(det.metrics.detection_delays) == len(det.patterns)
