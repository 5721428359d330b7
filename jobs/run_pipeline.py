"""End-to-end real-time demo: Structured Streaming co-movement detection.

Generates a Brinkhoff-like stream, writes it as parquet files, and runs
the full ICPE pipeline as a Structured Streaming query (file source →
Catalyst discretization → foreachBatch with last-time ordering,
GR-index range-join clustering, and incremental VBA enumeration).

    spark-submit jobs/run_pipeline.py [--enum fba|vba] [--quick]
"""
import argparse
import os
import tempfile

from _common import get_spark


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--enum", choices=["fba", "vba"], default="vba")
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()

    from repro import trajgen
    from repro.experiments import make_dataset, params_for
    from repro.stream.pipeline import (StreamingDetector, run_structured_stream,
                                       write_stream_files)

    spark = get_spark("icpe-streaming-demo")
    spark.sparkContext.setLogLevel("ERROR")
    try:
        cfg, pdf = make_dataset(
            "brinkhoff", n_snapshots=20 if args.quick else 80
        )
        params = params_for(cfg)
        records = trajgen.to_records(pdf, t0=0.0, interval=5.0)
        with tempfile.TemporaryDirectory() as tmp:
            in_dir = os.path.join(tmp, "in")
            write_stream_files(records, in_dir, n_files=8)
            det = StreamingDetector(
                spark, params, enum_method=args.enum,
                expected_oids=records["oid"].unique(),
            )
            run_structured_stream(
                det, in_dir, checkpoint_dir=os.path.join(tmp, "ckpt"),
                t0=0.0, duration=5.0, max_files_per_trigger=2,
            )
        m = det.metrics
        print(f"snapshots processed : {len(m.snapshot_seconds)}")
        print(f"patterns detected   : {len(det.patterns)}")
        print(f"avg latency         : {m.avg_latency_ms:.1f} ms/snapshot "
              f"(cluster {m.avg_cluster_ms:.1f} + enum {m.avg_enum_ms:.1f})")
        print(f"avg detection delay : {m.avg_delay_snapshots:.1f} snapshots")
        for O, T in list(sorted(det.patterns.items(), key=lambda kv: -len(kv[0])))[:5]:
            print(f"  pattern {sorted(O)} over T={list(T)[:12]}"
                  f"{'...' if len(T) > 12 else ''}")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
