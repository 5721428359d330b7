"""Shared spark-submit plumbing for the table jobs.

Each ``jobs/table_*.py`` is runnable standalone::

    spark-submit jobs/table_t10_clustering_eps.py [--quick]

or plainly with ``python``. The jobs where the paper distributes
(T10, T11, T14) create a local SparkSession, configured like the test
fixture in conftest.py; T2, T12, T13 and T15 start no JVM. Importing this
module puts ``src`` on ``sys.path`` and on ``PYTHONPATH`` (which the
Spark session's Python workers inherit), so ``repro`` imports without
an install; the repository root stays on ``sys.path`` for
``jobs._common`` itself.
"""
from __future__ import annotations

import argparse
import os
import sys

from pyspark.sql import SparkSession

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, ROOT]
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def get_spark(app: str) -> SparkSession:
    """Local SparkSession for the table jobs and the pytest fixture.

    Broadcast joins are disabled so the shuffle/join algorithms under
    study actually exercise the shuffle path at this data size. The
    Python workers fork from ``repro.worker_daemon``, whose workers do
    not re-read their zip archives' directories before every task.
    """
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.shuffle.partitions",
                os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.python.daemon.module", "repro.worker_daemon")
        .getOrCreate()
    )


def cli() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--quick", action="store_true",
                   help="endpoints of each sweep only")
    return p.parse_args()


def run_table(name: str, title: str, sweep_fn, *,
              needs_spark: bool = True) -> list[dict]:
    """Standard job main: run the sweep, print the table, save JSON."""
    from repro import experiments as ex
    from repro.tables import COLUMNS

    args = cli()
    if needs_spark:
        spark = get_spark(name)
        spark.sparkContext.setLogLevel("ERROR")
        try:
            rows = sweep_fn(spark, quick=args.quick)
        finally:
            spark.stop()
    else:
        rows = sweep_fn(quick=args.quick)
    print(ex.format_table(title, rows, COLUMNS[name]))
    path = ex.save_results(name, rows)
    print(f"\nsaved {path}")
    return rows
