"""End-to-end and per-layer benchmark of the ICPE reproduction.

Run from the root of the repository::

    python3 perfbench/run.py --workload taxi-rt --seed 1 --seconds 20 --trace 0

It generates GPS records from ``--seed``, replays them into the system
(``workloads.py``), checks every pass's patterns against the exhaustive
reference miner and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the ``end_to_end`` metrics of ``BENCHMARK.json``, measured untraced on a
fixed number of passes after a discarded warm pass (``--seconds`` sets
the length of the taxi-rt stream); ``--trace 1`` makes a warm, a traced
and an untraced pass and reports the ``per_layer`` metrics. The line
before it records the environment and the sample counts. Everything a
run writes stays under ``.bench_build/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER_MEMORY = "2g"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("taxi-rt", "dense-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def prepare_env() -> None:
    """Point the scratch files of Python, the JVM and Spark into WORK, fix
    the driver memory and put the sources on the path.

    Must run before the JVM starts: driver memory and JVM options are
    read at launch.
    """
    tmp = os.path.join(WORK, "tmp")
    local = os.path.join(WORK, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    src = os.path.join(ROOT, "src")
    os.environ.update(
        TMPDIR=tmp,
        SPARK_LOCAL_DIRS=local,
        PYSPARK_PYTHON=sys.executable,
        PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p),
        PYSPARK_SUBMIT_ARGS=(
            f"--driver-memory {DRIVER_MEMORY} "
            f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
            "pyspark-shell"),
    )
    sys.path[:0] = [src, ROOT]


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` if there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                head = f.read().strip()
        return head
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))
            and os.path.isfile(os.path.join(ROOT, "jobs", "_common.py"))
            and os.path.isfile(spec_path)):
        print(f"perfbench: {ROOT} lacks src/repro, jobs/_common.py or "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    prepare_env()
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "driver_memory": DRIVER_MEMORY,
            "git_sha": git_sha()}

    import harness
    import workloads

    inp = workloads.make_inputs(args.workload, args.seed, args.seconds)
    spark, setup = harness.set_up()
    try:
        if args.trace:
            runs, values = harness.traced(spark, inp, os.path.join(
                WORK, f"trace-{args.workload}-{args.seed}.json"))
        else:
            runs, values, info["latency"] = harness.measure(
                spark, inp, workloads.PASSES[args.workload])
            values["setup_s"] = statistics.median(setup)
            info["jvm_peak_rss_mb"] = harness.jvm_peak_rss_mb(spark)
        info.update(harness.environment(spark), setup_s_all=setup,
                    passes=len(runs))
    finally:
        harness.stop(spark)

    ref = workloads.reference(inp)  # outside every timed region
    mismatched = sum(r.patterns != ref for r in runs)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    info.update(patterns=len(ref), passes_mismatched=mismatched,
                failed_frac=failed / attempted,
                lag_end_s=[r.lag_end_s for r in runs])
    missing = {m["name"] for m in spec} - set(values)
    if missing:
        raise RuntimeError(f"no value for {sorted(missing)}")
    correct = mismatched == 0 and failed == 0
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
