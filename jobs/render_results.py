"""Render results/*.json into the measured-value tables of EXPERIMENTS.md.

Usage: python jobs/render_results.py  — prints markdown tables for every
results file present; paste/refresh into EXPERIMENTS.md after re-running
the table jobs.
"""
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import _fmt  # noqa: E402

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")

TABLES = {
    "t2_datasets": ["dataset", "n_trajectories", "n_locations",
                    "n_snapshots", "manhattan"],
    "t10_clustering_eps": ["dataset", "eps_pct", "method", "latency_ms",
                           "throughput_tps"],
    "t11_clustering_lg": ["dataset", "lg_pct", "method", "latency_ms",
                          "throughput_tps"],
    "t12_detection_or": ["dataset", "or_pct", "method", "latency_ms",
                         "throughput_tps", "delay_snap", "avg_cluster_size",
                         "n_patterns"],
    "t13_detection_eps": ["dataset", "eps_pct", "method", "latency_ms",
                          "throughput_tps", "delay_snap", "avg_cluster_size",
                          "n_patterns"],
    "t14_scalability": ["dataset", "n_workers", "method", "latency_ms",
                        "throughput_tps", "n_patterns"],
    "t15_enumeration": ["dataset", "axis", "value", "method", "latency_ms",
                        "throughput_tps", "delay_snap", "n_patterns"],
}


def main() -> None:
    for name, cols in TABLES.items():
        path = os.path.join(RESULTS, f"{name}.json")
        if not os.path.exists(path):
            continue
        rows = json.load(open(path))
        print(f"\n### {name}\n")
        print("| " + " | ".join(cols) + " |")
        print("|" + "---|" * len(cols))
        for r in rows:
            print("| " + " | ".join(_fmt(r.get(c)) for c in cols) + " |")


if __name__ == "__main__":
    main()
