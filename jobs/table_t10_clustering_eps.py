"""T10 (paper Fig 10): clustering latency & throughput vs ϵ.

RJC (ours) vs SRJ [36] vs GDC [14] on all three dataset substitutes.
Expected shape: RJC best on both metrics; cost grows with ϵ; GDC far
behind (ϵ-sized cells → too many partitions)."""
from _common import run_table
from repro.tables import sweep_t10_clustering_eps

if __name__ == "__main__":
    run_table(
        "t10_clustering_eps",
        "T10 — Clustering performance vs distance threshold eps (Fig 10)",
        sweep_t10_clustering_eps,
    )
