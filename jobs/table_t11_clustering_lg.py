"""T11 (paper Fig 11): clustering latency & throughput vs grid width lg.

Expected shape: RJC/SRJ best at mid lg (tiny cells → partition
overhead; huge cells → less pruning/parallelism), GDC flat (it has no
lg)."""
from _common import run_table
from repro.tables import sweep_t11_clustering_lg

if __name__ == "__main__":
    run_table(
        "t11_clustering_lg",
        "T11 — Clustering performance vs grid cell width lg (Fig 11)",
        sweep_t11_clustering_lg,
    )
