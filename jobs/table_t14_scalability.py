"""T14 (paper Fig 14): pattern detection vs number of workers N.

The 10-slave Flink cluster is emulated by capping every keyed stage at
N concurrent tasks on the local[*] master (DESIGN.md §3). Expected
shape: latency falls / throughput rises with N, saturating."""
from _common import run_table
from repro.tables import sweep_t14_scalability

if __name__ == "__main__":
    run_table(
        "t14_scalability",
        "T14 — Pattern detection vs worker count N (Fig 14)",
        sweep_t14_scalability,
    )
