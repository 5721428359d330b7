"""T15 (paper Fig 15): enumeration phase vs the M, K, L, G constraints.

FBA vs VBA on the Brinkhoff substitute, clustering omitted as in the
paper. Expected shape: cost falls as M, K, L grow (fewer candidates /
stronger pruning) and rises with G (more valid patterns); FBA's
detection delay below VBA's; VBA's throughput above FBA's."""
from _common import run_table
from repro.tables import sweep_t15_enumeration

if __name__ == "__main__":
    run_table(
        "t15_enumeration",
        "T15 — Pattern enumeration vs M, K, L, G (Fig 15)",
        sweep_t15_enumeration,
        needs_spark=False,
    )
