"""T13 (paper Fig 13): pattern detection vs distance threshold ϵ.

F (FBA) vs V (VBA) plus average cluster size. Expected shape: both
degrade as ϵ grows (larger join ranges, larger clusters); F's
detection delay below V's; V's throughput above F's."""
from _common import run_table
from repro.tables import sweep_t13_detection_eps

if __name__ == "__main__":
    run_table(
        "t13_detection_eps",
        "T13 — Pattern detection vs distance threshold eps (Fig 13)",
        sweep_t13_detection_eps,
        needs_spark=False,
    )
