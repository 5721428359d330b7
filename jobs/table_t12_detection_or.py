"""T12 (paper Fig 12): pattern detection vs object ratio Or.

B (adapted SPARE baseline) vs F (FBA) vs V (VBA), plus the average
cluster size. Expected shape: B DNFs once clusters outgrow its 2^|P|
budget; F best detection delay; V best throughput; cluster size grows
with Or."""
from _common import run_table
from repro.tables import sweep_t12_detection_or

if __name__ == "__main__":
    run_table(
        "t12_detection_or",
        "T12 — Pattern detection vs object ratio Or (Fig 12)",
        sweep_t12_detection_or,
        needs_spark=False,
    )
