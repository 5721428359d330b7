"""T2 (paper Table 2): statistics of the dataset substitutes."""
from _common import run_table
from repro.tables import table_t2_datasets

if __name__ == "__main__":
    run_table(
        "t2_datasets",
        "T2 — Dataset substitutes (Table 2, ~50x reduced scale)",
        lambda quick=False: table_t2_datasets(),
        needs_spark=False,
    )
