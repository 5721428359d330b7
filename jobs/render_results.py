"""Render results/*.json into the measured-value tables of EXPERIMENTS.md.

Usage: python jobs/render_results.py  — prints markdown tables for every
results file present; paste/refresh into EXPERIMENTS.md after re-running
the table jobs.
"""
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import format_cell  # noqa: E402
from repro.tables import COLUMNS  # noqa: E402

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")


def main() -> None:
    for name, cols in COLUMNS.items():
        path = os.path.join(RESULTS, f"{name}.json")
        if not os.path.exists(path):
            continue
        rows = json.load(open(path))
        print(f"\n### {name}\n")
        print("| " + " | ".join(cols) + " |")
        print("|" + "---|" * len(cols))
        for r in rows:
            print("| " + " | ".join(format_cell(r, c) for c in cols) + " |")


if __name__ == "__main__":
    main()
