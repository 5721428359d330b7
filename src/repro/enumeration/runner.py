"""Distributed pattern-enumeration runner (the Flink keyed subtasks).

``enumerate_patterns`` groups the id-based partitions by anchor —
Spark's analogue of keying one subtask per trajectory id — and runs
BA/FBA/VBA inside ``applyInPandas``: FBA/VBA step one
``EnumerationEngine`` per anchor through the subtask's snapshots; BA,
which has no incremental form, runs ``ba_enumerate`` over them at once.
Results come back as JSON-encoded object/time lists (Arrow-friendly
scalars) and are decoded by ``collect_patterns``.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import DataFrame

from repro.enumeration.ba import ba_enumerate
from repro.enumeration.engine import run_engine
from repro.params import CPParams

PATTERNS_SCHEMA = "anchor long, objs string, times string"
METHODS = ("ba", "fba", "vba")


def _rows_to_partitions(pdf: pd.DataFrame) -> dict[int, frozenset[int]]:
    out: dict[int, set[int]] = {}
    for t, member in zip(pdf["t"], pdf["member"]):
        out.setdefault(int(t), set()).add(int(member))
    return {t: frozenset(s) for t, s in out.items()}


def enumerate_patterns(partitions: DataFrame, params: CPParams, *,
                       method: str = "fba", t_end: int | None = None,
                       ba_max_partition: int = 20,
                       num_partitions: int | None = None) -> DataFrame:
    """Partitions ``(t, anchor, member)`` → patterns per subtask.

    Output rows: (anchor, objs, times) where ``objs`` is the JSON list
    of the full pattern (anchor included, sorted) and ``times`` the JSON
    witness time sequence. ``num_partitions`` optionally throttles the
    stage's parallelism (the N-machines knob of Fig 14).
    """
    if method not in METHODS:
        raise ValueError(f"unknown enumeration method {method!r}; use {METHODS}")

    def fn(key, pdf):
        anchor = int(key[0])
        parts = _rows_to_partitions(pdf)
        if method == "ba":
            found = ba_enumerate(parts, params, max_partition=ba_max_partition)
        else:
            found = run_engine({anchor: parts}, params, method,
                               t_end=t_end).patterns
        # BA's keys exclude the anchor, the engine's include it.
        rows = [
            (anchor,
             json.dumps(sorted(O | {anchor})),
             json.dumps(list(T)))
            for O, T in found.items()
        ]
        return pd.DataFrame(rows, columns=["anchor", "objs", "times"])

    grouped = partitions
    if num_partitions is not None:
        grouped = partitions.repartition(num_partitions, "anchor")
    return grouped.groupBy("anchor").applyInPandas(fn, schema=PATTERNS_SCHEMA)


def collect_patterns(patterns: DataFrame) -> dict[frozenset[int], tuple[int, ...]]:
    """Decode the pattern DataFrame into {object set → witness T}."""
    out: dict[frozenset[int], tuple[int, ...]] = {}
    for r in patterns.collect():
        out[frozenset(json.loads(r.objs))] = tuple(json.loads(r.times))
    return out
