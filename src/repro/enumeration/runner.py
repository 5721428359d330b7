"""Distributed pattern-enumeration runner (the Flink keyed subtasks).

``enumerate_patterns`` hashes the id-based partitions by anchor into at
most ``spark.sql.shuffle.partitions`` buckets — Spark's analogue of
``keyBy(o.id)`` onto N subtasks, each holding many anchors — and runs
BA/FBA/VBA inside ``mapInPandas``: each bucket steps one
``EnumerationEngine`` over its anchors. Results come back as
JSON-encoded object/time lists (Arrow-friendly scalars) and are
decoded by ``collect_patterns``.
"""
from __future__ import annotations

import json

import pandas as pd
from pyspark.sql import DataFrame

from repro.enumeration.ba import BAExplodedError
from repro.enumeration.engine import METHODS, run_engine
from repro.params import CPParams

PATTERNS_SCHEMA = "anchor long, objs string, times string"


def enumerate_patterns(partitions: DataFrame, params: CPParams, *,
                       method: str = "fba") -> DataFrame:
    """Partitions ``(t, anchor, member)`` → patterns per subtask.

    Output rows: (anchor, objs, times) where ``objs`` is the JSON list
    of the full pattern (anchor included, sorted) and ``times`` the JSON
    witness time sequence. Each bucket's engine ends at its own last
    partition; the result does not depend on it (``run_engine``). A
    bucket in which BA explodes returns one row with ``anchor`` and
    ``objs`` null and the error message in ``times``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown enumeration method {method!r}; use {METHODS}")

    def fn(batches):
        sets: dict[int, dict[int, set[int]]] = {}
        for pdf in batches:
            for t, anchor, member in zip(pdf["t"].tolist(),
                                         pdf["anchor"].tolist(),
                                         pdf["member"].tolist()):
                sets.setdefault(anchor, {}).setdefault(t, set()).add(member)
        parts = {a: {t: frozenset(s) for t, s in by_t.items()}
                 for a, by_t in sets.items()}
        try:
            found = run_engine(parts, params, method).patterns
        except BAExplodedError as e:
            yield pd.DataFrame({"anchor": [None], "objs": [None],
                                "times": [str(e)]})
            return
        rows = [(min(O), json.dumps(sorted(O)), json.dumps(list(T)))
                for O, T in found.items()]
        yield pd.DataFrame(rows, columns=["anchor", "objs", "times"])

    return partitions.repartition("anchor").mapInPandas(
        fn, schema=PATTERNS_SCHEMA)


def collect_patterns(patterns: DataFrame) -> dict[frozenset[int], tuple[int, ...]]:
    """Decode the pattern DataFrame into {object set → witness T}.

    Raises ``BAExplodedError`` if a BA subtask reported an explosion.
    """
    out: dict[frozenset[int], tuple[int, ...]] = {}
    for r in patterns.collect():
        if r.objs is None:
            raise BAExplodedError(r.times)
        out[frozenset(json.loads(r.objs))] = tuple(json.loads(r.times))
    return out
