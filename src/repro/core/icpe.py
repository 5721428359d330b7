"""ICPE — the end-to-end framework of Fig 3 (batch-of-stream driver).

Chains the two phases over a finite stream of snapshots:
indexed clustering (RJC/SRJ/GDC + DBSCAN) → id-based partitioning →
pattern enumeration (BA/FBA/VBA, one subtask per anchor bucket). The
three phases are one lazy plan, collected once, and no other job runs:
the clusters frame feeds only the partitioning, so nothing is cached
and every clustering stage (GridAllocate, GridQuery, then DBSCAN over
GridQuery's pairs, one Python call per bucket of snapshots) runs once;
each enumeration subtask ends its stream as online (VBA by G+1 silent
snapshots), so no job measures the stream's end first. The
per-snapshot incremental path used for latency measurements and true
streaming lives in ``repro.stream.pipeline``; both paths share all
phase implementations.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.cluster import cluster_stream
from repro.enumeration.partition import id_partitions
from repro.enumeration.runner import collect_patterns, enumerate_patterns
from repro.params import CPParams


@dataclass(frozen=True)
class ICPEResult:
    """Patterns: object set → witness times."""

    patterns: dict[frozenset[int], tuple[int, ...]]


def detect(snapshots: DataFrame, params: CPParams, *,
           cluster_method: str = "rjc",
           enum_method: str = "fba") -> ICPEResult:
    """Run ICPE over a finite snapshot stream ``(t, oid, x, y)``.

    Raises ``BAExplodedError`` if BA's candidate budget is exceeded.
    """
    clusters = cluster_stream(snapshots, params, cluster_method)
    parts = id_partitions(clusters, params.m)
    pats = enumerate_patterns(parts, params, method=enum_method)
    return ICPEResult(patterns=collect_patterns(pats))
