"""GR-index based DBSCAN (Sec 5.3): clusters from the range join's pairs.

Core points and density-reachable points fall straight out of the
range-join result: a point is core iff its ϵ-neighborhood (itself
included, classic DBSCAN) has ≥ minPts members; clusters are the
connected components of core–core neighbor edges plus their border
points. Per the paper, each snapshot is clustered independently; the
parallelism is across snapshots. ``dbscan`` hashes the pairs by t into
buckets, and one Python call per bucket runs ``dbscan_arrays``, a numpy
kernel over all of the bucket's snapshots at once.

The input is the pairs alone, each unordered pair once (GridQuery's
output, or SRJ's/GDC's deduped pairs): no points side and no GridSync.
So a point without any neighbor is never seen. At minPts ≥ 2 such a
point is noise, and the clusters are exactly classic DBSCAN's. At
minPts = 1 it would be a 1-member cluster, which is not emitted: there
every clustered point has a neighbor in its cluster, so no cluster has
fewer than 2 members. Lemma 3 drops every cluster smaller than M ≥ 2,
so no pattern depends on the difference.

Determinism (DESIGN.md): a border point reachable from several
clusters joins the cluster of its smallest-id core neighbor; the
cluster id is the minimum member id.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.cluster.rangejoin import per_bucket

CLUSTERS_SCHEMA = "t long, cid long, oid long"


def cluster_snapshot(oids: list[int], sym_pairs: list[tuple[int, int]],
                     min_pts: int) -> dict[int, int]:
    """DBSCAN for one snapshot → {oid: cid}; noise omitted.

    ``sym_pairs`` must contain both orientations of every neighbor pair.
    A plain union-find over every point of the snapshot, so at
    minPts = 1 an isolated point is its own cluster. It is the test
    oracle's clustering (``reference.brute_clusters``), against which
    ``dbscan_arrays`` is checked.
    """
    neigh: dict[int, list[int]] = {o: [] for o in oids}
    for a, b in sym_pairs:
        neigh[a].append(b)
    core = {o for o in oids if len(neigh[o]) + 1 >= min_pts}

    parent: dict[int, int] = {o: o for o in core}

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a in core:
        for b in neigh[a]:
            if b in core:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    label: dict[int, int] = {o: find(o) for o in core}
    for o in oids:
        if o in core:
            continue
        core_neigh = [b for b in neigh[o] if b in core]
        if core_neigh:  # border point → smallest-id core neighbor's cluster
            label[o] = find(min(core_neigh))
    # Canonical cid = min member id of the cluster.
    by_root: dict[int, int] = {}
    for o, r in label.items():
        by_root[r] = min(by_root.get(r, o), o)
    return {o: by_root[r] for o, r in label.items()}


def _components(n: int, ea: np.ndarray, eb: np.ndarray) -> np.ndarray:
    """Connected components of nodes ``0..n-1`` under edges ``(ea, eb)``:
    each node's label is the smallest node of its component.

    Min-label propagation: every root hooks onto the smallest root it
    shares an edge with (``np.minimum.at``), pointer jumping flattens
    the trees to stars, and the edges are relabelled to their roots,
    dropping the ones inside a component, until none is left.
    """
    lab = np.arange(n)
    while len(ea):
        np.minimum.at(lab, ea, eb)
        np.minimum.at(lab, eb, ea)
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up
        ea, eb = lab[ea], lab[eb]
        keep = ea != eb
        ea, eb = ea[keep], eb[keep]
    return lab


def dbscan_arrays(t: np.ndarray, a: np.ndarray, b: np.ndarray,
                  min_pts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DBSCAN of every snapshot in ``(t, a, b)`` → ``(t, cid, oid)``.

    The input holds each unordered neighbor pair ``{a, b}`` of snapshot
    ``t`` once, in either orientation and any order. The output holds
    every clustered point once, in ``(t, oid)`` order. Noise is omitted,
    and so is every point without a neighbor: at minPts = 1 the output
    is classic DBSCAN's without its 1-member clusters (module
    docstring).

    A node is a ``(t, oid)``; nodes are numbered in ``(t, oid)`` order
    by one ``lexsort``, so within a snapshot the smaller node is the
    smaller oid, and snapshots never share an edge.
    """
    t, a, b = (np.asarray(v, dtype=np.int64) for v in (t, a, b))
    m = len(t)
    ends_t, ends_oid = np.r_[t, t], np.r_[a, b]
    order = np.lexsort((ends_oid, ends_t))
    st, so = ends_t[order], ends_oid[order]
    new = np.ones(2 * m, dtype=bool)
    new[1:] = (st[1:] != st[:-1]) | (so[1:] != so[:-1])
    node_t, node_oid = st[new], so[new]
    n = len(node_t)
    node = np.empty(2 * m, dtype=np.int64)
    node[order] = np.cumsum(new) - 1
    u, v = node[:m], node[m:]

    # ϵ-neighborhood size, the point itself included.
    core = np.bincount(np.r_[u, v], minlength=n) + 1 >= min_pts
    cu, cv = core[u], core[v]
    root = _components(n, u[cu & cv], v[cu & cv])
    # A border point joins the cluster of its smallest-oid core neighbor.
    near = np.full(n, n)
    np.minimum.at(near, u[cv & ~cu], v[cv & ~cu])
    np.minimum.at(near, v[cu & ~cv], u[cu & ~cv])
    border = ~core & (near < n)
    root[border] = root[near[border]]
    member = np.flatnonzero(core | border)
    # cid = the smallest oid of the cluster, borders included.
    first = np.full(n, n)
    np.minimum.at(first, root[member], member)
    return node_t[member], node_oid[first[root[member]]], node_oid[member]


def dbscan(pairs: DataFrame, *, min_pts: int) -> DataFrame:
    """Cluster every snapshot: pairs ``(t, a, b)``, each unordered pair
    once → cluster snapshots ``(t, cid, oid)``, noise dropped.

    One ``dbscan_arrays`` call per bucket of snapshots (``per_bucket``
    keyed by t).
    """
    def fn(bucket: pd.DataFrame) -> pd.DataFrame:
        t, cid, oid = dbscan_arrays(*(bucket[c].to_numpy()
                                      for c in ("t", "a", "b")), min_pts)
        return pd.DataFrame({"t": t, "cid": cid, "oid": oid})

    return per_bucket(pairs, ["t"], fn, CLUSTERS_SCHEMA)
