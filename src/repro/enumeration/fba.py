"""FBA — Fixed Length Bit Compression based Algorithm (Algorithm 4).

Per start snapshot t, every trajectory of P_t(o) is compressed to an
η-bit membership string (Definition 13), cutting storage from
O(2^|P|) to O(η·|P|); enumeration is *candidate-based*: only
trajectories whose own string is (K,L,G)-valid enter the candidate set
C, subsets are generated Apriori-style starting at cardinality M−1,
and a subset is extended only while its ANDed string stays valid
(anti-monotonicity, tests/test_bitstring.py). Each subset is generated
exactly once by extending only with larger-id candidates.
"""
from __future__ import annotations

from itertools import combinations

from repro.core import bitstring as bs
from repro.params import CPParams

Partitions = dict[int, frozenset[int]]


def window_bits(partitions: Partitions, t: int, eta: int) -> dict[int, int]:
    """B[oi] for every oi ∈ P_t(o) over the window [t, t+η) (lines 2–6)."""
    base = partitions.get(t, frozenset())
    bits = dict.fromkeys(base, 0)
    for j in range(eta):
        Pj = partitions.get(t + j)
        if not Pj:
            continue
        bit = 1 << j
        for oi in base & Pj:
            bits[oi] |= bit
    return bits


def fba_window(partitions: Partitions, t: int,
               params: CPParams) -> dict[frozenset[int], int]:
    """Valid patterns enumerated at start t: {members → B[O] bits}."""
    bits = window_bits(partitions, t, params.eta)
    k, l, g = params.k, params.l, params.g
    C = sorted(o for o, b in bits.items() if bs.is_valid(b, k, l, g))
    out: dict[frozenset[int], int] = {}
    if len(C) < params.m - 1:
        return out
    # Level M−1: all (M−2)-subsets of C extended by one candidate (line 9).
    frontier: list[tuple[tuple[int, ...], int]] = []
    for combo in combinations(C, params.m - 1):
        b = bits[combo[0]]
        for o in combo[1:]:
            b &= bits[o]
        if bs.is_valid(b, k, l, g):
            out[frozenset(combo)] = b
            frontier.append((combo, b))
    # Incremental growth: extend valid patterns with larger-id candidates.
    while frontier:
        nxt: list[tuple[tuple[int, ...], int]] = []
        for combo, b in frontier:
            hi = combo[-1]
            for o in C:
                if o <= hi:
                    continue
                nb = b & bits[o]
                if bs.is_valid(nb, k, l, g):
                    ncombo = combo + (o,)
                    out[frozenset(ncombo)] = nb
                    nxt.append((ncombo, nb))
        frontier = nxt
    return out

