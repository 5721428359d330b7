"""FBA — Fixed Length Bit Compression based Algorithm (Algorithm 4).

Per start snapshot t, every trajectory of P_t(o) is compressed to an
η-bit membership string (Definition 13), cutting storage from
O(2^|P|) to O(η·|P|); enumeration is *candidate-based*: only
trajectories whose own string is (K,L,G)-valid enter the candidate set
C, subsets are generated Apriori-style starting at cardinality M−1,
and a subset is extended only while its ANDed string stays valid
(anti-monotonicity, tests/test_bitstring.py). ``grow`` is that Apriori
loop, shared with VBA (Algorithm 5 enumerates the same way over
episodes); each subset is generated exactly once by extending only
with larger-index candidates.
"""
from __future__ import annotations

from collections.abc import Callable
from functools import partial
from itertools import combinations
from typing import TypeVar

from repro.core import bitstring as bs
from repro.params import CPParams

Partitions = dict[int, frozenset[int]]
S = TypeVar("S")


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


def grow(n: int, size: int, root: S, join: Callable[[S, int], S | None],
         valid: Callable[[S], bool]) -> dict[tuple[int, ...], S]:
    """Apriori over indices ``0..n-1`` (Algorithm 4, lines 8–15).

    A combination's state folds ``join`` over its indices from
    ``root``; ``join`` returns None to reject an index. The candidates
    are the indices valid alone (FBA's set C). Every ``size``-combination
    of candidates is built and kept if ``valid``; each kept combination
    is extended only with larger candidates, level by level, while it
    stays valid (anti-monotonicity makes this complete). Returns
    {indices → state} in lexicographic order per level, from ``size``
    on (the root alone when ``size`` = 0).
    """
    single = {}
    for i in range(n):
        s = join(root, i)
        if s is not None and valid(s):
            single[i] = s
    cands = list(single)
    out: dict[tuple[int, ...], S] = {(): root} if size == 0 else {}
    level = []
    for combo in combinations(cands, max(size, 1)):
        s = single[combo[0]]
        for i in combo[1:]:
            s = join(s, i)
            if s is None:
                break
        if s is not None and (len(combo) == 1 or valid(s)):
            out[combo] = s
            level.append((combo, s))
    while level:
        nxt = []
        for combo, s in level:
            for i in cands:
                if i > combo[-1]:
                    ns = join(s, i)
                    if ns is not None and valid(ns):
                        ext = combo + (i,)
                        out[ext] = ns
                        nxt.append((ext, ns))
        level = nxt
    return out


def fba_window(partitions: Partitions, t: int,
               params: CPParams) -> dict[frozenset[int], int]:
    """Valid patterns enumerated at start t: {members → B[O] bits}."""
    eta = params.eta
    bits = window_bits(partitions, t, eta)
    oids = sorted(bits)
    B = [bits[o] for o in oids]
    found = grow(len(oids), params.m - 1, (1 << eta) - 1,
                 lambda b, i: b & B[i],
                 partial(bs.is_valid, k=params.k, l=params.l, g=params.g))
    return {frozenset(oids[i] for i in combo): b for combo, b in found.items()}
