"""VBA — Variable Length Bit Compression based Algorithm (Algorithm 5).

One subtask keeps, across all time: a hashmap H of *open episodes*
(oid → start time + growing bit string, Definition 14) and a candidate
list C of *closed* episodes whose string is (K,L,G)-valid. An episode
closes when G+1 consecutive absent snapshots accumulate (Lemma 7 — no
later time can G-connect to it); invalid closed episodes are deleted.
Each snapshot is therefore verified exactly once (vs. η times for
BA/FBA) — the storage drops to O(n·(G+L)/L) (Theorem 1) and the
throughput rises, at the price of reporting a pattern only when an
episode closes (VBA "trades latency for throughput"). There is no
end-of-stream flush: a finite stream ends with G+1 silent snapshots
(``EnumerationEngine.finish``), which close every open episode exactly
as the online stream would.

Deviations from the paper's pseudo-code, per DESIGN.md:
- candidates closing in the same snapshot are processed in id order and
  become visible to each other (Algorithm 5 would silently miss their
  joint patterns);
- the Lemma 8 prune uses overlap ≥ K *snapshots* (min{et} − max{st} + 1
  ≥ K), fixing the paper's off-by-one;
- candidate GC (always on) drops c ∈ C once c.et < min(open episode
  st) + K − 1 — no future closure can overlap it by ≥ K, so the drop is
  lossless and C stays bounded on unbounded streams.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from repro.core import bitstring as bs
from repro.params import CPParams

Episode = tuple[int, int, int, int]  # (oid, st, et, bits) — closed, trimmed


@dataclass
class VBAState:
    """Per-subtask state carried across snapshots (serializable)."""

    h: dict[int, tuple[int, int]] = field(default_factory=dict)  # oid -> (st, bits)
    c: list[Episode] = field(default_factory=list)
    t_prev: int | None = None


def _close(oid: int, st: int, bits: int, params: CPParams) -> Episode | None:
    """Trim trailing zeros; keep the episode iff its string is valid."""
    if bits == 0:
        return None
    width = bits.bit_length()  # last 1 at st + width − 1
    if not bs.is_valid(bits, params.k, params.l, params.g):
        return None
    return (oid, st, st + width - 1, bits)


def _enumerate_with(new: Episode, pool: list[Episode],
                    params: CPParams) -> dict[tuple[Episode, ...], tuple[int, int, int]]:
    """All valid patterns that contain the freshly closed episode.

    Apriori over ``pool`` (episodes of other oids overlapping ``new`` by
    ≥ K snapshots), extending only with larger pool indices so each
    combination is generated once. Returns {episodes → (st, et, bits)}
    of the ANDed overlap string.
    """
    k, l, g = params.k, params.l, params.g
    cand = [e for e in pool
            if e[0] != new[0] and bs.spans_may_carry_k(
                [(e[1], e[2], 0), (new[1], new[2], 0)], k)]
    out: dict[tuple[Episode, ...], tuple[int, int, int]] = {}
    need = params.m - 1  # members beside the anchor; ``new`` is one of them
    if len(cand) < need - 1:
        return out

    def anded(eps_list: list[Episode]) -> tuple[int, int, int] | None:
        r = bs.align_and([(st, et, b) for _, st, et, b in eps_list])
        if r is None or not bs.is_valid(r[2], k, l, g):
            return None
        return r

    frontier: list[tuple[tuple[int, ...], list[Episode]]] = []
    for combo in combinations(range(len(cand)), need - 1):
        eps_list = [new] + [cand[i] for i in combo]
        if len({e[0] for e in eps_list}) < len(eps_list):
            continue  # two episodes of the same oid cannot co-occur
        r = anded(eps_list)
        if r is not None:
            out[tuple(eps_list)] = r
            frontier.append((combo, eps_list))
    while frontier:
        nxt = []
        for combo, eps_list in frontier:
            hi = combo[-1] if combo else -1
            for i in range(hi + 1, len(cand)):
                e = cand[i]
                if any(e[0] == x[0] for x in eps_list):
                    continue
                if not bs.spans_may_carry_k(
                    [(e[1], e[2], 0)] + [(x[1], x[2], 0) for x in eps_list], k
                ):
                    continue
                r = anded(eps_list + [e])
                if r is not None:
                    ncombo = combo + (i,)
                    out[tuple(eps_list + [e])] = r
                    nxt.append((ncombo, eps_list + [e]))
        frontier = nxt
    return out


def _emit(found, params) -> dict[frozenset[int], list[tuple[int, ...]]]:
    pats: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for eps_list, (st, _, bits) in found.items():
        O = frozenset(e[0] for e in eps_list)
        seqs = bs.maximal_sequences(bits, params.k, params.l, params.g)
        pats.setdefault(O, []).extend(
            tuple(st + i for i in seq) for seq in seqs
        )
    return pats


def _enumerate_closed(state: VBAState, closed: list[Episode],
                      params: CPParams
                      ) -> dict[frozenset[int], list[tuple[int, ...]]]:
    """Patterns of the episodes closed this round; each then joins C.

    Episodes are taken in id order, so same-round closures see each
    other (DESIGN.md).
    """
    out: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for ep in sorted(closed):
        found = _enumerate_with(ep, state.c, params)
        # The closed episode alone is a pattern {anchor, oid} when M <= 2.
        if params.m <= 2:
            found[(ep,)] = (ep[1], ep[2], ep[3])
        for O, seqs in _emit(found, params).items():
            out.setdefault(O, []).extend(seqs)
        state.c.append(ep)
    return out


def vba_step(state: VBAState, t: int, members: frozenset[int],
             params: CPParams
             ) -> dict[frozenset[int], list[tuple[int, ...]]]:
    """Process snapshot t (must be called for every consecutive t).

    Updates open episodes, closes per Lemma 7, enumerates patterns for
    every episode closed at this snapshot. Returns {members → maximal
    time sequences} newly reported (anchor excluded).
    """
    if state.t_prev is not None and t != state.t_prev + 1:
        raise ValueError(f"snapshots must be consecutive: {state.t_prev} -> {t}")
    state.t_prev = t

    closed: list[Episode] = []
    for oid in list(state.h):
        st, bits = state.h[oid]
        if oid in members:
            bits |= 1 << (t - st)
            state.h[oid] = (st, bits)
            continue
        width = t - st + 1  # bit for t stays 0 (absent this snapshot)
        if bs.trailing_zeros(bits, width) >= params.g + 1:
            del state.h[oid]
            ep = _close(oid, st, bits, params)
            if ep is not None:
                closed.append(ep)
    for oid in members:
        if oid not in state.h:
            state.h[oid] = (t, 1)

    out = _enumerate_closed(state, closed, params)
    if state.h:
        # Every future closure starts at or after the earliest open st,
        # so a candidate ending before min_open + K − 1 can never
        # overlap one by K snapshots (Lemma 8): drop it.
        min_open = min(st for st, _ in state.h.values())
        state.c = [e for e in state.c if e[2] >= min_open + params.k - 1]
    return out

