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
as the online stream would. A closed episode's patterns are enumerated
by FBA's Apriori loop (``fba.grow``), joining episodes pairwise with
``bs.and_overlap``.

Deviations from the paper's pseudo-code, per DESIGN.md:
- candidates closing in the same snapshot are processed in id order and
  become visible to each other (Algorithm 5 would silently miss their
  joint patterns);
- the Lemma 8 prune (in ``bs.and_overlap``) uses overlap ≥ K
  *snapshots* (min{et} − max{st} + 1 ≥ K), fixing the paper's
  off-by-one;
- candidate GC (always on) drops c ∈ C once c.et < min(open episode
  st) + K − 1 — no future closure can overlap it by ≥ K, so the drop is
  lossless and C stays bounded on unbounded streams.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import bitstring as bs
from repro.enumeration.fba import grow
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
                    params: CPParams) -> dict[tuple[Episode, ...], bs.Span]:
    """All valid patterns that contain the freshly closed episode.

    ``fba.grow`` over ``pool`` from ``new``: a combination joins
    episodes of distinct oids whose ANDed overlap (``bs.and_overlap``,
    with Lemma 8) stays valid. Returns {episodes → (st, et, bits)} of
    the ANDed overlap string, ``new`` first in every key.
    """
    k, l, g = params.k, params.l, params.g

    def join(s, i):
        oids, span = s
        e = pool[i]
        if e[0] in oids:
            return None  # two episodes of the same oid cannot co-occur
        r = bs.and_overlap(span, e[1:], k)
        return None if r is None else (oids + (e[0],), r)

    # ``new`` is one member beside the anchor: M−2 pool episodes complete M.
    found = grow(len(pool), params.m - 2, ((new[0],), new[1:]), join,
                 lambda s: bs.is_valid(s[1][2], k, l, g))
    return {(new, *(pool[i] for i in combo)): span
            for combo, (_, span) in found.items()}


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
    if state.h and state.c:
        # Every future closure starts at or after the earliest open st,
        # so a candidate ending before min_open + K − 1 can never
        # overlap one by K snapshots (Lemma 8): drop it.
        min_open = min(st for st, _ in state.h.values())
        state.c = [e for e in state.c if e[2] >= min_open + params.k - 1]
    return out

