"""Incremental enumeration engine: per-snapshot BA/FBA/VBA over all anchors.

This is the only enumeration driver. The Structured Streaming detector
steps it as snapshots are released; ``run_engine`` steps it over a
finite set of partitions for the batch runner (one engine per bucket
of anchors) and the Fig 15 enumeration benchmarks (where the paper
omits clustering). It consumes one snapshot's id-based partitions at a
time and maintains, per anchor (= Flink keyed state):

- BA/FBA: the sliding window of partitions; the η-window starting at
  ``t−η+1`` is evaluated when snapshot ``t`` arrives, then forgotten
  (BA verifies every subset of the window's first partition, FBA
  enumerates bit-string candidates);
- VBA: the episode state (hashmap H + candidate list C), advanced once
  per snapshot. At the end of the stream ``finish`` steps G+1 silent
  snapshots, which closes every open episode (Lemma 7) just as the
  online stream would, so a VBA result never depends on where the
  stream was cut or on how anchors are bucketed (DESIGN.md).

An anchor's state is dropped once it is spent: its η-window buffer when
empty, its VBA state when H is empty (no candidate can pair with a
later episode).

Metric: per first report of a pattern, the *detection delay* in
snapshots (report time − the time the pattern first became valid, read
off its witness in one pass).
"""
from __future__ import annotations

from repro.core import bitstring as bs
from repro.enumeration.ba import ba_window
from repro.enumeration.fba import fba_window
from repro.enumeration.vba import VBAState, vba_step
from repro.params import CPParams

PartsAtT = dict[int, frozenset[int]]  # anchor -> P_t(anchor)
PartsByAnchor = dict[int, dict[int, frozenset[int]]]  # anchor -> t -> P_t

METHODS = ("ba", "fba", "vba")


class EnumerationEngine:
    """Stateful per-snapshot pattern enumeration (BA, FBA or VBA)."""

    def __init__(self, params: CPParams, method: str = "fba") -> None:
        if method not in METHODS:
            raise ValueError(f"unknown enumeration method {method!r}; use {METHODS}")
        self.params = params
        self.method = method
        self.patterns: dict[frozenset[int], tuple[int, ...]] = {}
        self.delays: list[int] = []
        self._fba_parts: PartsByAnchor = {}  # BA/FBA η-window buffer
        self._vba: dict[int, VBAState] = {}
        self._processed_until = 0

    def step(self, t: int, parts_t: PartsAtT) -> None:
        """Consume snapshot t's partitions (call for every consecutive t)."""
        if self.method != "vba":
            for anchor, members in parts_t.items():
                if members:
                    self._fba_parts.setdefault(anchor, {})[t] = members
            t0 = t - self.params.eta + 1
            if t0 >= 1:
                self._run_windows(t0, t)
        else:
            self._vba_step(t, parts_t, t)
        self._processed_until = t

    def finish(self) -> None:
        """End of stream; its reports count delays at the last snapshot.

        BA/FBA evaluate the remaining truncated windows. VBA steps G+1
        silent snapshots, each reported on its own as online; the last
        one closes every open episode (Lemma 7).
        """
        t_end = self._processed_until
        if self.method != "vba":
            for t0 in range(max(1, t_end - self.params.eta + 2), t_end + 1):
                self._run_windows(t0, t_end)
        else:
            for t in range(t_end + 1, t_end + self.params.g + 2):
                self._vba_step(t, {}, t_end)

    # ------------------------------------------------------------ internal

    def _vba_step(self, t: int, parts_t: PartsAtT, now: int) -> None:
        for anchor in set(self._vba) | set(parts_t):
            state = self._vba.get(anchor)
            members = parts_t.get(anchor, frozenset())
            if state is None:
                if not members:
                    continue
                state = self._vba[anchor] = VBAState()
                state.t_prev = t - 1  # episode begins at first sighting
            self._report(anchor, vba_step(state, t, members, self.params), now)
            if not state.h:
                # Every later episode starts after each candidate's et,
                # so no candidate can pair with it (Lemma 8): drop all.
                del self._vba[anchor]

    def _run_windows(self, t0: int, now: int) -> None:
        for anchor, by_t in self._fba_parts.items():
            if not by_t.get(t0):
                continue
            if self.method == "ba":
                found = ba_window(
                    by_t, t0, self.params,
                    known=lambda O: O | {anchor} in self.patterns,
                )
                pats = {O: [T] for O, T in found.items()}
            else:
                pats = {}
                for O, bits in fba_window(by_t, t0, self.params).items():
                    if O | {anchor} in self.patterns:
                        continue  # ``_report`` keeps the first witness
                    seqs = bs.maximal_sequences(
                        bits, self.params.k, self.params.l, self.params.g
                    )
                    pats[O] = [tuple(t0 + i for i in s) for s in seqs]
            self._report(anchor, pats, now)
        for anchor, by_t in list(self._fba_parts.items()):
            for old in [t for t in by_t if t <= t0]:
                del by_t[old]
            if not by_t:
                del self._fba_parts[anchor]

    def _report(self, anchor: int, found: dict, now: int) -> None:
        for O, seqs in found.items():
            full = frozenset(O | {anchor})
            if full in self.patterns:
                continue
            best = max(seqs, key=len)
            self.patterns[full] = tuple(best)
            self.delays.append(now - self._first_valid(best))

    def _first_valid(self, seq: tuple[int, ...]) -> int:
        """The time at which the witness ``seq`` first became valid.

        A witness is one chain (segments ≥ L, gaps ≤ G), so its prefix
        up to t is valid once it holds ≥ K times and t's segment holds
        ≥ L (BA's ``_verify`` stop condition).
        """
        k, l = self.params.k, self.params.l
        seg, prev = 0, None
        for n, t in enumerate(seq, 1):
            seg = seg + 1 if t - 1 == prev else 1
            if n >= k and seg >= l:
                return t
            prev = t
        return seq[-1]


def run_engine(partitions: PartsByAnchor, params: CPParams,
               method: str = "fba", *,
               t_end: int | None = None) -> EnumerationEngine:
    """Enumerate a finite stream of id-based partitions; return the engine.

    Steps one engine through every consecutive t from the first
    partition's t to ``max(last t, t_end)``, then calls ``finish()``.
    The patterns and witnesses do not depend on ``t_end``: every method
    ends its stream as online (VBA by G+1 silent snapshots), so silent
    snapshots past the last partition change nothing. ``t_end`` is the
    end of the snapshot stream (Fig 15): it only moves the snapshots at
    which the last reports count their detection delays.
    """
    engine = EnumerationEngine(params, method)
    by_t: dict[int, PartsAtT] = {}
    for anchor, parts in partitions.items():
        for t, members in parts.items():
            by_t.setdefault(t, {})[anchor] = members
    if by_t:
        t_hi = max(by_t) if t_end is None else max(max(by_t), t_end)
        for t in range(min(by_t), t_hi + 1):
            engine.step(t, by_t.get(t, {}))
    engine.finish()
    return engine
