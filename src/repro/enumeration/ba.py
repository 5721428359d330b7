"""BA — the Baseline pattern-enumeration algorithm (Algorithm 3).

SPARE's Apriori enumerator adapted to streams: for every start
snapshot t it materializes *all* subsets of the partition P_t(o)
(O(2^|P|) time and space) and verifies each against the next η
snapshots using Lemmas 5 and 6. ``ba_window`` is that check for one
start t; ``EnumerationEngine`` runs it on FBA's η-window buffer. The
exponential blow-up is the motivation for FBA/VBA; ``MAX_PARTITION``
guards the inevitable explosion so benchmarks can report a DNF exactly
like Fig 12's missing B bars.
"""
from __future__ import annotations

from collections.abc import Callable
from itertools import combinations

from repro.params import CPParams

Partitions = dict[int, frozenset[int]]  # t -> P_t(o) for one anchor o

# Largest |P_t(o)| BA enumerates (2^14 candidate sets). The measured
# max |P_t(o)| is 10 at taxi Or 40 % and 21 at 60 %, 12 at brinkhoff
# Or 60 % and 15 at 80 %, so B DNFs from taxi 60 % / brinkhoff 80 %.
MAX_PARTITION = 14


class BAExplodedError(RuntimeError):
    """Raised when |P_t(o)| exceeds ``MAX_PARTITION``."""


def _last_segment_len(T: list[int]) -> int:
    n = 1
    for i in range(len(T) - 1, 0, -1):
        if T[i] - T[i - 1] == 1:
            n += 1
        else:
            break
    return n


def _verify(O: frozenset[int], t: int, partitions: Partitions,
            params: CPParams) -> list[int] | None:
    """Lines 4–12 of Algorithm 3 for one candidate pattern.

    Grows T greedily from {t} over the η-window; Lemma 5 discards on a
    gap while the last segment is short, Lemma 6 on a gap larger than G
    (both conditioned on O ⊆ P_i — an absent snapshot alone never
    discards, see DESIGN.md). Returns the witness T once valid.
    """
    T = [t]
    for i in range(t + 1, t + params.eta):
        Pi = partitions.get(i)
        if Pi is None or not O <= Pi:
            continue
        if i - T[-1] == 1:
            T.append(i)
        elif _last_segment_len(T) >= params.l and i - T[-1] <= params.g:
            T.append(i)
        else:
            return None  # Lemma 5 (short last segment) or Lemma 6 (gap > G)
        if len(T) >= params.k and _last_segment_len(T) >= params.l:
            return T
    return None


def ba_window(partitions: Partitions, t: int, params: CPParams, *,
              known: Callable[[frozenset[int]], bool]
              ) -> dict[frozenset[int], tuple[int, ...]]:
    """Valid patterns starting at t: {members (anchor excluded) → T}.

    Every subset of P_t(o) of size ≥ M−1 is verified over [t, t+η),
    except the sets ``known`` reports as already found in an earlier
    window: BA reports each set once, with its first witness.
    """
    P = sorted(partitions.get(t, ()))
    if len(P) < params.m - 1:
        return {}
    if len(P) > MAX_PARTITION:
        raise BAExplodedError(
            f"|P_t(o)| = {len(P)} > {MAX_PARTITION}: 2^n candidate sets "
            "would exhaust memory (the paper's Fig 12 DNF)"
        )
    out: dict[frozenset[int], tuple[int, ...]] = {}
    for r in range(params.m - 1, len(P) + 1):
        for combo in combinations(P, r):
            O = frozenset(combo)
            if known(O):
                continue
            T = _verify(O, t, partitions, params)
            if T is not None:
                out[O] = tuple(T)
    return out
