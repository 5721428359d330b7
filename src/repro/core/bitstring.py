"""Bit-string algebra for FBA/VBA (Secs 6.2–6.3).

A cluster-membership history is a bit string: bit ``i`` = 1 iff the
trajectory was in the anchor's cluster at time ``start + i``. Strings
are stored as Python ints (bit 0 = earliest time) plus an explicit
length, so leading/trailing zeros are preserved.

The central predicate is (K, L, G)-validity: does the string contain a
time sequence T with |T| ≥ K, every segment of T of length ≥ L, and
neighboring times of T at most G apart (Definitions 2–4)? Because any
segment of T must lie inside a maximal 1-run, the check is:

  1. decompose the 1-bits into maximal runs,
  2. drop runs shorter than L (they cannot host any segment),
  3. chain surviving runs whose start-to-previous-end gap is ≤ G,
  4. valid iff some chain's total 1-count is ≥ K.

Each qualifying chain's union of times is a *maximal pattern time
sequence* (Definition 15). Validity is anti-monotone under bitwise AND
(clearing 1s only removes witnesses), which makes Apriori-style
candidate enumeration sound. VBA's strings each cover their own span
``(st, et, bits)``; ``and_overlap`` ANDs two of them on their overlap
and prunes overlaps too short to hold K times (Lemma 8).
"""
from __future__ import annotations

from typing import Iterable

Run = tuple[int, int]  # (start index, length)
Span = tuple[int, int, int]  # (st, et, bits): bit i ↔ time st + i


def from_times(times: Iterable[int], start: int, length: int) -> int:
    """Bits with 1 at ``t - start`` for each ``t`` in [start, start+length)."""
    bits = 0
    for t in times:
        i = t - start
        if 0 <= i < length:
            bits |= 1 << i
    return bits


def to_times(bits: int, start: int) -> list[int]:
    """Absolute times of the 1-bits."""
    out, i = [], 0
    while bits:
        if bits & 1:
            out.append(start + i)
        bits >>= 1
        i += 1
    return out


def runs(bits: int) -> list[Run]:
    """Maximal runs of consecutive 1-bits as (start index, length)."""
    out: list[Run] = []
    i = 0
    while bits:
        tz = (bits & -bits).bit_length() - 1  # skip zeros
        bits >>= tz
        i += tz
        n = (~bits & -~bits).bit_length() - 1  # length of the 1-run
        out.append((i, n))
        bits >>= n
        i += n
    return out


def chains(bits: int, l: int, g: int) -> list[list[Run]]:
    """Runs of length ≥ L, grouped by start-to-previous-end gap ≤ G."""
    kept = [r for r in runs(bits) if r[1] >= l]
    out: list[list[Run]] = []
    for r in kept:
        if out and r[0] - (out[-1][-1][0] + out[-1][-1][1] - 1) <= g:
            out[-1].append(r)
        else:
            out.append([r])
    return out


def is_valid(bits: int, k: int, l: int, g: int) -> bool:
    """(K, L, G)-validity: some chain carries ≥ K ones."""
    return any(sum(n for _, n in ch) >= k for ch in chains(bits, l, g))


def maximal_sequences(bits: int, k: int, l: int, g: int) -> list[list[int]]:
    """All maximal pattern time sequences (relative indices), Def. 15."""
    out = []
    for ch in chains(bits, l, g):
        if sum(n for _, n in ch) >= k:
            out.append([s + i for s, n in ch for i in range(n)])
    return out


def trailing_zeros(bits: int, length: int) -> int:
    """Number of 0-bits at the end (most recent times) of the string."""
    if length <= 0:
        return 0
    if bits == 0:
        return length
    return length - bits.bit_length()


def and_overlap(a: Span, b: Span, k: int) -> Span | None:
    """Bitwise AND of two variable-length strings ``(st, et, bits)``.

    Outside its own span a trajectory is by definition not co-clustered,
    so both strings can be 1 only on the overlap [max st, min et]; the
    result is ``(st, et, bits)`` of that overlap. A valid T needs ≥ K
    times inside it, so an overlap of fewer than K snapshots is pruned
    and returns None (Lemma 8, off-by-one corrected, see DESIGN.md).
    """
    st, et = max(a[0], b[0]), min(a[1], b[1])
    if et - st + 1 < k:
        return None
    mask = (1 << (et - st + 1)) - 1
    return st, et, (a[2] >> (st - a[0])) & (b[2] >> (st - b[0])) & mask
