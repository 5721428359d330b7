"""Tests for the bit-string algebra that powers FBA/VBA.

The (K, L, G)-validity check is verified against an exhaustive
subset-search reference on small strings (hypothesis), and against the
paper's worked examples from Figs. 8 and 9.
"""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitstring as bs


def b(s: str) -> int:
    """Paper-style literal: leftmost char = earliest time (bit 0)."""
    return int(s[::-1], 2) if s else 0


# ------------------------------------------------------------ reference

def _valid_subseq_bruteforce(times: list[int], k: int, l: int, g: int) -> set[tuple[int, ...]]:
    """All valid time sequences T ⊆ times (Definitions 2-4)."""
    out = set()
    for r in range(k, len(times) + 1):
        for T in combinations(times, r):
            segs, cur = [], [T[0]]
            for a, t in zip(T, T[1:]):
                if t - a == 1:
                    cur.append(t)
                else:
                    segs.append(cur)
                    cur = [t]
            segs.append(cur)
            if all(len(s) >= l for s in segs) and all(
                t2 - t1 <= g for t1, t2 in zip(T, T[1:])
            ):
                out.add(T)
    return out


# ------------------------------------------------------------ unit tests

def test_runs_basic():
    assert bs.runs(b("110111")) == [(0, 2), (3, 3)]
    assert bs.runs(b("000")) == []
    assert bs.runs(b("1")) == [(0, 1)]
    assert bs.runs(b("0110")) == [(1, 2)]


def test_from_to_times_roundtrip():
    bits = bs.from_times([3, 4, 6, 7], start=3, length=6)
    assert bits == b("110110")
    assert bs.to_times(bits, start=3) == [3, 4, 6, 7]


def test_from_times_clips_outside_window():
    assert bs.from_times([1, 5, 99], start=2, length=4) == b("0001")


def test_trailing_zeros():
    assert bs.trailing_zeros(b("110100"), 6) == 2
    assert bs.trailing_zeros(b("000000"), 6) == 6
    assert bs.trailing_zeros(b("000001"), 6) == 0
    assert bs.trailing_zeros(0, 0) == 0


def test_sec3_example_2consecutive_2connected():
    # T = <1,2,4,5,6> is 2-consecutive and 2-connected (Sec 3.1).
    bits = bs.from_times([1, 2, 4, 5, 6], start=1, length=6)
    assert bs.is_valid(bits, k=5, l=2, g=2)
    assert not bs.is_valid(bits, k=6, l=2, g=2)  # only 5 ones
    assert not bs.is_valid(bits, k=5, l=3, g=2)  # first segment length 2


def test_fig8_bitstrings():
    # Fig. 8: partition P3(o4), η = 6, K=4, L=2, G=2.
    B = {"o5": b("111111"), "o6": b("110111"), "o7": b("110011"),
         "o8": b("100000")}
    k, l, g = 4, 2, 2
    assert bs.is_valid(B["o5"], k, l, g)
    assert bs.is_valid(B["o6"], k, l, g)
    # B[o7] = 110011 (times {3,4,7,8}): diff 3 > G=2 -> invalid under the
    # normative Definition 3 (paper's C = {o5,o6,o7} rests on the
    # contradictory missing-slot reading; see the erratum note below).
    assert not bs.is_valid(B["o7"], k, l, g)
    assert not bs.is_valid(B["o8"], k, l, g)
    # B[{o5,o6}] = 110111 -> times {3,4,6,7,8}: valid (matches the Fig 2
    # pattern {o4,o5,o6} with T = <3,4,6,7>).
    assert B["o5"] & B["o6"] == b("110111")
    assert bs.is_valid(B["o5"] & B["o6"], k, l, g)
    # B[{o5,o6,o7}] = 110011 -> times {3,4,7,8}: diff 7-4 = 3 > G=2, so
    # under the normative Definition 3 (T[i+1]-T[i] <= G, also what the
    # Lemma 6 example and the (G-1) factor of eta assume) this is
    # INVALID. Fig 8's checkmark on it would need a "missing slots <= G"
    # reading that contradicts Definition 3 — erratum, see DESIGN.md.
    assert B["o5"] & B["o6"] & B["o7"] == b("110011")
    assert not bs.is_valid(B["o5"] & B["o6"] & B["o7"], k, l, g)


def test_fig2_pattern_times():
    # O = {o4,o5,o6} with T = <3,4,6,7> under CP(3,4,2,2).
    bits = bs.from_times([3, 4, 6, 7], start=3, length=5)
    assert bs.is_valid(bits, k=4, l=2, g=2)
    [seq] = bs.maximal_sequences(bits, 4, 2, 2)
    assert [3 + i for i in seq] == [3, 4, 6, 7]


def test_short_runs_cannot_contribute():
    # 1 0 1 1 0 1: with L=2 the lone bits are dead weight.
    bits = b("101101")
    assert not bs.is_valid(bits, k=3, l=2, g=2)
    assert bs.is_valid(bits, k=2, l=2, g=2)


def test_gap_measured_across_dropped_runs():
    # 11 0 1 0 11 with L=2, G=2: dropping the middle short run leaves a
    # gap of 4 between the surviving runs -> two separate chains.
    bits = b("1101011")
    assert not bs.is_valid(bits, k=4, l=2, g=2)
    assert bs.is_valid(bits, k=4, l=2, g=4)


def test_multiple_maximal_sequences():
    # Two K-qualifying chains separated by a > G gap.
    bits = b("1110000111")
    seqs = bs.maximal_sequences(bits, k=3, l=3, g=2)
    assert seqs == [[0, 1, 2], [7, 8, 9]]


def test_align_and_paper_fig9():
    # VBA strings for the subtask of o4 (Fig. 9b): o5=<2,8>, o6=<3,8>, o7=<3,8>.
    s5 = (2, 8, b("1111111"))
    s6 = (3, 8, b("110111"))
    s7 = (3, 8, b("110011"))
    s56 = bs.and_overlap(s5, s6, k=4)
    assert s56 == (3, 8, b("110111"))
    assert bs.is_valid(s56[2], 4, 2, 2)
    # The three-way AND, chained pairwise in either order.
    st, et, bits = bs.and_overlap(s56, s7, k=4)
    assert (st, et) == (3, 8)
    assert bits == b("110011")  # invalid under Definition 3, see Fig 8 test
    assert bs.and_overlap(s5, bs.and_overlap(s6, s7, k=4), k=4) == (st, et, bits)


def test_align_and_empty_overlap():
    assert bs.and_overlap((1, 3, b("111")), (5, 8, b("1111")), k=1) is None


def test_lemma8_span_prune_exact_k_not_pruned():
    # Overlap of exactly K snapshots must NOT be pruned (paper off-by-one).
    a = (1, 6, b("111111"))
    c = (3, 9, b("1111111"))
    assert bs.and_overlap(a, c, k=4) == (3, 6, b("1111"))  # overlap [3,6]
    assert bs.and_overlap(a, c, k=5) is None


# ------------------------------------------------------- property tests

@settings(max_examples=300, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 12) - 1),
    k=st.integers(1, 6),
    l=st.integers(1, 4),
    g=st.integers(1, 4),
)
def test_validity_matches_bruteforce(bits, k, l, g):
    if l > k:
        k = l
    times = bs.to_times(bits, start=0)
    expect = bool(_valid_subseq_bruteforce(times, k, l, g))
    assert bs.is_valid(bits, k, l, g) == expect


@settings(max_examples=200, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 12) - 1),
    mask=st.integers(min_value=0, max_value=(1 << 12) - 1),
    k=st.integers(1, 6), l=st.integers(1, 4), g=st.integers(1, 4),
)
def test_validity_antimonotone_under_and(bits, mask, k, l, g):
    # Clearing 1s can never make an invalid string valid.
    if l > k:
        k = l
    if not bs.is_valid(bits, k, l, g):
        assert not bs.is_valid(bits & mask, k, l, g)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(min_value=0, max_value=(1 << 12) - 1),
       k=st.integers(1, 6), l=st.integers(1, 4), g=st.integers(1, 4))
def test_maximal_sequences_are_valid_and_cover(bits, k, l, g):
    if l > k:
        k = l
    for seq in bs.maximal_sequences(bits, k, l, g):
        sub = bs.from_times(seq, start=0, length=12)
        assert bs.is_valid(sub, k, l, g)
        assert sub & bits == sub  # sequence uses only 1-positions
