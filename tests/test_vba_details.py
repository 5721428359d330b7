"""VBA internals: episode lifecycle, candidate handling, pruning."""
import pytest

from repro.core import bitstring as bs
from repro.enumeration.engine import run_engine
from repro.enumeration.vba import VBAState, _close, _enumerate_with, vba_step
from repro.params import CPParams

P = CPParams(m=2, k=3, l=3, g=2, eps=1, min_pts=2, lg=1)


def b(s):
    return int(s[::-1], 2)


def _run(parts, params, t_end):
    # The stream ends with G+1 silent snapshots, which close every episode.
    state = VBAState()
    acc = {}
    for t in range(1, t_end + params.g + 2):
        for O, seqs in vba_step(state, t, parts.get(t, frozenset()), params).items():
            acc.setdefault(O, []).extend(seqs)
    return state, acc


def test_close_trims_and_validates():
    assert _close(5, 2, b("11100"), P) == (5, 2, 4, b("111"))
    assert _close(5, 2, b("11"), P) is None       # only 2 ones < K
    assert _close(5, 2, 0, P) is None


def test_reappearance_creates_second_episode():
    # Present 1-3, gone 4-6 (closes at 6), present 7-9 again.
    parts = {t: frozenset({8}) for t in (1, 2, 3, 7, 8, 9)}
    state, acc = _run(parts, P, 10)
    # Two distinct maximal sequences for the same pattern set.
    assert sorted(acc[frozenset({8})]) == [(1, 2, 3), (7, 8, 9)]
    # GC collected episode 1..3 once 7..9 opened (3 < 7 + K − 1): only
    # oid 8's second episode stays in the candidate list.
    assert state.c == [(8, 7, 9, b("111"))]


def test_invalid_episode_deleted_not_kept():
    parts = {1: frozenset({4}), 2: frozenset({4})}  # 2 ones < K=3
    state, acc = _run(parts, P, 6)
    assert acc == {}
    assert state.c == []


def test_episode_with_internal_gap_stays_open():
    # Gaps of <= G zeros do not close the episode (diff 6-3 = 3 <= G).
    parts = {t: frozenset({3}) for t in (1, 2, 3, 6, 7, 8)}
    params = CPParams(m=2, k=6, l=3, g=3, eps=1, min_pts=2, lg=1)
    state = VBAState()
    out = {}
    for t in range(1, 9):
        out.update(vba_step(state, t, parts.get(t, frozenset()), params))
    assert out == {}          # still open at t=8
    assert 3 in state.h
    for t in range(9, 12):    # closes after G+1 = 4 absences, at t=12
        assert vba_step(state, t, frozenset(), params) == {}
    got = vba_step(state, 12, frozenset(), params)
    assert got == {frozenset({3}): [(1, 2, 3, 6, 7, 8)]}


def test_multi_chain_episode_reports_both_sequences():
    # One episode holding two K-qualifying chains separated by a gap
    # that G cannot bridge after L-pruning (single stray 1 between).
    params = CPParams(m=2, k=3, l=3, g=3, eps=1, min_pts=2, lg=1)
    times = [1, 2, 3, 5, 8, 9, 10]  # runs: 111, 1, 111
    parts = {t: frozenset({6}) for t in times}
    _, acc = _run(parts, params, 15)
    assert sorted(acc[frozenset({6})]) == [(1, 2, 3), (8, 9, 10)]


def test_enumerate_with_skips_same_oid():
    e1 = (7, 1, 5, b("11111"))
    e2 = (7, 8, 12, b("11111"))  # same oid, later episode
    found = _enumerate_with(e1, [e2], CPParams(m=3, k=3, l=3, g=1))
    assert found == {}


def test_enumerate_with_lemma8_prune():
    params = CPParams(m=3, k=4, l=2, g=2)
    new = (1, 1, 6, b("111111"))
    far = (2, 20, 26, b("1111111"))   # no span overlap -> pruned
    near = (3, 3, 8, b("111111"))
    found = _enumerate_with(new, [far, near], params)
    assert {frozenset(e[0] for e in k) for k in found} == {frozenset({1, 3})}


def test_vba_gc_retention_rule():
    params = CPParams(m=2, k=3, l=3, g=1, eps=1, min_pts=2, lg=1)
    state = VBAState()
    # oid 2's episode 1..3 closes at 5; oid 9 stays open from t=1 on.
    seq = {1: {2, 9}, 2: {2, 9}, 3: {2, 9}, 4: {9}, 5: {9}, 6: {9}, 7: {9}}
    for t in range(1, 8):
        vba_step(state, t, frozenset(seq[t]), params)
    # oid 9's open episode starts at 1 -> candidate (et=3) must be kept
    # (3 >= 1 + K - 1 = 3): a joint pattern with 9 is still possible.
    assert [e[0] for e in state.c] == [2]
    assert vba_step(state, 8, frozenset(), params) == {}
    got = vba_step(state, 9, frozenset(), params)  # 9 closes: G+1 absences
    assert frozenset({2, 9}) in got  # and indeed it is found


def test_vba_episode_closes_in_t_end_padding():
    # Episodes still open at the last partition close during the padding
    # up to t_end, not only at flush.
    parts = {t: frozenset({4}) for t in (1, 2, 3)}
    state = VBAState()
    reported_at = None
    for t in range(1, 10):
        if vba_step(state, t, parts.get(t, frozenset()), P):
            reported_at = t
            break
    assert reported_at == 6  # t=3 last 1, G+1=3 zeros -> closes at 6


def test_step_rejects_time_gap():
    state = VBAState()
    vba_step(state, 5, frozenset(), P)
    with pytest.raises(ValueError):
        vba_step(state, 7, frozenset(), P)


def test_singleton_pattern_not_emitted_when_m3():
    params = CPParams(m=3, k=3, l=3, g=1)
    parts = {t: frozenset({5}) for t in (1, 2, 3)}
    assert run_engine({1: parts}, params, "vba", t_end=8).patterns == {}
