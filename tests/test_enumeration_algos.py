"""BA ≡ FBA ≡ VBA ≡ exhaustive reference on the pattern-set level.

These are the pure-Python algorithm tests (no Spark): random cluster
streams are mined by all three subtask algorithms via id-based
partitioning and compared with the anchored exhaustive miner.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitstring as bs
from repro.core.reference import reference_patterns
from repro.enumeration import ba
from repro.enumeration.engine import run_engine
from repro.enumeration.fba import window_bits
from repro.enumeration.partition import id_partitions_py
from repro.enumeration.vba import VBAState, vba_step
from repro.params import CPParams


def _random_clusters(n_obj, n_t, n_clusters, p_member, seed):
    """{t: {oid: cid}} with random cluster membership per snapshot."""
    g = np.random.default_rng(seed)
    out = {}
    for t in range(1, n_t + 1):
        labels = {}
        for oid in range(n_obj):
            if g.random() < p_member:
                labels[oid] = int(g.integers(0, n_clusters))
        out[t] = labels
    return out


def _mine(clusters, params, algo):
    """Run one subtask algorithm over all anchors; {O incl anchor → T}."""
    parts = id_partitions_py(clusters, params.m)
    return run_engine(parts, params, algo, t_end=max(clusters)).patterns


def _subtask(anchor, partitions, params, algo, t_end=None):
    """One anchor's subtask through the engine; {O excl anchor → T}."""
    found = run_engine({anchor: partitions}, params, algo, t_end=t_end)
    return {O - {anchor}: T for O, T in found.patterns.items()}


def _check_witnesses(found, clusters, params):
    """Every reported T must be valid and consistent with the clusters."""
    for O, T in found.items():
        assert len(O) >= params.m
        assert len(T) >= params.k
        bits = bs.from_times(T, min(T), max(T) - min(T) + 1)
        assert bs.is_valid(bits, params.k, params.l, params.g)
        for t in T:
            cids = {clusters[t].get(o) for o in O}
            assert len(cids) == 1 and None not in cids, (O, T, t)


PARAMS = CPParams(m=3, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)


@pytest.mark.parametrize("algo", ["ba", "fba", "vba"])
@pytest.mark.parametrize("seed", range(6))
def test_algos_match_reference_random(algo, seed):
    clusters = _random_clusters(n_obj=8, n_t=14, n_clusters=2,
                                p_member=0.7, seed=seed)
    ref = reference_patterns(clusters, PARAMS)
    got = _mine(clusters, PARAMS, algo)
    assert set(got) == set(ref), f"{algo} pattern sets diverge (seed={seed})"
    _check_witnesses(got, clusters, PARAMS)


@pytest.mark.parametrize("algo", ["ba", "fba", "vba"])
@pytest.mark.parametrize("m,k,l,g", [
    (2, 3, 1, 1), (2, 4, 2, 2), (3, 4, 2, 2), (4, 3, 3, 1), (2, 5, 2, 3),
])
def test_algos_match_reference_constraint_grid(algo, m, k, l, g):
    params = CPParams(m=m, k=k, l=l, g=g, eps=1, min_pts=2, lg=1)
    clusters = _random_clusters(n_obj=7, n_t=16, n_clusters=2,
                                p_member=0.65, seed=m * 100 + k * 10 + l + g)
    ref = reference_patterns(clusters, params)
    got = _mine(clusters, params, algo)
    assert set(got) == set(ref)
    _check_witnesses(got, clusters, params)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    m=st.integers(2, 4),
    k=st.integers(2, 5),
    l=st.integers(1, 3),
    g=st.integers(1, 3),
)
def test_property_fba_vba_match_reference(seed, m, k, l, g):
    if l > k:
        l = k
    params = CPParams(m=m, k=k, l=l, g=g, eps=1, min_pts=2, lg=1)
    clusters = _random_clusters(n_obj=6, n_t=12, n_clusters=2,
                                p_member=0.6, seed=seed)
    ref = set(reference_patterns(clusters, params))
    assert set(_mine(clusters, params, "fba")) == ref
    assert set(_mine(clusters, params, "vba")) == ref


def test_vba_maximal_sequences_match_reference():
    params = PARAMS
    clusters = _random_clusters(n_obj=7, n_t=15, n_clusters=2,
                                p_member=0.7, seed=99)
    ref = reference_patterns(clusters, params)
    parts = id_partitions_py(clusters, params.m)
    t_end = max(clusters)
    got = {}
    for anchor, p in parts.items():
        t_lo = min(p)
        state = VBAState()
        acc = {}
        # G+1 silent snapshots past the end close every episode.
        for t in range(t_lo, t_end + params.g + 2):
            for O, seqs in vba_step(state, t, p.get(t, frozenset()), params).items():
                acc.setdefault(O, set()).update(map(tuple, seqs))
        for O, seqs in acc.items():
            got[frozenset(O | {anchor})] = seqs
    assert set(got) == set(ref)
    for O, seqs in got.items():
        # VBA reports exactly the reference's maximal pattern sequences.
        assert set(map(tuple, ref[O])) == seqs


# --------------------------------------------------- paper worked example

def _fig7_partitions_o4():
    """P_t(o4) from Fig 7 / Fig 8: o5..o8 over snapshots 3..8."""
    return {
        3: frozenset({5, 6, 7, 8}),
        4: frozenset({5, 6, 7}),
        5: frozenset({5}),
        6: frozenset({5, 6}),
        7: frozenset({5, 6, 7}),
        8: frozenset({5, 6, 7}),
    }


@pytest.mark.parametrize("algo_fn", [
    lambda p, prm: _subtask(4, p, prm, "ba"),
    lambda p, prm: _subtask(4, p, prm, "fba"),
    lambda p, prm: _subtask(4, p, prm, "vba", t_end=8),
])
def test_fig8_subtask_o4(algo_fn):
    # Bit strings of Fig 8 (window start 3, eta=6): o5=111111,
    # o6=110111, o7=110011, o8=100000. With M=3,K=4,L=2,G=2 and the
    # normative Definition 3 (see DESIGN.md erratum note), the valid
    # pattern among o5..o7 is {o5,o6} (plus anchor o4): 110111 ✓,
    # while any set containing o7 ANDs to 110011 ✗ (gap 3 > G).
    params = CPParams(m=3, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)
    found = algo_fn(_fig7_partitions_o4(), params)
    assert set(found) == {frozenset({5, 6})}
    T = found[frozenset({5, 6})]
    assert set(T) >= {3, 4, 6, 7}  # the paper's T = <3,4,6,7> (Fig 2)


def test_fig8_window_bits():
    params = CPParams(m=3, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)
    bits = window_bits(_fig7_partitions_o4(), 3, params.eta)
    def lit(s):
        return int(s[::-1], 2)
    assert params.eta == 6
    assert bits[5] == lit("111111")
    assert bits[6] == lit("110111")
    assert bits[7] == lit("110011")
    assert bits[8] == lit("100000")


# ----------------------------------------------------------- BA specifics

def test_ba_explodes_on_large_partition():
    params = CPParams(m=2, k=2, l=1, g=1, eps=1, min_pts=2, lg=1)
    parts = {1: frozenset(range(100, 125))}
    with pytest.raises(ba.BAExplodedError):
        _subtask(1, parts, params, "ba")


def test_ba_lemma5_example():
    # Sec 6.1 Lemma 5: O={o2} in P_1(o1), T=<1,2> then occurrence at 5
    # (gap 3 > G) kills it; under Definition 3 the T=<1,2,5> of the
    # paper's example can never form. {o2} reappearing at 5,6,7,8
    # qualifies from the window starting at 5.
    params = CPParams(m=2, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)
    parts = {1: frozenset({2}), 2: frozenset({2}), 5: frozenset({2}),
             6: frozenset({2}), 7: frozenset({2}), 8: frozenset({2})}
    found = _subtask(1, parts, params, "ba")
    assert found == {frozenset({2}): (5, 6, 7, 8)}


def test_ba_lemma6_example():
    # Sec 6.1 Lemma 6: T=<1,2,3>, next occurrence at 6: 6-3=3 > G=2 →
    # discarded; and nothing else reaches K=4.
    params = CPParams(m=2, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)
    parts = {1: frozenset({4}), 2: frozenset({4}), 3: frozenset({4}),
             6: frozenset({4})}
    assert _subtask(1, parts, params, "ba") == {}


def test_ba_keeps_first_witness_and_skips_found_sets(monkeypatch):
    # {o2} is valid from every start 1..5; BA verifies it once, in the
    # first window, and keeps that window's witness.
    params = CPParams(m=2, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)
    parts = {t: frozenset({2}) for t in range(1, 9)}
    calls = []
    verify = ba._verify

    def counting(O, t, *args):
        calls.append(t)
        return verify(O, t, *args)

    monkeypatch.setattr(ba, "_verify", counting)
    assert _subtask(1, parts, params, "ba") == {frozenset({2}): (1, 2, 3, 4)}
    assert calls == [1]


# ---------------------------------------------------------- VBA specifics

def test_vba_requires_consecutive_steps():
    state = VBAState()
    params = PARAMS
    vba_step(state, 1, frozenset({5}), params)
    with pytest.raises(ValueError):
        vba_step(state, 3, frozenset({5}), params)


def test_vba_episode_closes_after_g_plus_one_absences():
    params = CPParams(m=2, k=2, l=2, g=1, eps=1, min_pts=2, lg=1)
    state = VBAState()
    out = {}
    # Member 9 present at 1,2 then absent: closes at t=4 (G+1=2 zeros).
    seq = {1: {9}, 2: {9}, 3: set(), 4: set(), 5: set()}
    for t in range(1, 6):
        for O, seqs in vba_step(state, t, frozenset(seq[t]), params).items():
            out[O] = seqs
    assert 9 not in state.h
    assert out == {frozenset({9}): [(1, 2)]}


def test_vba_same_round_closures_combine():
    # Two members leave the cluster simultaneously: their joint pattern
    # must still be found (paper Algorithm 5 gap, fixed per DESIGN.md).
    params = CPParams(m=3, k=3, l=3, g=1, eps=1, min_pts=2, lg=1)
    parts = {1: frozenset({5, 6}), 2: frozenset({5, 6}), 3: frozenset({5, 6})}
    found = _subtask(4, parts, params, "vba", t_end=6)
    assert frozenset({5, 6}) in found


def test_vba_reports_only_at_closure():
    # A pattern stays unreported while its episodes are open (latency!).
    params = CPParams(m=2, k=2, l=2, g=1, eps=1, min_pts=2, lg=1)
    state = VBAState()
    assert vba_step(state, 1, frozenset({3}), params) == {}
    assert vba_step(state, 2, frozenset({3}), params) == {}
    assert vba_step(state, 3, frozenset({3}), params) == {}  # still open
    assert vba_step(state, 4, frozenset(), params) == {}
    got = vba_step(state, 5, frozenset(), params)  # G+1 = 2 absences
    assert got == {frozenset({3}): [(1, 2, 3)]}
