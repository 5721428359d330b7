"""EnumerationEngine (incremental FBA/VBA) ≡ the exhaustive reference."""
import numpy as np
import pytest

from repro.core import bitstring as bs
from repro.core.reference import reference_patterns
from repro.enumeration.engine import EnumerationEngine, run_engine
from repro.enumeration.partition import id_partitions_py
from repro.params import CPParams

PARAMS = CPParams(m=3, k=4, l=2, g=2, eps=1, min_pts=2, lg=1)


def _random_clusters(n_obj, n_t, n_clusters, p_member, seed):
    g = np.random.default_rng(seed)
    return {
        t: {oid: int(g.integers(0, n_clusters))
            for oid in range(n_obj) if g.random() < p_member}
        for t in range(1, n_t + 1)
    }


def _drive(method, clusters):
    parts = id_partitions_py(clusters, PARAMS.m)
    return run_engine(parts, PARAMS, method, t_end=max(clusters))


@pytest.mark.parametrize("method", ["fba", "vba"])
@pytest.mark.parametrize("seed", range(5))
def test_engine_matches_reference(method, seed):
    clusters = _random_clusters(8, 15, 2, 0.65, seed)
    engine = _drive(method, clusters)
    assert set(engine.patterns) == set(reference_patterns(clusters, PARAMS))


def test_engine_metrics_consistent():
    clusters = _random_clusters(8, 15, 2, 0.7, seed=42)
    engine = _drive("fba", clusters)
    assert len(engine.delays) == len(engine.patterns)
    assert all(d >= 0 for d in engine.delays)


def test_engine_fba_prunes_old_state():
    clusters = _random_clusters(6, 40, 2, 0.6, seed=7)
    # No anchor may retain more than ~eta partitions, and finish drops
    # every anchor's spent window buffer.
    peak = 0
    engine = EnumerationEngine(PARAMS, "fba")
    parts = id_partitions_py(clusters, PARAMS.m)
    for t in sorted(clusters):
        engine.step(t, {a: by_t[t] for a, by_t in parts.items() if t in by_t})
        peak = max([peak, *map(len, engine._fba_parts.values())])
    assert 0 < peak <= PARAMS.eta
    engine.finish()
    assert engine._fba_parts == {}


def test_engine_fba_delay_at_most_window():
    # FBA reports at window close: delay can never exceed eta.
    clusters = _random_clusters(8, 20, 2, 0.7, seed=9)
    engine = _drive("fba", clusters)
    assert all(d <= PARAMS.eta for d in engine.delays)


def test_engine_vba_state_bounded(monkeypatch):
    # Candidate GC keeps VBA's candidate lists bounded on a long stream
    # (without it the peak grows with the stream: 46 at 800 snapshots)
    # and loses no pattern.
    clusters = _random_clusters(8, 800, 2, 0.65, seed=0)
    peak = 0
    step = EnumerationEngine.step

    def step_and_measure(self, t, parts_t):
        nonlocal peak
        step(self, t, parts_t)
        peak = max(peak, sum(len(s.c) for s in self._vba.values()))

    monkeypatch.setattr(EnumerationEngine, "step", step_and_measure)
    engine = _drive("vba", clusters)
    assert 0 < peak <= 8
    assert set(engine.patterns) == set(reference_patterns(clusters, PARAMS))
    assert engine._vba == {}  # every anchor's H emptied: its state dropped


def _first_valid_oracle(seq, params):
    """Smallest τ whose witness prefix is (K,L,G)-valid, by is_valid."""
    lo, width = seq[0], seq[-1] - seq[0] + 1
    bits = bs.from_times(seq, lo, width)
    for tau in range(width):
        if bits >> tau & 1 and bs.is_valid(bits & ((2 << tau) - 1),
                                           params.k, params.l, params.g):
            return lo + tau
    return None


def test_first_valid_hand_cases():
    # K is reached inside a segment shorter than L: valid only once that
    # segment holds L times.
    for (k, l, g), seq, tau in [
        ((4, 3, 2), (1, 2, 3, 5, 6, 7), 7),
        ((3, 2, 2), (1, 2, 4, 5), 5),
        ((3, 2, 3), (1, 2, 5, 6, 7), 6),
        ((2, 1, 2), (4, 6), 6),
        ((4, 2, 2), (1, 2, 3, 4), 4),
    ]:
        params = CPParams(m=2, k=k, l=l, g=g)
        assert _first_valid_oracle(seq, params) == tau
        assert EnumerationEngine(params)._first_valid(seq) == tau


@pytest.mark.parametrize("method", ["ba", "fba", "vba"])
def test_delay_is_report_time_minus_first_valid(method, monkeypatch):
    # Every reported pattern's delay is now − τ, τ the end of the
    # witness's shortest (K,L,G)-valid prefix.
    reported = []
    report = EnumerationEngine._report

    def report_and_record(self, anchor, found, now):
        n = len(self.delays)
        report(self, anchor, found, now)
        reported.extend([now] * (len(self.delays) - n))

    monkeypatch.setattr(EnumerationEngine, "_report", report_and_record)
    g = np.random.default_rng(3)
    checked = 0
    for seed in range(100):
        k = int(g.integers(2, 6))
        params = CPParams(m=int(g.integers(2, 4)), k=k,
                          l=int(g.integers(1, k + 1)), g=int(g.integers(1, 4)))
        clusters = _random_clusters(int(g.integers(4, 8)),
                                    int(g.integers(6, 20)), 2,
                                    float(g.uniform(0.4, 0.9)), seed)
        reported.clear()
        engine = run_engine(id_partitions_py(clusters, params.m), params,
                            method, t_end=max(clusters))
        assert len(reported) == len(engine.delays) == len(engine.patterns)
        for T, now, d in zip(engine.patterns.values(), reported,
                             engine.delays):
            assert d == now - _first_valid_oracle(T, params)
            checked += 1
    assert checked > 100


def test_engine_empty_stream():
    engine = EnumerationEngine(PARAMS, "vba")
    for t in range(1, 6):
        engine.step(t, {})
    engine.finish()
    assert engine.patterns == {}


def _stream_end_variants(parts, params, method):
    """Patterns with the stream ending at its last partition (``t_end``
    unset and set), G+5 snapshots later, and with the anchors split over
    two engines that each end at their own last partition."""
    t_last = max(t for by_t in parts.values() for t in by_t)
    out = [run_engine(parts, params, method).patterns]
    for t_end in (t_last, t_last + params.g + 5):
        out.append(run_engine(parts, params, method, t_end=t_end).patterns)
    anchors = sorted(parts)
    split = {}
    for half in (anchors[::2], anchors[1::2]):
        split.update(run_engine({a: parts[a] for a in half}, params,
                                method).patterns)
    out.append(split)
    return out


def test_vba_stream_end_counterexample():
    # Found by a seeded search: a flush that closed oid 2's episode 9..13
    # and oid 4's 1..11 in one round reported {1, 2, 4} at (9, 10, 11),
    # while online oid 4 closes first, at t=15, and reports (1, 2) with
    # oid 2's closed episode 1..2. Anchor 7 runs its engine on to t=20.
    params = CPParams(m=3, k=2, l=1, g=3)
    p1 = {1: {2, 4}, 2: {2, 4}, 5: {4}, 9: {2, 4}, 10: {2, 4}, 11: {2, 4},
          13: {2}}
    parts = {1: {t: frozenset(s) for t, s in p1.items()},
             7: {t: frozenset({8}) for t in (18, 19, 20)}}
    for patterns in _stream_end_variants(parts, params, "vba"):
        assert patterns[frozenset({1, 2, 4})] == (1, 2)


@pytest.mark.parametrize("method", ["ba", "fba", "vba"])
def test_engine_result_independent_of_stream_end(method):
    # Patterns and witnesses are those of the online stream, whatever
    # end the stream is given and however anchors are bucketed.
    g = np.random.default_rng(5)
    for seed in range(40):
        k = int(g.integers(2, 5))
        params = CPParams(m=int(g.integers(2, 4)), k=k,
                          l=int(g.integers(1, k + 1)), g=int(g.integers(1, 4)))
        clusters = _random_clusters(int(g.integers(4, 8)),
                                    int(g.integers(6, 16)), 2,
                                    float(g.uniform(0.4, 0.8)), seed)
        parts = id_partitions_py(clusters, params.m)
        if not parts:
            continue
        first, *rest = _stream_end_variants(parts, params, method)
        assert all(p == first for p in rest), (seed, params)
