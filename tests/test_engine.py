"""EnumerationEngine (incremental FBA/VBA) ≡ the exhaustive reference."""
import numpy as np
import pytest

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
    engine = _drive("fba", clusters)
    # After finish, no anchor may retain more than ~eta partitions.
    for by_t in engine._fba_parts.values():
        assert len(by_t) <= PARAMS.eta


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


def test_engine_empty_stream():
    engine = EnumerationEngine(PARAMS, "vba")
    for t in range(1, 6):
        engine.step(t, {})
    engine.finish()
    assert engine.patterns == {}
