"""Property tests for the paper's pruning lemmas (pure Python).

Lemma 1's guarantee is checked directly: for any two points within L1
distance ϵ, either they share a home cell (Lemma 2 covers them) or
exactly one of them replicates, as a query object, into the other's
home cell under the upper-half rule + tie-break.
"""
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bitstring as bs
from repro.params import CPParams

coord = st.floats(min_value=0, max_value=100, allow_nan=False,
                  allow_infinity=False, width=32)


def home(p, lg):
    return (math.floor(p[0] / lg), math.floor(p[1] / lg))


def upper_cells(p, lg, eps):
    x, y = p
    cells = set()
    for kx in range(math.floor((x - eps) / lg), math.floor((x + eps) / lg) + 1):
        for ky in range(math.floor(y / lg), math.floor((y + eps) / lg) + 1):
            cells.add((kx, ky))
    cells.discard(home(p, lg))
    return cells


@settings(max_examples=400, deadline=None)
@given(x1=coord, y1=coord, x2=coord, y2=coord,
       eps=st.floats(0.1, 20, allow_nan=False),
       lg=st.floats(0.5, 40, allow_nan=False))
def test_lemma1_every_close_pair_is_covered_once(x1, y1, x2, y2, eps, lg):
    u, v = (x1, y1), (x2, y2)
    if abs(x1 - x2) + abs(y1 - y2) > eps:
        return
    hu, hv = home(u, lg), home(v, lg)
    if hu == hv:
        return  # found by Lemma 2 inside the shared cell, exactly once
    # Implementation rule: query object u keeps hit v iff v.y > u.y, or
    # v.y == u.y and v.id > u.id (ids modeled as u=1, v=2 here).
    u_finds = hv in upper_cells(u, lg, eps) and v[1] >= u[1]
    v_finds = hu in upper_cells(v, lg, eps) and u[1] > v[1]
    assert u_finds ^ v_finds  # found exactly once: no miss, no duplicate


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(0, (1 << 14) - 1), k=st.integers(1, 6),
       l=st.integers(1, 4), g=st.integers(1, 4))
def test_lemma4_eta_window_suffices(bits, k, l, g):
    # If a string is valid at all, it is valid inside SOME eta-window:
    # Lemma 4's guarantee that window-based verification misses nothing.
    if l > k:
        k = l
    eta = CPParams(m=2, k=k, l=l, g=g).eta
    if not bs.is_valid(bits, k, l, g):
        return
    mask = (1 << eta) - 1
    assert any(
        bs.is_valid((bits >> s) & mask, k, l, g) for s in range(14)
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5))
def test_lemma8_prune_is_sound(seed, k):
    # A pruned combination can never hide a valid pattern: if the span
    # overlap holds fewer than K snapshots, the AND has < K ones. A kept
    # one ANDs to exactly the common times.
    import random
    rng = random.Random(seed)
    sts = [rng.randint(1, 20) for _ in range(3)]
    strs = []
    for st_i in sts:
        width = rng.randint(1, 10)
        strs.append((st_i, st_i + width - 1,
                     rng.randint(1, (1 << width) - 1)))
    common = set.intersection(*(set(bs.to_times(b, s)) for s, _, b in strs))
    r = strs[0]
    for s in strs[1:]:
        r = r and bs.and_overlap(r, s, k)
    if r is None:
        assert len(common) < k
        assert not bs.is_valid(bs.from_times(common, 0, 32), k, 1, 1)
    else:
        assert set(bs.to_times(r[2], r[0])) == common
