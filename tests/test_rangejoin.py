"""Range-join correctness: RJC = SRJ = GDC = brute force = DuckDB oracle.

RJC must additionally emit each unordered pair exactly once *without*
deduplication (that is the point of Lemmas 1 and 2).
"""
import math
import re

import numpy as np
import pandas as pd
import pytest

from repro import trajgen
from repro.cluster.gdc import gdc_pairs
from repro.cluster.grid import GRIDOBJ_SCHEMA_COLS, allocate, with_home_key
from repro.cluster.rangejoin import (_grid_query_cell, canonical, grid_sync,
                                     rjc_pairs)
from repro.cluster.srj import _cell_join, srj_pairs
from repro.core.reference import brute_pairs
from repro.oracle import assert_equivalent
from repro.trajgen import TrajConfig

EPS, LG = 6.0, 25.0


def _cloud(n=120, n_t=3, extent=100.0, seed=0):
    g = np.random.default_rng(seed)
    return pd.DataFrame({
        "oid": np.tile(np.arange(n), n_t).astype(np.int64),
        "t": np.repeat(np.arange(1, n_t + 1), n).astype(np.int64),
        "x": g.uniform(0, extent, n * n_t),
        "y": g.uniform(0, extent, n * n_t),
    })


def _expected(pdf, eps):
    out = set()
    for t, snap in pdf.groupby("t"):
        for a, b in brute_pairs(snap, eps):
            out.add((t, a, b))
    return out


def _got(df):
    return {(r.t, r.a, r.b) for r in canonical(df).collect()}


# ----------------------------------------------------------- GridAllocate

def test_home_key_paper_example(spark):
    # Sec 5.1: o5 = (4, 8) with lg = 3 lives in cell <1, 2>.
    df = spark.createDataFrame(
        pd.DataFrame({"t": [1], "oid": [5], "x": [4.0], "y": [8.0]}),
        schema="t long, oid long, x double, y double",
    )
    row = with_home_key(df, 3.0).collect()[0]
    assert (row.kx, row.ky) == (1, 2)


def test_allocate_upper_half_cells(spark):
    # A point at cell center with eps < lg/2: upper-half allocation must
    # produce 1 data object + the 2 upper/side cells... precisely:
    # x range spans 1 cell, y range spans home+above only when eps
    # crosses the boundary. Place it near the top-right corner instead.
    df = spark.createDataFrame(
        pd.DataFrame({"t": [1], "oid": [9], "x": [29.0], "y": [28.0]}),
        schema="t long, oid long, x double, y double",
    )
    out = allocate(df, lg=10.0, eps=3.0, upper_half=True).collect()
    data = [(r.kx, r.ky) for r in out if not r.flag]
    queries = {(r.kx, r.ky) for r in out if r.flag}
    assert data == [(2, 2)]
    # x in [26,32] -> kx in {2,3}; y in [28,31] -> ky in {2,3}; minus home.
    assert queries == {(3, 2), (2, 3), (3, 3)}


def test_allocate_full_square_superset(spark):
    pdf = _cloud(n=40, n_t=1, seed=3)
    df = spark.createDataFrame(pdf, schema=trajgen.SNAPSHOT_SCHEMA[:0] or
                               "oid long, t long, x double, y double")
    up = allocate(df, lg=LG, eps=EPS, upper_half=True)
    full = allocate(df, lg=LG, eps=EPS, upper_half=False)
    up_set = {(r.t, r.kx, r.ky, r.flag, r.oid) for r in up.collect()}
    full_set = {(r.t, r.kx, r.ky, r.flag, r.oid) for r in full.collect()}
    assert up_set <= full_set
    assert len(up_set) < len(full_set)  # Lemma 1 actually prunes replicas


# Each case: points, lg, eps — negative coordinates, points on cell edges,
# x ± ϵ landing exactly on a cell edge, and ϵ ≥ lg.
ALLOCATE_CASES = {
    "negative": ([(-5.0, -12.5), (-0.1, 3.0), (-29.0, -28.0)], 10.0, 3.0),
    "on_edge": ([(20.0, 10.0), (0.0, 0.0), (-10.0, 30.0)], 10.0, 3.0),
    "eps_to_edge": ([(7.5, 7.5), (12.5, 2.5), (-7.5, -12.5)], 10.0, 2.5),
    "eps_ge_lg": ([(3.0, -4.0), (17.5, 2.5), (0.0, 5.0)], 5.0, 12.0),
}


def _allocate_reference(pdf, lg, eps, upper_half):
    """Definition 12 over the Lemma 1 key ranges, in plain Python: one
    row per probed cell of every location, flagged unless it is home."""
    rows = []
    for t, oid, x, y in pdf[["t", "oid", "x", "y"]].itertuples(index=False):
        home = (math.floor(x / lg), math.floor(y / lg))
        y_lo = y if upper_half else y - eps
        for kx in range(math.floor((x - eps) / lg),
                        math.floor((x + eps) / lg) + 1):
            for ky in range(math.floor(y_lo / lg),
                            math.floor((y + eps) / lg) + 1):
                rows.append((t, kx, ky, (kx, ky) != home, oid, x, y))
    return sorted(rows)


@pytest.mark.parametrize("upper_half", [True, False], ids=["upper", "full"])
@pytest.mark.parametrize("case", ALLOCATE_CASES)
def test_allocate_matches_definition(spark, case, upper_half):
    xy, lg, eps = ALLOCATE_CASES[case]
    pdf = _points(xy)
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    out = allocate(df, lg=lg, eps=eps, upper_half=upper_half)
    assert out.columns == GRIDOBJ_SCHEMA_COLS
    got = sorted(tuple(r) for r in out.collect())
    assert got == _allocate_reference(pdf, lg, eps, upper_half)
    assert sum(not r[3] for r in got) == len(xy)  # one data object each


def test_allocate_is_one_generator(spark):
    # The data object is the home cell of the probed square, so one
    # generator emits every GridObject: no union, one scan of the input.
    df = spark.createDataFrame(_points([(1.0, 2.0)]),
                               schema="oid long, t long, x double, y double")
    for upper_half in (True, False):
        plan = allocate(df, lg=10.0, eps=3.0, upper_half=upper_half
                        )._jdf.queryExecution().optimizedPlan().toString()
        nodes = [re.match(r"[\s:+|-]*(\w+)", line).group(1)
                 for line in plan.splitlines() if line.strip()]
        assert "Union" not in nodes
        assert nodes.count("Generate") == 1


# ------------------------------------------------------------ correctness

@pytest.mark.parametrize("method", ["rjc", "srj", "gdc"])
def test_methods_match_bruteforce(spark, method):
    pdf = _cloud(n=150, n_t=3, seed=11)
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    fn = {"rjc": rjc_pairs, "srj": srj_pairs, "gdc": gdc_pairs}[method]
    kw = {"eps": EPS} if method == "gdc" else {"eps": EPS, "lg": LG}
    assert _got(fn(df, **kw)) == _expected(pdf, EPS)


@pytest.mark.parametrize("eps,lg", [(2.0, 10.0), (6.0, 5.0), (12.0, 12.0),
                                    (25.0, 40.0), (0.5, 50.0)])
def test_rjc_eps_lg_grid(spark, eps, lg):
    # eps smaller, equal and larger than lg; all must agree with brute force.
    pdf = _cloud(n=100, n_t=2, seed=int(eps * 10 + lg))
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    assert _got(rjc_pairs(df, eps=eps, lg=lg)) == _expected(pdf, eps)


def test_rjc_no_duplicates_without_dedup(spark):
    pdf = _cloud(n=200, n_t=2, seed=5)
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    rows = canonical(rjc_pairs(df, eps=EPS, lg=LG)).collect()
    assert len(rows) == len({(r.t, r.a, r.b) for r in rows})


def test_rjc_handles_exact_y_ties(spark):
    # Equal-y points in different cells: the id tie-break must emit the
    # pair exactly once (DESIGN.md).
    pdf = pd.DataFrame({
        "oid": [1, 2, 3, 4],
        "t": [1, 1, 1, 1],
        "x": [9.0, 11.0, 9.0, 11.0],   # straddle the cell border at x=10
        "y": [5.0, 5.0, 7.0, 7.0],
    })
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    rows = rjc_pairs(df, eps=4.0, lg=10.0).collect()
    got = sorted((min(r.a, r.b), max(r.a, r.b)) for r in rows)
    # All six pairs are within L1 distance 4 (diagonals are exactly 4);
    # crucially each appears exactly once despite the equal-y ties.
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_rjc_matches_oracle(spark):
    pdf = _cloud(n=120, n_t=2, seed=17)
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    out = canonical(rjc_pairs(df, eps=EPS, lg=LG))
    assert_equivalent(
        out,
        f"""
        SELECT p.t AS t, p.oid AS a, q.oid AS b
        FROM pts p JOIN pts q
          ON p.t = q.t AND p.oid < q.oid
         AND abs(p.x - q.x) + abs(p.y - q.y) <= {EPS}
        """,
        pts=pdf,
    )


def test_grid_sync_symmetric(spark):
    pdf = _cloud(n=60, n_t=1, seed=23)
    df = spark.createDataFrame(pdf, schema="oid long, t long, x double, y double")
    sym = grid_sync(rjc_pairs(df, eps=EPS, lg=LG)).collect()
    s = {(r.t, r.a, r.b) for r in sym}
    assert len(sym) == len(s)            # symmetrization introduces no dupes
    assert all((t, b, a) in s for t, a, b in s)
    assert len(s) == 2 * len(_expected(pdf, EPS))


# ------------------------------------------------- per-cell dispatch

def _pairs_with_conf(spark, pairs, conf):
    old = {k: spark.conf.get(k) for k in conf}
    for k, v in conf.items():
        spark.conf.set(k, v)
    try:
        return _got(pairs)
    finally:
        for k, v in old.items():
            spark.conf.set(k, v)


@pytest.mark.parametrize("data", ["cloud", "one_cell", "empty"])
@pytest.mark.parametrize("method", ["rjc", "srj", "gdc"])
def test_per_cell_bucket_count_invariant(spark, method, data):
    # spark.sql.shuffle.partitions bounds the cell buckets per_cell hashes
    # the GridObjects into; 1 puts every cell into one Python call. With 8
    # uncoalesced buckets and few cells some buckets are empty, and with
    # no snapshots all of them are. The pairs must not depend on it.
    shuffle = "spark.sql.shuffle.partitions"
    coalesce = "spark.sql.adaptive.coalescePartitions.enabled"
    before = {k: spark.conf.get(k) for k in (shuffle, coalesce)}
    pdf = {"cloud": _cloud(n=150, n_t=3, seed=29),
           "one_cell": _points([(11.0, 11.0), (12.0, 13.0), (14.0, 12.0)]),
           "empty": _points([(0.0, 0.0)]).iloc[:0]}[data]
    df = spark.createDataFrame(pdf[["oid", "t", "x", "y"]],
                               schema="oid long, t long, x double, y double")
    fn = {"rjc": rjc_pairs, "srj": srj_pairs, "gdc": gdc_pairs}[method]
    kw = {"eps": EPS} if method == "gdc" else {"eps": EPS, "lg": LG}
    spread = _pairs_with_conf(spark, fn(df, **kw),
                              {shuffle: "8", coalesce: "false"})
    single = _pairs_with_conf(spark, fn(df, **kw), {shuffle: "1"})
    assert spread == single == _expected(pdf, EPS)
    assert (len(spread) > 0) == (data != "empty")
    assert {k: spark.conf.get(k) for k in before} == before


def test_trajectory_data_end_to_end_pairs(spark):
    cfg = TrajConfig(n_objects=80, n_snapshots=5, seed=31)
    pdf = trajgen.generate(cfg)
    df = trajgen.to_spark(spark, pdf)
    eps, lg = 8.0, 40.0
    assert _got(rjc_pairs(df, eps=eps, lg=lg)) == _expected(pdf, eps)


# ------------------------------------------- per-cell window kernels
#
# GridObjects are built once per case with Spark's GridAllocate, then
# every cell is handed to the kernel serially — the same call Spark's
# GridQuery makes per keyed cell subtask.

def _gridobjects(spark, pdf, eps, lg, upper_half):
    df = spark.createDataFrame(pdf[["oid", "t", "x", "y"]],
                               schema="oid long, t long, x double, y double")
    return allocate(df, lg=lg, eps=eps, upper_half=upper_half).toPandas()


def _serial_rows(kernel, gobj, eps):
    """(t, least, greatest) of every row the kernel emits, over all cells."""
    rows = []
    for _, cell in gobj.groupby(["kx", "ky"]):
        out = kernel(cell, eps)
        rows += [(t, min(a, b), max(a, b))
                 for t, a, b in zip(out["t"], out["a"], out["b"])]
    return rows


def _check_kernels(spark, pdf, eps, lg):
    """RJC: each brute-force pair exactly once; SRJ: same pair set."""
    expect = _expected(pdf, eps)
    rjc = _serial_rows(_grid_query_cell,
                       _gridobjects(spark, pdf, eps, lg, True), eps)
    assert len(rjc) == len(set(rjc))
    assert set(rjc) == expect
    srj = _serial_rows(_cell_join, _gridobjects(spark, pdf, eps, lg, False),
                       eps)
    assert set(srj) == expect
    return expect


def _points(xy, t=1):
    return pd.DataFrame({
        "oid": np.arange(len(xy), dtype=np.int64),
        "t": np.full(len(xy), t, dtype=np.int64),
        "x": [float(p[0]) for p in xy],
        "y": [float(p[1]) for p in xy],
    })


def test_kernels_emit_pair_at_exactly_eps(spark):
    # L1 distance exactly ϵ within a cell and across the x=10 border;
    # 4.5 > ϵ is not a pair.
    pdf = _points([(1.0, 1.0), (3.0, 3.0), (9.0, 5.0), (11.0, 7.0),
                   (11.5, 7.0)])
    expect = _check_kernels(spark, pdf, eps=4.0, lg=10.0)
    assert {(1, 0, 1), (1, 2, 3)} <= expect
    assert (1, 2, 4) not in expect


def test_kernels_coincident_points_each_pair_once(spark):
    # k coincident points give C(k, 2) pairs — inside a cell and on a
    # cell corner, where the copies are also query objects elsewhere.
    k = 6
    pdf = _points([(2.5, 2.5)] * k + [(10.0, 10.0)] * k)
    expect = _check_kernels(spark, pdf, eps=1.0, lg=10.0)
    assert len(expect) == 2 * k * (k - 1) // 2


def test_kernels_equal_x_at_window_edge(spark):
    # Several data objects share x = probe.x ± ϵ exactly (searchsorted
    # sides), with dy = 0 (L1 = ϵ, kept) and dy = 0.5 (dropped).
    pdf = _points([(5.0, 5.0), (7.0, 5.0), (7.0, 5.0), (7.0, 5.5),
                   (3.0, 5.0), (3.0, 4.5), (3.0, 5.0), (5.0, 3.0)])
    expect = _check_kernels(spark, pdf, eps=2.0, lg=20.0)
    assert {(1, 0, 1), (1, 0, 2), (1, 0, 4), (1, 0, 6), (1, 0, 7)} <= expect
    assert (1, 0, 3) not in expect and (1, 0, 5) not in expect


def test_kernels_query_only_cell_gives_no_rows(spark):
    pdf = _points([(9.0, 5.0), (8.5, 5.5)])
    for upper_half, kernel in ((True, _grid_query_cell), (False, _cell_join)):
        gobj = _gridobjects(spark, pdf, eps=2.0, lg=10.0,
                            upper_half=upper_half)
        cells = [c for _, c in gobj.groupby(["kx", "ky"]) if c["flag"].all()]
        assert cells
        assert all(len(kernel(c, 2.0)) == 0 for c in cells)


@pytest.mark.parametrize("eps", [3.0, 5.0, 7.5])   # ϵ < lg, = lg, > lg
def test_kernels_lattice_cloud_match_bruteforce(spark, eps):
    # Coordinates on a 0.5 lattice: equal x, equal y, coincident points,
    # L1 distances of exactly ϵ and points on cell borders are common.
    pdf = _cloud(n=150, n_t=2, extent=20.0, seed=int(eps * 10))
    pdf["x"] = (pdf["x"] * 2).round() / 2
    pdf["y"] = (pdf["y"] * 2).round() / 2
    _check_kernels(spark, pdf, eps=eps, lg=5.0)
