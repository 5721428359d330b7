"""Synthetic streaming-trajectory generators (dataset substitutes).

The paper evaluates on GeoLife (real), Taxi (proprietary) and Brinkhoff
(road-network generator). None are shippable here, so this module
generates *group-structured* streaming trajectories whose knobs map to
exactly the properties the paper's algorithms are sensitive to:

- per-snapshot spatial density        → range-join / clustering cost,
- group count / size / cohesion       → cluster-size distribution
                                        (drives enumeration cost),
- membership churn and report dropout → temporal gaps (drives the
                                        K/L/G pruning lemmas).

Presets ``geolife_like``, ``taxi_like`` and ``brinkhoff_like`` differ in
object count, stream length, density and churn, mirroring Table 2's
relative characteristics at ~50x reduced scale. Brinkhoff-like movement
is Manhattan-style (axis-aligned street steps) like the road-network
generator it stands in for.

All generators are deterministic in ``seed``. Output is a pandas frame
``(oid, t, x, y)`` with ``t`` the 1-based snapshot index; helpers add
raw timestamps and the paper's "last time" field, and lift to Spark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

SNAPSHOT_SCHEMA = "oid long, t long, x double, y double"
RECORD_SCHEMA = "oid long, ts double, x double, y double, last_t long"


@dataclass(frozen=True)
class TrajConfig:
    """Knobs of the group-structured walker generator."""

    n_objects: int = 200
    n_snapshots: int = 60
    n_groups: int = 8
    grouped_frac: float = 0.7  # fraction of objects assigned to groups
    extent: float = 1000.0     # space is [0, extent]^2
    speed: float = 8.0         # max per-snapshot step of a group anchor
    cohesion: float = 3.0      # max |offset| of a core member from its anchor
    churn: float = 0.02        # P(member starts an away excursion per snapshot)
    away_len: int = 4          # mean excursion length (geometric)
    dropout: float = 0.02      # P(object misses a report at a snapshot)
    manhattan: bool = False    # axis-aligned (road-like) movement
    fringe_frac: float = 0.0   # fraction of grouped members that are "fringe"
    fringe_spread: float = 8.0 # fringe offset bound = cohesion * U(1, spread)
    hotspot_frac: float = 1.0  # movement confined to [0, extent*frac]^2
    seed: int = 0

    @property
    def l1_extent(self) -> float:
        """Maximal L1 distance of the dataset (basis for %-style eps/lg)."""
        return 2.0 * self.extent


def _walk(g: np.random.Generator, n_steps: int, n_walkers: int,
          extent: float, speed: float, manhattan: bool,
          start: np.ndarray | None = None) -> np.ndarray:
    """Random walks reflected into [0, extent]^2 → (n_steps, n_walkers, 2)."""
    if start is None:
        start = g.uniform(0, extent, size=(n_walkers, 2))
    steps = g.uniform(-speed, speed, size=(n_steps, n_walkers, 2))
    if manhattan:
        # Move along one axis per step, like street-bound traffic.
        axis = g.integers(0, 2, size=(n_steps, n_walkers))
        mask = np.stack([axis == 0, axis == 1], axis=-1)
        steps = steps * mask
    pos = start[None, :, :] + np.cumsum(steps, axis=0)
    # Reflect into the box: fold the real line onto [0, 2*extent] then mirror.
    pos = np.abs(np.mod(pos, 2 * extent))
    return np.where(pos > extent, 2 * extent - pos, pos)


def generate(cfg: TrajConfig) -> pd.DataFrame:
    """Generate snapshots ``(oid, t, x, y)``, t = 1..n_snapshots.

    Objects 0..n_grouped-1 belong to groups (round-robin); the rest are
    independent noise walkers. A grouped member follows its group anchor
    plus a bounded offset, except during "away" excursions, when it
    follows an independent fast walk (leaving the cluster and creating
    the temporal gaps that exercise the L/G constraints). Dropout removes
    individual reports entirely (gaps in the trajectory itself).

    A ``fringe_frac`` share of grouped members gets a per-member offset
    bound of ``cohesion × U(1, fringe_spread)``: loose followers that
    fall inside the DBSCAN reach only at larger ϵ — this is what makes
    the average cluster size grow with ϵ (the paper's Fig 12/13 curves).
    """
    g = np.random.default_rng(cfg.seed)
    n, T = cfg.n_objects, cfg.n_snapshots
    n_grouped = int(round(n * cfg.grouped_frac)) if cfg.n_groups > 0 else 0
    # Spatial skew: real movement data concentrates in a "city center";
    # ϵ/lg percentages still refer to the full extent (max distance).
    box = cfg.extent * cfg.hotspot_frac

    pos = np.empty((T, n, 2))
    if n_grouped:
        anchors = _walk(g, T, cfg.n_groups, box, cfg.speed, cfg.manhattan)
        member_group = np.arange(n_grouped) % cfg.n_groups
        # Bounded offset noise around the anchor (random per snapshot).
        # Fringe members use a fixed per-member looser bound.
        scale = np.ones(n_grouped)
        n_fringe = int(round(n_grouped * cfg.fringe_frac))
        if n_fringe:
            fringe_ids = g.choice(n_grouped, size=n_fringe, replace=False)
            scale[fringe_ids] = g.uniform(1.0, cfg.fringe_spread, n_fringe)
        bound = cfg.cohesion * scale
        off = g.uniform(-1.0, 1.0, size=(T, n_grouped, 2)) * bound[None, :, None]
        pos[:, :n_grouped, :] = anchors[:, member_group, :] + off
        # Away excursions: per member, geometric-length windows of absence.
        away = np.zeros((T, n_grouped), dtype=bool)
        starts = g.random((T, n_grouped)) < cfg.churn
        lengths = g.geometric(1.0 / max(cfg.away_len, 1), size=(T, n_grouped))
        for t0, m in zip(*np.nonzero(starts)):
            away[t0 : t0 + lengths[t0, m], m] = True
        if away.any():
            stray = _walk(g, T, n_grouped, box, cfg.speed * 4,
                          cfg.manhattan)
            pos[:, :n_grouped, :] = np.where(
                away[:, :, None], stray, pos[:, :n_grouped, :]
            )
    if n - n_grouped:
        pos[:, n_grouped:, :] = _walk(
            g, T, n - n_grouped, box, cfg.speed * 2, cfg.manhattan
        )
    pos = np.clip(pos, 0.0, cfg.extent)

    report = g.random((T, n)) >= cfg.dropout
    t_idx, o_idx = np.nonzero(report)
    return pd.DataFrame(
        {
            "oid": o_idx.astype(np.int64),
            "t": (t_idx + 1).astype(np.int64),  # snapshots are 1-based
            "x": pos[t_idx, o_idx, 0],
            "y": pos[t_idx, o_idx, 1],
        }
    ).sort_values(["t", "oid"], ignore_index=True)


def with_last_time(snapshots: pd.DataFrame) -> pd.DataFrame:
    """Add the paper's "last time" column (Sec 4 time synchronization).

    ``last_t`` is the snapshot index of the trajectory's previous report,
    or -1 for its first record.
    """
    df = snapshots.sort_values(["oid", "t"], ignore_index=True).copy()
    prev = df.groupby("oid")["t"].shift(1)
    df["last_t"] = prev.fillna(-1).astype(np.int64)
    return df


def to_records(snapshots: pd.DataFrame, *, t0: float = 0.0,
               interval: float = 5.0, jitter_seed: int = 7) -> pd.DataFrame:
    """Turn snapshots into raw GPS records ``(oid, ts, x, y, last_t)``.

    ``ts`` falls uniformly inside snapshot ``t``'s interval so that
    ``discretize.discretize`` recovers ``t`` exactly (Sec 3.1).
    """
    df = with_last_time(snapshots)
    g = np.random.default_rng(jitter_seed)
    # t is 1-based: interval i covers [t0 + (i-1)*dur, t0 + i*dur).
    df["ts"] = t0 + (df["t"].to_numpy() - 1 + g.random(len(df))) * interval
    return df[["oid", "ts", "x", "y", "last_t"]]


def to_spark(spark: SparkSession, pdf: pd.DataFrame,
             schema: str = SNAPSHOT_SCHEMA) -> DataFrame:
    """Lift a generated pandas frame to a Spark DataFrame."""
    return spark.createDataFrame(pdf, schema=schema)


# ---------------------------------------------------------------- presets

def geolife_like(*, or_ratio: float = 1.0, seed: int = 0,
                 n_snapshots: int = 60) -> TrajConfig:
    """GeoLife substitute: moderate population, dense city-like groups.

    Cohesion is sized so groups cluster at the default ϵ = 0.06% of the
    max L1 distance (= 1.2 for extent 1000), per Table 3's %-style ϵ.
    """
    return _scaled(TrajConfig(
        n_objects=200, n_snapshots=n_snapshots, n_groups=10, grouped_frac=0.75,
        extent=1000.0, speed=8.0, cohesion=0.4, churn=0.08, away_len=4,
        dropout=0.03, manhattan=False, fringe_frac=0.5, fringe_spread=8.0,
        hotspot_frac=0.3, seed=seed,
    ), or_ratio)


def taxi_like(*, or_ratio: float = 1.0, seed: int = 1,
              n_snapshots: int = 100) -> TrajConfig:
    """Taxi substitute: largest population and longest stream (cf. Table 2).

    12 groups of ~20 members (at Or = 100%): large enough that BA's
    2^|P| enumeration blows past its budget at high Or, exactly like
    Fig 12's missing B bars.
    """
    return _scaled(TrajConfig(
        n_objects=320, n_snapshots=n_snapshots, n_groups=12, grouped_frac=0.75,
        extent=1200.0, speed=10.0, cohesion=0.5, churn=0.08, away_len=4,
        dropout=0.02, manhattan=False, fringe_frac=0.5, fringe_spread=8.0,
        hotspot_frac=0.3, seed=seed,
    ), or_ratio)


def brinkhoff_like(*, or_ratio: float = 1.0, seed: int = 2,
                   n_snapshots: int = 80) -> TrajConfig:
    """Brinkhoff substitute: road-network (Manhattan-step) movement."""
    return _scaled(TrajConfig(
        n_objects=250, n_snapshots=n_snapshots, n_groups=10, grouped_frac=0.75,
        extent=1000.0, speed=9.0, cohesion=0.4, churn=0.08, away_len=4,
        dropout=0.02, manhattan=True, fringe_frac=0.5, fringe_spread=8.0,
        hotspot_frac=0.3, seed=seed,
    ), or_ratio)


def _scaled(cfg: TrajConfig, or_ratio: float) -> TrajConfig:
    """Apply the paper's Or knob (ratio of objects used).

    The group count scales with √Or so that the members-per-group —
    and with it the average cluster size — grows with Or, reproducing
    the Fig 12 cluster-size curve (and BA's blow-up at high Or).
    """
    if not (0 < or_ratio <= 1):
        raise ValueError(f"or_ratio must be in (0, 1], got {or_ratio}")
    if or_ratio == 1.0:
        return cfg
    n = max(2, int(round(cfg.n_objects * or_ratio)))
    n_groups = max(1, int(round(cfg.n_groups * or_ratio**0.5)))
    return TrajConfig(**{**cfg.__dict__, "n_objects": n, "n_groups": n_groups})
