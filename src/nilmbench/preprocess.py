"""Channel and building transformations run before training/disaggregation."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .data import Building, Channel, Measurement, VOLTAGE, is_aligned
from .stats import energy_joules

# The interpolation cap has no authoritative value; 5 sample periods keeps
# forward-filling local.
DEFAULT_MAX_GAP_FACTOR = 5.0


def _mode(blocks: np.ndarray) -> np.ndarray:
    """Most frequent value of each row, by the rule of ``np.unique``.

    Each row is sorted, NaN counts as equal to NaN, and the first element of
    the earliest longest run is returned, so ties break toward the smaller
    value and NaN (sorted last) loses every tie.
    """
    s = np.sort(blocks, axis=1)
    pos = np.arange(s.shape[1])
    nan = np.isnan(s)
    new_run = np.ones(s.shape, dtype=bool)
    new_run[:, 1:] = (s[:, 1:] != s[:, :-1]) & ~(nan[:, 1:] & nan[:, :-1])
    run_start = np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    run_len = pos - run_start + 1
    longest = run_len.max(axis=1)
    # The first position where a run reaches the row's longest length ends
    # the earliest longest run.
    end = np.argmax(run_len == longest[:, None], axis=1)
    return s[np.arange(s.shape[0]), end - longest + 1]


# Aggregation name -> reducer of a (bins, k) block of k samples per bin,
# returning one value per bin.  Each row holds one bin's samples in time
# order, so every reducer sees what a per-bin call would see.
AGGREGATIONS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "mean": lambda blocks: np.mean(blocks, axis=1),
    "median": lambda blocks: np.median(blocks, axis=1),
    "mode": _mode,
    "first": lambda blocks: blocks[:, 0],
}


def check_period(period: float) -> None:
    """Raise ValueError unless the bin width ``period`` is finite and > 0."""
    if not (math.isfinite(period) and period > 0):
        raise ValueError(f"period must be finite and > 0, got {period!r}")


def downsample(c: Channel, period: float, agg: str = "mean") -> Channel:
    """Aggregate samples into left-closed bins of width ``period``.

    Bin edges are anchored at the channel's own first timestamp; output rows
    carry the left edge.  Bins with no samples produce no row.  Upsampling is
    not supported.  Bins holding the same number of samples k are reduced
    together: their samples are gathered as one (bins, k) block and the
    reducer runs along axis 1.
    """
    if agg not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation {agg!r}")
    check_period(period)
    if period < c.nominal_period:
        raise ValueError("upsampling not supported here")
    if len(c) == 0:
        return Channel(c.id, c.timestamps, dict(c.columns), period)
    t = c.timestamps
    t0 = t[0]
    bins = np.floor((t - t0) / period + 1e-9).astype(np.int64)
    uniq_bins, starts = np.unique(bins, return_index=True)
    edges = t0 + uniq_bins * period
    counts = np.diff(starts, append=t.size)
    reduce = AGGREGATIONS[agg]
    columns = {m: np.empty(starts.size, dtype=np.float64) for m in c.columns}
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        gather = starts[rows][:, None] + np.arange(k)
        for m, v in c.columns.items():
            columns[m][rows] = reduce(v[gather])
    return Channel(c.id, edges, columns, period)


def normalize_voltage(c: Channel, v_nominal: float, beta: float = 2.0) -> Channel:
    """Scale power by (v_nominal / v_observed) ** beta per row.

    beta=2 suits linear resistive loads; beta around 0.7 suits loads such as
    fridges.  The voltage column is left untouched.
    """
    if not v_nominal > 0:
        raise ValueError("v_nominal must be > 0")
    if not c.has(VOLTAGE):
        raise ValueError(f"channel {c.id} has no voltage column")
    factor = (v_nominal / c.values(VOLTAGE)) ** beta
    columns = {
        m: (v * factor if m.quantity == "power" else v)
        for m, v in c.columns.items()
    }
    return c.with_columns(columns)


def filter_out_implausible(
    c: Channel, m: Measurement, lo: float = -math.inf, hi: float = math.inf
) -> Channel:
    """Drop rows whose value of ``m`` falls outside [lo, hi]."""
    if not lo < hi:
        raise ValueError("filter bounds require lo < hi")
    v = c.values(m)
    return c.take((v >= lo) & (v <= hi))


def interpolate_small_gaps(c: Channel, max_gap: float | None = None) -> Channel:
    """Forward-fill short holes with synthetic rows at nominal-period spacing.

    Holes wider than ``max_gap`` are left untouched (they remain gaps).
    """
    if max_gap is None:
        max_gap = DEFAULT_MAX_GAP_FACTOR * c.nominal_period
    if not max_gap > 0:
        raise ValueError("max_gap must be > 0")
    if len(c) < 2:
        return c
    t = c.timestamps
    period = c.nominal_period
    diffs = np.diff(t)
    fill_at = np.nonzero((diffs > period) & (diffs <= max_gap))[0]
    n_new = np.ceil(diffs[fill_at] / period - 1e-9).astype(np.int64) - 1
    # ``n_new`` allows for 1e-9 periods of rounding, but epoch-sized
    # timestamps with a sub-second period round to about 1e-6 of a period,
    # so a hole's last row can land on the next real row: drop such rows.
    while True:
        over = (n_new > 0) & (
            t[fill_at] + n_new.astype(np.float64) * period >= t[fill_at + 1]
        )
        if not over.any():
            break
        n_new[over] -= 1
    keep = n_new > 0
    fill_at, n_new = fill_at[keep], n_new[keep]
    if fill_at.size == 0:
        return c
    # Synthetic row j of a hole after row i sits at t[i] + j * period,
    # j = 1 .. n_new; ``src`` is the row each one copies forward.
    src = np.repeat(fill_at, n_new)
    ks = np.arange(1, src.size + 1) - np.repeat(np.cumsum(n_new) - n_new, n_new)
    new_t = np.concatenate([t, t[src] + ks.astype(np.float64) * period])
    src = np.concatenate([np.arange(t.size, dtype=np.int64), src])
    order = np.argsort(new_t, kind="stable")
    columns = {m: v[src][order] for m, v in c.columns.items()}
    return Channel(c.id, new_t[order], columns, c.nominal_period)


def _with_appliances(b: Building, appliances: dict[str, Channel]) -> Building:
    return replace(b, appliances=appliances)


def filter_top_k(b: Building, k: int, gap_threshold: float | None = None) -> Building:
    """Keep only the k highest-energy appliance channels; mains untouched."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not b.appliances:
        raise ValueError("empty model set")
    energies = {
        name: energy_joules(c, gap_threshold) for name, c in b.appliances.items()
    }
    ranked = sorted(energies.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = {name for name, _ in ranked[:k]}
    return _with_appliances(
        b, {name: c for name, c in b.appliances.items() if name in keep}
    )


def filter_contribution(
    b: Building, x: float, gap_threshold: float | None = None
) -> Building:
    """Keep appliances whose share of total appliance energy exceeds ``x``.

    Shares are computed against the sum of appliance energies rather than
    mains, since sub-metering is rarely complete; the two denominators
    diverge when coverage is poor.
    """
    if not 0 < x < 1:
        raise ValueError("contribution threshold must be in (0, 1)")
    energies = {
        name: energy_joules(c, gap_threshold) for name, c in b.appliances.items()
    }
    total = sum(energies.values())
    if total <= 0:
        raise ValueError("empty model set")
    keep = {name for name, e in energies.items() if e / total > x}
    if not keep:
        raise ValueError("empty model set")
    return _with_appliances(
        b, {name: c for name, c in b.appliances.items() if name in keep}
    )


def intersect_with_mains(b: Building) -> Building:
    """Restrict mains and appliance channels to their common timestamp index.

    The intersection removes rows falling in any other channel's downtime, so
    mains gaps drop appliance rows and vice versa.  Channels must share a
    sampling grid for the intersection to be meaningful (downsample first).
    """
    if not b.mains:
        raise ValueError(f"building {b.id} has no mains channel")
    used = list(b.mains) + list(b.appliances.values())
    if not used:
        return b
    common = used[0].timestamps
    for c in used[1:]:
        common = np.intersect1d(common, c.timestamps, assume_unique=True)
    def restrict(c: Channel) -> Channel:
        mask = np.isin(c.timestamps, common, assume_unique=True)
        return c.take(mask)
    return replace(
        b,
        mains=tuple(restrict(c) for c in b.mains),
        appliances={name: restrict(c) for name, c in b.appliances.items()},
    )


def train_test_split(b: Building, fraction: float = 0.5) -> tuple[Building, Building]:
    """Split an aligned building temporally into contiguous halves.

    The first ``fraction`` of the common samples goes to the training half.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    if not is_aligned(b):
        raise ValueError(
            f"building {b.id} channels are not aligned; run intersect_with_mains first"
        )
    used = list(b.mains) + list(b.appliances.values())
    if not used:
        raise ValueError(f"building {b.id} has no channels to split")
    n = len(used[0])
    n_train = int(n * fraction)
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"too few samples to split ({n})")
    t_split = float(used[0].timestamps[n_train])
    def head(c: Channel) -> Channel:
        return c.take(c.timestamps < t_split)
    def tail(c: Channel) -> Channel:
        return c.take(c.timestamps >= t_split)
    train = map_channels(b, head)
    test = map_channels(b, tail)
    return train, test


def map_channels(b: Building, fn: Callable[[Channel], Channel]) -> Building:
    """Apply a channel transformation to every mains/circuit/appliance channel."""
    return replace(
        b,
        mains=tuple(fn(c) for c in b.mains),
        circuits=tuple(fn(c) for c in b.circuits),
        appliances={name: fn(c) for name, c in b.appliances.items()},
    )
