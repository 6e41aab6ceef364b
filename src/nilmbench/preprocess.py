"""Channel and building transformations run before training/disaggregation."""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .data import (
    Building, Channel, Measurement, VOLTAGE, check_aligned, check_finite, check_fraction, check_mains,
    check_period, is_aligned,
)
from .stats import top_k_appliances

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
    # Bins count up from 0 with the timestamps: each starts where the index changes.
    starts = np.flatnonzero(np.diff(bins, prepend=-1))
    edges = t0 + bins[starts] * period
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
    check_period(v_nominal, "v_nominal")
    check_finite(beta, "beta")
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

    Holes wider than ``max_gap`` are left untouched (they remain gaps), as is
    a hole whose fills would not rise strictly to the next row: below the
    stamps' float spacing, ``t + k * period`` repeats a stamp.
    """
    if max_gap is None:
        max_gap = DEFAULT_MAX_GAP_FACTOR * c.nominal_period
    check_period(max_gap, "max_gap")
    if len(c) < 2:
        return c
    t = c.timestamps
    period = c.nominal_period
    diffs = np.diff(t)
    fill_at = np.nonzero((diffs > period) & (diffs <= max_gap))[0]
    n_new = np.ceil(diffs[fill_at] / period - 1e-9).astype(np.int64) - 1
    src = np.repeat(fill_at, n_new)
    ks = np.arange(1, src.size + 1) - np.repeat(np.cumsum(n_new) - n_new, n_new)
    fill_t = t[src] + ks.astype(np.float64) * period
    # Fill k of the hole after row i copies row i to t[i] + k * period.  The
    # fills rise with k, but not always strictly: ``n_new`` allows for 1e-9
    # periods of rounding, while epoch-sized timestamps with a sub-second
    # period round to about 1e-6 of one, so a hole's last fills can land on
    # the next row (they are dropped); and below the stamps' float spacing a
    # fill repeats the stamp before it (its hole is left unfilled).
    below = fill_t < t[src + 1]
    repeats = below & (fill_t <= np.where(ks == 1, t[src], np.roll(fill_t, 1)))
    keep = below & ~np.isin(src, src[repeats])
    if not keep.any():
        return c
    src, fill_t = src[keep], fill_t[keep]
    # Row i is followed by its fills, so a fill lands at output row i plus
    # its number, from 1, among all fills.
    counts = np.bincount(src, minlength=t.size) + 1
    new_t = np.repeat(t, counts)
    new_t[src + np.arange(1, src.size + 1)] = fill_t
    columns = {m: np.repeat(v, counts) for m, v in c.columns.items()}
    return Channel(c.id, new_t, columns, c.nominal_period)


def filter_top_k(b: Building, k: int, gap_threshold: float | None = None) -> Building:
    """Keep only the k highest-energy appliance channels, ranked by
    :func:`stats.top_k_appliances`; mains untouched."""
    return _keep_appliances(b, {name for name, _, _ in top_k_appliances(b, k, gap_threshold)})


def filter_contribution(
    b: Building, x: float, gap_threshold: float | None = None
) -> Building:
    """Keep appliances whose share of total appliance energy exceeds ``x``.

    Shares are those of :func:`stats.top_k_appliances`: computed against the
    sum of appliance energies rather than mains, since sub-metering is rarely
    complete; the two denominators diverge when coverage is poor.
    """
    check_fraction(x, "contribution threshold x")
    ranked = top_k_appliances(b, len(b.appliances) or 1, gap_threshold)
    return _keep_appliances(b, {name for name, _, share in ranked if share > x})


def _keep_appliances(b: Building, names: set[str]) -> Building:
    if not names:
        raise ValueError("empty model set")
    return replace(b, appliances={n: c for n, c in b.appliances.items() if n in names})


def intersect_with_mains(b: Building) -> Building:
    """Restrict mains and appliance channels to their common timestamp index.

    The intersection removes rows falling in any other channel's downtime, so
    mains gaps drop appliance rows and vice versa.  Channels must share a
    sampling grid for the intersection to be meaningful (downsample first).
    """
    check_mains(b)
    used = list(b.mains) + list(b.appliances.values())
    common = used[0].timestamps
    for c in used[1:]:
        common = np.intersect1d(common, c.timestamps, assume_unique=True)
    def restrict(c: Channel) -> Channel:
        return c.take(np.isin(c.timestamps, common, assume_unique=True))
    return replace(
        b,
        mains=tuple(restrict(c) for c in b.mains),
        appliances={name: restrict(c) for name, c in b.appliances.items()},
    )


def train_test_split(b: Building, fraction: float = 0.5) -> tuple[Building, Building]:
    """Split an aligned building temporally into contiguous halves.

    The first ``fraction`` of the common samples goes to the training half.
    """
    check_fraction(fraction, "fraction")
    check_aligned(b)
    used = list(b.mains) + list(b.appliances.values())
    if not used:
        raise ValueError(f"building {b.id} has no channels to split")
    n = len(used[0])
    n_train = int(n * fraction)
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"too few samples to split ({n})")
    t_split = float(used[0].timestamps[n_train])
    # Timestamps increase, so each half is a slice: a view, not a copy.
    def cut(c: Channel) -> int:
        return np.searchsorted(c.timestamps, t_split, "left")
    return (
        map_channels(b, lambda c: c.take(slice(None, cut(c)))),
        map_channels(b, lambda c: c.take(slice(cut(c), None))),
    )


def map_channels(b: Building, fn: Callable[[Channel], Channel]) -> Building:
    """Apply a channel transformation to every mains/circuit/appliance channel."""
    return replace(
        b,
        mains=tuple(fn(c) for c in b.mains),
        circuits=tuple(fn(c) for c in b.circuits),
        appliances={name: fn(c) for name, c in b.appliances.items()},
    )
