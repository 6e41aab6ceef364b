"""Descriptive statistics over appliance usage.

Energy is integrated with the trapezoidal rule over the irregular timestamp
grid; sample pairs that :func:`diagnostics.gap_breaks` marks as a gap
contribute no energy, so sensor downtime never fabricates consumption.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .data import POWER_ACTIVE, Building, Channel, Measurement, outside_gaps
from .diagnostics import detect_gaps, gap_breaks

# Exceeds typical standby draw; per-appliance override via metadata.
DEFAULT_ON_THRESHOLD_W = 10.0


def appliance_on_threshold(
    b: Building, name: str, default: float = DEFAULT_ON_THRESHOLD_W
) -> float:
    """On-power threshold for one appliance.

    Building metadata can override the default, either per appliance
    (``{"on_thresholds": {"fridge": 5.0}}``) or building-wide
    (``{"on_threshold": 15.0}``).
    """
    overrides = b.metadata.get("on_thresholds", {})
    return float(overrides.get(name, b.metadata.get("on_threshold", default)))


def _trapezoids(
    c: Channel, gap_threshold: float | None, feature: Measurement
) -> tuple[np.ndarray, np.ndarray]:
    """Left sample times and energies in joules of the trapezoids between
    consecutive samples, leaving out the pairs that span a gap."""
    t = c.timestamps
    p = c.values(feature)
    keep = ~gap_breaks(c, gap_threshold)
    return t[:-1][keep], (np.diff(t) * (0.5 * (p[:-1] + p[1:])))[keep]


def energy_joules(
    c: Channel,
    gap_threshold: float | None = None,
    feature: Measurement = POWER_ACTIVE,
) -> float:
    """Trapezoid-integrated energy of a power series, gap-aware, in joules."""
    return float(np.sum(_trapezoids(c, gap_threshold, feature)[1]))


def proportion_energy_submetered(
    b: Building, gap_threshold: float | None = None
) -> float:
    """Sub-metered appliance energy as a fraction of mains energy.

    Mains gaps are masked out of every appliance channel first, so remaining
    missing sub-meter data is attributed to the load being off.  Overlapping
    meters legitimately push the result above 1.
    """
    if not b.mains:
        raise ValueError(f"building {b.id} has no mains channel")
    mains_energy = 0.0
    mains_gaps = []
    for m in b.mains:
        mains_energy += energy_joules(m, gap_threshold)
        mains_gaps.extend((g.start, g.end) for g in detect_gaps(m, gap_threshold))
    if mains_energy == 0.0:
        raise ValueError(f"building {b.id}: no mains energy")
    appliance_energy = 0.0
    for c in b.appliances.values():
        masked = c.take(outside_gaps(c.timestamps, mains_gaps))
        appliance_energy += energy_joules(masked, gap_threshold)
    return appliance_energy / mains_energy


def top_k_appliances(
    b: Building, k: int, gap_threshold: float | None = None
) -> list[tuple[str, float, float]]:
    """Top-k appliances by energy: (name, energy in J, fraction of sub-metered total).

    Sorted by energy descending, ties broken by name ascending.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    energies = {
        name: energy_joules(c, gap_threshold) for name, c in b.appliances.items()
    }
    total = sum(energies.values())
    ranked = sorted(energies.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (name, e, e / total if total > 0 else 0.0) for name, e in ranked[:k]
    ]


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "bin_edges", np.asarray(self.bin_edges, dtype=np.float64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.counts.size != self.bin_edges.size - 1:
            raise ValueError("histogram needs len(counts) == len(bin_edges) - 1")
        if np.any(self.counts < 0):
            raise ValueError("histogram counts must be non-negative")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        buf.write("bin_left,bin_right,count\n")
        for lo, hi, n in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
            buf.write(f"{lo!r},{hi!r},{int(n)}\n")
        return buf.getvalue()


def power_histogram(
    c: Channel, bins: int, feature: Measurement = POWER_ACTIVE
) -> Histogram:
    """Equal-width histogram spanning [min, max] of the power values."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if len(c) == 0:
        raise ValueError(f"channel {c.id} is empty")
    counts, edges = np.histogram(c.values(feature), bins=bins)
    return Histogram(bin_edges=edges, counts=counts)


def usage_histogram_hour_of_day(
    c: Channel,
    on_threshold: float = DEFAULT_ON_THRESHOLD_W,
    utc_offset_hours: float = 0.0,
    feature: Measurement = POWER_ACTIVE,
) -> np.ndarray:
    """Count of on-samples per hour of day (24 buckets).

    Hours are computed from UTC epoch seconds shifted by ``utc_offset_hours``;
    daylight-saving rules are out of scope.
    """
    counts = np.zeros(24, dtype=np.int64)
    if len(c) == 0:
        return counts
    on = c.values(feature) > on_threshold
    hours = (np.floor(c.timestamps[on] / 3600.0 + utc_offset_hours) % 24).astype(int)
    np.add.at(counts, hours, 1)
    return counts


def on_off_durations(
    c: Channel,
    on_threshold: float = DEFAULT_ON_THRESHOLD_W,
    gap_threshold: float | None = None,
    feature: Measurement = POWER_ACTIVE,
) -> tuple[list[float], list[float]]:
    """Durations in seconds of maximal on/off runs, truncated at gaps.

    A run lasts from its first sample to the first sample of the next run
    (or the end of its contiguous section), so within each section the
    durations tile the section span exactly.  Zero-length trailing runs are
    dropped.
    """
    t = c.timestamps
    on = c.values(feature) > on_threshold
    # A run starts at each section start and at each on/off change; it ends
    # at the next run's start, or at its section's last sample.
    section_start = np.ones(t.size + 1, dtype=bool)
    section_start[1:-1] = gap_breaks(c, gap_threshold)
    if t.size == 0:
        return [], []
    run_start = np.nonzero(section_start[:-1])[0]
    run_start = np.union1d(run_start, np.nonzero(on[1:] != on[:-1])[0] + 1)
    nxt = np.append(run_start[1:], t.size)
    last_in_section = section_start[nxt]
    dur = t[np.where(last_in_section, nxt - 1, nxt)] - t[run_start]
    keep = ~last_in_section | (dur > 0)
    run_on = on[run_start]
    return dur[keep & run_on].tolist(), dur[keep & ~run_on].tolist()


@dataclass(frozen=True)
class RegressionResult:
    slope: float
    intercept: float
    r_squared: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("regression needs n >= 2 points")

    def to_csv_text(self) -> str:
        return (
            "slope,intercept,r_squared,n\n"
            f"{self.slope!r},{self.intercept!r},{self.r_squared!r},{self.n}\n"
        )


def daily_energy(
    c: Channel,
    gap_threshold: float | None = None,
    utc_offset_hours: float = 0.0,
    feature: Measurement = POWER_ACTIVE,
) -> dict[int, float]:
    """Energy in joules per epoch day.

    Each trapezoid contributes to the day of its left sample; pairs that
    span a gap contribute nothing.
    """
    left, energy = _trapezoids(c, gap_threshold, feature)
    days = np.floor((left / 86400.0) + utc_offset_hours / 24.0).astype(int)
    day_keys, day_index = np.unique(days, return_inverse=True)
    # bincount adds each day's terms left to right, starting from 0.0.
    sums = np.bincount(day_index, weights=energy)
    return dict(zip(day_keys.tolist(), sums.tolist()))


def ols(x: np.ndarray, y: np.ndarray) -> RegressionResult:
    """Ordinary least squares fit of y against x with R^2."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 points")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are constant; slope undefined")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RegressionResult(slope=slope, intercept=intercept, r_squared=r2, n=n)


def correlate_daily(
    app: Channel,
    external: dict[int, float],
    gap_threshold: float | None = None,
    utc_offset_hours: float = 0.0,
) -> RegressionResult:
    """OLS of daily appliance energy against an external daily series.

    ``external`` maps epoch day number to a value (e.g. maximum temperature).
    Only days present on both sides enter the fit; fewer than 2 overlapping
    days is an error.
    """
    per_day = daily_energy(app, gap_threshold, utc_offset_hours)
    days = sorted(set(per_day) & set(external))
    if len(days) < 2:
        raise ValueError("fewer than 2 overlapping days")
    x = np.array([external[d] for d in days])
    y = np.array([per_day[d] for d in days])
    return ols(x, y)


def pearson_correlation(
    a: Channel,
    b: Channel,
    period: float = 60.0,
    feature: Measurement = POWER_ACTIVE,
) -> float:
    """Pearson correlation of two power series resampled to a common grid.

    The statistic for cross-stream correlation is not pinned down anywhere
    authoritative; this uses the mean-resampled ``feature`` on a shared
    ``period`` grid, restricted to bins where both channels have data.
    """
    from .preprocess import check_period, downsample

    check_period(period)
    da = downsample(a, period, "mean") if a.nominal_period < period else a
    db = downsample(b, period, "mean") if b.nominal_period < period else b
    common, ia, ib = np.intersect1d(da.timestamps, db.timestamps, return_indices=True)
    if common.size < 2:
        raise ValueError("fewer than 2 overlapping bins")
    xa = da.values(feature)[ia]
    xb = db.values(feature)[ib]
    sa = xa.std()
    sb = xb.std()
    if sa == 0.0 or sb == 0.0:
        raise ValueError("constant series; correlation undefined")
    return float(np.mean((xa - xa.mean()) * (xb - xb.mean())) / (sa * sb))
