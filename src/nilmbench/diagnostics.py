"""Data-quality diagnostics: gaps, dropout rates and uptime per channel.

Sign convention: a perfect channel has dropout rate 0, so the rate reported
here is ``(expected - recorded) / expected`` (the fraction of expected
samples that are missing).  Expected samples over a span are counted as
``floor(span / nominal_period) + 1``, i.e. both endpoints inclusive.  A gap
is a ``(start, end)`` pair of sample times (:class:`data.Gap`), found by the
gap rule :func:`data.gap_breaks`, which also checks the threshold.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Building, Channel, Gap, gap_breaks
from .io import csv_text


def detect_gaps(c: Channel, threshold: float | None = None) -> list[Gap]:
    """The gaps of :func:`gap_breaks` as ``(start, end)`` pairs of sample times.

    Returned gaps are ordered and non-overlapping.  A channel with fewer
    than 2 samples has no gaps.
    """
    t = c.timestamps
    idx = np.nonzero(gap_breaks(c, threshold))[0]
    return [Gap(float(t[i]), float(t[i + 1])) for i in idx]


def _expected_samples(span: float, period: float) -> int:
    # 1e-9 slack tolerates float representation jitter in span/period.
    return int(math.floor(span / period + 1e-9)) + 1


def dropout_rate(c: Channel) -> float:
    """Fraction of expected samples missing, clamped to [0, 1]."""
    if len(c) < 2:
        return 0.0
    expected = _expected_samples(c.span, c.nominal_period)
    missing = max(expected - len(c), 0)
    return missing / expected


def dropout_rate_ignoring_gaps(c: Channel, gap_threshold: float | None = None) -> float:
    """Dropout rate over the contiguous sections between gaps.

    Each section's rate is weighted by its duration, so sensor-off periods do
    not count as lost samples.  Equals :func:`dropout_rate` when there are no
    gaps.
    """
    t = c.timestamps
    boundaries = np.nonzero(gap_breaks(c, gap_threshold))[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries, [t.size - 1]))
    total_weight = 0.0
    weighted = 0.0
    for s, e in zip(starts, ends):
        if e <= s:
            continue  # single-sample section carries no duration
        span = float(t[e] - t[s])
        expected = _expected_samples(span, c.nominal_period)
        recorded = int(e - s + 1)
        rate = max(expected - recorded, 0) / expected
        weighted += span * rate
        total_weight += span
    if total_weight == 0.0:
        return 0.0
    return weighted / total_weight


def uptime(c: Channel, gap_threshold: float | None = None) -> float:
    """Recording span minus the duration of all gaps, in seconds."""
    gap_total = sum(g.duration for g in detect_gaps(c, gap_threshold))
    return c.span - gap_total


@dataclass(frozen=True)
class ChannelDiagnostics:
    channel: str
    role: str
    gaps: tuple[Gap, ...]
    dropout_rate: float
    dropout_rate_ignoring_gaps: float
    uptime_seconds: float
    percent_uptime: float


@dataclass(frozen=True)
class DiagnosticReport:
    """Per-channel diagnostics for one building."""

    building_id: int
    gap_threshold: float | None
    channels: tuple[ChannelDiagnostics, ...]

    # CSV headers follow the naming used in dataset summary tables.
    _CSV_HEADER = (
        "Building", "Role", "Channel", "Number of gaps", "Dropout rate (percent)",
        "Dropout rate (percent) ignoring gaps", "Up-time (days)", "Percentage up-time",
    )

    def to_csv_text(self) -> str:
        return csv_text(self._CSV_HEADER, [
            (
                self.building_id, d.role, d.channel, len(d.gaps),
                100.0 * d.dropout_rate, 100.0 * d.dropout_rate_ignoring_gaps,
                d.uptime_seconds / 86400.0, 100.0 * d.percent_uptime,
            )
            for d in self.channels
        ])

    def payload(self) -> dict:
        """The report as the JSON object written to file."""
        # A channel's JSON is its fields, each gap a [start, end] pair.
        return {
            "building": self.building_id,
            "gap_threshold": self.gap_threshold,
            "channels": [asdict(d) for d in self.channels],
        }


def diagnose_channel(
    c: Channel, role: str, name: str, gap_threshold: float | None = None
) -> ChannelDiagnostics:
    gaps = tuple(detect_gaps(c, gap_threshold))
    up = uptime(c, gap_threshold)
    span = c.span
    return ChannelDiagnostics(
        channel=name,
        role=role,
        gaps=gaps,
        dropout_rate=dropout_rate(c),
        dropout_rate_ignoring_gaps=dropout_rate_ignoring_gaps(c, gap_threshold),
        uptime_seconds=up,
        percent_uptime=up / span if span > 0 else 0.0,
    )


def diagnose(b: Building, gap_threshold: float | None = None) -> DiagnosticReport:
    """Run every diagnostic on every channel of the building.

    ``gap_threshold=None`` uses the per-channel default of
    ``3 * nominal_period``.
    """
    rows = [
        diagnose_channel(c, role, name, gap_threshold)
        for role, name, c in b.channels()
    ]
    return DiagnosticReport(
        building_id=b.id, gap_threshold=gap_threshold, channels=tuple(rows)
    )
