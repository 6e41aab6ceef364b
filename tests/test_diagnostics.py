import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nilmbench.data import Gap
from nilmbench.diagnostics import (
    detect_gaps,
    diagnose,
    dropout_rate,
    dropout_rate_ignoring_gaps,
    gap_breaks,
    uptime,
)
from nilmbench.io import json_text
from nilmbench.stats import (
    daily_energy,
    energy_joules,
    on_off_durations,
    proportion_energy_submetered,
)

from conftest import mk_building, mk_channel

# Timestamps on a quarter-second grid keep every difference exactly
# representable, so the "exactly" assertions below are meaningful.
grid_timestamps = st.lists(
    st.integers(0, 4_000_000), min_size=2, max_size=200, unique=True
).map(lambda xs: [x / 4.0 for x in sorted(xs)])


class TestGapBreaks:
    def test_threshold_is_strict(self):
        c = mk_channel([0.0, 3.0, 6.0, 10.0], [0] * 4)
        assert gap_breaks(c, 3.0).tolist() == [False, False, True]
        assert gap_breaks(c, 2.9).tolist() == [True, True, True]

    def test_default_is_three_nominal_periods(self):
        c = mk_channel([0.0, 6.0, 12.5, 13.0], [0] * 4, period=2.0)
        assert gap_breaks(c).tolist() == [False, True, False]

    def test_one_flag_per_consecutive_pair(self):
        assert gap_breaks(mk_channel([], [])).shape == (0,)
        assert gap_breaks(mk_channel([5.0], [1.0])).shape == (0,)


# Every function that stops at gaps, called with one channel and a threshold.
GAP_CONSUMERS = {
    "energy_joules": lambda c, g: energy_joules(c, g),
    "daily_energy": lambda c, g: daily_energy(c, g),
    "on_off_durations": lambda c, g: on_off_durations(c, gap_threshold=g),
    "uptime": lambda c, g: uptime(c, g),
    "dropout_rate_ignoring_gaps": lambda c, g: dropout_rate_ignoring_gaps(c, g),
    "detect_gaps": lambda c, g: detect_gaps(c, g),
    "proportion_energy_submetered": lambda c, g: proportion_energy_submetered(
        mk_building(mains=[c], appliances={"load": c}), g
    ),
}


@pytest.mark.parametrize("n", [10, 1])
@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("consumer", sorted(GAP_CONSUMERS))
def test_invalid_gap_threshold_rejected(consumer, threshold, n):
    c = mk_channel(np.arange(float(n)), np.full(n, 100.0))
    with pytest.raises(ValueError, match="gap threshold must be finite and > 0"):
        GAP_CONSUMERS[consumer](c, threshold)


class TestDetectGaps:
    def test_hand_enumerated(self):
        c = mk_channel([0.0, 1.0, 2.0, 100.0, 101.0], [0] * 5)
        assert detect_gaps(c, 3.0) == [Gap(2.0, 100.0)]

    def test_uniform_channel_has_no_gaps(self):
        c = mk_channel(np.arange(100.0), np.zeros(100))
        assert detect_gaps(c, 3.0) == []

    def test_single_sample_has_no_gaps(self):
        assert detect_gaps(mk_channel([5.0], [1.0]), 3.0) == []

    def test_threshold_is_strict(self):
        c = mk_channel([0.0, 3.0, 6.0], [0, 0, 0])
        assert detect_gaps(c, 3.0) == []
        assert detect_gaps(c, 2.9) == [Gap(0.0, 3.0), Gap(3.0, 6.0)]


class TestDropoutRate:
    def test_perfect_channel(self):
        c = mk_channel(np.arange(100.0), np.zeros(100))
        assert dropout_rate(c) == 0.0

    def test_ninety_of_hundred(self):
        # span 99 s at 1 s period -> 100 expected; drop 10 interior samples.
        t = [float(x) for x in range(100) if not 40 <= x < 50]
        c = mk_channel(t, np.zeros(len(t)))
        assert dropout_rate(c) == 0.10

    def test_fifty_of_hundred(self):
        # span 99 -> 100 expected; 49 even samples plus the endpoint = 50.
        t = [float(x) for x in range(0, 97, 2)] + [99.0]
        c = mk_channel(t, np.zeros(len(t)))
        assert dropout_rate(c) == 0.50

    def test_short_channel_is_zero(self):
        assert dropout_rate(mk_channel([1.0], [0.0])) == 0.0

    @given(grid_timestamps)
    def test_translation_invariance(self, ts):
        c = mk_channel(ts, np.zeros(len(ts)))
        shifted = mk_channel([t + 100_000.0 for t in ts], np.zeros(len(ts)))
        assert dropout_rate(c) == dropout_rate(shifted)

    @given(grid_timestamps, st.data())
    def test_interior_removal_monotone(self, ts, data):
        if len(ts) < 3:
            return
        c = mk_channel(ts, np.zeros(len(ts)))
        drop = data.draw(st.integers(1, len(ts) - 2))
        reduced = [t for i, t in enumerate(ts) if i != drop]
        c2 = mk_channel(reduced, np.zeros(len(reduced)))
        assert dropout_rate(c2) >= dropout_rate(c)


class TestDropoutIgnoringGaps:
    def test_two_perfect_sections(self):
        t = list(np.arange(0.0, 50.0)) + list(np.arange(1000.0, 1050.0))
        c = mk_channel(t, np.zeros(len(t)))
        assert dropout_rate_ignoring_gaps(c, 3.0) == 0.0
        assert dropout_rate(c) > 0.9

    def test_perfect_plus_lossy_equal_durations(self):
        # Section A: 0..99, all 100 samples.  Section B: span 99 with 80
        # of 100 expected samples (every fifth sample removed, so no removal
        # opens a nested gap).  Equal spans, rates 0 and 0.2 -> 0.1.
        a = list(range(100))
        removed = {1001 + 5 * k for k in range(20)}
        b = [x for x in range(1000, 1100) if x not in removed]
        assert len(b) == 80
        c = mk_channel([float(x) for x in a + b], np.zeros(180))
        got = dropout_rate_ignoring_gaps(c, 3.0)
        assert got == pytest.approx(0.10, abs=1e-12)

    def test_no_gaps_equals_plain_dropout(self):
        t = [float(x) for x in range(100) if x % 3 != 1]
        c = mk_channel(t, np.zeros(len(t)))
        assert dropout_rate_ignoring_gaps(c, 1000.0) == dropout_rate(c)


class TestUptime:
    def test_gap_subtracted(self):
        t = list(np.arange(0.0, 41.0)) + list(np.arange(60.0, 101.0))
        c = mk_channel(t, np.zeros(len(t)))
        assert uptime(c, 3.0) == 80.0

    def test_no_gap_long_span(self):
        # A year-long perfect minute-level recording: 364 days of uptime.
        t = np.arange(0.0, 364 * 86400.0 + 1, 60.0)
        c = mk_channel(t, np.zeros(t.size), period=60.0)
        assert uptime(c) == 364 * 86400.0
        assert dropout_rate(c) == 0.0

    def test_single_sample(self):
        assert uptime(mk_channel([5.0], [0.0])) == 0.0

    @given(grid_timestamps)
    def test_gap_durations_plus_uptime_is_span(self, ts):
        c = mk_channel(ts, np.zeros(len(ts)))
        threshold = 2.0
        gap_total = sum(g.duration for g in detect_gaps(c, threshold))
        assert gap_total + uptime(c, threshold) == ts[-1] - ts[0]


class TestDiagnose:
    def test_perfect_building(self, simple_building):
        report = diagnose(simple_building)
        assert len(report.channels) == 3
        for row in report.channels:
            assert row.dropout_rate == 0.0
            assert row.percent_uptime == 1.0
            assert row.gaps == ()

    def test_year_long_fixture_row(self):
        # Mimics a robust one-year dataset: zero dropout, 364 days up,
        # 100% uptime.
        t = np.arange(0.0, 364 * 86400.0 + 1, 60.0)
        mains = mk_channel(t, np.full(t.size, 500.0), period=60.0, cid="mains_1")
        report = diagnose(mk_building(mains=[mains]))
        row = report.channels[0]
        assert row.dropout_rate == 0.0
        assert row.dropout_rate_ignoring_gaps == 0.0
        assert row.uptime_seconds / 86400.0 == 364.0
        assert row.percent_uptime == 1.0

    def test_four_mains_gaps_counted(self):
        # A mains channel with exactly four large holes.
        keep = []
        holes = [(100, 200), (400, 450), (700, 800), (900, 950)]
        for x in range(1001):
            if any(lo < x < hi for lo, hi in holes):
                continue
            keep.append(float(x))
        mains = mk_channel(keep, np.zeros(len(keep)), cid="mains_1")
        report = diagnose(mk_building(mains=[mains]), gap_threshold=3.0)
        assert len(report.channels[0].gaps) == 4

    def test_csv_round_trip_headers(self, simple_building):
        text = diagnose(simple_building).to_csv_text()
        header = text.splitlines()[0]
        assert "Dropout rate (percent) ignoring gaps" in header
        assert "Up-time (days)" in header
        assert "Percentage up-time" in header
        assert len(text.splitlines()) == 4

    def test_ignoring_gaps_never_exceeds_dropout(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(3, 120))
            ts = np.sort(rng.choice(np.arange(2000) * 0.5, size=n, replace=False))
            c = mk_channel(ts, np.zeros(n))
            assert dropout_rate_ignoring_gaps(c, 3.0) <= dropout_rate(c) + 1e-12

    def test_json_is_the_report_fields(self):
        keep = [float(x) for x in range(200) if not 50 < x < 90]
        mains = mk_channel(keep, np.zeros(len(keep)), cid="mains_1")
        fridge = mk_channel(keep[::2], np.ones(len(keep[::2])), period=2.0, cid="fridge")
        report = diagnose(mk_building(mains=[mains], appliances={"fridge": fridge}), 3.0)
        assert report.channels[0].gaps == (Gap(50.0, 90.0),)
        got = json.loads(json_text(report.payload()))
        assert got["building"] == report.building_id
        assert got["gap_threshold"] == report.gap_threshold
        assert len(got["channels"]) == len(report.channels) == 2
        for row, d in zip(got["channels"], report.channels):
            assert row.pop("gaps") == [[g.start, g.end] for g in d.gaps]
            assert row == {
                "channel": d.channel, "role": d.role, "dropout_rate": d.dropout_rate,
                "dropout_rate_ignoring_gaps": d.dropout_rate_ignoring_gaps,
                "uptime_seconds": d.uptime_seconds, "percent_uptime": d.percent_uptime,
            }
