import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench.stats import (
    correlate_daily,
    daily_energy,
    energy_joules,
    on_off_durations,
    pearson_correlation,
    power_histogram,
    proportion_energy_submetered,
    top_k_appliances,
    usage_histogram_hour_of_day,
)

from conftest import mk_building, mk_channel
from oracles import daily_energy_loop, on_off_durations_loop, trapezoid_energy


def constant_channel(watts, n=100, cid="c", period=1.0):
    t = np.arange(n, dtype=float) * period
    return mk_channel(t, np.full(n, float(watts)), period=period, cid=cid)


class TestEnergy:
    def test_matches_plain_trapezoid_when_gapless(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.choice(np.arange(300) * 0.5, size=50, replace=False))
        p = rng.uniform(0, 500, 50)
        c = mk_channel(t, p)
        assert energy_joules(c, gap_threshold=1e9) == pytest.approx(
            trapezoid_energy(t, p), rel=1e-12
        )

    def test_gap_contributes_no_energy(self):
        c = mk_channel([0.0, 1.0, 100.0, 101.0], [100.0] * 4)
        assert energy_joules(c, gap_threshold=3.0) == 200.0


class TestProportionSubmetered:
    def test_exact_coverage(self, simple_building):
        assert proportion_energy_submetered(simple_building) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_ampds_like_fixture(self):
        # Robust year-like recording where sub-meters capture 97% of mains.
        mains = constant_channel(1000.0, n=5000, cid="mains_1")
        app = constant_channel(970.0, n=5000, cid="heat_pump")
        b = mk_building(mains=[mains], appliances={"heat_pump": app})
        assert proportion_energy_submetered(b) == pytest.approx(0.97, abs=0.005)

    def test_overlapping_meters_exceed_one(self):
        mains = constant_channel(500.0, cid="mains_1")
        a1 = constant_channel(500.0, cid="fridge")
        a2 = constant_channel(500.0, cid="freezer")
        b = mk_building(mains=[mains], appliances={"fridge": a1, "freezer": a2})
        assert proportion_energy_submetered(b) == pytest.approx(2.0, abs=1e-9)

    def test_mains_gap_masked_out(self):
        # Appliance keeps reporting through a mains outage; that energy must
        # not count against mains.
        t_mains = [0.0, 1.0, 2.0, 100.0, 101.0, 102.0]
        mains = mk_channel(t_mains, [100.0] * 6, cid="mains_1")
        t_app = np.arange(0.0, 103.0)
        app = mk_channel(t_app, np.full(t_app.size, 100.0), cid="fridge")
        b = mk_building(mains=[mains], appliances={"fridge": app})
        got = proportion_energy_submetered(b, gap_threshold=3.0)
        # mains energy: 2 + 2 slices of 100 W = 400 J; appliance after
        # masking (2, 100): same sections -> 400 J.
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_zero_mains_energy_rejected(self):
        mains = constant_channel(0.0, cid="mains_1")
        b = mk_building(mains=[mains], appliances={})
        with pytest.raises(ValueError, match="no mains energy"):
            proportion_energy_submetered(b)


class TestTopK:
    def test_k_larger_than_count(self, simple_building):
        assert len(top_k_appliances(simple_building, 99)) == 2

    def test_ranking(self):
        fridge = constant_channel(1000.0, n=36001, cid="fridge")  # 10 kWh
        tv = constant_channel(500.0, n=36001, cid="television")  # 5 kWh
        b = mk_building(appliances={"fridge": fridge, "television": tv})
        top = top_k_appliances(b, 1)
        assert [name for name, _, _ in top] == ["fridge"]
        assert top[0][1] == pytest.approx(3.6e7, rel=1e-9)

    def test_iawe_like_ac_dominates(self):
        b = mk_building(
            appliances={
                "air_conditioner": constant_channel(1800.0, cid="air_conditioner"),
                "air_conditioner_2": constant_channel(1600.0, cid="air_conditioner_2"),
                "fridge": constant_channel(120.0, cid="fridge"),
                "television": constant_channel(60.0, cid="television"),
            }
        )
        ranked = top_k_appliances(b, 2)
        assert [name for name, _, _ in ranked] == [
            "air_conditioner",
            "air_conditioner_2",
        ]
        # The two AC units account for roughly half of the total.
        total_fraction = sum(f for _, _, f in ranked)
        assert total_fraction > 0.9

    def test_fractions_sum_to_one(self, simple_building):
        ranked = top_k_appliances(simple_building, 2)
        assert sum(f for _, _, f in ranked) == pytest.approx(1.0, abs=1e-9)

    def test_tie_broken_by_name(self):
        a = constant_channel(100.0, cid="b_second")
        b_ = constant_channel(100.0, cid="a_first")
        building = mk_building(appliances={"b_second": a, "a_first": b_})
        assert [n for n, _, _ in top_k_appliances(building, 2)] == [
            "a_first",
            "b_second",
        ]


class TestPowerHistogram:
    def test_constant_channel_single_bin(self):
        h = power_histogram(constant_channel(100.0), 10)
        assert h.counts.sum() == 100
        assert np.count_nonzero(h.counts) == 1

    def test_two_level_bimodal(self):
        c = mk_channel(np.arange(100.0), [0.0, 1000.0] * 50)
        h = power_histogram(c, 10)
        assert h.counts[0] == 50 and h.counts[-1] == 50
        assert h.counts[1:-1].sum() == 0

    def test_toaster_mode_near_1570(self):
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [np.zeros(500), rng.normal(1570.0, 20.0, 500)]
        )
        c = mk_channel(np.arange(values.size, dtype=float), values)
        h = power_histogram(c, 40)
        mode_bin = int(np.argmax(h.counts[1:])) + 1  # ignore the off spike
        lo, hi = h.bin_edges[mode_bin], h.bin_edges[mode_bin + 1]
        assert lo <= 1570.0 <= hi + (hi - lo)

    def test_counts_sum_matches_samples(self):
        rng = np.random.default_rng(6)
        c = mk_channel(np.arange(333.0), rng.uniform(0, 3000, 333))
        assert power_histogram(c, 7).counts.sum() == 333

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            power_histogram(mk_channel([], []), 5)


class TestUsageHistogram:
    def test_always_off(self):
        c = constant_channel(0.0, n=500, period=60.0)
        assert usage_histogram_hour_of_day(c).sum() == 0

    def test_on_between_eight_and_nine(self):
        t = np.arange(0.0, 86400.0, 60.0)
        power = np.where((t >= 8 * 3600) & (t < 9 * 3600), 500.0, 0.0)
        counts = usage_histogram_hour_of_day(mk_channel(t, power, period=60.0))
        assert counts[8] == 60
        assert counts.sum() == 60

    def test_boiler_morning_and_evening(self):
        # Two daily bursts: 07:00-08:00 and 19:00-20:00 over 3 days.
        t = np.arange(0.0, 3 * 86400.0, 60.0)
        hours = (t // 3600) % 24
        power = np.where((hours == 7) | (hours == 19), 2000.0, 0.0)
        counts = usage_histogram_hour_of_day(mk_channel(t, power, period=60.0))
        assert counts[7] == counts[19] == 180
        assert counts.sum() == 360

    def test_utc_offset_rotates_buckets(self):
        t = np.arange(0.0, 86400.0, 3600.0)
        power = np.zeros(24)
        power[0] = 100.0
        counts = usage_histogram_hour_of_day(
            mk_channel(t, power, period=3600.0), utc_offset_hours=5.0
        )
        assert counts[5] == 1


class TestOnOffDurations:
    def test_all_on(self):
        c = constant_channel(100.0, n=61)
        on, off = on_off_durations(c)
        assert on == [60.0] and off == []

    def test_alternating_one_second(self):
        c = mk_channel(np.arange(10.0), [0.0, 100.0] * 5)
        on, off = on_off_durations(c)
        assert on == [1.0] * 4  # trailing zero-length run dropped
        assert off == [1.0] * 5

    def test_empty_channel(self):
        assert on_off_durations(mk_channel([], [])) == ([], [])

    def test_run_truncated_at_gap(self):
        t = list(np.arange(0.0, 10.0)) + list(np.arange(100.0, 110.0))
        c = mk_channel(t, [100.0] * 20)
        on, off = on_off_durations(c, gap_threshold=3.0)
        assert on == [9.0, 9.0] and off == []

    @given(st.lists(st.sampled_from([0.0, 100.0]), min_size=2, max_size=60))
    def test_durations_tile_the_span(self, powers):
        c = mk_channel(np.arange(len(powers), dtype=float), powers)
        on, off = on_off_durations(c, gap_threshold=5.0)
        assert sum(on) + sum(off) == len(powers) - 1


    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 2.25, 7.0]), st.sampled_from([0.0, 5.0, 50.0])),
            min_size=1, max_size=80,
        ),
        st.sampled_from([1.0, 2.5, 6.0]),
    )
    def test_matches_per_sample_loop(self, steps, gap):
        t = np.cumsum([dt for dt, _ in steps])
        p = np.array([w for _, w in steps])
        got = on_off_durations(mk_channel(t, p), on_threshold=10.0, gap_threshold=gap)
        assert got == on_off_durations_loop(t, p > 10.0, gap)


class TestDailyEnergy:
    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-3e5, 3e5, allow_nan=False),
        st.lists(
            st.tuples(
                st.sampled_from([60.0, 3599.5, 20000.0, 90000.0]),
                st.floats(0.0, 3000.0, allow_nan=False),
            ),
            min_size=1, max_size=60,
        ),
        st.sampled_from([4000.0, 25000.0, 1e6]),
        st.sampled_from([0.0, 5.5, -8.0]),
    )
    def test_matches_per_sample_loop(self, t0, steps, gap, utc_offset):
        t = t0 + np.cumsum([dt for dt, _ in steps])
        p = np.array([w for _, w in steps])
        got = daily_energy(mk_channel(t, p), gap, utc_offset)
        want = daily_energy_loop(t, p, gap, utc_offset)
        assert list(got.items()) == list(want.items())


def _per_day_constant_channel(day_powers):
    """One section per day (span 85800 s) at a constant power."""
    ts, ps = [], []
    for d, p in enumerate(day_powers):
        t = d * 86400.0 + np.arange(0.0, 85801.0, 60.0)
        ts.append(t)
        ps.append(np.full(t.size, float(p)))
    return mk_channel(np.concatenate(ts), np.concatenate(ps), period=60.0)


class TestCorrelateDaily:
    def test_exact_linear_fit(self):
        powers = [128.0, 256.0, 512.0, 640.0]
        c = _per_day_constant_channel(powers)
        external = {d: p for d, p in enumerate(powers)}
        result = correlate_daily(c, external)
        assert result.r_squared == 1.0
        assert result.slope == 85800.0
        assert result.intercept == 0.0
        assert result.n == 4

    def test_daily_energy_is_exact(self):
        c = _per_day_constant_channel([128.0, 256.0])
        per_day = daily_energy(c)
        assert per_day == {0: 128.0 * 85800.0, 1: 256.0 * 85800.0}

    def test_strong_boiler_weather_correlation(self):
        # Boiler energy falls linearly with daily maximum temperature plus
        # noise sized for a population R^2 of 0.73.
        rng = np.random.default_rng(1234)
        n = 200
        temp = rng.uniform(0.0, 25.0, n)
        b = -2.0e6
        var_x = 25.0**2 / 12.0
        sigma = np.sqrt(b * b * var_x * (1 / 0.73 - 1))
        energy = 8.0e7 + b * temp + rng.standard_normal(n) * sigma
        c = _per_day_constant_channel(energy / 85800.0)
        external = {d: float(temp[d]) for d in range(n)}
        result = correlate_daily(c, external)
        assert result.r_squared == pytest.approx(0.73, abs=0.05)
        assert result.slope < 0

    def test_independent_noise_uncorrelated(self):
        rng = np.random.default_rng(99)
        energy = rng.uniform(1.0e7, 9.0e7, 100)
        c = _per_day_constant_channel(energy / 85800.0)
        external = {d: float(v) for d, v in enumerate(rng.uniform(0, 25, 100))}
        result = correlate_daily(c, external)
        assert result.r_squared < 0.1

    def test_too_few_overlapping_days_rejected(self):
        c = _per_day_constant_channel([100.0, 200.0])
        with pytest.raises(ValueError, match="overlapping"):
            correlate_daily(c, {0: 1.0})


class TestPearson:
    def test_identical_series(self):
        rng = np.random.default_rng(2)
        t = np.arange(0.0, 7200.0, 10.0)
        p = rng.uniform(0, 100, t.size)
        a = mk_channel(t, p, period=10.0, cid="a")
        b = mk_channel(t, p, period=10.0, cid="b")
        assert pearson_correlation(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated(self):
        t = np.arange(0.0, 7200.0, 60.0)
        a = mk_channel(t, np.sin(t / 600.0) + 2, period=60.0, cid="a")
        b = mk_channel(t, -np.sin(t / 600.0) + 2, period=60.0, cid="b")
        assert pearson_correlation(a, b) == pytest.approx(-1.0, abs=1e-9)
