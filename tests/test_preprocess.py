import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench import preprocess
from nilmbench.data import POWER_ACTIVE, POWER_REACTIVE, VOLTAGE, Channel
from nilmbench.preprocess import (
    downsample,
    filter_contribution,
    filter_out_implausible,
    filter_top_k,
    interpolate_small_gaps,
    intersect_with_mains,
    is_aligned,
    normalize_voltage,
    train_test_split,
)
from nilmbench.stats import energy_joules, top_k_appliances

from conftest import mk_building, mk_channel
from oracles import (
    downsample_loop, interpolate_small_gaps_argsort, interpolate_small_gaps_loop, mask_train_test_split,
)

# Repeats make modes and median ties common; signed zeros, NaN and infinities
# are the values whose bits a reducer can get wrong.
VALUE_POOL = np.array([0.0, -0.0, 1.0, -2.5, 7.0, 1e300, np.nan, np.inf, -np.inf])
COLUMNS = (POWER_ACTIVE, VOLTAGE, POWER_REACTIVE)


@st.composite
def dropout_channels(
    draw, max_rows=6000, bases=(0.1, 1.0, 3.0), t0s=(0.0, 7.3, 1.3e9, 1303132929.25)
):
    """A channel on a ``base`` grid from ``t0`` with irregular dropout.

    The dropout rate changes every 50 grid points, from none to nearly all,
    so bins of one period hold anywhere from 1 sample to the full count.
    """
    base = draw(st.sampled_from(bases))
    t0 = draw(st.sampled_from(t0s))
    n_columns = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Log-uniform length, so long channels are drawn as often as short ones.
    n = int(np.exp(rng.uniform(0.0, np.log(max_rows))))
    drop = np.repeat(rng.uniform(0.0, 0.99, n // 50 + 1) ** 2, 50)[:n]
    keep = rng.random(n) >= drop
    keep[rng.integers(n)] = True
    t = t0 + np.flatnonzero(keep) * base
    pool = rng.choice(VALUE_POOL, size=rng.integers(2, VALUE_POOL.size + 1), replace=False)
    columns = {m: rng.choice(pool, size=t.size) for m in COLUMNS[:n_columns]}
    return Channel("ch", t, columns, base)


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


class TestDownsample:
    def test_constant_channel_invariant(self):
        c = mk_channel(np.arange(120.0), np.full(120, 100.0))
        d = downsample(c, 60.0, "mean")
        assert list(d.timestamps) == [0.0, 60.0]
        assert list(d.values(POWER_ACTIVE)) == [100.0, 100.0]
        assert d.nominal_period == 60.0

    def test_hand_mean(self):
        c = mk_channel([0.0, 30.0], [0.0, 100.0])
        d = downsample(c, 60.0, "mean")
        assert list(d.timestamps) == [0.0]
        assert list(d.values(POWER_ACTIVE)) == [50.0]

    def test_empty_bins_produce_no_rows(self):
        c = mk_channel([0.0, 30.0, 300.0], [0.0, 100.0, 50.0])
        d = downsample(c, 60.0, "mean")
        assert list(d.timestamps) == [0.0, 300.0]

    def test_median_and_first(self):
        c = mk_channel([0.0, 10.0, 20.0], [10.0, 99.0, 20.0])
        assert list(downsample(c, 60.0, "median").values(POWER_ACTIVE)) == [20.0]
        assert list(downsample(c, 60.0, "first").values(POWER_ACTIVE)) == [10.0]

    def test_mode_ties_break_low(self):
        c = mk_channel([0.0, 10.0, 20.0, 30.0], [7.0, 3.0, 7.0, 3.0])
        assert list(downsample(c, 60.0, "mode").values(POWER_ACTIVE)) == [3.0]

    def test_mode_signed_zero_bits_follow_np_unique(self):
        bin_values = np.array([0.0, -0.0, 5.0])
        c = mk_channel([0.0, 10.0, 20.0], bin_values)
        got = downsample(c, 60.0, "mode").values(POWER_ACTIVE)
        assert_bits_equal(got, np.unique(bin_values)[:1])

    def test_mode_nan_wins_when_most_frequent(self):
        c = mk_channel([0.0, 10.0, 20.0], [np.nan, 4.0, np.nan])
        assert np.isnan(downsample(c, 60.0, "mode").values(POWER_ACTIVE)[0])

    def test_mode_nan_loses_a_tie(self):
        # NaN sorts above every number, so it is the higher value of a tie.
        c = mk_channel([0.0, 10.0, 20.0, 30.0], [np.nan, 2.0, np.nan, 2.0])
        assert list(downsample(c, 60.0, "mode").values(POWER_ACTIVE)) == [2.0]

    @pytest.mark.parametrize("period", [np.inf, np.nan, 0.0, -1.0])
    def test_invalid_period_rejected(self, period):
        c = mk_channel([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="period"):
            downsample(c, period)
        with pytest.raises(ValueError, match="period"):
            downsample(mk_channel([], []), period)

    @settings(max_examples=200, deadline=None)
    @given(
        dropout_channels(),
        st.one_of(st.integers(1, 300).map(float), st.floats(1.0, 300.0)),
        st.sampled_from(["mean", "median", "mode", "first"]),
    )
    def test_matches_per_bin_loop(self, c, ratio, agg):
        period = c.nominal_period * ratio
        with np.errstate(invalid="ignore"):  # inf - inf in a mean
            d = downsample(c, period, agg)
            expected = {
                m: downsample_loop(c.timestamps, v, period, agg) for m, v in c.columns.items()
            }
        for m, (edges, want) in expected.items():
            assert_bits_equal(d.timestamps, edges)
            assert_bits_equal(d.values(m), want)

    def test_upsampling_rejected(self):
        c = mk_channel([0.0, 60.0], [0.0, 1.0], period=60.0)
        with pytest.raises(ValueError, match="upsampling"):
            downsample(c, 30.0)

    def test_bins_anchor_at_first_timestamp(self):
        c = mk_channel([7.0, 30.0, 67.0], [1.0, 3.0, 5.0])
        d = downsample(c, 60.0, "mean")
        assert list(d.timestamps) == [7.0, 67.0]
        assert list(d.values(POWER_ACTIVE)) == [2.0, 5.0]

    def test_composition_with_full_bins(self):
        rng = np.random.default_rng(8)
        c = mk_channel(np.arange(240.0), rng.uniform(0, 100, 240))
        once = downsample(c, 120.0, "mean")
        twice = downsample(downsample(c, 60.0, "mean"), 120.0, "mean")
        assert np.array_equal(once.timestamps, twice.timestamps)
        np.testing.assert_allclose(once.values(POWER_ACTIVE), twice.values(POWER_ACTIVE), rtol=1e-12)


class TestNormalizeVoltage:
    def _channel(self, power, volts):
        return mk_channel(
            np.arange(float(len(power))), power, voltage=volts
        )

    def test_nominal_voltage_is_identity(self):
        c = self._channel([1000.0, 500.0], [230.0, 230.0])
        out = normalize_voltage(c, 230.0, 2.0)
        assert list(out.values(POWER_ACTIVE)) == [1000.0, 500.0]

    def test_half_voltage_beta_two(self):
        c = self._channel([1000.0], [115.0])
        out = normalize_voltage(c, 230.0, 2.0)
        assert out.values(POWER_ACTIVE)[0] == pytest.approx(4000.0, rel=1e-12)

    def test_hart_beta(self):
        c = self._channel([1000.0], [115.0])
        out = normalize_voltage(c, 230.0, 0.7)
        assert out.values(POWER_ACTIVE)[0] == pytest.approx(1000.0 * 2**0.7, rel=1e-12)

    def test_beta_zero_is_identity(self):
        rng = np.random.default_rng(1)
        c = self._channel(rng.uniform(0, 2000, 20), rng.uniform(200, 260, 20))
        out = normalize_voltage(c, 230.0, 0.0)
        assert np.array_equal(out.values(POWER_ACTIVE), c.values(POWER_ACTIVE))

    def test_voltage_column_untouched(self):
        c = self._channel([1000.0], [115.0])
        out = normalize_voltage(c, 230.0, 2.0)
        assert out.values(VOLTAGE)[0] == 115.0

    def test_missing_voltage_rejected(self):
        c = mk_channel([0.0], [1.0])
        with pytest.raises(ValueError, match="voltage"):
            normalize_voltage(c, 230.0)

    @pytest.mark.parametrize("v_nominal", [math.inf, math.nan, 0.0, -230.0])
    def test_nominal_voltage_must_be_finite_and_positive(self, v_nominal):
        c = self._channel([1000.0], [230.0])
        with pytest.raises(ValueError, match="v_nominal must be finite and > 0"):
            normalize_voltage(c, v_nominal)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_beta_must_be_finite(self, beta):
        c = self._channel([1000.0], [230.0])
        with pytest.raises(ValueError, match="beta must be finite"):
            normalize_voltage(c, 230.0, beta)


class TestFilterImplausible:
    def test_in_range_is_identity(self):
        c = mk_channel([0.0, 1.0], [100.0, 200.0], voltage=[230.0, 231.0])
        out = filter_out_implausible(c, VOLTAGE, 160.0, 460.0)
        assert len(out) == 2

    def test_overvoltage_row_removed(self):
        c = mk_channel([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], voltage=[230.0, 500.0, 231.0])
        out = filter_out_implausible(c, VOLTAGE, 0.0, 460.0)
        assert list(out.timestamps) == [0.0, 2.0]

    def test_lower_bound_only_keeps_at_bound(self):
        c = mk_channel([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], voltage=[150.0, 160.0, 170.0])
        out = filter_out_implausible(c, VOLTAGE, lo=160.0)
        assert list(out.values(VOLTAGE)) == [160.0, 170.0]


class TestInterpolate:
    def test_no_gaps_identity(self):
        c = mk_channel(np.arange(10.0), np.arange(10.0))
        out = interpolate_small_gaps(c, 5.0)
        assert np.array_equal(out.timestamps, c.timestamps)

    def test_three_second_hole_forward_filled(self):
        c = mk_channel([0.0, 1.0, 4.0, 5.0], [10.0, 20.0, 30.0, 40.0])
        out = interpolate_small_gaps(c, 5.0)
        assert list(out.timestamps) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert list(out.values(POWER_ACTIVE)) == [10.0, 20.0, 20.0, 20.0, 30.0, 40.0]

    def test_large_hole_untouched(self):
        c = mk_channel([0.0, 1.0, 61.0], [1.0, 2.0, 3.0])
        out = interpolate_small_gaps(c, 5.0)
        assert list(out.timestamps) == [0.0, 1.0, 61.0]

    def test_non_integer_hole(self):
        c = mk_channel([0.0, 3.5], [10.0, 20.0])
        out = interpolate_small_gaps(c, 5.0)
        assert list(out.timestamps) == [0.0, 1.0, 2.0, 3.0, 3.5]
        assert list(out.values(POWER_ACTIVE)) == [10.0, 10.0, 10.0, 10.0, 20.0]

    @pytest.mark.parametrize("period", [1.0, 10.0])
    def test_hole_whose_fills_repeat_a_stamp_is_left(self, period):
        # At 1e17 the float spacing is 16: 1e17 + 1 is 1e17, and with a 10 s
        # period fills 1 and 2 both land on 1e17 + 16.
        c = mk_channel([1e17, 1e17 + 64], [1.0, 2.0], period=period)
        assert interpolate_small_gaps(c, 100.0) is c
        mixed = mk_channel([0.0, 3 * period, 1e17, 1e17 + 64], [1.0, 2.0, 3.0, 4.0], period=period)
        out = interpolate_small_gaps(mixed, 100.0)
        assert out.timestamps.tolist() == [0.0, period, 2 * period, 3 * period, 1e17, 1e17 + 64]
        assert out.values(POWER_ACTIVE).tolist() == [1.0, 1.0, 1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("max_gap", [0.0, -1.0, math.inf, math.nan])
    def test_max_gap_must_be_a_period(self, max_gap):
        c = mk_channel([0.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match=f"max_gap must be finite and > 0, got {max_gap!r}"):
            interpolate_small_gaps(c, max_gap)

    @settings(max_examples=200, deadline=None)
    @given(dropout_channels(), st.floats(0.5, 40.0))
    def test_matches_per_gap_loop(self, c, gap_factor):
        max_gap = c.nominal_period * gap_factor
        out = interpolate_small_gaps(c, max_gap)
        for m, v in c.columns.items():
            t, want = interpolate_small_gaps_loop(c.timestamps, v, c.nominal_period, max_gap)
            assert_bits_equal(out.timestamps, t)
            assert_bits_equal(out.values(m), want)

    @settings(max_examples=200, deadline=None)
    @given(dropout_channels(), st.floats(0.5, 40.0))
    def test_places_rows_as_the_argsort_did(self, c, gap_factor):
        out = interpolate_small_gaps(c, c.nominal_period * gap_factor)
        t, columns = interpolate_small_gaps_argsort(c, c.nominal_period * gap_factor)
        assert_bits_equal(out.timestamps, t)
        assert list(out.columns) == list(columns)
        for m, v in columns.items():
            assert_bits_equal(out.values(m), v)

    @settings(max_examples=100, deadline=None)
    @given(dropout_channels(bases=(0.1,), t0s=(1.3e9,)), st.floats(1.5, 40.0))
    def test_epoch_timestamps_stay_strictly_increasing(self, c, gap_factor):
        # At t0 = 1.3e9 a timestamp is rounded to 2.4e-7 s, 2.4e-6 of the
        # period, so the uncapped count can put a hole's last row on the
        # next real row.
        t, period = c.timestamps, c.nominal_period
        max_gap = period * gap_factor
        out = interpolate_small_gaps(c, max_gap)
        assert np.all(np.diff(out.timestamps) > 0)
        diffs = np.diff(t)
        uncapped = [t]
        for i in np.nonzero((diffs > period) & (diffs <= max_gap))[0]:
            n_new = int(math.ceil(diffs[i] / period - 1e-9)) - 1
            uncapped.append(t[i] + np.arange(1, n_new + 1, dtype=np.float64) * period)
        uncapped = np.sort(np.concatenate(uncapped))
        if np.all(np.diff(uncapped) > 0):
            assert_bits_equal(out.timestamps, uncapped)


def building_with_energies(energies):
    t = np.arange(0.0, 3600.0)
    appliances = {
        name: mk_channel(t, np.full(t.size, watts), cid=name)
        for name, watts in energies.items()
    }
    mains = mk_channel(t, sum(c.values(POWER_ACTIVE) for c in appliances.values()), cid="mains_1")
    return mk_building(mains=[mains], appliances=appliances)


class TestTopKAndContribution:
    def test_filter_top_k(self):
        b = building_with_energies({"fridge": 100.0, "television": 50.0, "kettle": 10.0})
        out = filter_top_k(b, 2)
        assert sorted(out.appliances) == ["fridge", "television"]
        assert len(out.mains) == 1

    def test_top_k_all_is_identity(self):
        b = building_with_energies({"fridge": 100.0, "television": 50.0})
        assert sorted(filter_top_k(b, 2).appliances) == ["fridge", "television"]

    def test_energy_tie_kept_as_top_k_appliances_ranks_it(self, monkeypatch):
        # Both filters keep what stats.top_k_appliances returns, so a tie
        # breaks toward the smaller name in the statistics and the filter alike.
        b = building_with_energies({"kettle": 100.0, "fridge": 100.0, "lamp": 10.0})
        ranked = []

        def ranking(*args):
            ranked.append(top_k_appliances(*args))
            return ranked[-1]

        monkeypatch.setattr(preprocess, "top_k_appliances", ranking)
        assert list(filter_top_k(b, 1).appliances) == ["fridge"]
        assert [name for name, _, _ in ranked[-1]] == ["fridge"]
        assert list(filter_contribution(b, 0.4).appliances) == ["kettle", "fridge"]
        assert [name for name, _, share in ranked[-1] if share > 0.4] == ["fridge", "kettle"]

    def test_contribution_keeps_qualifying_set_exactly(self):
        b = building_with_energies(
            {"air_conditioner": 800.0, "electric_heat": 150.0, "television": 50.0}
        )
        out = filter_contribution(b, 0.05)
        assert sorted(out.appliances) == ["air_conditioner", "electric_heat"]

    def test_contribution_no_qualifier_is_error(self):
        b = building_with_energies({"a": 100.0, "b": 100.0, "c": 100.0})
        with pytest.raises(ValueError, match="empty model set"):
            filter_contribution(b, 0.4)

    @given(st.dictionaries(
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.floats(1.0, 1000.0),
        min_size=1,
        max_size=5,
    ), st.floats(0.01, 0.99))
    def test_contribution_retains_exact_share_set(self, energies, x):
        b = building_with_energies(energies)
        # Shares from the same trapezoid energies, summed in the same order
        # as filter_contribution: a share of exactly x must compare alike.
        joules = {n: energy_joules(c) for n, c in b.appliances.items()}
        total = sum(joules.values())
        expected = {n for n, e in joules.items() if e / total > x}
        if not expected:
            with pytest.raises(ValueError):
                filter_contribution(b, x)
        else:
            assert set(filter_contribution(b, x).appliances) == expected


class TestIntersect:
    def test_aligned_identity(self, simple_building):
        out = intersect_with_mains(simple_building)
        assert is_aligned(out)
        assert len(out.mains[0]) == len(simple_building.mains[0])

    def test_mains_gap_removes_appliance_rows(self):
        t_mains = [t for t in np.arange(0.0, 100.0) if not 40 < t < 60]
        mains = mk_channel(t_mains, np.zeros(len(t_mains)), cid="mains_1")
        app = mk_channel(np.arange(0.0, 100.0), np.zeros(100), cid="fridge")
        b = mk_building(mains=[mains], appliances={"fridge": app})
        out = intersect_with_mains(b)
        fridge_t = out.appliances["fridge"].timestamps
        assert not np.any((fridge_t > 40) & (fridge_t < 60))
        assert is_aligned(out)

    def test_appliance_gap_removes_mains_rows(self):
        mains = mk_channel(np.arange(0.0, 100.0), np.zeros(100), cid="mains_1")
        t_app = [t for t in np.arange(0.0, 100.0) if not 10 < t < 20]
        app = mk_channel(t_app, np.zeros(len(t_app)), cid="fridge")
        b = mk_building(mains=[mains], appliances={"fridge": app})
        out = intersect_with_mains(b)
        mains_t = out.mains[0].timestamps
        assert not np.any((mains_t > 10) & (mains_t < 20))


class TestTrainTestSplit:
    def test_even_split(self, simple_building):
        train, test = train_test_split(simple_building, 0.5)
        assert len(train.mains[0]) == 50
        assert len(test.mains[0]) == 50

    def test_minimal_split(self):
        m = mk_channel([0.0, 1.0], [1.0, 2.0], cid="mains_1")
        train, test = train_test_split(mk_building(mains=[m]), 0.5)
        assert len(train.mains[0]) == 1
        assert len(test.mains[0]) == 1

    def test_unaligned_rejected(self):
        m = mk_channel(np.arange(10.0), np.zeros(10), cid="mains_1")
        app = mk_channel(np.arange(0.0, 10.0, 2.0), np.zeros(5), cid="fridge")
        b = mk_building(mains=[m], appliances={"fridge": app})
        with pytest.raises(ValueError, match="aligned"):
            train_test_split(b, 0.5)

    def test_single_sample_rejected(self):
        m = mk_channel([0.0], [1.0], cid="mains_1")
        with pytest.raises(ValueError, match="too few"):
            train_test_split(mk_building(mains=[m]), 0.5)

    @given(st.integers(2, 200), st.floats(0.05, 0.95))
    def test_halves_partition_the_index(self, n, fraction):
        t = np.arange(float(n))
        m = mk_channel(t, np.zeros(n), cid="mains_1")
        b = mk_building(mains=[m])
        n_train = int(n * fraction)
        if n_train < 1 or n - n_train < 1:
            return
        train, test = train_test_split(b, fraction)
        merged = np.concatenate([train.mains[0].timestamps, test.mains[0].timestamps])
        assert np.array_equal(merged, t)
        assert train.mains[0].timestamps.size == n_train

    @settings(max_examples=150, deadline=None)
    @given(grid=dropout_channels(max_rows=2000), circuit=dropout_channels(max_rows=500),
           fraction=st.floats(0.01, 0.99))
    def test_slices_equal_mask_split(self, grid, circuit, fraction):
        # Aligned mains and appliance on an off-grid start or a 0.1 s period;
        # a circuit on its own grid is split at the same instant.
        n_train = int(len(grid) * fraction)
        if n_train < 1 or len(grid) - n_train < 1:
            return
        b = mk_building(
            mains=[grid], circuits=[circuit],
            appliances={"fridge": Channel("fridge", grid.timestamps, {POWER_ACTIVE: -grid.timestamps}, 1.0)},
        )
        for got, want in zip(train_test_split(b, fraction), mask_train_test_split(b, fraction)):
            for (_, _, g), (_, _, w) in zip(got.channels(), want.channels(), strict=True):
                assert (g.id, g.nominal_period, list(g.columns)) == (w.id, w.nominal_period, list(w.columns))
                assert_bits_equal(g.timestamps, w.timestamps)
                for m in w.columns:
                    assert_bits_equal(g.values(m), w.values(m))


class TestMoreEdges:
    def test_intersect_preserves_circuits(self):
        from dataclasses import replace

        t = np.arange(0.0, 50.0)
        mains = mk_channel(t, np.zeros(50), cid="mains_1")
        app = mk_channel(t[:40], np.zeros(40), cid="fridge")
        circuit = mk_channel(t, np.zeros(50), cid="kitchen")
        b = replace(
            mk_building(mains=[mains], appliances={"fridge": app}),
            circuits=(circuit,),
        )
        out = intersect_with_mains(b)
        assert len(out.mains[0]) == 40
        assert len(out.circuits[0]) == 50  # circuits pass through untouched

    def test_downsample_fractional_period_binning(self):
        # 0.1 s sampling; (t - t0) / period lands on values like
        # 29.999999999999996 without the epsilon guard.
        t = np.arange(0.0, 60.0, 0.1)
        c = mk_channel(t, np.ones(t.size), period=0.1)
        d = downsample(c, 1.0, "mean")
        assert d.timestamps.size == 60
        assert np.allclose(np.diff(d.timestamps), 1.0)
        assert np.all(d.values(POWER_ACTIVE) == 1.0)

    def test_downsample_empty_channel(self):
        c = mk_channel([], [], period=1.0)
        d = downsample(c, 60.0)
        assert len(d) == 0
        assert d.nominal_period == 60.0
