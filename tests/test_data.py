import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench.data import (
    Channel,
    Measurement,
    POWER_ACTIVE,
    POWER_REACTIVE,
    VOLTAGE,
    canonical_label,
    check_channel_id,
    check_number,
    check_period,
    first_out_of_order,
    is_canonical,
    mains_total,
    outside_gaps,
    select_window,
    validate_building,
)
from nilmbench.preprocess import train_test_split
from nilmbench.synth import default_benchmark_spec, generate

from conftest import mk_building, mk_channel


class TestMeasurement:
    def test_voltage_has_no_variant(self):
        with pytest.raises(ValueError):
            Measurement("voltage", "active")
        assert Measurement("voltage").column_name == "voltage"

    def test_column_name_round_trip(self):
        for m in (POWER_ACTIVE, VOLTAGE, Measurement("energy"), Measurement("power", "reactive")):
            assert Measurement.from_column_name(m.column_name) == m

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            Measurement.from_column_name("temperature")


class TestChannel:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mk_channel([0.0, 1.0], [5.0])

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            mk_channel([0.0], [5.0], period=0.0)

    @pytest.mark.parametrize("period", [float("inf"), float("nan"), -3.0])
    def test_period_must_be_finite_and_positive(self, period):
        with pytest.raises(ValueError, match=f"channel ch: nominal_period must be finite and > 0, got {period!r}"):
            mk_channel([0.0], [5.0], period=period)

    @pytest.mark.parametrize("period", [True, "3"])
    def test_period_must_be_a_number(self, period):
        with pytest.raises(ValueError, match=f"channel ch: nominal_period must be finite and > 0, got {period!r}"):
            mk_channel([0.0], [5.0], period=period)

    def test_timestamps_must_be_1d(self):
        with pytest.raises(ValueError, match="^channel ch: timestamps must be 1-D$"):
            mk_channel([[0.0, 1.0]])

    def test_arrays_are_immutable(self):
        c = mk_channel([0.0, 1.0], [5.0, 6.0])
        with pytest.raises(ValueError):
            c.timestamps[0] = 9.0
        with pytest.raises(ValueError):
            c.values(POWER_ACTIVE)[0] = 9.0


NAN, INF = float("nan"), float("inf")


def first_out_of_order_loop(t):
    """The order rule one stamp at a time."""
    for i, x in enumerate(t.tolist()):
        if not math.isfinite(x) or (i and not x > t[i - 1]):
            return i
    return None


class TestTimestampOrder:
    """Timestamps are finite and strictly increasing, enforced at construction."""

    @pytest.mark.parametrize("stamps, row", [
        ([0.0, 10.0, 5.0, 15.0], 2),
        ([0.0, 1.0, 1.0], 2),
        ([0.0, -0.0], 1),
        ([-0.0, 0.0], 1),
    ])
    def test_decrease_or_repeat_raises_naming_channel_and_row(self, stamps, row):
        with pytest.raises(ValueError, match=rf"channel ch: timestamps must be .* at row {row}$"):
            mk_channel(stamps, [0.0] * len(stamps))

    @pytest.mark.parametrize("stamps, row", [
        ([NAN], 0), ([NAN, 1.0], 0), ([0.0, NAN, 2.0], 1), ([0.0, 1.0, NAN], 2),
        ([INF], 0), ([-INF], 0), ([-INF, 0.0], 0), ([0.0, INF], 1), ([0.0, 1.0, -INF], 2),
    ])
    def test_non_finite_stamp_raises(self, stamps, row):
        with pytest.raises(ValueError, match=rf"at row {row}$"):
            mk_channel(stamps, [0.0] * len(stamps))

    @pytest.mark.parametrize("stamps", [[], [0.0], [-0.0], [1.3e9]])
    def test_empty_and_one_row_channels_build(self, stamps):
        assert len(mk_channel(stamps, [0.0] * len(stamps))) == len(stamps)

    def test_take_that_reorders_rows_raises(self):
        c = mk_channel([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        with pytest.raises(ValueError, match=r"got 0\.0 after 2\.0 at row 1"):
            c.take(np.array([2, 0]))
        with pytest.raises(ValueError, match="at row 1"):
            c.take(np.array([1, 1]))
        with pytest.raises(ValueError, match="at row 1"):
            c.take(slice(None, None, -1))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 1e17, NAN, INF, -INF]), max_size=6))
    def test_rule_matches_loop(self, stamps):
        t = np.array(stamps, dtype=np.float64)
        assert first_out_of_order(t) == first_out_of_order_loop(t)


COLUMNS = (POWER_ACTIVE, VOLTAGE, POWER_REACTIVE)


def unchecked_channel(t, columns):
    """A channel built around ``__post_init__``: what a stage would hand on
    if construction did not check its values."""
    c = object.__new__(Channel)
    for name, value in (("id", "ch"), ("timestamps", t), ("columns", columns), ("nominal_period", 1.0)):
        object.__setattr__(c, name, value)
    return c


def construction_peak(t, columns) -> int:
    tracemalloc.start()
    try:
        Channel("ch", t, columns, 1.0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFiniteValues:
    """Every column holds finite values, enforced at construction."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_first_non_finite_value_raises(self, data):
        n = data.draw(st.integers(1, 30), label="rows")
        finite = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n)
        names = COLUMNS[: data.draw(st.integers(1, 3), label="columns")]
        columns = {m: np.array(data.draw(finite, label=m.column_name)) for m in names}
        for col, row, x in data.draw(st.lists(st.tuples(
            st.integers(0, len(names) - 1), st.integers(0, n - 1), st.sampled_from([NAN, INF, -INF]),
        ), min_size=1, max_size=4), label="faults"):
            columns[names[col]][row] = x
        m, row, x = next((m, i, x) for m, v in columns.items()
                         for i, x in enumerate(v.tolist()) if not math.isfinite(x))
        prefix = rf"^channel ch: {m.column_name} values must be finite, got {re.escape(repr(x))} at row "
        t = np.arange(float(n))
        with pytest.raises(ValueError, match=prefix + f"{row}$"):
            Channel("ch", t, columns, 1.0)
        with pytest.raises(ValueError, match=prefix + f"{row}$"):
            mk_channel(t, np.zeros(n)).with_columns(columns)
        # Rows taken from ``start`` on are numbered from 0 in the result.
        start = data.draw(st.integers(0, row), label="start")
        for selector in (slice(start, None), np.arange(start, n)):
            with pytest.raises(ValueError, match=prefix + f"{row - start}$"):
                unchecked_channel(t, columns).take(selector)

    @pytest.mark.parametrize("values", [[1e308, 1e308], [-1e308, -1e308, 5.0], [1.7e308, 1.7e308, -1.7e308]])
    def test_values_whose_sum_overflows_build(self, values):
        c = mk_channel(np.arange(float(len(values))), values)
        assert c.values(POWER_ACTIVE).tolist() == values
        assert c.take(slice(1, None)).values(POWER_ACTIVE).tolist() == values[1:]

    def test_a_passing_check_allocates_nothing(self, monkeypatch):
        n = 10**6
        t = frozen(np.arange(float(n)))
        columns = {m: frozen(np.linspace(-1e3, 1e3, n)) for m in COLUMNS}
        # The order check's own mask would hide a mask of the same size, and
        # these stamps pass it.  The channel shares read-only input, so any
        # growth is the value checks'.
        monkeypatch.setattr("nilmbench.data.first_out_of_order", lambda t: None)
        assert construction_peak(t, columns) <= construction_peak(t, {}) + 4096


def frozen(values):
    a = np.array(values, dtype=np.float64)
    a.setflags(write=False)
    return a


class TestSharing:
    """A channel shares an array that nothing can write and copies any other."""

    def test_writable_input_is_copied(self):
        t, v = np.arange(4.0), np.array([5.0, 6.0, 7.0, 8.0])
        c = Channel("c", t, {POWER_ACTIVE: v}, 1.0)
        t[0] = v[0] = 99.0
        assert c.timestamps[0] == 0.0 and c.values(POWER_ACTIVE)[0] == 5.0

    def test_read_only_view_of_writable_base_is_copied(self):
        base = np.arange(8.0)
        t, v = base[:4], base[4:]
        t.setflags(write=False)
        v.setflags(write=False)
        c = Channel("c", t, {POWER_ACTIVE: v}, 1.0)
        base[:] = 99.0
        assert c.timestamps.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert c.values(POWER_ACTIVE).tolist() == [4.0, 5.0, 6.0, 7.0]

    @pytest.mark.parametrize("writable", [True, False])
    def test_non_contiguous_column_is_copied(self, writable):
        # The columns of a 2-D table, as ``np.loadtxt`` returns them.
        table = np.array([[0.0, 5.0], [1.0, 6.0], [2.0, 7.0]])
        table.setflags(write=writable)
        c = Channel("c", table[:, 0], {POWER_ACTIVE: table[:, 1]}, 1.0)
        assert not np.shares_memory(c.timestamps, table)
        assert not np.shares_memory(c.values(POWER_ACTIVE), table)
        assert c.timestamps.flags.c_contiguous
        if writable:
            table[:] = 99.0
        assert c.timestamps.tolist() == [0.0, 1.0, 2.0]
        assert c.values(POWER_ACTIVE).tolist() == [5.0, 6.0, 7.0]

    def test_frozen_contiguous_input_is_shared(self):
        t, v = frozen([0.0, 1.0, 2.0]), frozen([5.0, 6.0, 7.0])
        c = Channel("c", t, {POWER_ACTIVE: v}, 1.0)
        assert np.shares_memory(c.timestamps, t)
        assert np.shares_memory(c.values(POWER_ACTIVE), v)
        # So is a contiguous view of it, and a channel built from a channel.
        d = Channel("d", c.timestamps[1:], {POWER_ACTIVE: c.values(POWER_ACTIVE)[1:]}, 1.0)
        assert np.shares_memory(d.timestamps, t)
        assert np.shares_memory(d.values(POWER_ACTIVE), v)

    def test_take_of_an_all_true_mask_is_the_channel(self):
        c = mk_channel([0.0, 1.0, 2.0], [5.0, 6.0, 7.0])
        assert c.take(np.ones(3, dtype=bool)) is c
        assert mk_channel([], []).take(np.ones(0, dtype=bool)).timestamps.size == 0
        with pytest.raises(IndexError):
            c.take(np.ones(4, dtype=bool))

    def test_take_copies_a_mask_and_views_a_slice(self):
        c = Channel("c", frozen(np.arange(6.0)), {POWER_ACTIVE: frozen(np.arange(6.0) + 10)}, 1.0)
        masked = c.take(c.timestamps % 2 == 0)
        assert not np.shares_memory(masked.timestamps, c.timestamps)
        assert not masked.timestamps.flags.writeable
        assert masked.timestamps.tolist() == [0.0, 2.0, 4.0]
        sliced = c.take(slice(2, 5))
        assert np.shares_memory(sliced.timestamps, c.timestamps)
        assert np.shares_memory(sliced.values(POWER_ACTIVE), c.values(POWER_ACTIVE))
        assert sliced.values(POWER_ACTIVE).tolist() == [12.0, 13.0, 14.0]

    def test_split_halves_share_the_aligned_building(self):
        t = frozen(np.arange(10.0))
        b = mk_building(
            mains=[Channel("mains_1", t, {POWER_ACTIVE: frozen(np.arange(10.0) * 2)}, 1.0)],
            appliances={"fridge": Channel("fridge", t, {POWER_ACTIVE: frozen(np.arange(10.0))}, 1.0)},
        )
        for half in train_test_split(b, 0.3):
            for (_, _, whole), (_, _, part) in zip(b.channels(), half.channels()):
                assert np.shares_memory(part.timestamps, whole.timestamps)
                assert np.shares_memory(part.values(POWER_ACTIVE), whole.values(POWER_ACTIVE))

    def test_generated_channels_share_one_timestamp_array(self):
        b = generate(default_benchmark_spec(seed=3))[0].buildings[1]
        (_, _, mains), *appliances = b.channels()
        assert len(appliances) == 3
        assert all(c.timestamps is mains.timestamps for _, _, c in appliances)


class TestRealRules:
    @pytest.mark.parametrize("value", [-math.inf, -1, 0.0, 2.5, math.inf])
    def test_a_bound_is_any_number_but_nan(self, value):
        assert check_number(value) == value and type(check_number(value)) is float

    @pytest.mark.parametrize("value", [math.nan, "1", True])
    def test_a_bound_refuses_nan_text_and_bool(self, value):
        with pytest.raises(ValueError, match=re.escape(f"lo must be a number, not NaN, got {value!r}")):
            check_number(value, "lo")

    def test_a_period_reads_as_a_float(self):
        assert type(check_period(60)) is float and check_period(60) == 60.0


class TestCheckChannelId:
    @pytest.mark.parametrize("name", ["fridge", "lighting_2", "a.b", "...", " ", "kühlschrank"])
    def test_one_path_component_accepted(self, name):
        check_channel_id(name)

    @pytest.mark.parametrize(
        "name", ["", ".", "..", "a/b", "../../escape", "/", "a\\b", "a\0b", 5, None]
    )
    def test_other_names_rejected(self, name):
        with pytest.raises(ValueError, match="must be one path component"):
            check_channel_id(name)


class TestSelectWindow:
    def test_full_span_is_identity(self):
        c = mk_channel([5.0, 10.0, 15.0, 20.0], [1.0, 2.0, 3.0, 4.0])
        w = select_window(c, 5.0, 21.0)
        assert np.array_equal(w.timestamps, c.timestamps)
        assert np.array_equal(w.values(POWER_ACTIVE), c.values(POWER_ACTIVE))
        assert w.nominal_period == c.nominal_period

    def test_half_open_window(self):
        c = mk_channel([5.0, 10.0, 15.0, 20.0], [1.0, 2.0, 3.0, 4.0])
        w = select_window(c, 10.0, 20.0)
        assert list(w.timestamps) == [10.0, 15.0]

    def test_window_beyond_data_is_empty(self):
        c = mk_channel([5.0, 10.0], [1.0, 2.0])
        assert len(select_window(c, 100.0, 200.0)) == 0

    def test_requires_ordered_bounds(self):
        c = mk_channel([5.0], [1.0])
        with pytest.raises(ValueError):
            select_window(c, 10.0, 10.0)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=50, unique=True))
    def test_full_span_round_trip_bit_identical(self, ts):
        ts = sorted(float(t) for t in ts)
        c = mk_channel(ts, np.arange(len(ts), dtype=float))
        w = select_window(c, ts[0], ts[-1] + 1.0)
        assert np.array_equal(w.timestamps, c.timestamps)
        assert np.array_equal(w.values(POWER_ACTIVE), c.values(POWER_ACTIVE))


class TestOutsideGaps:
    def test_open_intervals_may_overlap(self):
        t = np.arange(0.0, 12.0)
        gaps = [(2.0, 5.0), (4.0, 7.0), (8.5, 11.5), (9.0, 10.0), (11.0, 3.0)]
        keep = outside_gaps(t, gaps)
        assert t[keep].tolist() == [0.0, 1.0, 2.0, 7.0, 8.0]


class TestCanonicalLabel:
    def test_redd_refrigerator(self):
        assert canonical_label("refrigerator", "REDD") == "fridge"

    def test_ampds_fge(self):
        assert canonical_label("FGE", "AMPds") == "fridge"

    def test_identity_for_canonical(self):
        assert canonical_label("fridge", "REDD") == "fridge"
        assert canonical_label("fridge", "") == "fridge"

    def test_instance_suffix_preserved(self):
        assert canonical_label("lighting_2", "REDD") == "lighting_2"
        assert is_canonical("lighting_2")

    def test_unknown_label_passes_through(self):
        assert canonical_label("XJ900", "REDD") == "XJ900"
        assert not is_canonical("XJ900")

    def test_spaces_and_case_normalised(self):
        assert canonical_label("Washing Machine", "iAWE") == "washing_machine"


class TestValidateBuilding:
    def test_well_formed_building_is_clean(self, simple_building):
        assert validate_building(simple_building) == []

    def test_decreasing_timestamps_flagged(self):
        # The order is a Channel invariant, so such a channel is never built.
        with pytest.raises(ValueError, match=r"channel bad: .* got 1\.0 after 2\.0 at row 1"):
            Channel(
                id="bad",
                timestamps=np.array([2.0, 1.0]),
                columns={POWER_ACTIVE: np.array([0.0, 0.0])},
                nominal_period=1.0,
            )

    def test_unmapped_label_flagged(self):
        c = mk_channel([0.0, 1.0], [0.0, 0.0], cid="FGE")
        b = mk_building(appliances={"FGE": c})
        violations = validate_building(b)
        assert any(v.rule == "unknown appliance label" for v in violations)
        # After canonicalisation the same channel passes.
        good = mk_building(appliances={canonical_label("FGE", "AMPds"): c})
        assert validate_building(good) == []

    def test_nan_power_flagged(self):
        # Finite values are a Channel invariant, so such a channel is never built.
        with pytest.raises(ValueError, match=r"^channel c: power_active values must be finite, got nan at row 1$"):
            Channel(
                id="c",
                timestamps=np.array([0.0, 1.0]),
                columns={POWER_ACTIVE: np.array([1.0, np.nan])},
                nominal_period=1.0,
            )

    def test_wiring_must_root_at_mains(self):
        c = mk_channel([0.0, 1.0], [0.0, 0.0], cid="fridge")
        m = mk_channel([0.0, 1.0], [0.0, 0.0], cid="mains_1")
        ok = mk_building(mains=[m], appliances={"fridge": c}, wiring=[("mains_1", "fridge")])
        assert validate_building(ok) == []
        bad = mk_building(mains=[m], appliances={"fridge": c}, wiring=[("nowhere", "fridge")])
        assert any(v.rule == "wiring not a forest" for v in validate_building(bad))

    def test_wiring_cycle_flagged(self):
        m = mk_channel([0.0, 1.0], [0.0, 0.0], cid="mains_1")
        b = mk_building(mains=[m], wiring=[("a", "b"), ("b", "a")])
        assert any(v.rule == "wiring not a forest" for v in validate_building(b))


class TestMainsTotal:
    def test_two_phase_sum(self):
        t = [0.0, 1.0, 2.0]
        m1 = mk_channel(t, [100.0, 110.0, 120.0], cid="mains_1")
        m2 = mk_channel(t, [50.0, 40.0, 30.0], cid="mains_2")
        total = mains_total(mk_building(mains=[m1, m2]))
        assert list(total.values(POWER_ACTIVE)) == [150.0, 150.0, 150.0]

    def test_unaligned_mains_rejected(self):
        m1 = mk_channel([0.0, 1.0], [1.0, 1.0], cid="mains_1")
        m2 = mk_channel([0.0, 2.0], [1.0, 1.0], cid="mains_2")
        with pytest.raises(ValueError, match="aligned"):
            mains_total(mk_building(mains=[m1, m2]))

    def test_no_mains_rejected(self):
        with pytest.raises(ValueError, match="no mains"):
            mains_total(mk_building())

    def test_one_mains_is_its_own_total(self):
        m = mk_channel([0.0, 1.0], [1.0, 2.0], cid="mains_1")
        assert mains_total(mk_building(mains=[m])) is m

    @pytest.mark.parametrize("n_mains", [1, 2])
    def test_every_mains_must_hold_the_feature(self, n_mains):
        mains = [mk_channel([0.0, 1.0], [1.0, 2.0], cid=f"mains_{i}") for i in range(1, n_mains + 1)]
        with pytest.raises(ValueError, match="channel mains_1 has no power_reactive column"):
            mains_total(mk_building(mains=mains), POWER_REACTIVE)

    def test_unaligned_mains_give_the_building_rule_text(self):
        m1 = mk_channel([0.0, 1.0], [1.0, 1.0], cid="mains_1")
        m2 = mk_channel([0.0, 2.0], [1.0, 1.0], cid="mains_2")
        with pytest.raises(ValueError) as e:
            mains_total(mk_building(mains=[m1, m2]))
        assert str(e.value) == "building 1 channels are not aligned; run intersect_with_mains first"
