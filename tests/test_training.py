import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilmbench.data import POWER_ACTIVE
from nilmbench.preprocess import downsample
from nilmbench.synth import ApplianceSynthSpec, SynthSpec, default_benchmark_spec, generate
from nilmbench.training import (
    ApplianceHMM,
    ApplianceStateModel,
    COModel,
    FHMMModel,
    _kmeans_1d,
    assign_states,
    learn_building_states,
    learn_hmm,
    learn_states,
    train_co,
    train_fhmm,
)

from conftest import mk_building, mk_channel
from oracles import learn_states_three_sorts


class TestModelTypes:
    def test_means_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ApplianceStateModel("x", [100.0, 100.0], [1.0, 1.0])

    def test_stds_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ApplianceStateModel("x", [0.0, 100.0], [1.0, 0.0])

    def test_hmm_rows_must_be_stochastic(self):
        base = ApplianceStateModel("x", [0.0, 100.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="sum to 1"):
            ApplianceHMM(base, pi=[0.6, 0.5], A=[[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="sum to 1"):
            ApplianceHMM(base, pi=[0.5, 0.5], A=[[0.9, 0.2], [0.5, 0.5]])

    def test_duplicate_names_rejected(self):
        a = ApplianceStateModel("x", [0.0, 100.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="unique"):
            COModel(appliances=(a, a))

    def test_noise_variance_floored(self):
        base = ApplianceStateModel("x", [0.0, 100.0], [1.0, 1.0])
        hmm = ApplianceHMM(base, pi=[0.5, 0.5], A=[[0.5, 0.5], [0.5, 0.5]])
        m = FHMMModel(appliances=(hmm,), noise_variance=0.0)
        assert m.noise_variance == 25.0


class TestAssignStates:
    def test_nearest_mean(self):
        assert list(assign_states(np.array([49.0, 51.0]), np.array([0.0, 100.0]))) == [0, 1]

    def test_midpoint_goes_to_lower_state(self):
        means = np.array([0.0, 100.0, 300.0])
        assert list(assign_states(np.array([50.0, 200.0]), means)) == [0, 1]


class TestLearnStates:
    def test_two_point_clusters(self):
        c = mk_channel(np.arange(5.0), [0.0, 0.0, 0.0, 100.0, 100.0])
        model = learn_states(c, 2)
        assert list(model.means) == [0.0, 100.0]
        assert list(model.stds) == [1.0, 1.0]  # floored

    def test_constant_channel_reduces_k(self):
        c = mk_channel(np.arange(5.0), np.full(5, 42.0))
        with pytest.warns(UserWarning, match="reducing K"):
            model = learn_states(c, 2)
        assert model.K == 1
        assert model.means[0] == 42.0

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(17)
        values = np.concatenate([rng.normal(0, 3, 50), rng.normal(900, 40, 70)])
        shuffled = values[rng.permutation(values.size)]
        a = learn_states(mk_channel(np.arange(120.0), values), 2)
        b = learn_states(mk_channel(np.arange(120.0), shuffled), 2)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.stds, b.stds)

    def test_power_of_two_scaling_is_exact(self):
        # Exact equivariance holds for power-of-two scale factors (every
        # float op scales exactly); generic factors match to rounding.
        rng = np.random.default_rng(23)
        values = np.concatenate([rng.normal(10, 2, 60), rng.normal(500, 30, 60)])
        base = learn_states(mk_channel(np.arange(120.0), values), 2)
        scaled = learn_states(mk_channel(np.arange(120.0), values * 4.0), 2)
        assert np.array_equal(scaled.means, base.means * 4.0)
        assert np.array_equal(scaled.stds, base.stds * 4.0)

    def test_downsampled_cycling_ac_learns_intermediate_level(self):
        # Compressor cycling within on-periods: 1 Hz signal alternates
        # 1600 W (39 s) and 150 W (21 s) per minute while on.  Downsampled
        # to 1 minute means, the learned on-state sits near 1.1 kW even
        # though the rated draw is 1.6 kW.
        minute = np.concatenate([np.full(39, 1600.0), np.full(21, 150.0)])
        on_hours = np.tile(minute, 120)
        off_hours = np.zeros(on_hours.size)
        power = np.concatenate([on_hours, off_hours, on_hours, off_hours])
        c = mk_channel(np.arange(float(power.size)), power, period=1.0)
        per_minute = downsample(c, 60.0, "mean")
        model = learn_states(per_minute, 2)
        assert 1050.0 <= model.means[1] <= 1150.0
        assert model.means[1] < 1600.0

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            learn_states(mk_channel([], []), 2)

    @pytest.mark.parametrize("K", [2.5, True, 0])
    def test_state_count_must_be_an_integer_at_least_1(self, K):
        c = mk_channel(np.arange(4.0), [0.0, 5.0, 100.0, 105.0])
        with pytest.raises(ValueError, match=f"^K must be (an integer|>= 1), got {K!r}$"):
            learn_states(c, K)


class TestLearnHmm:
    def test_alternating_chain_counts(self):
        c = mk_channel(np.arange(100.0), [0.0, 100.0] * 50)
        hmm = learn_hmm(c, learn_states(c, 2))
        # 50 transitions 0->1 and 49 transitions 1->0, add-one smoothed.
        assert hmm.A[0, 1] == pytest.approx(51 / 52)
        assert hmm.A[1, 0] == pytest.approx(50 / 51)
        assert np.allclose(hmm.A.sum(axis=1), 1.0, atol=1e-9)

    def test_mostly_off_channel_pi(self):
        power = np.zeros(100)
        power[-1] = 100.0
        c = mk_channel(np.arange(100.0), power)
        hmm = learn_hmm(c, learn_states(c, 2))
        assert hmm.pi[0] == pytest.approx(100 / 102)
        assert hmm.pi[1] == pytest.approx(2 / 102)

    def test_chain_recovery_from_generator(self):
        A_true = ((0.9, 0.1), (0.3, 0.7))
        spec = SynthSpec(
            appliances=(
                ApplianceSynthSpec(
                    name="fridge",
                    means=(0.0, 200.0),
                    stds=(0.0, 0.0),
                    pi=(0.5, 0.5),
                    A=A_true,
                ),
            ),
            period=1.0,
            duration=100_000.0,
            seed=2024,
        )
        ds, _ = generate(spec)
        c = ds.buildings[1].appliances["fridge"]
        hmm = learn_hmm(c, learn_states(c, 2))
        np.testing.assert_allclose(hmm.A, np.asarray(A_true), atol=0.05)

    def test_transitions_skip_pairs_across_gaps(self):
        # Two 6 h outages in a 7 d, 60 s household: the pair straddling each
        # is no 60 s transition, so A is the add-one-smoothed counts of the
        # other pairs, while pi still counts every sample.
        day = 86400.0
        spec = replace(
            default_benchmark_spec(seed=4), duration=7 * day, period=60.0,
            gaps=((2 * day, 2 * day + 21600.0), (5 * day, 5 * day + 21600.0)),
        )
        b = generate(spec)[0].buildings[1]
        for base in learn_building_states(b, POWER_ACTIVE, 2):
            c = b.appliances[base.name]
            states = assign_states(c.values(POWER_ACTIVE), base.means)
            across = np.diff(c.timestamps) > 3 * 60.0
            assert across.sum() == 2, base.name
            pairs = states[:-1] * 2 + states[1:]
            counted = np.bincount(pairs[~across], minlength=4).reshape(2, 2) + 1.0
            every = np.bincount(pairs, minlength=4).reshape(2, 2) + 1.0
            hmm = learn_hmm(c, base)
            np.testing.assert_array_equal(hmm.A, counted / counted.sum(axis=1, keepdims=True))
            assert not np.array_equal(hmm.A, every / every.sum(axis=1, keepdims=True))
            pi = (np.bincount(states, minlength=2) + 1.0) / (len(c) + 2)
            np.testing.assert_array_equal(hmm.pi, pi)

    def test_stochastic_invariants(self):
        rng = np.random.default_rng(4)
        c = mk_channel(np.arange(500.0), rng.choice([0.0, 80.0, 300.0], 500))
        hmm = learn_hmm(c, learn_states(c, 3))
        assert abs(hmm.pi.sum() - 1.0) <= 1e-9
        assert np.all(np.abs(hmm.A.sum(axis=1) - 1.0) <= 1e-9)


def synthetic_three_appliance_building(seed=7, duration=20_000.0):
    spec = SynthSpec(
        appliances=(
            ApplianceSynthSpec(
                name="fridge", means=(0.0, 150.0), stds=(0.5, 2.0),
                pi=(0.5, 0.5), A=((0.95, 0.05), (0.05, 0.95)),
            ),
            ApplianceSynthSpec(
                name="television", means=(0.0, 80.0), stds=(0.5, 1.0),
                pi=(0.5, 0.5), A=((0.9, 0.1), (0.1, 0.9)),
            ),
            ApplianceSynthSpec(
                name="air_conditioner", means=(0.0, 1500.0), stds=(0.5, 10.0),
                pi=(0.5, 0.5), A=((0.98, 0.02), (0.02, 0.98)),
            ),
        ),
        noise_std=5.0,
        period=1.0,
        duration=duration,
        seed=seed,
    )
    ds, states = generate(spec)
    return ds.buildings[1], states, spec


class TestTrainBuilding:
    def test_three_appliance_means_recovered(self):
        b, _, spec = synthetic_three_appliance_building()
        model = train_co(b, learn_building_states(b, POWER_ACTIVE, 2))
        assert len(model.appliances) == 3
        by_name = {a.name: a for a in model.appliances}
        for app_spec in spec.appliances:
            got = by_name[app_spec.name].means
            np.testing.assert_allclose(got, app_spec.means, atol=5.0)

    def test_single_appliance_model(self):
        c = mk_channel(np.arange(10.0), [0.0, 50.0] * 5, cid="kettle")
        m = mk_channel(np.arange(10.0), [0.0, 50.0] * 5, cid="mains_1")
        b = mk_building(mains=[m], appliances={"kettle": c})
        model = train_co(b, learn_building_states(b, POWER_ACTIVE, 2))
        assert len(model.appliances) == 1

    def test_missing_feature_names_channel(self):
        bad = mk_channel(np.arange(3.0), None, cid="fridge", voltage=[230.0] * 3)
        b = mk_building(appliances={"fridge": bad})
        with pytest.raises(ValueError, match="fridge"):
            train_co(b, learn_building_states(b, POWER_ACTIVE, 2))

    def test_empty_appliance_set_rejected(self):
        with pytest.raises(ValueError, match="no appliance"):
            b = mk_building()
            train_co(b, learn_building_states(b, POWER_ACTIVE, 2))

    def test_fhmm_noise_variance_from_residual(self):
        b, _, _ = synthetic_three_appliance_building()
        model = train_fhmm(b, learn_building_states(b, POWER_ACTIVE, 2))
        # Generator noise std is 5 W -> variance 25; flooring also sits at
        # 25, so the estimate must land near it (clipping at 0 biases a
        # touch high).
        assert 20.0 <= model.noise_variance <= 40.0

    def test_fhmm_rows_stochastic(self):
        b, _, _ = synthetic_three_appliance_building()
        model = train_fhmm(b, learn_building_states(b, POWER_ACTIVE, 2))
        for a in model.appliances:
            assert abs(a.pi.sum() - 1.0) <= 1e-9
            assert np.all(np.abs(a.A.sum(axis=1) - 1.0) <= 1e-9)

    def test_per_appliance_state_counts(self):
        b, _, _ = synthetic_three_appliance_building()
        for train in (train_co, train_fhmm):
            model = train(b, learn_building_states(b, POWER_ACTIVE, 3))
            assert [a.K for a in model.appliances] == [3, 3, 3]


class TestKmeansEdges:
    def test_two_distinct_values_reduce_three_states(self):
        values = np.concatenate([np.zeros(100), np.full(100, 1000.0)])
        c = mk_channel(np.arange(200.0), values)
        with pytest.warns(UserWarning, match="reducing K from 3 to 2"):
            model = learn_states(c, 3)
        assert model.K == 2
        assert list(model.means) == [0.0, 1000.0]

    def test_skewed_two_cluster_data_keeps_two_states(self):
        # 90/10 imbalance puts both init quantiles on the heavy mode; the
        # unique-value fallback must still find both clusters.
        values = np.concatenate([np.zeros(90), np.full(10, 500.0)])
        c = mk_channel(np.arange(100.0), values)
        model = learn_states(c, 2)
        assert list(model.means) == [0.0, 500.0]

    def test_three_clear_clusters(self):
        rng = np.random.default_rng(31)
        values = np.concatenate([
            rng.normal(0, 2, 80), rng.normal(400, 8, 60), rng.normal(1200, 15, 40)
        ])
        c = mk_channel(np.arange(float(values.size)), values)
        model = learn_states(c, 3)
        assert model.K == 3
        np.testing.assert_allclose(model.means, [0, 400, 1200], atol=15)


# Levels whose midpoints are again levels (0 | 0.5 | 1 ...), both zeros,
# and arbitrary finite floats; repeated by skewed counts, which collapse
# the quantile initialisation.
LEVELS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 100.0, 250.0, -40.0])
FINITE = st.floats(-5e3, 5e3, allow_nan=False, allow_infinity=False)


@st.composite
def channel_values(draw):
    levels = draw(st.lists(LEVELS | FINITE, min_size=1, max_size=6))
    counts = draw(st.lists(st.integers(1, 40), min_size=len(levels), max_size=len(levels)))
    values = np.repeat(np.asarray(levels, dtype=float), counts)
    return values[draw(st.permutations(range(values.size)))]


def learnt(learn, values, K):
    """Means and stds bytes plus every warning text, or the error type."""
    c = mk_channel(np.arange(float(values.size)), values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = learn(c, K)
            result = (m.means.tobytes(), m.stds.tobytes())
        except ValueError as e:
            result = type(e)
    return result, [(w.category, str(w.message)) for w in caught]


class TestLearnStatesOracle:
    @settings(max_examples=400, deadline=None)
    @given(values=channel_values(), K=st.integers(1, 4))
    @example(values=np.concatenate([np.zeros(90), np.full(10, 500.0)]), K=2)
    @example(values=np.array([0.0, 1.0, 2.0, 0.0, 2.0]), K=2)
    @example(values=np.array([-0.0, 0.0, 1.0, -0.0, 1.0, 3.0]), K=3)
    @example(values=np.array([0.0, 0.5, 1.0, 1.5, 2.0]), K=4)
    def test_sort_once_matches_three_sorts_bit_for_bit(self, values, K):
        assert learnt(learn_states, values, K) == learnt(learn_states_three_sorts, values, K)

    @settings(max_examples=200, deadline=None)
    @given(values=channel_values(), K=st.integers(1, 4))
    @example(values=np.array([0.0, 0.0, 1.0, 3.0]), K=2)
    def test_cluster_sizes_match_assign_states(self, values, K):
        # One nearest-state rule: a value on a midpoint joins the lower state.
        x = np.sort(values)
        means, bounds = _kmeans_1d(x, min(K, np.unique(x).size))
        counts = np.bincount(assign_states(x, means), minlength=means.size)
        assert np.diff(bounds).tolist() == counts.tolist()

    @settings(max_examples=50, deadline=None)
    @given(values=channel_values(), K=st.integers(1, 4), at=st.integers(0, 10_000))
    def test_nan_channel_still_raises(self, values, K, at):
        values = np.insert(values, at % (values.size + 1), np.nan)
        assert learnt(learn_states, values, K)[0] is ValueError
        assert learnt(learn_states_three_sorts, values, K)[0] is ValueError
