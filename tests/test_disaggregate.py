import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from nilmbench import disaggregate
from nilmbench.data import POWER_ACTIVE
from nilmbench.disaggregate import (
    FHMM_BACKPOINTER_LIMIT,
    _emission_chunks,
    _product_sum,
    _viterbi_dense,
    _viterbi_staged,
    disaggregate_co,
    disaggregate_fhmm,
    predictions_to_power,
)
from nilmbench.pipeline import RunConfig, StageFailure, run
from nilmbench.synth import ApplianceSynthSpec, SynthSpec, generate
from nilmbench.training import ApplianceHMM, ApplianceStateModel, COModel, FHMMModel

from conftest import mk_channel
from oracles import (
    build_product_hmm,
    co_bruteforce,
    dense_viterbi,
    fhmm_path_loglik,
    product_index,
)


def state_model(name, means):
    return ApplianceStateModel(name, np.asarray(means, dtype=float), np.full(len(means), 5.0))


def random_hmm(rng, name, K, mean_scale=500.0, kind="dense"):
    """Random appliance chain.  ``kind`` "sparse" zeroes some pi and A
    entries (one positive entry kept per row); "uniform" makes them flat, so
    scores tie exactly."""
    means = np.sort(rng.uniform(0, mean_scale, K))
    while np.any(np.diff(means) < 1.0):
        means = np.sort(rng.uniform(0, mean_scale, K))
    stds = rng.uniform(2.0, 30.0, K)
    rows = np.vstack([rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K), size=K)])
    if kind == "uniform":
        rows = np.full((K + 1, K), 1.0 / K)
    if kind == "sparse":
        keep = rng.random((K + 1, K)) < 0.5
        keep[np.arange(K + 1), rng.integers(0, K, K + 1)] = True
        rows = np.where(keep, rows, 0.0)
        rows /= rows.sum(axis=1, keepdims=True)
    return ApplianceHMM(base=ApplianceStateModel(name, means, stds), pi=rows[0], A=rows[1:])


def aggregate_channel(y, period=1.0):
    return mk_channel(np.arange(len(y), dtype=float) * period, y, period=period, cid="mains")


def states_matrix(predictions, model):
    return np.stack(
        [predictions.appliances[a.name].states for a in model.appliances], axis=1
    )


class TestCO:
    def test_single_appliance_snaps_to_nearest(self):
        m = COModel(appliances=(state_model("kettle", [0.0, 100.0]),))
        p = disaggregate_co(m, aggregate_channel([90.0]))
        assert p.appliances["kettle"].states[0] == 1
        assert p.appliances["kettle"].powers[0] == 100.0

    def test_two_appliance_hand_case(self):
        m = COModel(
            appliances=(
                state_model("a", [0.0, 100.0]),
                state_model("b", [0.0, 60.0]),
            )
        )
        p = disaggregate_co(m, aggregate_channel([70.0]))
        assert p.appliances["a"].states[0] == 0
        assert p.appliances["b"].states[0] == 1

    def test_zero_aggregate_all_off(self):
        m = COModel(
            appliances=(
                state_model("a", [0.0, 100.0]),
                state_model("b", [0.0, 60.0]),
            )
        )
        p = disaggregate_co(m, aggregate_channel([0.0, 0.0, 0.0]))
        for ap in p.appliances.values():
            assert np.all(ap.states == 0)
            assert np.all(ap.powers == 0.0)

    def test_matches_bruteforce_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            N = int(rng.integers(1, 4))
            models = []
            for n in range(N):
                K = int(rng.integers(2, 4))
                means = np.sort(
                    rng.choice(np.arange(0, 30) * 10.0, size=K, replace=False)
                )
                models.append(state_model(f"a{n}", means))
            m = COModel(appliances=tuple(models))
            y = rng.choice(np.arange(0, 80) * 5.0, size=20)
            p = disaggregate_co(m, aggregate_channel(y))
            for t in range(y.size):
                want = co_bruteforce(models, float(y[t]))
                got = tuple(int(p.appliances[a.name].states[t]) for a in models)
                assert got == want, (y[t], got, want)

    def test_slices_are_independent(self):
        rng = np.random.default_rng(3)
        models = (state_model("a", [0.0, 120.0]), state_model("b", [0.0, 70.0]))
        m = COModel(appliances=models)
        y = rng.uniform(0, 250, 50)
        perm = rng.permutation(50)
        p1 = disaggregate_co(m, aggregate_channel(y))
        p2 = disaggregate_co(m, aggregate_channel(y[perm]))
        for a in models:
            assert np.array_equal(
                p1.appliances[a.name].states[perm], p2.appliances[a.name].states
            )

    def test_combination_limit_enforced(self):
        models = tuple(
            state_model(f"a{n}", np.arange(0.0, 8.0) * 50)  # K=8 each
            for n in range(7)
        )
        m = COModel(appliances=models)  # 8^7 = 2^21 combinations
        with pytest.raises(ValueError, match="filter"):
            disaggregate_co(m, aggregate_channel([100.0]))

    def test_negative_state_mean_clamped_in_power(self):
        m = COModel(appliances=(state_model("a", [-3.0, 100.0]),))
        p = disaggregate_co(m, aggregate_channel([0.0]))
        assert p.appliances["a"].states[0] == 0
        assert p.appliances["a"].powers[0] == 0.0


class TestFHMM:
    def test_single_appliance_equals_plain_viterbi(self):
        rng = np.random.default_rng(1)
        hmm = random_hmm(rng, "fridge", 3)
        m = FHMMModel(appliances=(hmm,), noise_variance=30.0)
        y = rng.uniform(0, 600, 80)
        p = disaggregate_fhmm(m, aggregate_channel(y))
        ph = build_product_hmm(m)
        path, ll = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
        assert np.array_equal(p.appliances["fridge"].states, path)

    def test_noise_free_sequence_recovered_exactly(self):
        spec = SynthSpec(
            appliances=(
                ApplianceSynthSpec(
                    name="a", means=(0.0, 100.0), stds=(0.0, 0.0),
                    pi=(0.5, 0.5), A=((0.9, 0.1), (0.2, 0.8)),
                ),
                ApplianceSynthSpec(
                    name="b", means=(0.0, 250.0), stds=(0.0, 0.0),
                    pi=(0.5, 0.5), A=((0.8, 0.2), (0.1, 0.9)),
                ),
            ),
            noise_std=0.0,
            period=1.0,
            duration=400.0,
            seed=99,
        )
        ds, true_states = generate(spec)
        b = ds.buildings[1]
        model = FHMMModel(
            appliances=tuple(
                ApplianceHMM(
                    base=ApplianceStateModel(s.name, np.asarray(s.means), np.full(2, 4.0)),
                    pi=np.asarray(s.pi),
                    A=np.asarray(s.A),
                )
                for s in spec.appliances
            ),
            noise_variance=25.0,
        )
        p = disaggregate_fhmm(model, b.mains[0])
        for name, truth in true_states.items():
            assert np.array_equal(p.appliances[name].states, truth)

    def test_identity_transitions_freeze_the_path(self):
        base_a = ApplianceStateModel("a", np.array([0.0, 100.0]), np.array([8.0, 8.0]))
        base_b = ApplianceStateModel("b", np.array([0.0, 100.0]), np.array([8.0, 8.0]))
        m = FHMMModel(
            appliances=(
                ApplianceHMM(base_a, pi=np.array([0.5, 0.5]), A=np.eye(2)),
                ApplianceHMM(base_b, pi=np.array([0.5, 0.5]), A=np.eye(2)),
            ),
            noise_variance=25.0,
        )
        rng = np.random.default_rng(5)
        y = rng.uniform(0, 220, 60)
        p = disaggregate_fhmm(m, aggregate_channel(y))
        for ap in p.appliances.values():
            assert np.unique(ap.states).size == 1
        ph = build_product_hmm(m)
        path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
        got = states_matrix(p, m)
        assert product_index(got[0], [2, 2]) == path[0]

    def test_matches_product_oracle_n3(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(3))
            m = FHMMModel(appliances=apps, noise_variance=40.0)
            y = rng.uniform(0, 1200, 120)
            p = disaggregate_fhmm(m, aggregate_channel(y))
            ph = build_product_hmm(m)
            path, ll = dense_viterbi(
                ph.pi, ph.A, ph.emission_means, ph.emission_variances, y
            )
            got = states_matrix(p, m)
            got_idx = np.array([product_index(row, ph.sizes) for row in got])
            assert np.array_equal(got_idx, path)
            assert fhmm_path_loglik(m, got, y) == pytest.approx(ll, abs=1e-9 * max(1, abs(ll)))

    def test_viterbi_beats_co_path(self):
        rng = np.random.default_rng(11)
        apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(3))
        fhmm = FHMMModel(appliances=apps, noise_variance=30.0)
        co = COModel(appliances=tuple(a.base for a in apps))
        y = rng.uniform(0, 1200, 150)
        agg = aggregate_channel(y)
        p_fhmm = disaggregate_fhmm(fhmm, agg)
        p_co = disaggregate_co(co, agg)
        ll_fhmm = fhmm_path_loglik(fhmm, states_matrix(p_fhmm, fhmm), y)
        ll_co = fhmm_path_loglik(fhmm, states_matrix(p_co, fhmm), y)
        assert ll_fhmm >= ll_co - 1e-9

    def test_state_space_limit_enforced(self):
        rng = np.random.default_rng(2)
        apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(15))  # 2^15
        m = FHMMModel(appliances=apps, noise_variance=25.0)
        with pytest.raises(ValueError, match="filter"):
            disaggregate_fhmm(m, aggregate_channel([100.0]))

    def test_backpointer_limit_enforced_before_allocating(self):
        # 14 two-state appliances: S = 16384, so 40 000 steps would need
        # 1.3 GB of backpointers.
        rng = np.random.default_rng(3)
        apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(14))
        m = FHMMModel(appliances=apps, noise_variance=25.0)
        agg = aggregate_channel(np.zeros(40_000))
        assert 40_000 * 2**14 * 2 > FHMM_BACKPOINTER_LIMIT
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="T=40000.*S=16384.*split the aggregate"):
                disaggregate_fhmm(m, agg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**24

    def test_backpointer_limit_names_stage_in_run(self, tmp_path):
        spec = SynthSpec(
            appliances=tuple(
                ApplianceSynthSpec(
                    name=f"load_{n:02d}", means=(0.0, 100.0 * (n + 1)), stds=(1.0, 5.0),
                    pi=(0.5, 0.5), A=((0.9, 0.1), (0.1, 0.9)),
                )
                for n in range(14)
            ),
            seed=5, period=1.0, duration=80_000.0,
        )
        cfg = RunConfig.from_dict({
            "dataset": {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
            "split_fraction": 0.5, "algorithms": ["fhmm"],
            "output": str(tmp_path / "out"), "seed": 5,
        })
        with pytest.raises(StageFailure, match="backpointers") as e:
            run(cfg, quiet=True)
        assert e.value.stage == "disaggregate_fhmm"

    def test_empty_aggregate(self):
        rng = np.random.default_rng(2)
        m = FHMMModel(appliances=(random_hmm(rng, "a", 2),), noise_variance=25.0)
        p = disaggregate_fhmm(m, aggregate_channel([]))
        assert p.appliances["a"].states.size == 0


class TestProductHMM:
    def test_prior_is_product(self):
        base1 = ApplianceStateModel("a", np.array([0.0, 100.0]), np.array([1.0, 1.0]))
        base2 = ApplianceStateModel("b", np.array([0.0, 50.0]), np.array([1.0, 1.0]))
        h1 = ApplianceHMM(base1, pi=np.array([0.3, 0.7]), A=np.array([[0.9, 0.1], [0.2, 0.8]]))
        h2 = ApplianceHMM(base2, pi=np.array([0.6, 0.4]), A=np.array([[0.5, 0.5], [0.4, 0.6]]))
        ph = build_product_hmm(FHMMModel(appliances=(h1, h2), noise_variance=25.0))
        assert ph.pi.shape == (4,)
        assert ph.A.shape == (4, 4)
        # index 2 encodes (a=1, b=0) with appliance 0 most significant
        assert ph.pi[2] == pytest.approx(0.7 * 0.6)
        assert ph.emission_means[2] == 100.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(9)
        apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(3))
        ph = build_product_hmm(FHMMModel(appliances=apps, noise_variance=25.0))
        np.testing.assert_allclose(ph.A.sum(axis=1), 1.0, atol=1e-9)
        assert ph.pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_size_limit(self):
        rng = np.random.default_rng(9)
        apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(11))  # 2^11
        with pytest.raises(ValueError, match="limit"):
            build_product_hmm(FHMMModel(appliances=apps, noise_variance=25.0))


class TestPredictionsToPower:
    def test_all_off_gives_zero_channel(self):
        m = COModel(appliances=(state_model("a", [0.0, 100.0]),))
        p = disaggregate_co(m, aggregate_channel([0.0, 0.0]))
        channels = predictions_to_power(p)
        assert np.all(channels["a"].values(POWER_ACTIVE) == 0.0)

    def test_timestamps_follow_aggregate(self):
        m = COModel(appliances=(state_model("a", [0.0, 100.0]),))
        agg = mk_channel([5.0, 9.0, 140.0], [0.0, 100.0, 100.0], period=4.0)
        p = disaggregate_co(m, agg)
        channels = predictions_to_power(p)
        assert np.array_equal(channels["a"].timestamps, agg.timestamps)
        assert channels["a"].nominal_period == 4.0

    def test_exact_fit_sums_to_aggregate(self):
        models = (state_model("a", [0.0, 100.0]), state_model("b", [0.0, 60.0]))
        m = COModel(appliances=models)
        y = [0.0, 100.0, 60.0, 160.0]
        p = disaggregate_co(m, aggregate_channel(y))
        channels = predictions_to_power(p)
        total = channels["a"].values(POWER_ACTIVE) + channels["b"].values(POWER_ACTIVE)
        assert np.array_equal(total, np.asarray(y))


class TestFHMMWideOracle:
    def test_matches_oracle_n5_k2(self):
        rng = np.random.default_rng(77)
        apps = tuple(random_hmm(rng, f"a{n}", 2, mean_scale=900.0) for n in range(5))
        m = FHMMModel(appliances=apps, noise_variance=60.0)
        y = rng.uniform(0, 3500, 150)
        p = disaggregate_fhmm(m, aggregate_channel(y))
        ph = build_product_hmm(m)
        path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
        got = states_matrix(p, m)
        got_idx = np.array([product_index(row, ph.sizes) for row in got])
        assert np.array_equal(got_idx, path)

    def test_matches_oracle_mixed_k(self):
        rng = np.random.default_rng(78)
        for trial in range(5):
            sizes = [int(rng.integers(2, 4)) for _ in range(4)]
            apps = tuple(random_hmm(rng, f"a{n}", k) for n, k in enumerate(sizes))
            m = FHMMModel(appliances=apps, noise_variance=45.0)
            y = rng.uniform(0, 2000, 60)
            p = disaggregate_fhmm(m, aggregate_channel(y))
            ph = build_product_hmm(m)
            path, _ = dense_viterbi(
                ph.pi, ph.A, ph.emission_means, ph.emission_variances, y
            )
            got = states_matrix(p, m)
            got_idx = np.array([product_index(row, ph.sizes) for row in got])
            assert np.array_equal(got_idx, path), trial

    def test_degenerate_ties_everywhere(self):
        # Three interchangeable appliances, uniform chains, identical
        # emissions: every Viterbi step ties across many product states.
        base = lambda n: ApplianceStateModel(f"a{n}", np.array([0.0, 100.0]), np.array([9.0, 9.0]))
        apps = tuple(
            ApplianceHMM(base(n), pi=np.full(2, 0.5), A=np.full((2, 2), 0.5))
            for n in range(3)
        )
        m = FHMMModel(appliances=apps, noise_variance=36.0)
        rng = np.random.default_rng(79)
        y = rng.choice([0.0, 100.0, 200.0, 300.0], size=40)
        p = disaggregate_fhmm(m, aggregate_channel(y))
        ph = build_product_hmm(m)
        path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
        got = states_matrix(p, m)
        got_idx = np.array([product_index(row, ph.sizes) for row in got])
        assert np.array_equal(got_idx, path)


from hypothesis import given, settings, strategies as st

means_strategy = st.lists(
    st.floats(0.0, 2000.0, allow_nan=False).map(lambda v: round(v, 1)),
    min_size=2, max_size=3, unique=True,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(means_strategy, min_size=1, max_size=3),
    st.lists(st.floats(-100.0, 5000.0, allow_nan=False), min_size=1, max_size=12),
)
def test_co_equals_bruteforce_property(mean_lists, ys):
    models = [
        state_model(f"a{n}", sorted(means)) for n, means in enumerate(mean_lists)
    ]
    m = COModel(appliances=tuple(models))
    p = disaggregate_co(m, aggregate_channel(ys))
    for t, ybar in enumerate(ys):
        want = co_bruteforce(models, float(ybar))
        got = tuple(int(p.appliances[a.name].states[t]) for a in models)
        assert got == want


def test_fhmm_matches_oracle_at_depth_ten():
    # 10 two-state appliances: 1024 product states, the explicit oracle's
    # ceiling.  Exercises the staged-max axis bookkeeping at real depth.
    rng = np.random.default_rng(123)
    apps = tuple(random_hmm(rng, f"a{n}", 2, mean_scale=300.0) for n in range(10))
    m = FHMMModel(appliances=apps, noise_variance=80.0)
    y = rng.uniform(0, 1800, 12)
    p = disaggregate_fhmm(m, aggregate_channel(y))
    ph = build_product_hmm(m)
    path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
    got = states_matrix(p, m)
    got_idx = np.array([product_index(row, ph.sizes) for row in got])
    assert np.array_equal(got_idx, path)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5).filter(
        lambda ks: math.prod(ks) <= 64
    ),
    kinds=st.lists(st.sampled_from(["dense", "sparse", "uniform"]), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 40),
)
def test_fhmm_matches_oracle_property(sizes, kinds, seed, T):
    # Mixed K including one-state appliances, zero-probability entries in
    # pi and A, and flat rows whose scores tie exactly.
    rng = np.random.default_rng(seed)
    apps = tuple(
        random_hmm(rng, f"a{n}", K, mean_scale=2000.0, kind=kinds[n])
        for n, K in enumerate(sizes)
    )
    m = FHMMModel(appliances=apps, noise_variance=float(rng.uniform(25.0, 90.0)))
    y = rng.uniform(0.0, 2000.0 * len(sizes), T)
    p = disaggregate_fhmm(m, aggregate_channel(y))
    ph = build_product_hmm(m)
    path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
    got = states_matrix(p, m)
    assert np.array_equal([product_index(row, ph.sizes) for row in got], path)


def test_fhmm_matches_oracle_across_emission_chunks():
    # S = 1024 decodes in chunks of 64 steps, so T = 200 crosses three chunk
    # boundaries and ends on a partial chunk.
    rng = np.random.default_rng(321)
    apps = tuple(random_hmm(rng, f"a{n}", 2, mean_scale=300.0) for n in range(10))
    m = FHMMModel(appliances=apps, noise_variance=80.0)
    y = rng.uniform(0, 1800, 200)
    p = disaggregate_fhmm(m, aggregate_channel(y))
    ph = build_product_hmm(m)
    path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
    got = states_matrix(p, m)
    got_idx = np.array([product_index(row, ph.sizes) for row in got])
    assert np.array_equal(got_idx, path)


def near_tie_rows(rng, K, kind, n_rows):
    """``n_rows`` stochastic rows of length K.  "uniform" rows are flat;
    "ulp" rows nudge each flat entry to a neighbouring float, so entries sit
    one ulp apart; "rare" rows are "ulp" rows over all but one column, which
    gets 1e-300, so entering that state adds about -690.8 in log space and
    rounds away partial-sum differences below about 1e-13; "random" rows are
    Dirichlet draws."""
    if kind == "random":
        return rng.dirichlet(np.ones(K), size=n_rows)
    rare = kind == "rare" and K > 1
    rows = np.full((n_rows, K), 1.0 / (K - rare))
    if kind in ("ulp", "rare"):
        nudge = rng.integers(-1, 2, size=rows.shape)
        rows = np.where(nudge > 0, np.nextafter(rows, 1.0), rows)
        rows = np.where(nudge < 0, np.nextafter(rows, 0.0), rows)
    if rare:
        rows[:, rng.integers(K)] = 1e-300
    return rows


def staged_order_tables(m, y):
    """For each step t >= 1, the (S, S) table of full predecessor sums, row =
    predecessor and column = successor, added appliance N-1 first."""
    sizes = [a.K for a in m.appliances]
    digits = np.array(list(itertools.product(*map(range, sizes)))).reshape(-1, len(sizes))
    with np.errstate(divide="ignore"):
        log_A = [
            np.log(a.A)[d[:, None], d[None, :]] for a, d in zip(m.appliances, digits.T)
        ]
        delta = _product_sum(np.log(a.pi) for a in m.appliances)
    _, em = next(_emission_chunks(m, y, len(y)))
    delta = delta + em[0]
    tables = [None]
    for t in range(1, len(y)):
        table = delta[:, None] + log_A[-1]
        for L in log_A[-2::-1]:
            table = table + L
        tables.append(table)
        delta = table.max(axis=0) + em[t]
    return tables


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(
        lambda ks: math.prod(ks) <= 64
    ),
    kinds=st.lists(st.sampled_from(["ulp", "uniform", "rare", "random"]), min_size=6, max_size=6),
    shared_means=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 40),
)
def test_dense_step_matches_staged_step(sizes, kinds, shared_means, seed, T):
    # Near-ties built in: A and pi rows one ulp apart or flat, and with
    # ``shared_means`` every appliance has the states 0, 100, 200, ... W,
    # so many product states share an emission.
    rng = np.random.default_rng(seed)
    apps = []
    for n, K in enumerate(sizes):
        if shared_means:
            means, stds = 100.0 * np.arange(K), np.full(K, 10.0)
        else:
            means = np.sort(rng.choice(np.arange(40) * 50.0, K, replace=False))
            stds = rng.uniform(2.0, 30.0, K)
        rows = near_tie_rows(rng, K, kinds[n], K + 1)
        apps.append(ApplianceHMM(ApplianceStateModel(f"a{n}", means, stds), rows[0], rows[1:]))
    m = FHMMModel(appliances=tuple(apps), noise_variance=float(rng.uniform(25.0, 90.0)))
    top = 100.0 * sum(K - 1 for K in sizes)
    y = rng.choice(np.arange(0.0, top + 50.0, 50.0), T) if shared_means else rng.uniform(0.0, 2000.0 * len(sizes), T)

    assert_dense_matches_staged(m, y)


def test_dense_and_staged_steps_split_an_exact_tie():
    # From state (0, *) at t = 0, reading 50 W halfway between appliance 1's
    # states, both predecessors of (1, 0) score alike up to the A_1 entries
    # 0.5 -+ 1e-15.  The staged step keeps that strict difference and picks
    # digit 1; adding log(1e-300) for appliance 0 rounds it away, so the full
    # sums tie and the dense step takes the lower flat index.
    a0 = ApplianceHMM(
        ApplianceStateModel("a0", [0.0, 1000.0], [5.0, 5.0]),
        pi=[0.5, 0.5], A=[[1.0, 1e-300], [1.0, 1e-300]],
    )
    a1 = ApplianceHMM(
        ApplianceStateModel("a1", [0.0, 100.0], [5.0, 5.0]),
        pi=[0.5, 0.5], A=[[0.5 - 1e-15, 0.5 + 1e-15], [0.5 + 1e-15, 0.5 - 1e-15]],
    )
    m = FHMMModel(appliances=(a0, a1), noise_variance=25.0)
    y = np.array([50.0, 1000.0])
    assert _viterbi_dense(m, y).tolist() == [[0, 0], [1, 0]]
    assert _viterbi_staged(m, y).tolist() == [[0, 1], [1, 0]]
    assert_dense_matches_staged(m, y)


def assert_dense_matches_staged(m, y):
    """Both steps give the same states, except where an exact tie of full
    sums let the staged step keep a higher predecessor than the dense one."""
    sizes = [a.K for a in m.appliances]
    T = len(y)
    dense = _viterbi_dense(m, y)
    staged = _viterbi_staged(m, y)
    assert dense.shape == staged.shape == (T, len(sizes))
    assert np.array_equal(dense[-1], staged[-1])
    tables = staged_order_tables(m, y)
    for t in range(T - 1, 0, -1):
        succ = product_index(dense[t], sizes)
        # The dense step takes the lowest flat index among the best sums.
        assert product_index(dense[t - 1], sizes) == np.argmax(tables[t][:, succ])
        if np.array_equal(dense[t], staged[t]) and not np.array_equal(dense[t - 1], staged[t - 1]):
            p_dense = product_index(dense[t - 1], sizes)
            p_staged = product_index(staged[t - 1], sizes)
            assert tables[t][p_dense, succ] == tables[t][p_staged, succ]
            assert p_dense < p_staged
    ll_dense, ll_staged = fhmm_path_loglik(m, dense, y), fhmm_path_loglik(m, staged, y)
    if np.array_equal(dense, staged):
        assert ll_dense == ll_staged
    else:
        # Tied paths: equal in the decoders' sums, not always in this
        # oracle's summation order.
        assert ll_dense == pytest.approx(ll_staged, rel=1e-12)


@pytest.mark.parametrize(
    "sizes, step", [((2,) * 6, "_viterbi_staged"), ((3, 3, 2, 4), "_viterbi_dense")]
)
def test_fhmm_step_boundary_matches_oracle(monkeypatch, sizes, step):
    # S = 64 is the largest product space the dense step decodes, S = 72 the
    # smallest above it that the staged step decodes; the other step kind
    # must not run.
    def unused(m, y):
        raise AssertionError(f"{step} used at S = {math.prod(sizes)}")

    monkeypatch.setattr(disaggregate, step, unused)
    rng = np.random.default_rng(math.prod(sizes))
    apps = tuple(
        random_hmm(rng, f"a{n}", K, mean_scale=600.0, kind=kind)
        for n, (K, kind) in enumerate(zip(sizes, itertools.cycle(["dense", "sparse", "uniform"])))
    )
    m = FHMMModel(appliances=apps, noise_variance=50.0)
    y = rng.uniform(0, 600.0 * len(sizes), 150)
    p = disaggregate_fhmm(m, aggregate_channel(y))
    ph = build_product_hmm(m)
    path, _ = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
    got = states_matrix(p, m)
    assert np.array_equal([product_index(row, ph.sizes) for row in got], path)
