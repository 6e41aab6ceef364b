import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nilmbench import disaggregate
from nilmbench.data import POWER_ACTIVE
from nilmbench.disaggregate import (
    _DenseStep,
    _StagedStep,
    _decode,
    _emission_chunks,
    _product_sum,
    disaggregate_co,
    disaggregate_fhmm,
    fhmm_backpointer_bytes,
)
from nilmbench.io import load_dataset_dir
from nilmbench.pipeline import RunConfig, StageFailure, run, write_predictions
from nilmbench.synth import ApplianceSynthSpec, SynthSpec, default_benchmark_spec, generate
from nilmbench.training import ApplianceHMM, ApplianceStateModel, COModel, FHMMModel

from conftest import mk_channel
from oracles import (
    build_product_hmm,
    co_bruteforce,
    co_states_matrix,
    dense_step_loop,
    dense_viterbi,
    fhmm_path_loglik,
    product_index,
    staged_viterbi_loop,
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


def powers(ap):
    """An appliance prediction's powers, its levels gathered at its states."""
    return ap.levels[ap.states]


def states_matrix(predictions, model):
    return np.stack(
        [predictions.appliances[a.name].states for a in model.appliances], axis=1
    )


class TestCO:
    def test_single_appliance_snaps_to_nearest(self):
        m = COModel(appliances=(state_model("kettle", [0.0, 100.0]),))
        p = disaggregate_co(m, aggregate_channel([90.0]))
        assert p.appliances["kettle"].states[0] == 1
        assert powers(p.appliances["kettle"])[0] == 100.0

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
            assert np.all(powers(ap) == 0.0)

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

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(0, 200),
    )
    def test_per_appliance_states_equal_matrix_columns(self, sizes, seed, T):
        # Means on a coarse grid, shared between appliances and some
        # negative, so totals tie; readings hit totals and midpoints exactly.
        rng = np.random.default_rng(seed)
        models = tuple(
            state_model(f"a{n}", np.sort(rng.choice(np.arange(-2, 12) * 50.0, K, replace=False)))
            for n, K in enumerate(sizes)
        )
        m = COModel(appliances=models)
        y = rng.choice(np.arange(-4, 100) * 25.0, T)
        p = disaggregate_co(m, aggregate_channel(y))
        want = co_states_matrix(m, y)
        for n, a in enumerate(models):
            states = p.appliances[a.name].states
            assert states.dtype == np.uint8 and states.flags.c_contiguous
            assert np.array_equal(states, want[:, n])

    def test_states_widen_past_256(self):
        m = COModel(appliances=(state_model("a", np.arange(300.0) * 10.0), state_model("b", [0.0, 1.0])))
        p = disaggregate_co(m, aggregate_channel([2990.0, 0.0, 1231.0]))
        assert p.appliances["a"].states.dtype == p.appliances["b"].states.dtype == np.uint16
        assert p.appliances["a"].states.tolist() == [299, 0, 123]
        assert p.appliances["b"].states.tolist() == [0, 0, 1]

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
        assert powers(p.appliances["a"])[0] == 0.0

    def test_working_set(self):
        # The nearest-total search must not still be live next to the (N, T)
        # digits, and the predictions keep only those: N * T bytes of uint8
        # states, 0.38 T-floats at N = 3, where an int64 state and a float64
        # power per row and appliance kept 6.01.
        T, N = 50_400, 3
        m = COModel(appliances=tuple(
            state_model(f"a{n}", [0.0, 100.0 * (n + 1), 300.0 * (n + 1)]) for n in range(N)
        ))
        agg = aggregate_channel(np.random.default_rng(4).uniform(0.0, 1000.0, T))
        tracemalloc.start()
        try:
            p = disaggregate_co(m, agg)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * T * 8
        assert live <= N * T + 2**13
        assert sum(a.states.nbytes for a in p.appliances.values()) == N * T


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

    def test_backpointer_limit_enforced_before_allocating(self, monkeypatch):
        # The survivors of twin appliances never meet, so the window of
        # codes doubles while the old one is copied into the new: windows of
        # 2340 and 4680 steps of 112 bytes fit a 1 MiB limit together, and
        # 4680 and 9360 do not, so 9360 steps are refused before they are
        # allocated.  Chunks of 16 steps keep the rest of the working set
        # small: the decode peaks at 0.98 MiB with the (10, 20 000) state
        # matrix, and would pass 1.7 MiB with the 9360-step window.
        m = twin_model(5)
        limit = 2**20
        monkeypatch.setattr(disaggregate, "FHMM_BACKPOINTER_LIMIT", limit)
        monkeypatch.setattr(disaggregate, "_WINDOW_BYTES", 2**18)
        monkeypatch.setattr(disaggregate, "_CHUNK_CELLS", 16 * 128)
        aggregate = aggregate_channel(np.full(20_000, 100.0))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as e:
                disaggregate_fhmm(m, aggregate)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == (
            "FHMM survivors over S=128 product states have not met from step 0 on: "
            "growing the window of 4680 steps (524160 bytes of codes) to 9360 steps "
            "(1048320 bytes) would hold 1572480 bytes of codes at once, over the limit (1048576)"
        )
        assert peak < limit + 2**18

    def test_backpointer_limit_names_stage_in_run(self, tmp_path, monkeypatch):
        # Survivors that never meet, over a limit of 32 steps of codes for
        # the three appliances (S = 8) of the default household.
        monkeypatch.setattr(disaggregate, "_survivors_meet", lambda *args: None)
        monkeypatch.setattr(disaggregate, "FHMM_BACKPOINTER_LIMIT", 32 * 8)
        monkeypatch.setattr(disaggregate, "_WINDOW_BYTES", 8 * 8)
        monkeypatch.setattr(disaggregate, "_CHUNK_CELLS", 4 * 8)
        spec = replace(default_benchmark_spec(seed=2), period=60.0, duration=21600.0)
        cfg = RunConfig.from_dict({
            "dataset": {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
            "algorithms": ["fhmm"], "output": str(tmp_path / "out"),
        })
        with pytest.raises(StageFailure, match="have not met from step 0 on") as e:
            run(cfg, quiet=True)
        assert e.value.stage == "disaggregate_fhmm"

    def test_empty_aggregate(self):
        rng = np.random.default_rng(2)
        m = FHMMModel(appliances=(random_hmm(rng, "a", 2),), noise_variance=25.0)
        p = disaggregate_fhmm(m, aggregate_channel([]))
        assert p.appliances["a"].states.size == 0

    @pytest.mark.parametrize("n, step", [(1, "_StagedStep"), (7, "_DenseStep")])
    def test_empty_aggregate_either_step(self, monkeypatch, n, step):
        # S = 2 decodes by the dense step and S = 128 by the staged one; with
        # no readings each gives one empty uint8 row of states per appliance.
        def unused(m, rows):
            raise AssertionError(f"{step} used at S = {2**n}")

        monkeypatch.setattr(disaggregate, step, unused)
        rng = np.random.default_rng(n)
        m = FHMMModel(appliances=tuple(random_hmm(rng, f"a{k}", 2) for k in range(n)), noise_variance=25.0)
        p = disaggregate_fhmm(m, aggregate_channel([]))
        assert p.timestamps.size == 0
        for a in m.appliances:
            states = p.appliances[a.name].states
            assert states.shape == (0,) and states.dtype == np.uint8

    def test_staged_working_set_beyond_the_codes(self):
        # Twelve two-state appliances (S = 4096) over a day of minutes: the
        # codes take one bit plane of S / 8 bytes per appliance per step,
        # and the emission buffer, masks, stage buffers and log-A tables
        # must stay within 3 MiB on top; they take 2.31 MiB.  A scratch and
        # result buffer per stage instead of per distinct K adds about
        # 1.1 MiB.
        rng = np.random.default_rng(4)
        T, on = 1440, np.sort(rng.choice(np.arange(40.0, 3000.0, 10.0), 12, replace=False))
        apps = tuple(
            ApplianceHMM(ApplianceStateModel(f"a{n}", [0.0, p], [1.0, 0.01 * p]), [0.7, 0.3], [[0.97, 0.03], [0.06, 0.94]])
            for n, p in enumerate(on)
        )
        m = FHMMModel(appliances=apps, noise_variance=900.0)
        agg = aggregate_channel((rng.random((T, 12)) < 0.3) @ on + rng.normal(0.0, 30.0, T), period=60.0)
        tracemalloc.start()
        try:
            disaggregate_fhmm(m, agg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        codes = fhmm_backpointer_bytes([2] * 12, T)
        assert codes == T * 12 * 512 == 8_847_360
        assert peak - codes <= 3 * 2**20
        # The decode keeps a window of codes, not all of them: it peaks at
        # 4.51 MiB, a 2 MiB window of 341 steps and 2.51 MiB of the rest.
        assert peak <= disaggregate._WINDOW_BYTES + 3 * 2**20

    def test_dense_working_set_beyond_the_codes(self):
        # Three two-state appliances (S = 8) over a week at 12 s: the uint8
        # codes take T * S bytes, all in one window, and the emission
        # buffer, score table, step buffers, the (N, T) states and the
        # window's uint8 path block must stay within 1.375 MiB on top; they
        # take 1.32 MiB, 1 MiB of it the (rows, S) emission buffer and step
        # rows.  A list of each chunk's 8192 row views, a chunk of (S, S)
        # tables or an int64 path would not.
        rng = np.random.default_rng(5)
        T, S, on = 50_400, 8, np.array([150.0, 700.0, 2000.0])
        apps = tuple(
            ApplianceHMM(ApplianceStateModel(f"a{n}", [0.0, p], [1.0, 0.01 * p]), [0.7, 0.3], [[0.97, 0.03], [0.06, 0.94]])
            for n, p in enumerate(on)
        )
        m = FHMMModel(appliances=apps, noise_variance=900.0)
        agg = aggregate_channel((rng.random((T, 3)) < 0.3) @ on + rng.normal(0.0, 30.0, T), period=12.0)
        tracemalloc.start()
        try:
            disaggregate_fhmm(m, agg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fhmm_backpointer_bytes([2] * 3, T) == T * S
        assert peak - T * S <= 1.375 * 2**20

    def test_dense_working_set_beyond_the_states(self):
        # Three two-state appliances (S = 8) over 600 000 steps: all codes
        # would take 4.6 MiB and an int64 path 4.6 MiB, but the decode keeps
        # a window of codes and emits the path block by block into the
        # (N, T) uint8 state matrix, so beyond that matrix and the window
        # only the emission buffer, step buffers and a window-long path
        # block may be live: 1.51 MiB.
        rng = np.random.default_rng(6)
        T, N, on = 600_000, 3, np.array([150.0, 700.0, 2000.0])
        apps = tuple(
            ApplianceHMM(ApplianceStateModel(f"a{n}", [0.0, p], [1.0, 0.01 * p]), [0.7, 0.3], [[0.97, 0.03], [0.06, 0.94]])
            for n, p in enumerate(on)
        )
        m = FHMMModel(appliances=apps, noise_variance=900.0)
        agg = aggregate_channel((rng.random((T, N)) < 0.3) @ on + rng.normal(0.0, 30.0, T), period=12.0)
        tracemalloc.start()
        try:
            p = disaggregate_fhmm(m, agg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.appliances["a0"].states.dtype == np.uint8
        assert peak <= N * T + disaggregate._WINDOW_BYTES + 2 * 2**20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("decode", [disaggregate_co, disaggregate_fhmm])
def test_non_finite_aggregate_rejected(decode, bad):
    # Unchecked, a NaN makes every later FHMM step decode as all-off, and
    # CO maps NaN and +-inf to a fixed combination.
    rng = np.random.default_rng(6)
    apps = tuple(random_hmm(rng, f"a{n}", 2) for n in range(3))
    m = FHMMModel(appliances=apps, noise_variance=25.0)
    if decode is disaggregate_co:
        m = COModel(appliances=tuple(a.base for a in apps))
    y = rng.uniform(0.0, 1500.0, 200)
    y[[50, 120, 121]] = bad
    with pytest.raises(ValueError, match="mains: 3 non-finite power_active readings, the first at index 50"):
        decode(m, aggregate_channel(y))


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


class TestWritePredictions:
    """The power channels ``write_predictions`` saves, read back."""

    def written(self, p, tmp_path):
        write_predictions(p, 1, POWER_ACTIVE, tmp_path / "preds")
        return load_dataset_dir(tmp_path / "preds").buildings[1].appliances

    def test_all_off_gives_zero_channel(self, tmp_path):
        m = COModel(appliances=(state_model("a", [0.0, 100.0]),))
        p = disaggregate_co(m, aggregate_channel([0.0, 0.0]))
        channels = self.written(p, tmp_path)
        assert np.all(channels["a"].values(POWER_ACTIVE) == 0.0)

    def test_timestamps_follow_aggregate(self, tmp_path):
        m = COModel(appliances=(state_model("a", [0.0, 100.0]),))
        agg = mk_channel([5.0, 9.0, 140.0], [0.0, 100.0, 100.0], period=4.0)
        p = disaggregate_co(m, agg)
        channels = self.written(p, tmp_path)
        assert np.array_equal(channels["a"].timestamps, agg.timestamps)
        assert channels["a"].nominal_period == 4.0

    def test_exact_fit_sums_to_aggregate(self, tmp_path):
        models = (state_model("a", [0.0, 100.0]), state_model("b", [0.0, 60.0]))
        m = COModel(appliances=models)
        y = [0.0, 100.0, 60.0, 160.0]
        p = disaggregate_co(m, aggregate_channel(y))
        channels = self.written(p, tmp_path)
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


@pytest.mark.parametrize("S", [8, 4096])
@pytest.mark.parametrize("T_of_rows", [lambda r: 1, lambda r: r - 1, lambda r: r, lambda r: 2 * r + 1],
                         ids=["1", "rows-1", "rows", "2rows+1"])
def test_emission_chunks_equal_the_expression_bit_for_bit(S, T_of_rows):
    # The chunks share one buffer, so each is compared before the next is
    # asked for; together they must cover every step once, in order.
    rng = np.random.default_rng(S)
    apps = tuple(random_hmm(rng, f"a{n}", 2, mean_scale=700.0) for n in range(S.bit_length() - 1))
    m = FHMMModel(appliances=apps, noise_variance=37.0)
    rows = max(1, 2**16 // S)
    T = T_of_rows(rows)
    y = rng.uniform(-100.0, 4000.0, T)
    mean = _product_sum(a.means for a in apps)
    var = _product_sum(a.stds**2 for a in apps) + m.noise_variance
    want = -0.5 * (disaggregate.LOG_2PI + np.log(var) + (y[:, None] - mean) ** 2 / var)
    los = []
    for lo, em in _emission_chunks(m, y, rows):
        assert em.shape == (min(rows, T - lo), S)
        assert em.tobytes() == want[lo : lo + rows].tobytes()
        los.append(lo)
    assert los == list(range(0, T, rows))


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


def near_tie_model(sizes, kinds, shared_means, seed, T):
    """A model and T readings with near-ties built in: A and pi rows one ulp
    apart or flat, and with ``shared_means`` every appliance has the states
    0, 100, 200, ... W and the readings sit on a 50 W grid, so many product
    states share an emission."""
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
    return m, y


NEAR_TIE_KINDS = st.lists(st.sampled_from(["ulp", "uniform", "rare", "random"]), min_size=8, max_size=8)


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(
        lambda ks: math.prod(ks) <= 64
    ),
    kinds=NEAR_TIE_KINDS,
    shared_means=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 40),
)
def test_dense_step_matches_staged_step(sizes, kinds, shared_means, seed, T):
    assert_dense_matches_staged(*near_tie_model(sizes, kinds, shared_means, seed, T))


def with_unentered_states(m, columns):
    """``m`` where, for each appliance n with K_n > 1 and ``columns[n] >= 0``,
    column ``columns[n] % K_n`` of A is 0 and its mass moved to the next
    column: no step enters that state, so from step 1 on every successor
    holding it has a table row of -inf, whose argmax is 0."""
    apps = []
    for a, c in zip(m.appliances, columns):
        A = a.A.copy()
        if a.K > 1 and c >= 0:
            c %= a.K
            A[:, (c + 1) % a.K] = np.minimum(A[:, (c + 1) % a.K] + A[:, c], 1.0)
            A[:, c] = 0.0
        apps.append(ApplianceHMM(a.base, a.pi, A))
    return FHMMModel(appliances=tuple(apps), noise_variance=m.noise_variance)


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6).filter(
        lambda ks: math.prod(ks) <= 64
    ),
    kinds=NEAR_TIE_KINDS,
    shared_means=st.booleans(),
    columns=st.lists(st.integers(-1, 3), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 60),
)
@example(sizes=[2, 3, 2], kinds=["random"] * 8, shared_means=False, columns=[1, 0, -1] * 2, seed=3, T=30)
@example(sizes=[4, 4, 4], kinds=["uniform"] * 8, shared_means=True, columns=[-1] * 6, seed=4, T=40)
@example(sizes=[4], kinds=["ulp"] * 8, shared_means=True, columns=[-1] * 6, seed=5, T=40)
@example(sizes=[2] * 6, kinds=["ulp", "uniform"] * 4, shared_means=True, columns=[-1, 0] * 3, seed=6, T=1030)
@example(sizes=[2, 2, 2], kinds=["rare", "random"] * 4, shared_means=False, columns=[-1] * 6, seed=7, T=8195)
@example(sizes=[2, 2, 2], kinds=["ulp", "random"] * 4, shared_means=True, columns=[-1] * 6, seed=8, T=8192)
@example(sizes=[2, 2, 2], kinds=["uniform", "rare"] * 4, shared_means=False, columns=[0, -1, 1] * 2, seed=9, T=8193)
def test_dense_step_matches_loop_oracle(sizes, kinds, shared_means, columns, seed, T):
    # The dense step reads each step's maxima from the table at its argmax,
    # where the oracle takes a second reduction; the value at the lowest
    # argmax is the row maximum, so states agree exactly, -inf rows and
    # exact ties included.  The examples cover a zero transition
    # probability, exact ties, one appliance (S = K), S = 64 and S = 8
    # decoding past their first chunk of 1024 and 8192 steps, and S = 8
    # ending exactly at its first chunk's end or one row into its second.
    m, y = near_tie_model(sizes, kinds, shared_means, seed, T)
    m = with_unentered_states(m, columns)
    assert np.array_equal(_decode(m, y, _DenseStep).T, dense_step_loop(m, y))


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=8).filter(
        lambda ks: math.prod(ks) <= 1024
    ),
    kinds=NEAR_TIE_KINDS,
    shared_means=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    T=st.integers(1, 150),
)
@example(sizes=[4, 4, 4, 2, 2, 2, 2], kinds=["ulp", "rare", "uniform", "random"] * 2, shared_means=True, seed=1, T=150)
@example(sizes=[4, 1, 3, 4, 4, 4], kinds=["rare", "ulp"] * 4, shared_means=False, seed=2, T=100)
@example(sizes=[5, 5, 5, 5], kinds=["ulp", "random"] * 4, shared_means=True, seed=3, T=150)
@example(sizes=[5, 1, 3, 3, 4, 5], kinds=["random", "uniform"] * 4, shared_means=False, seed=4, T=150)
@example(sizes=[3] * 6, kinds=["rare", "random"] * 4, shared_means=True, seed=5, T=120)
@example(sizes=[1, 1, 5], kinds=["random"] * 8, shared_means=False, seed=6, T=30)
@example(sizes=[1], kinds=["random"] * 8, shared_means=False, seed=7, T=5)
def test_staged_step_matches_canonical_layout_oracle(sizes, kinds, shared_means, seed, T):
    # The rotated-layout step does the same float additions and maximums in
    # the same order as the canonical-layout step, so states agree exactly,
    # exact ties included.  A digit of K states is kept in ceil(log2 K) bit
    # planes: none for K = 1, one for K = 2, two for K = 3 or 4 and three
    # for K = 5.  S = 1024 decodes in chunks of 64 steps, S = 900 in chunks
    # of 72, S = 768 in chunks of 85, S = 729 in chunks of 89 and S = 625
    # in chunks of 104, so the examples cross chunk boundaries, most of
    # them with S not a multiple of 8.
    m, y = near_tie_model(sizes, kinds, shared_means, seed, T)
    assert np.array_equal(_decode(m, y, _StagedStep).T, staged_viterbi_loop(m, y))


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
    assert _decode(m, y, _DenseStep).T.tolist() == [[0, 0], [1, 0]]
    assert _decode(m, y, _StagedStep).T.tolist() == [[0, 1], [1, 0]]
    assert_dense_matches_staged(m, y)


def assert_dense_matches_staged(m, y):
    """Both steps give the same states, except where an exact tie of full
    sums let the staged step keep a higher predecessor than the dense one."""
    sizes = [a.K for a in m.appliances]
    T = len(y)
    dense = _decode(m, y, _DenseStep).T
    staged = _decode(m, y, _StagedStep).T
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
    "sizes, step", [((2,) * 6, "_StagedStep"), ((3, 3, 2, 4), "_DenseStep")]
)
def test_fhmm_step_boundary_matches_oracle(monkeypatch, sizes, step):
    # S = 64 is the largest product space the dense step decodes, S = 72 the
    # smallest above it that the staged step decodes; the other step kind
    # must not run.
    def unused(m, rows):
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


def twin_model(extra):
    """Two identical sticky appliances, then ``extra`` distinct two-state
    ones.  Read at the one-on level of the twins, the survivors at (0, 1,
    ...) and (1, 0, ...) mirror each other bit for bit and stay put, and
    every other state descends from one of them, so they never meet."""
    twin = ApplianceStateModel("twin", [0.0, 100.0], [5.0, 5.0])
    sticky = dict(pi=[0.5, 0.5], A=[[0.99, 0.01], [0.01, 0.99]])
    apps = [ApplianceHMM(twin, **sticky), ApplianceHMM(ApplianceStateModel("twin2", twin.means, twin.stds), **sticky)]
    apps += [
        ApplianceHMM(ApplianceStateModel(f"x{k}", [0.0, 1000.0 * (k + 1)], [5.0, 5.0]), **sticky)
        for k in range(extra)
    ]
    return FHMMModel(appliances=tuple(apps), noise_variance=25.0)


def oracle_states(m, y):
    """(T, N) states by the loop oracle of the step kind ``m`` decodes with."""
    S = math.prod(a.K for a in m.appliances)
    return (staged_viterbi_loop if S > disaggregate._DENSE_MAX_STATES else dense_step_loop)(m, y)


def decode_in_windows(m, y, rows, window_steps):
    """``disaggregate_fhmm`` states, (T, N), with emission chunks of
    ``rows`` steps and a window of ``window_steps`` steps of codes."""
    sizes = [a.K for a in m.appliances]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disaggregate, "_CHUNK_CELLS", rows * math.prod(sizes))
        mp.setattr(disaggregate, "_WINDOW_BYTES", window_steps * fhmm_backpointer_bytes(sizes, 1))
        return states_matrix(disaggregate_fhmm(m, aggregate_channel(y)), m)


@settings(max_examples=300, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=8).filter(
        lambda ks: math.prod(ks) <= 1024
    ),
    kinds=NEAR_TIE_KINDS,
    shared_means=st.booleans(),
    twins=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    window_steps=st.integers(1, 16),
    T=st.integers(1, 120),
)
@example(sizes=[2, 2], kinds=["random"] * 8, shared_means=False, twins=True, seed=1, rows=3, window_steps=4, T=100)
@example(sizes=[2] * 7, kinds=["uniform"] * 8, shared_means=True, twins=False, seed=2, rows=2, window_steps=5, T=120)
@example(sizes=[4, 4, 4], kinds=["ulp", "rare"] * 4, shared_means=True, twins=True, seed=3, rows=1, window_steps=1, T=60)
@example(sizes=[5, 1, 3, 4, 4], kinds=["rare", "random"] * 4, shared_means=False, twins=False, seed=4, rows=5, window_steps=7, T=97)
def test_fhmm_windowed_decode_matches_loop_oracles(sizes, kinds, shared_means, twins, seed, rows, window_steps, T):
    # Chunks of 1-6 steps and windows of 1-16 steps of codes make decodes
    # of up to 120 steps drain many times, at every lag; ``twins`` gives
    # appliances 0 and 1 the same parameters, whose survivors may never
    # meet, so the window must grow.  The states equal the loop oracle of
    # the step kind: dense at S <= 64, staged above.
    m, y = near_tie_model(sizes, kinds, shared_means, seed, T)
    if twins and len(sizes) > 1 and sizes[0] == sizes[1]:
        a0 = m.appliances[0]
        twin = ApplianceHMM(ApplianceStateModel("twin", a0.means, a0.stds), a0.pi, a0.A)
        m = FHMMModel(appliances=(a0, twin, *m.appliances[2:]), noise_variance=m.noise_variance)
    assert np.array_equal(decode_in_windows(m, y, rows, window_steps), oracle_states(m, y))


@pytest.mark.parametrize("extra", [0, 5], ids=["dense", "staged"])
def test_window_grows_while_survivors_do_not_meet(monkeypatch, extra):
    m = twin_model(extra)
    y = np.full(200, 100.0)
    meets = []

    def survivors_meet(*args, real=disaggregate._survivors_meet):
        meets.append(real(*args))
        return meets[-1]

    monkeypatch.setattr(disaggregate, "_survivors_meet", survivors_meet)
    got = decode_in_windows(m, y, 4, 4)
    # Windows of 4, 8, ..., 128 steps fill and grow; the last holds all 200.
    assert meets == [None] * 6
    assert np.array_equal(got, oracle_states(m, y))
    assert set(map(tuple, got[:, :2])) == {(0, 1)}


@pytest.mark.parametrize("sizes", [(2, 3, 2), (2,) * 8], ids=["dense", "staged"])
def test_trace_over_the_limit_decodes_while_the_window_fits(monkeypatch, sizes):
    # All the codes of 200 steps would exceed a limit of 16 steps of codes,
    # but the survivors meet often enough that a window of 4 steps never
    # grows past it, and the decode gives the oracle's states.
    rng = np.random.default_rng(len(sizes))
    m = FHMMModel(
        appliances=tuple(random_hmm(rng, f"a{n}", K, mean_scale=900.0) for n, K in enumerate(sizes)),
        noise_variance=50.0,
    )
    y = rng.uniform(0.0, 900.0 * len(sizes), 200)
    limit = fhmm_backpointer_bytes(list(sizes), 16)
    monkeypatch.setattr(disaggregate, "FHMM_BACKPOINTER_LIMIT", limit)
    assert fhmm_backpointer_bytes(list(sizes), y.size) > limit
    assert np.array_equal(decode_in_windows(m, y, 4, 4), oracle_states(m, y))


@pytest.mark.parametrize("sizes", [(2, 3, 2), (2,) * 8], ids=["dense", "staged"])
def test_walk_must_reach_where_the_survivors_met(monkeypatch, sizes):
    # A drain that emitted the wrong met state is caught by the next walk,
    # which reaches the step after it from the real survivors.
    rng = np.random.default_rng(len(sizes))
    m = FHMMModel(
        appliances=tuple(random_hmm(rng, f"a{n}", K, mean_scale=900.0) for n, K in enumerate(sizes)),
        noise_variance=50.0,
    )
    y = rng.uniform(0.0, 900.0 * len(sizes), 200)
    met = []

    def survivors_meet(kernel, *args, real=disaggregate._survivors_meet):
        r, x = real(kernel, *args)
        met.append(r)
        return r, (x + 1) % kernel.S

    monkeypatch.setattr(disaggregate, "_survivors_meet", survivors_meet)
    with pytest.raises(RuntimeError, match="step ") as e:
        decode_in_windows(m, y, 8, 16)
    assert f"at step {met[0]}," in str(e.value)
