import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench.data import POWER_ACTIVE, Gap
from nilmbench.diagnostics import detect_gaps
from nilmbench.io import save_dataset_dir
from nilmbench.stats import proportion_energy_submetered, top_k_appliances
from nilmbench.synth import (
    ApplianceSynthSpec,
    SynthSpec,
    _sample_chain,
    default_benchmark_spec,
    generate,
)

from oracles import sample_chain_loop


def two_state(name, on_watts, p_stay=0.9, pi=(0.5, 0.5), stds=(0.0, 0.0)):
    return ApplianceSynthSpec(
        name=name,
        means=(0.0, float(on_watts)),
        stds=stds,
        pi=pi,
        A=((p_stay, 1 - p_stay), (1 - p_stay, p_stay)),
    )


def dir_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        h.update(str(path.relative_to(root)).encode())
        if path.is_file():
            h.update(path.read_bytes())
    return h.hexdigest()


class TestSpecValidation:
    def test_bad_transition_rows_rejected(self):
        with pytest.raises(ValueError, match="distributions"):
            ApplianceSynthSpec(
                name="x", means=(0.0, 1.0), stds=(0.0, 0.0),
                pi=(0.5, 0.5), A=((0.5, 0.6), (0.5, 0.5)),
            )

    def test_bad_pi_rejected(self):
        with pytest.raises(ValueError, match="distribution"):
            ApplianceSynthSpec(
                name="x", means=(0.0, 1.0), stds=(0.0, 0.0),
                pi=(0.7, 0.5), A=((0.5, 0.5), (0.5, 0.5)),
            )

    def test_json_round_trip(self):
        spec = default_benchmark_spec()
        again = SynthSpec.from_json_text(spec.to_json_text())
        assert again == spec

    @pytest.mark.parametrize("spec", [
        default_benchmark_spec(7),
        SynthSpec(
            appliances=(two_state("a", 100.0), two_state("b", 250.0, pi=(1.0, 0.0))),
            seed=3, noise_std=2.5, period=0.5, duration=400.0, start=1.3e9,
            gaps=((10.0, 20.0), (30.5, 31.0)), dropout_probability=0.25,
        ),
    ], ids=["default", "every-field"])
    def test_json_is_the_fields(self, spec):
        text = spec.to_json_text()
        assert SynthSpec.from_json_text(text) == spec
        raw = json.loads(text)
        assert raw["seed"] == spec.seed and raw["gaps"] == [list(g) for g in spec.gaps]
        assert [a["A"] for a in raw["appliances"]] == [
            [list(row) for row in a.A] for a in spec.appliances
        ]

    def test_python_and_json_specs_convert_alike(self):
        # Lists become tuples and whole numbers floats, whichever way the
        # spec is built; keys that name no field are ignored.
        app = {"name": "a", "means": [0, 150], "stds": [1, 2], "pi": [1, 0],
               "A": [[1, 0], [0, 1]], "colour": "red"}
        raw = {"appliances": [app], "seed": 2.0, "period": 6, "gaps": [[1, 2]], "note": "x"}
        from_json = SynthSpec.from_json_text(json.dumps(raw))
        built = SynthSpec(
            appliances=[{k: v for k, v in app.items() if k != "colour"}],
            seed=2.0, period=6, gaps=[[1, 2]],
        )
        assert from_json == built
        assert type(built.seed) is int and built.period == 6.0 and built.gaps == ((1.0, 2.0),)
        assert built.appliances[0].A == ((1.0, 0.0), (0.0, 1.0))

    @pytest.mark.parametrize("change, field", [
        ({"pi": (float("nan"), 1.0)}, "pi"),
        ({"A": ((float("nan"), 0.5), (0.5, 0.5))}, "rows of A"),
        ({"means": 5}, "means"),
        ({"means": (0.0, float("nan"))}, "x: means must be finite"),
        ({"means": (float("inf"), 1.0)}, "x: means must be finite"),
        ({"stds": (1.0, -2.0)}, "x: stds must be finite and >= 0"),
        ({"stds": (float("nan"), 0.0)}, "x: stds must be finite and >= 0"),
        ({"stds": (0.0, float("inf"))}, "x: stds must be finite and >= 0"),
    ])
    def test_appliance_values_checked_where_built(self, change, field):
        fields = dict(name="x", means=(0.0, 1.0), stds=(0.0, 0.0), pi=(0.5, 0.5),
                      A=((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(ValueError, match=field):
            ApplianceSynthSpec(**{**fields, **change})

    @pytest.mark.parametrize("name", ["", "..", "../../escape", "a/b", "a\\b"])
    def test_appliance_name_is_one_path_component(self, name):
        with pytest.raises(ValueError, match="must be one path component"):
            two_state(name, 100.0)

    def test_repeated_appliance_name_rejected(self):
        apps = (two_state("a", 100.0), two_state("b", 5.0), two_state("a", 50.0))
        with pytest.raises(ValueError, match="appliance name 'a' is repeated"):
            SynthSpec(appliances=apps, seed=1)

    @pytest.mark.parametrize("change, field", [
        ({"period": float("nan")}, "period"),
        ({"duration": float("inf")}, "duration"),
        ({"noise_std": float("nan")}, "noise_std"),
        ({"dropout_probability": float("nan")}, "dropout_probability"),
        ({"seed": 2.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "3"}, "seed"),
    ])
    def test_spec_values_checked_where_built(self, change, field):
        with pytest.raises(ValueError, match=field):
            SynthSpec(appliances=(two_state("a", 100.0),), **{"seed": 1, **change})

    @pytest.mark.parametrize("change, message", [
        ({"noise_std": float("nan")}, "noise_std must be finite and >= 0, got nan"),
        ({"noise_std": -1.0}, "noise_std must be finite and >= 0, got -1.0"),
        ({"dropout_probability": 1.0}, "dropout_probability must be in [0, 1), got 1.0"),
    ])
    def test_noise_and_dropout_fail_under_their_own_names(self, change, message):
        with pytest.raises(ValueError) as e:
            SynthSpec(appliances=(two_state("a", 100.0),), seed=1, **change)
        assert str(e.value) == message

    @pytest.mark.parametrize("change", [
        {"gaps": ((10.0, float("inf")),)},
        {"gaps": ((float("-inf"), 20.0),)},
        {"gaps": ((10.0, 20.0), (float("nan"), 40.0))},
        {"start": float("nan")},
        {"start": float("inf")},
    ])
    def test_non_finite_times_rejected(self, change):
        # synth_spec.json is strict JSON, which has no text for them.
        with pytest.raises(ValueError, match="start and every gap bound must be finite"):
            SynthSpec(appliances=(two_state("a", 100.0),), seed=1, **change)

    def test_missing_appliance_field_is_a_type_error(self):
        text = json.dumps({"appliances": [{"name": "a", "stds": [0.0]}], "seed": 1})
        with pytest.raises((TypeError, ValueError), match="means"):
            SynthSpec.from_json_text(text)


class TestGenerate:
    def test_frozen_chain_gives_constant_channels(self):
        spec = SynthSpec(
            appliances=(
                ApplianceSynthSpec(
                    name="a", means=(0.0, 100.0), stds=(0.0, 0.0),
                    pi=(1.0, 0.0), A=((1.0, 0.0), (0.0, 1.0)),
                ),
            ),
            noise_std=0.0,
            period=1.0,
            duration=50.0,
            seed=1,
        )
        ds, states = generate(spec)
        b = ds.buildings[1]
        assert np.all(states["a"] == 0)
        assert np.all(b.appliances["a"].values(POWER_ACTIVE) == 0.0)
        assert np.all(b.mains[0].values(POWER_ACTIVE) == 0.0)

    def test_empirical_frequencies_match_stationary_distribution(self):
        A = np.array([[0.9, 0.1], [0.3, 0.7]])
        # Stationary distribution from the eigenvector oracle.
        w, v = np.linalg.eig(A.T)
        stat = np.real(v[:, np.argmax(np.real(w))])
        stat = stat / stat.sum()
        spec = SynthSpec(
            appliances=(
                ApplianceSynthSpec(
                    name="a", means=(0.0, 100.0), stds=(0.0, 0.0),
                    pi=(0.5, 0.5), A=tuple(map(tuple, A)),
                ),
            ),
            period=1.0,
            duration=1_000_000.0,
            seed=7,
        )
        _, states = generate(spec)
        freq = np.bincount(states["a"], minlength=2) / states["a"].size
        np.testing.assert_allclose(freq, stat, atol=0.02)

    def test_injected_gap_found_by_diagnostics(self):
        spec = SynthSpec(
            appliances=(two_state("a", 100.0),),
            period=1.0,
            duration=200.0,
            seed=3,
            gaps=((40.0, 60.0),),
        )
        ds, _ = generate(spec)
        gaps = detect_gaps(ds.buildings[1].mains[0], 3.0)
        assert gaps == [Gap(40.0, 60.0)]

    def test_conservation_with_zero_noise(self):
        spec = SynthSpec(
            appliances=(two_state("a", 100.0), two_state("b", 250.0, 0.8)),
            noise_std=0.0,
            period=1.0,
            duration=500.0,
            seed=5,
        )
        ds, _ = generate(spec)
        b = ds.buildings[1]
        total = b.appliances["a"].values(POWER_ACTIVE) + b.appliances["b"].values(POWER_ACTIVE)
        assert np.array_equal(b.mains[0].values(POWER_ACTIVE), total)

    def test_dropout_thins_channels(self):
        spec = SynthSpec(
            appliances=(two_state("a", 100.0),),
            period=1.0,
            duration=1000.0,
            seed=5,
            dropout_probability=0.3,
        )
        ds, _ = generate(spec)
        n = len(ds.buildings[1].mains[0])
        assert 600 <= n <= 800

    @pytest.mark.parametrize("stds", [[0, 0], [0, 5]])
    def test_whole_number_means_from_json(self, stds):
        # JSON keeps 0 and 150 as ints; the channels are float64 and equal
        # those of the same spec written with floats.
        app = {"name": "a", "means": [0, 150], "stds": stds, "pi": [0.5, 0.5],
               "A": [[0.9, 0.1], [0.1, 0.9]]}
        text = json.dumps({"appliances": [app], "period": 1.0, "duration": 100.0, "seed": 4})
        as_floats = json.dumps({"appliances": [{
            **app, "means": [0.0, 150.0], "stds": [float(v) for v in stds],
        }], "period": 1.0, "duration": 100.0, "seed": 4})
        b = generate(SynthSpec.from_json_text(text))[0].buildings[1]
        ref = generate(SynthSpec.from_json_text(as_floats))[0].buildings[1]
        for c, r in [(b.appliances["a"], ref.appliances["a"]), (b.mains[0], ref.mains[0])]:
            assert c.values(POWER_ACTIVE).dtype == np.float64
            assert np.array_equal(c.values(POWER_ACTIVE), r.values(POWER_ACTIVE))

    def test_determinism_bytes_on_disk(self, tmp_path):
        spec = default_benchmark_spec(seed=11)
        for name in ("one", "two"):
            ds, _ = generate(spec)
            save_dataset_dir(ds, tmp_path / name)
        assert dir_digest(tmp_path / "one") == dir_digest(tmp_path / "two")

    def test_different_seed_changes_bytes(self, tmp_path):
        ds1, _ = generate(default_benchmark_spec(seed=11))
        ds2, _ = generate(default_benchmark_spec(seed=12))
        save_dataset_dir(ds1, tmp_path / "one")
        save_dataset_dir(ds2, tmp_path / "two")
        assert dir_digest(tmp_path / "one") != dir_digest(tmp_path / "two")


class TestDefaultBenchmarkSpec:
    def test_spec_validates_and_is_seeded(self):
        spec = default_benchmark_spec()
        assert spec.seed == 42
        assert 3 <= len(spec.appliances) <= 5
        assert spec.noise_std == 30.0

    def test_energy_fully_submetered(self):
        ds, _ = generate(default_benchmark_spec())
        got = proportion_energy_submetered(ds.buildings[1])
        assert got == pytest.approx(1.0, abs=0.02)

    def test_top_appliance_is_the_ac(self):
        ds, _ = generate(default_benchmark_spec())
        ranked = top_k_appliances(ds.buildings[1], 1)
        assert ranked[0][0] == "air_conditioner"

    def test_true_states_cover_full_grid(self):
        spec = default_benchmark_spec()
        ds, states = generate(spec)
        n = int(round(spec.duration / spec.period))
        for series in states.values():
            assert series.size == n


class TestConstructorsValidateClean:
    def test_generated_building_validates(self):
        from nilmbench.data import validate_building

        ds, _ = generate(default_benchmark_spec())
        assert validate_building(ds.buildings[1]) == []

    def test_round_tripped_building_validates(self, tmp_path):
        from nilmbench.data import validate_building
        from nilmbench.io import load_dataset_dir

        ds, _ = generate(default_benchmark_spec(seed=13))
        save_dataset_dir(ds, tmp_path / "ds")
        again = load_dataset_dir(tmp_path / "ds")
        assert validate_building(again.buildings[1]) == []


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sample_chain_matches_per_sample_loop(data):
    K = data.draw(st.integers(1, 4))
    weights = st.lists(st.sampled_from([0, 0, 1, 2, 7]), min_size=K, max_size=K).filter(any)

    def distribution():
        w = data.draw(weights)
        return tuple(x / sum(w) for x in w)

    def row(k):
        kind = data.draw(st.sampled_from(["any", "sticky", "absorbing", "short"]))
        if kind == "sticky":
            # Leaves state k at most at 1 draw in 10^e, so long runs occur.
            leave = 10.0 ** -data.draw(st.integers(1, 12))
            return tuple((j == k) * (1 - leave) + leave * p for j, p in enumerate(distribution()))
        if kind == "absorbing":
            return tuple(float(j == k) for j in range(K))
        if kind == "short":
            # The cumulative sum ends below 1.0, so the clip to K - 1 decides
            # the draws past it.
            scale = data.draw(st.sampled_from([0.5, 0.9, 1 - 1e-10]))
            return tuple(p * scale for p in distribution())
        return distribution()

    pi, A = distribution(), tuple(row(k) for k in range(K))
    if all(abs(sum(r) - 1) <= 1e-9 for r in A):
        chain = ApplianceSynthSpec(
            name="a", means=tuple(float(k) for k in range(K)), stds=(0.0,) * K, pi=pi, A=A,
        )
    else:
        # Rows short by more than a spec accepts reach the clip often.
        chain = SimpleNamespace(K=K, pi=pi, A=A)
    n = data.draw(st.one_of(st.integers(1, 2000), st.integers(2001, 20000)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(
        _sample_chain(rng, chain, n), sample_chain_loop(oracle_rng, chain.pi, chain.A, n)
    )
    # Same draws consumed: the generator continues in step.
    assert rng.random() == oracle_rng.random()
