import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench import pipeline
from nilmbench.cli import main
from nilmbench.data import POWER_ACTIVE, POWER_REACTIVE, DataSet, is_aligned, mains_total
from nilmbench.disaggregate import disaggregate_co, disaggregate_fhmm
from nilmbench.io import import_model_json, json_text, load_dataset_dir, save_dataset_dir
from nilmbench.metrics import evaluate
from nilmbench.preprocess import map_channels, normalize_voltage, train_test_split
from nilmbench.stats import top_k_appliances
from nilmbench.synth import default_benchmark_spec, generate
from nilmbench.training import ApplianceHMM, ApplianceStateModel, COModel, FHMMModel

from conftest import mk_building, mk_channel
from test_io import simple_rows, write_redd_house


def run_cli(*argv):
    return main(list(argv))


def strip_timings(text):
    raw = json.loads(text)
    raw["building"].pop("train_seconds", None)
    raw["building"].pop("disaggregate_seconds", None)
    return json.dumps(raw, sort_keys=True)


def staged_metrics(tmp_path, data, algorithm, feature="power_active"):
    """Metrics JSON text of preprocess(split) -> train -> disaggregate ->
    evaluate, run through the CLI; None if a command exits non-zero."""
    prep, preds, metrics_dir = tmp_path / "prep", tmp_path / "preds", tmp_path / "metrics"
    model = tmp_path / f"model_{algorithm}.json"
    commands = [
        ["preprocess", "--input", str(data), "--output", str(prep), "--split-fraction", "0.5"],
        ["train", "--input", str(prep / "train"), "--building", "1", "--algorithm", algorithm,
         "--feature", feature, "--output", str(model)],
        ["disaggregate", "--input", str(prep / "test"), "--building", "1",
         "--model", str(model), "--feature", feature, "--output", str(preds)],
        ["evaluate", "--predictions", str(preds), "--truth", str(prep / "test"),
         "--building", "1", "--model", str(model), "--algorithm", algorithm,
         "--feature", feature, "--output", str(metrics_dir)],
    ]
    if any(run_cli("--quiet", *argv) != 0 for argv in commands):
        return None
    return (metrics_dir / f"metrics_{algorithm}.json").read_text()


def negative_mean_dataset(tmp_path):
    """A one-appliance building cycling -30, 20, 20, 20 W, as a dataset dir."""
    t = np.arange(400, dtype=float)
    power = np.tile([-30.0, 20.0, 20.0, 20.0], 100)
    b = mk_building(
        mains=[mk_channel(t, power, cid="mains_1")],
        appliances={"fridge": mk_channel(t, power, cid="fridge")},
    )
    data = tmp_path / "data"
    save_dataset_dir(DataSet("negative", {1: b}), data)
    return data


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("--quiet", "synth", "--output", str(out), "--seed", "7") == 0
    return out


def base_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"format": "synth"},
        "building": 1,
        "feature": "power_active",
        "preprocess": [],
        "split_fraction": 0.5,
        "algorithms": ["co", "fhmm"],
        "states": 2,
        "output": str(tmp_path / "out"),
        "seed": 42,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSubcommands:
    def test_synth_writes_dataset_and_spec(self, synth_dir):
        assert (synth_dir / "house_1" / "utility" / "electricity" / "mains" / "mains_1.csv").is_file()
        assert (synth_dir / "synth_spec.json").is_file()

    def test_diagnose(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "diag"
        assert run_cli("diagnose", "--input", str(synth_dir), "--output", str(out)) == 0
        assert (out / "diagnostics_house_1.csv").is_file()
        text = capsys.readouterr().out
        assert "Dropout rate (percent)" in text

    def test_stats(self, synth_dir, tmp_path):
        out = tmp_path / "stats"
        assert run_cli("--quiet", "stats", "--input", str(synth_dir), "--building", "1",
                       "--output", str(out)) == 0
        assert (out / "top_k_house_1.csv").is_file()
        assert (out / "stats_house_1.json").is_file()
        assert (out / "power_histogram_fridge.csv").is_file()

    def test_import_redd(self, tmp_path):
        raw = tmp_path / "redd"
        raw.mkdir()
        write_redd_house(
            raw, 1,
            {1: "mains", 2: "mains", 3: "refrigerator"},
            {1: simple_rows(), 2: simple_rows(), 3: simple_rows()},
        )
        out = tmp_path / "canonical"
        assert run_cli("--quiet", "import", "--input", str(raw), "--output", str(out)) == 0
        assert (out / "house_1" / "utility" / "electricity" / "appliances" / "fridge.csv").is_file()

    @pytest.mark.parametrize("algorithm", pipeline.VALID_ALGORITHMS)
    def test_disaggregate_decodes_a_saved_model(self, synth_dir, tmp_path, algorithm):
        # The model file's tag picks the decoder; the written powers are its
        # in-memory predictions' levels at their states.
        model, preds = tmp_path / "model.json", tmp_path / "preds"
        assert run_cli("--quiet", "train", "--input", str(synth_dir), "--algorithm", algorithm,
                       "--output", str(model)) == 0
        assert run_cli("--quiet", "disaggregate", "--input", str(synth_dir), "--model", str(model),
                       "--output", str(preds)) == 0
        m = pipeline.read_model(model)
        assert m.algorithm == algorithm
        decode = {"co": disaggregate_co, "fhmm": disaggregate_fhmm}[algorithm]
        b = load_dataset_dir(synth_dir).buildings[1]
        expected = decode(m, mains_total(b, POWER_ACTIVE))
        written = load_dataset_dir(preds).buildings[1].appliances
        assert sorted(written) == sorted(expected.appliances)
        for name, ap in expected.appliances.items():
            assert np.array_equal(written[name].values(POWER_ACTIVE), ap.levels[ap.states])
            assert np.array_equal(written[name].timestamps, expected.timestamps)

    def test_missing_input_is_config_error(self, monkeypatch, capsys):
        monkeypatch.delenv("NILM_DATA_DIR", raising=False)
        assert run_cli("diagnose") == 2
        assert "NILM_DATA_DIR" in capsys.readouterr().err

    def test_env_var_supplies_input(self, synth_dir, monkeypatch):
        monkeypatch.setenv("NILM_DATA_DIR", str(synth_dir))
        assert run_cli("--quiet", "diagnose") == 0


class TestRun:
    def test_full_run_artifacts(self, tmp_path):
        cfg = base_config(tmp_path)
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        out = tmp_path / "out"
        for name in (
            "manifest.json", "metrics.csv",
            "model_co.json", "model_fhmm.json",
            "metrics_co.json", "metrics_fhmm.csv",
        ):
            assert (out / name).exists(), name
        assert (out / "predictions_fhmm" / "house_1" / "utility" / "electricity"
                / "appliances" / "fridge.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "config_hash" in manifest and "timings_seconds" in manifest
        paths = sorted(out.rglob("*.json"))
        assert len(paths) > 5
        for path in paths:
            text = path.read_text(encoding="utf-8")
            assert text == json_text(json.loads(text)) + "\n", path

    def test_config_hash_ignores_output_path(self, tmp_path):
        cfg = base_config(tmp_path, algorithms=["co"])
        hashes = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert run_cli("--quiet", "run", "--config", str(cfg), "--output", str(out)) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] == hashes[1]

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path, dataset={"format": "dataset-dir"})
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 2
        assert "dataset.path" in capsys.readouterr().err

    def test_unknown_algorithm_exit_2(self, tmp_path):
        cfg = base_config(tmp_path, algorithms=["co", "magic"])
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 2

    def test_stage_failure_names_stage(self, tmp_path, capsys):
        cfg = base_config(tmp_path, building=9)
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 1
        assert "import" in capsys.readouterr().err

    def test_set_override(self, tmp_path):
        cfg = base_config(tmp_path, algorithms=["co", "fhmm"])
        out2 = tmp_path / "out2"
        assert run_cli(
            "--quiet", "run", "--config", str(cfg),
            "--set", 'algorithms=["co"]', "--output", str(out2),
        ) == 0
        assert (out2 / "model_co.json").exists()
        assert not (out2 / "model_fhmm.json").exists()

    def test_algorithm_one_style_config(self, tmp_path):
        # Voltage filter at 160 V, downsample to 1 minute, FHMM, F-score.
        spec_path = tmp_path / "spec.json"
        from nilmbench.synth import default_benchmark_spec

        spec = default_benchmark_spec(seed=5)
        spec_path.write_text(spec.to_json_text(), encoding="utf-8")
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--spec", str(spec_path), "--output", str(data)) == 0
        cfg = base_config(
            tmp_path,
            dataset={"format": "dataset-dir", "path": str(data)},
            preprocess=[
                {"op": "filter_implausible", "measurement": "voltage", "lo": 160},
                {"op": "downsample", "period": 60, "agg": "mean"},
            ],
            algorithms=["fhmm"],
        )
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "metrics_fhmm.json").read_text())
        for metrics in report["appliances"].values():
            assert "f_score" in metrics

    @pytest.mark.parametrize("lo, hi", [(10.0, 5.0), (5.0, 5.0)])
    def test_filter_bounds_out_of_order_fail_preprocess(self, tmp_path, lo, hi):
        # lo < hi relates two fields, so it is the one step rule the stage checks.
        step = {"op": "filter_implausible", "measurement": "power_active", "lo": lo, "hi": hi}
        raw = json.loads(base_config(tmp_path, preprocess=[step], algorithms=["co"]).read_text())
        with pytest.raises(pipeline.StageFailure, match="filter bounds require lo < hi") as e:
            pipeline.run(pipeline.RunConfig.from_dict(raw), raw_config=raw, quiet=True)
        assert e.value.stage == "preprocess"

    def test_building_without_mains_fails_split(self, synth_dir, tmp_path):
        ds = load_dataset_dir(synth_dir)
        data = tmp_path / "no_mains"
        save_dataset_dir(replace(ds, buildings={1: replace(ds.buildings[1], mains=())}), data)
        cfg = base_config(tmp_path, dataset={"format": "dataset-dir", "path": str(data)}, algorithms=["co"])
        raw = json.loads(cfg.read_text())
        with pytest.raises(pipeline.StageFailure, match="building 1 has no mains channel") as e:
            pipeline.run(pipeline.RunConfig.from_dict(raw), raw_config=raw, quiet=True)
        assert e.value.stage == "split"

    @pytest.mark.parametrize(
        "grid", [{"start": 0.1234567}, {"period": 0.1}], ids=["start", "period"]
    )
    def test_run_scores_every_test_row_off_microsecond_grid(self, tmp_path, grid):
        # The CSV writer rounds timestamps to whole microseconds; the run
        # must score the decoder's predictions on their own timestamps.
        spec = default_benchmark_spec(seed=3)
        spec = replace(
            spec,
            appliances=spec.appliances[:2],
            period=grid.get("period", 60.0),
            duration=2000 * grid.get("period", 60.0),
            start=grid.get("start", 0.0),
        )
        raw = {
            "dataset": {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
            "algorithms": ["co", "fhmm"],
            "output": str(tmp_path / "out"),
        }
        result = pipeline.run(pipeline.RunConfig.from_dict(raw), raw, quiet=True)
        ds, _ = generate(spec)
        _, test_b = train_test_split(ds.buildings[1], 0.5)
        n_test = len(test_b.mains[0])
        assert n_test == 1000
        for alg in ("co", "fhmm"):
            report = result.reports[alg]
            assert [a.counts.total for a in report.appliances] == [n_test, n_test], alg

    def test_negative_state_mean_scored_as_decoded(self, tmp_path):
        cfg = base_config(
            tmp_path,
            dataset={"format": "dataset-dir", "path": str(negative_mean_dataset(tmp_path))},
            algorithms=["co"],
        )
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "metrics_co.json").read_text())
        assert report["appliances"]["fridge"]["confusion"] == [[50, 0], [0, 150]]

    def test_appliances_never_on_score_fte_undefined(self, tmp_path):
        # Two appliances that stay off: neither the truth nor a decoder has
        # appliance energy, and every algorithm is still scored.
        off = {"means": [0.0, 100.0], "stds": [0.0, 1.0], "pi": [1, 0], "A": [[1, 0], [0.5, 0.5]]}
        spec = {"appliances": [{"name": n, **off} for n in ("fridge", "kettle")], "seed": 1,
                "noise_std": 0, "period": 60, "duration": 86400}
        cfg = base_config(tmp_path, dataset={"format": "synth", "synth_spec": spec})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # learn_states reduces K to the one level seen
            assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        for alg in ("co", "fhmm"):
            report = json.loads((tmp_path / "out" / f"metrics_{alg}.json").read_text())
            assert report["building"]["fte"] == 0.0
            assert report["building"]["undefined"] == ["fte"], alg

    def test_working_set_a_small_multiple_of_the_data(self, tmp_path):
        # CO and FHMM on 2 days at 6 s: 4 channels of 28 800 rows, 1.84 MB
        # of timestamps and values with each channel counted in full.  The
        # traced peak measured 2.60-2.61 MB, 1.41x that (seeds 1-3), against
        # 3.98x when every channel copied its arrays and the split copied
        # both halves; the 1.75x bound leaves a 24 % margin.  A tiny run
        # first loads what the first run imports lazily.
        def run(days, out):
            spec = replace(default_benchmark_spec(seed=1), duration=days * 86400.0, period=6.0)
            pipeline.run(pipeline.RunConfig(
                dataset_path=None, dataset_format="synth", synth_spec=spec, output=str(out),
            ), quiet=True)

        run(0.05, tmp_path / "warm")
        tracemalloc.start()
        try:
            run(2.0, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * 4 * 28_800 * 16


@st.composite
def households(draw):
    """1-3 two-state appliances with off levels 0, -1 or -30 W and on levels
    from 5 W, on a regular grid of at most 300 rows."""
    rows = draw(st.integers(8, 300))
    start = draw(st.sampled_from([0.0, 0.1234567, 1.3e9]))
    period = draw(st.floats(0.1, 60.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = start + period * np.arange(rows)
    appliances = {}
    for name in ("fridge", "kettle", "television")[: draw(st.integers(1, 3))]:
        off = draw(st.sampled_from([0.0, -1.0, -30.0]))
        on = draw(st.floats(5.0, 3000.0))
        power = np.where(rng.random(rows) < draw(st.floats(0.1, 0.9)), on, off)
        appliances[name] = mk_channel(t, power, period=period, cid=name)
    mains = sum(c.values(POWER_ACTIVE) for c in appliances.values()) + rng.normal(0, 2, rows)
    return mk_building(mains=[mk_channel(t, mains, period=period, cid="mains_1")],
                       appliances=appliances)


class TestStagedEqualsRun:
    @pytest.mark.parametrize("algorithm", ["co", "fhmm"])
    def test_reports_identical(self, tmp_path, algorithm):
        # One-shot run.
        cfg = base_config(tmp_path, algorithms=[algorithm], seed=21)
        assert run_cli("--quiet", "run", "--config", str(cfg), "--seed", "21") == 0
        one_shot = (tmp_path / "out" / f"metrics_{algorithm}.json").read_text()

        # Staged: synth -> preprocess(split) -> train -> disaggregate -> evaluate.
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--output", str(data), "--seed", "21") == 0
        staged = staged_metrics(tmp_path, data, algorithm)

        assert strip_timings(one_shot) == strip_timings(staged)
        # Model files agree bit for bit too.
        model = f"model_{algorithm}.json"
        assert (tmp_path / "out" / model).read_bytes() == (tmp_path / model).read_bytes()

    @pytest.mark.parametrize("algorithm", ["co", "fhmm"])
    def test_scores_every_test_row_off_microsecond_grid(self, tmp_path, algorithm):
        # k * 0.1 s is mostly not the float nearest a 6-decimal text, so
        # every stage must write its timestamps losslessly for the staged
        # predictions to line up with the generated rows.
        spec = default_benchmark_spec(seed=3)
        spec = replace(spec, appliances=spec.appliances[:2], period=0.1, duration=200.0)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(spec.to_json_text(), encoding="utf-8")
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--spec", str(spec_path), "--output", str(data)) == 0
        report = json.loads(staged_metrics(tmp_path, data, algorithm, "power_active"))
        assert [int(np.sum(a["confusion"])) for a in report["appliances"].values()] == [1000] * 2
        # The written predictions score every row of the generated test half.
        _, truth = train_test_split(generate(spec)[0].buildings[1], 0.5)
        model = import_model_json((tmp_path / f"model_{algorithm}.json").read_text())
        preds = load_dataset_dir(tmp_path / "preds").buildings[1]
        scored = evaluate(pipeline.predictions_from_dataset(preds, model), truth)
        assert [a.counts.total for a in scored.appliances] == [1000] * 2

    @pytest.mark.parametrize("algorithm", ["co", "fhmm"])
    def test_negative_state_mean_recovered(self, tmp_path, algorithm):
        # The -30 W state is written as 0 W; read back, 0 W must map to the
        # state whose written power it is, not to the nearest state mean.
        report = json.loads(staged_metrics(tmp_path, negative_mean_dataset(tmp_path), algorithm))
        assert report["appliances"]["fridge"]["confusion"] == [[50, 0], [0, 150]]

    @pytest.mark.filterwarnings("ignore:channel .* distinct values:UserWarning")
    @settings(max_examples=40, deadline=None)
    @given(household=households())
    def test_random_households(self, household):
        # Where evaluate is undefined (e.g. FTE over non-positive energies)
        # both entry points must fail.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "data"
            save_dataset_dir(DataSet("random", {1: household}), data)
            for algorithm in ("co", "fhmm"):
                work = tmp / algorithm
                work.mkdir()
                cfg = base_config(
                    work, dataset={"format": "dataset-dir", "path": str(data)},
                    algorithms=[algorithm],
                )
                ran = run_cli("--quiet", "run", "--config", str(cfg)) == 0
                staged = staged_metrics(work, data, algorithm)
                assert ran == (staged is not None), algorithm
                if ran:
                    one_shot = (work / "out" / f"metrics_{algorithm}.json").read_text()
                    assert strip_timings(one_shot) == strip_timings(staged), algorithm
                    model = f"model_{algorithm}.json"
                    assert (work / "out" / model).read_bytes() == (work / model).read_bytes()


class TestReactiveFeature:
    @pytest.mark.parametrize("algorithm", ["co", "fhmm"])
    def test_run_and_staged_agree(self, tmp_path, algorithm):
        ds, _ = generate(default_benchmark_spec(seed=4))
        b = map_channels(
            ds.buildings[1],
            lambda c: c.with_columns(
                {**c.columns, POWER_REACTIVE: 0.3 * c.values(POWER_ACTIVE)}
            ),
        )
        data = tmp_path / "data"
        save_dataset_dir(DataSet(ds.name, {1: b}, ds.metadata), data)
        cfg = base_config(
            tmp_path,
            dataset={"format": "dataset-dir", "path": str(data)},
            feature="power_reactive",
            algorithms=[algorithm],
        )
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        out = tmp_path / "out"
        fridge = (out / f"predictions_{algorithm}" / "house_1" / "utility" / "electricity"
                  / "appliances" / "fridge.csv")
        assert fridge.read_text().splitlines()[0] == "timestamp,power_reactive"

        staged = staged_metrics(tmp_path, data, algorithm, "power_reactive")
        one_shot = (out / f"metrics_{algorithm}.json").read_text()
        assert strip_timings(one_shot) == strip_timings(staged)

    def test_mains_without_the_feature_fail_split(self, tmp_path):
        ds, _ = generate(replace(default_benchmark_spec(seed=4), duration=21600.0))
        b = ds.buildings[1]
        appliances = {name: c.with_columns({**c.columns, POWER_REACTIVE: 0.3 * c.values(POWER_ACTIVE)})
                      for name, c in b.appliances.items()}
        data = tmp_path / "data"
        save_dataset_dir(DataSet(ds.name, {1: replace(b, appliances=appliances)}, ds.metadata), data)
        cfg = base_config(tmp_path, dataset={"format": "dataset-dir", "path": str(data)},
                          feature="power_reactive")
        raw = json.loads(cfg.read_text())
        with pytest.raises(pipeline.StageFailure, match="channel mains_1 has no power_reactive") as e:
            pipeline.run(pipeline.RunConfig.from_dict(raw), raw_config=raw, quiet=True)
        assert e.value.stage == "split"
        assert not list((tmp_path / "out").glob("model_*.json"))


class TestFeatureOption:
    @pytest.mark.parametrize("argv", [
        ["train", "--input", "data", "--algorithm", "co", "--output", "model.json"],
        ["disaggregate", "--input", "data", "--model", "model.json", "--output", "preds"],
        ["evaluate", "--predictions", "preds", "--truth", "data"],
    ], ids=["train", "disaggregate", "evaluate"])
    def test_unknown_feature_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            run_cli("--quiet", *argv, "--feature", "foo")
        assert e.value.code == 2
        assert "unknown measurement 'foo'" in capsys.readouterr().err


def strict_json(path):
    """The JSON in ``path``, read by a parser that rejects NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def test_every_json_file_written_is_strict(synth_dir, tmp_path):
    # A building without mains has no sub-metered proportion: null, not NaN.
    ds = load_dataset_dir(synth_dir)
    no_mains = tmp_path / "no_mains"
    save_dataset_dir(replace(ds, buildings={1: replace(ds.buildings[1], mains=())}), no_mains)
    out, prep = tmp_path / "out", tmp_path / "out" / "prep"
    commands = [
        ["diagnose", "--input", synth_dir, "--gap-threshold", "600", "--output", out / "diag"],
        ["stats", "--input", synth_dir, "--output", out / "stats"],
        ["stats", "--input", no_mains, "--output", out / "stats_no_mains"],
        ["preprocess", "--input", synth_dir, "--split-fraction", "0.5", "--output", prep],
        ["train", "--input", prep / "train", "--algorithm", "fhmm", "--output", out / "m.json"],
        ["disaggregate", "--input", prep / "test", "--model", out / "m.json",
         "--output", out / "preds"],
        ["evaluate", "--predictions", out / "preds", "--truth", prep / "test",
         "--model", out / "m.json", "--algorithm", "fhmm", "--output", out / "metrics"],
        ["run", "--config", base_config(tmp_path, output=str(out / "run"))],
    ]
    for argv in commands:
        assert run_cli("--quiet", *map(str, argv)) == 0, argv[0]
    written = sorted(out.rglob("*.json")) + [synth_dir / "synth_spec.json"]
    assert {p.name for p in written} == {
        "diagnostics_house_1.json", "stats_house_1.json", "metadata.json", "wiring.json",
        "m.json", "metrics_fhmm.json", "model_co.json", "model_fhmm.json", "metrics_co.json",
        "manifest.json", "synth_spec.json",
    }
    for path in written:
        strict_json(path)
    summary = strict_json(out / "stats_no_mains" / "stats_house_1.json")
    assert summary["proportion_energy_submetered"] is None


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_invalid_gap_threshold_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as e:
        run_cli("--quiet", "diagnose", "--input", "data", "--gap-threshold", value)
    assert e.value.code == 2
    assert "gap threshold must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1.5", "0", "-0.2"])
def test_invalid_split_fraction_is_usage_error(tmp_path, capsys, value):
    # The run config's ``split_fraction`` check: exit 2, as that field does.
    with pytest.raises(SystemExit) as e:
        run_cli(
            "--quiet", "preprocess", "--input", str(negative_mean_dataset(tmp_path)),
            "--output", str(tmp_path / "prep"), "--split-fraction", value,
        )
    assert e.value.code == 2
    assert "argument --split-fraction: must be in (0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("name, reason", [
    ("missing.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing", "directory"])
def test_unreadable_steps_file_is_config_error(tmp_path, capsys, name, reason):
    # A ``--steps`` file that cannot be read: exit 2, as a missing
    # ``run --config`` file, not a stage failure.
    path = tmp_path / name
    assert run_cli(
        "--quiet", "preprocess", "--input", str(negative_mean_dataset(tmp_path)),
        "--steps", str(path), "--output", str(tmp_path / "prep"),
    ) == 2
    assert f"config error: steps file {path}: cannot read: {reason}" in capsys.readouterr().err


def test_console_entry_point_help():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nilmbench.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "run" in proc.stdout


class TestRunOnReddStyleData:
    def test_import_format_run(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        rng_rows = lambda watts: [f"{1303132929 + 3 * i} {w}\n" for i, w in enumerate(watts)]
        import numpy as np

        rng = np.random.default_rng(0)
        fridge = np.where(rng.random(40) < 0.5, 0.0, 150.0)
        phase1 = fridge + rng.normal(0, 2, 40)
        phase2 = rng.normal(30, 2, 40)
        write_redd_house(
            raw, 1,
            {1: "mains", 2: "mains", 3: "refrigerator"},
            {1: rng_rows(phase1), 2: rng_rows(phase2), 3: rng_rows(fridge)},
        )
        cfg = base_config(
            tmp_path,
            dataset={"format": "redd", "path": str(raw)},
            preprocess=[{"op": "intersect_with_mains"}],
            algorithms=["co"],
        )
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        report = json.loads((tmp_path / "out" / "metrics_co.json").read_text())
        assert "fridge" in report["appliances"]


# (field, value, reason): a config giving ``value`` for ``field`` fails with
# "config field '<field>'<reason>", whether read from JSON or built in Python.
MISTYPED_FIELDS = [
    ("states", "two", ""),
    ("split_fraction", "half", ""),
    ("building", "one", ""),
    ("on_threshold", "x", ""),
    ("seed", "s", ""),
    # A string is not read as a list of one-character entries.
    ("algorithms", "co", " must be a list"),
    ("metrics", "nep", " must be a list"),
    ("preprocess", [1], ""),
    ("feature", 5, ""),
    # Integer fields take integral numbers only.
    ("states", 2.7, " must be an integer"),
    ("building", True, " must be an integer"),
    ("seed", "3", " must be an integer"),
    # Out of range: each field is read by one converter, the CLI options too.
    ("states", 0, " must be >= 1"),
    ("on_threshold", float("nan"), " must be finite"),
    ("on_threshold", float("inf"), " must be finite"),
    # The default synthetic spec checks the seed it is given.
    ("seed", -1, " seed must be >= 0, got -1"),
    ("algorithms", ["co", "co"], " must be distinct, got ['co', 'co']"),
    # A number field takes numbers only, not their text or a bool.
    ("split_fraction", "0.5", " must be in (0, 1), got '0.5'"),
    ("on_threshold", "15", " must be finite, got '15'"),
    ("on_threshold", True, " must be finite, got True"),
]

# (step, message): a preprocess step that fails with ``message``.
MALFORMED_STEPS = [
    ({"op": "bogus"}, "unknown preprocess op 'bogus'"),
    ({"op": "filter_top_k"}, "'preprocess[filter_top_k].k' is required"),
    ({"op": "filter_top_k", "k": 2.7}, "'preprocess[filter_top_k].k' must be an integer"),
    ({"op": "filter_top_k", "k": True}, "'preprocess[filter_top_k].k' must be an integer"),
    ({"op": "downsample", "period": "1 min"}, "'preprocess[downsample].period'"),
    ({"op": "downsample", "period": 60, "agg": "max"}, "'preprocess[downsample].agg' unknown"),
    ({"op": "filter_implausible", "measurement": "x"}, "'preprocess[filter_implausible]"),
]
# (the op's other fields, number field, requirement, values): every number
# field of every op refuses its text, a bool and an out-of-range value at read.
NAN, INF = float("nan"), float("inf")
BOUNDS = {"op": "filter_implausible", "measurement": "power_active"}
STEP_NUMBERS = [
    (BOUNDS, "lo", "a number, not NaN", ["0", True, NAN]),
    (BOUNDS, "hi", "a number, not NaN", ["0", True, NAN]),
    ({"op": "normalize_voltage"}, "v_nominal", "finite and > 0", ["230", True, INF]),
    ({"op": "normalize_voltage", "v_nominal": 230.0}, "beta", "finite", ["2", True, NAN]),
    ({"op": "downsample"}, "period", "finite and > 0", ["60", True, NAN, INF, 0.0, -1.0]),
    ({"op": "interpolate_small_gaps"}, "max_gap", "finite and > 0", ["600", True, INF]),
    ({"op": "filter_top_k"}, "k", "an integer", ["2"]),  # and True, above
    ({"op": "filter_top_k"}, "k", ">= 1", [0]),
    ({"op": "filter_top_k", "k": 2}, "gap_threshold", "finite and > 0", ["60", True, -1.0]),
    ({"op": "filter_contribution"}, "x", "in (0, 1)", ["0.5", True, 1.0]),
    ({"op": "filter_contribution", "x": 0.5}, "gap_threshold", "finite and > 0", ["60", True, 0.0]),
]
MALFORMED_STEPS += [
    ({**other, name: value}, f"'preprocess[{other['op']}].{name}' must be {requirement}, got {value!r}")
    for other, name, requirement, values in STEP_NUMBERS for value in values
]


class TestMistypedConfigField:
    @pytest.mark.parametrize("field, value, reason", MISTYPED_FIELDS)
    def test_exit_2_naming_the_field(self, tmp_path, capsys, field, value, reason):
        cfg = base_config(tmp_path, **{field: value})
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 2
        assert f"config field {field!r}{reason}" in capsys.readouterr().err

    def test_integral_float_is_an_integer(self, tmp_path):
        raw = json.loads(base_config(tmp_path, states=3.0, building=1.0).read_text())
        cfg = pipeline.RunConfig.from_dict(raw)
        assert (cfg.states, cfg.building) == (3, 1)
        assert type(cfg.states) is int and type(cfg.building) is int


class TestMalformedPreprocessStep:
    @pytest.mark.parametrize("step, message", MALFORMED_STEPS)
    @pytest.mark.parametrize("entry", ["run", "preprocess"])
    def test_exit_2_naming_op_and_field(self, tmp_path, capsys, entry, step, message):
        data = negative_mean_dataset(tmp_path)
        if entry == "run":
            cfg = base_config(
                tmp_path, dataset={"format": "dataset-dir", "path": str(data)},
                preprocess=[step], algorithms=["co"],
            )
            argv = ["run", "--config", str(cfg)]
        else:
            steps = tmp_path / "steps.json"
            steps.write_text(json.dumps([step]), encoding="utf-8")
            argv = ["preprocess", "--input", str(data), "--steps", str(steps),
                    "--output", str(tmp_path / "prep")]
        assert run_cli("--quiet", *argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "prep").exists()

    def test_steps_file_must_list_steps(self, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        steps.write_text(json.dumps([1]), encoding="utf-8")
        assert run_cli(
            "--quiet", "preprocess", "--input", str(negative_mean_dataset(tmp_path)),
            "--steps", str(steps), "--output", str(tmp_path / "prep"),
        ) == 2
        assert "must be a list of {op: ...}" in capsys.readouterr().err


class TestConfigBuiltInPython:
    # RunConfig(...) reads every field through the converter from_dict uses,
    # so a config built in Python fails, or is read, as its JSON would be.
    @pytest.mark.parametrize("field, value, reason", MISTYPED_FIELDS)
    def test_mistyped_field_naming_it(self, field, value, reason):
        with pytest.raises(pipeline.ConfigError) as e:
            pipeline.RunConfig(None, dataset_format="synth", **{field: value})
        assert f"config field {field!r}{reason}" in str(e.value)

    @pytest.mark.parametrize("step, message", MALFORMED_STEPS)
    def test_malformed_step_naming_op_and_field(self, step, message):
        with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
            pipeline.RunConfig(None, dataset_format="synth", preprocess=[step])

    @pytest.mark.parametrize("kwargs, message", [
        ({"metrics": ("nepp",)}, "config field 'metrics' unknown entry"),
        ({"on_threshold": float("nan")}, "config field 'on_threshold' must be finite"),
        ({"algorithms": ("cc",)}, "config field 'algorithms' unknown entry: 'cc'"),
        ({"states": 0}, "config field 'states' must be >= 1"),
        ({"preprocess": [{"op": "downsample"}]}, "'preprocess[downsample].period' is required"),
        ({"dataset_format": "csv"}, "config field 'dataset.format' unknown: 'csv'"),
        ({"dataset_format": "dataset-dir"}, "config field 'dataset.path' is required"),
        ({"synth_spec": {"appliances": []}}, "config field 'dataset.synth_spec'"),
    ])
    def test_rejected_before_any_stage(self, tmp_path, kwargs, message):
        kwargs = {"dataset_format": "synth", "output": str(tmp_path / "out"), **kwargs}
        with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
            pipeline.run(pipeline.RunConfig(None, **kwargs), quiet=True)
        assert not (tmp_path / "out").exists()

    def test_metric_alias_read_and_run_as_from_json(self, tmp_path):
        spec = replace(default_benchmark_spec(seed=1), duration=21600.0)
        cfg = pipeline.RunConfig(None, "synth", spec, metrics=("f1",), output=str(tmp_path))
        raw = {"dataset": {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
               "metrics": ["f1"], "output": str(tmp_path)}
        assert cfg.metrics == ("f_score",)
        assert cfg == pipeline.RunConfig.from_dict(raw)
        pipeline.run(cfg, quiet=True)
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        # Per algorithm: three appliances and their average, then two timings.
        assert len(rows) == 12
        assert sum(",F-score," in row for row in rows) == 8

    def test_synthetic_without_spec_takes_the_default_from_the_seed(self):
        cfg = pipeline.RunConfig(None, dataset_format="synth", seed=5)
        assert cfg.synth_spec == default_benchmark_spec(seed=5)

    @pytest.mark.parametrize("dataset, data_dir, built", [
        ({"format": "synth"}, None, lambda: pipeline.RunConfig(None, "synth")),
        ({"path": "d"}, "env", lambda: pipeline.RunConfig("d")),
        ({}, "env", lambda: pipeline.RunConfig("env")),
    ])
    def test_from_dict_takes_every_default_from_the_dataclass(self, dataset, data_dir, built):
        cfg = pipeline.RunConfig.from_dict({"dataset": dataset}, data_dir=data_dir)
        assert cfg == built()

    def test_replace_rechecks_every_field(self):
        cfg = pipeline.RunConfig(
            None, "synth", feature="power_reactive", metrics=["f1", "nep"],
            preprocess=[{"op": "filter_implausible", "measurement": "power_active"}],
        )
        assert replace(cfg, output="elsewhere") == replace(cfg, output="elsewhere")
        assert replace(cfg, states=3).preprocess == cfg.preprocess
        with pytest.raises(pipeline.ConfigError, match="config field 'states' must be >= 1"):
            replace(cfg, states=0)

    def test_fields_cannot_be_reassigned(self):
        cfg = pipeline.RunConfig(None, "synth")
        with pytest.raises(FrozenInstanceError):
            cfg.states = 0

    @pytest.mark.parametrize("fmt", ["dataset-dir", "redd"])
    def test_synth_spec_rejected_for_other_formats(self, fmt):
        message = f"config field 'dataset.synth_spec' is read for format 'synth' only, not {fmt!r}"
        with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
            pipeline.RunConfig("d", fmt, synth_spec=[1])
        with pytest.raises(pipeline.ConfigError, match=re.escape(message)):
            pipeline.RunConfig("d", fmt, synth_spec=default_benchmark_spec(seed=1))

    def test_from_dict_ignores_a_synth_spec_of_other_formats(self):
        raw = {"dataset": {"format": "dataset-dir", "path": "d", "synth_spec": [1]}, "seed": 3}
        cfg = pipeline.RunConfig.from_dict(raw)
        assert cfg.synth_spec is None
        assert cfg == pipeline.RunConfig("d", seed=3)
        assert pipeline.RunConfig.from_dict({"dataset": {"path": "d", "synth_spec": {}}}).synth_spec is None


@pytest.fixture
def unaligned_dir(tmp_path):
    """A 2 d, 60 s synthetic household with a 2 h outage and 5 % dropout in
    each channel, so no two channels are aligned, and a mains voltage column."""
    spec = replace(default_benchmark_spec(seed=3), period=60.0, gaps=((30000.0, 37200.0),),
                   dropout_probability=0.05)
    ds, _ = generate(spec)
    b = ds.buildings[1]
    m = b.mains[0]
    volts = 230.0 + 5.0 * np.sin(m.timestamps / 3600.0)
    mains = mk_channel(m.timestamps, m.values(POWER_ACTIVE), period=60.0, cid=m.id, voltage=volts)
    data = tmp_path / "unaligned"
    save_dataset_dir(replace(ds, buildings={1: replace(b, mains=(mains,))}), data)
    return data


class TestPreprocessOpsInRun:
    # Each op as a ``run`` step on unaligned, gapped data.  No step aligns
    # the channels, so the split intersects them with the mains itself.
    @staticmethod
    def run(tmp_path, data, steps):
        out = tmp_path / f"out_{len(list(tmp_path.glob('out_*')))}"
        cfg = base_config(tmp_path, dataset={"format": "dataset-dir", "path": str(data)},
                          preprocess=steps, output=str(out))
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        return out

    @staticmethod
    def scored(out, alg="co"):
        """Appliance name -> rows scored, from the run's report."""
        report = json.loads((out / f"metrics_{alg}.json").read_text())
        return {name: sum(a[k] for k in ("tp", "fp", "fn", "tn"))
                for name, a in report["appliances"].items()}

    def test_split_intersects_unaligned_channels(self, tmp_path, unaligned_dir):
        b = load_dataset_dir(unaligned_dir).buildings[1]
        assert not is_aligned(b)
        _, test = pipeline.align_and_split(b, 0.5)
        assert is_aligned(test)
        rows = self.scored(self.run(tmp_path, unaligned_dir, []))
        assert rows == {name: len(test.mains[0]) for name in b.appliances}

    def test_normalize_voltage_scales_the_mains(self, tmp_path, unaligned_dir):
        def noise_variance(out):
            return json.loads((out / "model_fhmm.json").read_text())["noise_variance"]

        plain = noise_variance(self.run(tmp_path, unaligned_dir, []))
        step = {"op": "normalize_voltage", "v_nominal": 230.0}
        got = noise_variance(self.run(tmp_path, unaligned_dir, [step]))
        # By hand: only the mains carry voltage, so only they are scaled.
        b = load_dataset_dir(unaligned_dir).buildings[1]
        b = replace(b, mains=tuple(normalize_voltage(c, 230.0, 2.0) for c in b.mains))
        train, _ = pipeline.align_and_split(b, 0.5)
        residual = train.mains[0].values(POWER_ACTIVE) - sum(
            c.values(POWER_ACTIVE) for c in train.appliances.values())
        assert got == pytest.approx(float(residual.var()), rel=1e-9)
        assert got != pytest.approx(plain, rel=1e-3)

    def test_interpolate_small_gaps_fills_dropout(self, tmp_path, unaligned_dir):
        plain = self.scored(self.run(tmp_path, unaligned_dir, []))
        step = {"op": "interpolate_small_gaps", "max_gap": 600.0}
        filled = self.scored(self.run(tmp_path, unaligned_dir, [step]))
        # The test half is the second day: at most 1440 rows at 60 s.
        assert all(plain[n] < filled[n] <= 1440 for n in plain)

    def test_filter_top_k_keeps_k_appliances(self, tmp_path, unaligned_dir):
        out = self.run(tmp_path, unaligned_dir, [{"op": "filter_top_k", "k": 2}])
        b = load_dataset_dir(unaligned_dir).buildings[1]
        top = {name for name, _, _ in top_k_appliances(b, 2)}
        assert len(top) == 2
        for alg in ("co", "fhmm"):
            assert set(self.scored(out, alg)) == top, alg

    def test_filter_contribution_keeps_large_shares(self, tmp_path, unaligned_dir):
        out = self.run(tmp_path, unaligned_dir, [{"op": "filter_contribution", "x": 0.5}])
        b = load_dataset_dir(unaligned_dir).buildings[1]
        kept = {name for name, _, share in top_k_appliances(b, 3) if share > 0.5}
        assert kept == {"air_conditioner"}
        assert set(self.scored(out)) == kept


class TestSetOverrides:
    def test_missing_equals_sign_is_config_error(self, tmp_path, capsys):
        argv = ["run", "--config", str(base_config(tmp_path)), "--set", "states"]
        assert run_cli("--quiet", *argv) == 2
        assert "--set expects key=value, got 'states'" in capsys.readouterr().err

    def test_value_that_is_not_json_is_a_string(self, tmp_path):
        out = tmp_path / "not json"
        argv = ["run", "--config", str(base_config(tmp_path, algorithms=["co"])),
                "--set", f"output={out}"]
        assert run_cli("--quiet", *argv) == 0
        assert (out / "metrics_co.json").is_file()

    def test_dotted_key_sets_a_nested_field(self, tmp_path):
        cfg = base_config(tmp_path, dataset={"format": "dataset-dir", "path": "missing"},
                          algorithms=["co"])
        argv = ["run", "--config", str(cfg), "--set", 'dataset.format="synth"']
        assert run_cli("--quiet", *argv) == 0
        assert (tmp_path / "out" / "metrics_co.json").is_file()

    def test_dotted_key_into_a_non_object_is_config_error(self, tmp_path, capsys):
        argv = ["run", "--config", str(base_config(tmp_path)), "--set", "states.k=3"]
        assert run_cli("--quiet", *argv) == 2
        assert "--set cannot descend into 'states'" in capsys.readouterr().err


class TestBenchmarkCallSites:
    # perfbench attributes time to layers by patching these names; a run
    # that routed around one would silently read 0 for its per-layer metric.
    # Delete once the benchmark reads a trace the program records itself.
    @staticmethod
    def count_calls(monkeypatch, module, names, calls):
        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

    def test_run_calls_every_patched_name(self, tmp_path, monkeypatch):
        from nilmbench import io as nio

        calls = {}
        self.count_calls(monkeypatch, pipeline, ("train_test_split", "train_co", "train_fhmm",
                                                 "disaggregate_co", "disaggregate_fhmm", "evaluate"), calls)
        self.count_calls(monkeypatch, nio, ("save_dataset_dir", "export_model_json"), calls)
        spec = replace(default_benchmark_spec(seed=2), period=60.0, duration=21600.0)
        raw = {
            "dataset": {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
            "output": str(tmp_path / "out"),
        }
        pipeline.run(pipeline.RunConfig.from_dict(raw), raw, quiet=True)
        assert calls == {
            "train_test_split": 1, "train_co": 1, "train_fhmm": 1, "disaggregate_co": 1,
            "disaggregate_fhmm": 1, "evaluate": 2, "save_dataset_dir": 2, "export_model_json": 2,
        }

    def test_each_op_calls_its_function_through_pipeline(self, tmp_path, monkeypatch, unaligned_dir):
        functions = ("filter_out_implausible", "normalize_voltage", "downsample",
                     "interpolate_small_gaps", "intersect_with_mains", "filter_top_k",
                     "filter_contribution")
        calls = {}
        self.count_calls(monkeypatch, pipeline, functions, calls)
        steps = [
            {"op": "filter_implausible", "measurement": "voltage", "lo": 100.0},
            {"op": "normalize_voltage", "v_nominal": 230.0},
            {"op": "downsample", "period": 120.0},
            {"op": "interpolate_small_gaps", "max_gap": 600.0},
            {"op": "intersect_with_mains"},
            {"op": "filter_top_k", "k": 2},
            {"op": "filter_contribution", "x": 0.01},
        ]
        assert {s["op"] for s in steps} == set(pipeline.PREPROCESS_OPS)
        cfg = base_config(tmp_path, dataset={"format": "dataset-dir", "path": str(unaligned_dir)},
                          preprocess=steps, algorithms=["co"])
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        assert set(calls) == set(functions) and all(calls.values()), calls

    def test_every_patched_name_is_bound(self):
        # Read from the benchmark's source, so that nothing of it is imported.
        source = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
        tree = ast.parse(source.read_text(encoding="utf-8"))
        call_sites = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CALL_SITES"]
        )
        unbound = [f"{module}.{name}" for module, names in call_sites.items() for name in names
                   if not hasattr(importlib.import_module(module), name)]
        assert "nilmbench.pipeline" in call_sites and not unbound


class TestStatesLearntOnce:
    APPLIANCES = ["air_conditioner", "electric_heat", "fridge"]

    def synth_raw(self, tmp_path, spec, **overrides):
        return {
            "dataset": {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
            "output": str(tmp_path / "out"),
            **overrides,
        }

    def test_reducing_k_warns_once_per_appliance(self, tmp_path):
        spec = default_benchmark_spec(seed=2)
        ac = replace(spec.appliances[0], stds=(0.0, 0.0))
        spec = replace(spec, appliances=(ac, *spec.appliances[1:]))
        raw = self.synth_raw(tmp_path, spec, states=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pipeline.run(pipeline.RunConfig.from_dict(raw), raw, quiet=True)
        reducing = [str(w.message) for w in caught if "reducing K" in str(w.message)]
        assert reducing == ["channel air_conditioner: only 2 distinct values; reducing K from 3 to 2"]

    def test_run_and_train_learn_each_appliance_once(self, tmp_path, synth_dir, monkeypatch):
        from nilmbench import training

        learnt = []
        original = training.learn_states

        def counting(c, *args, **kwargs):
            learnt.append(c.id)
            return original(c, *args, **kwargs)

        monkeypatch.setattr(training, "learn_states", counting)
        spec = replace(default_benchmark_spec(seed=2), duration=21600.0)
        raw = self.synth_raw(tmp_path, spec)
        pipeline.run(pipeline.RunConfig.from_dict(raw), raw, quiet=True)
        assert sorted(learnt) == self.APPLIANCES
        for algorithm in pipeline.VALID_ALGORITHMS:
            learnt.clear()
            assert run_cli(
                "--quiet", "train", "--input", str(synth_dir), "--algorithm", algorithm,
                "--output", str(tmp_path / f"model_{algorithm}.json"),
            ) == 0
            assert sorted(learnt) == self.APPLIANCES, algorithm


class TestMetricSelection:
    def test_metric_list_filters_csv(self, tmp_path):
        cfg = base_config(tmp_path, algorithms=["co"], metrics=["nep", "fte", "f1"])
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0
        csv_text = (tmp_path / "out" / "metrics_co.csv").read_text()
        assert "NEP" in csv_text and "FTE" in csv_text and "F-score" in csv_text
        assert "RMSE" not in csv_text and "Precision" not in csv_text
        # JSON keeps the full report regardless.
        report = json.loads((tmp_path / "out" / "metrics_co.json").read_text())
        assert "rmse" in next(iter(report["appliances"].values()))

    def test_unknown_metric_exit_2(self, tmp_path, capsys):
        cfg = base_config(tmp_path, metrics=["nep", "magic"])
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 2
        assert "metrics" in capsys.readouterr().err


class TestEvaluateWithoutModel:
    def test_threshold_only_reconstruction(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--output", str(data), "--seed", "33") == 0
        prep = tmp_path / "prep"
        assert run_cli(
            "--quiet", "preprocess", "--input", str(data), "--output", str(prep),
            "--split-fraction", "0.5",
        ) == 0
        model = tmp_path / "model.json"
        assert run_cli(
            "--quiet", "train", "--input", str(prep / "train"), "--algorithm", "co",
            "--output", str(model),
        ) == 0
        preds = tmp_path / "preds"
        assert run_cli(
            "--quiet", "disaggregate", "--input", str(prep / "test"),
            "--model", str(model), "--output", str(preds),
        ) == 0
        metrics_dir = tmp_path / "m"
        assert run_cli(
            "--quiet", "evaluate", "--predictions", str(preds),
            "--truth", str(prep / "test"), "--output", str(metrics_dir),
        ) == 0
        report = json.loads((metrics_dir / "metrics.json").read_text())
        assert set(report["appliances"]) == {"air_conditioner", "electric_heat", "fridge"}

    def test_perfect_prediction_confusion_is_diagonal(self, tmp_path):
        t = [0.0, 1.0, 2.0, 3.0]
        b = mk_building(
            mains=[mk_channel(t, [5.0, 5.0, 100.0, 100.0], cid="mains_1")],
            appliances={"fridge": mk_channel(t, [5.0, 5.0, 100.0, 100.0], cid="fridge")},
        )
        data = tmp_path / "data"
        save_dataset_dir(DataSet("toy", {1: b}), data)
        out = tmp_path / "m"
        assert run_cli(
            "--quiet", "evaluate", "--predictions", str(data), "--truth", str(data),
            "--output", str(out),
        ) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["appliances"]["fridge"]["confusion"] == [[2, 0], [0, 2]]


@st.composite
def decoded_household(draw):
    """A random CO or FHMM model, some appliances with one state mean at or
    below 0 W, and an aggregate of T rows for it to decode."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    appliances = []
    for n in range(draw(st.integers(1, 3))):
        K = draw(st.integers(1, 3))
        means = np.sort(rng.choice(np.arange(1, 40) * 10.0, K, replace=False))
        # A mean far below 0 W is nearer to the next state's level than to 0 W.
        means[0] = draw(st.sampled_from([means[0], 0.0, -5.0, -300.0]))
        pi, A = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K), size=K)
        appliances.append(ApplianceHMM(ApplianceStateModel(f"a{n}", means, rng.uniform(2.0, 30.0, K)), pi, A))
    model = FHMMModel(tuple(appliances), noise_variance=100.0)
    if draw(st.booleans()):
        model = COModel(tuple(a.base for a in appliances))
    T = draw(st.integers(1, 120))
    t = draw(st.sampled_from([0.0, 0.1234567, 1.3e9])) + draw(st.sampled_from([0.1, 6.0])) * np.arange(T)
    on = [rng.choice(a.means, T) for a in appliances]
    aggregate = mk_channel(t, sum(on) + rng.normal(0.0, 10.0, T), cid="mains_1")
    truth = mk_building(appliances={
        a.name: mk_channel(t, np.maximum(y, 0.0) + rng.uniform(0.0, 5.0, T), cid=a.name)
        for a, y in zip(appliances, on)
    })
    return model, aggregate, truth


class TestPredictionsReadBack:
    @settings(max_examples=60, deadline=None)
    @given(household=decoded_household())
    def test_written_predictions_read_back_as_decoded(self, household):
        # decode -> write -> load -> read back with the model: the same
        # states and levels, so the same report.
        model, aggregate, truth = household
        decode = disaggregate_co if isinstance(model, COModel) else disaggregate_fhmm
        decoded = decode(model, aggregate)
        with tempfile.TemporaryDirectory() as tmp:
            pipeline.write_predictions(decoded, 1, POWER_ACTIVE, Path(tmp))
            read = pipeline.predictions_from_dataset(load_dataset_dir(tmp).buildings[1], model)
        assert np.array_equal(read.timestamps, decoded.timestamps)
        assert list(read.appliances) == list(decoded.appliances)
        for name, want in decoded.appliances.items():
            got = read.appliances[name]
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.levels, want.levels)
            assert np.array_equal(got.state_means, want.state_means)
        assert json_text(evaluate(read, truth).payload()) == json_text(evaluate(decoded, truth).payload())

    def test_power_of_another_model_is_rejected(self, tmp_path, capsys):
        # 7.5 W is no state power of this model (0 and 20 W): the file was
        # not written by its decoder, so it is not snapped to a state.
        t = [0.0, 1.0, 2.0, 3.0]
        b = mk_building(
            mains=[mk_channel(t, [0.0, 20.0, 20.0, 7.5], cid="mains_1")],
            appliances={"fridge": mk_channel(t, [0.0, 20.0, 20.0, 7.5], cid="fridge")},
        )
        save_dataset_dir(DataSet("preds", {1: b}), tmp_path / "preds")
        model = COModel((ApplianceStateModel("fridge", [-30.0, 20.0], [1.0, 1.0]),))
        pipeline.write_model(model, tmp_path / "model.json")
        message = "fridge: power 7.5 at timestamp 3.0 is none of the model's state powers [0.0, 20.0]"
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline.predictions_from_dataset(b, model)
        # The staged command fails likewise, and scores the powers without a model.
        argv = ["--quiet", "evaluate", "--predictions", str(tmp_path / "preds"),
                "--truth", str(tmp_path / "preds"), "--output", str(tmp_path / "m")]
        assert run_cli(*argv, "--model", str(tmp_path / "model.json")) == 1
        assert message in capsys.readouterr().err
        assert run_cli(*argv) == 0


class TestStatsWeather:
    def test_correlation_output(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--output", str(data), "--seed", "8") == 0
        weather = tmp_path / "weather.csv"
        weather.write_text("date,tmax\n1970-01-01,10.0\n1970-01-02,20.0\n", encoding="utf-8")
        out = tmp_path / "stats"
        assert run_cli(
            "stats", "--input", str(data), "--weather", str(weather),
            "--correlate", "fridge", "--output", str(out),
        ) == 0
        assert (out / "correlation_fridge.csv").is_file()
        assert "r_squared" in capsys.readouterr().out

    def test_output_csvs_hold_plain_numbers(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--output", str(data), "--seed", "3") == 0
        weather = tmp_path / "weather.csv"
        weather.write_text("date,tmax\n1970-01-01,10.0\n1970-01-02,20.0\n", encoding="utf-8")
        out = tmp_path / "stats"
        assert run_cli(
            "--quiet", "stats", "--input", str(data), "--weather", str(weather),
            "--correlate", "fridge", "--output", str(out),
        ) == 0
        paths = sorted(out.glob("power_histogram_*.csv")) + [out / "correlation_fridge.csv"]
        assert len(paths) > 1
        for path in paths:
            for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                for cell in line.split(","):
                    float(cell)

    def test_weather_without_target_is_config_error(self, tmp_path, synth_dir):
        weather = tmp_path / "weather.csv"
        weather.write_text("0,1.0\n", encoding="utf-8")
        assert run_cli("--quiet", "stats", "--input", str(synth_dir),
                       "--weather", str(weather)) == 2


class TestSynthSpecInConfig:
    def test_inline_spec_with_seed_override(self, tmp_path):
        from nilmbench.synth import default_benchmark_spec

        spec_dict = json.loads(default_benchmark_spec(seed=1).to_json_text())
        cfg = base_config(
            tmp_path,
            dataset={"format": "synth", "synth_spec": spec_dict},
            algorithms=["co"],
            seed=99,
        )
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 0

    def test_inline_spec_missing_seed_is_config_error(self, tmp_path, capsys):
        from nilmbench.synth import default_benchmark_spec

        spec_dict = json.loads(default_benchmark_spec(seed=1).to_json_text())
        del spec_dict["seed"]
        cfg_dict = {
            "dataset": {"format": "synth", "synth_spec": spec_dict},
            "algorithms": ["co"],
            "output": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg_dict), encoding="utf-8")
        assert run_cli("--quiet", "run", "--config", str(path)) == 2
        assert "seed" in capsys.readouterr().err

    @staticmethod
    def _spec(change):
        spec = json.loads(default_benchmark_spec(seed=1).to_json_text())
        target = spec
        for key in change[:-2]:
            target = target[key]
        if change[-1] is KeyError:
            del target[change[-2]]
        else:
            target[change[-2]] = change[-1]
        return spec

    @pytest.mark.parametrize("change, field", [
        (("appliances", 0, "means", KeyError), "means"),
        (("appliances", 0, "pi", [float("nan"), 1.0]), "pi"),
        (("appliances", 1, "A", 0, [float("nan"), 0.5]), "rows of A"),
        (("period", float("nan")), "period"),
        (("period", float("inf")), "period"),
        (("duration", float("nan")), "duration"),
        (("duration", float("inf")), "duration"),
        (("seed", 2.7), "seed must be an integer"),
        (("seed", True), "seed must be an integer"),
        (("seed", "3"), "seed must be an integer"),
        (("appliances", 0, "means", [0.0, float("nan")]), "air_conditioner: means"),
        (("appliances", 1, "means", [float("-inf"), 80.0]), "fridge: means"),
        (("appliances", 0, "stds", [1.0, -2.0]), "air_conditioner: stds"),
        (("appliances", 2, "stds", [float("nan"), 1.0]), "electric_heat: stds"),
        (("appliances", 2, "stds", [1.0, float("inf")]), "electric_heat: stds"),
        (("appliances", 1, "name", "air_conditioner"), "'air_conditioner' is repeated"),
        (("appliances", 0, "name", "../../escape"), "'../../escape' must be one path component"),
        (("appliances", 2, "name", "a/b"), "'a/b' must be one path component"),
        (("seed", -1), "seed must be >= 0"),
    ])
    @pytest.mark.parametrize("entry", ["run", "synth"])
    def test_invalid_spec_exit_2_naming_the_field(self, tmp_path, capsys, entry, change, field):
        spec = self._spec(change)
        if entry == "run":
            # No run-level seed, so the spec's own seed is read.
            path = tmp_path / "config.json"
            cfg = {"dataset": {"format": "synth", "synth_spec": spec}, "algorithms": ["co"],
                   "output": str(tmp_path / "out")}
            path.write_text(json.dumps(cfg), encoding="utf-8")
            argv = ["run", "--config", str(path)]
        else:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            argv = ["synth", "--spec", str(path), "--output", str(tmp_path / "data")]
        assert run_cli("--quiet", *argv) == 2
        err = capsys.readouterr().err
        assert field in err
        assert ("'dataset.synth_spec'" if entry == "run" else f"spec file {path}") in err
        assert not (tmp_path / "data").exists() and not (tmp_path / "out").exists()

    def test_integral_float_seed_is_read_as_an_integer(self, tmp_path):
        spec = self._spec(("seed", 2.0))
        cfg = pipeline.RunConfig.from_dict({"dataset": {"format": "synth", "synth_spec": spec}})
        assert cfg.synth_spec.seed == 2 and type(cfg.synth_spec.seed) is int
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        data = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--spec", str(path), "--output", str(data)) == 0
        assert json.loads((data / "synth_spec.json").read_text())["seed"] == 2


class TestJsonFileErrors:
    # Every JSON file the CLI reads is a config error (exit 2) naming the file.
    def test_config_directory(self, tmp_path, capsys):
        assert run_cli("--quiet", "run", "--config", str(tmp_path)) == 2
        assert f"config file {tmp_path}: cannot read: Is a directory" in capsys.readouterr().err

    def test_missing_spec_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        argv = ["synth", "--spec", str(path), "--output", str(tmp_path / "data")]
        assert run_cli("--quiet", *argv) == 2
        assert f"spec file {path}: cannot read: No such file or directory" in capsys.readouterr().err

    def test_invalid_json_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("{", encoding="utf-8")
        argv = ["synth", "--spec", str(path), "--output", str(tmp_path / "data")]
        assert run_cli("--quiet", *argv) == 2
        assert f"spec file {path}: Expecting property name" in capsys.readouterr().err

    def test_rejected_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"appliances": [], "seed": 1}), encoding="utf-8")
        argv = ["synth", "--spec", str(path), "--output", str(tmp_path / "data")]
        assert run_cli("--quiet", *argv) == 2
        err = capsys.readouterr().err
        assert f"spec file {path}: spec needs at least one appliance" in err
        assert err.count(str(path)) == 1


class TestStepsReadBeforeData:
    def test_run_unknown_op_before_import(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path, dataset={"format": "dataset-dir", "path": str(tmp_path / "missing")},
            preprocess=[{"op": "bogus"}],
        )
        assert run_cli("--quiet", "run", "--config", str(cfg)) == 2
        assert "unknown preprocess op 'bogus'" in capsys.readouterr().err

    def test_preprocess_unknown_op_before_load(self, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        steps.write_text(json.dumps([{"op": "bogus"}]), encoding="utf-8")
        assert run_cli(
            "--quiet", "preprocess", "--input", str(tmp_path / "missing"),
            "--steps", str(steps), "--output", str(tmp_path / "prep"),
        ) == 2
        assert "unknown preprocess op 'bogus'" in capsys.readouterr().err

    def test_steps_come_back_read(self):
        steps = pipeline.preprocess_steps([
            {"op": "downsample", "period": 60},
            {"op": "filter_top_k", "k": 3.0, "note": "ignored"},
        ])
        assert steps == (
            {"op": "downsample", "period": 60.0, "agg": "mean"},
            {"op": "filter_top_k", "k": 3, "gap_threshold": None},
        )
        assert pipeline.preprocess_steps(steps) == steps

    def test_read_steps_cannot_change_after_the_check(self):
        cfg = pipeline.RunConfig(None, "synth", preprocess=[{"op": "downsample", "period": 60}])
        with pytest.raises(AttributeError):
            cfg.preprocess.append({"op": "bogus"})
        with pytest.raises(TypeError):
            cfg.preprocess[0]["period"] = -1.0
        assert pipeline.RunConfig(None, "synth").preprocess == ()
        assert cfg.preprocess == ({"op": "downsample", "period": 60.0, "agg": "mean"},)


def test_readme_example_config_is_read():
    # The config documented under "CLI" in the README reads without error,
    # so a documented field or op cannot drift from the reader.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    raw = json.loads(cli_section.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = pipeline.RunConfig.from_dict(raw)
    assert [s["op"] for s in cfg.preprocess] == [s["op"] for s in raw["preprocess"]]
    assert set(raw) <= {f.name for f in fields(pipeline.RunConfig)} | {"dataset"}


class TestBuildingLookup:
    # One rule for ``run`` and every subcommand: an absent ``--building``
    # means every building, any number given must name a building the
    # dataset has, and a missing one fails with the same message everywhere.
    NOT_FOUND = "building {} not in dataset 'synthetic', which has [1]"

    @pytest.mark.parametrize("building", ["5", "0"])
    @pytest.mark.parametrize("command", ["preprocess", "diagnose", "stats", "train"])
    def test_missing_building_fails_naming_it(self, synth_dir, tmp_path, capsys, command, building):
        out = tmp_path / "out"
        extra = {
            "preprocess": ["--split-fraction", "0.5", "--output", str(out)],
            "diagnose": ["--output", str(out)],
            "stats": ["--output", str(out)],
            "train": ["--algorithm", "co", "--output", str(out)],
        }[command]
        argv = [command, "--input", str(synth_dir), "--building", building, *extra]
        assert run_cli("--quiet", *argv) == 1
        assert capsys.readouterr().err == f"error: ValueError: {self.NOT_FOUND.format(building)}\n"
        assert not out.exists()

    def test_run_names_the_missing_building_alike(self, tmp_path, capsys):
        assert run_cli("--quiet", "run", "--config", str(base_config(tmp_path, building=5))) == 1
        err = capsys.readouterr().err
        assert err == f"error: stage 'import' failed: {self.NOT_FOUND.format(5)}\n"

    def test_absent_building_means_every_building(self, synth_dir, tmp_path):
        ds = load_dataset_dir(synth_dir)
        two = tmp_path / "two"
        save_dataset_dir(replace(ds, buildings={1: ds.buildings[1], 2: replace(ds.buildings[1], id=2)}), two)
        assert run_cli("--quiet", "diagnose", "--input", str(two), "--output", str(tmp_path / "d")) == 0
        assert sorted(p.name for p in (tmp_path / "d").glob("*.json")) == [
            "diagnostics_house_1.json", "diagnostics_house_2.json",
        ]
        argv = ["preprocess", "--input", str(two), "--building", "2", "--output", str(tmp_path / "p")]
        assert run_cli("--quiet", *argv) == 0
        assert list(load_dataset_dir(tmp_path / "p").buildings) == [2]


class TestRangeOptions:
    # Each option is read by the converter of its run-config field (see
    # TestMistypedConfigField), or, for the seed, checked by SynthSpec.
    def test_train_states_0_is_usage_error(self, synth_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as e:
            run_cli("--quiet", "train", "--input", str(synth_dir), "--algorithm", "co",
                    "--states", "0", "--output", str(tmp_path / "model.json"))
        assert e.value.code == 2
        assert "argument --states: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--top-k", "--bins"])
    def test_stats_count_0_is_usage_error_before_writing(self, synth_dir, tmp_path, capsys, option):
        out = tmp_path / "stats"
        out.mkdir()
        with pytest.raises(SystemExit) as e:
            run_cli("--quiet", "stats", "--input", str(synth_dir), option, "0", "--output", str(out))
        assert e.value.code == 2
        assert f"argument {option}: must be >= 1" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_evaluate_non_finite_on_threshold_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as e:
            run_cli("--quiet", "evaluate", "--predictions", "p", "--truth", "t",
                    f"--on-threshold={value}")
        assert e.value.code == 2
        assert "argument --on-threshold: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "0", "nan", "-3"])
    def test_import_period_out_of_range_is_usage_error_before_writing(self, tmp_path, capsys, value):
        raw = tmp_path / "redd"
        raw.mkdir()
        write_redd_house(
            raw, 1,
            {1: "mains", 2: "mains", 3: "refrigerator"},
            {1: simple_rows(), 2: simple_rows(), 3: simple_rows()},
        )
        out = tmp_path / "canonical"
        with pytest.raises(SystemExit) as e:
            run_cli("--quiet", "import", "--input", str(raw), "--output", str(out), f"--period={value}")
        assert e.value.code == 2
        assert "argument --period: period must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_synth_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_cli("--quiet", "synth", "--seed", "-1", "--output", str(out)) == 2
        assert "config error: --seed: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()
