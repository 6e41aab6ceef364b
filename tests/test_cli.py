import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench import pipeline
from nilmbench.cli import main
from nilmbench.data import POWER_ACTIVE, POWER_REACTIVE, DataSet
from nilmbench.io import import_model_json, load_dataset_dir, save_dataset_dir
from nilmbench.metrics import evaluate
from nilmbench.preprocess import map_channels, train_test_split
from nilmbench.synth import default_benchmark_spec, generate

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

    @pytest.mark.parametrize("period", [float("nan"), float("inf"), 0.0, -1.0])
    def test_invalid_downsample_period_fails_preprocess(self, tmp_path, period):
        # json reads NaN and Infinity; no channel may pass through unchecked.
        cfg = base_config(
            tmp_path, preprocess=[{"op": "downsample", "period": period}], algorithms=["co"]
        )
        raw = json.loads(cfg.read_text())
        with pytest.raises(pipeline.StageFailure, match="period") as e:
            pipeline.run(pipeline.RunConfig.from_dict(raw), raw_config=raw, quiet=True)
        assert e.value.stage == "preprocess"

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


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_invalid_gap_threshold_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as e:
        run_cli("--quiet", "diagnose", "--input", "data", "--gap-threshold", value)
    assert e.value.code == 2
    assert "gap threshold must be > 0" in capsys.readouterr().err


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


class TestMistypedConfigField:
    @pytest.mark.parametrize("field, value, reason", [
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
    ])
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
    @pytest.mark.parametrize("step, message", [
        ({"op": "bogus"}, "unknown preprocess op 'bogus'"),
        ({"op": "filter_top_k"}, "'preprocess[filter_top_k].k' is required"),
        ({"op": "filter_top_k", "k": 2.7}, "'preprocess[filter_top_k].k' must be an integer"),
        ({"op": "filter_top_k", "k": True}, "'preprocess[filter_top_k].k' must be an integer"),
        ({"op": "downsample", "period": "1 min"}, "'preprocess[downsample].period'"),
        ({"op": "downsample", "period": 60, "agg": "max"}, "'preprocess[downsample].agg' unknown"),
        ({"op": "filter_implausible", "measurement": "x"}, "'preprocess[filter_implausible]"),
    ])
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

    def test_steps_file_must_list_steps(self, tmp_path, capsys):
        steps = tmp_path / "steps.json"
        steps.write_text(json.dumps([1]), encoding="utf-8")
        assert run_cli(
            "--quiet", "preprocess", "--input", str(negative_mean_dataset(tmp_path)),
            "--steps", str(steps), "--output", str(tmp_path / "prep"),
        ) == 2
        assert "must be a list of {op: ...}" in capsys.readouterr().err


class TestBenchmarkCallSites:
    # perfbench attributes time to layers by patching these names; a run
    # that routed around one would silently read 0 for its per-layer metric.
    # Delete once the benchmark reads a trace the program records itself.
    def test_run_calls_every_patched_name(self, tmp_path, monkeypatch):
        from nilmbench import io as nio

        calls = {}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for module, names in (
            (pipeline, ("train_test_split", "train_co", "train_fhmm",
                        "disaggregate_co", "disaggregate_fhmm", "evaluate")),
            (nio, ("save_dataset_dir", "export_model_json")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
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
