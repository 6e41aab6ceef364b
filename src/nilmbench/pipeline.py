"""Config-driven end-to-end runs: import, preprocess, split, train,
disaggregate, evaluate.

A run is described by a single JSON config.  Stage outputs land in the
output directory:

    model_<alg>.json          trained model
    predictions_<alg>/        predicted appliance powers (dataset layout)
    metrics_<alg>.{csv,json}  metric report
    metrics.csv               all algorithms merged
    manifest.json             config hash, seed, per-stage wall-clock seconds

Evaluation scores the predictions the decoder returned, in memory.  The
written model and predictions are what the staged ``train``,
``disaggregate`` and ``evaluate`` commands read.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as nio
from .data import Building, DataSet, Measurement, POWER_ACTIVE, mains_total
from .disaggregate import (
    AppliancePrediction,
    Predictions,
    disaggregate_co,
    disaggregate_fhmm,
    predictions_to_power,
)
from .metrics import MetricReport, canonical_metric, evaluate
from .preprocess import (
    check_period,
    downsample,
    filter_contribution,
    filter_out_implausible,
    filter_top_k,
    interpolate_small_gaps,
    intersect_with_mains,
    is_aligned,
    map_channels,
    normalize_voltage,
    train_test_split,
)
from .stats import DEFAULT_ON_THRESHOLD_W
from .synth import SynthSpec, default_benchmark_spec, generate
from .training import COModel, FHMMModel, assign_states, train_co, train_fhmm


def algorithms() -> dict[str, tuple]:
    """Algorithm name -> (trainer, decoder, model type).

    Built on each call from this module's bindings, so a tracer that rebinds
    ``train_co``, ``disaggregate_co`` etc. here sees the calls ``run`` makes.
    """
    return {
        "co": (train_co, disaggregate_co, COModel),
        "fhmm": (train_fhmm, disaggregate_fhmm, FHMMModel),
    }


VALID_ALGORITHMS = tuple(algorithms())


class ConfigError(ValueError):
    """The run config is missing or misuses a field."""


@dataclass
class RunConfig:
    dataset_path: str | None
    dataset_format: str = "dataset-dir"
    synth_spec: SynthSpec | None = None
    building: int = 1
    feature: Measurement = POWER_ACTIVE
    preprocess: list[dict] = field(default_factory=list)
    split_fraction: float = 0.5
    algorithms: tuple[str, ...] = ("co", "fhmm")
    states: int = 2
    on_threshold: float = DEFAULT_ON_THRESHOLD_W
    metrics: tuple[str, ...] | None = None
    output: str = "out"
    seed: int = 42

    @classmethod
    def from_json_text(cls, text: str, data_dir: str | None = None) -> "RunConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        return cls.from_dict(raw, data_dir)

    @classmethod
    def from_dict(cls, raw: dict, data_dir: str | None = None) -> "RunConfig":
        def get(name: str, convert, default=None):
            return _convert(name, raw.get(name, default), convert)

        seed = get("seed", _integer, 42)
        dataset = get("dataset", lambda v: _valid(v, isinstance(v, dict), "is required"))
        fmt = _convert("dataset.format", dataset.get("format", "dataset-dir"), _dataset_format)
        path = dataset.get("path", data_dir)
        spec = None
        if fmt != "synth":
            path = _convert("dataset.path", path, lambda v: _valid(v, bool(v), "is required"))
        elif dataset.get("synth_spec") is None:
            spec = default_benchmark_spec(seed=seed)
        else:
            # A run-level seed wins over the spec's, for reproducible sweeps.
            override = {"seed": seed} if "seed" in raw else {}
            spec = _convert(
                "dataset.synth_spec", dataset["synth_spec"],
                lambda s: SynthSpec.from_json_text(json.dumps({**s, **override})),
            )
        return cls(
            dataset_path=path,
            dataset_format=fmt,
            synth_spec=spec,
            building=get("building", _integer, 1),
            feature=get("feature", lambda v: Measurement.from_column_name(str(v)), "power_active"),
            preprocess=get("preprocess", _steps, []),
            split_fraction=get("split_fraction", _open_fraction, 0.5),
            algorithms=get("algorithms", _algorithms, ["co", "fhmm"]),
            states=get("states", _integer, 2),
            on_threshold=get("on_threshold", float, DEFAULT_ON_THRESHOLD_W),
            metrics=get("metrics", lambda v: None if v is None else _entries(v, canonical_metric)),
            output=get("output", str, "out"),
            seed=seed,
        )


def _convert(name: str, value, convert):
    """``convert(value)`` for config field ``name``.

    Every run-config field is read through here, so a missing, mistyped or
    out-of-range value is a ConfigError that names its field.
    """
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config field {name!r} {e}") from None


def _valid(value, ok: bool, reason: str):
    """``value`` if ``ok``, else a ValueError giving ``reason``."""
    if not ok:
        raise ValueError(reason)
    return value


def _entries(value, convert) -> tuple:
    """The entries of a list-valued field, each through ``convert``."""
    _valid(value, isinstance(value, list), f"must be a list, got {value!r}")
    return tuple(map(convert, value))


def _dataset_format(fmt: str) -> str:
    return _valid(fmt, fmt in ("synth", "dataset-dir", "redd"), f"unknown: {fmt!r}")


def _integer(value) -> int:
    """An integral number, such as 2 or 2.0; not a bool, a string or 2.7."""
    ok = not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    )
    return int(_valid(value, ok, f"must be an integer, got {value!r}"))


def _open_fraction(value) -> float:
    fraction = float(value)
    return _valid(fraction, 0 < fraction < 1, "must be in (0, 1)")


def _steps(steps: list) -> list[dict]:
    ok = isinstance(steps, list) and all(isinstance(s, dict) and "op" in s for s in steps)
    return _valid(steps, ok, "must be a list of {op: ...}")


def _algorithms(value: list) -> tuple[str, ...]:
    names = _entries(value, lambda a: _valid(a, a in VALID_ALGORITHMS, f"unknown entry: {a!r}"))
    return _valid(names, bool(names), "must not be empty")


def config_hash(raw: dict) -> str:
    """Digest of the config without ``output``: the output path says where
    results go, not what they are."""
    content = {k: v for k, v in raw.items() if k != "output"}
    canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class StageFailure(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def load_input_dataset(cfg: RunConfig) -> DataSet:
    if cfg.dataset_format == "synth":
        ds, _states = generate(cfg.synth_spec)
        return ds
    if cfg.dataset_format == "redd":
        ds, _report = nio.import_redd_style(cfg.dataset_path)
        return ds
    return nio.load_dataset_dir(cfg.dataset_path)


PREPROCESS_OPS = (
    "filter_implausible",
    "normalize_voltage",
    "downsample",
    "interpolate_small_gaps",
    "intersect_with_mains",
    "filter_top_k",
    "filter_contribution",
)


def apply_preprocess_step(b: Building, step: dict) -> Building:
    """Apply one named preprocessing step to a building."""
    op = step["op"]
    if op == "filter_implausible":
        m = Measurement.from_column_name(step["measurement"])
        lo = float(step.get("lo", -np.inf))
        hi = float(step.get("hi", np.inf))
        return map_channels(
            b, lambda c: filter_out_implausible(c, m, lo, hi) if c.has(m) else c
        )
    if op == "normalize_voltage":
        v_nom = float(step["v_nominal"])
        beta = float(step.get("beta", 2.0))
        return map_channels(
            b,
            lambda c: normalize_voltage(c, v_nom, beta)
            if c.has(Measurement("voltage"))
            else c,
        )
    if op == "downsample":
        period = float(step["period"])
        check_period(period)
        agg = step.get("agg", "mean")
        return map_channels(
            b, lambda c: downsample(c, period, agg) if c.nominal_period <= period else c
        )
    if op == "interpolate_small_gaps":
        max_gap = step.get("max_gap")
        return map_channels(
            b, lambda c: interpolate_small_gaps(c, None if max_gap is None else float(max_gap))
        )
    if op == "intersect_with_mains":
        return intersect_with_mains(b)
    if op == "filter_top_k":
        return filter_top_k(b, int(step["k"]), step.get("gap_threshold"))
    if op == "filter_contribution":
        return filter_contribution(b, float(step["x"]), step.get("gap_threshold"))
    raise ConfigError(f"unknown preprocess op {op!r} (valid: {', '.join(PREPROCESS_OPS)})")


def preprocess_building(b: Building, steps: list[dict]) -> Building:
    for step in steps:
        b = apply_preprocess_step(b, step)
    return b


def predictions_to_dataset(
    p: Predictions, building_id: int, feature: Measurement = POWER_ACTIVE
) -> DataSet:
    channels = predictions_to_power(p, feature)
    building = Building(
        id=building_id,
        mains=(),
        appliances=channels,
        metadata={"kind": "predictions"},
    )
    return DataSet(name="predictions", buildings={building_id: building})


def predictions_from_dataset(
    b: Building, model=None, feature: Measurement = POWER_ACTIVE
) -> Predictions:
    """Rebuild a Predictions object from saved power channels plus a model.

    State indices are recovered by nearest-state-mean assignment.  Written
    powers are the decoded state means floored at 0 W, so this reproduces
    the decoder's states when no state mean is negative; the 0 W written for
    a negative mean can lie nearer another state.
    Without a model the predictions carry no state means, and evaluation
    scores on/off states from the on-threshold instead.
    """
    channels = b.appliances
    if not channels:
        raise ValueError("predictions dataset has no appliance channels")
    first = next(iter(channels.values()))
    means_by_name = {} if model is None else {a.name: a.means for a in model.appliances}
    appliances = {}
    for name, c in channels.items():
        if model is not None and name not in means_by_name:
            raise ValueError(f"model has no appliance {name!r}")
        means = means_by_name.get(name, np.empty(0))
        powers = c.values(feature)
        appliances[name] = AppliancePrediction(
            states=assign_states(powers, means),
            powers=powers,
            state_means=means,
        )
    return Predictions(
        timestamps=first.timestamps,
        nominal_period=first.nominal_period,
        appliances=appliances,
    )


@dataclass
class RunResult:
    reports: dict[str, MetricReport]
    timings: dict[str, float]
    output_dir: Path


def run(cfg: RunConfig, raw_config: dict | None = None, quiet: bool = False) -> RunResult:
    """Execute the full pipeline per config; writes artifacts to cfg.output."""
    out = Path(cfg.output)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}
    log = (lambda *a: None) if quiet else print

    def stage(name: str, fn):
        t0 = time.monotonic()
        try:
            result = fn()
        except Exception as e:
            raise StageFailure(name, e) from e
        timings[name] = time.monotonic() - t0
        log(f"[{name}] done in {timings[name]:.2f}s")
        return result

    ds = stage("import", lambda: load_input_dataset(cfg))
    if cfg.building not in ds.buildings:
        raise StageFailure(
            "import", ValueError(f"building {cfg.building} not in dataset")
        )
    b = ds.buildings[cfg.building]
    b = stage("preprocess", lambda: preprocess_building(b, cfg.preprocess))
    if not is_aligned(b):
        b = stage("align", lambda: intersect_with_mains(b))
    train_b, test_b = stage("split", lambda: train_test_split(b, cfg.split_fraction))
    aggregate = mains_total(test_b, cfg.feature)

    reports: dict[str, MetricReport] = {}
    for alg in cfg.algorithms:
        trainer, disaggregator, _ = algorithms()[alg]
        model = stage(f"train_{alg}", lambda: trainer(train_b, cfg.feature, cfg.states))
        (out / f"model_{alg}.json").write_text(
            nio.export_model_json(model) + "\n", encoding="utf-8"
        )
        predictions = stage(
            f"disaggregate_{alg}", lambda: disaggregator(model, aggregate, cfg.feature)
        )
        nio.save_dataset_dir(
            predictions_to_dataset(predictions, cfg.building, cfg.feature),
            out / f"predictions_{alg}",
        )
        report = stage(
            f"evaluate_{alg}",
            lambda: evaluate(
                predictions,
                test_b,
                on_threshold=cfg.on_threshold,
                train_seconds=timings[f"train_{alg}"],
                disaggregate_seconds=timings[f"disaggregate_{alg}"],
                algorithm=alg,
                feature=cfg.feature,
            ),
        )
        (out / f"metrics_{alg}.json").write_text(
            report.to_json_text() + "\n", encoding="utf-8"
        )
        (out / f"metrics_{alg}.csv").write_text(
            report.to_csv_text(cfg.metrics), encoding="utf-8"
        )
        reports[alg] = report

    merged = "appliance,metric,algorithm,value\n" + "".join(
        "".join(reports[alg].to_csv_text(cfg.metrics).splitlines(keepends=True)[1:])
        for alg in cfg.algorithms
    )
    (out / "metrics.csv").write_text(merged, encoding="utf-8")
    manifest = {
        "config_hash": config_hash(raw_config if raw_config is not None else {}),
        "seed": cfg.seed,
        "building": cfg.building,
        "algorithms": list(cfg.algorithms),
        "timings_seconds": {k: round(v, 2) for k, v in timings.items()},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return RunResult(reports=reports, timings=timings, output_dir=out)
