"""Config-driven end-to-end runs: import, preprocess, split, train,
disaggregate, evaluate.

A run is described by a single JSON config.  Stage outputs land in the
output directory, each artifact written by one function and read by one:

    model_<alg>.json          trained model (write_model, read_model)
    predictions_<alg>/        predicted appliance powers, dataset layout
                              (write_predictions, predictions_from_dataset)
    metrics_<alg>.{csv,json}  metric report (write_report)
    metrics.csv               all algorithms merged
    manifest.json             config hash, seed, per-stage wall-clock seconds

``run`` and the staged ``preprocess``, ``train``, ``disaggregate`` and
``evaluate`` commands call these same functions and split through
:func:`align_and_split`.  ``run`` scores the decoder's predictions in
memory; the staged ``evaluate`` reads them back.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as nio
from .data import (
    Building, DataSet, Measurement, POWER_ACTIVE, VOLTAGE, is_aligned, mains_total,
)
from .disaggregate import (
    AppliancePrediction,
    Predictions,
    disaggregate_co,
    disaggregate_fhmm,
    predictions_to_power,
    state_powers,
)
from .metrics import MetricReport, canonical_metric, evaluate
from .preprocess import (
    AGGREGATIONS,
    check_period,
    downsample,
    filter_contribution,
    filter_out_implausible,
    filter_top_k,
    interpolate_small_gaps,
    intersect_with_mains,
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
            preprocess=get("preprocess", preprocess_steps, []),
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


def preprocess_steps(steps: list) -> list[dict]:
    """``steps`` if it is a list of preprocess steps, else a ValueError."""
    ok = isinstance(steps, list) and all(isinstance(s, dict) and "op" in s for s in steps)
    return _valid(steps, ok, "must be a list of {op: ...}")



def _optional(convert):
    return lambda v: None if v is None else convert(v)


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
    "filter_implausible", "normalize_voltage", "downsample", "interpolate_small_gaps",
    "intersect_with_mains", "filter_top_k", "filter_contribution",
)

_REQUIRED = object()


def apply_preprocess_step(b: Building, step: dict) -> Building:
    """Apply one named preprocessing step to a building.

    Every step field is read through ``get``, so a missing or mistyped value
    is a ConfigError naming the op and the field; range checks stay with the
    preprocess functions and fail the stage.
    """
    op = step["op"]

    def get(name: str, convert, default=_REQUIRED):
        return _convert(
            f"preprocess[{op}].{name}",
            step.get(name, default),
            lambda v: convert(_valid(v, v is not _REQUIRED, "is required")),
        )

    if op == "filter_implausible":
        m = get("measurement", lambda v: Measurement.from_column_name(str(v)))
        lo = get("lo", float, -np.inf)
        hi = get("hi", float, np.inf)
        return map_channels(
            b, lambda c: filter_out_implausible(c, m, lo, hi) if c.has(m) else c
        )
    if op == "normalize_voltage":
        v_nom, beta = get("v_nominal", float), get("beta", float, 2.0)
        return map_channels(b, lambda c: normalize_voltage(c, v_nom, beta) if c.has(VOLTAGE) else c)
    if op == "downsample":
        period = get("period", float)
        agg = get("agg", lambda v: _valid(v, v in AGGREGATIONS, f"unknown: {v!r}"), "mean")
        check_period(period)
        return map_channels(
            b, lambda c: downsample(c, period, agg) if c.nominal_period <= period else c
        )
    if op == "interpolate_small_gaps":
        max_gap = get("max_gap", _optional(float), None)
        return map_channels(b, lambda c: interpolate_small_gaps(c, max_gap))
    if op == "intersect_with_mains":
        return intersect_with_mains(b)
    if op == "filter_top_k":
        return filter_top_k(b, get("k", _integer), get("gap_threshold", _optional(float), None))
    if op == "filter_contribution":
        return filter_contribution(
            b, get("x", float), get("gap_threshold", _optional(float), None)
        )
    raise ConfigError(f"unknown preprocess op {op!r} (valid: {', '.join(PREPROCESS_OPS)})")


def preprocess_building(b: Building, steps: list[dict]) -> Building:
    for step in steps:
        b = apply_preprocess_step(b, step)
    return b


def align_and_split(b: Building, fraction: float) -> tuple[Building, Building]:
    """Intersect the channels with the mains when they are not aligned, then
    split the building temporally into (train, test)."""
    if not is_aligned(b):
        b = intersect_with_mains(b)
    return train_test_split(b, fraction)


def write_model(model: COModel | FHMMModel, path: Path) -> None:
    Path(path).write_text(nio.export_model_json(model) + "\n", encoding="utf-8")


def read_model(path: Path) -> COModel | FHMMModel:
    return nio.import_model_json(Path(path).read_text(encoding="utf-8"))


def write_predictions(p: Predictions, building_id: int, feature: Measurement, root: Path) -> None:
    """Save predicted powers as a one-building dataset directory."""
    appliances = predictions_to_power(p, feature)
    b = Building(id=building_id, appliances=appliances, metadata={"kind": "predictions"})
    nio.save_dataset_dir(DataSet(name="predictions", buildings={building_id: b}), root)


def predictions_from_dataset(
    b: Building, model=None, feature: Measurement = POWER_ACTIVE
) -> Predictions:
    """Rebuild a Predictions object from saved power channels plus a model.

    Each power is assigned to the nearest of the powers the decoder writes
    for the model's states (:func:`state_powers`), so this reproduces the
    decoder's states unless two of an appliance's state means are at or
    below 0 W, which are written alike.
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
            states=assign_states(powers, state_powers(means)),
            powers=powers,
            state_means=means,
        )
    return Predictions(
        timestamps=first.timestamps,
        nominal_period=first.nominal_period,
        appliances=appliances,
    )


def write_report(report: MetricReport, out: Path, suffix: str = "", metrics=None) -> None:
    """Write ``metrics<suffix>.json`` and ``metrics<suffix>.csv`` under ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"metrics{suffix}.json").write_text(report.to_json_text() + "\n", encoding="utf-8")
    (out / f"metrics{suffix}.csv").write_text(report.to_csv_text(metrics), encoding="utf-8")


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
        except ConfigError:
            raise
        except Exception as e:
            raise StageFailure(name, e) from e
        timings[name] = time.monotonic() - t0
        log(f"[{name}] done in {timings[name]:.2f}s")
        return result

    ds = stage("import", lambda: load_input_dataset(cfg))
    if cfg.building not in ds.buildings:
        raise StageFailure("import", ValueError(f"building {cfg.building} not in dataset"))
    b = ds.buildings[cfg.building]
    b = stage("preprocess", lambda: preprocess_building(b, cfg.preprocess))
    train_b, test_b = stage("split", lambda: align_and_split(b, cfg.split_fraction))
    aggregate = mains_total(test_b, cfg.feature)

    reports: dict[str, MetricReport] = {}
    for alg in cfg.algorithms:
        trainer, disaggregator, _ = algorithms()[alg]
        model = stage(f"train_{alg}", lambda: trainer(train_b, cfg.feature, cfg.states))
        write_model(model, out / f"model_{alg}.json")
        predictions = stage(
            f"disaggregate_{alg}", lambda: disaggregator(model, aggregate, cfg.feature)
        )
        write_predictions(predictions, cfg.building, cfg.feature, out / f"predictions_{alg}")
        report = stage(f"evaluate_{alg}", lambda: evaluate(
            predictions, test_b, on_threshold=cfg.on_threshold,
            train_seconds=timings[f"train_{alg}"],
            disaggregate_seconds=timings[f"disaggregate_{alg}"],
            algorithm=alg, feature=cfg.feature,
        ))
        write_report(report, out, f"_{alg}", cfg.metrics)
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
