"""Config-driven end-to-end runs: import, preprocess, split, learn states,
train, disaggregate, evaluate.

A run is described by a single JSON config.  Stage outputs land in the
output directory, each artifact written by one function and read by one:

    model_<alg>.json          trained model (write_model, read_model)
    predictions_<alg>/        predicted appliance powers, dataset layout
                              (write_predictions, predictions_from_dataset)
    metrics_<alg>.{csv,json}  metric report (write_report)
    metrics.csv               all algorithms merged
    manifest.json             config hash, seed, per-stage wall-clock seconds

``run`` learns the appliance states once (stage ``learn_states``) for every
trainer; a report's ``train_seconds`` is that stage plus its ``train_<alg>``.
``run`` and the staged ``preprocess``, ``train``, ``disaggregate`` and
``evaluate`` commands call these same functions and split through
:func:`align_and_split`.  ``run`` scores the decoder's predictions in
memory; the staged ``evaluate`` reads them back.  Predictions hold states
and a power per state; powers are built only to be written or scored.
The value rules of :mod:`nilmbench.data` check every config field and step
value; a config field's message gives its name, so the rule leaves it out.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import io as nio
from .data import (
    Building, Channel, DataSet, Measurement, POWER_ACTIVE, VOLTAGE, check_count, check_finite,
    check_fraction, check_number, check_period, integer, is_aligned, mains_total,
)
from .disaggregate import (
    AppliancePrediction,
    Predictions,
    disaggregate_co,
    disaggregate_fhmm,
    state_powers,
)
from .metrics import MetricReport, canonical_metric, evaluate
from .preprocess import (
    AGGREGATIONS,
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
from .training import COModel, FHMMModel, assign_states, learn_building_states, train_co, train_fhmm


def algorithms() -> dict[str, tuple]:
    """Algorithm name, the model type's ``algorithm``, -> (trainer, decoder,
    model type); ``trainer(b, states, feature)``.

    Built on each call from this module's bindings, so a tracer that rebinds
    ``train_co``, ``disaggregate_co`` etc. here sees the calls ``run`` makes.
    """
    return {
        COModel.algorithm: (train_co, disaggregate_co, COModel),
        FHMMModel.algorithm: (train_fhmm, disaggregate_fhmm, FHMMModel),
    }


VALID_ALGORITHMS = tuple(algorithms())


class ConfigError(ValueError):
    """The run config is missing or misuses a field."""


@dataclass(frozen=True)
class RunConfig:
    """One run.  Each field is read by its config field's converter, for a config
    built in Python as for JSON; a converter accepts its own result."""

    dataset_path: str | None
    dataset_format: str = "dataset-dir"
    synth_spec: SynthSpec | None = None  # synthetic only; None: default_benchmark_spec(seed)
    building: int = 1
    feature: Measurement = POWER_ACTIVE
    preprocess: tuple[MappingProxyType, ...] = ()  # as preprocess_steps reads them
    split_fraction: float = 0.5
    algorithms: tuple[str, ...] = VALID_ALGORITHMS
    states: int = 2
    on_threshold: float = DEFAULT_ON_THRESHOLD_W
    metrics: tuple[str, ...] | None = None
    output: str = "out"
    seed: int = 42

    def __post_init__(self) -> None:
        def read(name: str, convert, key: str | None = None) -> None:
            value = _convert(key or name, getattr(self, name), convert)
            object.__setattr__(self, name, value)

        # The seed first: a synthetic run without a spec draws its default from it.
        read("seed", integer)
        read("dataset_format", _dataset_format, "dataset.format")
        if self.dataset_format != "synth":
            read("dataset_path", lambda v: _valid(v, bool(v), "is required"), "dataset.path")
            only_synth = f"is read for format 'synth' only, not {self.dataset_format!r}"
            read("synth_spec", lambda v: _valid(v, v is None, only_synth), "dataset.synth_spec")
        elif self.synth_spec is None:
            spec = _convert("seed", self.seed, default_benchmark_spec)
            object.__setattr__(self, "synth_spec", spec)
        else:
            read("synth_spec", SynthSpec.from_dict, "dataset.synth_spec")
        read("building", integer)
        read("feature", _measurement)
        read("preprocess", preprocess_steps)
        read("split_fraction", check_fraction)
        read("algorithms", _algorithms)
        read("states", check_count)
        read("on_threshold", check_finite)
        read("metrics", _optional(lambda v: _entries(v, canonical_metric)))
        read("output", str)

    @classmethod
    def from_dict(cls, raw: dict, data_dir: str | None = None) -> "RunConfig":
        """The config of JSON object ``raw``.  Its ``dataset`` object gives the
        first three fields, with ``data_dir`` as the path it may omit; each
        later field is the top-level key of its name.  Other keys are ignored."""
        dataset = raw.get("dataset")
        _convert("dataset", dataset, lambda v: _valid(v, isinstance(v, dict), "is required"))
        given = {"dataset_path": dataset.get("path", data_dir)}
        if "format" in dataset:
            given["dataset_format"] = dataset["format"]
        if dataset.get("format") == "synth":  # other formats ignore a spec
            spec = dataset.get("synth_spec")
            if isinstance(spec, dict) and "seed" in raw:
                # A run-level seed wins over the spec's, for reproducible sweeps.
                spec = {**spec, "seed": raw["seed"]}
            given["synth_spec"] = spec
        for f in fields(cls)[3:]:  # the fields after the dataset's three
            if f.name in raw:
                given[f.name] = raw[f.name]
        return cls(**given)


_REQUIRED = object()


def _convert(name: str, value, convert):
    """``convert(value)`` for config field ``name``; ``_REQUIRED`` stands for
    a value that must be given and was not.

    Every run-config field is read through here, so a missing, mistyped or
    out-of-range value is a ConfigError that names its field.  A ConfigError
    from ``convert`` already names one and passes through.
    """
    try:
        return convert(_valid(value, value is not _REQUIRED, "is required"))
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"config field {name!r} {e}") from None


def _valid(value, ok: bool, reason: str):
    """``value`` if ``ok``, else a ValueError giving ``reason``."""
    if not ok:
        raise ValueError(reason)
    return value


def _entries(value, convert) -> tuple:
    """The entries of a list (or tuple) field, each through ``convert``."""
    _valid(value, isinstance(value, (list, tuple)), f"must be a list, got {value!r}")
    return tuple(map(convert, value))


def _dataset_format(fmt: str) -> str:
    return _valid(fmt, fmt in ("synth", "dataset-dir", "redd"), f"unknown: {fmt!r}")


def _aggregation(agg: str) -> str:
    return _valid(agg, agg in AGGREGATIONS, f"unknown: {agg!r}")


def _measurement(value) -> Measurement:
    return value if isinstance(value, Measurement) else Measurement.from_column_name(str(value))


def _optional(convert):
    return lambda v: None if v is None else convert(v)


def _algorithms(value: list) -> tuple[str, ...]:
    names = _entries(value, lambda a: _valid(a, a in VALID_ALGORITHMS, f"unknown entry: {a!r}"))
    _valid(names, len(set(names)) == len(names), f"must be distinct, got {list(names)!r}")
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


def select_buildings(ds: DataSet, building: int | None) -> dict[int, Building]:
    """The one building ``building`` of ``ds``, or every building in id order
    when it is None.  A building ``ds`` lacks is a ValueError naming it."""
    if building is None:
        return dict(sorted(ds.buildings.items()))
    if building not in ds.buildings:
        have = sorted(ds.buildings)
        raise ValueError(f"building {building} not in dataset {ds.name!r}, which has {have}")
    return {building: ds.buildings[building]}


# op -> ({field: (rule, default)}, apply(b, step)): one row per op.  A field
# whose default is _REQUIRED must be given.  Each apply names its function in
# a lambda body, looked up here when called, so a tracer that rebinds
# ``downsample`` etc. in this module sees the calls ``run`` makes.
_period = partial(check_period, name="")
_PREPROCESS = {
    "filter_implausible": (
        {"measurement": (_measurement, _REQUIRED), "lo": (check_number, -np.inf),
         "hi": (check_number, np.inf)},
        lambda b, s: map_channels(b, lambda c: filter_out_implausible(
            c, s["measurement"], s["lo"], s["hi"]) if c.has(s["measurement"]) else c)),
    "normalize_voltage": (
        {"v_nominal": (_period, _REQUIRED), "beta": (check_finite, 2.0)},
        lambda b, s: map_channels(b, lambda c: normalize_voltage(
            c, s["v_nominal"], s["beta"]) if c.has(VOLTAGE) else c)),
    "downsample": (
        {"period": (_period, _REQUIRED), "agg": (_aggregation, "mean")},
        lambda b, s: map_channels(b, lambda c: downsample(
            c, s["period"], s["agg"]) if c.nominal_period <= s["period"] else c)),
    "interpolate_small_gaps": (
        {"max_gap": (_optional(_period), None)},
        lambda b, s: map_channels(b, lambda c: interpolate_small_gaps(c, s["max_gap"]))),
    "intersect_with_mains": ({}, lambda b, s: intersect_with_mains(b)),
    "filter_top_k": (
        {"k": (check_count, _REQUIRED), "gap_threshold": (_optional(_period), None)},
        lambda b, s: filter_top_k(b, s["k"], s["gap_threshold"])),
    "filter_contribution": (
        {"x": (check_fraction, _REQUIRED), "gap_threshold": (_optional(_period), None)},
        lambda b, s: filter_contribution(b, s["x"], s["gap_threshold"])),
}
PREPROCESS_OPS = tuple(_PREPROCESS)


def preprocess_steps(steps: list) -> tuple[MappingProxyType, ...]:
    """Read steps before any data is loaded: each becomes a read-only
    ``{"op": ..., field: value}`` with every field of its op read by its rule
    or defaulted.  An unknown op, or a field that is missing, mistyped or out
    of range, is a ConfigError naming both."""
    ok = isinstance(steps, (list, tuple)) and all(
        isinstance(s, (dict, MappingProxyType)) and "op" in s for s in steps
    )
    read = []
    for step in _valid(steps, ok, "must be a list of {op: ...}"):
        op = step["op"]
        if op not in PREPROCESS_OPS:
            raise ConfigError(f"unknown preprocess op {op!r} (valid: {', '.join(PREPROCESS_OPS)})")
        fields = {"op": op}
        for name, (rule, default) in _PREPROCESS[op][0].items():
            fields[name] = _convert(f"preprocess[{op}].{name}", step.get(name, default), rule)
        read.append(MappingProxyType(fields))
    return tuple(read)


def apply_preprocess_step(b: Building, step: MappingProxyType) -> Building:
    """Apply one step, as :func:`preprocess_steps` returns it, to a building.
    Its values were checked when read; only ``lo < hi``, which relates two of
    them, is left to its function and fails the stage."""
    return _PREPROCESS[step["op"]][1](b, step)


def preprocess_building(b: Building, steps: tuple[MappingProxyType, ...]) -> Building:
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
    """Save each appliance's predicted ``feature`` channel, its powers
    ``levels[states]`` built for the save, as a one-building dataset directory."""
    appliances = {}
    for name, ap in p.appliances.items():
        powers = ap.levels[ap.states]
        powers.setflags(write=False)  # so the channel shares it
        appliances[name] = Channel(name, p.timestamps, {feature: powers}, p.nominal_period)
    b = Building(id=building_id, appliances=appliances, metadata={"kind": "predictions"})
    nio.save_dataset_dir(DataSet(name="predictions", buildings={building_id: b}), root)


def predictions_from_dataset(
    b: Building, model=None, feature: Measurement = POWER_ACTIVE
) -> Predictions:
    """Rebuild a Predictions object from saved power channels.

    With a model, an appliance's levels are its decoder's (:func:`state_powers`)
    and each power reads back as the lowest state it is the level of; a power
    that is no level was not written by that decoder and is a ValueError.
    Without a model the levels are the distinct powers read and there are no
    state means, so evaluation scores on/off states from the on-threshold.
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
        means, powers = means_by_name.get(name, np.empty(0)), c.values(feature)
        if model is None:
            levels, states = np.unique(powers, return_inverse=True)
        else:
            levels = state_powers(means)
            states = assign_states(powers, levels)
            bad = np.flatnonzero(levels[states] != powers)
            if bad.size:
                i = bad[0]
                raise ValueError(f"{name}: power {powers[i]} at timestamp {c.timestamps[i]} is "
                                 f"none of the model's state powers {levels.tolist()}")
        appliances[name] = AppliancePrediction(states=states, levels=levels, state_means=means)
    return Predictions(
        timestamps=first.timestamps,
        nominal_period=first.nominal_period,
        appliances=appliances,
    )


def write_report(report: MetricReport, out: Path, suffix: str = "", metrics=None) -> None:
    """Write ``metrics<suffix>.json`` and ``metrics<suffix>.csv`` under ``out``."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    nio.write_json(out / f"metrics{suffix}.json", report.payload())
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
        except Exception as e:
            raise StageFailure(name, e) from e
        timings[name] = time.monotonic() - t0
        log(f"[{name}] done in {timings[name]:.2f}s")
        return result

    buildings = stage("import", lambda: select_buildings(load_input_dataset(cfg), cfg.building))
    b = buildings[cfg.building]
    b = stage("preprocess", lambda: preprocess_building(b, cfg.preprocess))

    def split():
        train, test = align_and_split(b, cfg.split_fraction)
        return train, test, mains_total(test, cfg.feature)

    train_b, test_b, aggregate = stage("split", split)
    states = stage("learn_states", lambda: learn_building_states(train_b, cfg.feature, cfg.states))

    reports: dict[str, MetricReport] = {}
    for alg in cfg.algorithms:
        trainer, disaggregator, _ = algorithms()[alg]
        model = stage(f"train_{alg}", lambda: trainer(train_b, states, cfg.feature))
        write_model(model, out / f"model_{alg}.json")
        predictions = stage(
            f"disaggregate_{alg}", lambda: disaggregator(model, aggregate, cfg.feature)
        )
        write_predictions(predictions, cfg.building, cfg.feature, out / f"predictions_{alg}")
        report = stage(f"evaluate_{alg}", lambda: evaluate(
            predictions, test_b, on_threshold=cfg.on_threshold,
            train_seconds=timings["learn_states"] + timings[f"train_{alg}"],
            disaggregate_seconds=timings[f"disaggregate_{alg}"],
            algorithm=alg, feature=cfg.feature,
        ))
        write_report(report, out, f"_{alg}", cfg.metrics)
        reports[alg] = report
        # The next algorithm decodes without this one's series alive.
        del predictions

    merged = [row for alg in cfg.algorithms for row in reports[alg].csv_rows(cfg.metrics)]
    (out / "metrics.csv").write_text(nio.csv_text(MetricReport.CSV_HEADER, merged), encoding="utf-8")
    manifest = {
        "config_hash": config_hash(raw_config if raw_config is not None else {}),
        "seed": cfg.seed,
        "building": cfg.building,
        "algorithms": list(cfg.algorithms),
        "timings_seconds": {k: round(v, 2) for k, v in timings.items()},
    }
    nio.write_json(out / "manifest.json", manifest)
    return RunResult(reports=reports, timings=timings, output_dir=out)
