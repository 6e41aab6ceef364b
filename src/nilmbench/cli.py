"""Command-line interface.

Each subcommand reads and writes dataset directories, so stages compose via
the filesystem:

    nilmbench synth --output data/
    nilmbench diagnose --input data/ --building 1
    nilmbench preprocess --input data/ --steps steps.json --split-fraction 0.5 --output prep/
    nilmbench train --input prep/train --building 1 --algorithm fhmm --output model.json
    nilmbench disaggregate --input prep/test --building 1 --model model.json --output preds/
    nilmbench evaluate --predictions preds/ --truth prep/test --building 1 --model model.json
    nilmbench run --config config.json

Exit codes: 0 success, 1 stage failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import io as nio
from .data import Measurement, check_count, check_finite, check_fraction, check_period, mains_total
from .diagnostics import diagnose
from .metrics import evaluate
from .pipeline import (
    VALID_ALGORITHMS,
    ConfigError,
    RunConfig,
    StageFailure,
    algorithms,
    align_and_split,
    predictions_from_dataset,
    preprocess_building,
    preprocess_steps,
    read_model,
    run,
    select_buildings,
    write_model,
    write_predictions,
    write_report,
)
from .stats import (
    DEFAULT_ON_THRESHOLD_W,
    correlate_daily,
    power_histogram,
    proportion_energy_submetered,
    top_k_appliances,
)
from .synth import SynthSpec, default_benchmark_spec, generate
from .training import learn_building_states

EXIT_OK = 0
EXIT_STAGE_FAILURE = 1
EXIT_CONFIG_ERROR = 2

DATA_DIR_ENV = "NILM_DATA_DIR"


def _apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply --set key=value pairs; dotted keys descend into objects."""
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        target = raw
        parts = key.split(".")
        for p in parts[:-1]:
            target = target.setdefault(p, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set cannot descend into {p!r}")
        target[parts[-1]] = parsed
    return raw


def _arg(convert):
    """An argparse type that runs ``convert`` on the text and reports its
    ValueError as a usage error (exit 2), not a stage failure."""

    def parse(text: str):
        try:
            return convert(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return parse


# ``--gap-threshold``: a value that is not finite and > 0, named as the gap rule names it.
gap_threshold_arg = _arg(lambda text: check_period(float(text), "gap threshold"))
# ``--states``, ``--top-k``, ``--bins``: an integer that is not >= 1.
count_arg = _arg(lambda text: check_count(int(text)))


def _read_json_file(path: str, what: str, convert):
    """``convert`` of the JSON in file ``path``; a file that cannot be read, is
    not JSON or that ``convert`` rejects is a ConfigError naming the file."""
    try:
        return convert(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as e:
        raise ConfigError(f"{what} {path}: cannot read: {e.strerror}") from None
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{what} {path}: {e}") from None


def _json_object(raw):
    if not isinstance(raw, dict):
        raise ValueError("must be a JSON object")
    return raw


def _load_building(path: str, building: int):
    return select_buildings(nio.load_dataset_dir(path), building)[building]


def cmd_import(args) -> int:
    ds, report = nio.import_redd_style(
        args.input, dataset_name=args.name, nominal_period=args.period
    )
    nio.save_dataset_dir(ds, args.output)
    if not args.quiet:
        print(
            f"imported {len(ds.buildings)} buildings "
            f"({report.skipped} rows skipped, {report.duplicates} duplicates)"
        )
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.spec:
        spec = _read_json_file(args.spec, "spec file", SynthSpec.from_dict)
    else:
        spec = default_benchmark_spec()
    if args.seed is not None:
        try:
            spec = replace(spec, seed=args.seed)
        except ValueError as e:
            raise ConfigError(f"--seed: {e}") from None
    ds, _states = generate(spec)
    nio.save_dataset_dir(ds, args.output)
    nio.write_json(Path(args.output) / "synth_spec.json", asdict(spec))
    if not args.quiet:
        print(f"generated {args.output} (seed {spec.seed})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    for bid, b in select_buildings(nio.load_dataset_dir(args.input), args.building).items():
        report = diagnose(b, args.gap_threshold)
        if args.output:
            out = Path(args.output)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"diagnostics_house_{bid}.csv").write_text(
                report.to_csv_text(), encoding="utf-8"
            )
            nio.write_json(out / f"diagnostics_house_{bid}.json", report.payload())
        if not args.quiet:
            print(report.to_csv_text(), end="")
    return EXIT_OK


def cmd_stats(args) -> int:
    if args.weather and not args.correlate:
        raise ConfigError("--weather needs --correlate <appliance>")
    if args.correlate and not args.weather:
        raise ConfigError("--correlate needs --weather <file>")
    b = _load_building(args.input, args.building)
    ranked = top_k_appliances(b, args.top_k)
    table = nio.csv_text(("appliance", "energy_joules", "fraction"), ranked)
    submetered = proportion_energy_submetered(b) if b.mains else None  # JSON null
    regression = None
    if args.weather:
        if args.correlate not in b.appliances:
            raise ConfigError(f"--correlate: no appliance {args.correlate!r}")
        external = nio.load_daily_series_csv(args.weather)
        regression = correlate_daily(b.appliances[args.correlate], external)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"top_k_house_{args.building}.csv").write_text(table, encoding="utf-8")
        summary = {"building": args.building, "proportion_energy_submetered": submetered}
        nio.write_json(out / f"stats_house_{args.building}.json", summary)
        for name, c in b.appliances.items():
            hist = power_histogram(c, args.bins)
            (out / f"power_histogram_{name}.csv").write_text(
                hist.to_csv_text(), encoding="utf-8"
            )
        if regression is not None:
            (out / f"correlation_{args.correlate}.csv").write_text(
                regression.to_csv_text(), encoding="utf-8"
            )
    if not args.quiet:
        print(table, end="")
        print(f"proportion_energy_submetered,{submetered!r}")
        if regression is not None:
            print(
                f"correlation {args.correlate}: r_squared={regression.r_squared:.3f} "
                f"slope={regression.slope:.6g} n={regression.n}"
            )
    return EXIT_OK


def cmd_preprocess(args) -> int:
    steps = _read_json_file(args.steps, "steps file", preprocess_steps) if args.steps else ()
    ds = nio.load_dataset_dir(args.input)
    buildings = {
        bid: preprocess_building(b, steps)
        for bid, b in select_buildings(ds, args.building).items()
    }
    if args.split_fraction is None:
        nio.save_dataset_dir(replace(ds, buildings=buildings), args.output)
    else:
        halves = {bid: align_and_split(b, args.split_fraction) for bid, b in buildings.items()}
        for i, name in enumerate(("train", "test")):
            split = {bid: half[i] for bid, half in halves.items()}
            nio.save_dataset_dir(replace(ds, buildings=split), Path(args.output) / name)
    if not args.quiet:
        print(f"preprocessed {len(buildings)} building(s) -> {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    b = _load_building(args.input, args.building)
    trainer, _ = algorithms()[args.algorithm]
    model = trainer(b, learn_building_states(b, args.feature, args.states), args.feature)
    write_model(model, args.output)
    if not args.quiet:
        print(f"trained {args.algorithm} model -> {args.output}")
    return EXIT_OK


def cmd_disaggregate(args) -> int:
    b = _load_building(args.input, args.building)
    model = read_model(args.model)
    _, disaggregator = algorithms()[model.algorithm]
    predictions = disaggregator(model, mains_total(b, args.feature), args.feature)
    write_predictions(predictions, args.building, args.feature, args.output)
    if not args.quiet:
        print(f"wrote predictions -> {args.output}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    pb = _load_building(args.predictions, args.building)
    tb = _load_building(args.truth, args.building)
    model = read_model(args.model) if args.model else None
    predictions = predictions_from_dataset(pb, model, args.feature)
    report = evaluate(
        predictions, tb, on_threshold=args.on_threshold,
        algorithm=args.algorithm, feature=args.feature,
    )
    if args.output:
        write_report(report, args.output, f"_{args.algorithm}" if args.algorithm else "")
    if not args.quiet:
        print(report.to_csv_text(), end="")
    return EXIT_OK


def cmd_run(args) -> int:
    raw = _read_json_file(args.config, "config file", _json_object)
    raw = _apply_overrides(raw, args.set or [])
    if args.output:
        raw["output"] = args.output
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = RunConfig.from_dict(raw, data_dir=os.environ.get(DATA_DIR_ENV))
    result = run(cfg, raw_config=raw, quiet=args.quiet)
    if not args.quiet:
        for alg, report in result.reports.items():
            print(f"[{alg}] FTE={report.fte:.4f} hamming={report.hamming_loss:.4f}")
        print(f"artifacts in {result.output_dir}")
    return EXIT_OK


def _parent(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subparsers that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmbench",
        description="Benchmark toolkit for non-intrusive load monitoring",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    # Accept --quiet after the subcommand too; SUPPRESS keeps the root value
    # when the flag is absent there.
    quiet_parent = _parent("--quiet", action="store_true", default=argparse.SUPPRESS,
                           help="suppress progress output")
    # An unknown measurement is a usage error (exit 2), like a bad config.
    feature_parent = _parent("--feature", type=_arg(Measurement.from_column_name), default="power_active")
    # A missing --input reads the data directory from the environment.
    input_parent = _parent("--input", default=os.environ.get(DATA_DIR_ENV) or None)
    # One parent per default: set_defaults would change a shared parent's action for all.
    one_building, every_building = (_parent("--building", type=int, default=d) for d in (1, None))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[quiet_parent, *parents], help=help)
        p.set_defaults(func=func)
        return p

    p = command("import", cmd_import, "convert a raw dataset to the canonical layout", input_parent)
    p.add_argument("--output", required=True)
    p.add_argument("--name", default="REDD")
    # A period that is not finite and > 0 is a usage error, before anything is written.
    p.add_argument("--period", type=_arg(lambda text: check_period(float(text))), default=3.0,
                   help="nominal sample period (s)")

    p = command("synth", cmd_synth, "generate a synthetic dataset")
    p.add_argument("--spec", help="synth spec JSON (default: built-in benchmark spec)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)

    p = command("diagnose", cmd_diagnose, "report gaps, dropout and uptime", input_parent, every_building)
    p.add_argument("--gap-threshold", type=gap_threshold_arg, default=None)
    p.add_argument("--output")

    p = command("stats", cmd_stats, "appliance usage statistics", input_parent, one_building)
    p.add_argument("--top-k", type=count_arg, default=5)
    p.add_argument("--bins", type=count_arg, default=20)
    p.add_argument("--weather", help="daily external series CSV (date,value)")
    p.add_argument("--correlate", help="appliance to regress against --weather")
    p.add_argument("--output")

    p = command("preprocess", cmd_preprocess, "apply preprocessing steps, optionally split",
                input_parent, every_building)
    p.add_argument("--output", required=True)
    p.add_argument("--steps", help="JSON file with a list of preprocessing steps")
    p.add_argument("--split-fraction", type=_arg(lambda text: check_fraction(float(text))),
                   default=None)

    p = command("train", cmd_train, "learn appliance models", feature_parent, input_parent, one_building)
    p.add_argument("--algorithm", required=True, choices=VALID_ALGORITHMS)
    p.add_argument("--states", type=count_arg, default=2)
    p.add_argument("--output", required=True)

    p = command("disaggregate", cmd_disaggregate, "run a model on a dataset's mains",
                feature_parent, input_parent, one_building)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)

    p = command("evaluate", cmd_evaluate, "score predictions against ground truth",
                feature_parent, one_building)
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--model", help="model JSON for state reconstruction")
    p.add_argument("--on-threshold", type=_arg(lambda text: check_finite(float(text))),
                   default=DEFAULT_ON_THRESHOLD_W)
    p.add_argument("--algorithm", default="", help="label written into the report")
    p.add_argument("--output")

    p = command("run", cmd_run, "execute a full config-driven pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "input", "") is None:
            raise ConfigError(f"--input is required (or set ${DATA_DIR_ENV})")
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except StageFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
