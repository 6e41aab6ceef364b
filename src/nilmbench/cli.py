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
from dataclasses import replace
from pathlib import Path

from . import io as nio
from .data import Measurement, mains_total
from .diagnostics import check_gap_threshold, diagnose
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


def _measurement(name: str) -> Measurement:
    try:
        return Measurement.from_column_name(name)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def gap_threshold_arg(text: str) -> float:
    """argparse type for ``--gap-threshold``: a value that is not > 0 is a
    usage error (exit 2), not a stage failure."""
    try:
        return check_gap_threshold(float(text))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _load_building(path: str, building: int):
    ds = nio.load_dataset_dir(path)
    if building not in ds.buildings:
        raise ValueError(f"building {building} not found in {path}")
    return ds.buildings[building]


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
        spec = SynthSpec.from_json_text(Path(args.spec).read_text(encoding="utf-8"))
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    else:
        spec = default_benchmark_spec(seed=args.seed if args.seed is not None else 42)
    ds, _states = generate(spec)
    nio.save_dataset_dir(ds, args.output)
    (Path(args.output) / "synth_spec.json").write_text(
        spec.to_json_text() + "\n", encoding="utf-8"
    )
    if not args.quiet:
        print(f"generated {args.output} (seed {spec.seed})")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    ds = nio.load_dataset_dir(args.input)
    buildings = [args.building] if args.building else sorted(ds.buildings)
    for bid in buildings:
        report = diagnose(ds.buildings[bid], args.gap_threshold)
        if args.output:
            out = Path(args.output)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"diagnostics_house_{bid}.csv").write_text(
                report.to_csv_text(), encoding="utf-8"
            )
            (out / f"diagnostics_house_{bid}.json").write_text(
                report.to_json_text() + "\n", encoding="utf-8"
            )
        if not args.quiet:
            print(report.to_csv_text(), end="")
    return EXIT_OK


def cmd_stats(args) -> int:
    b = _load_building(args.input, args.building)
    ranked = top_k_appliances(b, args.top_k)
    lines = ["appliance,energy_joules,fraction"]
    for name, energy, fraction in ranked:
        lines.append(f"{name},{energy!r},{fraction!r}")
    table = "\n".join(lines) + "\n"
    submetered = proportion_energy_submetered(b) if b.mains else float("nan")
    regression = None
    if args.weather:
        if not args.correlate:
            raise ConfigError("--weather needs --correlate <appliance>")
        if args.correlate not in b.appliances:
            raise ConfigError(f"--correlate: no appliance {args.correlate!r}")
        external = nio.load_daily_series_csv(args.weather)
        regression = correlate_daily(b.appliances[args.correlate], external)
    if args.output:
        out = Path(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"top_k_house_{args.building}.csv").write_text(table, encoding="utf-8")
        summary = {"building": args.building, "proportion_energy_submetered": submetered}
        (out / f"stats_house_{args.building}.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
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
    ds = nio.load_dataset_dir(args.input)
    try:
        steps = preprocess_steps(
            json.loads(Path(args.steps).read_text(encoding="utf-8")) if args.steps else []
        )
    except ValueError as e:
        raise ConfigError(f"steps file {args.steps}: {e}") from None
    buildings = {
        bid: preprocess_building(b, steps)
        for bid, b in ds.buildings.items()
        if not args.building or bid == args.building
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
    trainer, _, _ = algorithms()[args.algorithm]
    model = trainer(b, args.feature, args.states)
    write_model(model, args.output)
    if not args.quiet:
        print(f"trained {args.algorithm} model -> {args.output}")
    return EXIT_OK


def cmd_disaggregate(args) -> int:
    b = _load_building(args.input, args.building)
    model = read_model(args.model)
    disaggregator = next(
        decode for _, decode, model_type in algorithms().values()
        if isinstance(model, model_type)
    )
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
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {args.config}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmbench",
        description="Benchmark toolkit for non-intrusive load monitoring",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    # Accept --quiet after the subcommand too; SUPPRESS keeps the root value
    # when the flag is absent there.
    quiet_parent = argparse.ArgumentParser(add_help=False)
    quiet_parent.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress progress output",
    )
    # An unknown measurement is a usage error (exit 2), like a bad config.
    feature_parent = argparse.ArgumentParser(add_help=False)
    feature_parent.add_argument("--feature", type=_measurement, default="power_active")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("import", parents=[quiet_parent], help="convert a raw dataset to the canonical layout")
    p.add_argument("--format", default="redd", choices=["redd"])
    p.add_argument("--input", required=False)
    p.add_argument("--output", required=True)
    p.add_argument("--name", default="REDD")
    p.add_argument("--period", type=float, default=3.0, help="nominal sample period (s)")
    p.set_defaults(func=cmd_import)

    p = sub.add_parser("synth", parents=[quiet_parent], help="generate a synthetic dataset")
    p.add_argument("--spec", help="synth spec JSON (default: built-in benchmark spec)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("diagnose", parents=[quiet_parent], help="report gaps, dropout and uptime")
    p.add_argument("--input", required=False)
    p.add_argument("--building", type=int, default=None)
    p.add_argument("--gap-threshold", type=gap_threshold_arg, default=None)
    p.add_argument("--output")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("stats", parents=[quiet_parent], help="appliance usage statistics")
    p.add_argument("--input", required=False)
    p.add_argument("--building", type=int, default=1)
    p.add_argument("--top-k", type=int, default=5)
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--weather", help="daily external series CSV (date,value)")
    p.add_argument("--correlate", help="appliance to regress against --weather")
    p.add_argument("--output")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("preprocess", parents=[quiet_parent], help="apply preprocessing steps, optionally split")
    p.add_argument("--input", required=False)
    p.add_argument("--output", required=True)
    p.add_argument("--steps", help="JSON file with a list of preprocessing steps")
    p.add_argument("--building", type=int, default=None)
    p.add_argument("--split-fraction", type=float, default=None)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", parents=[quiet_parent, feature_parent], help="learn appliance models")
    p.add_argument("--input", required=False)
    p.add_argument("--building", type=int, default=1)
    p.add_argument("--algorithm", required=True, choices=VALID_ALGORITHMS)
    p.add_argument("--states", type=int, default=2)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("disaggregate", parents=[quiet_parent, feature_parent], help="run a model on a dataset's mains")
    p.add_argument("--input", required=False)
    p.add_argument("--building", type=int, default=1)
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_disaggregate)

    p = sub.add_parser("evaluate", parents=[quiet_parent, feature_parent], help="score predictions against ground truth")
    p.add_argument("--predictions", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--building", type=int, default=1)
    p.add_argument("--model", help="model JSON for state reconstruction")
    p.add_argument("--on-threshold", type=float, default=DEFAULT_ON_THRESHOLD_W)
    p.add_argument("--algorithm", default="", help="label written into the report")
    p.add_argument("--output")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", parents=[quiet_parent], help="execute a full config-driven pipeline")
    p.add_argument("--config", required=True)
    p.add_argument("--output")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "input") and args.input is None:
        args.input = os.environ.get(DATA_DIR_ENV) or None
    try:
        if hasattr(args, "input") and args.input is None:
            raise ConfigError(
                f"--input is required (or set ${DATA_DIR_ENV})"
            )
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
