"""The benchmark's workloads: the inputs each one builds and the call chain
that is one timed operation.

Every input is derived from the workload seed.  Set-up writes the inputs to
a work directory; the operation reads only those inputs and the files the
program itself writes.  ``NOTES.md`` says why each workload exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from nilmbench import diagnostics, io, pipeline, preprocess, stats, synth
from nilmbench.data import POWER_ACTIVE, VOLTAGE, DataSet

DAY = 86400.0


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int, bool], None]
    operation: Callable[[Path, dict], pipeline.RunResult]
    synthetic: bool  # the true state path is known, so the MAP check applies


def _run_config(work: Path, seed: int, dataset: dict, algorithms: list[str]) -> dict:
    return {
        "dataset": dataset,
        "building": 1,
        "split_fraction": 0.5,
        "algorithms": algorithms,
        "states": 2,
        "seed": seed,
        "output": str(work / "out"),
    }


def _write_synth_inputs(work: Path, seed: int, spec: synth.SynthSpec) -> None:
    """Run config for ``pipeline.run`` plus the true states the checks need."""
    raw = _run_config(
        work, seed, {"format": "synth", "synth_spec": json.loads(spec.to_json_text())},
        ["co", "fhmm"],
    )
    (work / "config.json").write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")
    ds, true_states = synth.generate(spec)
    b = ds.buildings[1]
    _write_input_rows(work, len(b.mains[0]))
    np.savez(
        work / "truth.npz",
        timestamps=b.mains[0].timestamps,
        mains=b.mains[0].values(POWER_ACTIVE),
        **{f"state:{name}": s for name, s in true_states.items()},
    )


def _write_input_rows(work: Path, rows: int) -> None:
    (work / "inputs.json").write_text(json.dumps({"mains_rows": rows}) + "\n", encoding="utf-8")


def household_spec(seed: int, tiny: bool = False) -> synth.SynthSpec:
    """The acceptance suite's household at 6 s for 7 days (100 800 rows)."""
    if tiny:
        return replace(synth.default_benchmark_spec(seed), period=60.0, duration=0.5 * DAY)
    return replace(synth.default_benchmark_spec(seed), period=6.0, duration=7 * DAY)


def wide_spec(seed: int, tiny: bool = False) -> synth.SynthSpec:
    """Twelve two-state appliances (S = 4096) with distinct on-powers, 60 s for 2 days."""
    n = 5 if tiny else 12
    rng = np.random.default_rng(seed)
    on_powers = np.sort(rng.choice(np.arange(40.0, 3000.0, 10.0), size=n, replace=False))
    appliances = tuple(
        synth.ApplianceSynthSpec(
            name=f"load_{i:02d}",
            means=(0.0, float(p)),
            stds=(1.0, max(1.0, 0.01 * float(p))),
            pi=(0.7, 0.3),
            A=((0.97, 0.03), (0.06, 0.94)),
        )
        for i, p in enumerate(on_powers)
    )
    return synth.SynthSpec(
        appliances=appliances,
        noise_std=30.0,
        period=60.0,
        duration=(0.25 if tiny else 2.0) * DAY,
        seed=seed,
    )


def _synth_operation(work: Path, raw: dict) -> pipeline.RunResult:
    return pipeline.run(pipeline.RunConfig.from_dict(raw), raw_config=raw, quiet=True)


INGEST_V_NOMINAL = 230.0
INGEST_PERIOD = 6.0


def ingest_spec(seed: int, tiny: bool = False) -> synth.SynthSpec:
    """Default household at 1 s for one day with a 1 h gap and 1 % dropout."""
    duration, gap = (7200.0, (1800.0, 2400.0)) if tiny else (DAY, (36000.0, 39600.0))
    return replace(
        synth.default_benchmark_spec(seed),
        period=1.0,
        duration=duration,
        gaps=(gap,),
        dropout_probability=0.01,
    )


def _setup_ingest(work: Path, seed: int, tiny: bool) -> None:
    ds, _ = synth.generate(ingest_spec(seed, tiny))
    b = ds.buildings[1]
    mains = b.mains[0]
    # The voltage draw uses its own stream so the synthetic power data stays
    # exactly what ``generate`` produced for this seed.
    rng = np.random.default_rng([seed, 1])
    voltage = INGEST_V_NOMINAL + rng.normal(0.0, 3.0, len(mains))
    mains = mains.with_columns({**mains.columns, VOLTAGE: voltage})
    ds = DataSet(ds.name, {1: replace(b, mains=(mains,))}, ds.metadata)
    io.save_dataset_dir(ds, work / "input")
    _write_input_rows(work, len(mains))
    raw = _run_config(work, seed, {"format": "dataset-dir", "path": str(work / "clean")}, ["co"])
    (work / "config.json").write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")


def _ingest_operation(work: Path, raw: dict) -> pipeline.RunResult:
    """Load, describe, clean and save a 1 s dataset, then run CO on it.

    The chain aligns channels before downsampling: ``downsample`` anchors
    each channel's bins at its own first timestamp, so downsampling first
    leaves mains on a grid offset from the appliances' whenever dropout
    removed a channel's first row (see NOTES.md).
    """
    ds = io.load_dataset_dir(work / "input")
    b = ds.buildings[1]
    diagnostics.diagnose(b)
    stats.proportion_energy_submetered(b)
    stats.top_k_appliances(b, len(b.appliances))
    for c in b.appliances.values():
        stats.on_off_durations(c)
        stats.daily_energy(c)
    b = preprocess.map_channels(
        b, lambda c: preprocess.filter_out_implausible(c, POWER_ACTIVE, 0.0, 20000.0)
    )
    b = preprocess.map_channels(
        b,
        lambda c: preprocess.normalize_voltage(c, INGEST_V_NOMINAL) if c.has(VOLTAGE) else c,
    )
    b = preprocess.map_channels(b, lambda c: preprocess.interpolate_small_gaps(c))
    b = preprocess.intersect_with_mains(b)
    b = preprocess.map_channels(b, lambda c: preprocess.downsample(c, INGEST_PERIOD, "median"))
    io.save_dataset_dir(DataSet(ds.name, {1: b}, ds.metadata), work / "clean")
    return pipeline.run(pipeline.RunConfig.from_dict(raw), raw_config=raw, quiet=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "household_7d_6s",
            lambda work, seed, tiny: _write_synth_inputs(work, seed, household_spec(seed, tiny)),
            _synth_operation,
            synthetic=True,
        ),
        Workload(
            "fhmm_wide_s4096",
            lambda work, seed, tiny: _write_synth_inputs(work, seed, wide_spec(seed, tiny)),
            _synth_operation,
            synthetic=True,
        ),
        Workload("ingest_1s_day", _setup_ingest, _ingest_operation, synthetic=False),
    )
}
