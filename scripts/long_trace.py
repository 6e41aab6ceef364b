#!/usr/bin/env python3
"""Time and size one full run on a long synthetic household.

Runs ``pipeline.run`` with CO and FHMM on the default benchmark household
stretched to ``--days`` days at ``--period`` seconds, writing its artifacts to
a temporary directory, and prints:

    rows           samples per channel
    data_mb        timestamps and values of every channel, 16 bytes per
                   row and channel, counted as if no array were shared
    rss_before_mb  peak RSS of this process before the run (interpreter,
                   numpy and nilmbench imported)
    peak_rss_mb    peak RSS of this process after the run
    fhmm_backpointer_mb
                   backpointers of every decoded step (one per prediction
                   row), from ``disaggregate.fhmm_backpointer_bytes`` for
                   the trained model: what the decode would keep if its
                   survivors never met, not what it keeps
    fhmm_decode_peak_mb
                   ``tracemalloc`` peak of a second FHMM decode of the run's
                   model and aggregate, made after the run so that the run
                   stays untraced; the live size before it is not counted
    wall_s         wall time of the run

Peak RSS is the process high-water mark, so run one trace per process.

Usage:
    python scripts/long_trace.py --days 90 --period 6 --seed 1
"""

import argparse
import resource
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from nilmbench import pipeline
from nilmbench.disaggregate import disaggregate_fhmm, fhmm_backpointer_bytes
from nilmbench.pipeline import RunConfig, read_model, run
from nilmbench.synth import default_benchmark_spec


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux and in bytes on macOS.
    scale = 2**20 if sys.platform == "darwin" else 2**10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale


def fhmm_backpointer_mb(out: Path) -> float:
    """Backpointer MB of every step of the FHMM decode whose model and
    predictions are in ``out``."""
    sizes = [a.K for a in read_model(out / "model_fhmm.json").appliances]
    series = min((out / "predictions_fhmm").rglob("*.csv"))
    with open(series, "rb") as f:
        steps = sum(block.count(b"\n") for block in iter(lambda: f.read(2**20), b"")) - 1
    return fhmm_backpointer_bytes(sizes, steps) / 2**20


def keep_fhmm_inputs() -> list:
    """Rebind the run's FHMM decoder to one that also keeps its arguments,
    in the returned list, for :func:`fhmm_decode_peak_mb`."""
    kept = []

    def decode(*args, **kwargs):
        kept.append((args, kwargs))
        return disaggregate_fhmm(*args, **kwargs)

    pipeline.disaggregate_fhmm = decode
    return kept


def fhmm_decode_peak_mb(args, kwargs) -> float:
    """``tracemalloc`` peak MB of one FHMM decode, over the live size before it."""
    tracemalloc.start()
    try:
        disaggregate_fhmm(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=float, required=True)
    parser.add_argument("--period", type=float, required=True, help="sample period (s)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    base = default_benchmark_spec(seed=args.seed)
    try:
        spec = replace(base, duration=args.days * 86400.0, period=args.period)
    except ValueError as e:
        parser.error(str(e))
    rows = int(round(spec.duration / spec.period))
    channels = len(spec.appliances) + 1
    before = peak_rss_mb()
    fhmm_inputs = keep_fhmm_inputs()
    with tempfile.TemporaryDirectory() as out:
        cfg = RunConfig(
            dataset_path=None, dataset_format="synth", synth_spec=spec,
            algorithms=("co", "fhmm"), output=out, seed=args.seed,
        )
        t0 = time.perf_counter()
        run(cfg, quiet=True)
        wall = time.perf_counter() - t0
        peak = peak_rss_mb()
        backpointer_mb = fhmm_backpointer_mb(Path(out))
    decode_peak_mb = fhmm_decode_peak_mb(*fhmm_inputs[0])
    print(f"# {args.days:g} d at {args.period:g} s, seed {args.seed}, {channels} channels")
    print(f"rows {rows}")
    print(f"data_mb {rows * channels * 16 / 2**20:.1f}")
    print(f"rss_before_mb {before:.1f}")
    print(f"peak_rss_mb {peak:.1f}")
    print(f"fhmm_backpointer_mb {backpointer_mb:.4g}")
    print(f"fhmm_decode_peak_mb {decode_peak_mb:.4g}")
    print(f"wall_s {wall:.2f}")


if __name__ == "__main__":
    main()
