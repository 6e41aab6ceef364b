#!/usr/bin/env python3
"""nilmbench benchmark: one closed-loop client, timed from outside the program.

    python3 perfbench/run.py --workload household_7d_6s --seed 1 --seconds 30 --trace 0

Set-up builds the workload's inputs from ``--seed`` in a child process,
several times; ``setup_s`` is the median.  This process then runs operations
back to back (each starts when the previous one ends, no threads) for about
``--seconds`` seconds and checks every operation's outputs.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
untraced and traced operations in turn, then the FHMM step sweep, and
reports the per-layer metrics.  The last line of stdout is the JSON result;
earlier lines starting with ``#`` are information.  Inputs and outputs live
under ``.perfbench_out/`` in the checkout; the work directory is removed at
the end, the result record and spans are kept in ``.perfbench_out/results``.
"""

import os

# Pin BLAS/OpenMP pools to one thread in this process and its children before
# numpy is imported.  Nothing outside these processes is changed.
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from probe import SpeedProbe, at_nominal_speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
SWEEP_STEPS = {False: 128, True: 4}  # keyed by --tiny
TIME_UNITS = ("s", "us/step")


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if "backpointer_bytes" in name:
        return "computed_bytes"
    if "bytes" in name:
        return "bytes"
    if "us_per_step" in name:
        return "us/step"
    return "s" if name.endswith("_s") else "count"


def info(label: str, value) -> None:
    print(f"# {label}: {value}", flush=True)


def environment(seed: int) -> dict:
    cpu_model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": THREAD_ENV,
    }


def run_setups(args, work: Path) -> list[dict]:
    """Time SETUP_REPEATS fresh set-ups, each in its own child process.

    The child reports the CPU speed it measured as its last stdout line.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-into", str(work),
    ] + (["--tiny"] if args.tiny else [])
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        child = subprocess.run(
            cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.PIPE, text=True
        )
        wall = time.perf_counter() - t0
        setups.append({"wall_s": wall, **json.loads(child.stdout.splitlines()[-1])})
    return setups


class Operations:
    """Runs and checks operations of one workload; one record per operation."""

    def __init__(self, workload, work: Path, seed: int):
        import checks  # imports nilmbench, so only after main() found it

        self.checks = checks
        self.workload = workload
        self.work = work
        self.seed = seed
        self.raw = json.loads((work / "config.json").read_text(encoding="utf-8"))
        self.truth = None
        if workload.synthetic:
            with np.load(work / "truth.npz") as npz:
                self.truth = {k: npz[k] for k in npz.files}
        self.digests: set[str] = set()
        self.probe = SpeedProbe()

    def run(self, tracer=None) -> dict:
        error, result = None, None
        with self.probe.during() as speed:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if tracer is None:
                    result = self.workload.operation(self.work, self.raw)
                else:
                    with tracer.operation():
                        result = self.workload.operation(self.work, self.raw)
            except Exception as e:  # a failed operation is counted, not fatal
                error = f"{type(e).__name__}: {e}"
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        record = {"wall_s": wall, "cpu_s": cpu, "probe_s": speed["mean_s"]}
        try:
            record["problems"] = [error] if error else self._check(result)
        except Exception as e:  # a check that cannot run fails the operation
            record["problems"] = [f"check raised {type(e).__name__}: {e}"]
        for p in record["problems"][:3]:
            print(f"# problem: {p}", file=sys.stderr, flush=True)
        return record

    def _check(self, result) -> list[str]:
        c = self.checks
        out = self.work / "out"
        if self.truth is not None:
            names = [k.split(":", 1)[1] for k in self.truth if k.startswith("state:")]
            t_agg, y_agg = self.truth["timestamps"], self.truth["mains"]
            roots = (out,)
        else:
            names, t_agg, y_agg = c.test_aggregate(self.work / "clean", self.raw["split_fraction"])
            roots = (self.work / "clean", out)
        problems = c.check_reports(result, self.raw["algorithms"], names)
        problems += c.check_co_nearest(out, t_agg, y_agg, self.seed)
        if self.truth is not None:
            problems += c.check_map(out, self.truth)
        self.digests.add(c.artifact_digest(*roots))
        return problems


def closed_loop(ops: Operations, seconds: float, tracer=None) -> list[dict]:
    """Run operations back to back while the next one fits in ``seconds``.

    With a tracer, operations alternate untraced and traced, starting
    untraced, and at least one of each runs.
    """
    records = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        records.append({**ops.run(tracer if traced else None), "traced": traced})
        elapsed = time.perf_counter() - start
        enough = len(records) >= (2 if tracer is not None else 1)
        if enough and elapsed + max(r["wall_s"] for r in records) > seconds:
            return records


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def nominal_median(records: list[dict], key: str) -> float:
    """Median of ``key`` rescaled from each record's measured CPU speed to nominal."""
    return statistics.median(at_nominal_speed(r[key], r["probe_s"]) for r in records)


def measure(args, ops: Operations, setups: list[dict]) -> tuple[dict, list[dict], dict]:
    """(metrics, operation records, extra record fields) for one run."""
    if not args.trace:
        records = closed_loop(ops, args.seconds)
        metrics = {
            "run_s": nominal_median(records, "wall_s"),
            "cpu_s": nominal_median(records, "cpu_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": nominal_median(setups, "wall_s"),
        }
        return metrics, records, {}

    import spans
    import sweep

    tracer = spans.Tracer()
    records = closed_loop(ops, args.seconds, tracer)
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    per_op = [
        {
            key: at_nominal_speed(value, r["probe_s"]) if unit_of(key) in TIME_UNITS else value
            for key, value in spans.operation_metrics(tracer.op_spans(op)).items()
        }
        for op, r in enumerate(traced, start=1)
    ]
    metrics = {key: statistics.median(m[key] for m in per_op) for key in per_op[0]}
    metrics["trace.overhead_s"] = nominal_median(traced, "wall_s") - nominal_median(untraced, "wall_s")
    metrics.update(sweep.fhmm_step_sweep(args.seed, SWEEP_STEPS[args.tiny], ops.probe))
    return metrics, records, {"spans": tracer.records()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="minutes-scale inputs, for the self-test")
    parser.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import nilmbench
    except ImportError as e:
        print(f"perfbench: cannot import nilmbench from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(nilmbench.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: nilmbench imported from {nilmbench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    if args.setup_into is not None:
        args.setup_into.mkdir(parents=True, exist_ok=True)
        with SpeedProbe().during() as speed:
            workload.setup(args.setup_into, args.seed, args.tiny)
        print(json.dumps({"probe_s": speed["mean_s"]}))
        return 0

    work = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        try:
            setups = run_setups(args, work)
        except (subprocess.SubprocessError, OSError) as e:
            print(f"perfbench: set-up failed: {e}", file=sys.stderr)
            return 1
        ops = Operations(workload, work, args.seed)
        input_rows = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["mains_rows"]
        metrics, records, extra = measure(args, ops, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(bool(r["problems"]) for r in records)
    env = environment(args.seed)
    run_s = nominal_median(records, "wall_s")
    info("environment", json.dumps(env, sort_keys=True))
    info("operations", f"{len(records)} attempted, {failed} failed, fail_ratio {failed / len(records):g}")
    info("set-up wall_s samples", [round(r["wall_s"], 4) for r in setups])
    info("operation wall_s samples", [round(r["wall_s"], 4) for r in records])
    info("operation wall_s median, not rescaled", f"{median_of(records, 'wall_s'):.4f}")
    info("cpu speed probe us, set-ups", [round(1e6 * r["probe_s"], 2) for r in setups])
    info("cpu speed probe us, operations", [round(1e6 * r["probe_s"], 2) for r in records])
    info("input rows per second (mains rows / run_s)", f"{input_rows / run_s:.1f}")
    info("artifact sha256 (timing fields removed)", ", ".join(sorted(ops.digests)) or "none")
    for name, value in metrics.items():
        info(f"{name} [{unit_of(name)}]", f"{value:.6g}")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in extra:
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as f:
            for span in extra.pop("spans"):
                f.write(json.dumps(span) + "\n")
        info("spans", f"{stem}-spans.jsonl")
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setups": setups, "operations": records,
        "artifact_sha256": sorted(ops.digests), "metrics": metrics,
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
