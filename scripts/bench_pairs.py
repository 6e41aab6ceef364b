#!/usr/bin/env python3
"""Run the benchmark in two checkouts by turns and compare their metrics.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds X
--trace 0`` once in PARENT and once in CHANGE per padding in ``--pad`` and
per workload W in the comma-separated ``--workload``, each in its own
checkout directory; the side that runs first alternates, parent first in
pair 1, and every workload of a pair runs its sides in that pair's order.
One series thus shows a claimed gain on one workload next to every other
workload's reading.  A padding of n adds the environment variable
``BENCH_PAIRS_PAD`` holding n bytes, which shifts where the process's
memory lands: the same commit can read up to about 13 % apart from one
environment size to another, so a series over several paddings averages
that layout effect out.  The last line of each run's stdout is its JSON
result.  For every metric in the results (with ``--trace 0``, the
end-to-end metrics), named ``<workload>/<metric>`` when there are several
workloads, this prints each side's median and quartiles over all
runs and the number of runs in which CHANGE read lower than PARENT under
the same pair and padding, with that count per padding when there are
several; then one line per pair and padding with each metric's PARENT and
CHANGE values ("-" for a run that gave none).  On stderr it names every run
that exited non-zero, is not ``correct`` or has ``failed > 0``, and then it
exits 1.

Run an A/A series first, two checkouts of one commit that differ only by a
comment, to see how far apart identical code reads.  One such series of 8
pairs read ``household_7d_6s`` ``run_s`` 0.210 against 0.219 s, the second
checkout lower in only 2 of 8 pairs, and ``peak_rss_mb`` 56.58 against
55.62.  Another, on ``fhmm_wide_s4096`` with ``--pad 0,512,4096``, had the
second checkout 11 % lower in 8 of 8 pairs at padding 512 and 9 % higher
in 8 of 8 at padding 4096, yet 0.282 against 0.283 s over all 24 runs.  A
difference no larger than the A/A one is no difference.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --workload household_7d_6s[,ingest_1s_day ...] --pairs 10 [--seed 1 --seconds 30 --pad 0,512,4096]
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAD_VARIABLE = "BENCH_PAIRS_PAD"


def run_once(checkout: Path, workload: str, pad: int, args) -> tuple[dict | None, str]:
    """(result, problem): the run's parsed last line, or None and why not."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    env = {**os.environ, PAD_VARIABLE: "x" * pad}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, f"last line is not JSON: {lines[-1][:200]}"
    if not result.get("correct") or result.get("failed", 0) > 0:
        return result, f"correct {result.get('correct')}, {result.get('failed')} of {result.get('attempted')} failed"
    return result, ""


def paddings(text: str) -> list[int]:
    """The comma-separated byte counts of ``--pad``, each >= 0."""
    try:
        pads = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if any(p < 0 for p in pads):
        raise argparse.ArgumentTypeError(f"paddings must be >= 0: {text!r}")
    return pads


def workloads(text: str) -> list[str]:
    """The comma-separated workload names of ``--workload``, none empty."""
    names = text.split(",")
    if not all(names):
        raise argparse.ArgumentTypeError(f"not a comma-separated list of workload names: {text!r}")
    return names


def lower_count(per_side: dict[str, list], runs: range) -> str:
    """``k/n``: of the ``runs`` in which both sides gave a value, the number
    in which CHANGE read lower."""
    both = [(per_side["parent"][k], per_side["change"][k]) for k in runs]
    both = [(p, c) for p, c in both if None not in (p, c)]
    return f"{sum(c < p for p, c in both)}/{len(both)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", type=workloads, required=True,
                        help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pad", type=paddings, default=[0],
                        help="comma-separated environment paddings in bytes (default 0)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))
    # Run k is pair k // len(pads) under padding pads[k % len(pads)].
    pads = args.pad
    runs = [(pair, pad) for pair in range(args.pairs) for pad in pads]

    def label(pad: int) -> str:
        """The padding's name in the output; without paddings, none."""
        return "" if pads == [0] else f"pad {pad}"

    # values[metric][side][run]; a run that gave no result holds None.
    values: dict[str, dict[str, list]] = {}
    problems = []
    several = len(args.workload) > 1
    for k, (pair, pad) in enumerate(runs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                result, problem = run_once(checkouts[side], workload, pad, args)
                if problem:
                    where = [workload if several else "", f"pair {pair + 1}", label(pad)]
                    problems.append(f"{side} run of {', '.join(filter(None, where))}: {problem}")
                for name, m in (result or {}).get("metrics", {}).items():
                    name = f"{workload}/{name}" if several else name
                    per_side = values.setdefault(name, {s: [None] * len(runs) for s in SIDES})
                    per_side[side][k] = m["value"]
        if k % len(pads) == len(pads) - 1:
            print(f"# pair {pair + 1}/{args.pairs} done, {order[0]} first", flush=True)

    width = max([14] + [len(name) + 2 for name in values])
    print(f"{'metric':<{width}}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}  change lower")
    for name, per_side in values.items():
        cells = []
        for side in SIDES:
            read = [v for v in per_side[side] if v is not None]
            if not read:
                cells.append("no result")
                continue
            q1, med, q3 = np.percentile(read, [25, 50, 75])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        lower = lower_count(per_side, range(len(runs)))
        if len(pads) > 1:
            by_pad = ", ".join(
                f"pad {pad}: {lower_count(per_side, range(j, len(runs), len(pads)))}"
                for j, pad in enumerate(pads)
            )
            lower += f" ({by_pad})"
        print(f"{name:<{width}}{cells[0]:>32}{cells[1]:>32}  {lower}")
    for k, (pair, pad) in enumerate(runs):
        cells = list(filter(None, [f"pair {pair + 1}", f"{SIDES[pair % 2]} first", label(pad)]))
        for name, per_side in values.items():
            read = [per_side[side][k] for side in SIDES]
            cells.append(name + " " + " ".join("-" if v is None else f"{v:.4g}" for v in read))
        print("  ".join(cells))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
