#!/usr/bin/env python3
"""Run the benchmark in two checkouts by turns and compare their metrics.

Each pair runs ``perfbench/run.py --workload W --seed S --seconds X
--trace 0`` once in PARENT and once in CHANGE, each in its own checkout
directory; the side that runs first alternates, parent first in pair 1.
The last line of each run's stdout is its JSON result.  For every metric
in the results (with ``--trace 0``, the end-to-end metrics) this prints
each side's median and quartiles and the number of pairs in which CHANGE
read lower, then one line per pair with each metric's PARENT and CHANGE
values ("-" for a run that gave none).  On stderr it names every run that
exited non-zero, is not ``correct`` or has ``failed > 0``, and then it
exits 1.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --workload household_7d_6s --pairs 10 [--seed 1 --seconds 30]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, args) -> tuple[dict | None, str]:
    """(result, problem): the run's parsed last line, or None and why not."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = dict(zip(SIDES, (args.parent, args.change)))

    # values[metric][side][pair]; a pair whose run gave no result holds None.
    values: dict[str, dict[str, list]] = {}
    problems = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result, problem = run_once(checkouts[side], args)
            if problem:
                problems.append(f"{side} run of pair {pair + 1}: {problem}")
            for name, m in (result or {}).get("metrics", {}).items():
                per_side = values.setdefault(name, {s: [None] * args.pairs for s in SIDES})
                per_side[side][pair] = m["value"]
        print(f"# pair {pair + 1}/{args.pairs} done, {order[0]} first", flush=True)

    print(f"{'metric':<14}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}  change lower")
    for name, per_side in values.items():
        cells = []
        for side in SIDES:
            read = [v for v in per_side[side] if v is not None]
            if not read:
                cells.append("no result")
                continue
            q1, med, q3 = np.percentile(read, [25, 50, 75])
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        both = [(p, c) for p, c in zip(per_side["parent"], per_side["change"]) if None not in (p, c)]
        lower = sum(c < p for p, c in both)
        print(f"{name:<14}{cells[0]:>32}{cells[1]:>32}  {lower}/{len(both)}")
    for pair in range(args.pairs):
        cells = [f"pair {pair + 1}", f"{SIDES[pair % 2]} first"]
        for name, per_side in values.items():
            read = [per_side[side][pair] for side in SIDES]
            cells.append(name + " " + " ".join("-" if v is None else f"{v:.4g}" for v in read))
        print("  ".join(cells))
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
