#!/usr/bin/env python3
"""Run both benchmark algorithms on the default synthetic household and
print a compact comparison table (train/disaggregate time, NEP, FTE,
F-score).

Usage:
    python scripts/run_default_benchmark.py [--seed 42] [--output out/]
"""

import argparse
import tempfile

from nilmbench.pipeline import RunConfig, run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", default=None)
    args = parser.parse_args()

    output = args.output or tempfile.mkdtemp(prefix="nilmbench_")
    raw = {
        "dataset": {"format": "synth"},
        "building": 1,
        "split_fraction": 0.5,
        "algorithms": ["co", "fhmm"],
        "states": 2,
        "seed": args.seed,
        "output": output,
    }
    result = run(RunConfig.from_dict(raw), raw_config=raw, quiet=True)

    print(f"\nseed {args.seed}, artifacts in {output}\n")
    header = f"{'algorithm':<10}{'train (s)':>11}{'disagg (s)':>12}{'NEP':>8}{'FTE':>8}{'F-score':>9}"
    print(header)
    print("-" * len(header))
    for alg, report in result.reports.items():
        averages = report.averages()
        print(
            f"{alg:<10}{report.train_seconds:>11.2f}{report.disaggregate_seconds:>12.2f}"
            f"{averages['nep']:>8.2f}{report.fte:>8.2f}{averages['f_score']:>9.2f}"
        )
    print("\nper-appliance NEP / F-score:")
    for alg, report in result.reports.items():
        for a in report.appliances:
            print(f"  [{alg}] {a.name:<18} NEP {a.nep:6.2f}   F-score {a.f_score:5.2f}")


if __name__ == "__main__":
    main()
