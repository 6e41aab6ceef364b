#!/usr/bin/env python3
"""Summarise a canonical-layout dataset: per-building channel counts,
proportion of energy sub-metered, dropout, uptime and top appliances.

Useful against locally supplied datasets (e.g. an AMPds or REDD conversion):

    python scripts/dataset_report.py path/to/dataset [--gap-threshold S] [--top-k K]
"""

import argparse

from nilmbench.cli import count_arg, gap_threshold_arg
from nilmbench.diagnostics import diagnose
from nilmbench.io import load_dataset_dir
from nilmbench.pipeline import select_buildings
from nilmbench.stats import proportion_energy_submetered, top_k_appliances


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("dataset")
    parser.add_argument("--gap-threshold", type=gap_threshold_arg, default=None)
    parser.add_argument("--top-k", type=count_arg, default=5)
    args = parser.parse_args()

    ds = load_dataset_dir(args.dataset)
    print(f"dataset {ds.name!r}: {len(ds.buildings)} building(s)")
    for bid, b in select_buildings(ds, None).items():
        print(f"\nhouse {bid}: {len(b.mains)} mains, {len(b.appliances)} appliances")
        if b.mains:
            try:
                sub = proportion_energy_submetered(b, args.gap_threshold)
                print(f"  energy sub-metered: {100 * sub:.1f}%")
            except ValueError as e:
                print(f"  energy sub-metered: n/a ({e})")
        report = diagnose(b, args.gap_threshold)
        for row in report.channels:
            if row.role != "mains":
                continue
            print(
                f"  {row.channel}: dropout {100 * row.dropout_rate:.1f}% "
                f"({100 * row.dropout_rate_ignoring_gaps:.1f}% ignoring gaps), "
                f"up {row.uptime_seconds / 86400.0:.1f} days "
                f"({100 * row.percent_uptime:.0f}%), {len(row.gaps)} gaps"
            )
        if b.appliances:
            print(f"  top {args.top_k} appliances:")
            for name, energy, fraction in top_k_appliances(b, args.top_k):
                kwh = energy / 3.6e6
                print(f"    {name:<20} {kwh:10.2f} kWh  ({100 * fraction:5.1f}%)")


if __name__ == "__main__":
    main()
