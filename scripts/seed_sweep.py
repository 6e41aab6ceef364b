#!/usr/bin/env python3
"""Compare FHMM against CO across many seeded synthetic households.

For each seed: generate the default benchmark household, split 50/50, learn
the appliance states once on the first half, train both algorithms on them,
disaggregate the second half, and report mean per-appliance NEP.  Prints a
per-seed table plus the win count.

Usage:
    python scripts/seed_sweep.py [--seeds 20] [--first-seed 3000]
"""

import argparse

from nilmbench.cli import count_arg
from nilmbench.data import POWER_ACTIVE, mains_total
from nilmbench.metrics import evaluate
from nilmbench.pipeline import algorithms
from nilmbench.preprocess import train_test_split
from nilmbench.synth import default_benchmark_spec, generate
from nilmbench.training import learn_building_states


def nep_for(seed: int) -> dict[str, float]:
    ds, _ = generate(default_benchmark_spec(seed=seed))
    train_b, test_b = train_test_split(ds.buildings[1], 0.5)
    aggregate = mains_total(test_b)
    out = {}
    states = learn_building_states(train_b, POWER_ACTIVE, 2)
    for name, (trainer, decoder) in algorithms().items():
        model = trainer(train_b, states, POWER_ACTIVE)
        report = evaluate(decoder(model, aggregate), test_b)
        out[name] = report.averages()["nep"]
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=count_arg, default=20)
    parser.add_argument("--first-seed", type=int, default=3000)
    args = parser.parse_args()

    print(f"{'seed':>6}{'CO NEP':>10}{'FHMM NEP':>10}  winner")
    wins = 0
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        neps = nep_for(seed)
        fhmm_wins = neps["fhmm"] <= neps["co"]
        wins += fhmm_wins
        print(
            f"{seed:>6}{neps['co']:>10.3f}{neps['fhmm']:>10.3f}"
            f"  {'fhmm' if fhmm_wins else 'co'}"
        )
    print(f"\nFHMM at or below CO on {wins}/{args.seeds} seeds")


if __name__ == "__main__":
    main()
