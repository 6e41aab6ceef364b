"""Seeded synthetic households with known ground truth.

Every stage of the pipeline is testable against data generated here, and the
generator doubles as the stochastic oracle for training/inference tests
(known chain parameters, known true states).

Randomness comes from numpy's PCG64 generator; a given spec (seed included)
produces bit-identical output on any platform running the same numpy
generation code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .data import Building, Channel, DataSet, POWER_ACTIVE, outside_gaps


@dataclass(frozen=True)
class ApplianceSynthSpec:
    """Markov-chain power model for one synthetic appliance."""

    name: str
    means: tuple[float, ...]
    stds: tuple[float, ...]
    pi: tuple[float, ...]
    A: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        K = len(self.means)
        if not (len(self.stds) == len(self.pi) == len(self.A) == K):
            raise ValueError(f"{self.name}: inconsistent state dimensions")
        if any(len(row) != K for row in self.A):
            raise ValueError(f"{self.name}: A must be square")
        if abs(sum(self.pi) - 1.0) > 1e-9 or any(p < 0 for p in self.pi):
            raise ValueError(f"{self.name}: pi must be a distribution")
        for row in self.A:
            if abs(sum(row) - 1.0) > 1e-9 or any(p < 0 for p in row):
                raise ValueError(f"{self.name}: rows of A must be distributions")

    @property
    def K(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class SynthSpec:
    appliances: tuple[ApplianceSynthSpec, ...]
    seed: int  # mandatory: there is no unseeded generation
    noise_std: float = 0.0
    period: float = 60.0
    duration: float = 86400.0
    start: float = 0.0
    gaps: tuple[tuple[float, float], ...] = ()
    dropout_probability: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "appliances", tuple(self.appliances))
        object.__setattr__(
            self, "gaps", tuple((float(a), float(b)) for a, b in self.gaps)
        )
        if not self.appliances:
            raise ValueError("spec needs at least one appliance")
        if self.noise_std < 0 or not 0 <= self.dropout_probability < 1:
            raise ValueError("invalid noise or dropout setting")
        if self.period <= 0 or self.duration <= 0:
            raise ValueError("period and duration must be positive")

    def to_json_text(self) -> str:
        payload = {
            "appliances": [
                {
                    "name": a.name,
                    "means": list(a.means),
                    "stds": list(a.stds),
                    "pi": list(a.pi),
                    "A": [list(row) for row in a.A],
                }
                for a in self.appliances
            ],
            "noise_std": self.noise_std,
            "period": self.period,
            "duration": self.duration,
            "start": self.start,
            "seed": self.seed,
            "gaps": [list(g) for g in self.gaps],
            "dropout_probability": self.dropout_probability,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json_text(cls, text: str) -> "SynthSpec":
        raw = json.loads(text)
        if "seed" not in raw:
            raise ValueError("synth spec requires a seed")
        appliances = tuple(
            ApplianceSynthSpec(
                name=a["name"],
                means=tuple(a["means"]),
                stds=tuple(a["stds"]),
                pi=tuple(a["pi"]),
                A=tuple(tuple(row) for row in a["A"]),
            )
            for a in raw["appliances"]
        )
        return cls(
            appliances=appliances,
            noise_std=float(raw.get("noise_std", 0.0)),
            period=float(raw.get("period", 60.0)),
            duration=float(raw.get("duration", 86400.0)),
            start=float(raw.get("start", 0.0)),
            seed=int(raw["seed"]),
            gaps=tuple((float(a), float(b)) for a, b in raw.get("gaps", ())),
            dropout_probability=float(raw.get("dropout_probability", 0.0)),
        )


def _sample_chain(rng: np.random.Generator, spec: ApplianceSynthSpec, n: int) -> np.ndarray:
    """n chain states, state t drawn by inverse CDF from uniform draw t.

    All draws come first, so the successor of every possible previous state
    is looked up for all draws at once; only the walk through that table is
    sequential.
    """
    u = rng.random(n)
    # The clip guards against u landing on a cumulative 1.0 boundary.
    last = spec.K - 1
    first = min(int(np.searchsorted(np.cumsum(spec.pi), u[0], side="right")), last)
    successor = [
        np.minimum(np.searchsorted(row, u, side="right"), last).tolist()
        for row in np.cumsum(np.asarray(spec.A), axis=1)
    ]
    walk = accumulate(range(1, n), lambda s, t: successor[s][t], initial=first)
    return np.fromiter(walk, dtype=np.int64, count=n)


def _apply_faults(
    c: Channel, spec: SynthSpec, rng: np.random.Generator
) -> Channel:
    keep = outside_gaps(c.timestamps, spec.gaps)
    if spec.dropout_probability > 0:
        keep &= rng.random(len(c)) >= spec.dropout_probability
    return c if keep.all() else c.take(keep)


def generate(spec: SynthSpec) -> tuple[DataSet, dict[str, np.ndarray]]:
    """Sample a synthetic building; returns the dataset and true state series.

    Per appliance: a Markov chain from (pi, A), power = state mean plus
    Gaussian state noise.  Mains = sum of appliance powers plus aggregate
    noise, floored at 0 W.  Fault injection (gaps, dropout) runs last, so
    true states always cover the full grid.
    """
    rng = np.random.default_rng(np.random.PCG64(spec.seed))
    n = int(round(spec.duration / spec.period))
    if n < 1:
        raise ValueError("duration shorter than one period")
    # Channels share read-only arrays without copying them: one timestamp
    # array serves every channel.
    t = spec.start + np.arange(n, dtype=np.float64) * spec.period
    t.setflags(write=False)
    true_states: dict[str, np.ndarray] = {}
    appliance_channels: dict[str, Channel] = {}
    total = np.zeros(n, dtype=np.float64)
    for a in spec.appliances:
        states = _sample_chain(rng, a, n)
        power = np.asarray(a.means, dtype=np.float64)[states]
        stds = np.asarray(a.stds)[states]
        power += rng.standard_normal(n) * stds if np.any(stds) else 0.0
        power.setflags(write=False)
        true_states[a.name] = states
        total += power
        appliance_channels[a.name] = Channel(
            id=a.name,
            timestamps=t,
            columns={POWER_ACTIVE: power},
            nominal_period=spec.period,
        )
    if spec.noise_std > 0:
        total += rng.standard_normal(n) * spec.noise_std
    np.maximum(total, 0.0, out=total)
    total.setflags(write=False)
    mains = Channel(
        id="mains_1",
        timestamps=t,
        columns={POWER_ACTIVE: total},
        nominal_period=spec.period,
    )
    mains = _apply_faults(mains, spec, rng)
    appliance_channels = {
        name: _apply_faults(c, spec, rng) for name, c in appliance_channels.items()
    }
    building = Building(
        id=1,
        mains=(mains,),
        appliances=appliance_channels,
        metadata={"source": "synthetic", "seed": spec.seed},
        wiring=tuple(("mains_1", name) for name in appliance_channels),
    )
    ds = DataSet(
        name="synthetic",
        buildings={1: building},
        metadata={"seed": spec.seed},
    )
    return ds, true_states


def default_benchmark_spec(seed: int = 42) -> SynthSpec:
    """Three-appliance household used by the acceptance suite.

    A dominant air-conditioner-like load with long dwell times, a cycling
    fridge, and a short-burst heater whose on-power nearly collides with the
    air conditioner's: per-slice matching confuses the two, while transition
    structure separates them.
    """
    ac = ApplianceSynthSpec(
        name="air_conditioner",
        means=(0.0, 1600.0),
        stds=(1.0, 15.0),
        pi=(0.5, 0.5),
        A=((0.995, 0.005), (0.005, 0.995)),
    )
    fridge = ApplianceSynthSpec(
        name="fridge",
        means=(0.0, 150.0),
        stds=(1.0, 5.0),
        pi=(0.5, 0.5),
        A=((0.97, 0.03), (0.03, 0.97)),
    )
    heater = ApplianceSynthSpec(
        name="electric_heat",
        means=(0.0, 1570.0),
        stds=(1.0, 15.0),
        pi=(0.9, 0.1),
        A=((0.98, 0.02), (0.10, 0.90)),
    )
    return SynthSpec(
        appliances=(ac, fridge, heater),
        noise_std=30.0,
        period=60.0,
        duration=2.0 * 86400.0,
        seed=seed,
    )
