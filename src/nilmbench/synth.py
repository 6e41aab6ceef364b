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
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

import numpy as np

from .data import (
    Building,
    Channel,
    DataSet,
    POWER_ACTIVE,
    check_channel_id,
    check_finite,
    check_nonnegative,
    check_period,
    integer,
    outside_gaps,
)
from .io import json_text
from .training import check_chain


def _floats(values) -> tuple[float, ...]:
    return tuple(map(float, values))


def _set_fields(record, label: str, **converters) -> None:
    """Set each named field of the frozen ``record`` to ``convert(value)``; an
    error names the field after ``label``."""
    for name, convert in converters.items():
        try:
            object.__setattr__(record, name, convert(getattr(record, name)))
        except (TypeError, ValueError) as e:
            raise ValueError(f"{label}{name} {e}") from None


def _from_fields(cls, value):
    """``value`` if it is a ``cls``, else ``cls`` built from the keys of the
    dict ``value`` that name its fields; other keys are ignored."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise TypeError(f"{cls.__name__} needs a JSON object, got {value!r}")
    return cls(**{f.name: value[f.name] for f in fields(cls) if f.name in value})


def _seed(value) -> int:
    """An integer >= 0, as PCG64 takes it."""
    seed = integer(value)
    if seed < 0:
        raise ValueError(f"must be >= 0, got {seed}")
    return seed


@dataclass(frozen=True)
class ApplianceSynthSpec:
    """Markov-chain power model for one synthetic appliance."""

    name: str
    means: tuple[float, ...]
    stds: tuple[float, ...]
    pi: tuple[float, ...]
    A: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        check_channel_id(self.name)
        _set_fields(
            self, f"{self.name}: ", means=lambda means: tuple(map(check_finite, means)),
            # A zero std is a noise-free state.
            stds=lambda stds: tuple(map(check_nonnegative, stds)),
            pi=_floats, A=lambda rows: tuple(map(_floats, rows)),
        )
        K = len(self.means)
        if len(self.stds) != K or any(len(row) != K for row in self.A):
            raise ValueError(f"{self.name}: stds and each row of A need {K} entries")
        check_chain(self.name, K, np.asarray(self.pi), np.asarray(self.A), 1e-9)

    @property
    def K(self) -> int:
        return len(self.means)


@dataclass(frozen=True)
class SynthSpec:
    """A synthetic household.  Its JSON is its fields, and every field is
    converted and checked here, whether built in Python or read from JSON."""

    appliances: tuple[ApplianceSynthSpec, ...]
    seed: int  # mandatory: there is no unseeded generation
    noise_std: float = 0.0
    period: float = 60.0
    duration: float = 86400.0
    start: float = 0.0
    gaps: tuple[tuple[float, float], ...] = ()
    dropout_probability: float = 0.0

    def __post_init__(self) -> None:
        _set_fields(
            self, "",
            appliances=lambda apps: tuple(_from_fields(ApplianceSynthSpec, a) for a in apps),
            seed=_seed, noise_std=check_nonnegative, period=float, duration=float, start=float,
            gaps=lambda gaps: tuple((float(a), float(b)) for a, b in gaps),
            dropout_probability=float,
        )
        if not self.appliances:
            raise ValueError("spec needs at least one appliance")
        names = [a.name for a in self.appliances]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"appliance name {name!r} is repeated")
        # Written as an "inside" test, so NaN fails too.
        if not 0 <= self.dropout_probability < 1:
            raise ValueError(f"dropout_probability must be in [0, 1), got {self.dropout_probability!r}")
        check_period(self.period)
        check_period(self.duration, "duration")
        # JSON has no text for a non-finite value, so synth_spec.json could not hold one.
        for t in (self.start, *sum(self.gaps, ())):
            check_finite(t, "start and every gap bound")

    def to_json_text(self) -> str:
        return json_text(asdict(self))

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthSpec":
        return _from_fields(cls, raw)

    @classmethod
    def from_json_text(cls, text: str) -> "SynthSpec":
        return cls.from_dict(json.loads(text))


def _sample_chain(rng: np.random.Generator, spec: ApplianceSynthSpec, n: int) -> np.ndarray:
    """n chain states, state t drawn by inverse CDF from uniform draw t.

    All draws come first, so the successor of every possible previous state
    is looked up for all draws at once.  A draw t >= 1 at which every state
    is its own successor keeps the state, whatever it is, so only the other
    draws (the moves) are walked in sequence, and the runs between them are
    filled by ``np.repeat``.  The states are those of one lookup per draw,
    and the walk never takes more steps than there are draws.
    """
    u = rng.random(n)
    # The clip guards against u landing on a cumulative 1.0 boundary.
    last = spec.K - 1
    first = min(int(np.searchsorted(np.cumsum(spec.pi), u[0], side="right")), last)
    successor = [
        np.minimum(np.searchsorted(row, u, side="right"), last)
        for row in np.cumsum(np.asarray(spec.A), axis=1)
    ]
    moves = np.zeros(n, dtype=bool)
    for k, row in enumerate(successor):
        moves[1:] |= row[1:] != k
    at = np.flatnonzero(moves)
    # Rebinding frees the full successor arrays before the states are built.
    successor = [row[at].tolist() for row in successor]
    walk = accumulate(range(at.size), lambda s, i: successor[s][i], initial=first)
    run_lengths = np.diff(at, prepend=0, append=n)
    return np.repeat(np.fromiter(walk, dtype=np.int64, count=at.size + 1), run_lengths)


def _apply_faults(
    c: Channel, spec: SynthSpec, rng: np.random.Generator
) -> Channel:
    keep = outside_gaps(c.timestamps, spec.gaps)
    if spec.dropout_probability > 0:
        keep &= rng.random(len(c)) >= spec.dropout_probability
    return c.take(keep)


def generate(spec: SynthSpec) -> tuple[DataSet, dict[str, np.ndarray]]:
    """Sample a synthetic building; returns the dataset and true state series.

    Per appliance: a Markov chain from (pi, A), power = state mean plus
    Gaussian state noise.  Mains = sum of appliance powers plus aggregate
    noise, floored at 0 W.  Fault injection (gaps, dropout) runs last, so
    true states always cover the full grid.  Each appliance's true states
    are in the smallest unsigned dtype that holds K - 1 (uint8 up to 256
    states).
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
        # The int64 chain indexes faster than a narrow one (3-5 % of
        # ``generate``), so only the kept copy is narrowed.
        states = _sample_chain(rng, a, n)
        power = np.asarray(a.means, dtype=np.float64)[states]
        stds = np.asarray(a.stds)[states]
        power += rng.standard_normal(n) * stds if np.any(stds) else 0.0
        power.setflags(write=False)
        true_states[a.name] = states.astype(np.min_scalar_type(a.K - 1))
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
