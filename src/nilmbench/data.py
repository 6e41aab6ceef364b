"""Core in-memory data model shared by every pipeline stage.

A household dataset is a tree: ``DataSet`` -> ``Building`` -> ``Channel``.
A channel is a timestamped series of electrical measurements for one meter.
Missing samples are represented by absent rows, never by NaN placeholders;
downstream code treats inter-row spacing above a threshold as a gap.

Timestamps are UTC epoch seconds stored as float64.  Timezone rendering, when
needed at all, happens at the CLI edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

QUANTITIES = ("power", "voltage", "energy")
VARIANTS = ("active", "apparent", "reactive", "none")


@dataclass(frozen=True, order=True)
class Measurement:
    """A physical quantity recorded by a meter, e.g. active power.

    Voltage carries no variant.  ``(power, active)`` is the default feature
    for disaggregation.
    """

    quantity: str
    variant: str = "none"

    def __post_init__(self) -> None:
        if self.quantity not in QUANTITIES:
            raise ValueError(f"unknown quantity {self.quantity!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.quantity == "voltage" and self.variant != "none":
            raise ValueError("voltage has no variant")

    @property
    def column_name(self) -> str:
        """Column header used in the on-disk CSV schema."""
        if self.variant == "none":
            return self.quantity
        return f"{self.quantity}_{self.variant}"

    @classmethod
    def from_column_name(cls, name: str) -> "Measurement":
        if name in QUANTITIES:
            return cls(name)
        quantity, _, variant = name.partition("_")
        if quantity in QUANTITIES and variant in VARIANTS:
            return cls(quantity, variant)
        raise ValueError(f"unknown measurement {name!r}")


POWER_ACTIVE = Measurement("power", "active")
POWER_APPARENT = Measurement("power", "apparent")
POWER_REACTIVE = Measurement("power", "reactive")
VOLTAGE = Measurement("voltage")
ENERGY = Measurement("energy")


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Channel:
    """Timestamped measurement series for one meter.

    ``timestamps`` are epoch seconds, expected strictly increasing.  Every
    column has the same length as ``timestamps``.  ``nominal_period`` is the
    expected sample spacing in seconds, supplied at import time; dropout-rate
    diagnostics need it to derive an expected sample count.

    Instances are immutable; all operations return new channels.
    Structural invariants (column lengths, positive period) are enforced
    here.  Data-quality invariants (monotone timestamps, finite values) are
    enforced by loaders and reported by :func:`validate_building`.
    """

    id: str
    timestamps: np.ndarray
    columns: dict[Measurement, np.ndarray]
    nominal_period: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "timestamps", _frozen(self.timestamps))
        object.__setattr__(
            self, "columns", {m: _frozen(v) for m, v in self.columns.items()}
        )
        if self.timestamps.ndim != 1:
            raise ValueError(f"channel {self.id}: timestamps must be 1-D")
        for m, v in self.columns.items():
            if v.shape != self.timestamps.shape:
                raise ValueError(
                    f"channel {self.id}: column {m.column_name} has length "
                    f"{v.size}, expected {self.timestamps.size}"
                )
        if not (self.nominal_period > 0):
            raise ValueError(f"channel {self.id}: nominal_period must be > 0")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def span(self) -> float:
        """Last minus first timestamp; 0 for channels with < 2 samples."""
        if len(self) < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def has(self, m: Measurement) -> bool:
        return m in self.columns

    def values(self, m: Measurement) -> np.ndarray:
        if m not in self.columns:
            raise KeyError(f"channel {self.id} has no {m.column_name} column")
        return self.columns[m]

    def take(self, selector) -> "Channel":
        """New channel with rows selected by a boolean mask or index array."""
        return Channel(
            id=self.id,
            timestamps=self.timestamps[selector],
            columns={m: v[selector] for m, v in self.columns.items()},
            nominal_period=self.nominal_period,
        )

    def with_columns(self, columns: dict[Measurement, np.ndarray]) -> "Channel":
        return Channel(self.id, self.timestamps, columns, self.nominal_period)


def select_window(c: Channel, start: float, end: float) -> Channel:
    """Rows with ``start <= t < end``.  An empty result is legal."""
    if not start < end:
        raise ValueError("select_window requires start < end")
    mask = (c.timestamps >= start) & (c.timestamps < end)
    return c.take(mask)


def outside_gaps(t: np.ndarray, gaps) -> np.ndarray:
    """Mask of the timestamps strictly inside none of the ``(start, end)`` gaps.

    Gaps are open intervals and may overlap.
    """
    keep = np.ones(t.size, dtype=bool)
    for start, end in gaps:
        keep &= ~((t > start) & (t < end))
    return keep


# ---------------------------------------------------------------------------
# Buildings and datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Building:
    """Mains, circuit and appliance channels for one household.

    ``appliances`` maps canonical appliance names to channels (repeated
    instances get a ``_<k>`` suffix, e.g. ``lighting_2``).  ``wiring`` is a
    list of (parent meter id, child meter id) edges forming a forest rooted
    at the mains meters.
    """

    id: int
    mains: tuple[Channel, ...] = ()
    circuits: tuple[Channel, ...] = ()
    appliances: dict[str, Channel] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    wiring: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "mains", tuple(self.mains))
        object.__setattr__(self, "circuits", tuple(self.circuits))
        object.__setattr__(
            self, "wiring", tuple((str(p), str(c)) for p, c in self.wiring)
        )

    def channels(self):
        """Yield (role, name, channel) over mains, circuits and appliances."""
        for i, c in enumerate(self.mains, start=1):
            yield "mains", c.id or f"mains_{i}", c
        for c in self.circuits:
            yield "circuits", c.id, c
        for name, c in self.appliances.items():
            yield "appliances", name, c


@dataclass(frozen=True)
class DataSet:
    """A named collection of buildings, keyed by integer building id."""

    name: str
    buildings: dict[int, Building] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Gap:
    """Interval between consecutive samples exceeding the gap threshold."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError("gap end must be after start")

    @property
    def duration(self) -> float:
        return self.end - self.start


def is_aligned(b: Building) -> bool:
    """True when all mains and appliance channels share identical timestamps."""
    used = list(b.mains) + list(b.appliances.values())
    if len(used) <= 1:
        return True
    first = used[0].timestamps
    return all(np.array_equal(c.timestamps, first) for c in used[1:])


def mains_total(b: Building, feature: Measurement = POWER_ACTIVE) -> Channel:
    """Sum the mains channels' ``feature`` into one aggregate channel.

    Requires every mains channel to share an identical timestamp index
    (run intersect_with_mains first when phases disagree).
    """
    if not b.mains:
        raise ValueError(f"building {b.id} has no mains channel")
    first = b.mains[0]
    if len(b.mains) == 1:
        return first
    total = first.values(feature).copy()
    for c in b.mains[1:]:
        if not np.array_equal(c.timestamps, first.timestamps):
            raise ValueError(
                f"building {b.id}: mains channels are not aligned; "
                "run intersect_with_mains first"
            )
        total += c.values(feature)
    return Channel(
        id="mains_total",
        timestamps=first.timestamps,
        columns={feature: total},
        nominal_period=first.nominal_period,
    )


# ---------------------------------------------------------------------------
# Appliance vocabulary
# ---------------------------------------------------------------------------

CANONICAL_LABELS = frozenset(
    {
        "air_conditioner",
        "air_handler",
        "bathroom_gfi",
        "boiler",
        "computer",
        "clothes_dryer",
        "dishwasher",
        "disposal",
        "electric_heat",
        "electronics",
        "entertainment_unit",
        "fan",
        "freezer",
        "fridge",
        "fridge_freezer",
        "furnace",
        "garage",
        "heat_pump",
        "iron",
        "kettle",
        "laptop_computer",
        "lighting",
        "microwave",
        "misc",
        "outlets",
        "oven",
        "smoke_alarm",
        "stove",
        "subpanel",
        "television",
        "toaster",
        "vacuum_cleaner",
        "washer_dryer",
        "washing_machine",
        "water_heater",
        "water_pump",
    }
)

# Dataset-independent synonyms.
_GLOBAL_LABEL_MAP = {
    "refrigerator": "fridge",
    "tv": "television",
    "ac": "air_conditioner",
    "air_conditioning": "air_conditioner",
    "aircon": "air_conditioner",
    "dish_washer": "dishwasher",
    "washer": "washing_machine",
    "dryer": "clothes_dryer",
    "tumble_dryer": "clothes_dryer",
    "laptop": "laptop_computer",
    "pc": "computer",
    "lights": "lighting",
    "light": "lighting",
}

# Per-dataset raw-label maps (keys are normalised: lower case, underscores).
# Dataset keys are upper case with separators stripped.  Coverage is limited
# to labels appearing in the supported datasets.
_DATASET_LABEL_MAPS: dict[str, dict[str, str]] = {
    "REDD": {
        "refrigerator": "fridge",
        "dishwaser": "dishwasher",  # sic, label as shipped
        "furance": "furnace",  # sic
        "kitchen_outlets": "outlets",
        "outlets_unknown": "outlets",
        "washer_dryer": "washer_dryer",
        "smoke_alarms": "smoke_alarm",
        "air_conditioning": "air_conditioner",
        "miscellaeneous": "misc",  # sic
        "electric_heat": "electric_heat",
        "bathroom_gfi": "bathroom_gfi",
    },
    "AMPDS": {
        "fge": "fridge",
        "hpe": "heat_pump",
        "cde": "clothes_dryer",
        "cwe": "washing_machine",
        "dwe": "dishwasher",
        "woe": "oven",
        "tve": "television",
        "fre": "furnace",
        "hte": "water_heater",
        "gre": "garage",
        "b1e": "outlets",
        "b2e": "outlets",
        "bme": "outlets",
        "ofe": "outlets",
        "ute": "outlets",
        "ebe": "outlets",
        "oue": "outlets",
    },
    "IAWE": {
        "air_conditioner": "air_conditioner",
        "washing_machine": "washing_machine",
        "laptop_computer": "laptop_computer",
        "clothes_iron": "iron",
        "kitchen_outlets": "outlets",
        "entertainment_unit": "entertainment_unit",
        "water_motor": "water_pump",
        "water_filter": "water_pump",
    },
    "UKDALE": {
        "home_theatre_pc": "computer",
        "kitchen_lights": "lighting",
        "led_kitchen_lights": "lighting",
        "solar_thermal_pump": "water_pump",
        "gas_boiler": "boiler",
    },
    "SMART": {
        "refrigerator": "fridge",
        "dryer": "clothes_dryer",
    },
    "PECANSTREET": {
        "air": "air_conditioner",
        "furnace": "furnace",
        "refrigerator": "fridge",
    },
}

_INSTANCE_SUFFIX = re.compile(r"_(\d+)$")


def _normalise(raw: str) -> str:
    return re.sub(r"[\s\-]+", "_", raw.strip().lower())


def canonical_label(raw: str, dataset: str = "") -> str:
    """Map a dataset-specific appliance label to the standard vocabulary.

    Returns the canonical name when a mapping exists; otherwise returns the
    raw label unchanged (``validate_building`` flags such labels as unknown).
    A trailing ``_<k>`` instance suffix is preserved.
    """
    norm = _normalise(raw)
    suffix = ""
    m = _INSTANCE_SUFFIX.search(norm)
    base = norm
    if m:
        base, suffix = norm[: m.start()], norm[m.start() :]
    dataset_key = re.sub(r"[^A-Z0-9]", "", dataset.upper())
    for table in (
        _DATASET_LABEL_MAPS.get(dataset_key, {}),
        _GLOBAL_LABEL_MAP,
    ):
        if norm in table:
            return table[norm]
        if base in table:
            return table[base] + suffix
    if norm in CANONICAL_LABELS or base in CANONICAL_LABELS:
        return norm
    return raw


def is_canonical(label: str) -> bool:
    base = _INSTANCE_SUFFIX.sub("", _normalise(label))
    return base in CANONICAL_LABELS


def dataset_label_map(dataset: str) -> dict[str, str]:
    """The raw-to-canonical appliance label map shipped for one dataset."""
    key = re.sub(r"[^A-Z0-9]", "", dataset.upper())
    return dict(_DATASET_LABEL_MAPS.get(key, {}))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    channel: str | None
    rule: str
    detail: str

    def __str__(self) -> str:
        where = f"[{self.channel}] " if self.channel else ""
        return f"{where}{self.rule}: {self.detail}"


def _check_channel(name: str, c: Channel, out: list[Violation]) -> None:
    t = c.timestamps
    if t.size >= 2:
        diffs = np.diff(t)
        if np.any(diffs < 0):
            out.append(
                Violation(name, "non-monotone timestamps", "timestamps decrease")
            )
        elif np.any(diffs == 0):
            out.append(
                Violation(name, "non-monotone timestamps", "duplicate timestamps")
            )
    for m, v in c.columns.items():
        if v.size and not np.all(np.isfinite(v)):
            out.append(
                Violation(
                    name,
                    "non-finite values",
                    f"column {m.column_name} contains NaN or infinity",
                )
            )


def validate_building(b: Building) -> list[Violation]:
    """Check every type invariant; returns an empty list iff all hold.

    Violations are data, not errors: callers decide whether to proceed.
    """
    out: list[Violation] = []
    if b.id < 1:
        out.append(Violation(None, "invalid building id", f"id={b.id}"))
    for role, name, c in b.channels():
        _check_channel(f"{role}/{name}", c, out)
    for name in b.appliances:
        if not is_canonical(name):
            out.append(
                Violation(
                    f"appliances/{name}",
                    "unknown appliance label",
                    f"{name!r} is not in the canonical vocabulary",
                )
            )
    _check_wiring(b, out)
    return out


def _check_wiring(b: Building, out: list[Violation]) -> None:
    if not b.wiring:
        return
    mains_ids = {c.id for c in b.mains}
    parent_of: dict[str, str] = {}
    for parent, child in b.wiring:
        if child in parent_of:
            out.append(
                Violation(
                    None, "wiring not a forest", f"{child!r} has multiple parents"
                )
            )
            return
        parent_of[child] = parent
    for node in parent_of:
        seen = {node}
        cur = node
        while cur in parent_of:
            cur = parent_of[cur]
            if cur in seen:
                out.append(
                    Violation(None, "wiring not a forest", f"cycle through {cur!r}")
                )
                return
            seen.add(cur)
        if cur not in mains_ids:
            out.append(
                Violation(
                    None,
                    "wiring not a forest",
                    f"root {cur!r} is not a mains meter",
                )
            )
            return
