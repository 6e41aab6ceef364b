"""Core in-memory data model shared by every pipeline stage.

A household dataset is a tree: ``DataSet`` -> ``Building`` -> ``Channel``.
A channel is a timestamped series of electrical measurements for one meter.
Missing samples are represented by absent rows, never by NaN placeholders;
spacing above a threshold is a gap (the gap rule, :func:`gap_breaks`), held
as the ``(start, end)`` pair of sample times around it (:class:`Gap`).

Each value rule is stated here once, for every stage, converter and option:
:func:`check_period`, :func:`integer`, :func:`check_count`, :func:`check_fraction`,
:func:`check_finite`, :func:`check_number` and :func:`check_nonnegative`.  Each
fails with ``<name> must be <requirement>, got <value>``; an empty name is
left out.  The rules on real values take numbers only, not their text or a
bool.  So are the building preconditions, :func:`check_mains` and
:func:`check_aligned`, and the timestamp order, :func:`first_out_of_order`.

Timestamps are UTC epoch seconds stored as float64, in the order that
:class:`Channel` enforces.  Timezone rendering happens at the CLI edge.

Channel arrays are read-only float64, and each series is held once: a channel
shares an input array that nothing can write (see :class:`Channel`), so the
channels of one grid share one timestamp array and a slice of a channel is a
view.  Every other input is copied once on the way in.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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
    """``values`` itself if nothing can write it, else a read-only copy.

    An array is shared when it is a C-contiguous float64 ndarray and it and
    every array on its ``.base`` chain are read-only, the last one owning its
    memory.  A read-only view of a writable array is copied, as is any other
    input.
    """
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.c_contiguous
        and _read_only_chain(values)
    ):
        return values
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


def _read_only_chain(arr: np.ndarray) -> bool:
    while True:
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        if type(arr.base) is not np.ndarray:
            return False
        arr = arr.base


# ---------------------------------------------------------------------------
# Channel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Channel:
    """Timestamped measurement series for one meter.

    ``timestamps`` are epoch seconds, finite and strictly increasing
    (:func:`first_out_of_order`); every column has their length.
    ``nominal_period`` is the expected sample spacing in seconds, supplied at
    import time; dropout-rate diagnostics derive an expected count from it.

    Instances are immutable; all operations return new channels.  The arrays
    are read-only float64.  An input array is shared, not copied, when it is
    C-contiguous float64 and read-only down to the array that owns its
    memory; every other input (a writable array, a read-only view of a
    writable one, a non-contiguous view such as a column of a 2-D table, a
    list, another dtype) is copied.  A caller that turns ``WRITEABLE`` back
    on for an array it owns, after a channel took it, breaks that contract.

    The timestamp order, column lengths and a finite positive period are
    enforced at construction; the order's ``ValueError`` names the first
    row that breaks it.  Finite values are enforced by loaders and reported
    by :func:`validate_building`.
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
        check_period(self.nominal_period, f"channel {self.id}: nominal_period")
        if (row := first_out_of_order(self.timestamps)) is not None:
            t = self.timestamps.tolist()
            raise ValueError(f"channel {self.id}: timestamps must be finite and strictly increasing, "
                             f"got {t[row]!r}{f' after {t[row - 1]!r}' if row else ''} at row {row}")

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
        """Channel with rows selected by a boolean mask, an index array or a
        slice.  A mask that keeps every row returns this channel itself; a
        slice of unit step shares this channel's memory; any other mask or
        index array copies each row once.  Rows must stay in time order."""
        mask = isinstance(selector, np.ndarray) and selector.dtype == np.bool_
        if mask and selector.shape == self.timestamps.shape and selector.all():
            return self

        def rows(v: np.ndarray) -> np.ndarray:
            v = v[selector]
            v.setflags(write=False)
            return v

        return Channel(
            id=self.id,
            timestamps=rows(self.timestamps),
            columns={m: rows(v) for m, v in self.columns.items()},
            nominal_period=self.nominal_period,
        )

    def with_columns(self, columns: dict[Measurement, np.ndarray]) -> "Channel":
        return Channel(self.id, self.timestamps, columns, self.nominal_period)


def first_out_of_order(t: np.ndarray) -> int | None:
    """The order rule for timestamps: the index of the first one that is not
    finite or not above the one before it (so ``-0.0`` after ``0.0`` is a
    repeat), or None.  :class:`Channel` and the loaders' array parse apply it."""
    rising = t[1:] > t[:-1]  # False at and after a NaN
    # Stamps that rise between finite ends are all finite.
    if t.size == 0 or math.isfinite(t[0]) and math.isfinite(t[-1]) and rising.all():
        return None
    bad = ~np.isfinite(t)
    bad[1:] |= ~rising
    return int(np.argmax(bad))


def select_window(c: Channel, start: float, end: float) -> Channel:
    """Rows with ``start <= t < end``, a view.  An empty result is legal."""
    if not start < end:
        raise ValueError("select_window requires start < end")
    return c.take(slice(*np.searchsorted(c.timestamps, [start, end], "left")))


# One lost packet should not register as a gap, hence the 3x default.
DEFAULT_GAP_FACTOR = 3.0


class Gap(NamedTuple):
    """``(start, end)`` times of consecutive samples further apart than the gap
    threshold, as :func:`outside_gaps` and ``SynthSpec.gaps`` take them."""

    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def gap_breaks(c: Channel, threshold: float | None = None) -> np.ndarray:
    """One flag per consecutive sample pair: True where the two samples are
    more than ``threshold`` apart (default ``3 * nominal_period``).

    This is the gap rule; every diagnostic, statistic and trainer that stops
    at gaps reads it here.
    """
    if threshold is None:
        threshold = DEFAULT_GAP_FACTOR * c.nominal_period
    return np.diff(c.timestamps) > check_period(threshold, "gap threshold")


def outside_gaps(t: np.ndarray, gaps) -> np.ndarray:
    """Mask of the timestamps strictly inside none of the ``(start, end)`` gaps.

    Gaps are open intervals and may overlap.
    """
    keep = np.ones(t.size, dtype=bool)
    for start, end in gaps:
        keep &= ~((t > start) & (t < end))
    return keep


def _require(value, ok: bool, requirement: str, name: str):
    """``value`` if ``ok``, else ValueError ``<name> must be <requirement>, got <value>``."""
    if not ok:
        raise ValueError(f"{name} must be {requirement}, got {value!r}".lstrip())
    return value


def _real(value) -> bool:
    """Whether ``value`` is a real number: not a bool, and not text."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_period(period, name: str = "period") -> float:
    """``period`` as a float if it is finite and > 0: the rule for a sample
    period, bin width or gap threshold, in seconds."""
    ok = _real(period) and math.isfinite(period) and period > 0
    return float(_require(period, ok, "finite and > 0", name))


def integer(value, name: str = "") -> int:
    """An integral number, such as 2 or 2.0; not a bool, a string or 2.7."""
    ok = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    return int(_require(value, ok and not isinstance(value, bool), "an integer", name))


def check_count(value, name: str = "") -> int:
    """``value`` as an integer if it is >= 1."""
    k = integer(value, name)
    return _require(k, k >= 1, ">= 1", name)


def check_finite(value, name: str = "") -> float:
    """``value`` as a float if it is finite."""
    return float(_require(value, _real(value) and math.isfinite(value), "finite", name))


def check_number(value, name: str = "") -> float:
    """``value`` as a float if it is a number other than NaN: the rule for a
    bound, which may be infinite."""
    return float(_require(value, _real(value) and not math.isnan(value), "a number, not NaN", name))


def check_nonnegative(value, name: str = "") -> float:
    """``value`` as a float if it is finite and >= 0: the rule for a
    standard deviation."""
    return float(_require(value, _real(value) and 0 <= value < math.inf, "finite and >= 0", name))


def check_fraction(value, name: str = "") -> float:
    """``value`` as a float if it lies in (0, 1)."""
    return float(_require(value, _real(value) and 0 < value < 1, "in (0, 1)", name))


def check_channel_id(name) -> None:
    """Raise ValueError unless ``name`` can name a channel's file: exactly
    one path component, so not empty, ``.`` or ``..``, and without ``/``,
    ``\\`` or NUL."""
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ValueError(
            f"channel id {name!r} must be one path component: not empty, '.' or '..', "
            "and without '/', '\\' or NUL"
        )


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


def is_aligned(b: Building) -> bool:
    """True when all mains and appliance channels share identical timestamps."""
    used = [c.timestamps for c in (*b.mains, *b.appliances.values())]
    return all(np.array_equal(t, used[0]) for t in used[1:])


def check_mains(b: Building) -> None:
    if not b.mains:
        raise ValueError(f"building {b.id} has no mains channel")


def check_aligned(b: Building) -> None:
    if not is_aligned(b):
        raise ValueError(f"building {b.id} channels are not aligned; run intersect_with_mains first")


def mains_total(b: Building, feature: Measurement = POWER_ACTIVE) -> Channel:
    """Sum the mains channels' ``feature`` into one aggregate channel; one
    mains channel is its own total.

    Every mains channel must hold ``feature`` and share one timestamp index
    (run intersect_with_mains first when phases disagree).
    """
    check_mains(b)
    check_aligned(replace(b, appliances={}))  # the mains alone
    first, *rest = b.mains
    total = first.values(feature)  # a mains without ``feature`` fails here, one or many
    if not rest:
        return first
    for c in rest:
        total = total + c.values(feature)
    total.setflags(write=False)
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


def validate_building(b: Building) -> list[Violation]:
    """Check the invariants a :class:`Channel` does not enforce (a valid
    id, finite values, canonical labels, a wiring forest); returns an empty
    list iff all hold.

    Violations are data, not errors: callers decide whether to proceed.
    """
    out: list[Violation] = []
    if b.id < 1:
        out.append(Violation(None, "invalid building id", f"id={b.id}"))
    for role, name, c in b.channels():
        for m, v in c.columns.items():
            if not np.isfinite(v).all():
                detail = f"column {m.column_name} contains NaN or infinity"
                out.append(Violation(f"{role}/{name}", "non-finite values", detail))
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
