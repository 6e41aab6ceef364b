"""Dataset and model persistence.

On-disk dataset layout (one directory per dataset):

    <root>/metadata.json
    <root>/house_<i>/metadata.json
    <root>/house_<i>/ambient/                 (reserved, kept empty)
    <root>/house_<i>/external/                (reserved, kept empty)
    <root>/house_<i>/utility/electricity/mains/mains_<j>.csv
    <root>/house_<i>/utility/electricity/circuits/<name>.csv
    <root>/house_<i>/utility/electricity/appliances/<name>.csv
    <root>/house_<i>/utility/electricity/wiring.json
    <root>/house_<i>/utility/gas/             (pass-through, kept empty)
    <root>/house_<i>/utility/water/           (pass-through, kept empty)

Channel CSVs have a mandatory header: first column ``timestamp`` (epoch
seconds), remaining columns named ``<quantity>_<variant>`` (``power_active``,
``voltage``, ...).  A timestamp is written with up to 6 decimal places when
that text reads back as the same float, else with shortest round-trip
formatting; values always use shortest round-trip formatting.  So a
save/load cycle preserves timestamps and values bit-for-bit.  Loading
rejects non-numeric or non-finite values and timestamps, and timestamps that
do not strictly increase, naming the file and line.

Channels are written in blocks of 4096 rows.  A building's channels that
share a timestamp column (one array, or arrays equal bit for bit, so 0.0
and -0.0 differ) are written together with all their files open, and each
block's timestamp texts are formatted once for all of them.  A block's
lines are assembled in one (rows, width) byte buffer and written with one
``write``: a block of whole stamps >= 0 as digit columns, any other block
from each stamp's text; each value column by gathering the ``repr`` of each
distinct float in it; commas and newlines as constant columns.  Texts
shorter than their column are padded with NUL bytes, which are dropped
before the write.  The bytes are those of formatting every cell on its own
by the rules above.  A circuit id or appliance name must be one path
component (:func:`~nilmbench.data.check_channel_id`); every one is checked
before anything is written.

Both text formats read here, channel CSVs and the whitespace-separated
``channel_<j>.dat`` files of :func:`import_redd_style`, go through one
``np.loadtxt`` parse checked on the arrays.  A file that fails the parse or
a check is read again line by line: that loop alone reports bad rows,
raising on the first bad CSV line and skipping and counting bad ``.dat``
rows in the :class:`ImportReport`.  The JSON side files, ``metadata.json``
and ``wiring.json``, are read and checked by one helper that names the file
in its errors.

Learned models persist as JSON: an ``algorithm`` tag plus per-appliance state
means/stds, and for the factorial model additionally pi, the transition
matrix and the aggregate noise variance.

Text formats.  Every JSON file is :func:`json_text` (sorted keys, indent 2,
strict: no NaN or infinity) plus a newline, in UTF-8 (:func:`write_json`).
Every report CSV is :func:`csv_text`: a float cell, Python or numpy, is
``repr(float(x))``, which reads back bit for bit; an integer cell is its
digits; any other cell is ``str(x)``.
"""

from __future__ import annotations

import json
import re
import warnings
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    Building,
    Channel,
    DataSet,
    Measurement,
    POWER_ACTIVE,
    canonical_label,
    check_channel_id,
    check_period,
)
from .training import (
    ApplianceHMM,
    ApplianceStateModel,
    COModel,
    FHMMModel,
)

_HOUSE_DIR = re.compile(r"^house_(\d+)$")
_CHANNEL_FILE = re.compile(r"^channel_(\d+)\.dat$")


class SchemaError(ValueError):
    """A dataset directory or model file violates the expected schema."""


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def json_text(obj) -> str:
    """``obj`` as JSON text: keys sorted, indent 2, no trailing newline.  A
    NaN or infinity, which strict JSON has no text for, is a ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def write_json(path: str | Path, obj) -> None:
    """Write :func:`json_text` of ``obj`` and a newline to ``path`` as UTF-8."""
    Path(path).write_text(json_text(obj) + "\n", encoding="utf-8")


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def csv_text(header, rows) -> str:
    """A header line of the names in ``header``, then one line per row."""
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


# Rows assembled and written per block, so the bytes held at once stay small.
_CSV_BLOCK_ROWS = 4096

# np.loadtxt strips these ASCII separators around a CSV field as whitespace;
# float() rejects them, so a CSV body holding one goes to the line loop.  In
# whitespace mode np.loadtxt splits fields where str.split() does, these
# characters included.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _format_timestamp(t: float) -> str:
    """Up to 6 decimal places when that text reads back as ``t``, else repr."""
    s = f"{t:.6f}".rstrip("0").rstrip(".")
    s = s if s else "0"
    return s if float(s) == t else repr(t)


def _timestamp_table(t: np.ndarray) -> np.ndarray:
    """:func:`_format_timestamp` of each element of ``t``: a (rows, width)
    uint8 array of ASCII texts, each padded with NUL bytes to the widest.

    A block of whole stamps >= 0, the regular case, is written digit column
    by digit column, as a whole float's text is ``str(int(x))``, with NUL
    in place of leading zeros.  ``signbit`` sends -0.0, whose text is "-0",
    to the per-stamp texts, and the range test is False for NaN and inf.
    """
    hi = t.max()
    if hi < 2.0**63 and not np.signbit(t).any() and (t == np.trunc(t)).all():
        ints = t.astype(np.int64)
        width = len(str(int(hi)))
        digits = np.empty((t.size, width), np.uint8)
        rest, digit = ints.copy(), np.empty_like(ints)
        for k in range(width - 1, -1, -1):
            np.divmod(rest, 10, out=(rest, digit))
            digits[:, k] = digit
        digits += ord("0")
        if len(str(int(t.min()))) < width:
            # Column k < width - 1 is a leading zero where the stamp is
            # below 10 ** (width - 1 - k).
            digits[:, :-1][ints[:, None] < 10 ** np.arange(width - 1, 0, -1)] = 0
        return digits
    texts = np.array(list(map(_format_timestamp, t.tolist())), dtype="S")
    return texts.view(np.uint8).reshape(t.size, texts.itemsize)


def _value_table(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(texts, index): the ``repr`` of each distinct float of ``v`` as a
    NUL-padded ``S`` array, and for each element of ``v`` its text's index."""
    # Distinct bit patterns, so that 0.0 and -0.0 keep their own text.
    bits, index = np.unique(v.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype="S"), index


def _block_lines(stamps: np.ndarray, values) -> np.ndarray:
    """The bytes of one block of CSV lines: row r of ``stamps``, then for
    each (texts, index) of ``values`` the text ``texts[index[r]]``,
    comma-separated.

    Every field is copied or gathered into its columns of one (rows, width)
    uint8 buffer, and the NUL bytes that pad the shorter texts are then
    dropped, unless no field has any.
    """
    rows, end = stamps.shape
    buf = np.empty((rows, end + sum(texts.itemsize + 1 for texts, _ in values) + 1), np.uint8)
    buf[:, :end] = stamps
    for texts, index in values:
        buf[:, end] = ord(",")
        start, end = end + 1, end + 1 + texts.itemsize
        np.take(texts, index, out=buf[:, start:end].view(texts.dtype)[:, 0], mode="clip")
    buf[:, end] = ord("\n")
    padded = not stamps.all() or not all(texts.view(np.uint8).all() for texts, _ in values)
    return buf[buf != 0] if padded else buf


def _timestamp_groups(entries):
    """``entries`` of (key, channel) grouped by timestamp array: one group
    per array, bit-equal copies joining the first, so that 0.0 and -0.0
    stay apart."""
    groups: list[list] = []
    for entry in entries:
        t = entry[1].timestamps
        for group in groups:
            ref = group[0][1].timestamps
            if t is ref or np.array_equal(t.view(np.int64), ref.view(np.int64)):
                group.append(entry)
                break
        else:
            groups.append([entry])
    return groups


def _write_csv_group(elec: Path, group) -> None:
    """Write each (key, channel) of ``group``, channels sharing one timestamp
    column, to ``elec/<key>.csv``: block by block with every file open, each
    block's timestamp texts formatted once and each file's lines written as
    one buffer."""
    t = group[0][1].timestamps
    with ExitStack() as stack:
        outs = []
        for key, c in group:
            f = stack.enter_context((elec / f"{key}.csv").open("wb"))
            measurements = sorted(c.columns, key=lambda m: m.column_name)
            header = ",".join(["timestamp"] + [m.column_name for m in measurements])
            f.write(header.encode("utf-8") + b"\n")
            outs.append((f, [c.columns[m] for m in measurements]))
        for start in range(0, t.size, _CSV_BLOCK_ROWS):
            rows = slice(start, start + _CSV_BLOCK_ROWS)
            stamps = _timestamp_table(t[rows])
            for f, cols in outs:
                f.write(_block_lines(stamps, [_value_table(v[rows]) for v in cols]))


def _read_channel_csv(path: Path, channel_id: str, nominal_period: float) -> Channel:
    with path.open("r", encoding="utf-8") as f:
        header = f.readline().strip()
        if not header:
            raise SchemaError(f"{path}: missing header row")
        names = header.split(",")
        if names[0] != "timestamp":
            raise SchemaError(f"{path}: first column must be 'timestamp'")
        try:
            measurements = [Measurement.from_column_name(n) for n in names[1:]]
        except ValueError as e:
            raise SchemaError(f"{path}: unknown measurement ({e})") from None
        body_start = f.tell()
        body = _parse_body(f, len(names), ",")
        if body is None:
            f.seek(body_start)
            body = _read_body_lines(path, f, len(names))
    return Channel(
        id=channel_id,
        timestamps=body[:, 0],
        columns={m: body[:, j] for j, m in enumerate(measurements, start=1)},
        nominal_period=nominal_period,
    )


def _parse_body(f, n_fields: int, delimiter: str | None) -> np.ndarray | None:
    """The rest of ``f`` as one (rows, n_fields) array, or None when the
    parse fails or a row breaks the schema: a wrong field count, a
    non-finite value or a timestamp that does not strictly increase.

    ``delimiter`` is ``","`` for CSV and None for whitespace.  None sends
    the file to its line loop (:func:`_read_body_lines` or
    :func:`_read_flat_lines`), which reports the rows at fault; this parse
    accepts only files that loop reads without a report.
    """
    start = f.tell()
    try:
        text = f.read()
    except UnicodeDecodeError:
        # The line loop decodes as it goes, so a bad row before the bad
        # bytes is still the error it reports.
        return None
    if delimiter and any(c in text for c in _LOADTXT_ONLY_SPACE):
        return None
    del text
    f.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(f, delimiter=delimiter, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if (
        body.shape[1] != n_fields
        or not np.isfinite(body).all()
        or not (np.diff(body[:, 0]) > 0).all()
    ):
        return None
    return body


def _read_body_lines(path: Path, f, n_fields: int) -> np.ndarray:
    """The rows after the header, checked line by line; the first line that
    breaks the schema raises :class:`SchemaError` naming it."""
    rows: list[list[float]] = []
    for lineno, line in enumerate(f, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise SchemaError(f"{path}:{lineno}: expected {n_fields} fields, got {len(parts)}")
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise SchemaError(f"{path}:{lineno}: non-numeric value") from None
        t = row[0]
        if rows and t <= rows[-1][0]:
            kind = "duplicate" if t == rows[-1][0] else "non-monotone"
            raise SchemaError(f"{path}:{lineno}: {kind} timestamp {parts[0]}")
        if not all(np.isfinite(row[1:])):
            raise SchemaError(f"{path}:{lineno}: non-finite value")
        # Checked last, so a row that fails an earlier check keeps its message.
        if not np.isfinite(t):
            raise SchemaError(f"{path}:{lineno}: non-finite timestamp {parts[0]}")
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), n_fields)


# ---------------------------------------------------------------------------
# Dataset directory save/load
# ---------------------------------------------------------------------------


def save_dataset_dir(ds: DataSet, root: str | Path) -> None:
    """Write the canonical on-disk layout for a dataset.

    Every circuit id and appliance name is checked with
    :func:`~nilmbench.data.check_channel_id`, and a circuit id may not
    repeat, before anything is created."""
    for b in ds.buildings.values():
        circuit_ids = [c.id for c in b.circuits]
        for name in circuit_ids + list(b.appliances):
            check_channel_id(name)
        if len(set(circuit_ids)) < len(circuit_ids):
            raise ValueError(f"building {b.id}: a circuit id is repeated")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    write_json(root / "metadata.json", {"name": ds.name, "metadata": ds.metadata})
    for bid in sorted(ds.buildings):
        b = ds.buildings[bid]
        house = root / f"house_{bid}"
        elec = house / "utility" / "electricity"
        for sub in ("ambient", "external"):
            (house / sub).mkdir(parents=True, exist_ok=True)
        for sub in ("gas", "water"):
            (house / "utility" / sub).mkdir(parents=True, exist_ok=True)
        for sub in ("mains", "circuits", "appliances"):
            (elec / sub).mkdir(parents=True, exist_ok=True)
        # Keyed by the file's path below elec, without ".csv".
        channels = [(f"mains/mains_{j}", c) for j, c in enumerate(b.mains, start=1)]
        channels += [(f"circuits/{c.id}", c) for c in b.circuits]
        channels += [(f"appliances/{name}", b.appliances[name]) for name in sorted(b.appliances)]
        for group in _timestamp_groups(channels):
            _write_csv_group(elec, group)
        periods = {key: c.nominal_period for key, c in channels}
        write_json(elec / "wiring.json", {"edges": [list(e) for e in b.wiring]})
        write_json(
            house / "metadata.json",
            {"id": b.id, "metadata": b.metadata, "channel_periods": periods},
        )


def load_dataset_dir(root: str | Path) -> DataSet:
    """Inverse of :func:`save_dataset_dir` (also accepts hand-authored trees)."""
    root = Path(root)
    if not root.is_dir():
        raise SchemaError(f"{root}: not a directory")
    name = root.name
    metadata: dict = {}
    meta_path = root / "metadata.json"
    if meta_path.exists():
        raw = _read_side_file(meta_path)
        name = raw.get("name", name)
        metadata = raw.get("metadata", {})
    buildings: dict[int, Building] = {}
    for entry in sorted(p.name for p in root.iterdir() if p.is_dir()):
        m = _HOUSE_DIR.match(entry)
        if not m:
            continue
        bid = int(m.group(1))
        buildings[bid] = _load_house(root / entry, bid)
    return DataSet(name=name, buildings=buildings, metadata=metadata)


def _read_side_file(path: Path) -> dict:
    """The JSON object in a dataset's ``metadata.json`` or ``wiring.json``.

    A file that is not JSON or not an object, a ``metadata`` that is not an
    object, a period (``channel_periods`` entry or ``metadata.nominal_period``)
    that is not finite and > 0, or an ``edges`` entry that is not a [parent,
    child] pair raises :class:`SchemaError` naming the file.
    """
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise SchemaError(f"{path}: not valid JSON: {e}") from None

    def check(ok: bool, what: str) -> None:
        if not ok:
            raise SchemaError(f"{path}: {what}")

    check(isinstance(raw, dict), f"must be a JSON object, got {raw!r}")
    meta = raw.get("metadata", {})
    check(isinstance(meta, dict), f"'metadata' must be a JSON object, got {meta!r}")
    periods = raw.get("channel_periods", {})
    check(isinstance(periods, dict), f"'channel_periods' must be a JSON object, got {periods!r}")
    named = {f"channel_periods[{k!r}]": v for k, v in periods.items()}
    if "nominal_period" in meta:
        named["metadata.nominal_period"] = meta["nominal_period"]
    for where, period in named.items():
        try:
            check_period(period, where)
        except ValueError as e:
            raise SchemaError(f"{path}: {e}") from None
    edges = raw.get("edges", [])
    pairs = isinstance(edges, list) and all(isinstance(e, list) and len(e) == 2 for e in edges)
    check(pairs, f"'edges' must be a list of [parent, child] pairs, got {edges!r}")
    return raw


def _load_house(house: Path, bid: int) -> Building:
    meta_path = house / "metadata.json"
    b_meta: dict = {}
    periods: dict[str, float] = {}
    if meta_path.exists():
        raw = _read_side_file(meta_path)
        b_meta = raw.get("metadata", {})
        periods = raw.get("channel_periods", {})
    elec = house / "utility" / "electricity"

    def read_dir(sub: str) -> list[Channel]:
        """The channels of ``elec/<sub>/*.csv`` in file-name order."""
        default = b_meta.get("nominal_period", 1.0)
        return [
            _read_channel_csv(f, f.stem, float(periods.get(f"{sub}/{f.stem}", default)))
            for f in sorted((elec / sub).glob("*.csv"))
        ]

    mains, circuits, appliances = map(read_dir, ("mains", "circuits", "appliances"))
    wiring: tuple = ()
    wiring_path = elec / "wiring.json"
    if wiring_path.exists():
        edges = _read_side_file(wiring_path).get("edges", [])
        wiring = tuple((str(p), str(c)) for p, c in edges)
    else:
        warnings.warn(f"{wiring_path} missing; assuming empty wiring", stacklevel=2)
    return Building(
        id=bid,
        mains=tuple(mains),
        circuits=tuple(circuits),
        appliances={c.id: c for c in appliances},
        metadata=b_meta,
        wiring=wiring,
    )


# ---------------------------------------------------------------------------
# REDD-style importer
# ---------------------------------------------------------------------------


@dataclass
class ImportReport:
    """Row-level issues encountered while importing a raw dataset."""

    skipped: int = 0
    duplicates: int = 0
    details: list[str] = field(default_factory=list)

    def note(self, msg: str, cap: int = 50) -> None:
        if len(self.details) < cap:
            self.details.append(msg)


def import_redd_style(
    root: str | Path,
    dataset_name: str = "REDD",
    nominal_period: float = 3.0,
    mains_channels: tuple[int, ...] = (1, 2),
) -> tuple[DataSet, ImportReport]:
    """Import a directory of per-house flat files.

    Expected shape: ``house_<i>/labels.dat`` mapping channel number to a raw
    appliance label, and ``house_<i>/channel_<j>.dat`` rows of
    ``<epoch seconds> <watts>``.  Channels listed in ``mains_channels``
    become mains; all others become appliances with canonicalized labels.
    Malformed rows, undecodable bytes included, are skipped and counted;
    duplicate timestamps keep the first occurrence.
    """
    root = Path(root)
    if not root.is_dir():
        raise SchemaError(f"{root}: not a directory")
    report = ImportReport()
    houses = sorted(
        (int(m.group(1)), p)
        for p in root.iterdir()
        if p.is_dir() and (m := _HOUSE_DIR.match(p.name))
    )
    if not houses:
        raise SchemaError(f"{root}: no houses found")
    buildings: dict[int, Building] = {}
    for bid, house in houses:
        labels_path = house / "labels.dat"
        if not labels_path.exists():
            raise SchemaError(f"{labels_path}: missing labels file")
        labels: dict[int, str] = {}
        for lineno, line in enumerate(
            labels_path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            parts = line.split(maxsplit=1)
            # isdigit() also accepts digits such as "²" that int() rejects.
            if len(parts) != 2 or not parts[0].isdecimal():
                raise SchemaError(f"{labels_path}:{lineno}: malformed label row")
            labels[int(parts[0])] = parts[1].strip()
        mains = []
        appliances: dict[str, Channel] = {}
        label_counts: dict[str, int] = {}
        for f in sorted(house.glob("channel_*.dat")):
            m = _CHANNEL_FILE.match(f.name)
            if not m:
                continue
            ch_num = int(m.group(1))
            channel = _read_flat_file(f, nominal_period, report)
            if ch_num in mains_channels:
                mains.append((ch_num, channel))
            else:
                raw_label = labels.get(ch_num, f"channel_{ch_num}")
                canon = canonical_label(raw_label, dataset_name)
                label_counts[canon] = label_counts.get(canon, 0) + 1
                key = (
                    canon
                    if label_counts[canon] == 1
                    else f"{canon}_{label_counts[canon]}"
                )
                appliances[key] = replace(channel, id=key)
        mains_list = tuple(
            replace(c, id=f"mains_{i}")
            for i, (_, c) in enumerate(sorted(mains, key=lambda x: x[0]), start=1)
        )
        wiring = tuple(
            ("mains_1", name) for name in sorted(appliances)
        ) if mains_list else ()
        buildings[bid] = Building(
            id=bid,
            mains=mains_list,
            appliances=dict(sorted(appliances.items())),
            metadata={"source": dataset_name},
            wiring=wiring,
        )
    ds = DataSet(
        name=dataset_name,
        buildings=buildings,
        metadata={"import_skipped_rows": report.skipped},
    )
    return ds, report


def _read_flat_file(
    path: Path, nominal_period: float, report: ImportReport
) -> Channel:
    # Undecodable bytes become U+FFFD, so their row fails float() and is
    # skipped like any other malformed row.
    with path.open("r", encoding="utf-8", errors="replace") as f:
        body = _parse_body(f, 2, None)
        if body is None:
            f.seek(0)
            body = _read_flat_lines(path, f, report)
    return Channel(
        id=path.stem,
        timestamps=body[:, 0],
        columns={POWER_ACTIVE: body[:, 1]},
        nominal_period=nominal_period,
    )


def _read_flat_lines(path: Path, f, report: ImportReport) -> np.ndarray:
    """The ``<timestamp> <watts>`` rows of ``f`` as a (rows, 2) array; every
    row that is malformed, non-finite, duplicate or out of order is skipped
    and noted in ``report``."""
    rows: list[tuple[float, float]] = []
    for lineno, line in enumerate(f, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            report.skipped += 1
            report.note(f"{path}:{lineno}: expected 2 fields")
            continue
        try:
            t = float(parts[0])
            p = float(parts[1])
        except ValueError:
            report.skipped += 1
            report.note(f"{path}:{lineno}: non-numeric row")
            continue
        if not (np.isfinite(t) and np.isfinite(p)):
            report.skipped += 1
            report.note(f"{path}:{lineno}: non-finite row")
            continue
        if rows and t <= rows[-1][0]:
            if t == rows[-1][0]:
                report.duplicates += 1
                report.note(f"{path}:{lineno}: duplicate timestamp")
                continue
            report.skipped += 1
            report.note(f"{path}:{lineno}: out-of-order timestamp")
            continue
        rows.append((t, p))
    return np.array(rows, dtype=np.float64).reshape(len(rows), 2)


# ---------------------------------------------------------------------------
# Model JSON
# ---------------------------------------------------------------------------


def export_model_json(model: COModel | FHMMModel) -> str:
    """Serialize a trained model, tagged with its type's ``algorithm``;
    floats survive a round trip exactly."""
    if not isinstance(model, (COModel, FHMMModel)):
        raise TypeError(f"cannot export {type(model).__name__}")
    payload = {
        "algorithm": model.algorithm,
        "appliances": [_appliance_to_json(a) for a in model.appliances],
    }
    if isinstance(model, FHMMModel):
        payload["noise_variance"] = float(model.noise_variance)
    return json_text(payload)


def _appliance_to_json(a: ApplianceStateModel | ApplianceHMM) -> dict:
    entry = {
        "name": a.name,
        "states": [{"mean": float(m), "std": float(s)} for m, s in zip(a.means, a.stds)],
    }
    if isinstance(a, ApplianceHMM):
        entry["pi"] = [float(p) for p in a.pi]
        entry["A"] = [[float(v) for v in row] for row in a.A]
    return entry


def import_model_json(text: str) -> COModel | FHMMModel:
    """Parse a model produced by :func:`export_model_json`.

    The model dataclasses validate their own parameters; any field they
    reject, or that is missing or mistyped, raises :class:`SchemaError`.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"model JSON is not valid JSON: {e}") from None
    if not isinstance(raw, dict) or "algorithm" not in raw:
        raise SchemaError("model JSON missing 'algorithm' field")
    algorithm = raw["algorithm"]
    entries = raw.get("appliances")
    if not entries:
        raise SchemaError("model JSON has no appliances")
    model_type = next((t for t in (COModel, FHMMModel) if t.algorithm == algorithm), None)
    if model_type is None:
        raise SchemaError(f"unknown algorithm {algorithm!r}")
    appliances = tuple(
        _appliance_from_json(e, i, with_chain=model_type is FHMMModel)
        for i, e in enumerate(entries)
    )
    try:
        if model_type is COModel:
            return COModel(appliances=appliances)
        return FHMMModel(appliances=appliances, noise_variance=raw["noise_variance"])
    except KeyError as e:
        raise SchemaError(f"model JSON: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise SchemaError(f"model JSON: {e}") from None


def _appliance_from_json(
    entry: dict, index: int, with_chain: bool
) -> ApplianceStateModel | ApplianceHMM:
    # The dataclass messages name the appliance; the index locates entries
    # whose name is missing.
    where = f"model JSON appliances[{index}]"
    try:
        base = ApplianceStateModel(
            name=str(entry["name"]),
            means=[s["mean"] for s in entry["states"]],
            stds=[s["std"] for s in entry["states"]],
        )
        if not with_chain:
            return base
        return ApplianceHMM(base=base, pi=entry["pi"], A=entry["A"])
    except KeyError as e:
        raise SchemaError(f"{where}: missing field {e}") from None
    except (TypeError, ValueError) as e:
        raise SchemaError(f"{where}: {e}") from None


def load_daily_series_csv(path: str | Path) -> dict[int, float]:
    """Read a daily external series (weather etc.) as {epoch day: value}.

    Rows are ``<YYYY-MM-DD or epoch day>,<value>``; a header row is optional.
    """
    import datetime as _dt

    out: dict[int, float] = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        day_s, _, value_s = line.partition(",")
        try:
            value = float(value_s)
        except ValueError:
            if lineno == 1:
                continue  # header
            raise SchemaError(f"{path}:{lineno}: non-numeric value") from None
        day_s = day_s.strip()
        if re.fullmatch(r"-?\d+", day_s):
            day = int(day_s)
        else:
            try:
                date = _dt.date.fromisoformat(day_s)
            except ValueError:
                raise SchemaError(f"{path}:{lineno}: bad date {day_s!r}") from None
            day = (date - _dt.date(1970, 1, 1)).days
        out[day] = value
    return out
