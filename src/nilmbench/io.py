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
``write``: a block of whole stamps >= 0 as groups of four digits looked up
in a table, any other block from each stamp's text; each value column by
gathering one text per distinct float in it; commas and newlines as
constant columns.  In a block with at least ``_SHORTEST_MIN_VALUES`` (320)
distinct values, the texts of those with 2**-4 <= |x| < 2**53 are made all
at once by an exact shortest-digit routine in int64
(:func:`_shortest_texts`); every other value, and every value of a smaller
block, takes one ``repr`` call.  So the number of distinct values and each
value's range choose the path, and either way a value's text is the
``repr`` of its cell.  Texts hold NUL bytes where they are shorter than
their columns, anywhere in the text, and these are dropped before the
write.  The bytes are those of formatting every cell on its own by the
rules above.  A circuit id or appliance name must be one path
component (:func:`~nilmbench.data.check_channel_id`); every one is checked
before anything is written.

Both text formats read here, channel CSVs and the whitespace-separated
``channel_<j>.dat`` files of :func:`import_redd_style`, go through one
``np.loadtxt`` parse checked on the arrays.  A file that fails the parse or
a check is read again by one line loop, which alone reports bad rows: it
skips and counts each in an :class:`ImportReport`, and the CSV reader
raises the first of them.  Undecodable bytes read as U+FFFD, so their row
is non-numeric.  The JSON side files, ``metadata.json`` and
``wiring.json``, are read and checked by one helper that names the file in
its errors.

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
import math
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
    first_out_of_order,
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
_LOADTXT_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"

# The floats whose texts :func:`_shortest_texts` makes: finite x with
# 2**-4 <= |x| < 2**53, as the range of their bit patterns without the sign.
# repr writes each of them without an exponent, and each is m / 2**s with a
# 53-bit m and 0 <= s <= 56, so every quantity of the digit loop fits int64.
_SHORTEST_LOW, _SHORTEST_HIGH = np.array([2.0**-4, 2.0**53]).view(np.int64).tolist()
_SIGN_BIT = 1 << 63
_MANTISSA_BITS = 52

# Fraction digits of a text of 17 significant digits starting "0.0", the most
# any such float needs; 10 ** 18 still fits int64.
_FRACTION_DIGITS = 18
_POW10 = 10 ** np.arange(_FRACTION_DIGITS + 1, dtype=np.int64)

# A block with fewer distinct values than this takes one repr call per
# value.  :func:`_shortest_texts` costs about 170 numpy calls for 15
# fraction digits, whatever the number of values, and repr about 1 us per
# value: the two took the same time at 256 to 352 distinct values.
_SHORTEST_MIN_VALUES = 320


def _format_timestamp(t: float) -> str:
    """Up to 6 decimal places when that text reads back as ``t``, else repr."""
    s = f"{t:.6f}".rstrip("0").rstrip(".")
    s = s if s else "0"
    return s if float(s) == t else repr(t)


def _four_digit_texts() -> np.ndarray:
    """The text of every number below 10**4 in four ASCII bytes, each read
    as one uint32: row 0 zero-padded, row 1 with NUL bytes in place of
    leading zeros, row 2 as row 1 but with 0 as "0".  Built digit by digit
    in place, so that importing this module allocates no more than the
    table."""
    texts = np.empty((3, 10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        texts[..., place] = digits.reshape([10 if d == place else 1 for d in range(4)])
    texts[1:, 0, :, :, :, 0] = 0
    texts[1:, 0, 0, :, :, 1] = 0
    texts[1:, 0, 0, 0, :, 2] = 0
    texts[1, 0, 0, 0, 0, 3] = 0
    return texts.reshape(3, 10**4, 4).view(np.uint32)[..., 0]


_FOUR_DIGITS = _four_digit_texts()


def _digit_texts(ints: np.ndarray) -> np.ndarray:
    """Each whole number >= 0 of ``ints`` in its row of a (len(ints), width)
    uint8 array, width the largest one's number of digits: right-aligned
    ASCII digits with NUL bytes in place of leading zeros, 0 being "0".
    The digits are looked up four at a time in ``_FOUR_DIGITS``."""
    width = len(str(int(ints.max())))
    groups = -(-width // 4)
    parts = np.empty((groups, ints.size), np.int64)
    rest = ints
    for j in range(groups - 1, 0, -1):
        rest, parts[j] = np.divmod(rest, 10**4)
    parts[0] = rest
    words = np.empty((ints.size, groups), np.uint32)
    # A group is leading while every group before it is 0; the last group
    # of a number keeps its "0".
    leading = np.ones(ints.size, bool)
    for j, part in enumerate(parts):
        texts = _FOUR_DIGITS[2 if j == groups - 1 else 1][part]
        if j:
            texts = np.where(leading, texts, _FOUR_DIGITS[0][part])
        words[:, j] = texts
        leading &= part == 0
    return words.view(np.uint8)[:, 4 * groups - width :]


def _timestamp_table(t: np.ndarray) -> np.ndarray:
    """:func:`_format_timestamp` of each element of ``t``: a (rows, width)
    uint8 array of ASCII texts, each padded with NUL bytes.

    A block of whole stamps >= 0, the regular case, is :func:`_digit_texts`
    of the stamps, as a whole float's text is ``str(int(x))``.  ``signbit``
    sends -0.0, whose text is "-0", to the per-stamp texts, and the range
    test is False for NaN and inf.
    """
    if t.max() < 2.0**63 and not np.signbit(t).any() and (t == np.trunc(t)).all():
        return _digit_texts(t.astype(np.int64))
    texts = np.array(list(map(_format_timestamp, t.tolist())), dtype="S")
    return texts.view(np.uint8).reshape(t.size, texts.itemsize)


class _ShortestScratch:
    """The working arrays of :func:`_shortest_texts` for up to ``rows``
    values, allocated once and overwritten by every call."""

    def __init__(self, rows: int):
        self.ints = np.empty((5, rows), np.int64)
        self.flags = np.empty((2, rows), bool)
        self.alive = np.empty((_FRACTION_DIGITS + 1, rows), bool)


def _shortest_texts(bits: np.ndarray, scratch: _ShortestScratch) -> np.ndarray:
    """``repr(x)`` of the float ``x`` of each bit pattern of ``bits``, sorted
    and each finite with 2**-4 <= |x| < 2**53, as a (len(bits), width) uint8
    array: a sign column, the integer part's :func:`_digit_texts`, "." and
    the fraction's digits, with NUL wherever a text has no byte.

    The fraction's digits are the fewest that read back as x, made as
    dtoa's mode 0 makes them for repr (Steele & White's free-format
    method), for all values at once in int64.  With |x| = m / 2**s, the
    fraction's remainder R is kept over D = 2**(s+2), where half an ulp is
    2; per digit k, R is multiplied by 10 and so is the margin M = 2 * 10**k.
    The text ends at the first digit where rounding down stays within M of
    x (R < M) or rounding up does (R > D - M).  The digit is rounded up when
    only the second holds, or when both do and R > D / 2, a tie going to
    the even digit.  The fraction of a whole x is "0".

    dtoa's other rules cannot change a text in this range.  R never equals
    M or D - M, as it has at least k + 2 factors of 2 and they have k + 1,
    so the mantissa's parity, which decides whether a midpoint between x
    and a neighbour reads back as x, never matters.  Below a power of two
    the lower neighbour is nearer and M is halved there; in this range
    that is x = 2**-1 .. 2**-4, whose R is 0 or at least D / 16, far above
    M.  And a 9 is never rounded up: the text would then have ended one
    digit sooner, or be a whole number that x, not whole, cannot read back
    from.
    """
    n = bits.size
    rem, first, tmp, shift, mask = (a[:n] for a in scratch.ints)
    low, high = (a[:n] for a in scratch.flags)
    alive = scratch.alive[:, :n]
    # |x| = m / 2**s: m in tmp, s + 2 in shift, R before the first digit in
    # first, and then the integer part m >> s in tmp.
    np.bitwise_and(bits, _SIGN_BIT - 1, out=tmp)
    np.right_shift(tmp, _MANTISSA_BITS, out=shift)
    tmp &= (1 << _MANTISSA_BITS) - 1
    tmp |= 1 << _MANTISSA_BITS
    np.subtract(1023 + _MANTISSA_BITS + 2, shift, out=shift)
    np.left_shift(1, shift, out=mask)
    mask -= 1
    np.left_shift(tmp, 2, out=first)
    first &= mask
    np.subtract(shift, 2, out=rem)
    np.right_shift(tmp, rem, out=tmp)
    integer = _digit_texts(tmp)
    negative = bits[0] < 0  # sorted, so a negative comes first
    width = int(negative) + integer.shape[1] + 1
    cols = np.empty((width + _FRACTION_DIGITS, n), np.uint8)
    if negative:
        cols[0] = np.where(bits < 0, ord("-"), 0)
    cols[int(negative) : width - 1] = integer.T
    cols[width - 1] = ord(".")
    fraction = cols[width:]
    # alive[k]: no text has ended before fraction digit k.
    np.copyto(rem, first)
    alive[0] = True
    for k in range(1, _FRACTION_DIGITS + 1):
        np.multiply(rem, 10, out=tmp)
        np.right_shift(tmp, shift, out=fraction[k - 1], casting="unsafe")
        np.bitwise_and(tmp, mask, out=rem)
        margin = 2 * _POW10[k]
        np.less(rem, margin, out=low)
        np.subtract(mask, margin - 1, out=tmp)
        np.greater(rem, tmp, out=high)
        low |= high
        np.greater(alive[k - 1], low, out=alive[k])
        if not alive[k].any():
            break
    digits = k
    # Each text's last digit, with its R again (wrapping products keep the
    # low s + 2 bits exact) and whether it rounds up.
    last = np.add.reduce(alive[1 : digits + 1].view(np.uint8), axis=0, dtype=np.intp)
    at_last = last * n + np.arange(n)
    digit = fraction.ravel()[at_last]
    scale = _POW10[last + 1]
    np.multiply(first.view(np.uint64), scale.view(np.uint64), out=rem.view(np.uint64))
    rem &= mask
    mask += 1
    up = rem >= 2 * scale
    up |= (rem > mask - 2 * scale) & ((2 * rem > mask) | ((2 * rem == mask) & (digit % 2 == 1)))
    fraction.ravel()[at_last] = digit + up
    fraction = fraction[:digits]
    fraction += ord("0")
    fraction *= alive[:digits]
    return np.ascontiguousarray(cols[: width + digits].T)


def _repr_texts(bits: np.ndarray) -> np.ndarray:
    """``repr`` of the float of each bit pattern of ``bits``, one call per
    value, as a NUL-padded ``S`` array."""
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype="S")


def _value_table(v: np.ndarray, scratch: _ShortestScratch) -> tuple[np.ndarray, np.ndarray]:
    """(texts, index): the ``repr`` of each distinct float of ``v`` as an
    ``S`` array, each text with NUL bytes anywhere that its bytes do not
    fill, and for each element of ``v`` its text's index.

    With at least ``_SHORTEST_MIN_VALUES`` distinct values, those in
    :func:`_shortest_texts`' range get their texts from it, working in
    ``scratch``; the rest, and every value of a smaller block, from
    :func:`_repr_texts`.  The bytes are the same either way.
    """
    # Distinct bit patterns, so that 0.0 and -0.0 keep their own text.
    bits, index = np.unique(v.view(np.int64), return_inverse=True)
    if bits.size >= _SHORTEST_MIN_VALUES:
        magnitude = bits & (_SIGN_BIT - 1)
        vector = (magnitude >= _SHORTEST_LOW) & (magnitude < _SHORTEST_HIGH)
        if vector.any():
            table = _shortest_texts(bits[vector], scratch)
            shortest = table.view(f"S{table.shape[1]}").ravel()
            if vector.all():
                return shortest, index
            rest = _repr_texts(bits[~vector])
            texts = np.empty(bits.size, f"S{max(shortest.itemsize, rest.itemsize)}")
            texts[vector] = shortest
            texts[~vector] = rest
            return texts, index
    return _repr_texts(bits), index


def _block_lines(stamps: np.ndarray, values) -> np.ndarray:
    """The bytes of one block of CSV lines: row r of ``stamps``, then for
    each (texts, index) of ``values`` the text ``texts[index[r]]``,
    comma-separated.

    Every field is copied or gathered into its columns of one (rows, width)
    uint8 buffer, and the NUL bytes anywhere in a text, which pad it to its
    column, are then dropped, unless no field has any.
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
    scratch = _ShortestScratch(min(t.size, _CSV_BLOCK_ROWS))
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
                f.write(_block_lines(stamps, [_value_table(v[rows], scratch) for v in cols]))


def _read_channel_csv(path: Path, channel_id: str, nominal_period: float) -> Channel:
    # Undecodable bytes become U+FFFD, so their row is non-numeric.
    with path.open("r", encoding="utf-8", errors="replace") as f:
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
        report = ImportReport()
        if body is None:
            f.seek(body_start)
            body = _read_lines(path, f, len(names), ",", report, first_line=2)
    if report.details:
        raise SchemaError(report.details[0])
    return Channel(
        id=channel_id,
        timestamps=body[:, 0],
        columns={m: body[:, j] for j, m in enumerate(measurements, start=1)},
        nominal_period=nominal_period,
    )


def _parse_body(f, n_fields: int, delimiter: str | None) -> np.ndarray | None:
    """The rest of ``f`` as one (rows, n_fields) array, or None when the
    parse fails or a row breaks the schema: a wrong field count, a
    non-finite value or timestamps that break the order rule
    (:func:`~nilmbench.data.first_out_of_order`).

    ``delimiter`` is ``","`` for CSV and None for whitespace.  None sends
    the file to :func:`_read_lines`, which reports the rows at fault; this
    parse accepts only files that loop reads without a report.
    """
    if delimiter:
        # No byte of a multi-byte UTF-8 character is ASCII, so blocks of the
        # body's bytes show these characters with no decode and no copy of the
        # body.  Seeking the text layer, which reads ahead, moves the bytes too.
        start = f.tell()
        f.seek(start)
        for block in iter(lambda: f.buffer.read(1 << 16), b""):
            if any(c in block for c in _LOADTXT_ONLY_SPACE):
                return None
        f.seek(start)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            body = np.loadtxt(f, delimiter=delimiter, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    ok = body.shape[1] == n_fields and np.isfinite(body).all() and first_out_of_order(body[:, 0]) is None
    return body if ok else None


def _read_lines(
    path: Path, f, n_fields: int, delimiter: str | None, report: ImportReport, first_line: int
) -> np.ndarray:
    """The rows of ``f``, numbered from ``first_line``, as a (rows, n_fields)
    array; ``delimiter`` as for :func:`_parse_body`.  Every row that breaks
    the schema is skipped and noted in ``report``, checked in this order: its
    field count, numeric fields, finite values, a finite timestamp, and a
    timestamp above the last kept row's (a repeat, -0.0 after 0.0 included,
    is a duplicate)."""
    rows: list[list[float]] = []

    def skip(lineno: int, what: str) -> None:
        report.skipped += 1
        report.note(f"{path}:{lineno}: {what}")

    for lineno, line in enumerate(f, start=first_line):
        line = line.strip()
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != n_fields:
            skip(lineno, f"expected {n_fields} fields, got {len(parts)}")
            continue
        try:
            row = [float(p) for p in parts]
        except ValueError:
            skip(lineno, "non-numeric value")
            continue
        t = row[0]
        if not all(map(math.isfinite, row[1:])):
            skip(lineno, "non-finite value")
        elif not math.isfinite(t):
            skip(lineno, f"non-finite timestamp {parts[0]}")
        elif rows and t == rows[-1][0]:
            report.duplicates += 1
            report.note(f"{path}:{lineno}: duplicate timestamp {parts[0]}")
        elif rows and t < rows[-1][0]:
            skip(lineno, f"non-monotone timestamp {parts[0]}")
        else:
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


def _read_flat_file(path: Path, nominal_period: float, report: ImportReport) -> Channel:
    # Undecodable bytes become U+FFFD, so their row is non-numeric.
    with path.open("r", encoding="utf-8", errors="replace") as f:
        body = _parse_body(f, 2, None)
        if body is None:
            f.seek(0)
            body = _read_lines(path, f, 2, None, report, first_line=1)
    return Channel(
        id=path.stem,
        timestamps=body[:, 0],
        columns={POWER_ACTIVE: body[:, 1]},
        nominal_period=nominal_period,
    )


# ---------------------------------------------------------------------------
# Model JSON
# ---------------------------------------------------------------------------


# Model JSON's ``algorithm`` tag -> the model type it names.
MODEL_TYPES = {t.algorithm: t for t in (COModel, FHMMModel)}


def export_model_json(model: COModel | FHMMModel) -> str:
    """Serialize a trained model, tagged with its type's ``algorithm``;
    floats survive a round trip exactly."""
    if not isinstance(model, tuple(MODEL_TYPES.values())):
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
    model_type = MODEL_TYPES.get(algorithm) if isinstance(algorithm, str) else None
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
