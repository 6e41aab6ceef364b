import json
import math
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench import io as nio
from nilmbench.data import POWER_ACTIVE, DataSet
from nilmbench.io import (
    ImportReport,
    SchemaError,
    _CSV_BLOCK_ROWS,
    _SHORTEST_HIGH,
    _SHORTEST_LOW,
    _SHORTEST_MIN_VALUES,
    _ShortestScratch,
    _format_timestamp,
    _read_lines,
    _value_table,
    csv_text,
    export_model_json,
    import_model_json,
    import_redd_style,
    json_text,
    load_daily_series_csv,
    load_dataset_dir,
    save_dataset_dir,
)
from nilmbench.synth import default_benchmark_spec, generate
from nilmbench.training import ApplianceHMM, ApplianceStateModel, COModel, FHMMModel

from conftest import assert_dataset_equal, mk_building, mk_channel
from oracles import write_channel_csv_rows


def write_redd_house(root: Path, n: int, labels: dict[int, str], rows: dict[int, list[str]]):
    house = root / f"house_{n}"
    house.mkdir(parents=True)
    (house / "labels.dat").write_text(
        "".join(f"{ch} {label}\n" for ch, label in labels.items()), encoding="utf-8"
    )
    for ch, lines in rows.items():
        (house / f"channel_{ch}.dat").write_text("".join(lines), encoding="utf-8")


def simple_rows(base=1303132929, watts=(100.0, 110.0, 120.0)):
    return [f"{base + i} {w}\n" for i, w in enumerate(watts)]


class TestReddImport:
    def test_two_house_fixture(self, tmp_path):
        for n in (1, 2):
            write_redd_house(
                tmp_path,
                n,
                {1: "mains", 2: "mains", 3: "refrigerator"},
                {1: simple_rows(), 2: simple_rows(), 3: simple_rows(watts=(5.0, 6.0, 7.0))},
            )
        ds, report = import_redd_style(tmp_path)
        assert sorted(ds.buildings) == [1, 2]
        b = ds.buildings[1]
        assert len(b.mains) == 2
        assert list(b.appliances) == ["fridge"]
        assert report.skipped == 0

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(SchemaError, match="no houses found"):
            import_redd_style(tmp_path)

    def test_malformed_row_skipped_and_counted(self, tmp_path):
        rows = simple_rows()
        rows.insert(1, "1303132930 not_a_number\n")
        write_redd_house(tmp_path, 1, {1: "mains", 2: "refrigerator"}, {1: rows, 2: simple_rows()})
        ds, report = import_redd_style(tmp_path, mains_channels=(1,))
        assert report.skipped == 1
        assert len(ds.buildings[1].mains[0]) == 3

    def test_missing_labels_is_hard_error(self, tmp_path):
        house = tmp_path / "house_1"
        house.mkdir()
        (house / "channel_1.dat").write_text("1 1.0\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="labels"):
            import_redd_style(tmp_path)

    def test_duplicate_timestamp_keeps_first(self, tmp_path):
        rows = ["100 1.0\n", "100 2.0\n", "101 3.0\n"]
        write_redd_house(tmp_path, 1, {1: "mains", 2: "refrigerator"}, {1: rows, 2: simple_rows()})
        ds, report = import_redd_style(tmp_path, mains_channels=(1,))
        assert report.duplicates == 1
        assert list(ds.buildings[1].mains[0].values(POWER_ACTIVE)) == [1.0, 3.0]

    def test_out_of_order_rows_skipped_and_counted(self, tmp_path):
        # -0.0 after 0.0 is a repeat.
        rows = ["0 1.0\n", "-0.0 2.0\n", "5 3.0\n", "4 4.0\n", "6 5.0\n"]
        write_redd_house(tmp_path, 1, {1: "mains", 2: "refrigerator"}, {1: rows, 2: simple_rows()})
        ds, report = import_redd_style(tmp_path, mains_channels=(1,))
        assert (report.duplicates, report.skipped) == (1, 1)
        assert report.details == [
            f"{tmp_path / 'house_1' / 'channel_1.dat'}:2: duplicate timestamp -0.0",
            f"{tmp_path / 'house_1' / 'channel_1.dat'}:4: non-monotone timestamp 4",
        ]
        assert ds.buildings[1].mains[0].timestamps.tolist() == [0.0, 5.0, 6.0]

    def test_repeated_labels_get_instance_suffix(self, tmp_path):
        write_redd_house(
            tmp_path,
            1,
            {1: "mains", 2: "lighting", 3: "lighting"},
            {1: simple_rows(), 2: simple_rows(), 3: simple_rows()},
        )
        ds, _ = import_redd_style(tmp_path, mains_channels=(1,))
        assert sorted(ds.buildings[1].appliances) == ["lighting", "lighting_2"]

    def test_undecodable_row_skipped_and_noted(self, tmp_path):
        write_redd_house(tmp_path, 1, {1: "mains", 2: "refrigerator"}, {2: simple_rows()})
        path = tmp_path / "house_1" / "channel_1.dat"
        path.write_bytes(b"100 1.0\n101 \xff2.0\n102 3.0\n")
        ds, report = import_redd_style(tmp_path, mains_channels=(1,))
        assert (report.skipped, report.details) == (1, [f"{path}:2: non-numeric value"])
        assert list(ds.buildings[1].mains[0].timestamps) == [100.0, 102.0]

    def test_non_decimal_channel_number_rejected(self, tmp_path):
        write_redd_house(tmp_path, 1, {1: "mains"}, {1: simple_rows()})
        labels = tmp_path / "house_1" / "labels.dat"
        labels.write_text("1 mains\n² fridge\n", encoding="utf-8")
        with pytest.raises(SchemaError) as e:
            import_redd_style(tmp_path)
        assert str(e.value) == f"{labels}:2: malformed label row"

    def test_label_that_is_not_a_file_name_rejected_on_save(self, tmp_path):
        write_redd_house(tmp_path / "raw", 1, {1: "mains", 3: "a/b"}, {1: ["1 5\n"], 3: ["1 2\n"]})
        ds, _ = import_redd_style(tmp_path / "raw")
        assert list(ds.buildings[1].appliances) == ["a/b"]
        with pytest.raises(ValueError, match="'a/b' must be one path component"):
            save_dataset_dir(ds, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    def test_clean_file_takes_the_array_parse(self, tmp_path):
        rows = [" 100\t1.5\r\n", "\n", "  \t\n", "101   -2e3\r\n", "102.25 +7"]
        write_redd_house(tmp_path, 1, {1: "mains"}, {1: rows})
        with mock.patch("nilmbench.io._read_lines", side_effect=AssertionError):
            ds, report = import_redd_style(tmp_path, mains_channels=(1,))
        c = ds.buildings[1].mains[0]
        assert c.timestamps.tolist() == [100.0, 101.0, 102.25]
        assert c.values(POWER_ACTIVE).tolist() == [1.5, -2000.0, 7.0]
        assert report == ImportReport()


# Separators that str.split() and np.loadtxt both read as whitespace.
FLAT_SEPARATORS = [" ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
                   "\x85", "\xa0", "\u2007", "\u3000"]
# Fields that float() rejects, or that float() reads and np.loadtxt does not.
ODD_FIELDS = ["abc", "1,5", "--1", "1e", "0x10", "\u00b2", "1_000", "\u0661\u0662", "\ufeff3"]
NON_FINITE = ["nan", "NaN", "inf", "-inf", "+Infinity", "1e400"]


@st.composite
def flat_bodies(draw, separators=FLAT_SEPARATORS):
    """The bytes of a ``channel_<j>.dat`` file, or with ``separators`` of
    commas a channel CSV's body: clean ``<t> <watts>`` rows mixed with a
    drawn set of faults, so that many bodies hold one kind."""
    faults = sorted(draw(st.sets(st.sampled_from([
        "blank", "one-field", "three-fields", "odd-field", "non-finite-time",
        "non-finite-watts", "duplicate", "out-of-order", "bad-utf8",
    ]), max_size=3)))
    kinds = draw(st.lists(st.sampled_from(["clean"] + faults), max_size=30))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    t = draw(st.sampled_from([0.0, -50.0, 1303132929.0, 0.1]))
    sep, pad = st.sampled_from(separators), st.sampled_from(["", " ", "\t", "\x1f"])
    lines = []
    for kind in kinds:
        if kind not in ("duplicate", "out-of-order"):
            t += draw(st.sampled_from([1.0, 3.0, 0.1, 0.5, 1e-6]))
        stamp = {"duplicate": t, "out-of-order": t - 2.0}.get(kind, t)
        watts = draw(st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324]))
        fmt = draw(st.sampled_from([repr, "{:+.3f}".format, "{:.2E}".format]))
        fields = [repr(stamp), fmt(watts)]
        if kind == "one-field":
            fields = fields[:1]
        elif kind == "three-fields":
            fields.append(fields[1])
        elif kind == "odd-field":
            fields[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_FIELDS))
        elif kind.startswith("non-finite"):
            fields[kind == "non-finite-watts"] = draw(st.sampled_from(NON_FINITE))
        if kind == "blank":
            line = draw(pad).encode()
        else:
            line = (draw(pad) + draw(sep).join(fields) + draw(pad)).encode("utf-8")
        if kind == "bad-utf8":
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + line[at:]
        lines.append(line)
    body = eol.encode().join(lines)
    return body + (eol.encode() if draw(st.booleans()) else b"")


@settings(max_examples=300, deadline=None)
@given(body=flat_bodies())
def test_array_parse_imports_what_the_line_loop_imports(body):
    with tempfile.TemporaryDirectory() as tmp:
        write_redd_house(Path(tmp), 1, {1: "mains"}, {})
        (Path(tmp) / "house_1" / "channel_1.dat").write_bytes(body)
        ds, report = import_redd_style(tmp, mains_channels=(1,))
        with mock.patch("nilmbench.io._parse_body", return_value=None):
            loop_ds, loop_report = import_redd_style(tmp, mains_channels=(1,))
    c, loop_c = ds.buildings[1].mains[0], loop_ds.buildings[1].mains[0]
    assert c.timestamps.tobytes() == loop_c.timestamps.tobytes()
    assert c.values(POWER_ACTIVE).tobytes() == loop_c.values(POWER_ACTIVE).tobytes()
    assert report == loop_report


def build_dataset():
    t = np.arange(0.0, 50.0)
    rng = np.random.default_rng(0)
    fridge = mk_channel(t, rng.uniform(0, 200, 50), cid="fridge")
    mains = mk_channel(
        t, rng.uniform(0, 400, 50), cid="mains_1",
        voltage=rng.uniform(228, 232, 50),
    )
    circuit = mk_channel(t, rng.uniform(0, 300, 50), cid="kitchen", period=2.0)
    b = mk_building(
        mains=[mains],
        appliances={"fridge": fridge},
        metadata={"country": "XX", "nominal_voltage": 230.0},
        wiring=[("mains_1", "fridge")],
    )
    b = type(b)(
        id=b.id, mains=b.mains, circuits=(circuit,), appliances=b.appliances,
        metadata=b.metadata, wiring=b.wiring,
    )
    return DataSet(name="fixture", buildings={1: b}, metadata={"license": "test"})


class TestDatasetDirRoundTrip:
    def test_layout_names(self, tmp_path):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        root = tmp_path / "ds"
        assert (root / "metadata.json").is_file()
        assert (root / "house_1" / "metadata.json").is_file()
        assert (root / "house_1" / "ambient").is_dir()
        assert (root / "house_1" / "external").is_dir()
        assert (root / "house_1" / "utility" / "gas").is_dir()
        assert (root / "house_1" / "utility" / "water").is_dir()
        elec = root / "house_1" / "utility" / "electricity"
        assert (elec / "mains" / "mains_1.csv").is_file()
        assert (elec / "circuits" / "kitchen.csv").is_file()
        assert (elec / "appliances" / "fridge.csv").is_file()
        assert (elec / "wiring.json").is_file()

    def test_round_trip_exact(self, tmp_path):
        ds = build_dataset()
        save_dataset_dir(ds, tmp_path / "ds")
        again = load_dataset_dir(tmp_path / "ds")
        assert_dataset_equal(ds, again)
        circuits = again.buildings[1].circuits
        assert len(circuits) == 1 and circuits[0].nominal_period == 2.0

    def test_synthetic_round_trip_exact(self, tmp_path):
        ds, _ = generate(default_benchmark_spec())
        save_dataset_dir(ds, tmp_path / "ds")
        assert_dataset_equal(ds, load_dataset_dir(tmp_path / "ds"))

    def test_empty_dataset(self, tmp_path):
        ds = DataSet(name="empty", metadata={"note": "nothing"})
        save_dataset_dir(ds, tmp_path / "ds")
        again = load_dataset_dir(tmp_path / "ds")
        assert again.name == "empty"
        assert again.buildings == {}
        assert again.metadata == {"note": "nothing"}

    def test_save_load_save_is_stable(self, tmp_path):
        ds = build_dataset()
        save_dataset_dir(ds, tmp_path / "one")
        save_dataset_dir(load_dataset_dir(tmp_path / "one"), tmp_path / "two")
        a = sorted((tmp_path / "one").rglob("*.csv"))
        b = sorted((tmp_path / "two").rglob("*.csv"))
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]

    @pytest.mark.parametrize("name", ["../../escape", "a/b", ".."])
    @pytest.mark.parametrize("role", ["appliances", "circuits"])
    def test_unsafe_channel_name_rejected_before_writing(self, tmp_path, role, name):
        c = mk_channel([0.0, 1.0], [1.0, 2.0], cid=name)
        b = mk_building(appliances={name: c}) if role == "appliances" else mk_building(circuits=(c,))
        with pytest.raises(ValueError, match="must be one path component"):
            save_dataset_dir(DataSet("x", {1: b}), tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_circuit_id_rejected(self, tmp_path):
        c = mk_channel([0.0, 1.0], [1.0, 2.0], cid="kitchen")
        with pytest.raises(ValueError, match="circuit id is repeated"):
            save_dataset_dir(DataSet("x", {1: mk_building(circuits=(c, c))}), tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []

    def test_missing_wiring_warns_and_defaults_empty(self, tmp_path):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        (tmp_path / "ds" / "house_1" / "utility" / "electricity" / "wiring.json").unlink()
        with pytest.warns(UserWarning, match="wiring"):
            again = load_dataset_dir(tmp_path / "ds")
        assert again.buildings[1].wiring == ()

    # A malformed side file is a SchemaError naming it, not an AttributeError
    # or a bare JSONDecodeError from inside the load.
    SIDE_FILES = ["metadata.json", "house_1/metadata.json", "house_1/utility/electricity/wiring.json"]

    @pytest.mark.parametrize("side", SIDE_FILES)
    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "must be a JSON object, got [1, 2]"),
        ("[]", "must be a JSON object, got []"),
        ('{"name": ', "not valid JSON"),
        ('{"metadata": [1]}', "'metadata' must be a JSON object"),
    ])
    def test_malformed_side_file_names_it(self, tmp_path, side, text, message):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / side
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            load_dataset_dir(tmp_path / "ds")

    @pytest.mark.parametrize("entry, period", [
        ("channel_periods", 0), ("channel_periods", -6.0), ("channel_periods", "60"),
        ("channel_periods", True), ("nominal_period", 0), ("nominal_period", float("inf")),
    ])
    def test_period_not_finite_and_positive_names_the_file(self, tmp_path, entry, period):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "house_1" / "metadata.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        if entry == "channel_periods":
            raw["channel_periods"]["mains/mains_1"] = period
            where = "channel_periods['mains/mains_1']"
        else:
            raw["metadata"]["nominal_period"] = period
            where = "metadata.nominal_period"
        path.write_text(json.dumps(raw), encoding="utf-8")
        message = f"{path}: {where} must be finite and > 0, got {period!r}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_dataset_dir(tmp_path / "ds")

    @pytest.mark.parametrize("edges", [[["mains_1", "kitchen", "x"]], [["mains_1"]], [5], {"a": 1}])
    def test_edges_not_pairs_names_the_file(self, tmp_path, edges):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        path = tmp_path / "ds" / "house_1" / "utility" / "electricity" / "wiring.json"
        path.write_text(json.dumps({"edges": edges}), encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: 'edges' must be a list of")):
            load_dataset_dir(tmp_path / "ds")

    def test_duplicate_timestamp_names_file(self, tmp_path):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        bad = tmp_path / "ds" / "house_1" / "utility" / "electricity" / "appliances" / "fridge.csv"
        bad.write_text("timestamp,power_active\n1,5\n1,6\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="fridge.csv:3.*duplicate"):
            load_dataset_dir(tmp_path / "ds")

    def test_unknown_measurement_column(self, tmp_path):
        save_dataset_dir(build_dataset(), tmp_path / "ds")
        bad = tmp_path / "ds" / "house_1" / "utility" / "electricity" / "appliances" / "fridge.csv"
        bad.write_text("timestamp,temperature\n1,5\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="unknown measurement"):
            load_dataset_dir(tmp_path / "ds")

    def test_subsecond_timestamps_round_trip(self, tmp_path):
        t = [0.0, 0.25, 1.125, 2.5, 1303132929.123456]
        c = mk_channel(t, np.arange(5.0), cid="fridge", period=0.25)
        ds = DataSet(name="x", buildings={1: mk_building(appliances={"fridge": c})})
        save_dataset_dir(ds, tmp_path / "ds")
        again = load_dataset_dir(tmp_path / "ds")
        assert np.array_equal(
            again.buildings[1].appliances["fridge"].timestamps, np.asarray(t)
        )


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def channels(draw):
    """A channel of 0-40 rows: strictly increasing finite timestamps and 1-3
    columns of finite values, some drawn from a few repeated ones."""
    n = draw(st.integers(0, 40))
    t = sorted(draw(st.lists(FINITE, min_size=n, max_size=n, unique=True)))
    names = draw(st.lists(
        st.sampled_from(["power_active", "power_reactive", "voltage"]),
        min_size=1, max_size=3, unique=True,
    ))
    value = st.one_of(FINITE, st.sampled_from([0.0, -0.0, 120.5, -30.0, 5e-324]))
    columns = {name: draw(st.lists(value, min_size=n, max_size=n)) for name in names}
    return mk_channel(t, cid="fridge", **columns)


def fridge_csv(root: Path) -> Path:
    return root / "house_1" / "utility" / "electricity" / "appliances" / "fridge.csv"


def save_fridge(c, root: Path) -> None:
    save_dataset_dir(DataSet("x", {1: mk_building(appliances={"fridge": c})}), root)


def load_fridge(root: Path):
    return load_dataset_dir(root).buildings[1].appliances["fridge"]


def write_fridge_csv(tmp_path: Path, body: str) -> Path:
    save_dataset_dir(build_dataset(), tmp_path / "ds")
    path = fridge_csv(tmp_path / "ds")
    path.write_text(f"timestamp,power_active\n{body}", encoding="utf-8", newline="")
    return path


# Channel CSV bodies (after a "timestamp,power_active" header) that loading
# rejects, each with the line and message of the error.
CORRUPTED_BODIES = {
    "too-many-fields": ("1,5\n2,6,7\n", "3: expected 2 fields, got 3"),
    "extra-field-every-row": ("1,5,7\n2,6,8\n", "2: expected 2 fields, got 3"),
    "too-few-fields": ("1,5\n2\n", "3: expected 2 fields, got 1"),
    "non-numeric": ("1,5\n2,abc\n", "3: non-numeric value"),
    "empty-field": ("1,\n", "2: non-numeric value"),
    # np.loadtxt would read this field as 6; float() does not.
    "loadtxt-only-space": ("1,5\n2,\x1c6\n", "3: non-numeric value"),
    "duplicate": ("1,5\n1,6\n", "3: duplicate timestamp 1"),
    "non-monotone": ("2,5\n1,6\n", "3: non-monotone timestamp 1"),
    "nan-value": ("1,5\n2,nan\n", "3: non-finite value"),
    "inf-value": ("1,inf\n", "2: non-finite value"),
    "nan-timestamp": ("nan,1.0\n5,2.0\n", "2: non-finite timestamp nan"),
    "inf-timestamp-last": ("1,1.0\ninf,2.0\n", "3: non-finite timestamp inf"),
    "comment-line": ("1,5\n# note\n2,6\n", "3: expected 2 fields, got 1"),
    "comment-row": ("1,5\n#2,6\n", "3: non-numeric value"),
    "blank-lines": ("1,5\n\n\n2,6\n2,7\n", "6: duplicate timestamp 2"),
    "whitespace-line": ("1,5\n  \n1,6\n", "4: duplicate timestamp 1"),
}

# Bodies that load, each with its (timestamp, power) rows.
IRREGULAR_VALID_BODIES = {
    "header-only": ("", []),
    "blank-lines-only": ("\n\n", []),
    "whitespace-line": ("1,5\n\n  \n2,6\n", [[1.0, 5.0], [2.0, 6.0]]),
    "crlf": ("1,5\r\n2,6\r\n", [[1.0, 5.0], [2.0, 6.0]]),
    "padded-fields": (" 1 , 5 \n2,6", [[1.0, 5.0], [2.0, 6.0]]),
}


class TestChannelCsv:
    @settings(max_examples=100, deadline=None)
    @given(channels())
    def test_save_load_is_bit_identical(self, c):
        with tempfile.TemporaryDirectory() as tmp:
            one, two = Path(tmp, "one"), Path(tmp, "two")
            save_fridge(c, one)
            again = load_fridge(one)
            assert again.timestamps.tobytes() == c.timestamps.tobytes()
            assert list(again.columns) == sorted(c.columns, key=lambda m: m.column_name)
            for m, v in c.columns.items():
                assert again.columns[m].tobytes() == v.tobytes(), m.column_name
            # The whole-array parse reads what the line loop reads.
            report = ImportReport()
            with fridge_csv(one).open(encoding="utf-8") as f:
                f.readline()
                rows = _read_lines(fridge_csv(one), f, 1 + len(c.columns), ",", report, 2)
            assert report == ImportReport()
            assert rows[:, 0].tobytes() == again.timestamps.tobytes()
            for j, v in enumerate(again.columns.values(), start=1):
                assert rows[:, j].tobytes() == v.tobytes()
            save_fridge(again, two)
            assert fridge_csv(one).read_bytes() == fridge_csv(two).read_bytes()

    def test_blocks_match_per_row_format(self, tmp_path):
        # Three blocks: two of whole-number timestamps (the second starts at
        # 0.0), then one with a fractional timestamp; values repeat 0.0 next
        # to -0.0.
        n = 2 * _CSV_BLOCK_ROWS + 3
        t = np.arange(-_CSV_BLOCK_ROWS, n - _CSV_BLOCK_ROWS, dtype=float)
        t[-2] += 0.1
        v = np.tile([0.0, -0.0, 120.5, 1 / 3], n)[:n]
        c = mk_channel(t, v, cid="fridge")
        save_fridge(c, tmp_path)
        lines = fridge_csv(tmp_path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "timestamp,power_active"
        assert lines[1:] == [f"{_format_timestamp(a)},{b!r}" for a, b in zip(t.tolist(), v.tolist())]
        assert lines[1 + _CSV_BLOCK_ROWS] == "0,0.0"

    def test_negative_zero_timestamp_written_as_minus_zero(self, tmp_path):
        c = mk_channel([-0.0, 1.0, 2.0], [1.0, 2.0, 3.0], cid="fridge")
        save_fridge(c, tmp_path)
        text = fridge_csv(tmp_path).read_text(encoding="utf-8")
        assert text == "timestamp,power_active\n-0,1.0\n1,2.0\n2,3.0\n"
        assert load_fridge(tmp_path).timestamps.tobytes() == c.timestamps.tobytes()

    def test_timestamps_round_trip_losslessly(self, tmp_path):
        t = np.array(
            [-1e-9, 0.1234567, 2.5, 1303132929.123456, 1303132929.1234567]
            + [k * 0.1 for k in range(30, 60)]
        )
        t.sort()
        save_fridge(mk_channel(t, np.ones(t.size), cid="fridge"), tmp_path)
        assert load_fridge(tmp_path).timestamps.tobytes() == t.tobytes()
        stamps = [line.split(",")[0] for line in fridge_csv(tmp_path).read_text().splitlines()]
        # Microsecond-grid timestamps keep their 6-decimal text.
        assert {"2.5", "1303132929.123456", "3", "4.5"} <= set(stamps)
        assert {"-1e-09", "0.1234567", "3.3000000000000003"} <= set(stamps)

    @pytest.mark.parametrize("body, where", CORRUPTED_BODIES.values(), ids=CORRUPTED_BODIES)
    def test_corrupted_file_names_line(self, tmp_path, body, where):
        path = write_fridge_csv(tmp_path, body)
        with pytest.raises(SchemaError) as e:
            load_dataset_dir(tmp_path / "ds")
        assert str(e.value) == f"{path}:{where}"

    def test_bad_row_reported_before_undecodable_bytes(self, tmp_path):
        path = write_fridge_csv(tmp_path, "")
        path.write_bytes(b"timestamp,power_active\n1,5\n1,6\n" + b"2,7\n" * 5000 + b"\xff\n")
        with pytest.raises(SchemaError) as e:
            load_dataset_dir(tmp_path / "ds")
        assert str(e.value) == f"{path}:3: duplicate timestamp 1"

    @pytest.mark.parametrize("body, where", [
        ("0,5\n-0.0,6\n", "3: duplicate timestamp -0.0"),
        ("1,5\n3,6\n2,7\n4,8\n", "4: non-monotone timestamp 2"),
        ("".join(f"{i},5\n" for i in range(1, 3001)) + "2999,6\n", "3002: non-monotone timestamp 2999"),
        # Past the first block the text reader decodes.
        ("".join(f"{i},5\n" for i in range(1, 3001)) + "3001,\x1c6\n", "3002: non-numeric value"),
    ], ids=["negative-zero-repeat", "out-of-order", "out-of-order-late", "loadtxt-only-space-late"])
    def test_order_and_separator_faults_name_the_line(self, tmp_path, body, where):
        path = write_fridge_csv(tmp_path, body)
        with pytest.raises(SchemaError) as e:
            load_dataset_dir(tmp_path / "ds")
        assert str(e.value) == f"{path}:{where}"

    def test_undecodable_byte_is_a_non_numeric_row(self, tmp_path):
        path = write_fridge_csv(tmp_path, "")
        path.write_bytes(b"timestamp,power_active\n1,5\n2,\xff6\n3,7\n")
        with pytest.raises(SchemaError) as e:
            load_dataset_dir(tmp_path / "ds")
        assert str(e.value) == f"{path}:3: non-numeric value"

    @pytest.mark.parametrize("text, what", [
        (b"", "missing header row"),
        (b"\n1,5\n", "missing header row"),
        (b"power_active,timestamp\n5,1\n", "first column must be 'timestamp'"),
        (b"time,power_active\n1,5\n", "first column must be 'timestamp'"),
        (b"timestamp,power_\xffactive\n1,5\n", "unknown measurement"),
    ], ids=["empty", "blank-first-line", "timestamp-second", "other-name", "undecodable"])
    def test_bad_header_names_the_file(self, tmp_path, text, what):
        path = write_fridge_csv(tmp_path, "")
        path.write_bytes(text)
        with pytest.raises(SchemaError) as e:
            load_dataset_dir(tmp_path / "ds")
        assert str(e.value).startswith(f"{path}: {what}")

    @pytest.mark.parametrize(
        "body, rows", IRREGULAR_VALID_BODIES.values(), ids=IRREGULAR_VALID_BODIES
    )
    def test_irregular_valid_file_loads_without_warning(self, tmp_path, body, rows):
        write_fridge_csv(tmp_path, body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = load_fridge(tmp_path / "ds")
        expected = np.array(rows, dtype=float).reshape(len(rows), 2)
        assert c.timestamps.tobytes() == expected[:, 0].tobytes()
        assert c.values(POWER_ACTIVE).tobytes() == expected[:, 1].tobytes()


CSV_SEPARATORS = [",", " , ", ",\t", "\x1f,"]


@settings(max_examples=200, deadline=None)
@given(body=flat_bodies(CSV_SEPARATORS))
def test_csv_loader_raises_the_line_loops_first_note(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_fridge_csv(Path(tmp), "")
        path.write_bytes(b"timestamp,power_active\n" + body)
        report = ImportReport()
        with path.open(encoding="utf-8", errors="replace") as f:
            f.readline()
            start = f.tell()
            parsed = nio._parse_body(f, 2, ",")
            f.seek(start)
            rows = _read_lines(path, f, 2, ",", report, 2)
        try:
            c = load_fridge(Path(tmp) / "ds")
        except SchemaError as e:
            assert report.details and str(e) == report.details[0]
            assert parsed is None
            return
    assert report == ImportReport()
    assert c.timestamps.tobytes() == rows[:, 0].tobytes()
    assert c.values(POWER_ACTIVE).tobytes() == rows[:, 1].tobytes()
    if parsed is not None:
        assert parsed.tobytes() == rows.tobytes()


# How a channel's timestamps relate to the first channel's.
TIMESTAMP_KINDS = ("shared", "bit-equal copy", "float-equal", "different")


NAN, INF = float("nan"), float("inf")

# Starts that put a block's stamps on each side of the writer's digit path:
# fractional, -0.0, negative whole, whole from 0 up across 9 999 -> 10 000
# inside the first block, and whole at and above 2**53 and past int64.
STARTS = [0.0, -0.0, 1303132929.5, -7.25, -5000.0, 9000.0, 2.0**53, 1e17, 1e19]

# Value mixes: few repeating levels (with 0.0 next to -0.0), levels of one
# text width, so that with one-width stamps no byte is padding, and
# all-distinct values.
VALUE_MIXES = {
    "levels": lambda rng, n: rng.choice([0.0, -0.0, 150.0, 1 / 3, 1600.25], n),
    "one width": lambda rng, n: rng.choice([150.0, 700.0], n),
    "mixed": lambda rng, n: np.where(
        rng.random(n) < 0.5, rng.choice([0.0, -0.0, 150.0, 1 / 3], n), rng.normal(0.0, 1000.0, n)
    ),
    "distinct": lambda rng, n: rng.normal(0.0, 1000.0, n),
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_shared_timestamp_columns_written_as_one_channel_at_a_time(data):
    # Channels with one timestamp column are written together; each file
    # must hold the bytes of that channel written on its own, a line per row.
    n = data.draw(
        st.one_of(st.integers(0, 20), st.integers(0, 9000), st.sampled_from([4097, 8193])),
        label="rows",
    )
    start = data.draw(st.sampled_from(STARTS), label="start")
    # Above 2**53 a step of 1 or less rounds away, and a step under 2 ulp of
    # the last stamp can repeat a stamp.
    if start >= 2.0**53:
        periods = [p for p in (6.0, 4096.0) if p >= 2 * np.spacing(start + n * p)]
    else:
        periods = [1.0, 6.0, 0.1]
    period = data.draw(st.sampled_from(periods), label="period")
    base = start + np.arange(n) * period
    if data.draw(st.booleans(), label="fractional after the first block"):
        base[_CSV_BLOCK_ROWS:] += 0.25
    base.setflags(write=False)  # so channels share it
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mains, appliances = [], {}
    for i in range(data.draw(st.integers(1, 4), label="channels")):
        kind = data.draw(st.sampled_from(TIMESTAMP_KINDS), label="kind")
        if kind == "shared":
            t = base
        elif kind == "bit-equal copy":
            t = base.copy()
        elif kind == "float-equal":
            # A leading 0.0 turned -0.0 or back: equal as floats, not as bits.
            t = base.copy()
            t[:1] = np.where(t[:1] == 0.0, -t[:1], t[:1])
        else:
            t = base[: data.draw(st.integers(0, n))] + 0.5
        names = data.draw(st.lists(
            st.sampled_from(["power_active", "power_apparent", "voltage"]),
            min_size=1, max_size=3, unique=True,
        ))
        columns = {
            name: VALUE_MIXES[data.draw(st.sampled_from(sorted(VALUE_MIXES)), label="values")](rng, t.size)
            for name in names
        }
        c = mk_channel(t, cid=f"app_{i}", **columns)
        if data.draw(st.booleans(), label="mains"):
            mains.append(c)
        else:
            appliances[c.id] = c
    with tempfile.TemporaryDirectory() as tmp:
        save_dataset_dir(DataSet("x", {1: mk_building(mains, appliances)}), Path(tmp, "ds"))
        elec = Path(tmp, "ds", "house_1", "utility", "electricity")
        expected = {f"mains/mains_{j}.csv": c for j, c in enumerate(mains, start=1)}
        expected.update({f"appliances/{name}.csv": c for name, c in appliances.items()})
        written = sorted(str(p.relative_to(elec)) for p in elec.rglob("*.csv"))
        assert written == sorted(expected)
        for rel, c in expected.items():
            oracle = Path(tmp, "oracle.csv")
            write_channel_csv_rows(oracle, c)
            assert (elec / rel).read_bytes() == oracle.read_bytes(), rel


def in_shortest_range(bits: np.ndarray) -> np.ndarray:
    """Whether each bit pattern is a float x with 2**-4 <= |x| < 2**53."""
    magnitude = bits & (2**63 - 1)
    return (magnitude >= _SHORTEST_LOW) & (magnitude < _SHORTEST_HIGH)


def _edge_values() -> np.ndarray:
    """Floats at the edges of the digit routine's range and rules, with
    both signs: zeros, subnormals, every power of two from 2**-4 to 2**53
    and its neighbours, whole numbers, halves, short decimals, the
    neighbours of powers of ten and ties between two shortest texts."""
    powers = 2.0 ** np.arange(-4, 54)
    tens = 10.0 ** np.arange(-2, 17)
    rng = np.random.default_rng(0)
    short = [round(x, k) for k in range(1, 8) for x in rng.uniform(0.0625, 1e4, 20).tolist()]
    values = np.concatenate([
        [0.0, 5e-324, 2.0**-1074 * 12345, 2.0**-1022 * (1 - 2.0**-52), 2.0**-1022],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.arange(1.0, 200.0), np.arange(0.5, 100.0), short,
        [0.1, 0.3, 0.7, 0.9999999999999999, 2.0**52 - 0.5, 2.0**53 - 1, 1e16, 1.5e300],
        # Halfway between two shortest texts, so the even last digit is taken.
        2.0**46 + np.array([0.125, 0.375]), 2.0**49 + np.array([0.25, 0.75]),
    ])
    return np.concatenate([values, -values])


EDGE_VALUES = _edge_values()


def value_blocks(data, finite: bool) -> np.ndarray:
    """A block of at least ``_SHORTEST_MIN_VALUES`` distinct floats: random
    bit patterns in the digit routine's range, with some replaced by edge
    values and, drawn, by any bit patterns (NaN and inf only if not
    ``finite``)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(_SHORTEST_MIN_VALUES, _CSV_BLOCK_ROWS), label="rows")
    bits = rng.integers(_SHORTEST_LOW, _SHORTEST_HIGH, n) | (rng.integers(0, 2, n) << 63)
    # The first _SHORTEST_MIN_VALUES stay distinct in-range values.
    rest = np.arange(_SHORTEST_MIN_VALUES, n)
    edges = rest[rng.random(rest.size) < data.draw(st.floats(0, 1), label="edge share")]
    bits[edges] = EDGE_VALUES[rng.integers(0, EDGE_VALUES.size, edges.size)].view(np.int64)
    if data.draw(st.booleans(), label="any bit patterns"):
        anywhere = rest[rng.random(rest.size) < 0.2]
        bits[anywhere] = rng.integers(-(2**63), 2**63 - 1, anywhere.size, endpoint=True)
    values = rng.permutation(bits).view(np.float64)
    return values[np.isfinite(values)] if finite else values


repr_texts = nio._repr_texts


def repr_outside_shortest_range(bits: np.ndarray) -> np.ndarray:
    """The repr fallback, failing on a value the digit routine should take."""
    assert not in_shortest_range(bits).any(), "a block at or above the crossover skipped the digit routine"
    return repr_texts(bits)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_value_texts_are_repr_of_each_value(data):
    v = value_blocks(data, finite=False)
    with mock.patch.object(nio, "_repr_texts", repr_outside_shortest_range):
        texts, index = _value_table(v, _ShortestScratch(v.size))
    assert np.unique(v.view(np.int64)).size >= _SHORTEST_MIN_VALUES
    for x, text in zip(v.tolist(), texts[index].tolist()):
        assert text.replace(b"\0", b"") == repr(float(x)).encode()


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_channel_of_distinct_values_saves_and_loads_bit_identical(data):
    v = value_blocks(data, finite=True)
    c = mk_channel(np.arange(v.size, dtype=float), v, cid="fridge")
    with tempfile.TemporaryDirectory() as tmp:
        with mock.patch.object(nio, "_repr_texts", repr_outside_shortest_range):
            save_fridge(c, Path(tmp))
        assert load_fridge(Path(tmp)).values(POWER_ACTIVE).tobytes() == v.tobytes()
        oracle = Path(tmp, "oracle.csv")
        write_channel_csv_rows(oracle, c)
        assert fridge_csv(Path(tmp)).read_bytes() == oracle.read_bytes()


def co_model():
    return COModel(
        appliances=(
            ApplianceStateModel("fridge", np.array([0.0, 120.5]), np.array([1.0, 3.25])),
        )
    )


def fhmm_model():
    base = ApplianceStateModel("fridge", np.array([0.1234567891234, 120.0]), np.array([1.0, 3.0]))
    return FHMMModel(
        appliances=(
            ApplianceHMM(
                base,
                pi=np.array([0.3333333333333333, 0.6666666666666667]),
                A=np.array([[0.9, 0.1], [0.2, 0.8]]),
            ),
        ),
        noise_variance=31.41592653589793,
    )


# Edits that each make an exported FHMM model invalid.
INVALID_MODEL_EDITS = {
    "no-appliances": lambda r: r.update(appliances=[]),
    "mean-nan": lambda r: r["appliances"][0]["states"][1].update(mean=NAN),
    "mean-inf": lambda r: r["appliances"][0]["states"][1].update(mean=INF),
    "means-descending": lambda r: r["appliances"][0]["states"][1].update(mean=-5.0),
    "std-nan": lambda r: r["appliances"][0]["states"][0].update(std=NAN),
    "std-inf": lambda r: r["appliances"][0]["states"][0].update(std=INF),
    "pi-nan": lambda r: r["appliances"][0].update(pi=[NAN, 0.5]),
    "pi-inf": lambda r: r["appliances"][0].update(pi=[INF, 0.5]),
    "A-nan": lambda r: r["appliances"][0].update(A=[[NAN, 0.1], [0.2, 0.8]]),
    "A-inf": lambda r: r["appliances"][0].update(A=[[INF, 0.1], [0.2, 0.8]]),
    "noise-variance-nan": lambda r: r.update(noise_variance=NAN),
    "noise-variance-inf": lambda r: r.update(noise_variance=INF),
    "missing-mean": lambda r: r["appliances"][0]["states"][0].pop("mean"),
    "missing-name": lambda r: r["appliances"][0].pop("name"),
    "missing-noise-variance": lambda r: r.pop("noise_variance"),
}


class TestModelJson:
    def test_co_schema(self):
        raw = json.loads(export_model_json(co_model()))
        assert raw["algorithm"] == "co"
        assert raw["appliances"][0]["states"][0] == {"mean": 0.0, "std": 1.0}

    def test_fhmm_schema_shapes(self):
        raw = json.loads(export_model_json(fhmm_model()))
        assert raw["algorithm"] == "fhmm"
        entry = raw["appliances"][0]
        assert len(entry["pi"]) == 2
        assert len(entry["A"]) == 2 and len(entry["A"][0]) == 2
        assert sum(entry["A"][0]) == pytest.approx(1.0, abs=1e-9)

    def test_round_trip_bit_exact(self):
        for model in (co_model(), fhmm_model()):
            again = import_model_json(export_model_json(model))
            for a, b in zip(model.appliances, again.appliances):
                assert np.array_equal(a.means, b.means)
            if isinstance(model, FHMMModel):
                assert again.noise_variance == model.noise_variance
                for a, b in zip(model.appliances, again.appliances):
                    assert np.array_equal(a.pi, b.pi)
                    assert np.array_equal(a.A, b.A)

    def test_tag_is_the_model_types_algorithm(self):
        for model in (co_model(), fhmm_model()):
            raw = json.loads(export_model_json(model))
            assert raw["algorithm"] == type(model).algorithm
            assert type(import_model_json(export_model_json(model))) is type(model)

    @pytest.mark.parametrize("tag", ["hmm", "CO", ["co"], None])
    def test_unknown_algorithm_rejected(self, tag):
        raw = json.loads(export_model_json(co_model()))
        raw["algorithm"] = tag
        with pytest.raises(SchemaError, match=f"unknown algorithm {re.escape(repr(tag))}"):
            import_model_json(json.dumps(raw))

    def test_export_rejects_a_non_model(self):
        with pytest.raises(TypeError, match="cannot export ApplianceStateModel"):
            export_model_json(co_model().appliances[0])

    def test_missing_noise_variance_named(self):
        raw = json.loads(export_model_json(fhmm_model()))
        del raw["noise_variance"]
        with pytest.raises(SchemaError, match="missing field 'noise_variance'"):
            import_model_json(json.dumps(raw))

    def test_bad_pi_rejected(self):
        raw = json.loads(export_model_json(fhmm_model()))
        raw["appliances"][0]["pi"] = [0.6, 0.5]
        with pytest.raises(SchemaError, match="pi must sum to 1"):
            import_model_json(json.dumps(raw))

    def test_missing_algorithm_rejected(self):
        raw = json.loads(export_model_json(co_model()))
        del raw["algorithm"]
        for text in (json.dumps(raw), "[]", "5"):
            with pytest.raises(SchemaError, match="algorithm"):
                import_model_json(text)

    @pytest.mark.parametrize("text, what", [
        ("{", "model JSON is not valid JSON"),
        ('{"algorithm": "co"}', "model JSON has no appliances"),
        ('{"algorithm": "co", "appliances": []}', "model JSON has no appliances"),
    ], ids=["not-json", "no-appliances-key", "empty-appliances"])
    def test_unreadable_model_named(self, text, what):
        with pytest.raises(SchemaError) as e:
            import_model_json(text)
        assert str(e.value).startswith(what)

    def test_negative_std_rejected(self):
        raw = json.loads(export_model_json(co_model()))
        raw["appliances"][0]["states"][0]["std"] = -1.0
        with pytest.raises(SchemaError, match="positive"):
            import_model_json(json.dumps(raw))

    @pytest.mark.parametrize("edit", INVALID_MODEL_EDITS.values(), ids=INVALID_MODEL_EDITS)
    def test_invalid_model_rejected(self, edit):
        raw = json.loads(export_model_json(fhmm_model()))
        edit(raw)
        with pytest.raises(SchemaError):
            import_model_json(json.dumps(raw))


class TestDailySeriesCsv:
    def test_iso_dates_and_header(self, tmp_path):
        p = tmp_path / "weather.csv"
        p.write_text("date,tmax\n1970-01-01,5.5\n1970-01-03,7.25\n", encoding="utf-8")
        assert load_daily_series_csv(p) == {0: 5.5, 2: 7.25}

    def test_epoch_days(self, tmp_path):
        p = tmp_path / "weather.csv"
        p.write_text("12,3.0\n", encoding="utf-8")
        assert load_daily_series_csv(p) == {12: 3.0}

    @pytest.mark.parametrize("text, where", [
        ("date,tmax\n1970-01-01,warm\n", "2: non-numeric value"),
        ("1970-01-01,5.5\n1970-01-02,\n", "2: non-numeric value"),
        ("date,tmax\n1970-13-01,5.5\n", "2: bad date '1970-13-01'"),
        ("yesterday,5.5\n", "1: bad date 'yesterday'"),
    ], ids=["word-after-header", "empty-value", "bad-month", "not-a-date"])
    def test_bad_row_names_the_line(self, tmp_path, text, where):
        p = tmp_path / "weather.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError) as e:
            load_daily_series_csv(p)
        assert str(e.value) == f"{p}:{where}"


# Finite floats (zeros and subnormals among them) plus the canonical NaN and
# both infinities; a NaN's sign and payload do not survive any text format.
CSV_FLOATS = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]
)
CSV_INTS = st.integers(-(2**63), 2**63 - 1)
CSV_CELLS = st.one_of(
    CSV_FLOATS, CSV_FLOATS.map(np.float64), CSV_INTS, CSV_INTS.map(np.int64),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_ ()\[\]]*", fullmatch=True),
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_json_text_rejects_non_finite(value):
    # Strict JSON parsers reject NaN and Infinity, so no file may hold them.
    with pytest.raises(ValueError, match="not JSON compliant"):
        json_text({"x": [1.0, value]})


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(CSV_CELLS, min_size=1, max_size=4), max_size=5))
    def test_every_cell_reads_back_bit_equal(self, rows):
        lines = csv_text(("name", "value"), rows).split("\n")
        assert lines[0] == "name,value" and lines[-1] == ""
        assert len(lines) == len(rows) + 2
        for row, line in zip(rows, lines[1:]):
            cells = line.split(",")
            assert len(cells) == len(row)
            for x, cell in zip(row, cells):
                if isinstance(x, (float, np.floating)):
                    assert np.float64(float(cell)).tobytes() == np.float64(x).tobytes()
                elif isinstance(x, (int, np.integer)):
                    assert int(cell) == int(x)
                else:
                    assert cell == x
                if type(x) in (float, int):
                    assert cell == f"{x!r}"
