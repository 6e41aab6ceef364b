import numpy as np
import pytest

from nilmbench.data import Building, Channel, DataSet, Measurement, POWER_ACTIVE


def mk_channel(timestamps, power=None, period=1.0, cid="ch", **named_columns):
    """Build a channel from plain lists; extra columns by CSV name."""
    columns = {}
    if power is not None:
        columns[POWER_ACTIVE] = np.asarray(power, dtype=float)
    for name, values in named_columns.items():
        columns[Measurement.from_column_name(name)] = np.asarray(values, dtype=float)
    return Channel(
        id=cid,
        timestamps=np.asarray(timestamps, dtype=float),
        columns=columns,
        nominal_period=period,
    )


def mk_building(mains=(), appliances=None, bid=1, **kwargs):
    return Building(
        id=bid, mains=tuple(mains), appliances=appliances or {}, **kwargs
    )


def assert_channel_equal(a, b, rel=0.0):
    assert len(a) == len(b)
    assert np.array_equal(a.timestamps, b.timestamps)
    assert set(a.columns) == set(b.columns)
    for m in a.columns:
        if rel == 0.0:
            assert np.array_equal(a.columns[m], b.columns[m]), m.column_name
        else:
            np.testing.assert_allclose(a.columns[m], b.columns[m], rtol=rel)
    assert a.nominal_period == b.nominal_period


def assert_dataset_equal(a: DataSet, b: DataSet, rel=0.0):
    assert a.name == b.name
    assert a.metadata == b.metadata
    assert sorted(a.buildings) == sorted(b.buildings)
    for bid in a.buildings:
        ba, bb = a.buildings[bid], b.buildings[bid]
        assert ba.id == bb.id
        assert ba.metadata == bb.metadata
        assert tuple(ba.wiring) == tuple(bb.wiring)
        assert len(ba.mains) == len(bb.mains)
        for ca, cb in zip(ba.mains, bb.mains):
            assert_channel_equal(ca, cb, rel)
        assert sorted(ba.appliances) == sorted(bb.appliances)
        for name in ba.appliances:
            assert_channel_equal(ba.appliances[name], bb.appliances[name], rel)


@pytest.fixture
def simple_building():
    t = np.arange(0.0, 100.0)
    fridge = mk_channel(t, np.where(np.arange(100) % 10 < 5, 120.0, 0.0), cid="fridge")
    tv = mk_channel(t, np.where(np.arange(100) % 4 < 2, 80.0, 0.0), cid="television")
    mains = mk_channel(t, fridge.values(POWER_ACTIVE) + tv.values(POWER_ACTIVE), cid="mains_1")
    return mk_building(
        mains=[mains],
        appliances={"fridge": fridge, "television": tv},
        wiring=[("mains_1", "fridge"), ("mains_1", "television")],
    )
