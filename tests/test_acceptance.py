"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 10 needs a locally supplied dataset and is skipped unless
NILM_AMPDS_DIR points at a canonical-layout copy.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from nilmbench.data import POWER_ACTIVE, mains_total
from nilmbench.diagnostics import detect_gaps, dropout_rate, uptime
from nilmbench.disaggregate import disaggregate_co, disaggregate_fhmm
from nilmbench.io import (
    export_model_json,
    import_model_json,
    load_dataset_dir,
    save_dataset_dir,
)
from nilmbench.metrics import (
    classification_counts,
    error_total_energy,
    evaluate,
    fraction_energy_assigned_correctly,
    hamming_loss,
    normalized_error_assigned_power,
    rates,
    rms_error,
)
from nilmbench.pipeline import RunConfig, run
from nilmbench.preprocess import normalize_voltage, train_test_split
from nilmbench.stats import proportion_energy_submetered
from nilmbench.synth import default_benchmark_spec, generate
from nilmbench.training import (
    ApplianceHMM,
    ApplianceStateModel,
    COModel,
    FHMMModel,
    learn_building_states,
    train_co,
    train_fhmm,
)

from conftest import assert_dataset_equal, mk_channel
from oracles import (
    build_product_hmm,
    co_bruteforce,
    dense_viterbi,
    fhmm_path_loglik,
    product_index,
)
from test_metrics import predictions_from_truth


def announce(n, description):
    print(f"\ncriterion {n} PASS: {description}")


def aggregate_channel(y, period=1.0):
    return mk_channel(np.arange(len(y), dtype=float) * period, y, period=period, cid="mains")


def random_state_model(rng, name, K, grid=True):
    if grid:
        means = np.sort(rng.choice(np.arange(0, 40) * 25.0, size=K, replace=False))
    else:
        means = np.sort(rng.uniform(0, 1000, K))
    return ApplianceStateModel(name, means, np.full(K, 5.0))


def random_hmm(rng, name, K):
    means = np.sort(rng.uniform(0, 800, K))
    while np.any(np.diff(means) < 1.0):
        means = np.sort(rng.uniform(0, 800, K))
    return ApplianceHMM(
        base=ApplianceStateModel(name, means, rng.uniform(3, 25, K)),
        pi=rng.dirichlet(np.ones(K)),
        A=rng.dirichlet(np.ones(K), size=K),
    )


def test_criterion_1_co_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for i in range(200):
        rng = np.random.default_rng(1000 + i)
        N = int(rng.integers(1, 4))
        models = [
            random_state_model(rng, f"a{n}", int(rng.integers(2, 4)), grid=(i % 2 == 0))
            for n in range(N)
        ]
        m = COModel(appliances=tuple(models))
        T = int(rng.integers(1, 101))
        # Grid-valued aggregates force tie-breaking on half of the instances.
        y = (
            rng.choice(np.arange(0, 90) * 12.5, size=T)
            if i % 2 == 0
            else rng.uniform(0, 2500, T)
        )
        p = disaggregate_co(m, aggregate_channel(y))
        for t in range(T):
            want = co_bruteforce(models, float(y[t]))
            got = tuple(int(p.appliances[a.name].states[t]) for a in models)
            assert got == want, (i, t, float(y[t]), got, want)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"CO oracle sweep took {elapsed:.1f}s"
    announce(1, f"CO matches exhaustive argmin on 200 instances "
                f"({checked} slices, ties included) in {elapsed:.1f}s")


def test_criterion_2_fhmm_oracle_equivalence():
    start = time.monotonic()
    for i in range(50):
        rng = np.random.default_rng(2000 + i)
        N = int(rng.integers(1, 4))
        m = FHMMModel(
            appliances=tuple(random_hmm(rng, f"a{n}", 2) for n in range(N)),
            noise_variance=float(rng.uniform(25, 100)),
        )
        T = int(rng.integers(2, 201))
        y = rng.uniform(0, 1800, T)
        p = disaggregate_fhmm(m, aggregate_channel(y))
        ph = build_product_hmm(m)
        path, ll = dense_viterbi(ph.pi, ph.A, ph.emission_means, ph.emission_variances, y)
        got = np.stack([p.appliances[a.name].states for a in m.appliances], axis=1)
        got_idx = np.array([product_index(row, ph.sizes) for row in got])
        assert np.array_equal(got_idx, path), i
        ll_got = fhmm_path_loglik(m, got, y)
        assert abs(ll_got - ll) <= 1e-9 * max(1.0, abs(ll)), (i, ll_got, ll)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"FHMM oracle sweep took {elapsed:.1f}s"
    announce(2, f"FHMM decode equals product-HMM Viterbi on 50 instances "
                f"(paths identical, log-likelihood within 1e-9) in {elapsed:.1f}s")


def test_criterion_3_metric_identities(simple_building):
    p = predictions_from_truth(simple_building)
    report = evaluate(p, simple_building)
    assert report.fte == 1.0
    assert report.hamming_loss == 0.0
    for a in report.appliances:
        assert a.nep == 0.0
        assert a.rmse == 0.0
        assert a.f_score == 1.0

    # Hand-enumerated examples, exact.
    assert error_total_energy([100.0, 100.0], [50.0, 150.0], 1.0) == 0.0
    assert error_total_energy([100.0, 100.0], [0.0, 0.0], 1.0) == 200.0
    assert fraction_energy_assigned_correctly(
        {"a": np.array([60.0]), "b": np.array([40.0])},
        {"a": np.array([50.0]), "b": np.array([50.0])},
    ) == pytest.approx(0.9, abs=1e-12)
    assert normalized_error_assigned_power([100.0, 100.0], [50.0, 150.0]) == 0.5
    assert rms_error([100.0, 100.0], [50.0, 150.0]) == 50.0
    counts = classification_counts(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]))
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
    r = rates(counts)
    assert (r.precision, r.recall, r.f_score) == (0.5, 0.5, 0.5)
    assert hamming_loss(
        {"a": np.array([1, 0]), "b": np.array([0, 0])},
        {"a": np.array([1, 0]), "b": np.array([1, 0])},
    ) == 0.25
    announce(3, "self-evaluation is exactly perfect; hand-enumerated metric "
                "examples hold exactly")


def test_criterion_4_diagnostics_exactness():
    c = mk_channel([0.0, 1.0, 2.0, 100.0, 101.0], np.zeros(5))
    assert [(g.start, g.end) for g in detect_gaps(c, 3.0)] == [(2.0, 100.0)]

    t = [float(x) for x in range(100) if not 40 <= x < 50]
    assert dropout_rate(mk_channel(t, np.zeros(len(t)))) == 0.10

    t = list(np.arange(0.0, 41.0)) + list(np.arange(60.0, 101.0))
    c = mk_channel(t, np.zeros(len(t)))
    assert uptime(c, 3.0) == 80.0
    gaps = detect_gaps(c, 3.0)
    assert sum(g.duration for g in gaps) + uptime(c, 3.0) == 100.0
    announce(4, "gap lists, uptime and dropout rates reproduce exact rational values")


def _nep_by_algorithm(seed):
    spec = default_benchmark_spec(seed=seed)
    ds, _ = generate(spec)
    train_b, test_b = train_test_split(ds.buildings[1], 0.5)
    aggregate = mains_total(test_b)
    states = learn_building_states(train_b, POWER_ACTIVE, 2)
    out = {}
    for name, trainer, decoder in (
        ("co", train_co, disaggregate_co),
        ("fhmm", train_fhmm, disaggregate_fhmm),
    ):
        model = trainer(train_b, states, POWER_ACTIVE)
        predictions = decoder(model, aggregate)
        report = evaluate(predictions, test_b)
        neps = [a.nep for a in report.appliances if "nep" not in a.undefined]
        out[name] = float(np.mean(neps))
    return out


def test_criterion_5_fhmm_beats_co_on_structured_data():
    start = time.monotonic()
    spec = default_benchmark_spec()
    assert spec.noise_std == 30.0
    wins = 0
    margins = []
    for seed in range(3000, 3020):
        neps = _nep_by_algorithm(seed)
        if neps["fhmm"] <= neps["co"]:
            wins += 1
        margins.append(neps["co"] - neps["fhmm"])
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"seed sweep took {elapsed:.1f}s"
    assert wins >= 16, f"FHMM won only {wins}/20 seeds (margins {margins})"
    announce(5, f"FHMM NEP <= CO NEP on {wins}/20 fixed seeds "
                f"(structured data, 30 W noise) in {elapsed:.1f}s")


def test_criterion_6_co_faster_than_fhmm():
    rng = np.random.default_rng(60)
    hmms = tuple(random_hmm(rng, f"a{n}", 2) for n in range(5))
    fhmm = FHMMModel(appliances=hmms, noise_variance=50.0)
    co = COModel(appliances=tuple(a.base for a in hmms))
    y = rng.uniform(0, 3000, 10_000)
    agg = aggregate_channel(y)

    t0 = time.monotonic()
    disaggregate_co(co, agg)
    co_seconds = time.monotonic() - t0
    t0 = time.monotonic()
    disaggregate_fhmm(fhmm, agg)
    fhmm_seconds = time.monotonic() - t0
    assert co_seconds < fhmm_seconds, (co_seconds, fhmm_seconds)
    announce(6, f"CO disaggregation ({co_seconds:.3f}s) strictly faster than "
                f"FHMM ({fhmm_seconds:.3f}s) at N=5, K=2, T=10^4")


def test_criterion_7_voltage_normalization_factors():
    def one_row(power, volts):
        return mk_channel([0.0], [power], voltage=[volts])

    out = normalize_voltage(one_row(1000.0, 230.0), 230.0, 2.0)
    assert abs(out.values(POWER_ACTIVE)[0] - 1000.0) <= 1e-9 * 1000.0

    out = normalize_voltage(one_row(1000.0, 115.0), 230.0, 2.0)
    assert abs(out.values(POWER_ACTIVE)[0] - 4000.0) <= 1e-9 * 4000.0

    out = normalize_voltage(one_row(1000.0, 115.0), 230.0, 0.7)
    want = 1000.0 * 2**0.7
    assert abs(out.values(POWER_ACTIVE)[0] - want) <= 1e-9 * want
    announce(7, "voltage normalization factors (identity, x4 at half voltage "
                "beta=2, x2^0.7 at beta=0.7) hold to 1e-9 relative")


def test_criterion_8_round_trips(tmp_path):
    ds, _ = generate(default_benchmark_spec(seed=88))
    save_dataset_dir(ds, tmp_path / "ds")
    assert_dataset_equal(ds, load_dataset_dir(tmp_path / "ds"))

    train_b, _ = train_test_split(ds.buildings[1], 0.5)
    states = learn_building_states(train_b, POWER_ACTIVE, 2)
    for trainer in (train_co, train_fhmm):
        model = trainer(train_b, states, POWER_ACTIVE)
        again = import_model_json(export_model_json(model))
        assert export_model_json(again) == export_model_json(model)
    announce(8, "dataset directory save/load and model JSON import/export "
                "are lossless")


def strip_wallclock(path: Path) -> bytes:
    name = path.name
    if name == "manifest.json":
        raw = json.loads(path.read_text())
        raw.pop("timings_seconds", None)
        return json.dumps(raw, sort_keys=True).encode()
    if name.startswith("metrics") and name.endswith(".json"):
        raw = json.loads(path.read_text())
        raw.get("building", {}).pop("train_seconds", None)
        raw.get("building", {}).pop("disaggregate_seconds", None)
        return json.dumps(raw, sort_keys=True).encode()
    if name.startswith("metrics") and name.endswith(".csv"):
        lines = [
            line
            for line in path.read_text().splitlines()
            if "time (s)" not in line and "_seconds" not in line
        ]
        return "\n".join(lines).encode()
    return path.read_bytes()


def test_criterion_9_run_determinism(tmp_path):
    raw = {
        "dataset": {"format": "synth"},
        "building": 1,
        "split_fraction": 0.5,
        "algorithms": ["co", "fhmm"],
        "states": 2,
        "seed": 42,
    }
    outputs = []
    for name in ("one", "two"):
        cfg = RunConfig.from_dict({**raw, "output": str(tmp_path / name)})
        run(cfg, raw_config=raw, quiet=True)
        outputs.append(tmp_path / name)
    files_a = sorted(p.relative_to(outputs[0]) for p in outputs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outputs[1]) for p in outputs[1].rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        a = strip_wallclock(outputs[0] / rel)
        b = strip_wallclock(outputs[1] / rel)
        assert a == b, f"{rel} differs between identical runs"
    announce(9, f"two identical runs produced byte-identical artifacts "
                f"({len(files_a)} files, wall-clock fields excluded)")


AMPDS_DIR = os.environ.get("NILM_AMPDS_DIR")


@pytest.mark.skipif(
    not AMPDS_DIR, reason="optional: set NILM_AMPDS_DIR to a canonical-layout AMPds copy"
)
def test_criterion_10_optional_dataset_reproduction():
    ds = load_dataset_dir(AMPDS_DIR)
    bid = sorted(ds.buildings)[0]
    b = ds.buildings[bid]
    submetered = proportion_energy_submetered(b)
    assert 0.95 <= submetered <= 0.99
    for m in b.mains:
        assert dropout_rate(m) == 0.0
    announce(10, f"AMPds statistics reproduced: {submetered:.3f} sub-metered, "
                 "zero dropout")
