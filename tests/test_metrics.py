import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilmbench.data import POWER_ACTIVE
from nilmbench.disaggregate import AppliancePrediction, Predictions
from nilmbench.io import json_text
from nilmbench.metrics import (
    ClassificationCounts,
    classification_counts,
    confusion_matrix,
    error_total_energy,
    evaluate,
    fraction_energy_assigned_correctly,
    hamming_loss,
    normalized_error_assigned_power,
    power_to_states,
    rates,
    rms_error,
)

from conftest import mk_building, mk_channel
from oracles import fte_sum_of_minima


class TestPowerToStates:
    def test_threshold_all_off(self):
        assert list(power_to_states(np.zeros(4), threshold=10.0)) == [0, 0, 0, 0]

    def test_threshold_split(self):
        assert list(power_to_states(np.array([5.0, 50.0]), threshold=10.0)) == [0, 1]


class TestEnergyErrors:
    def test_perfect_is_zero(self):
        y = np.array([100.0, 100.0])
        assert error_total_energy(y, y, 1.0) == 0.0

    def test_cancellation_is_by_design(self):
        assert error_total_energy([100.0, 100.0], [50.0, 150.0], 1.0) == 0.0

    def test_total_miss(self):
        assert error_total_energy([100.0, 100.0], [0.0, 0.0], 1.0) == 200.0

    def test_nep_and_rmse_hand_case(self):
        y = np.array([100.0, 100.0])
        y_hat = np.array([50.0, 150.0])
        assert normalized_error_assigned_power(y, y_hat) == 0.5
        assert rms_error(y, y_hat) == 50.0
        assert normalized_error_assigned_power(y, y) == 0.0
        assert rms_error(y, y) == 0.0

    def test_sparse_load_with_always_on_prediction(self):
        # Washing-machine-like truth: rare short bursts.  An always-on
        # prediction inflates NEP far beyond 1.
        y = np.zeros(1000)
        y[::100] = 500.0
        y_hat = np.full(1000, 400.0)
        assert normalized_error_assigned_power(y, y_hat) > 10.0

    def test_nep_needs_positive_energy(self):
        with pytest.raises(ValueError):
            normalized_error_assigned_power(np.zeros(3), np.ones(3))

    @given(st.integers(0, 40))
    def test_nep_scale_invariant_for_pow2(self, k):
        y = np.array([10.0, 30.0, 0.0, 25.0])
        y_hat = np.array([12.0, 28.0, 3.0, 20.0])
        c = 2.0**k
        assert normalized_error_assigned_power(c * y, c * y_hat) == (
            normalized_error_assigned_power(y, y_hat)
        )

    def test_rmse_symmetry(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 100, 50)
        y_hat = rng.uniform(0, 100, 50)
        assert rms_error(y, y_hat) == rms_error(y_hat, y)


class TestFTE:
    def test_perfect_is_exactly_one(self):
        Y = {"a": np.array([60.0, 60.0]), "b": np.array([40.0, 40.0])}
        assert fraction_energy_assigned_correctly(Y, Y) == 1.0

    def test_hand_case(self):
        Y = {"a": np.array([60.0]), "b": np.array([40.0])}
        Y_hat = {"a": np.array([50.0]), "b": np.array([50.0])}
        assert fraction_energy_assigned_correctly(Y, Y_hat) == pytest.approx(0.9, abs=1e-12)

    def test_matches_sum_of_minima_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            names = [f"a{i}" for i in range(int(rng.integers(1, 6)))]
            Y = {n: rng.uniform(0, 100, 20) for n in names}
            Y_hat = {n: rng.uniform(0, 100, 20) for n in names}
            got = fraction_energy_assigned_correctly(Y, Y_hat)
            assert got == pytest.approx(fte_sum_of_minima(Y, Y_hat), abs=1e-12)
            assert 0.0 <= got <= 1.0

    def test_zero_totals_rejected(self):
        with pytest.raises(ValueError):
            fraction_energy_assigned_correctly({"a": np.zeros(2)}, {"a": np.ones(2)})


class TestClassification:
    def test_hand_counts(self):
        x = np.array([1, 0, 1, 0])
        x_hat = np.array([1, 1, 0, 0])
        counts = classification_counts(x, x_hat)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        r = rates(counts)
        assert r.precision == 0.5
        assert r.recall == 0.5
        assert r.f_score == 0.5
        assert r.tpr == r.recall

    def test_counts_partition_slices(self):
        rng = np.random.default_rng(1)
        x = rng.integers(0, 2, 100)
        x_hat = rng.integers(0, 2, 100)
        counts = classification_counts(x, x_hat)
        assert counts.total == 100
        assert counts.tp + counts.fn == int(np.sum(x))
        assert counts.fp + counts.tn == int(np.sum(x == 0))

    def test_zero_denominators_flagged(self):
        r = rates(ClassificationCounts(tp=0, fp=0, fn=0, tn=5))
        assert r.tpr == 0.0 and r.precision == 0.0 and r.f_score == 0.0
        assert {"tpr", "recall", "precision", "f_score"} <= set(r.undefined)
        assert "fpr" not in r.undefined

    def test_perfect_prediction(self):
        x = np.array([1, 0, 1, 1])
        r = rates(classification_counts(x, x))
        assert r.precision == 1.0 and r.recall == 1.0 and r.f_score == 1.0


class TestConfusion:
    def test_hand_matrix(self):
        x = np.array([0, 0, 1, 2, 2])
        x_hat = np.array([0, 1, 1, 2, 0])
        cm = confusion_matrix(x, x_hat, 3)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1
        assert cm[2, 2] == 1 and cm[2, 0] == 1
        assert cm.sum() == 5

    def test_binary_layout_matches_counts(self):
        x = np.array([1, 0, 1, 0, 1])
        x_hat = np.array([1, 1, 0, 0, 1])
        cm = confusion_matrix(x, x_hat, 2)
        counts = classification_counts(x, x_hat)
        assert cm[0, 0] == counts.tn
        assert cm[0, 1] == counts.fp
        assert cm[1, 0] == counts.fn
        assert cm[1, 1] == counts.tp

    def test_diagonal_over_total_is_accuracy(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 3, 60)
        x_hat = rng.integers(0, 3, 60)
        cm = confusion_matrix(x, x_hat, 3)
        assert cm.trace() / 60 == pytest.approx(float(np.mean(x == x_hat)))

    @pytest.mark.parametrize("x, x_hat", [([-1], [0]), ([0], [-1]), ([2], [0]), ([0, 1], [1, 2])])
    def test_state_outside_range_rejected(self, x, x_hat):
        # A state of -1 must not wrap into row K - 1, nor 2 spill into row 1.
        with pytest.raises(ValueError, match="states must lie in"):
            confusion_matrix(x, x_hat, 2)


class TestHamming:
    def test_perfect_and_all_wrong(self):
        X = {"a": np.array([1, 0, 1, 0])}
        assert hamming_loss(X, X) == 0.0
        assert hamming_loss(X, {"a": np.array([0, 1, 0, 1])}) == 1.0

    def test_one_cell_of_four(self):
        X = {"a": np.array([1, 0]), "b": np.array([0, 0])}
        X_hat = {"a": np.array([1, 0]), "b": np.array([1, 0])}
        assert hamming_loss(X, X_hat) == 0.25

    def test_equals_mean_binary_error_rates(self):
        rng = np.random.default_rng(4)
        X = {n: rng.integers(0, 2, 50) for n in "abc"}
        X_hat = {n: rng.integers(0, 2, 50) for n in "abc"}
        per_app = [float(np.mean(X[n] != X_hat[n])) for n in sorted(X)]
        assert hamming_loss(X, X_hat) == pytest.approx(float(np.mean(per_app)))


def predictions_from_truth(b):
    """Predictions that copy the ground truth exactly: each distinct power is
    a level and a state mean."""
    first = next(iter(b.appliances.values()))
    apps = {}
    for name, c in b.appliances.items():
        levels, states = np.unique(c.values(POWER_ACTIVE), return_inverse=True)
        apps[name] = AppliancePrediction(
            states=states,
            levels=levels,
            state_means=levels if levels.size >= 2 else np.array([0.0, 1.0]),
        )
        assert np.array_equal(levels[states], c.values(POWER_ACTIVE))
    return Predictions(
        timestamps=first.timestamps,
        nominal_period=first.nominal_period,
        appliances=apps,
    )


class TestEvaluate:
    def test_self_evaluation_is_perfect(self, simple_building):
        p = predictions_from_truth(simple_building)
        report = evaluate(p, simple_building)
        assert report.fte == 1.0
        assert report.hamming_loss == 0.0
        for a in report.appliances:
            assert a.nep == 0.0
            assert a.rmse == 0.0
            assert a.f_score == 1.0
            assert a.error_total_energy == 0.0

    def test_missing_appliance_scored_always_off(self, simple_building):
        p = predictions_from_truth(simple_building)
        apps = dict(p.appliances)
        del apps["television"]
        partial = Predictions(
            timestamps=p.timestamps, nominal_period=p.nominal_period, appliances=apps
        )
        report = evaluate(partial, simple_building)
        tv = report.appliance("television")
        assert tv.counts.tp == 0
        assert tv.nep == 1.0  # all actual on-energy missed

    def test_hamming_loss_is_that_of_the_on_off_series_scored(self, simple_building):
        # The fridge is predicted a slice late, the television not at all.
        fridge = simple_building.appliances["fridge"]
        late = np.roll(fridge.values(POWER_ACTIVE), 1)
        levels, states = np.unique(late, return_inverse=True)
        p = Predictions(fridge.timestamps, fridge.nominal_period, {
            "fridge": AppliancePrediction(states=states, levels=levels, state_means=levels),
        })
        truth = {name: power_to_states(c.values(POWER_ACTIVE), threshold=10.0)
                 for name, c in simple_building.appliances.items()}
        scored = {"fridge": power_to_states(late, threshold=10.0), "television": np.zeros(100)}
        assert evaluate(p, simple_building).hamming_loss == hamming_loss(truth, scored) > 0

    def test_disjoint_timestamps_rejected(self, simple_building):
        p = predictions_from_truth(simple_building)
        shifted = Predictions(
            timestamps=p.timestamps + 1e6,
            nominal_period=p.nominal_period,
            appliances=p.appliances,
        )
        with pytest.raises(ValueError, match="share no timestamps"):
            evaluate(shifted, simple_building)

    def test_report_serialization_columns(self, simple_building):
        p = predictions_from_truth(simple_building)
        report = evaluate(
            p, simple_building, train_seconds=1.234, disaggregate_seconds=0.567,
            algorithm="co",
        )
        csv_text = report.to_csv_text()
        assert csv_text.splitlines()[0] == "appliance,metric,algorithm,value"
        assert "NEP" in csv_text
        assert "FTE" in csv_text
        assert "F-score" in csv_text
        assert "Train time (s)" in csv_text
        assert "Disaggregate time (s)" in csv_text
        text = json_text(report.payload())
        assert '"fte": 1.0' in text
        assert "undefined" not in json.loads(text)["building"]

    def test_fte_without_energy_is_zero_and_undefined(self):
        # No appliance ever on: FTE has no energy to share out, so it is
        # reported as 0 and flagged, as a rate with a zero denominator is.
        t = np.arange(10.0)
        b = mk_building(appliances={n: mk_channel(t, np.zeros(10), cid=n) for n in ("a", "b")})
        report = evaluate(predictions_from_truth(b), b, algorithm="co")
        assert (report.fte, report.undefined) == (0.0, frozenset({"fte"}))
        building = json.loads(json_text(report.payload()))["building"]
        assert (building["fte"], building["undefined"]) == (0.0, ["fte"])
        assert "(building),FTE,co,0.0" in report.to_csv_text().splitlines()


@st.composite
def aligned_and_extra_truth(draw):
    """Predictions on T timestamps, the truth on the same timestamps, and the
    truth with extra rows (before, between and after) that the predictions
    lack.  Appliances are predicted with state means, without them (scored
    on the threshold), or not at all."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = draw(st.integers(1, 300))
    t = draw(st.sampled_from([0.0, 7.3, 1.3e9])) + np.cumsum(rng.uniform(0.5, 10.0, T))
    extra_t = np.setdiff1d(rng.uniform(t[0] - 20.0, t[-1] + 20.0, draw(st.integers(1, 40))), t)
    order = np.argsort(np.concatenate([t, extra_t]), kind="stable")
    levels = np.array([0.0, 5.0, 80.0, 1500.0])
    aligned, extra, predicted = {}, {}, {}
    for name in ("fridge", "kettle", "lighting"):
        y = rng.choice(levels, T) + rng.uniform(0.0, 3.0, T)
        y_extra = np.concatenate([y, rng.uniform(0.0, 2000.0, extra_t.size)])[order]
        aligned[name] = mk_channel(t, y, cid=name)
        extra[name] = mk_channel(np.concatenate([t, extra_t])[order], y_extra, cid=name)
        kind = draw(st.sampled_from(["means", "threshold", "missing"]))
        if kind == "missing":
            continue
        means = np.sort(rng.choice(levels, draw(st.integers(2, 4)), replace=False))
        predicted[name] = AppliancePrediction(
            states=rng.integers(0, means.size, T).astype(np.uint8),
            levels=means + rng.uniform(0.0, 3.0, means.size),
            state_means=means if kind == "means" else np.empty(0),
        )
    p = Predictions(timestamps=t, nominal_period=6.0, appliances=predicted)
    return p, mk_building(appliances=aligned), mk_building(appliances=extra)


def report_or_error(p, b):
    try:
        return json_text(evaluate(p, b, algorithm="co").payload())
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=150, deadline=None)
@given(aligned_and_extra_truth())
def test_aligned_truth_scores_as_intersected(case):
    # Aligned timestamps take every row without np.intersect1d; extra truth
    # rows force that path, which must give the same report bit for bit.
    p, aligned, extra = case
    assert report_or_error(p, aligned) == report_or_error(p, extra)


class TestThresholdOverrides:
    def test_metadata_overrides_default(self, simple_building):
        from dataclasses import replace

        from nilmbench.stats import appliance_on_threshold

        assert appliance_on_threshold(simple_building, "fridge") == 10.0
        tuned = replace(
            simple_building,
            metadata={"on_thresholds": {"fridge": 200.0}, "on_threshold": 15.0},
        )
        assert appliance_on_threshold(tuned, "fridge") == 200.0
        assert appliance_on_threshold(tuned, "television") == 15.0

    @pytest.mark.parametrize("value, reason", [
        (float("nan"), "must be finite, got nan"), ("x", "must be finite, got 'x'"),
    ])
    @pytest.mark.parametrize("metadata, key", [
        (lambda v: {"on_thresholds": {"fridge": v}}, "on_thresholds['fridge']"),
        (lambda v: {"on_threshold": v}, "on_threshold"),
    ], ids=["per-appliance", "building-wide"])
    def test_override_must_be_finite(self, simple_building, metadata, key, value, reason):
        from dataclasses import replace

        tuned = replace(simple_building, metadata=metadata(value))
        with pytest.raises(ValueError, match=re.escape(f"building 1 {key} {reason}")):
            evaluate(predictions_from_truth(simple_building), tuned)

    def test_evaluate_honors_override(self, simple_building):
        from dataclasses import replace

        p = predictions_from_truth(simple_building)
        # Raising the fridge threshold above its 120 W draw marks every
        # slice off on both sides: zero tp, perfect tn.
        tuned = replace(
            simple_building, metadata={"on_thresholds": {"fridge": 500.0}}
        )
        report = evaluate(p, tuned)
        fridge = report.appliance("fridge")
        assert fridge.counts.tp == 0
        assert fridge.counts.tn == 100


class TestAverages:
    def test_averaged_metrics_mean_over_appliances(self, simple_building):
        p = predictions_from_truth(simple_building)
        report = evaluate(p, simple_building)
        avg = report.averages()
        assert avg["nep"] == 0.0
        assert avg["f_score"] == 1.0
        assert "(average)" in report.to_csv_text()
        assert '"averages"' in json_text(report.payload())

    def test_undefined_metrics_excluded_from_average(self, simple_building):
        import numpy as np

        from nilmbench.disaggregate import AppliancePrediction, Predictions

        p = predictions_from_truth(simple_building)
        # Zero out the fridge truth: its NEP is undefined and must not
        # drag the average.
        from dataclasses import replace

        zeroed = dict(simple_building.appliances)
        fridge = zeroed["fridge"]
        zeroed["fridge"] = fridge.with_columns(
            {m: np.zeros_like(v) for m, v in fridge.columns.items()}
        )
        truth = replace(simple_building, appliances=zeroed)
        apps = dict(p.appliances)
        apps["fridge"] = AppliancePrediction(
            states=np.zeros(len(fridge), dtype=np.uint8),
            levels=np.array([0.0, 1.0]),
            state_means=np.array([0.0, 1.0]),
        )
        report = evaluate(
            Predictions(p.timestamps, p.nominal_period, apps), truth
        )
        assert "nep" in report.appliance("fridge").undefined
        assert report.averages()["nep"] == report.appliance("television").nep
