"""Accuracy metrics for disaggregation output.

Conventions:

* Rates with zero denominators are reported as 0 and flagged ``undefined``
  instead of NaN, so reports serialize cleanly; so is a report's FTE when
  the total actual or predicted appliance energy is not positive.
* The fraction of total energy assigned correctly compares per-appliance
  energy fractions: sum over appliances of min(actual fraction, predicted
  fraction).
* Classification metrics compare on/off states derived from the on-power
  threshold; the per-state confusion matrix uses nearest-state assignment
  against the model's state means, or the on/off states when there is no
  model.
* Hamming loss is the mean over appliances of the fraction of time slices
  whose states differ (per-slice XOR); a report compares on/off states.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .data import Building, Measurement, POWER_ACTIVE
from .disaggregate import Predictions
from .io import csv_text
from .stats import DEFAULT_ON_THRESHOLD_W, appliance_on_threshold
from .training import assign_states

# Report keys follow the benchmark-table naming.
METRIC_DISPLAY_NAMES = {
    "error_total_energy": "Error in total energy (J)",
    "nep": "NEP",
    "rmse": "RMSE (W)",
    "fte": "FTE",
    "tp": "TP",
    "fp": "FP",
    "fn": "FN",
    "tn": "TN",
    "tpr": "TPR",
    "fpr": "FPR",
    "precision": "Precision",
    "recall": "Recall",
    "f_score": "F-score",
    "hamming_loss": "Hamming loss",
    "train_seconds": "Train time (s)",
    "disaggregate_seconds": "Disaggregate time (s)",
}

# Per-appliance metric keys, in report order.
APPLIANCE_METRICS = (
    "error_total_energy", "nep", "rmse", "tp", "fp", "fn", "tn",
    "tpr", "fpr", "precision", "recall", "f_score",
)
# The names a run config may select, and the other spellings it may use.
KNOWN_METRICS = (*APPLIANCE_METRICS, "fte", "hamming_loss", "confusion")
_METRIC_ALIASES = {"f1": "f_score", "f-score": "f_score", "f_score": "f_score"}


def canonical_metric(name) -> str:
    """The known metric a selection entry names; ValueError if none."""
    key = str(name).strip().lower().replace(" ", "_")
    key = _METRIC_ALIASES.get(key, key)
    if key not in KNOWN_METRICS:
        raise ValueError(f"unknown entry: {name!r} (valid: {', '.join(KNOWN_METRICS)})")
    return key


def power_to_states(power: np.ndarray, threshold: float) -> np.ndarray:
    """Binary on/off states of a power series: on where power > threshold."""
    return (np.asarray(power, dtype=np.float64) > threshold).astype(np.int64)


def error_total_energy(y: np.ndarray, y_hat: np.ndarray, slice_seconds: float = 1.0) -> float:
    """|sum(actual) - sum(assigned)| x slice duration, in joules.

    Over- and underestimates in different slices cancel; that insensitivity
    is a documented property of the metric, not a bug.
    """
    y, y_hat = _aligned(y, y_hat)
    return abs(float(np.sum(y) - np.sum(y_hat))) * slice_seconds


def fraction_energy_assigned_correctly(
    Y: dict[str, np.ndarray], Y_hat: dict[str, np.ndarray]
) -> float:
    """Overlap of per-appliance energy fractions, in [0, 1].

    Computed as 1 - sum|actual fraction - predicted fraction| / 2, which
    equals the sum of per-appliance minimum fractions (both fraction vectors
    sum to 1) but stays exactly 1.0 when predictions match the truth.
    """
    if not Y:
        raise ValueError("need at least one appliance")
    names = sorted(Y)
    fte = _fte_of_energies(
        [float(np.sum(Y[n])) for n in names],
        [float(np.sum(Y_hat.get(n, np.zeros(1)))) for n in names],
    )
    if fte is None:
        raise ValueError("total actual and predicted energies must be positive")
    return fte


def _fte_of_energies(actual: list[float], predicted: list[float]) -> float | None:
    """FTE from per-appliance actual and predicted energy sums, in one order;
    None, as undefined, unless both totals are positive."""
    actual, predicted = np.array(actual), np.array(predicted)
    if not (actual.sum() > 0 and predicted.sum() > 0):
        return None
    diff = np.abs(actual / actual.sum() - predicted / predicted.sum())
    return max(0.0, 1.0 - 0.5 * float(np.sum(diff)))


def normalized_error_assigned_power(y: np.ndarray, y_hat: np.ndarray) -> float:
    """sum |y - y_hat| / sum y.  Requires positive actual energy."""
    y, y_hat = _aligned(y, y_hat)
    denom = float(np.sum(y))
    if denom <= 0:
        raise ValueError("actual energy must be positive for NEP")
    return float(np.sum(np.abs(y - y_hat))) / denom


def rms_error(y: np.ndarray, y_hat: np.ndarray) -> float:
    y, y_hat = _aligned(y, y_hat)
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def _aligned(y, y_hat) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError("series must have equal length")
    return y, y_hat


@dataclass(frozen=True)
class ClassificationCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def classification_counts(x: np.ndarray, x_hat: np.ndarray) -> ClassificationCounts:
    """On/off agreement counts; any state > 0 counts as on."""
    x = np.asarray(x) > 0
    x_hat = np.asarray(x_hat) > 0
    if x.shape != x_hat.shape:
        raise ValueError("series must have equal length")
    return ClassificationCounts(
        tp=int(np.sum(x & x_hat)),
        fp=int(np.sum(~x & x_hat)),
        fn=int(np.sum(x & ~x_hat)),
        tn=int(np.sum(~x & ~x_hat)),
    )


@dataclass(frozen=True)
class Rates:
    tpr: float
    fpr: float
    precision: float
    recall: float
    f_score: float
    undefined: frozenset[str] = frozenset()


def rates(counts: ClassificationCounts) -> Rates:
    """Detection rates from counts; zero-denominator rates are 0, flagged."""
    undefined = set()

    def ratio(num: int, denom: int, name: str) -> float:
        if denom == 0:
            undefined.add(name)
            return 0.0
        return num / denom

    tpr = ratio(counts.tp, counts.tp + counts.fn, "tpr")
    fpr = ratio(counts.fp, counts.fp + counts.tn, "fpr")
    precision = ratio(counts.tp, counts.tp + counts.fp, "precision")
    recall = tpr
    if "tpr" in undefined:
        undefined.add("recall")
    if precision + recall == 0:
        undefined.add("f_score")
        f_score = 0.0
    else:
        f_score = 2 * precision * recall / (precision + recall)
    return Rates(
        tpr=tpr,
        fpr=fpr,
        precision=precision,
        recall=recall,
        f_score=f_score,
        undefined=frozenset(undefined),
    )


def confusion_matrix(x: np.ndarray, x_hat: np.ndarray, K: int) -> np.ndarray:
    """counts[i][j] = number of slices with actual state i predicted as j."""
    x = np.asarray(x, dtype=np.int64)
    x_hat = np.asarray(x_hat, dtype=np.int64)
    if x.shape != x_hat.shape:
        raise ValueError("series must have equal length")
    if np.any((x < 0) | (x >= K)) or np.any((x_hat < 0) | (x_hat >= K)):
        raise ValueError(f"states must lie in [0, {K})")
    return np.bincount((x * K + x_hat).ravel(), minlength=K * K).reshape(K, K)


def _mismatch(name: str, x, x_hat) -> float:
    """Fraction of time slices whose states differ: one appliance's Hamming loss."""
    x, x_hat = np.asarray(x), np.asarray(x_hat)
    if x.shape != x_hat.shape:
        raise ValueError(f"{name}: series must have equal length")
    return float(np.mean(x != x_hat)) if x.size else 0.0


def hamming_loss(X: dict[str, np.ndarray], X_hat: dict[str, np.ndarray]) -> float:
    """Mean over the appliances of ``X`` of their :func:`_mismatch` against ``X_hat``."""
    if not X:
        raise ValueError("need at least one appliance")
    return float(np.mean([_mismatch(name, X[name], X_hat[name]) for name in sorted(X)]))


@dataclass(frozen=True)
class ApplianceMetrics:
    name: str
    error_total_energy: float
    nep: float
    rmse: float
    counts: ClassificationCounts
    tpr: float
    fpr: float
    precision: float
    recall: float
    f_score: float
    confusion: np.ndarray
    undefined: frozenset[str] = frozenset()

    def as_dict(self) -> dict:
        return {
            **{k: getattr(self.counts if k in _COUNT_KEYS else self, k) for k in APPLIANCE_METRICS},
            "confusion": self.confusion.tolist(),
            "undefined": sorted(self.undefined),
        }


_COUNT_KEYS = {f.name for f in fields(ClassificationCounts)}
# Every per-appliance metric but the raw counts.
_AVERAGED_KEYS = tuple(k for k in APPLIANCE_METRICS if k not in _COUNT_KEYS)


@dataclass(frozen=True)
class MetricReport:
    """Per-appliance metrics plus averaged and building-level values;
    ``undefined`` names the building-level ones reported as 0."""

    appliances: tuple[ApplianceMetrics, ...]
    fte: float
    hamming_loss: float
    train_seconds: float | None = None
    disaggregate_seconds: float | None = None
    algorithm: str = ""
    undefined: frozenset[str] = frozenset()

    CSV_HEADER = ("appliance", "metric", "algorithm", "value")

    def appliance(self, name: str) -> ApplianceMetrics:
        for a in self.appliances:
            if a.name == name:
                return a
        raise KeyError(name)

    def averages(self) -> dict[str, float]:
        """Mean of each scalar metric over the appliances where it is defined."""
        out = {}
        for key in _AVERAGED_KEYS:
            values = [
                a.as_dict()[key] for a in self.appliances if key not in a.undefined
            ]
            out[key] = float(np.mean(values)) if values else 0.0
        return out

    def payload(self) -> dict:
        """The report as the JSON object written to file."""
        building = {
            "fte": self.fte,
            "hamming_loss": self.hamming_loss,
            "train_seconds": self.train_seconds,
            "disaggregate_seconds": self.disaggregate_seconds,
        }
        if self.undefined:
            building["undefined"] = sorted(self.undefined)
        return {
            "algorithm": self.algorithm,
            "building": building,
            "averages": self.averages(),
            "appliances": {a.name: a.as_dict() for a in self.appliances},
        }

    def csv_rows(self, metrics: tuple[str, ...] | None = None) -> list[tuple]:
        """Rows (appliance, metric, algorithm, value) in report order.

        ``metrics`` keeps only the rows of the named metric keys (e.g.
        ("nep", "fte", "confusion")); None keeps all.  Timings are always kept.
        """
        rows = []  # (key that selects the row or None, appliance, metric, value)
        for a in self.appliances:
            d = a.as_dict()
            rows += [(k, a.name, k, d[k]) for k in APPLIANCE_METRICS]
            rows += [
                ("confusion", a.name, f"confusion[{i}][{j}]", int(n))
                for (i, j), n in np.ndenumerate(a.confusion)
            ]
        rows += [(k, "(average)", k, v) for k, v in self.averages().items()]
        rows += [(k, "(building)", k, getattr(self, k)) for k in ("fte", "hamming_loss")]
        rows += [
            (None, "(building)", k, round(getattr(self, k), 2))
            for k in ("train_seconds", "disaggregate_seconds") if getattr(self, k) is not None
        ]
        return [
            (name, METRIC_DISPLAY_NAMES.get(m, m), self.algorithm, v)
            for key, name, m, v in rows if key is None or metrics is None or key in metrics
        ]

    def to_csv_text(self, metrics: tuple[str, ...] | None = None) -> str:
        """The :meth:`csv_rows` under a header line."""
        return csv_text(self.CSV_HEADER, self.csv_rows(metrics))


def evaluate(
    predictions: Predictions,
    ground_truth: Building,
    on_threshold: float = DEFAULT_ON_THRESHOLD_W,
    train_seconds: float | None = None,
    disaggregate_seconds: float | None = None,
    algorithm: str = "",
    feature: Measurement = POWER_ACTIVE,
) -> MetricReport:
    """Score predictions of ``feature`` against sub-metered ground truth.

    Evaluation runs on the timestamp intersection of the predictions and
    each truth channel.  Truth appliances missing from the predictions are
    scored as always off.  The on/off threshold can be overridden per
    appliance through the truth building's metadata.  A prediction without
    state means (no model) is scored on on/off states: both its states and
    the truth's come from that threshold.
    """
    slice_seconds = predictions.nominal_period
    per_appliance: list[ApplianceMetrics] = []
    # Per scored appliance, in name order: the sums FTE needs and the state
    # mismatch rate the Hamming loss averages, so no series outlives its
    # iteration.
    energy: list[float] = []
    energy_hat: list[float] = []
    mismatch: list[float] = []
    for name in sorted(ground_truth.appliances):
        truth = ground_truth.appliances[name]
        threshold = appliance_on_threshold(ground_truth, name, on_threshold)
        if np.array_equal(truth.timestamps, predictions.timestamps):
            # Aligned, as in ``run``: every row, without sorting 2T stamps.
            rows, truth_idx, pred_idx = len(truth), slice(None), slice(None)
        else:
            common, truth_idx, pred_idx = np.intersect1d(
                truth.timestamps, predictions.timestamps, return_indices=True
            )
            rows = common.size
        if rows == 0:
            continue
        y = truth.values(feature)[truth_idx]
        on_truth = power_to_states(y, threshold=threshold)
        pred = predictions.appliances.get(name)
        y_hat = np.zeros_like(y) if pred is None else pred.levels[pred.states[pred_idx]]
        on_hat = power_to_states(y_hat, threshold=threshold)
        if pred is None or pred.state_means.size == 0:
            states_hat, truth_states, K = on_hat, on_truth, 2
        else:
            states_hat = pred.states[pred_idx]
            truth_states = assign_states(y, pred.state_means)
            K = max(int(pred.state_means.size), 2)
        counts = classification_counts(on_truth, on_hat)
        r = rates(counts)
        undefined = set(r.undefined)
        energy.append(float(np.sum(y)))
        energy_hat.append(float(np.sum(y_hat)))
        mismatch.append(_mismatch(name, on_truth, on_hat))
        if energy[-1] > 0:
            nep = normalized_error_assigned_power(y, y_hat)
        else:
            nep = 0.0
            undefined.add("nep")
        per_appliance.append(
            ApplianceMetrics(
                name=name,
                error_total_energy=error_total_energy(y, y_hat, slice_seconds),
                nep=nep,
                rmse=rms_error(y, y_hat),
                counts=counts,
                tpr=r.tpr,
                fpr=r.fpr,
                precision=r.precision,
                recall=r.recall,
                f_score=r.f_score,
                confusion=confusion_matrix(truth_states, states_hat, K),
                undefined=frozenset(undefined),
            )
        )
    if not per_appliance:
        raise ValueError("predictions and ground truth share no timestamps")
    fte = _fte_of_energies(energy, energy_hat)
    return MetricReport(
        appliances=tuple(per_appliance),
        fte=0.0 if fte is None else fte,
        hamming_loss=float(np.mean(mismatch)),
        train_seconds=train_seconds,
        disaggregate_seconds=disaggregate_seconds,
        algorithm=algorithm,
        undefined=frozenset() if fte is not None else frozenset({"fte"}),
    )
