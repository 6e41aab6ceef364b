"""Output checks run after every timed operation (outside its timing).

An operation counts as failed when any check here reports a problem:

(a) every requested algorithm has a report with one entry per appliance and
    finite metrics;
(b) on synthetic inputs, the FHMM path scores at least as high as the CO
    path and the true path under the written ``model_fhmm.json`` (Viterbi
    returns the MAP path);
(c) CO's chosen combination is the nearest of all combinations to the
    aggregate, by exhaustive enumeration on a sample of slices.

The path log-likelihood is written out here rather than taken from
``nilmbench`` so that the check does not depend on the code it checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from nilmbench import io, preprocess
from nilmbench.data import POWER_ACTIVE, mains_total
from nilmbench.metrics import METRIC_DISPLAY_NAMES

LOGLIK_RTOL = 1e-9
CO_SAMPLE_SLICES = 64
# JSON keys and CSV metric names that carry wall-clock times; the artifact
# digest skips them.
TIMING_KEYS = ("timings_seconds", "train_seconds", "disaggregate_seconds")
TIMING_CSV_METRICS = {METRIC_DISPLAY_NAMES[k].encode() for k in TIMING_KEYS[1:]}


def check_reports(result, algorithms, appliance_names) -> list[str]:
    problems = []
    for alg in algorithms:
        report = result.reports.get(alg)
        if report is None:
            problems.append(f"{alg}: no report")
            continue
        names = sorted(a.name for a in report.appliances)
        if names != sorted(appliance_names):
            problems.append(f"{alg}: report covers {names}, expected {sorted(appliance_names)}")
        values = [report.fte, report.hamming_loss]
        for a in report.appliances:
            d = a.as_dict()
            values += [v for k, v in d.items() if k not in a.undefined and np.isscalar(v)]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{alg}: non-finite metric")
    return problems


def _model(out: Path, alg: str):
    return io.import_model_json((out / f"model_{alg}.json").read_text(encoding="utf-8"))


def _means(model) -> list[np.ndarray]:
    return [a.means if hasattr(a, "means") else a.base.means for a in model.appliances]


def decoded_states(out: Path, alg: str, model) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps, (T, N) states) recovered from the written predictions.

    The decoder writes max(mean, 0) of the chosen state, so each power must
    equal exactly one such value; a power matching none is reported as an
    error.
    """
    b = io.load_dataset_dir(out / f"predictions_{alg}").buildings[1]
    columns = []
    timestamps = None
    for a, means in zip(model.appliances, _means(model)):
        c = b.appliances[a.name]
        timestamps = c.timestamps
        match = c.values(POWER_ACTIVE)[:, None] == np.maximum(means, 0.0)[None, :]
        if not match.any(axis=1).all():
            raise ValueError(f"{alg}/{a.name}: predicted power is not a state mean")
        columns.append(np.argmax(match, axis=1))
    return timestamps, np.stack(columns, axis=1)


def path_loglik(model, states: np.ndarray, y: np.ndarray) -> float:
    """log p(states, y) under a factorial HMM with Gaussian sum emissions."""
    mean = np.zeros(y.size)
    var = np.full(y.size, model.noise_variance)
    total = 0.0
    with np.errstate(divide="ignore"):
        for n, a in enumerate(model.appliances):
            s = states[:, n]
            mean += a.base.means[s]
            var += a.base.stds[s] ** 2
            total += float(np.log(a.pi[s[0]])) + float(np.sum(np.log(a.A[s[:-1], s[1:]])))
    return total + float(np.sum(-0.5 * (np.log(2 * np.pi * var) + (y - mean) ** 2 / var)))


def check_map(out: Path, truth) -> list[str]:
    fhmm = _model(out, "fhmm")
    t, fhmm_states = decoded_states(out, "fhmm", fhmm)
    _, co_states = decoded_states(out, "co", _model(out, "co"))
    rows = np.searchsorted(truth["timestamps"], t)
    if not np.array_equal(truth["timestamps"][rows], t):
        return ["fhmm: prediction timestamps are not input timestamps"]
    y = truth["mains"][rows]
    true_states = np.stack([truth[f"state:{a.name}"][rows] for a in fhmm.appliances], axis=1)
    best = path_loglik(fhmm, fhmm_states, y)
    problems = []
    for label, states in (("co", co_states), ("true", true_states)):
        other = path_loglik(fhmm, states, y)
        if best < other - LOGLIK_RTOL * abs(other):
            problems.append(f"fhmm path loglik {best!r} below the {label} path's {other!r}")
    return problems


def check_co_nearest(out: Path, t_agg: np.ndarray, y_agg: np.ndarray, seed: int) -> list[str]:
    co = _model(out, "co")
    t, states = decoded_states(out, "co", co)
    rows = np.searchsorted(t_agg, t)
    if not np.array_equal(t_agg[rows], t):
        return ["co: prediction timestamps are not aggregate timestamps"]
    means = _means(co)
    totals = np.array([sum(combo) for combo in itertools.product(*means)])
    sample = np.random.default_rng(seed).choice(t.size, size=min(CO_SAMPLE_SLICES, t.size), replace=False)
    problems = []
    for i in np.sort(sample):
        y = y_agg[rows[i]]
        chosen = sum(m[s] for m, s in zip(means, states[i]))
        nearest = np.min(np.abs(y - totals))
        if abs(y - chosen) > nearest + 1e-9 * max(1.0, abs(y)):
            problems.append(f"co slice {i}: |{y!r} - {chosen!r}| exceeds nearest distance {nearest!r}")
    return problems


def test_aggregate(dataset_dir: Path, fraction: float) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Appliance names, timestamps and aggregate that ``pipeline.run``
    decodes for an aligned dataset directory."""
    b = io.load_dataset_dir(dataset_dir).buildings[1]
    test = preprocess.train_test_split(b, fraction)[1]
    agg = mains_total(test)
    return list(test.appliances), agg.timestamps, agg.values(POWER_ACTIVE)


def _canonical_bytes(path: Path) -> bytes:
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        for d in (payload, payload.get("building")):
            for key in TIMING_KEYS:
                if isinstance(d, dict):
                    d.pop(key, None)
        return json.dumps(payload, sort_keys=True).encode()
    data = path.read_bytes()
    if path.suffix == ".csv":
        data = b"".join(
            line for line in data.splitlines(keepends=True)
            if not TIMING_CSV_METRICS.intersection(line.split(b",")[1:2])
        )
    return data


def artifact_digest(*roots: Path) -> str:
    """SHA-256 over every file under ``roots``, wall-clock fields removed."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(root.parent)).encode() + b"\0")
            h.update(_canonical_bytes(path) + b"\0")
    return h.hexdigest()
