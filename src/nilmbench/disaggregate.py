"""Benchmark disaggregation: per-slice combinatorial search and exact
factorial-HMM Viterbi decoding.

Combinatorial optimisation treats every time slice independently: it picks
the appliance state combination whose total mean power is nearest to the
aggregate reading.  All combination totals are precomputed and sorted once,
so each slice resolves by binary search instead of a full scan.

The factorial decoder runs exact Viterbi on the product chain implied by the
per-appliance HMMs.  The product transition structure is never materialised:
each Viterbi step maximises over one appliance axis at a time (the product
log-transition score is a sum of per-appliance terms, so staged maximisation
is exact).  Emissions are Gaussian with mean equal to the sum of state means
and variance equal to the sum of state variances plus the aggregate noise
variance.  All scores are kept in log space.

Tie-breaking is deterministic everywhere: combinatorial ties prefer the
smaller total power, then the lexicographically smallest state vector;
Viterbi ties prefer the lower product-state index (appliance 0 is the most
significant digit of the mixed-radix product index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Channel, Measurement, POWER_ACTIVE
from .training import COModel, FHMMModel

CO_COMBINATION_LIMIT = 2**20
FHMM_STATE_LIMIT = 2**14

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AppliancePrediction:
    """Estimated state index and power series for one appliance."""

    states: np.ndarray
    powers: np.ndarray
    state_means: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.int64))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=np.float64))
        object.__setattr__(
            self, "state_means", np.asarray(self.state_means, dtype=np.float64)
        )


@dataclass(frozen=True)
class Predictions:
    """Per-appliance estimates aligned to the aggregate timestamps."""

    timestamps: np.ndarray
    nominal_period: float
    appliances: dict[str, AppliancePrediction]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "timestamps", np.asarray(self.timestamps, dtype=np.float64)
        )
        for name, p in self.appliances.items():
            if p.states.shape != self.timestamps.shape:
                raise ValueError(f"{name}: one prediction per aggregate timestamp")


def _sizes(model) -> list[int]:
    return [a.K for a in model.appliances]


def _strides(sizes: list[int]) -> np.ndarray:
    strides = np.ones(len(sizes), dtype=np.int64)
    for n in range(len(sizes) - 2, -1, -1):
        strides[n] = strides[n + 1] * sizes[n + 1]
    return strides


def _predictions_from_states(
    model, aggregate: Channel, states: np.ndarray
) -> Predictions:
    """Assemble Predictions from a (T, N) state matrix."""
    appliances: dict[str, AppliancePrediction] = {}
    for n, a in enumerate(model.appliances):
        s = states[:, n]
        appliances[a.name] = AppliancePrediction(
            states=s, powers=np.maximum(a.means[s], 0.0), state_means=a.means
        )
    return Predictions(
        timestamps=aggregate.timestamps,
        nominal_period=aggregate.nominal_period,
        appliances=appliances,
    )


# ---------------------------------------------------------------------------
# Combinatorial optimisation
# ---------------------------------------------------------------------------


def disaggregate_co(
    m: COModel, aggregate: Channel, feature: Measurement = POWER_ACTIVE
) -> Predictions:
    """Per-slice argmin over state combinations of |aggregate - total power|.

    Slices are independent; output at time t depends only on the aggregate
    at t.
    """
    sizes = _sizes(m)
    n_combos = math.prod(sizes)
    if n_combos > CO_COMBINATION_LIMIT:
        raise ValueError(
            f"{n_combos} state combinations exceed the limit "
            f"({CO_COMBINATION_LIMIT}); filter to fewer appliances or states first"
        )
    strides = _strides(sizes)
    # totals[i] = sum of state means for the combination with mixed-radix
    # index i (appliance 0 most significant).
    totals = np.zeros(1, dtype=np.float64)
    for a in m.appliances:
        totals = (totals[:, None] + a.means[None, :]).ravel()
    order = np.argsort(totals, kind="stable")  # stable keeps lex order on ties
    sorted_totals = totals[order]

    y = aggregate.values(feature)
    pos = np.searchsorted(sorted_totals, y, side="left")
    left = np.clip(pos - 1, 0, sorted_totals.size - 1)
    right = np.clip(pos, 0, sorted_totals.size - 1)
    d_left = np.abs(y - sorted_totals[left])
    d_right = np.abs(y - sorted_totals[right])
    # Prefer left on equal distance: it has the smaller (or equal) total.
    best = np.where(d_left <= d_right, left, right)
    # Among equal totals the first sorted entry is the lexicographically
    # smallest combination.
    best = np.searchsorted(sorted_totals, sorted_totals[best], side="left")
    combo = order[best]

    states = np.empty((y.size, len(sizes)), dtype=np.int64)
    for n, size in enumerate(sizes):
        states[:, n] = (combo // strides[n]) % size
    return _predictions_from_states(m, aggregate, states)


# ---------------------------------------------------------------------------
# Factorial HMM
# ---------------------------------------------------------------------------


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def _emission_tables(m: FHMMModel) -> tuple[np.ndarray, np.ndarray]:
    """Sum-of-states emission mean and variance over the product space."""
    sizes = _sizes(m)
    mean = np.zeros(sizes[0], dtype=np.float64)
    var = np.zeros(sizes[0], dtype=np.float64)
    mean[:] = m.appliances[0].base.means
    var[:] = m.appliances[0].base.stds**2
    for a in m.appliances[1:]:
        mean = (mean[:, None] + a.base.means[None, :]).ravel()
        var = (var[:, None] + (a.base.stds**2)[None, :]).ravel()
    return mean, var + m.noise_variance


def _emission_loglik(mean: np.ndarray, var: np.ndarray, y: float) -> np.ndarray:
    return -0.5 * (LOG_2PI + np.log(var) + (y - mean) ** 2 / var)


def _max_plus_step(
    delta: np.ndarray, log_As: list[np.ndarray], sizes: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """One Viterbi transition over the product space without materialising it.

    Maximises over appliance axes from least to most significant so that,
    with argmax breaking ties toward lower indices at every stage, the
    composed predecessor is the lexicographically smallest argmax — i.e. the
    lowest product-state index.

    Returns (new scores flat, predecessor product index per successor state).
    """
    N = len(sizes)
    F = delta.reshape(sizes)
    backs: list[np.ndarray] = [np.empty(0)] * N
    for n in range(N - 1, -1, -1):
        Fm = np.moveaxis(F, n, -1)
        # scores[..., i, j] = F[..., i] + log A_n[i, j]
        scores = Fm[..., :, None] + log_As[n]
        back = np.argmax(scores, axis=-2)
        F = np.moveaxis(np.max(scores, axis=-2), -1, n)
        # Axes of backs[n]: (s_0..s_{n-1}, s'_n, s'_{n+1}..s'_{N-1}).
        backs[n] = np.moveaxis(back, -1, n)
    # Compose per-axis argmaxes into flat predecessor indices.  Stage n's
    # best s_n depends on the already-chosen s_0..s_{n-1} and on the
    # successor digits s'_n..s'_{N-1}.
    grids = np.indices(sizes)
    strides = _strides(sizes)
    chosen: list[np.ndarray] = []
    pred = np.zeros(sizes, dtype=np.int64)
    for n in range(N):
        idx = tuple(chosen) + tuple(grids[k] for k in range(n, N))
        s_n = backs[n][idx]
        chosen.append(s_n)
        pred += s_n * strides[n]
    return F.ravel(), pred.ravel()


def disaggregate_fhmm(
    m: FHMMModel, aggregate: Channel, feature: Measurement = POWER_ACTIVE
) -> Predictions:
    """Exact MAP (Viterbi) decoding of the factorial model on the aggregate."""
    sizes = _sizes(m)
    S = math.prod(sizes)
    if S > FHMM_STATE_LIMIT:
        raise ValueError(
            f"product state space {S} exceeds the limit ({FHMM_STATE_LIMIT}); "
            "filter to fewer appliances or states first"
        )
    y = aggregate.values(feature)
    T = y.size
    if T == 0:
        return _predictions_from_states(
            m, aggregate, np.empty((0, len(sizes)), dtype=np.int64)
        )
    log_As = [_log(a.A) for a in m.appliances]
    log_pi = np.zeros(1, dtype=np.float64)
    for a in m.appliances:
        log_pi = (log_pi[:, None] + _log(a.pi)[None, :]).ravel()
    em_mean, em_var = _emission_tables(m)

    delta = log_pi + _emission_loglik(em_mean, em_var, y[0])
    preds = np.empty((T, S), dtype=np.int32) if T > 1 else None
    for t in range(1, T):
        delta, pred = _max_plus_step(delta, log_As, sizes)
        delta += _emission_loglik(em_mean, em_var, y[t])
        preds[t] = pred

    path = np.empty(T, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 1, 0, -1):
        path[t - 1] = preds[t][path[t]]

    strides = _strides(sizes)
    states = np.empty((T, len(sizes)), dtype=np.int64)
    for n, size in enumerate(sizes):
        states[:, n] = (path // strides[n]) % size
    return _predictions_from_states(m, aggregate, states)


def predictions_to_power(
    p: Predictions, feature: Measurement = POWER_ACTIVE
) -> dict[str, Channel]:
    """One ``feature`` channel per appliance, on the aggregate timestamps."""
    return {
        name: Channel(
            id=name,
            timestamps=p.timestamps,
            columns={feature: ap.powers},
            nominal_period=p.nominal_period,
        )
        for name, ap in p.appliances.items()
    }
