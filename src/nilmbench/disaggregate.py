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

Backpointers are stored per axis: each step keeps, per product state, one
uint16 code whose mixed-radix digit n is the argmax of the stage that
maximised over appliance n.  Stage n reads its digit at a mixed index whose
digits below n are already predecessor digits, so the flat predecessor is
composed only along the backtracked path, one digit at a time.

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
FHMM_BACKPOINTER_LIMIT = 2**30  # bytes

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


def _strides(sizes: list[int]) -> list[int]:
    return [math.prod(sizes[n + 1 :]) for n in range(len(sizes))]


def _product_sum(per_appliance) -> np.ndarray:
    """Per-appliance terms summed over the product space, in mixed-radix
    order (appliance 0 most significant)."""
    total = np.zeros(1, dtype=np.float64)
    for v in per_appliance:
        total = (total[:, None] + v[None, :]).ravel()
    return total


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
    totals = _product_sum(a.means for a in m.appliances)
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
    if T * S * 2 > FHMM_BACKPOINTER_LIMIT:
        raise ValueError(
            f"decoding T={T} steps over S={S} product states needs {T * S * 2} "
            f"bytes of backpointers, over the limit ({FHMM_BACKPOINTER_LIMIT}); "
            "split the aggregate into shorter spans or filter to fewer appliances"
        )
    if T == 0:
        return _predictions_from_states(
            m, aggregate, np.empty((0, len(sizes)), dtype=np.int64)
        )
    strides = _strides(sizes)
    log_pi = _product_sum(_log(a.pi) for a in m.appliances)
    em_mean = _product_sum(a.means for a in m.appliances)
    em_var = _product_sum(a.stds**2 for a in m.appliances) + m.noise_variance
    log_var = np.log(em_var)

    # Steps run in chunks of ``rows`` sharing one emission table.  Stage n
    # views the scores as (prefix, K_n, 1, suffix) and adds log A_n as
    # (K_n, K_n, 1), so axis 1 holds the predecessor digit to maximise out;
    # for 1 <= i < K_n it marks, per chunk, where its argmax digit is >= i.
    rows = max(1, 2**16 // S)
    stages = []
    for a, K, stride in reversed(list(zip(m.appliances, sizes, strides))):
        shape = (S // (K * stride), K, stride)
        masks = np.zeros((K - 1, rows, *shape), dtype=bool)
        stages.append((shape, _log(a.A)[:, :, None], masks))

    codes = np.empty((T, S), dtype=np.uint16)
    delta = log_pi
    for lo in range(0, T, rows):
        em = -0.5 * (LOG_2PI + log_var + (y[lo : lo + rows, None] - em_mean) ** 2 / em_var)
        for r in range(em.shape[0]):
            if lo + r > 0:
                for (prefix, K, stride), log_A, masks in stages:
                    scores = delta.reshape(prefix, K, 1, stride) + log_A
                    delta, below = scores[:, 0], []
                    for i in range(1, K):
                        below.append(delta)
                        delta = np.maximum(delta, scores[:, i])
                    # The digit is >= i where the max beats every score
                    # below i; ties keep the lower digit, as argmax would.
                    for b, mk in zip(below, masks):
                        np.greater(delta, b, out=mk[r])
            delta = delta.ravel() + em[r]
        # A code is the sum over masks of their stage's stride.
        code = codes[lo : lo + em.shape[0]]
        code[...] = 0
        for (_, _, stride), _, masks in stages:
            for mk in masks[:, : len(code)]:
                code += mk.reshape(code.shape) * np.uint16(stride)

    states = np.empty((T, len(sizes)), dtype=np.int64)
    # Compose the predecessor along the path only: stage 0 reads the code at
    # the successor, and each chosen digit moves the index for the next stage.
    idx = int(np.argmax(delta))
    cur = [idx // stride % K for K, stride in zip(sizes, strides)]
    for t in range(T - 1, 0, -1):
        states[t] = cur
        code_t = codes[t]
        for n, (K, stride) in enumerate(zip(sizes, strides)):
            s_n = int(code_t[idx]) // stride % K
            idx += (s_n - cur[n]) * stride
            cur[n] = s_n
    states[0] = cur
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
