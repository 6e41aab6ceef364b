"""Benchmark disaggregation: per-slice combinatorial search and exact
factorial-HMM Viterbi decoding.

Combinatorial optimisation treats every time slice independently: it picks
the appliance state combination whose total mean power is nearest to the
aggregate reading.  All combination totals are precomputed and sorted once,
so each slice resolves by binary search instead of a full scan.

The factorial decoder runs exact Viterbi on the product chain implied by the
per-appliance HMMs.  Emissions are Gaussian with mean equal to the sum of
state means and variance equal to the sum of state variances plus the
aggregate noise variance.  All scores are kept in log space, and every step
keeps one uint16 backpointer code per product state (T x S x 2 bytes).  The
product log-transition score is a sum of per-appliance terms, added in the
same order (appliance N-1 first) by both step kinds; float rounding is
monotone, so both give bit-identical scores:

- Product spaces of S <= 64 states take a dense step: each per-appliance
  log A_n is expanded once to an (S, S) table over product indices, and a
  step adds them all to the scores and takes one argmax per successor, so
  a code is the flat predecessor.  At this size the cost is per-call
  overhead, which this step keeps to N + 3 numpy calls.
- Larger spaces take a staged step that never materialises the product
  transitions: it maximises over one appliance axis at a time, appliance
  N-1 first.  Each stage maximises the trailing digit of its input layout
  and puts the successor digit in front, so the layout rotates right by
  one digit per stage, every stage runs its inner loops over rows of
  S / K_n scores, and after N stages the layout is canonical again.
  Digit n of a code (mixed radix, code // stride_n % K_n) is the argmax of
  the stage that maximised over appliance n, stored in that stage's output
  layout, whose leading digits n .. N-1 are successor digits and trailing
  digits 0 .. n-1 predecessor digits.  The backtrack reads digit n with
  the digits below n already set to predecessor digits, so the flat
  predecessor is composed only along the backtracked path, one digit at a
  time.

Tie-breaking is deterministic everywhere: combinatorial ties prefer the
smaller total power, then the lexicographically smallest state vector;
Viterbi ties prefer the lower product-state index (appliance 0 is the most
significant digit of the mixed-radix product index).  The staged step
compares partial sums, so where rounding turns a strict partial difference
into an exact tie of full sums it may keep a higher predecessor than the
dense step would.

Both decoders reject an aggregate with a NaN or infinite reading, naming
how many there are and the index of the first.
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
# Product spaces up to this size decode with the dense (S, S) step.
_DENSE_MAX_STATES = 64

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


def _readings(aggregate: Channel, feature: Measurement) -> np.ndarray:
    """The aggregate's ``feature`` values, which must all be finite: a NaN
    would turn every later Viterbi score into NaN, and CO would map it to
    an arbitrary combination."""
    y = aggregate.values(feature)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(
            f"{aggregate.id}: {bad.size} non-finite {feature.column_name} "
            f"readings, the first at index {bad[0]}"
        )
    return y


def state_powers(means: np.ndarray) -> np.ndarray:
    """The power written for each state: its mean floored at 0 W.

    The decoders write these values and ``pipeline.predictions_from_dataset``
    recovers states by assigning read-back powers to them.
    """
    return np.maximum(means, 0.0)


def _predictions_from_states(
    model, aggregate: Channel, states: np.ndarray
) -> Predictions:
    """Assemble Predictions from a (T, N) state matrix."""
    appliances: dict[str, AppliancePrediction] = {}
    for n, a in enumerate(model.appliances):
        s = states[:, n]
        appliances[a.name] = AppliancePrediction(
            states=s, powers=state_powers(a.means)[s], state_means=a.means
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

    y = _readings(aggregate, feature)
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


def _emission_chunks(m: FHMMModel, y: np.ndarray, rows: int):
    """Yield ``(lo, em)``: the Gaussian emission log-likelihoods of steps
    ``lo`` .. ``lo + rows - 1`` as a (rows, S) table over product states."""
    em_mean = _product_sum(a.means for a in m.appliances)
    em_var = _product_sum(a.stds**2 for a in m.appliances) + m.noise_variance
    log_var = np.log(em_var)
    for lo in range(0, y.size, rows):
        yield lo, -0.5 * (LOG_2PI + log_var + (y[lo : lo + rows, None] - em_mean) ** 2 / em_var)


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
    y = _readings(aggregate, feature)
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
    decode = _viterbi_dense if S <= _DENSE_MAX_STATES else _viterbi_staged
    return _predictions_from_states(m, aggregate, decode(m, y))


def _viterbi_dense(m: FHMMModel, y: np.ndarray) -> np.ndarray:
    """(T, N) MAP states by one (S, S) score table per step; T > 0."""
    sizes = _sizes(m)
    strides = _strides(sizes)
    S = math.prod(sizes)
    # Row j of the table scores every predecessor i of successor j, so
    # L[n][j, i] is log A_n from digit n of state i to digit n of state j.
    digits = np.arange(S)[:, None] // strides % sizes
    L = [
        _log(a.A)[d[None, :], d[:, None]] for a, d in zip(m.appliances, digits.T)
    ]
    rest = L[-2::-1]

    rows = max(1, 2**16 // S)
    codes = np.empty((y.size, S), dtype=np.uint16)
    preds = np.zeros((rows, S), dtype=np.intp)
    table = np.empty((S, S))
    delta = _product_sum(_log(a.pi) for a in m.appliances)
    for lo, em in _emission_chunks(m, y, rows):
        for r in range(em.shape[0]):
            if lo + r > 0:
                # Adding appliance N-1 first, as the staged step does, gives
                # bit-identical maxima; argmax ties take the lower flat index.
                np.add(L[-1], delta, out=table)
                for L_n in rest:
                    np.add(table, L_n, out=table)
                table.argmax(axis=1, out=preds[r])
                delta = table.max(axis=1)
            delta = delta + em[r]
        codes[lo : lo + em.shape[0]] = preds[: em.shape[0]]

    path = np.empty(y.size, dtype=np.int64)
    idx = path[-1] = int(np.argmax(delta))
    for t in range(y.size - 1, 0, -1):
        idx = path[t - 1] = codes.item(t, idx)
    return digits[path]


def _viterbi_staged(m: FHMMModel, y: np.ndarray) -> np.ndarray:
    """(T, N) MAP states by one maximisation per appliance axis per step;
    T > 0."""
    sizes = _sizes(m)
    strides = _strides(sizes)
    S = math.prod(sizes)
    log_pi = _product_sum(_log(a.pi) for a in m.appliances)

    # Steps run in chunks of ``rows`` sharing one emission table.  Stage k
    # maximises appliance N-1-k, the trailing digit of the current layout:
    # the scores viewed as (K_i, S / K) take log A as (K_i, K_j, 1) into a
    # (K_i, K_j, S / K) scratch, and the max over i leaves the successor
    # digit j in front.  Stages with the same K share their scratch and
    # result buffers, as a scratch is filled from the input before the
    # result is written; a one-state appliance adds straight into its
    # result.  For 1 <= i < K a mask marks, per chunk, where the argmax
    # digit is >= i.
    rows = max(1, 2**16 // S)
    buffers = {}
    for K in set(sizes):
        best = np.empty((K, S // K))
        buffers[K] = (np.empty((K, K, S // K)) if K > 1 else best[None], best)
    stages = [
        (_log(a.A)[:, :, None], *buffers[K], np.zeros((K - 1, rows, K, S // K), bool))
        for a, K in zip(reversed(m.appliances), reversed(sizes))
    ]

    codes = np.empty((y.size, S), dtype=np.uint16)
    delta = log_pi
    for lo, em in _emission_chunks(m, y, rows):
        for r in range(em.shape[0]):
            if lo + r > 0:
                for log_A, scratch, best, masks in stages:
                    K = len(best)
                    np.add(delta.reshape(-1, K).T[:, None], log_A, out=scratch)
                    # Running maxima in place: scratch[i] becomes the max
                    # over digits 0 .. i, and the last one lands in ``best``.
                    for i in range(1, K):
                        out = best if i == K - 1 else scratch[i]
                        np.maximum(scratch[i - 1], scratch[i], out=out)
                    # The digit is >= i where the max beats every score
                    # below i; ties keep the lower digit, as argmax would.
                    for i, mk in enumerate(masks):
                        np.greater(best, scratch[i], out=mk[r])
                    delta = best
            delta = delta.reshape(S) + em[r]
        # A code is the sum over masks of their appliance's stride, each
        # mask in its own stage's layout; digit n is code // stride_n % K_n.
        code = codes[lo : lo + em.shape[0]]
        code[...] = 0
        for (_, _, _, masks), stride in zip(stages, reversed(strides)):
            for mk in masks[:, : len(code)]:
                code += mk.reshape(code.shape) * np.uint16(stride)

    states = np.empty((y.size, len(sizes)), dtype=np.int64)
    # Compose the predecessor along the path only.  Digit n was stored in
    # the layout after its stage, whose leading digits n .. N-1 are
    # successor digits and trailing digits 0 .. n-1 predecessor digits: at
    # (idx % P_n) * (S // P_n) + idx // P_n with P_n = K_n * stride_n, where
    # idx already holds the predecessor digits below n.
    idx = int(np.argmax(delta))
    cur = [idx // stride % K for K, stride in zip(sizes, strides)]
    for t in range(y.size - 1, 0, -1):
        states[t] = cur
        code_t = codes[t]
        for n, (K, stride) in enumerate(zip(sizes, strides)):
            P = K * stride
            s_n = code_t.item((idx % P) * (S // P) + idx // P) // stride % K
            idx += (s_n - cur[n]) * stride
            cur[n] = s_n
    states[0] = cur
    return states


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
