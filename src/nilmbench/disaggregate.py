"""Benchmark disaggregation: per-slice combinatorial search and exact
factorial-HMM Viterbi decoding.

Combinatorial optimisation treats every time slice independently: it picks
the appliance state combination whose total mean power is nearest to the
aggregate reading.  All combination totals are precomputed and sorted once,
so each slice resolves by binary search instead of a full scan.

The factorial decoder runs exact Viterbi on the product chain implied by the
per-appliance HMMs.  Emissions are Gaussian with mean equal to the sum of
state means and variance equal to the sum of state variances plus the
aggregate noise variance.  All scores are kept in log space.  The product
log-transition score is a sum of per-appliance terms, added in the same
order (appliance N-1 first) by both step kinds; float rounding is monotone,
so both give bit-identical scores:

- Product spaces of S <= 64 states take a dense step: each per-appliance
  log A_n is expanded once to an (S, S) table over product indices.  A
  step assigns the scores to every row of one preallocated (S, S) score
  table, adds the N tables to it in place and takes one argmax per
  successor, so a code is the flat predecessor, kept as one uint8 per
  product state per step (T x S bytes).  The new scores are read
  from the table at those codes, as the score at the lowest-index argmax
  is the row maximum, so the table is reduced once.  At this size the
  cost is per-call overhead: N + 5 numpy calls per step, and every add in
  them is between operands of one shape.  Called directly on two-state
  appliances over 2000 steps (15 alternating pairs, 2 vCPUs), the dense
  step took 18-24 us/step at S = 64 against 27-35 for the staged step,
  and 61-69 at S = 128 against 42-44, so S = 64 is the largest space
  decoded densely.
- Larger spaces take a staged step that never materialises the product
  transitions: it maximises over one appliance axis at a time, appliance
  N-1 first.  Each stage maximises the trailing digit of its input layout
  and puts the successor digit in front, so the layout rotates right by
  one digit per stage, every stage runs its inner loops over rows of
  S / K_n scores, and after N stages the layout is canonical again.
  Predecessor digit n is the argmax of the stage that maximised over
  appliance n, stored in that stage's output layout, whose leading digits
  n .. N-1 are successor digits and trailing digits 0 .. n-1 predecessor
  digits.  The backtrack reads digit n with the digits below n already
  set to predecessor digits, so the flat predecessor is composed only
  along the backtracked path, one digit at a time.  Each stage's log A_n
  is expanded once to the (K_n, K_n, S / K_n) shape of the stage's
  scratch, 8 * S * K_n bytes (768 KiB over the 12 stages at S = 4096), so
  the add into the scratch reads no operand with a zero stride: broadcast
  from (K_n, K_n, 1), that add took about 75 % of a stage at S = 4096.
  Called directly on two-state appliances (two runs of 15 alternating
  pairs, 2 vCPUs), the expanded tables took the step from 174-209 to
  144-170 us/step at S = 4096 and from 38-41 to 35-36 at S = 512; at
  S = 16384 the 14 tables of 256 KiB outgrow the L2 cache and the step
  went from 536-542 to 573-595.
- The staged step keeps each stage's argmax digit n as ceil(log2 K_n) bit
  planes over the S positions of the stage's output layout, packed 8
  positions a byte with ``np.packbits(..., bitorder="little")`` once per
  emission chunk: a (T, sum of ceil(log2 K_n), ceil(S / 8)) uint8 array,
  sum(ceil(log2 K_n)) * ceil(S / 8) bytes per step.  A two-state
  appliance's plane is its stage's one ``>`` mask; with more states the
  planes are the bits of the digit, the count of its K_n - 1 masks.  The
  backtrack reads one bit per plane.  Twelve two-state appliances take
  12 bits per product state where one uint16 code per state took 16, but
  a K that is not a power of two leaves part of its planes unused: eight
  three-state appliances and one two-state appliance (S = 13122) take 17
  bits.  At S = 4096 over 1440 steps the planes take 8.44 MiB against
  11.25 MiB of uint16 codes, and the decode's ``tracemalloc`` peak fell
  from 13.63 to 10.74 MiB.  :func:`fhmm_backpointer_bytes` counts both
  decoders' layouts.

Tie-breaking is deterministic everywhere: combinatorial ties prefer the
smaller total power, then the lexicographically smallest state vector;
Viterbi ties prefer the lower product-state index (appliance 0 is the most
significant digit of the mixed-radix product index).  The staged step
compares partial sums, so where rounding turns a strict partial difference
into an exact tie of full sums it may keep a higher predecessor than the
dense step would.

Both decoders reject an aggregate with a NaN or infinite reading, naming
how many there are and the index of the first.

A decode keeps N * T bytes: each appliance's states are a contiguous row of
an (N, T) uint8 matrix (wider past 256 states) beside one power per state,
and the powers ``levels[states]`` are built only where they are read.
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
    """One appliance's estimate: a state per aggregate timestamp, the power
    level of each state, and the model's state means (empty without one)."""

    states: np.ndarray
    levels: np.ndarray
    state_means: np.ndarray

    @property
    def powers(self) -> np.ndarray:
        """``levels[states]``, built on each read; read-only, so a channel shares it."""
        powers = self.levels[self.states]
        powers.setflags(write=False)
        return powers


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


def _digits(path: np.ndarray, sizes: list[int]) -> np.ndarray:
    """(N, T) mixed-radix digits of the product-state indices ``path`` in the
    smallest unsigned dtype: row n, contiguous, holds appliance n's states."""
    digits = np.empty((len(sizes), path.size), np.min_scalar_type(max(sizes) - 1))
    for row, K, stride in zip(digits, sizes, _strides(sizes)):
        np.remainder(path // stride, K, out=row, casting="unsafe")
    return digits


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
    """The power level of each state, its mean floored at 0 W: what the
    decoders predict, and all ``pipeline.predictions_from_dataset`` reads back.
    """
    return np.maximum(means, 0.0)


def _predictions_from_states(model, aggregate: Channel, states) -> Predictions:
    """Assemble Predictions from one state row per appliance, in model
    order, such as the rows of the (N, T) matrix of :func:`_digits`."""
    return Predictions(aggregate.timestamps, aggregate.nominal_period, {
        a.name: AppliancePrediction(states=s, levels=state_powers(a.means), state_means=a.means)
        for a, s in zip(model.appliances, states, strict=True)
    })


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
    totals = _product_sum(a.means for a in m.appliances)
    states = _digits(_nearest_totals(totals, _readings(aggregate, feature)), sizes)
    return _predictions_from_states(m, aggregate, states)


def _nearest_totals(totals: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each reading in ``y``, the flat index of the combination whose
    total is nearest; a tie goes to the smaller total, then to the
    lexicographically smallest combination.

    The search arrays die on return and the path once its digits are
    built, so they are not live next to the digits and powers; ``right``
    reuses ``pos``.
    """
    order = np.argsort(totals, kind="stable")  # stable keeps lex order on ties
    sorted_totals = totals[order]
    pos = np.searchsorted(sorted_totals, y, side="left")
    left = np.clip(pos - 1, 0, sorted_totals.size - 1)
    right = np.clip(pos, 0, sorted_totals.size - 1, out=pos)
    d_left = np.abs(y - sorted_totals[left])
    d_right = np.abs(y - sorted_totals[right])
    # Prefer left on equal distance: it has the smaller (or equal) total.
    best = np.where(d_left <= d_right, left, right)
    # Among equal totals the first sorted entry is the lexicographically
    # smallest combination.
    best = np.searchsorted(sorted_totals, sorted_totals[best], side="left")
    return order[best]


# ---------------------------------------------------------------------------
# Factorial HMM
# ---------------------------------------------------------------------------


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def _emission_chunks(m: FHMMModel, y: np.ndarray, rows: int):
    """Yield ``(lo, em)``: the Gaussian emission log-likelihoods of steps
    ``lo`` .. ``lo + rows - 1`` as a (rows, S) table over product states.

    Every chunk is a view of one (rows, S) buffer, so the next chunk
    overwrites a yielded one: read each before asking for the next.  The
    buffer is filled in place, in the order of
    ``-0.5 * (LOG_2PI + log(var) + (y - mean) ** 2 / var)``, so no chunk
    allocates and every value is bit-identical to that expression."""
    em_mean = _product_sum(a.means for a in m.appliances)
    em_var = _product_sum(a.stds**2 for a in m.appliances) + m.noise_variance
    log_norm = LOG_2PI + np.log(em_var)
    buf = np.empty((min(rows, y.size), em_mean.size))
    for lo in range(0, y.size, rows):
        em = buf[: y.size - lo]
        np.subtract(y[lo : lo + rows, None], em_mean, out=em)
        np.square(em, out=em)
        np.divide(em, em_var, out=em)
        np.add(log_norm, em, out=em)
        np.multiply(-0.5, em, out=em)
        yield lo, em


def _plane_counts(sizes: list[int]) -> list[int]:
    """Bits of each appliance's digit in a staged code: ceil(log2 K_n)."""
    return [(K - 1).bit_length() for K in sizes]


def fhmm_backpointer_bytes(sizes: list[int], steps: int) -> int:
    """Bytes of backpointers an FHMM decode of ``steps`` steps keeps, for
    appliances of ``sizes`` states: ``steps * S`` for the dense step and
    ``steps * sum(ceil(log2 K_n)) * ceil(S / 8)`` for the staged one."""
    S = math.prod(sizes)
    if S <= _DENSE_MAX_STATES:
        return steps * S
    return steps * sum(_plane_counts(sizes)) * -(-S // 8)


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
    needed = fhmm_backpointer_bytes(sizes, T)
    if needed > FHMM_BACKPOINTER_LIMIT:
        raise ValueError(
            f"decoding T={T} steps over S={S} product states needs {needed} "
            f"bytes of backpointers, over the limit ({FHMM_BACKPOINTER_LIMIT}); "
            "split the aggregate into shorter spans or filter to fewer appliances"
        )
    if T == 0:
        return _predictions_from_states(m, aggregate, _digits(np.empty(0, np.int64), sizes))
    decode = _viterbi_dense if S <= _DENSE_MAX_STATES else _viterbi_staged
    return _predictions_from_states(m, aggregate, decode(m, y))


def _viterbi_dense(m: FHMMModel, y: np.ndarray) -> np.ndarray:
    """(N, T) MAP states by one (S, S) score table per step; T > 0."""
    sizes = _sizes(m)
    strides = _strides(sizes)
    S = math.prod(sizes)
    # Row j of the table scores every predecessor i of successor j, so
    # L[n][j, i] is log A_n from digit n of state i to digit n of state j.
    digits = np.arange(S)[:, None] // strides % sizes
    # Adding appliance N-1 first, as the staged step does, gives
    # bit-identical maxima; argmax ties take the lower flat index.
    L = [
        _log(a.A)[d[None, :], d[:, None]] for a, d in zip(m.appliances, digits.T)
    ][::-1]

    rows = max(1, 2**16 // S)
    codes = np.empty((y.size, S), dtype=np.uint8)
    preds = np.zeros((rows, S), dtype=np.intp)
    table = np.empty((S, S))
    flat_table = table.reshape(-1)
    row_start = np.arange(0, S * S, S)
    flat = np.empty(S, dtype=np.intp)
    delta = _product_sum(_log(a.pi) for a in m.appliances)
    add, argmax = np.add, table.argmax
    first = 1  # step 0 has no predecessor: its scores are log pi + em[0]
    for lo, em in _emission_chunks(m, y, rows):
        if first:
            add(delta, em[0], delta)
        for pred, e in zip(preds[first:], em[first:]):
            # Assign delta to every row, then add in place: each cell is
            # ((delta_i + L_{N-1}) + L_{N-2}) ... + L_0.
            table[...] = delta
            for L_n in L:
                add(table, L_n, table)
            argmax(1, pred)
            # The score at the argmax is the row maximum.
            add(pred, row_start, flat)
            add(flat_table[flat], e, delta)
        codes[lo : lo + len(em)] = preds[: len(em)]
        first = 0
    # Neither the emission buffer nor the step rows are needed by the backtrack.
    em = e = preds = pred = None

    path = np.empty(y.size, dtype=np.int64)
    idx = path[-1] = int(np.argmax(delta))
    for t in range(y.size - 1, 0, -1):
        idx = path[t - 1] = codes.item(t, idx)
    return _digits(path, sizes)


def _viterbi_staged(m: FHMMModel, y: np.ndarray) -> np.ndarray:
    """(N, T) MAP states by one maximisation per appliance axis per step;
    T > 0."""
    sizes = _sizes(m)
    strides = _strides(sizes)
    S = math.prod(sizes)

    # Steps run in chunks of ``rows`` sharing one emission table.  Stage k
    # maximises appliance N-1-k, the trailing digit of the current layout:
    # the scores viewed as (K_i, S / K) take log A into a (K_i, K_j, S / K)
    # scratch, and the max over i leaves the successor digit j in front.
    # log A is expanded once to the scratch's shape, as broadcasting it
    # from (K_i, K_j, 1) gives the add a stride-0 inner operand, which made
    # the add about 75 % of a stage at S = 4096.  Stages with the same K
    # share their scratch and result buffers, as a scratch is filled from
    # the input before the result is written; a one-state appliance adds
    # straight into its result.  For 1 <= i < K a mask marks, per chunk,
    # where the argmax digit is >= i.  Stage 0 reads ``delta`` and every
    # later stage the result of the one before, all fixed buffers, so each
    # stage's views are built once here and not at every step.
    rows = max(1, 2**16 // S)
    buffers = {}
    for K in set(sizes):
        best = np.empty((K, S // K))
        buffers[K] = (np.empty((K, K, S // K)) if K > 1 else best[None], best)
    delta = scores = _product_sum(_log(a.pi) for a in m.appliances)
    stages, masks = [], []
    for a, K in zip(reversed(m.appliances), reversed(sizes)):
        scratch, best = buffers[K]
        masks.append(np.zeros((K - 1, rows, K, S // K), bool))
        # Running maxima in place: scratch[i] becomes the max over digits
        # 0 .. i, and the last one lands in ``best``.
        maxima = [
            (scratch[i - 1], scratch[i], best if i == K - 1 else scratch[i]) for i in range(1, K)
        ]
        checks = list(zip(scratch, masks[-1]))
        pred = scores.reshape(-1, K).T[:, None]
        log_A = np.ascontiguousarray(np.broadcast_to(_log(a.A)[:, :, None], scratch.shape))
        stages.append((pred, log_A, scratch, maxima, best, checks))
        scores = best
    last = scores.reshape(S)

    # Appliance n's digit takes ceil(log2 K_n) bit planes from plane
    # ``first[n]`` on, each plane one bit per position of its stage's
    # output layout, 8 positions a byte, lowest position in the lowest bit.
    # The masks m_i (digit >= i) are a thermometer code of the digit, so
    # bit j of the digit is the parity of the m_i whose i is a multiple of
    # 2**j.  Each mask is packed once per chunk, copied into the plane of
    # which it is the lowest such mask (the one mask of a two-state
    # appliance is its plane) and XORed into the others.
    counts = _plane_counts(sizes)
    first = [sum(counts[:n]) for n in range(len(sizes))]
    width = -(-S // 8)
    bits = np.empty((y.size, sum(counts), width), np.uint8)
    packing = [
        (mk.reshape(rows, S), [(first[n] + j, i > 2**j) for j in range(counts[n]) if i % 2**j == 0])
        for n, stage_masks in zip(reversed(range(len(sizes))), masks)
        for i, mk in enumerate(stage_masks, 1)
    ]
    for lo, em in _emission_chunks(m, y, rows):
        for r in range(em.shape[0]):
            if lo + r > 0:
                for pred, log_A, scratch, maxima, best, checks in stages:
                    np.add(pred, log_A, out=scratch)
                    for below, at, out in maxima:
                        np.maximum(below, at, out=out)
                    # The digit is >= i where the max beats every score
                    # below i; ties keep the lower digit, as argmax would.
                    for below, mk in checks:
                        np.greater(best, below, out=mk[r])
                np.add(last, em[r], out=delta)
            else:
                delta += em[r]
        chunk = bits[lo : lo + em.shape[0]]
        for mk, planes in packing:
            packed = np.packbits(mk[: len(chunk)], axis=1, bitorder="little")
            for plane, xor in planes:
                if xor:
                    np.bitwise_xor(chunk[:, plane], packed, out=chunk[:, plane])
                else:
                    chunk[:, plane] = packed
    del em  # the emission buffer is not needed by the backtrack

    # Compose the predecessor along the path only.  Digit n was stored in
    # the layout after its stage, whose leading digits n .. N-1 are
    # successor digits and trailing digits 0 .. n-1 predecessor digits: at
    # (idx % P_n) * (S // P_n) + idx // P_n with P_n = K_n * stride_n, where
    # idx already holds the predecessor digits below n.  Digit n of idx is
    # cleared, then bit j of each plane's byte at that position adds
    # stride_n << j.  A memoryview reads a byte faster than ``ndarray.item``.
    step = sum(counts) * width
    digits = [
        (stride, K * stride, S // (K * stride),
         [((first[n] + j) * width, stride << j) for j in range(counts[n])])
        for n, (K, stride) in enumerate(zip(sizes, strides))
        if K > 1
    ]
    flat = memoryview(bits.reshape(-1))
    path = np.empty(y.size, dtype=np.int64)
    idx = path[-1] = int(np.argmax(delta))
    for t in range(y.size - 1, 0, -1):
        base = t * step
        for stride, P, Q, planes in digits:
            low = idx % P
            pos = low * Q + idx // P
            byte, shift = base + (pos >> 3), pos & 7
            idx -= low - low % stride
            for plane, weight in planes:
                idx += (flat[byte + plane] >> shift & 1) * weight
        path[t - 1] = idx
    return _digits(path, sizes)


def predictions_to_power(
    p: Predictions, feature: Measurement = POWER_ACTIVE
) -> dict[str, Channel]:
    """One ``feature`` channel of built powers per appliance, on the aggregate timestamps."""
    return {
        name: Channel(
            id=name,
            timestamps=p.timestamps,
            columns={feature: ap.powers},
            nominal_period=p.nominal_period,
        )
        for name, ap in p.appliances.items()
    }
