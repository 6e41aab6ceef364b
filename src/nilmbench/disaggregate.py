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
  product state per step (S bytes).  The new scores are read
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
  emission chunk: sum(ceil(log2 K_n)) * ceil(S / 8) bytes per step.  A two-state
  appliance's plane is its stage's one ``>`` mask; with more states the
  planes are the bits of the digit, the count of its K_n - 1 masks.  The
  backtrack reads one bit per plane.  Twelve two-state appliances take
  12 bits per product state where one uint16 code per state took 16, but
  a K that is not a power of two leaves part of its planes unused: eight
  three-state appliances and one two-state appliance (S = 13122) take 17
  bits.  At S = 4096 over 1440 steps the planes of every step take
  8.44 MiB against 11.25 MiB of uint16 codes.  Each emission row runs
  one precomputed list of ``(ufunc, a, b, out)`` calls over the fixed
  stage buffers.

Both step kinds run under one decode loop, :func:`_decode`, which owns the
emission chunks, a window of codes, the check of where the survivors meet
and the (N, T) state matrix.  The window holds the codes of the steps not
yet emitted, up to ``_WINDOW_BYTES`` (2 MiB) of them.  When the next chunk
would overflow it, the survivors of its last step, one per product state,
are followed back together: the MAP path up to step tau is fixed once
every survivor descends from one state x at tau (Forney 1973, "The Viterbi
algorithm"; Sramek, Brejova & Vinar 2007, "On-line Viterbi algorithm for
analysis of long biological sequences").  The drain then walks from x to
the window start, writes those states into the matrix and keeps only the
codes after tau.  The walk that later reads step tau + 1 must arrive at x;
if it does not, the decode raises a RuntimeError naming tau.  If the
survivors do not meet within the window, as those of two appliances with
identical parameters may never do, the window doubles, up to the steps
still to decode.  That growth is the decode's one memory rule: the old
window is copied into the new one, so a growth for which both windows'
codes, :func:`fhmm_backpointer_bytes` of their steps, would exceed
``FHMM_BACKPOINTER_LIMIT`` (1 GiB) together is refused with a ValueError
before the new window is allocated, whatever the length of the trace.
The forward pass and its codes do not depend on the window, so the
states are those of one backtrack over the whole trace.  Each step kind
walks its own codes: a range walk follows one state back over a span of
steps in a tight loop over a ``memoryview`` of the window, and a
vectorised lookup gives the predecessors of a set of states at one step.
Sets of more than ``_VECTOR_SURVIVORS`` (16) survivors step back by one
lookup, smaller ones by a one-step walk per state.

On ``fhmm_wide_s4096`` (S = 4096, 1440 steps, a window of 341 steps) seeds
1-3 drain 4 times each; the survivors met 9-46 steps back, and a check
took 1.0-3.2 ms against an operation of 255-324 ms.  A week at 6 s
(S = 8, 50 400 steps, 403 KB of codes) never drains.  At S = 16384, where
no workload decodes, the window holds 73 steps and a check takes 3-6 ms,
most of it the first lookup over all S states: in alternating in-process
calls a 300-step decode took 954 us/step against 857 when every code was
kept, while the step alone was at parity.

Tie-breaking is deterministic everywhere: combinatorial ties prefer the
smaller total power, then the lexicographically smallest state vector;
Viterbi ties prefer the lower product-state index (appliance 0 is the most
significant digit of the mixed-radix product index).  The staged step
compares partial sums, so where rounding turns a strict partial difference
into an exact tie of full sums it may keep a higher predecessor than the
dense step would.

Both decoders reject an aggregate with a NaN or infinite reading, naming
how many there are and the index of the first.

A decode returns N * T bytes: each appliance's states are a contiguous row
of an (N, T) uint8 matrix (wider past 256 states) beside one power level
per state.  A prediction holds no power series: ``levels[states]`` is
gathered only where powers are read, by ``pipeline.write_predictions`` for
the file and by ``metrics.evaluate`` for the rows it scores.  The FHMM
writes the state matrix one drained block at a time.
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
# An FHMM emission chunk holds max(1, _CHUNK_CELLS // S) steps.
_CHUNK_CELLS = 2**16
# Bytes of codes an FHMM decode keeps before it looks for where its
# survivors meet, and grows to only while they do not.
_WINDOW_BYTES = 2**21
# The survivor check steps sets of more states than this back by one
# vectorised lookup, smaller ones state by state.
_VECTOR_SURVIVORS = 16

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class AppliancePrediction:
    """One appliance's estimate: a state per aggregate timestamp, the power
    level of each state, and the model's state means (empty without one)."""

    states: np.ndarray
    levels: np.ndarray
    state_means: np.ndarray


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


def _digits(path: np.ndarray, sizes: list[int], out: np.ndarray | None = None) -> np.ndarray:
    """(N, T) mixed-radix digits of the product-state indices ``path``, in
    ``out`` or else in the smallest unsigned dtype: row n holds appliance
    n's states."""
    if out is None:
        out = np.empty((len(sizes), path.size), np.min_scalar_type(max(sizes) - 1))
    for row, K, stride in zip(out, sizes, _strides(sizes)):
        np.remainder(path // stride, K, out=row, casting="unsafe")
    return out


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
    """Bytes of the FHMM codes of ``steps`` steps, for appliances of
    ``sizes`` states: ``steps * S`` for the dense step and
    ``steps * sum(ceil(log2 K_n)) * ceil(S / 8)`` for the staged one.  The
    decode's window holds the codes of the steps it has not yet emitted."""
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
    kernel_type = _DenseStep if S <= _DENSE_MAX_STATES else _StagedStep
    return _predictions_from_states(m, aggregate, _decode(m, y, kernel_type))


def _decode(m: FHMMModel, y: np.ndarray, kernel_type) -> np.ndarray:
    """(N, T) MAP states of ``m`` on ``y`` by the step and code layout of
    ``kernel_type``; (N, 0) for T = 0.

    Window row r holds the codes of step ``start + r``.  The states of the
    steps before ``start`` are already in the state matrix, and ``anchor``
    is the state at step ``start - 1``: every survivor descends from it, so
    the walk that reads row 0 must arrive there.  In the first window, row
    0 is step 0, which has no predecessor: the walk reads its codes, but
    not what they give."""
    sizes = _sizes(m)
    T = y.size
    rows = max(1, _CHUNK_CELLS // math.prod(sizes))
    # The step buffers hold one chunk, and no chunk is longer than the decode.
    kernel = kernel_type(m, min(T, rows))
    states = np.empty((len(sizes), T), np.min_scalar_type(max(sizes) - 1))
    cap = min(T, max(rows, _WINDOW_BYTES // fhmm_backpointer_bytes(sizes, 1)))
    window = np.empty((cap, *kernel.code_shape), np.uint8)
    path = np.empty(cap, np.min_scalar_type(kernel.S))
    start = n = 0
    anchor = None

    def emit(hi: int, idx: int) -> None:
        """Walk back from state ``idx`` at row ``hi - 1`` and write the
        states of rows 0 .. hi - 1 into the state matrix."""
        before = kernel.walk(memoryview(window.reshape(-1)), memoryview(path), 0, hi, idx)
        if start and before != anchor:
            raise RuntimeError(
                f"FHMM backtrack reached state {before} at step {start - 1}, "
                f"where the survivors met at state {anchor}"
            )
        _digits(path[:hi], sizes, out=states[:, start : start + hi])

    for lo, em in _emission_chunks(m, y, rows):
        if n + len(em) > cap:
            met = _survivors_meet(kernel, window, path, n)
            if met is not None:
                r, anchor_next = met
                emit(r + 1, anchor_next)
                window[: n - r - 1] = window[r + 1 : n]
                start, n, anchor = start + r + 1, n - r - 1, anchor_next
            if n + len(em) > cap:
                grown_cap = min(2 * cap, T - start)
                size = fhmm_backpointer_bytes(sizes, grown_cap)
                if window.nbytes + size > FHMM_BACKPOINTER_LIMIT:
                    raise ValueError(
                        f"FHMM survivors over S={kernel.S} product states have not met "
                        f"from step {start} on: growing the window of {cap} steps "
                        f"({window.nbytes} bytes of codes) to {grown_cap} steps ({size} bytes) "
                        f"would hold {window.nbytes + size} bytes of codes at once, "
                        f"over the limit ({FHMM_BACKPOINTER_LIMIT})"
                    )
                cap = grown_cap
                grown = np.empty((cap, *kernel.code_shape), np.uint8)
                grown[:n] = window[:n]
                window, path = grown, np.empty(cap, path.dtype)
        kernel.forward(em, int(lo == 0), window[n : n + len(em)])
        n += len(em)
    idx = int(np.argmax(kernel.delta))
    em = None  # the emission buffer is not needed by the last walk
    emit(n, idx)
    return states


def _survivors_meet(kernel, window: np.ndarray, path: np.ndarray, n: int):
    """``(r, x)``: the last window row r at which every survivor of row
    ``n - 1``, one per product state, descends from the one state x; None
    if they do not meet at or after row 0.  Sets of more than
    ``_VECTOR_SURVIVORS`` states step back by one vectorised lookup, smaller
    ones by a one-row walk per state (which scribbles on ``path``)."""
    r, alive = n - 1, np.arange(kernel.S)
    seen = np.empty(kernel.S, bool)
    while alive.size > _VECTOR_SURVIVORS and r > 0:
        seen[:] = False
        seen[kernel.lookup(window[r], alive)] = True
        alive = np.flatnonzero(seen)
        r -= 1
    codes, out, alive = memoryview(window.reshape(-1)), memoryview(path), set(alive.tolist())
    while len(alive) > 1 and r > 0:
        alive = {kernel.walk(codes, out, r, r + 1, x) for x in alive}
        r -= 1
    return (r, alive.pop()) if len(alive) == 1 else None


class _DenseStep:
    """The dense step and its codes: the flat predecessor of each product
    state, one uint8 each, S bytes a step."""

    def __init__(self, m: FHMMModel, rows: int):
        sizes = _sizes(m)
        strides = _strides(sizes)
        self.S = S = math.prod(sizes)
        self.code_shape = (S,)
        # Row j of the table scores every predecessor i of successor j, so
        # L[n][j, i] is log A_n from digit n of state i to digit n of state j.
        digits = np.arange(S)[:, None] // strides % sizes
        # Adding appliance N-1 first, as the staged step does, gives
        # bit-identical maxima; argmax ties take the lower flat index.
        self.L = [
            _log(a.A)[d[None, :], d[:, None]] for a, d in zip(m.appliances, digits.T)
        ][::-1]
        self.steps = np.zeros((rows, S), dtype=np.intp)
        self.table = np.empty((S, S))
        self.row_start = np.arange(0, S * S, S)
        self.flat = np.empty(S, dtype=np.intp)
        self.delta = _product_sum(_log(a.pi) for a in m.appliances)

    def forward(self, em: np.ndarray, first: int, codes: np.ndarray) -> None:
        """Take the steps of one emission chunk and write their codes to
        ``codes``; ``first`` is 1 when ``em[0]`` is step 0, which has no
        predecessor: its scores are log pi + em[0]."""
        delta, table, L, flat, row_start = self.delta, self.table, self.L, self.flat, self.row_start
        flat_table = table.reshape(-1)
        add, argmax = np.add, table.argmax
        if first:
            add(delta, em[0], delta)
        for pred, e in zip(self.steps[first:], em[first:]):
            # Assign delta to every row, then add in place: each cell is
            # ((delta_i + L_{N-1}) + L_{N-2}) ... + L_0.
            table[...] = delta
            for L_n in L:
                add(table, L_n, table)
            argmax(1, pred)
            # The score at the argmax is the row maximum.
            add(pred, row_start, flat)
            add(flat_table[flat], e, delta)
        codes[...] = self.steps[: len(em)]

    def walk(self, codes: memoryview, path: memoryview, lo: int, hi: int, idx: int) -> int:
        """From state ``idx`` at row ``hi - 1``, set ``path[r]`` to the
        state at row r for r = hi - 1 down to ``lo``, reading the flat
        ``codes`` of the window; return the state one step before row ``lo``."""
        S = self.S
        for r in range(hi - 1, lo - 1, -1):
            path[r] = idx
            idx = codes[r * S + idx]
        return idx

    def lookup(self, row: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The predecessors of ``states`` by the codes of one window row."""
        return row[states]


class _StagedStep:
    """The staged step and its codes: each appliance's argmax digit as
    ceil(log2 K_n) bit planes over the S positions of its stage's output
    layout."""

    def __init__(self, m: FHMMModel, rows: int):
        sizes = _sizes(m)
        strides = _strides(sizes)
        self.S = S = math.prod(sizes)

        # Stage k maximises appliance N-1-k, the trailing digit of the
        # current layout: the scores viewed as (K_i, S / K) take log A into
        # a (K_i, K_j, S / K) scratch, and the max over i leaves the
        # successor digit j in front.  log A is expanded once to the
        # scratch's shape, as broadcasting it from (K_i, K_j, 1) gives the
        # add a stride-0 inner operand, which made the add about 75 % of a
        # stage at S = 4096.  Stages with the same K share their scratch and
        # result buffers, as a scratch is filled from the input before the
        # result is written; a one-state appliance adds straight into its
        # result.  Running maxima in place make scratch[i] the max over
        # digits 0 .. i, and the last one lands in ``best``; then one
        # compare per stage marks, per chunk row, where the argmax digit is
        # >= i for 1 <= i < K: where the max beats every score below i, so
        # ties keep the lower digit, as argmax would.  Stage 0 reads
        # ``delta`` and every later stage the result of the one before, all
        # fixed buffers, so each row's calls are listed once here.
        buffers = {}
        for K in set(sizes):
            best = np.empty((K, S // K))
            buffers[K] = (np.empty((K, K, S // K)) if K > 1 else best[None], best)
        self.delta = scores = _product_sum(_log(a.pi) for a in m.appliances)
        stages, masks = [], []
        for a, K in zip(reversed(m.appliances), reversed(sizes)):
            scratch, best = buffers[K]
            pred = scores.reshape(-1, K).T[:, None]
            log_A = np.ascontiguousarray(np.broadcast_to(_log(a.A)[:, :, None], scratch.shape))
            calls = [(np.add, pred, log_A, scratch)]
            calls += [
                (np.maximum, scratch[i - 1], scratch[i], best if i == K - 1 else scratch[i])
                for i in range(1, K)
            ]
            masks.append(np.zeros((rows, K - 1, K, S // K), bool))
            # A two-state stage compares without broadcasting over the mask
            # axis, which took about 40 % longer at S = 4096.
            below, marks = (scratch[0], masks[-1][:, 0]) if K == 2 else (scratch[: K - 1], masks[-1])
            stages.append((calls, best, below, marks))
            scores = best
        self.last = scores.reshape(S)
        self.calls = []
        for r in range(rows):
            row = []
            for calls, best, below, marks in stages:
                row += calls
                if len(best) > 1:
                    row.append((np.greater, best, below, marks[r]))
            self.calls.append(row)

        # Appliance n's digit takes ceil(log2 K_n) bit planes from plane
        # ``first[n]`` on, each plane one bit per position of its stage's
        # output layout, 8 positions a byte, lowest position in the lowest
        # bit.  The masks m_i (digit >= i) are a thermometer code of the
        # digit, so bit j of the digit is the parity of the m_i whose i is a
        # multiple of 2**j.  Each mask is packed once per chunk, copied into
        # the plane of which it is the lowest such mask (the one mask of a
        # two-state appliance is its plane) and XORed into the others.
        counts = _plane_counts(sizes)
        first = [sum(counts[:n]) for n in range(len(sizes))]
        width = -(-S // 8)
        self.code_shape = (sum(counts), width)
        self.packing = [
            (stage_masks[:, i - 1].reshape(rows, S),
             [(first[n] + j, i > 2**j) for j in range(counts[n]) if i % 2**j == 0])
            for n, stage_masks in zip(reversed(range(len(sizes))), masks)
            for i in range(1, stage_masks.shape[1] + 1)
        ]

        # Compose the predecessor along a walk only.  Digit n was stored in
        # the layout after its stage, whose leading digits n .. N-1 are
        # successor digits and trailing digits 0 .. n-1 predecessor digits:
        # at (idx % P_n) * (S // P_n) + idx // P_n with P_n = K_n * stride_n,
        # where idx already holds the predecessor digits below n.  Digit n
        # of idx is cleared, then bit j of each plane's byte at that
        # position adds stride_n << j.
        self.step_bytes = sum(counts) * width
        self.digits = [
            (stride, K * stride, S // (K * stride),
             [((first[n] + j) * width, stride << j) for j in range(counts[n])])
            for n, (K, stride) in enumerate(zip(sizes, strides))
            if K > 1
        ]
        # Each plane's weight, in plane order, for the lookup; every index
        # and partial sum it forms is below S, so they fit the smallest
        # unsigned dtype for S.
        self.weights = np.array(
            [weight for *_, planes in self.digits for _, weight in planes], np.min_scalar_type(S)
        )

    def forward(self, em: np.ndarray, first: int, codes: np.ndarray) -> None:
        """Take the steps of one emission chunk and write their codes to
        ``codes``; ``first`` is 1 when ``em[0]`` is step 0, which has no
        predecessor: its scores are log pi + em[0]."""
        add, last, delta = np.add, self.last, self.delta
        if first:
            delta += em[0]
        for calls, e in zip(self.calls[first:], em[first:]):
            for f, a, b, out in calls:
                f(a, b, out=out)
            add(last, e, out=delta)
        for mk, planes in self.packing:
            packed = np.packbits(mk[: len(codes)], axis=1, bitorder="little")
            for plane, xor in planes:
                if xor:
                    np.bitwise_xor(codes[:, plane], packed, out=codes[:, plane])
                else:
                    codes[:, plane] = packed

    def walk(self, codes: memoryview, path: memoryview, lo: int, hi: int, idx: int) -> int:
        """From state ``idx`` at row ``hi - 1``, set ``path[r]`` to the
        state at row r for r = hi - 1 down to ``lo``, reading the flat
        ``codes`` of the window (a memoryview reads a byte faster than
        ``ndarray.item``); return the state one step before row ``lo``."""
        step, digits = self.step_bytes, self.digits
        for r in range(hi - 1, lo - 1, -1):
            path[r] = idx
            base = r * step
            for stride, P, Q, planes in digits:
                low = idx % P
                pos = low * Q + idx // P
                byte, shift = base + (pos >> 3), pos & 7
                idx -= low - low % stride
                for plane, weight in planes:
                    idx += (codes[byte + plane] >> shift & 1) * weight
        return idx

    def lookup(self, row: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The predecessors of ``states`` by the codes of one window row,
        composed as the walk composes them, from each plane unpacked to one
        weight per position."""
        weighted = (np.unpackbits(row, axis=1, bitorder="little") * self.weights[:, None]).reshape(-1)
        idx = states.astype(self.weights.dtype)
        for stride, P, Q, planes in self.digits:
            high, low = np.divmod(idx, P)
            pos = low * Q
            pos += high
            idx -= low - low % stride
            for byte, _ in planes:
                idx += weighted[8 * byte :].take(pos)
        return idx

