"""Independent reference implementations used to check the fast paths.

These stay deliberately naive: exhaustive enumeration for the combinatorial
search, an explicitly materialised product chain with a textbook dense
Viterbi over it, the literal sum-of-minimum-fractions energy overlap, and a
channel CSV written a line per row (``write_channel_csv_rows``), each cell
formatted on its own by the text rules.  None of them shares code with the
code they check, except ``staged_viterbi_loop``: an earlier FHMM step kept to
pin the current one bit for bit, so it takes its emission table from the
decoder module and differs only in the step; and the CSV oracle, which takes
``_format_timestamp``, the definition of a timestamp's text, from ``io``.
Earlier forms of fast code that must stay bit-identical are kept here as
well: ``co_states_matrix``, ``mask_train_test_split``,
``learn_states_three_sorts`` and ``interpolate_small_gaps_argsort``.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from nilmbench.data import POWER_ACTIVE
from nilmbench.disaggregate import _emission_chunks, _product_sum
from nilmbench.io import _format_timestamp
from nilmbench.preprocess import map_channels
from nilmbench.training import KMEANS_MAX_ITER, KMEANS_TOL_W, STD_FLOOR_W, ApplianceStateModel

PRODUCT_HMM_LIMIT = 2**10


def co_bruteforce(models, ybar: float) -> tuple[int, ...]:
    """Exhaustive argmin over state combinations.

    Tie-break: smaller |difference|, then smaller total power, then the
    lexicographically smallest state vector.
    """
    best = None
    for combo in itertools.product(*[range(a.K) for a in models]):
        total = sum(float(a.means[s]) for a, s in zip(models, combo))
        key = (abs(ybar - total), total, combo)
        if best is None or key < best:
            best = key
    return best[2]


def co_states_matrix(m, y) -> np.ndarray:
    """(T, N) CO states as one matrix, each appliance's digits written into
    its column; argmin ties to the smaller total, then the lexicographically
    smallest combination."""
    sizes = [a.K for a in m.appliances]
    strides = [math.prod(sizes[n + 1 :]) for n in range(len(sizes))]
    totals = _product_sum(a.means for a in m.appliances)
    order = np.argsort(totals, kind="stable")
    sorted_totals = totals[order]
    pos = np.searchsorted(sorted_totals, y, side="left")
    left = np.clip(pos - 1, 0, sorted_totals.size - 1)
    right = np.clip(pos, 0, sorted_totals.size - 1)
    d_left = np.abs(y - sorted_totals[left])
    d_right = np.abs(y - sorted_totals[right])
    best = np.where(d_left <= d_right, left, right)
    best = np.searchsorted(sorted_totals, sorted_totals[best], side="left")
    combo = order[best]
    states = np.empty((y.size, len(sizes)), dtype=np.int64)
    for n, size in enumerate(sizes):
        states[:, n] = (combo // strides[n]) % size
    return states


def mask_train_test_split(b, fraction):
    """Train/test halves selected by comparing every timestamp with the
    first test timestamp, one boolean mask per channel and half."""
    used = list(b.mains) + list(b.appliances.values())
    t_split = float(used[0].timestamps[int(len(used[0]) * fraction)])
    return (
        map_channels(b, lambda c: c.take(c.timestamps < t_split)),
        map_channels(b, lambda c: c.take(c.timestamps >= t_split)),
    )


def kmeans_1d_masks(values, K):
    """1-D k-means that sorts its input and forms each cluster with a
    boolean mask per iteration; returns centroids and per-value clusters."""
    x = np.sort(values)
    qs = (2 * np.arange(K) + 1) / (2 * K)
    centroids = np.unique(np.quantile(x, qs))
    if centroids.size < K:
        centroids = np.quantile(np.unique(x), qs)
    for _ in range(KMEANS_MAX_ITER):
        cuts = 0.5 * (centroids[:-1] + centroids[1:])
        assign = np.searchsorted(cuts, x, side="left")
        new_centroids = []
        for k in range(centroids.size):
            members = x[assign == k]
            if members.size:
                new_centroids.append(members.mean())
        new_centroids = np.unique(np.asarray(new_centroids))
        if new_centroids.size == centroids.size and np.all(
            np.abs(new_centroids - centroids) <= KMEANS_TOL_W
        ):
            centroids = new_centroids
            break
        centroids = new_centroids
    cuts = 0.5 * (centroids[:-1] + centroids[1:])
    return centroids, np.searchsorted(cuts, x, side="left")


def learn_states_three_sorts(c, K=2, feature=POWER_ACTIVE):
    """State learning that sorts the channel three times (``np.unique`` for
    the distinct count, once for k-means, once for the stds) and masks
    each cluster out of the whole array."""
    if K < 1:
        raise ValueError("K must be >= 1")
    if len(c) == 0:
        raise ValueError(f"channel {c.id} is empty")
    values = c.values(feature)
    n_distinct = np.unique(values).size
    if n_distinct < K:
        warnings.warn(
            f"channel {c.id}: only {n_distinct} distinct values; "
            f"reducing K from {K} to {n_distinct}",
            stacklevel=2,
        )
        K = n_distinct
    means, assign = kmeans_1d_masks(values, K)
    x = np.sort(values)
    stds = np.empty(means.size)
    for k in range(means.size):
        members = x[assign == k]
        stds[k] = max(float(members.std()), STD_FLOOR_W)
    return ApplianceStateModel(name=c.id, means=means, stds=stds)


def write_channel_csv_rows(path, c) -> None:
    """One channel's CSV written on its own, one line per row: the
    timestamp's :func:`_format_timestamp` text, then ``repr`` of each value."""
    measurements = sorted(c.columns, key=lambda m: m.column_name)
    header = ",".join(["timestamp"] + [m.column_name for m in measurements])
    cols = [c.columns[m].tolist() for m in measurements]
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for t, *values in zip(c.timestamps.tolist(), *cols):
            f.write(",".join([_format_timestamp(t)] + [repr(float(v)) for v in values]) + "\n")


def dense_viterbi(pi, A, emission_means, emission_variances, y):
    """Log-space Viterbi over an explicit chain; argmax ties to lower index.

    Returns (state path, path log-likelihood).
    """
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
        log_A = np.log(A)

    def em(yt):
        return -0.5 * (
            math.log(2 * math.pi)
            + np.log(emission_variances)
            + (yt - emission_means) ** 2 / emission_variances
        )

    T = len(y)
    S = len(pi)
    delta = log_pi + em(y[0])
    back = np.zeros((T, S), dtype=int)
    for t in range(1, T):
        scores = delta[:, None] + log_A
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(S)] + em(y[t])
    path = np.empty(T, dtype=int)
    path[-1] = int(np.argmax(delta))
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t][path[t]]
    return path, float(np.max(delta))


@dataclass(frozen=True)
class ProductHMM:
    """Explicit single-chain equivalent of a factorial model (oracle scale).

    The product state index encodes per-appliance states in mixed radix with
    appliance 0 most significant.
    """

    pi: np.ndarray
    A: np.ndarray
    emission_means: np.ndarray
    emission_variances: np.ndarray
    sizes: tuple[int, ...]


def build_product_hmm(m) -> ProductHMM:
    """Materialise the Kronecker-product prior, transitions and emissions.

    The emission of a product state is Gaussian with the sum of its state
    means and the sum of its state variances plus the aggregate noise.
    """
    sizes = tuple(a.K for a in m.appliances)
    S = math.prod(sizes)
    if S > PRODUCT_HMM_LIMIT:
        raise ValueError(
            f"product state space {S} exceeds the explicit-construction "
            f"limit ({PRODUCT_HMM_LIMIT})"
        )
    combos = np.array(list(itertools.product(*[range(k) for k in sizes]))).reshape(S, -1)
    mean = np.zeros(S)
    var = np.zeros(S)
    for n, a in enumerate(m.appliances):
        mean = mean + a.means[combos[:, n]]
        var = var + a.stds[combos[:, n]] ** 2
    return ProductHMM(
        pi=reduce(np.kron, [a.pi for a in m.appliances]),
        A=reduce(np.kron, [a.A for a in m.appliances]),
        emission_means=mean,
        emission_variances=var + m.noise_variance,
        sizes=sizes,
    )


def fhmm_path_loglik(m, states, y) -> float:
    """Log-likelihood of a (T, N) state path under the factorial model."""
    states = np.asarray(states, dtype=np.int64)
    T = states.shape[0]
    if T == 0:
        return 0.0
    total = 0.0
    mean = np.zeros(T)
    var = np.full(T, m.noise_variance)
    with np.errstate(divide="ignore"):
        for n, a in enumerate(m.appliances):
            s = states[:, n]
            mean += a.means[s]
            var += a.stds[s] ** 2
            total += float(np.log(a.pi)[s[0]])
            if T > 1:
                total += float(np.sum(np.log(a.A)[s[:-1], s[1:]]))
    total += float(np.sum(-0.5 * (math.log(2 * math.pi) + np.log(var) + (y - mean) ** 2 / var)))
    return total


def product_index(states_row, sizes) -> int:
    """Mixed-radix product index, appliance 0 most significant."""
    idx = 0
    for s, k in zip(states_row, sizes):
        idx = idx * k + int(s)
    return idx


def dense_step_loop(m, y) -> np.ndarray:
    """(T, N) FHMM MAP states by the dense step that reduces each (S, S)
    table twice, once by ``argmax`` for the codes and once by ``max`` for the
    scores; T > 0.  Row j of the table scores every predecessor i of
    successor j, with appliance N-1 added first."""
    sizes = [a.K for a in m.appliances]
    strides = [math.prod(sizes[n + 1 :]) for n in range(len(sizes))]
    S = math.prod(sizes)
    digits = np.arange(S)[:, None] // strides % sizes
    with np.errstate(divide="ignore"):
        L = [np.log(a.A)[d[None, :], d[:, None]] for a, d in zip(m.appliances, digits.T)]
        delta = _product_sum(np.log(a.pi) for a in m.appliances)

    rows = max(1, 2**16 // S)
    codes = np.zeros((len(y), S), dtype=np.intp)
    table = np.empty((S, S))
    for lo, em in _emission_chunks(m, y, rows):
        for r in range(em.shape[0]):
            if lo + r > 0:
                np.add(L[-1], delta, out=table)
                for L_n in L[-2::-1]:
                    np.add(table, L_n, out=table)
                codes[lo + r] = table.argmax(axis=1)
                delta = table.max(axis=1)
            delta = delta + em[r]

    states = np.empty((len(y), len(sizes)), dtype=np.int64)
    idx = int(np.argmax(delta))
    for t in range(len(y) - 1, 0, -1):
        states[t] = digits[idx]
        idx = int(codes[t, idx])
    states[0] = digits[idx]
    return states


def staged_viterbi_loop(m, y) -> np.ndarray:
    """(T, N) FHMM MAP states by the staged step on the canonical layout;
    T > 0.  Stage n views the scores as (prefix, K_n, 1, stride_n), so the
    last appliances broadcast over inner axes of length 1, 2, 4, ..."""
    sizes = [a.K for a in m.appliances]
    strides = [math.prod(sizes[n + 1 :]) for n in range(len(sizes))]
    S = math.prod(sizes)
    with np.errstate(divide="ignore"):
        log_pi = _product_sum(np.log(a.pi) for a in m.appliances)
        log_As = [np.log(a.A) for a in m.appliances]

    # Axis 1 of a stage's view holds the predecessor digit to maximise out;
    # for 1 <= i < K_n a mask marks, per chunk, where its argmax digit is >= i.
    rows = max(1, 2**16 // S)
    stages = []
    for log_A, K, stride in reversed(list(zip(log_As, sizes, strides))):
        shape = (S // (K * stride), K, stride)
        masks = np.zeros((K - 1, rows, *shape), dtype=bool)
        stages.append((shape, log_A[:, :, None], masks))

    codes = np.empty((len(y), S), dtype=np.uint16)
    delta = log_pi
    for lo, em in _emission_chunks(m, y, rows):
        for r in range(em.shape[0]):
            if lo + r > 0:
                for (prefix, K, stride), log_A, masks in stages:
                    scores = delta.reshape(prefix, K, 1, stride) + log_A
                    delta, below = scores[:, 0], []
                    for i in range(1, K):
                        below.append(delta)
                        delta = np.maximum(delta, scores[:, i])
                    # Strict >: ties keep the lower digit, as argmax would.
                    for b, mk in zip(below, masks):
                        np.greater(delta, b, out=mk[r])
            delta = delta.ravel() + em[r]
        code = codes[lo : lo + em.shape[0]]
        code[...] = 0
        for (_, _, stride), _, masks in stages:
            for mk in masks[:, : len(code)]:
                code += mk.reshape(code.shape) * np.uint16(stride)

    # Digit n of a code was stored at the index whose digits below n are
    # already predecessor digits.
    states = np.empty((len(y), len(sizes)), dtype=np.int64)
    idx = int(np.argmax(delta))
    cur = [idx // stride % K for K, stride in zip(sizes, strides)]
    for t in range(len(y) - 1, 0, -1):
        states[t] = cur
        for n, (K, stride) in enumerate(zip(sizes, strides)):
            s_n = int(codes[t, idx]) // stride % K
            idx += (s_n - cur[n]) * stride
            cur[n] = s_n
    states[0] = cur
    return states


def fte_sum_of_minima(Y: dict, Y_hat: dict) -> float:
    """Literal sum over appliances of min(actual fraction, predicted fraction)."""
    names = sorted(Y)
    actual = np.array([float(np.sum(Y[n])) for n in names])
    predicted = np.array([float(np.sum(Y_hat[n])) for n in names])
    return float(
        np.minimum(actual / actual.sum(), predicted / predicted.sum()).sum()
    )


def trapezoid_energy(t, p) -> float:
    """Plain trapezoid integral, no gap handling (for gapless fixtures)."""
    t = np.asarray(t, dtype=float)
    p = np.asarray(p, dtype=float)
    return float(np.sum(np.diff(t) * 0.5 * (p[:-1] + p[1:])))


def sample_chain_loop(rng, pi, A, n) -> np.ndarray:
    """Markov chain with one inverse-CDF lookup per sample, in draw order; a
    draw past a row's cumulative sum takes the last state."""
    cum_rows = np.cumsum(np.asarray(A), axis=1)
    last = len(pi) - 1
    states = np.empty(n, dtype=np.int64)
    u = rng.random(n)
    states[0] = min(np.searchsorted(np.cumsum(pi), u[0], side="right"), last)
    for t in range(1, n):
        states[t] = min(np.searchsorted(cum_rows[states[t - 1]], u[t], side="right"), last)
    return states


def on_off_durations_loop(t, on, gap_threshold) -> tuple[list, list]:
    """Per-sample walk over the on/off runs of each gap-free section."""
    on_runs: list[float] = []
    off_runs: list[float] = []
    section_breaks = np.nonzero(np.diff(t) > gap_threshold)[0]
    starts = np.concatenate(([0], section_breaks + 1))
    ends = np.concatenate((section_breaks, [t.size - 1]))
    for s, e in zip(starts, ends):
        run_start = s
        for i in range(s + 1, e + 1):
            if on[i] != on[run_start]:
                dur = float(t[i] - t[run_start])
                (on_runs if on[run_start] else off_runs).append(dur)
                run_start = i
        dur = float(t[e] - t[run_start])
        if dur > 0:
            (on_runs if on[run_start] else off_runs).append(dur)
    return on_runs, off_runs


def daily_energy_loop(t, p, gap_threshold, utc_offset_hours=0.0) -> dict:
    """Per-trapezoid dict accumulation of energy by the left sample's day."""
    out: dict[int, float] = {}
    dt = np.diff(t)
    mean_p = 0.5 * (p[:-1] + p[1:])
    days = np.floor((t[:-1] / 86400.0) + utc_offset_hours / 24.0).astype(int)
    keep = dt <= gap_threshold
    for day, e in zip(days[keep], dt[keep] * mean_p[keep]):
        out[int(day)] = out.get(int(day), 0.0) + float(e)
    return out


def _mode_of_bin(values) -> float:
    uniq, counts = np.unique(values, return_counts=True)
    # np.unique sorts ascending, so ties break toward the smaller value.
    return float(uniq[np.argmax(counts)])


BIN_REDUCERS = {
    "mean": np.mean,
    "median": np.median,
    "mode": _mode_of_bin,
    "first": lambda chunk: chunk[0],
}


def downsample_loop(t, v, period, agg) -> tuple[np.ndarray, np.ndarray]:
    """One reducer call per bin; bins anchored at the first timestamp.

    Returns (left bin edges, one reduced value per non-empty bin).
    """
    t0 = t[0]
    bins = np.floor((t - t0) / period + 1e-9).astype(np.int64)
    uniq_bins, starts = np.unique(bins, return_index=True)
    bounds = np.append(starts, t.size).tolist()
    reduce = BIN_REDUCERS[agg]
    values = [reduce(v[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    return t0 + uniq_bins * period, np.array(values, dtype=np.float64)


def interpolate_small_gaps_loop(t, v, period, max_gap) -> tuple[np.ndarray, np.ndarray]:
    """Forward-fill each hole wider than ``period`` and at most ``max_gap``
    with synthetic rows at ``period`` spacing, one hole at a time, each row
    before the next real row."""
    diffs = np.diff(t)
    pieces_t = [t]
    pieces_v = [v]
    for i in np.nonzero((diffs > period) & (diffs <= max_gap))[0]:
        n_new = int(math.ceil(diffs[i] / period - 1e-9)) - 1
        while n_new > 0 and t[i] + np.float64(n_new) * period >= t[i + 1]:
            n_new -= 1
        if n_new <= 0:
            continue
        ks = np.arange(1, n_new + 1, dtype=np.float64)
        pieces_t.append(t[i] + ks * period)
        pieces_v.append(np.full(n_new, v[i]))
    new_t = np.concatenate(pieces_t)
    order = np.argsort(new_t, kind="stable")
    return new_t[order], np.concatenate(pieces_v)[order]


def interpolate_small_gaps_argsort(c, max_gap) -> tuple[np.ndarray, dict]:
    """``interpolate_small_gaps`` in its earlier form: the filled rows are
    appended to the real ones and every row is put in place by a stable
    argsort of the timestamps.  Returns the timestamps and the columns."""
    t, period = c.timestamps, c.nominal_period
    diffs = np.diff(t)
    fill_at = np.nonzero((diffs > period) & (diffs <= max_gap))[0]
    n_new = np.ceil(diffs[fill_at] / period - 1e-9).astype(np.int64) - 1
    while True:
        over = (n_new > 0) & (t[fill_at] + n_new.astype(np.float64) * period >= t[fill_at + 1])
        if not over.any():
            break
        n_new[over] -= 1
    keep = n_new > 0
    fill_at, n_new = fill_at[keep], n_new[keep]
    src = np.repeat(fill_at, n_new)
    ks = np.arange(1, src.size + 1) - np.repeat(np.cumsum(n_new) - n_new, n_new)
    new_t = np.concatenate([t, t[src] + ks.astype(np.float64) * period])
    src = np.concatenate([np.arange(t.size, dtype=np.int64), src])
    order = np.argsort(new_t, kind="stable")
    return new_t[order], {m: v[src][order] for m, v in c.columns.items()}
