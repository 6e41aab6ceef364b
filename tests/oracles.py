"""Independent reference implementations used to check the fast paths.

These stay deliberately naive: exhaustive enumeration for the combinatorial
search, an explicitly materialised product chain with a textbook dense
Viterbi over it, and the literal sum-of-minimum-fractions energy overlap.
None of them shares code with the decoders they check.
"""

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

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
    """Markov chain with one inverse-CDF lookup per sample, in draw order."""
    cum_rows = np.cumsum(np.asarray(A), axis=1)
    states = np.empty(n, dtype=np.int64)
    u = rng.random(n)
    states[0] = np.searchsorted(np.cumsum(pi), u[0], side="right")
    for t in range(1, n):
        states[t] = np.searchsorted(cum_rows[states[t - 1]], u[t], side="right")
    np.clip(states, 0, len(pi) - 1, out=states)
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
