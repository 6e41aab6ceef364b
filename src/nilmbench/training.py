"""Appliance model learning for the two benchmark disaggregators.

CO uses each appliance's power states; the FHMM adds a Markov chain and the
aggregate noise on top of the same states.  :func:`learn_building_states`
learns them once, and each trainer takes them: ``trainer(b, states, feature)``.

State learning is deterministic: 1-D k-means initialised at the
(2i+1)/(2K) quantiles of the sorted power values, run to convergence.
Markov-chain parameters come from hard assignment of each sample to its
nearest state mean, with add-one smoothing so no transition has probability
zero (full EM is deliberately out of scope).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .data import (
    Building, Channel, Measurement, POWER_ACTIVE, check_aligned, check_count, check_finite,
    gap_breaks, mains_total,
)

KMEANS_TOL_W = 1e-6
KMEANS_MAX_ITER = 300
STD_FLOOR_W = 1.0
NOISE_VARIANCE_FLOOR_W2 = 25.0
STOCHASTIC_TOL = 1e-6


@dataclass(frozen=True)
class ApplianceStateModel:
    """Discrete power states (off/on/...) for one appliance.

    ``means`` are strictly ascending watts; state 0 is conventionally the
    "off" state for appliances that do switch off.
    """

    name: str
    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", np.asarray(self.means, dtype=np.float64))
        object.__setattr__(self, "stds", np.asarray(self.stds, dtype=np.float64))
        if self.means.size < 1:
            raise ValueError(f"{self.name}: need at least one state")
        if self.means.size != self.stds.size:
            raise ValueError(f"{self.name}: means and stds differ in length")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.stds))):
            raise ValueError(f"{self.name}: state means and stds must be finite")
        if np.any(np.diff(self.means) <= 0):
            raise ValueError(f"{self.name}: state means must be strictly ascending")
        if np.any(self.stds <= 0):
            raise ValueError(f"{self.name}: state stds must be positive")

    @property
    def K(self) -> int:
        return int(self.means.size)


def check_chain(name: str, K: int, pi: np.ndarray, A: np.ndarray, tol: float) -> None:
    """Raise ValueError unless ``pi`` (K entries) and each row of ``A`` (K x K)
    are distributions within ``tol``; each test reads "all inside", so NaN
    fails too."""
    if pi.shape != (K,) or A.shape != (K, K):
        raise ValueError(f"{name}: pi needs {K} entries and A {K}x{K}")
    for label, p in (("pi", pi), ("rows of A", A)):
        if not (np.all((p >= 0) & (p <= 1)) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= tol)):
            raise ValueError(f"{name}: {label} must sum to 1, each in [0, 1] (distributions)")


@dataclass(frozen=True)
class ApplianceHMM:
    """Per-appliance hidden Markov model with Gaussian emissions."""

    base: ApplianceStateModel
    pi: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=np.float64))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=np.float64))
        check_chain(self.name, self.base.K, self.pi, self.A, STOCHASTIC_TOL)

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def K(self) -> int:
        return self.base.K

    @property
    def means(self) -> np.ndarray:
        return self.base.means

    @property
    def stds(self) -> np.ndarray:
        return self.base.stds


@dataclass(frozen=True)
class COModel:
    algorithm: ClassVar[str] = "co"  # the name that selects it in configs and model JSON

    appliances: tuple[ApplianceStateModel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "appliances", tuple(self.appliances))
        _check_names(self.appliances)


@dataclass(frozen=True)
class FHMMModel:
    algorithm: ClassVar[str] = "fhmm"

    appliances: tuple[ApplianceHMM, ...]
    noise_variance: float = NOISE_VARIANCE_FLOOR_W2

    def __post_init__(self) -> None:
        object.__setattr__(self, "appliances", tuple(self.appliances))
        _check_names(self.appliances)
        noise = check_finite(self.noise_variance, "noise_variance")
        object.__setattr__(self, "noise_variance", max(noise, NOISE_VARIANCE_FLOOR_W2))


def _check_names(appliances) -> None:
    if not appliances:
        raise ValueError("model needs at least one appliance")
    names = [a.name for a in appliances]
    if len(set(names)) != len(names):
        raise ValueError("appliance names must be unique")


def _kmeans_1d(x: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 1-D k-means on ascending ``x``; returns ascending
    centroids and their clusters' slice bounds (cluster k is
    ``x[bounds[k]:bounds[k + 1]]``)."""
    qs = (2 * np.arange(K) + 1) / (2 * K)
    centroids = np.unique(np.quantile(x, qs))
    if centroids.size < K:
        # Skewed data can collapse the quantile init; quantiles of the
        # distinct values are strictly increasing, so K centroids survive.
        centroids = np.quantile(x[np.r_[True, x[1:] != x[:-1]]], qs)
    for _ in range(KMEANS_MAX_ITER):
        bounds = _cluster_bounds(x, centroids)
        new_centroids = np.unique(np.asarray(
            [x[lo:hi].mean() for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        ))
        if new_centroids.size == centroids.size and np.all(
            np.abs(new_centroids - centroids) <= KMEANS_TOL_W
        ):
            centroids = new_centroids
            break
        centroids = new_centroids
    return centroids, _cluster_bounds(x, centroids)


def _cluster_bounds(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Slice bounds of the nearest-centroid clusters of ascending ``x``; a
    value on a midpoint joins the lower cluster, as in :func:`assign_states`."""
    cuts = 0.5 * (centroids[:-1] + centroids[1:])
    return np.concatenate(([0], np.searchsorted(x, cuts, side="right"), [x.size]))


def learn_states(
    c: Channel, K: int = 2, feature: Measurement = POWER_ACTIVE
) -> ApplianceStateModel:
    """Cluster power values into K states; centroids become state means.

    When the channel has fewer distinct values than K, the state count is
    reduced with a warning.  Stds are within-cluster standard deviations,
    floored at 1 W.  Every step reads slices of the values sorted once.
    """
    K = check_count(K, "K")
    if len(c) == 0:
        raise ValueError(f"channel {c.id} is empty")
    x = np.sort(c.values(feature))
    n_distinct = 1 + np.count_nonzero(x[1:] != x[:-1])
    if n_distinct < K:
        warnings.warn(
            f"channel {c.id}: only {n_distinct} distinct values; "
            f"reducing K from {K} to {n_distinct}",
            stacklevel=2,
        )
        K = n_distinct
    means, bounds = _kmeans_1d(x, K)
    stds = [max(float(x[lo:hi].std()), STD_FLOOR_W) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return ApplianceStateModel(name=c.id, means=means, stds=stds)


def learn_building_states(b: Building, feature: Measurement, K: int) -> tuple:
    """The states of every appliance, in name order, each named by its
    building key: the one clustering pass both trainers start from."""
    if not b.appliances:
        raise ValueError(f"building {b.id} has no appliance channels")
    out = []
    for name in sorted(b.appliances):
        out.append(replace(learn_states(b.appliances[name], K, feature), name=name))
    return tuple(out)


def assign_states(values: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Hard-assign each value to the nearest state mean (ties to the lower state)."""
    cuts = 0.5 * (means[:-1] + means[1:])
    return np.searchsorted(cuts, values, side="left")


def learn_hmm(
    c: Channel, base: ApplianceStateModel, feature: Measurement = POWER_ACTIVE
) -> ApplianceHMM:
    """Smoothed chain parameters on top of the learnt states ``base``.

    pi and the transition rows use add-one (Laplace) smoothing over hard
    state assignments, keeping Viterbi well-defined on unseen transitions.
    pi counts every sample; the transitions count only the consecutive pairs
    that :func:`~nilmbench.data.gap_breaks` does not mark as a gap.
    """
    k = base.K
    states = assign_states(c.values(feature), base.means)
    counts = np.bincount(states, minlength=k).astype(np.float64)
    pi = (counts + 1.0) / (counts.sum() + k)
    breaks = gap_breaks(c)
    pairs = states[:-1] * k + states[1:]
    # Count every pair, then take back the few that straddle a gap.
    moves = np.bincount(pairs, minlength=k * k) - np.bincount(pairs[breaks], minlength=k * k)
    trans = moves.reshape(k, k) + 1.0
    A = trans / trans.sum(axis=1, keepdims=True)
    return ApplianceHMM(base=base, pi=pi, A=A)


def train_co(b: Building, states: tuple, feature: Measurement = POWER_ACTIVE) -> COModel:
    """A combinatorial-optimisation model: the learnt states themselves."""
    return COModel(appliances=states)


def train_fhmm(b: Building, states: tuple, feature: Measurement = POWER_ACTIVE) -> FHMMModel:
    """Per-appliance HMMs on the learnt states plus the aggregate observation noise.

    noise_variance is the variance of (mains - sum of appliance powers) over
    the training window, floored at 25 W^2 by :class:`FHMMModel`.
    """
    entries = tuple(learn_hmm(b.appliances[s.name], s, feature) for s in states)
    agg = mains_total(b, feature)
    check_aligned(b)
    residual = agg.values(feature).copy()
    for c in b.appliances.values():
        residual -= c.values(feature)
    return FHMMModel(appliances=entries, noise_variance=float(residual.var()))
