"""Appliance model learning for the two benchmark disaggregators.

State learning is deterministic: 1-D k-means initialised at the
(2i+1)/(2K) quantiles of the sorted power values, run to convergence.
Markov-chain parameters come from hard assignment of each sample to its
nearest state mean, with add-one smoothing so no transition has probability
zero (full EM is deliberately out of scope).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .data import Building, Channel, Measurement, POWER_ACTIVE, is_aligned, mains_total

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


@dataclass(frozen=True)
class ApplianceHMM:
    """Per-appliance hidden Markov model with Gaussian emissions."""

    base: ApplianceStateModel
    pi: np.ndarray
    A: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=np.float64))
        object.__setattr__(self, "A", np.asarray(self.A, dtype=np.float64))
        K = self.base.K
        if self.pi.shape != (K,):
            raise ValueError(f"{self.name}: pi must have length {K}")
        if self.A.shape != (K, K):
            raise ValueError(f"{self.name}: A must be {K}x{K}")
        # Written as "all inside" rather than "any outside" so NaN fails too.
        if not (np.all((self.pi >= 0) & (self.pi <= 1)) and np.all((self.A >= 0) & (self.A <= 1))):
            raise ValueError(f"{self.name}: probabilities must lie in [0, 1]")
        if abs(self.pi.sum() - 1.0) > STOCHASTIC_TOL:
            raise ValueError(f"{self.name}: pi must sum to 1")
        if np.any(np.abs(self.A.sum(axis=1) - 1.0) > STOCHASTIC_TOL):
            raise ValueError(f"{self.name}: rows of A must sum to 1")

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
    appliances: tuple[ApplianceStateModel, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "appliances", tuple(self.appliances))
        _check_names(self.appliances)


@dataclass(frozen=True)
class FHMMModel:
    appliances: tuple[ApplianceHMM, ...]
    noise_variance: float = NOISE_VARIANCE_FLOOR_W2

    def __post_init__(self) -> None:
        object.__setattr__(self, "appliances", tuple(self.appliances))
        _check_names(self.appliances)
        if not np.isfinite(self.noise_variance):
            raise ValueError("noise_variance must be finite")
        if self.noise_variance < NOISE_VARIANCE_FLOOR_W2:
            object.__setattr__(self, "noise_variance", NOISE_VARIANCE_FLOOR_W2)


def _check_names(appliances) -> None:
    if not appliances:
        raise ValueError("model needs at least one appliance")
    names = [a.name for a in appliances]
    if len(set(names)) != len(names):
        raise ValueError("appliance names must be unique")


def _kmeans_1d(values: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 1-D k-means; returns ascending centroids and assignments."""
    x = np.sort(values)
    qs = (2 * np.arange(K) + 1) / (2 * K)
    centroids = np.unique(np.quantile(x, qs))
    if centroids.size < K:
        # Skewed data can collapse the quantile init; quantiles of the
        # unique values are strictly increasing, so K centroids survive.
        centroids = np.quantile(np.unique(x), qs)
    for _ in range(KMEANS_MAX_ITER):
        # Nearest-centroid boundaries; sorted data keeps clusters contiguous.
        cuts = 0.5 * (centroids[:-1] + centroids[1:])
        assign = np.searchsorted(cuts, x, side="right")
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
    assign = np.searchsorted(cuts, x, side="right")
    return centroids, assign


def learn_states(
    c: Channel, K: int = 2, feature: Measurement = POWER_ACTIVE
) -> ApplianceStateModel:
    """Cluster power values into K states; centroids become state means.

    When the channel has fewer distinct values than K, the state count is
    reduced with a warning.  Stds are within-cluster standard deviations,
    floored at 1 W.
    """
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
    means, assign = _kmeans_1d(values, K)
    x = np.sort(values)
    stds = np.empty(means.size)
    for k in range(means.size):
        members = x[assign == k]
        stds[k] = max(float(members.std()), STD_FLOOR_W)
    return ApplianceStateModel(name=c.id, means=means, stds=stds)


def assign_states(values: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Hard-assign each value to the nearest state mean (ties to the lower state)."""
    cuts = 0.5 * (means[:-1] + means[1:])
    return np.searchsorted(cuts, values, side="left")


def learn_hmm(
    c: Channel, K: int = 2, feature: Measurement = POWER_ACTIVE
) -> ApplianceHMM:
    """States from :func:`learn_states` plus smoothed chain parameters.

    pi and the transition rows use add-one (Laplace) smoothing over hard
    state assignments, keeping Viterbi well-defined on unseen transitions.
    """
    base = learn_states(c, K, feature)
    k = base.K
    states = assign_states(c.values(feature), base.means)
    counts = np.bincount(states, minlength=k).astype(np.float64)
    pi = (counts + 1.0) / (counts.sum() + k)
    trans = np.zeros((k, k), dtype=np.float64)
    if states.size >= 2:
        np.add.at(trans, (states[:-1], states[1:]), 1.0)
    trans += 1.0
    A = trans / trans.sum(axis=1, keepdims=True)
    return ApplianceHMM(base=base, pi=pi, A=A)


def _states_for(name: str, K: int | Mapping[str, int]) -> int:
    if isinstance(K, int):
        return K
    return int(K.get(name, 2))


def _learn_each(b: Building, feature: Measurement, K, learn) -> list:
    """``(name, learn(channel, K, feature))`` for every appliance, in name order."""
    if not b.appliances:
        raise ValueError(f"building {b.id} has no appliance channels")
    out = []
    for name in sorted(b.appliances):
        c = b.appliances[name]
        if not c.has(feature):
            raise ValueError(
                f"appliance {name!r} lacks feature {feature.column_name}"
            )
        out.append((name, learn(c, _states_for(name, K), feature)))
    return out


def train_co(
    b: Building,
    feature: Measurement = POWER_ACTIVE,
    K: int | Mapping[str, int] = 2,
) -> COModel:
    """Learn a combinatorial-optimisation model from sub-metered channels."""
    return COModel(
        appliances=tuple(
            replace(m, name=name) for name, m in _learn_each(b, feature, K, learn_states)
        )
    )


def train_fhmm(
    b: Building,
    feature: Measurement = POWER_ACTIVE,
    K: int | Mapping[str, int] = 2,
) -> FHMMModel:
    """Learn per-appliance HMMs plus the aggregate observation noise.

    noise_variance is the variance of (mains - sum of appliance powers) over
    the training window, floored at 25 W^2.
    """
    entries = tuple(
        replace(h, base=replace(h.base, name=name))
        for name, h in _learn_each(b, feature, K, learn_hmm)
    )
    agg = mains_total(b, feature)
    if not agg.has(feature):
        raise ValueError(f"mains lacks feature {feature.column_name}")
    if not is_aligned(b):
        raise ValueError(
            f"building {b.id} channels are not aligned; run intersect_with_mains first"
        )
    residual = agg.values(feature).copy()
    for c in b.appliances.values():
        residual -= c.values(feature)
    noise_variance = max(float(residual.var()), NOISE_VARIANCE_FLOOR_W2)
    return FHMMModel(appliances=entries, noise_variance=noise_variance)
