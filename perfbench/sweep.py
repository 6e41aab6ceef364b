"""FHMM decode cost per step across product-state sizes S = 8 ... 16384.

Each size decodes a fixed-length aggregate drawn from a model of log2(S)
two-state appliances, so the per-step cost of the decoder is measured apart
from training, file I/O and evaluation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from nilmbench import disaggregate
from probe import SpeedProbe, at_nominal_speed
from nilmbench.data import POWER_ACTIVE, Channel
from nilmbench.training import ApplianceHMM, ApplianceStateModel, FHMMModel

STATE_SIZES = (8, 64, 512, 4096, 16384)
MIN_SECONDS = 0.25  # small S repeats the decode until this much time is measured
MAX_REPEATS = 25


def _model(on_powers: np.ndarray) -> FHMMModel:
    return FHMMModel(
        appliances=tuple(
            ApplianceHMM(
                base=ApplianceStateModel(f"load_{i:02d}", (0.0, p), (1.0, max(1.0, 0.01 * p))),
                pi=(0.7, 0.3),
                A=((0.97, 0.03), (0.06, 0.94)),
            )
            for i, p in enumerate(on_powers)
        ),
        noise_variance=900.0,
    )


def fhmm_step_sweep(seed: int, steps: int, probe: SpeedProbe) -> dict[str, float]:
    """Decode time per step at each S, rescaled to nominal CPU speed."""
    rng = np.random.default_rng([seed, 2])
    out: dict[str, float] = {}
    for S in STATE_SIZES:
        n = S.bit_length() - 1
        on_powers = np.sort(rng.choice(np.arange(40.0, 3000.0, 10.0), size=n, replace=False))
        y = (rng.random((steps, n)) < 0.3) @ on_powers + rng.normal(0.0, 30.0, steps)
        aggregate = Channel("mains_total", 60.0 * np.arange(steps), {POWER_ACTIVE: y}, 60.0)
        model = _model(on_powers)
        times: list[float] = []
        with probe.during() as speed:
            while not times or (sum(times) < MIN_SECONDS and len(times) < MAX_REPEATS):
                t0 = time.perf_counter()
                disaggregate.disaggregate_fhmm(model, aggregate)
                times.append(time.perf_counter() - t0)
        per_step = 1e6 * statistics.median(times) / steps
        out[f"disaggregate.fhmm_us_per_step.S{S}"] = at_nominal_speed(per_step, speed["mean_s"])
        # computed from the decoder's int32 (T, S) table, not measured
        out[f"disaggregate.fhmm_backpointer_bytes.S{S}"] = steps * S * 4
    return out
