"""Price-path simulation under the Bachelier model with transient impact.

The unaffected price is an arithmetic random walk on a fine grid refining the
trading grid; the affected price adds the deterministic impact drift of the
aggregate order flow. Impact is strictly causal: the trade at time t_k moves
prices only after t_k.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._csv import write_csv
from ._linalg import ArgumentError, _finite
from .kernels import DecayKernel

GENERATOR_ID = "numpy-default_rng(PCG64)-standard_normal"

__all__ = ["PricePath", "simulate_price", "write_price_csv", "impact_drift"]


@dataclass(frozen=True)
class PricePath:
    """Simulated unaffected/affected paths and the impact drift.

    Arrays have one row per fine-grid time and one column per asset;
    ``affected = unaffected + drift`` holds at every time. ``generator``
    records the random source so runs can be reproduced elsewhere.
    """

    times: np.ndarray
    unaffected: np.ndarray
    affected: np.ndarray
    drift: np.ndarray
    seed: int
    generator: str = GENERATOR_ID


def _fine_grid(trading_times: np.ndarray, fine_steps: int, horizon: float) -> np.ndarray:
    """Each trading interval split into ``fine_steps`` equal parts, then extended to ``horizon``.

    The interior is ``np.linspace(left, right, fine_steps + 1)[1:]`` for every
    interval at once (the same expression, so the same floats). Past the
    session the mean fine step is kept; the point nearest the horizon is
    replaced by the horizon itself, so the grid ends exactly there.
    """
    if fine_steps < 1:
        raise ArgumentError("fine_steps", "fine_steps must be at least 1")
    if not (np.isfinite(horizon) and horizon >= trading_times[-1]):
        raise ArgumentError("horizon", "horizon must be finite and cover the whole trading session")
    left, right = trading_times[:-1, None], trading_times[1:, None]
    interior = np.arange(1, fine_steps + 1) * ((right - left) / fine_steps) + left
    interior[:, -1] = right[:, 0]
    fine = np.concatenate([trading_times[:1], interior.ravel()])
    end = trading_times[-1]
    if horizon > end:
        step = (end - trading_times[0]) / (len(trading_times) - 1) / fine_steps
        extra = np.arange(end + step, horizon + 0.5 * step, step)
        fine = np.concatenate([fine, extra[:-1], [horizon]])
    return fine


def _covariance_root(covariance: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(covariance)
    if lam.min() < -1e-10 * max(abs(lam).max(), 1.0):
        raise ValueError("covariance must be positive semidefinite")
    return vec * np.sqrt(np.clip(lam, 0.0, None))


@functools.lru_cache(maxsize=1)
def _drift_weights(times: bytes, points: bytes, kernel: DecayKernel) -> np.ndarray:
    """Kernel at every positive (fine time - trading time) lag, zero elsewhere.

    Only the last (fine grid, trading grid, kernel) is kept, so the paths of
    one game share one evaluation. The array is read-only, since repeated
    calls return the same one.
    """
    lag = np.frombuffer(times)[:, None] - np.frombuffer(points)[None, :]
    positive = lag > 0.0
    weights = np.zeros(lag.shape)
    weights[positive] = kernel(lag[positive])
    weights.flags.writeable = False
    return weights


def impact_drift(spec, strategies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Deterministic price displacement of the aggregate flow at given times.

    ``drift(t) = -sum over trades before t of kernel(t - t_k) times the
    cross-impact image of the aggregate impact volume at t_k``, where each
    agent's share volume is multiplied by its impact scale. Strictly
    before: the trade at t contributes nothing at t itself. The kernel
    weights are evaluated once per (times, trading grid, effective kernel);
    only the last such set is kept, read-only, so a repeated call is one
    matrix product. The returned array is new.
    """
    volume = spec.scales[:, None] * np.asarray(strategies, dtype=float)
    flow = spec.cross_impact @ volume.sum(axis=1)
    weights = _drift_weights(
        np.asarray(times, dtype=float).tobytes(), spec.grid.points.tobytes(), spec.effective_kernel
    )
    return -(weights @ flow.T)


def simulate_price(
    spec,
    strategies: np.ndarray,
    initial_prices,
    fine_steps: int = 10,
    horizon: Optional[float] = None,
    seed: int = 0,
) -> PricePath:
    """Simulate unaffected and affected price paths for one strategy profile.

    Parameters
    ----------
    spec : the game.
    strategies : (M, J, N+1) strategy array (typically an equilibrium).
    initial_prices : scalar or length-M vector of finite starting prices.
    fine_steps : sub-intervals per trading interval (the fine grid always
        contains every trading time by construction).
    horizon : final simulation time, at least the trading horizon; the grid
        is extended past the session with the mean fine step and its last
        time is ``horizon`` exactly.
    seed : nonnegative integer seed of the random generator; identical seeds
        give identical paths.

    The unaffected price has the spec's covariance rate, zero without one.
    Paths of one game differ only in their random draws: the drift comes from
    :func:`impact_drift`, whose kernel weights are evaluated on the first
    path and reused by the others.
    """
    strategies = np.asarray(strategies, dtype=float)
    n_assets = spec.n_assets
    if strategies.shape != (n_assets, spec.n_agents, spec.grid.n_points):
        raise ValueError("strategies do not match the spec dimensions")

    start = np.broadcast_to(np.asarray(initial_prices, dtype=float), (n_assets,))
    _finite("initial_prices", start)
    if horizon is None:
        horizon = spec.grid.horizon
    times = _fine_grid(spec.grid.points, int(fine_steps), float(horizon))

    if int(seed) != seed or seed < 0:
        raise ArgumentError("seed", f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((times.size - 1, n_assets))
    root = np.zeros((n_assets, n_assets))
    if spec.covariance is not None:
        root = _covariance_root(spec.covariance)
    increments = (draws @ root.T) * np.sqrt(np.diff(times))[:, None]
    unaffected = np.empty((times.size, n_assets))
    unaffected[0] = start
    np.cumsum(increments, axis=0, out=unaffected[1:])
    unaffected[1:] += start

    drift = impact_drift(spec, strategies, times)
    return PricePath(
        times=times,
        unaffected=unaffected,
        affected=unaffected + drift,
        drift=drift,
        seed=int(seed),
    )


def write_price_csv(path: PricePath, filename) -> None:
    """Write the path as CSV: time, then per-asset unaffected/affected/drift."""
    n_assets = path.unaffected.shape[1]
    header = ["time"]
    for name in ("unaffected", "affected", "drift"):
        header.extend(f"{name}_{i + 1}" for i in range(n_assets))
    columns = [path.times[:, None], path.unaffected, path.affected, path.drift]
    write_csv(filename, header, np.hstack(columns).tolist())
