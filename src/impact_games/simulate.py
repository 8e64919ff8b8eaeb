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
from ._linalg import ArgumentError, _array, _integer, _number
from .costs import _check_strategies
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
    fine_steps = _integer("fine_steps", fine_steps, 1)
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


@functools.lru_cache(maxsize=1)
def _covariance_root(covariance: bytes, n_assets: int) -> np.ndarray:
    """Root ``R`` with ``R R^T`` the (M, M) covariance given by its bytes.

    Only the last covariance is kept, so the paths of one game share one
    ``eigh``; the array is read-only. A covariance that is not positive
    semidefinite raises on every call.
    """
    lam, vec = np.linalg.eigh(np.frombuffer(covariance).reshape(n_assets, n_assets))
    if lam.min() < -1e-10 * max(abs(lam).max(), 1.0):
        raise ValueError("covariance must be positive semidefinite")
    root = vec * np.sqrt(np.clip(lam, 0.0, None))
    root.flags.writeable = False
    return root


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


@functools.lru_cache(maxsize=1)
def _drift(times: bytes, points: bytes, kernel: DecayKernel, flow: bytes) -> np.ndarray:
    """Drift of the (M, N+1) aggregate flow given by its bytes, at the fine times.

    The weights come from :func:`_drift_weights`. Only the last (times,
    trading grid, kernel, flow) is kept, so the paths of one strategy profile
    form the matrix product once. The array is read-only, since repeated
    calls return the same one.
    """
    weights = _drift_weights(times, points, kernel)
    drift = -(weights @ np.frombuffer(flow).reshape(-1, weights.shape[1]).T)
    drift.flags.writeable = False
    return drift


def impact_drift(spec, strategies: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Deterministic price displacement of the aggregate flow at given times.

    ``drift(t) = -sum over trades before t of kernel(t - t_k) times the
    cross-impact image of the aggregate impact volume at t_k``, where each
    agent's share volume is multiplied by its impact scale. Strictly
    before: the trade at t contributes nothing at t itself. The kernel
    weights are evaluated once per (times, trading grid, effective kernel);
    only the last such set is kept, read-only. The drift itself is kept for
    the last such set and aggregate flow (:func:`_drift`), so the paths of one
    strategy profile form the matrix product once. The returned array is new.
    The strategies and ``times``, a vector, must be finite.
    """
    volume = spec.scales[:, None] * _check_strategies(spec, strategies)
    times = _array("times", times)
    if times.ndim != 1:
        raise ArgumentError("times", f"times must be a vector, got shape {times.shape}")
    flow = spec.cross_impact @ volume.sum(axis=1)
    drift = _drift(
        times.tobytes(),
        spec.grid.points.tobytes(),
        spec.effective_kernel,
        flow.tobytes(),
    )
    return drift.copy()


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
    strategies : finite (M, J, N+1) strategy array (typically an equilibrium).
    initial_prices : scalar or length-M vector of finite starting prices.
    fine_steps : whole number of sub-intervals per trading interval, at least
        1 (the fine grid always contains every trading time by construction).
    horizon : final simulation time, at least the trading horizon; the grid
        is extended past the session with the mean fine step and its last
        time is ``horizon`` exactly.
    seed : nonnegative integer seed of the random generator; identical seeds
        give identical paths.

    The unaffected price has the spec's covariance rate, zero without one.
    Paths of one game differ only in their random draws: the covariance root
    is kept for the last covariance, and the drift comes from
    :func:`impact_drift`, which evaluates the kernel weights and forms the
    drift on the first path and reuses both on the others.
    """
    n_assets = spec.n_assets
    start = _array("initial_prices", initial_prices, (n_assets,))
    horizon = spec.grid.horizon if horizon is None else _number("horizon", horizon)
    times = _fine_grid(spec.grid.points, fine_steps, horizon)

    rng = np.random.default_rng(_integer("seed", seed, 0))
    draws = rng.standard_normal((times.size - 1, n_assets))
    root = np.zeros((n_assets, n_assets))
    if spec.covariance is not None:
        root = _covariance_root(spec.covariance.tobytes(), n_assets)
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
