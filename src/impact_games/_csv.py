"""CSV files of the package: one writer, floats to 12 significant digits."""

from __future__ import annotations

import csv

import numpy as np


def write_csv(path, header: list, rows) -> None:
    """CSV with floats written to 12 significant digits, ints and strings as they are.

    The rows go to one ``writerows`` call, each formatted as it is written.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [f"{value:.12g}" if isinstance(value, float) else value for value in row]
            for row in rows
        )


def write_strategies_csv(path, grid_points: np.ndarray, strategies: np.ndarray) -> None:
    """One row per trading time, one ``asset{i}_agent{j}`` column per pair (1-based)."""
    n_assets, n_agents, _ = strategies.shape
    pairs = [(i, j) for i in range(n_assets) for j in range(n_agents)]
    write_csv(
        path,
        ["time"] + [f"asset{i + 1}_agent{j + 1}" for i, j in pairs],
        ([t] + [strategies[i, j, k] for i, j in pairs] for k, t in enumerate(grid_points)),
    )

