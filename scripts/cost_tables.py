#!/usr/bin/env python3
"""Reproduce the headline expected-cost tables in one run.

Prints four tables: the two-asset venue-choice payoff matrix, the
execution-priority cost table, the per-agent fee comparison, and the
per-agent impact-scale comparison.
"""

import numpy as np

from impact_games import (
    GameSpec,
    expected_cost,
    exponential_kernel,
    make_equidistant_grid,
    one_factor_matrix,
    payoff_matrix,
    solve,
)

KERNEL = exponential_kernel()


def two_seller_costs(n_steps, thetas, scales=None, priority=0.5):
    spec = GameSpec(
        grid=make_equidistant_grid(n_steps, 1.0),
        kernel=KERNEL,
        cross_impact=np.eye(1),
        inventories=np.array([[1.0, 1.0]]),
        theta=np.asarray(thetas, dtype=float),
        scales=scales,
        priority=priority,
    )
    eq = solve(spec)
    return tuple(expected_cost(spec, eq.strategies, j) for j in range(2))


def main():
    print("venue choice: seller (1,0) vs idle agent, coupling 0.6, fee 1.5, 26 points")
    spec = GameSpec(
        grid=make_equidistant_grid(25, 1.0),
        kernel=KERNEL,
        cross_impact=one_factor_matrix(2, 0.6),
        inventories=np.array([[1.0, 0.0], [0.0, 0.0]]),
        theta=1.5,
    )
    options = [np.array([True, False]), np.array([True, True])]
    table = payoff_matrix(spec, [options, options])
    labels = ["asset 1 only", "both assets "]
    for i, row_label in enumerate(labels):
        cells = []
        for j in range(2):
            mark = "*" if table.equilibrium[i, j] else " "
            cells.append(f"({table.costs[i, j, 0]: .4f}, {table.costs[i, j, 1]: .4f}){mark}")
        print(f"  seller {row_label}:  " + "   ".join(cells))
    print("  (columns: idle agent trades asset 1 only / both; * marks the equilibrium)\n")

    print("execution priority: two unit sellers, fee 1.0, 16 points")
    print(f"  {'p(fast first)':>14} {'slow':>8} {'fast':>8}")
    for speed in (0.5, 2 / 3, 0.75, 0.8, 1.0):
        priority = np.array([[0.0, speed], [1.0 - speed, 0.0]])
        slow, fast = two_seller_costs(15, [1.0, 1.0], priority=priority)
        print(f"  {speed:>14.4f} {slow:>8.4f} {fast:>8.4f}")
    print()

    print("per-agent fees: two unit sellers, 16 points")
    for thetas in ([1.0, 1.0], [1.0, 0.5]):
        costs = two_seller_costs(15, thetas)
        print(f"  fees {thetas}: costs ({costs[0]:.4f}, {costs[1]:.4f})")
    print()

    print("per-agent impact scales: two unit sellers, fee 1.5, 26 points")
    for scales in ([1.0, 1.0], [1.0, 0.5]):
        costs = two_seller_costs(25, [1.5, 1.5], scales=np.asarray(scales))
        print(f"  scales {scales}: costs ({costs[0]:.4f}, {costs[1]:.4f})")


if __name__ == "__main__":
    main()
