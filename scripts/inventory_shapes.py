#!/usr/bin/env python3
"""How the split of a fixed total inventory shapes equilibrium schedules.

Four sellers share a total inventory of 4 on a 16-point grid with a stiff
quadratic fee. The splits range from perfectly equal to one dominant seller
against three tiny ones; the smallest seller drifts toward an
arbitrageur-like schedule (front-loaded buys-to-sells) as its share shrinks.

Writes one strategies CSV per split and prints a small summary table.
"""

import argparse
from pathlib import Path

import numpy as np

from impact_games import GameSpec, closed_form_equilibrium, exponential_kernel, make_equidistant_grid
from impact_games._csv import write_strategies_csv

SPLITS = {
    "equal": [1.0, 1.0, 1.0, 1.0],
    "one_small": [0.5, 7 / 6, 7 / 6, 7 / 6],
    "one_tiny": [0.1, 1.3, 1.3, 1.3],
    "one_dominant": [3.7, 0.1, 0.1, 0.1],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out/inventory_shapes", help="output directory")
    parser.add_argument("--steps", type=int, default=15)
    parser.add_argument("--theta", type=float, default=10.0)
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = make_equidistant_grid(args.steps, 1.0)
    kernel = exponential_kernel()

    print(
        f"{'split':>14} {'small seller':>13} {'front-load':>11} {'last order':>11} "
        f"{'big front-load':>15}"
    )
    for name, split in SPLITS.items():
        spec = GameSpec(
            grid=grid,
            kernel=kernel,
            cross_impact=np.eye(1),
            inventories=np.array([split]),
            theta=args.theta,
        )
        eq = closed_form_equilibrium(spec)
        write_strategies_csv(out / f"{name}.csv", grid.points, eq.strategies)
        smallest, largest = int(np.argmin(split)), int(np.argmax(split))
        small = eq.strategies[0, smallest, :]
        big = eq.strategies[0, largest, :]
        print(
            f"{name:>14} {split[smallest]:>13.3f} {small[0] / split[smallest]:>11.3f} "
            f"{small[-1]:>11.4f} {big[0] / split[largest]:>15.3f}"
        )
    print(f"\nschedules written to {out}/")


if __name__ == "__main__":
    main()
