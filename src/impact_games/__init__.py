"""Market impact games: equilibria, execution costs, and stability analysis.

A toolkit for multi-agent, multi-asset trading games with transient price
impact and quadratic transaction costs: one game spec and one ``solve``,
which takes the closed-form Nash equilibrium for identical agents and a
stacked linear solver for heterogeneous agents (fees, impact scales,
execution priority, tradable-asset masks), expected-cost and
mean-variance evaluation, critical-fee estimation with parameter sweeps, and
Bachelier price-path simulation.
"""

from ._linalg import NumericError, guarded_solve
from .costs import CostReport, cost_report, expected_cost, stationarity_residual, variance_and_mv
from .cross_impact import (
    SpectralReport,
    analyze_cross_impact,
    block_matrix,
    build_cross_impact,
    explicit_matrix,
    one_factor_matrix,
    price_covariance,
    rank_one_matrix,
)
from .equilibrium import (
    Equilibrium,
    FundamentalSolutions,
    GameSpec,
    aggregate_flow_is_zero,
    arbitrageur_is_idle,
    closed_form_equilibrium,
    fundamental_solutions,
    principal_fundamentals,
)
from .hetero import (
    KktSystem,
    PayoffTable,
    assemble_equilibrium_system,
    payoff_matrix,
    solve,
    solve_hetero_nash,
)
from .kernels import (
    DecayKernel,
    MatrixBundle,
    TimeGrid,
    build_matrices,
    exponential_kernel,
    make_equidistant_grid,
    power_law_kernel,
)
from .simulate import PricePath, impact_drift, simulate_price, write_price_csv
from .stability import (
    BracketError,
    OscillationFlags,
    StabilityReport,
    SweepBase,
    SweepRow,
    critical_theta,
    is_unstable_at,
    oscillation_flags,
    predicted_theta_star,
    stability_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "NumericError",
    "guarded_solve",
    "CostReport",
    "cost_report",
    "expected_cost",
    "variance_and_mv",
    "stationarity_residual",
    "SpectralReport",
    "analyze_cross_impact",
    "build_cross_impact",
    "one_factor_matrix",
    "rank_one_matrix",
    "block_matrix",
    "explicit_matrix",
    "price_covariance",
    "GameSpec",
    "Equilibrium",
    "FundamentalSolutions",
    "fundamental_solutions",
    "principal_fundamentals",
    "closed_form_equilibrium",
    "aggregate_flow_is_zero",
    "arbitrageur_is_idle",
    "solve",
    "KktSystem",
    "assemble_equilibrium_system",
    "solve_hetero_nash",
    "PayoffTable",
    "payoff_matrix",
    "TimeGrid",
    "DecayKernel",
    "MatrixBundle",
    "make_equidistant_grid",
    "exponential_kernel",
    "power_law_kernel",
    "build_matrices",
    "PricePath",
    "impact_drift",
    "simulate_price",
    "write_price_csv",
    "OscillationFlags",
    "oscillation_flags",
    "is_unstable_at",
    "predicted_theta_star",
    "BracketError",
    "StabilityReport",
    "critical_theta",
    "SweepBase",
    "SweepRow",
    "stability_sweep",
]
