"""One argument-check policy: a rejected count, number or array is an ArgumentError naming it.

The table holds counts, numbers and arrays that must be rejected where they
enter. One source scan keeps a plain ValueError or TypeError to the domain
errors of ``DOMAIN_ERRORS``; another keeps the conversion of a caller's array
to ``_linalg._array``, apart from the functions of ``OWN_CONVERSIONS``.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from impact_games import (
    GameSpec,
    SweepBase,
    TimeGrid,
    aggregate_flow_is_zero,
    arbitrageur_is_idle,
    block_matrix,
    build_cross_impact,
    build_matrices,
    critical_theta,
    expected_cost,
    explicit_matrix,
    exponential_kernel,
    fundamental_solutions,
    guarded_solve,
    impact_drift,
    make_equidistant_grid,
    one_factor_matrix,
    oscillation_flags,
    payoff_matrix,
    power_law_kernel,
    predicted_theta_star,
    price_covariance,
    rank_one_matrix,
    simulate_price,
    solve,
    stability_sweep,
)
from impact_games._linalg import ArgumentError, NumericError
from impact_games.equilibrium import principal_groups

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "impact_games"

# the functions that may raise a plain ValueError: each reports a domain
# error, arguments that passed their checks but not the computation
DOMAIN_ERRORS = {
    ("equilibrium", "_require_identical_agents"),
    ("equilibrium", "_principal_split"),
    ("hetero", "solve_hetero_nash"),
    ("kernels", "_validate_kernel_values"),
    ("cross_impact", "analyze_cross_impact"),
    ("simulate", "_covariance_root"),
}


def game(**kwargs):
    kwargs = {"cross_impact": np.eye(1), **kwargs}
    return GameSpec(grid=make_equidistant_grid(4), kernel=exponential_kernel(), **kwargs)


def bundle(n_steps):
    """Kernel bundle of the exponential kernel on an equidistant grid of ``n_steps``."""
    return build_matrices(make_equidistant_grid(n_steps), exponential_kernel())


# (call, the argument its ArgumentError must name, the message)
INTEGER, POSITIVE = "must be an integer >= 1, got 2.5", "must be finite and positive, got"
INDEX, NONNEGATIVE = "must be an integer >= 0, got", "must be finite and nonnegative, got"
NUMBERS, VECTOR = "must be numbers, got", "must be a vector, got shape"
# strategies of a one-asset, one-agent game on 4 steps, and its sampling times
STRATEGIES, TIMES = np.zeros((1, 1, 5)), np.linspace(0.0, 1.0, 6)
BAD_INPUTS = {
    "block_matrix sizes 2.5": (lambda: block_matrix([2.5, 2], [0.5, 0.6], 0.1), "sizes", INTEGER),
    "one_factor_matrix n_assets 2.5": (lambda: one_factor_matrix(2.5, 0.3), "n_assets", INTEGER),
    "make_equidistant_grid n_steps 2.5": (lambda: make_equidistant_grid(2.5), "n_steps", INTEGER),
    "make_equidistant_grid horizon inf": (
        lambda: make_equidistant_grid(10, np.inf),
        "horizon",
        f"{POSITIVE} inf",
    ),
    "GameSpec n_agents 2.5": (lambda: game(n_agents=2.5), "n_agents", INTEGER),
    "predicted_theta_star n_agents 2.5": (
        lambda: predicted_theta_star(np.eye(2), 1.0, 2.5),
        "n_agents",
        INTEGER,
    ),
    "exponential_kernel rate -1": (lambda: exponential_kernel(rate=-1), "rate", f"{POSITIVE} -1"),
    "DecayKernel.scaled 0": (lambda: exponential_kernel().scaled(0), "factor", f"{POSITIVE} 0"),
    # a kernel whose value at lag zero overflows, and a crowding factor that underflows
    "power_law_kernel offset 1e-300": (
        lambda: power_law_kernel(exponent=2, offset=1e-300),
        "offset",
        "1e-300 gives the non-finite value inf at lag zero",
    ),
    "GameSpec beta 2000": (
        lambda: game(n_agents=2, beta=2000),
        "beta",
        f"2000.0 leaves no kernel for 2 agents: factor {POSITIVE} 0.0",
    ),
    "identity size 2.5": (
        lambda: build_cross_impact("identity", size=2.5),
        "size",
        "must be an integer, got 2.5",
    ),
    # an array entry that is not a number, a shape that does not broadcast,
    # and a non-finite or mis-shaped array that would give an answer
    **{
        f"GameSpec {field} 'x'": (
            lambda field=field: game(n_agents=1, **{field: "x"}),
            field,
            f"{NUMBERS} 'x'",
        )
        for field in ("cross_impact", "inventories", "priority", "covariance")
    },
    "GameSpec theta 'x'": (lambda: game(n_agents=2, theta="x"), "theta", f"{NUMBERS} 'x'"),
    "GameSpec scales 'x'": (
        lambda: game(n_agents=2, scales="x"),
        "scales",
        "must be numbers that broadcast to shape (2,), got 'x'",
    ),
    "GameSpec 3 scales for 2 agents": (
        lambda: game(n_agents=2, scales=[1, 2, 3]),
        "scales",
        "must be numbers that broadcast to shape (2,), got [1, 2, 3]",
    ),
    "TimeGrid 'x'": (lambda: TimeGrid(["x", 1]), "points", f"{NUMBERS} ['x', 1]"),
    "rank_one_matrix 'x'": (lambda: rank_one_matrix(["x"]), "loadings", f"{NUMBERS} ['x']"),
    "rank_one_matrix nan": (lambda: rank_one_matrix([np.nan, 0.5]), "loadings", "must be finite"),
    "explicit_matrix 'x'": (lambda: explicit_matrix([["x"]]), "cross_impact", f"{NUMBERS} [['x']]"),
    "price_covariance 'x'": (
        lambda: price_covariance([["x"]], np.eye(1)),
        "sigma",
        f"{NUMBERS} [['x']]",
    ),
    "price_covariance nan": (
        lambda: price_covariance([[np.nan]], np.eye(1)),
        "sigma",
        "must be finite",
    ),
    "simulate_price initial_prices 'x'": (
        lambda: simulate_price(game(n_agents=1), STRATEGIES, initial_prices="x"),
        "initial_prices",
        "must be numbers that broadcast to shape (1,), got 'x'",
    ),
    "simulate_price 2 prices for 1 asset": (
        lambda: simulate_price(game(n_agents=1), STRATEGIES, initial_prices=[1, 2]),
        "initial_prices",
        "must be numbers that broadcast to shape (1,), got [1, 2]",
    ),
    "expected_cost strategies 'x'": (
        lambda: expected_cost(game(n_agents=1), [[["x"] * 5]], 0),
        "strategies",
        f"{NUMBERS} [[['x', 'x', 'x', 'x', 'x']]]",
    ),
    "impact_drift times 'x'": (
        lambda: impact_drift(game(n_agents=1), STRATEGIES, ["x"]),
        "times",
        f"{NUMBERS} ['x']",
    ),
    "impact_drift strategies (1, 1, 4)": (
        lambda: impact_drift(game(n_agents=1), np.zeros((1, 1, 4)), TIMES),
        "strategies",
        "have shape (1, 1, 4), expected (1, 1, 5)",
    ),
    "impact_drift times nan": (
        lambda: impact_drift(game(n_agents=1), STRATEGIES, [0.0, np.nan, 1.0]),
        "times",
        "must be finite",
    ),
    "simulate_price horizon 'x'": (
        lambda: simulate_price(game(n_agents=1), STRATEGIES, 0.0, horizon="x"),
        "horizon",
        "must be finite and positive, got 'x'",
    ),
    "GameSpec ragged mask": (
        lambda: game(n_agents=2, mask=[[1], [1, 0]]),
        "mask",
        "must be one array, got [[1], [1, 0]]",
    ),
    "payoff_matrix ragged mask option": (
        lambda: payoff_matrix(game(n_agents=1), [[[[1], [1, 0]]]]),
        "mask_options",
        "must be one array, got [[1], [1, 0]]",
    ),
    "impact_drift times (2, 3)": (
        lambda: impact_drift(game(n_agents=1), STRATEGIES, TIMES.reshape(2, 3)),
        "times",
        "must be a vector, got shape (2, 3)",
    ),
    # a profile's verdict needs a vector of numbers
    "oscillation_flags u (2, 2)": (
        lambda: oscillation_flags([[1, 1], [-1, -1]]),
        "u",
        f"{VECTOR} (2, 2)",
    ),
    "oscillation_flags u scalar": (lambda: oscillation_flags(1.0), "u", f"{VECTOR} ()"),
    "oscillation_flags u 'x'": (lambda: oscillation_flags(["x"]), "u", f"{NUMBERS} ['x']"),
    "oscillation_flags u None": (lambda: oscillation_flags(None), "u", f"{VECTOR} ()"),
    "guarded_solve matrix 'x'": (
        lambda: guarded_solve([["x"]], np.ones(1)),
        "matrix",
        f"{NUMBERS} [['x']]",
    ),
    "guarded_solve matrix (2, 3)": (
        lambda: guarded_solve(np.ones((2, 3)), np.ones(2)),
        "matrix",
        "must be square, got shape (2, 3)",
    ),
    "guarded_solve rhs 'x'": (
        lambda: guarded_solve(np.eye(2), ["x", 1]),
        "rhs",
        f"{NUMBERS} ['x', 1]",
    ),
    "guarded_solve 3 rhs rows for 2": (
        lambda: guarded_solve(np.eye(2), np.ones(3)),
        "rhs",
        "must have 2 rows, got shape (3,)",
    ),
    "aggregate_flow_is_zero tol nan": (
        lambda: aggregate_flow_is_zero(game(n_agents=2), tol=np.nan),
        "tol",
        f"{NONNEGATIVE} nan",
    ),
    "aggregate_flow_is_zero tol -1": (
        lambda: aggregate_flow_is_zero(game(n_agents=2), tol=-1),
        "tol",
        f"{NONNEGATIVE} -1",
    ),
    "aggregate_flow_is_zero tol 'x'": (
        lambda: aggregate_flow_is_zero(game(n_agents=2), tol="x"),
        "tol",
        f"{NONNEGATIVE} 'x'",
    ),
    **{
        f"arbitrageur_is_idle agent {agent!r}": (
            lambda agent=agent: arbitrageur_is_idle(solve(game(n_agents=2)), agent),
            "agent",
            f"must be in range(2), got {agent!r}" if agent == 5 else f"{INDEX} {agent!r}",
        )
        for agent in (-1, 5, 1.5)
    },
    # a bool is no count, number or array of numbers, though Python computes with it
    "make_equidistant_grid n_steps True": (
        lambda: make_equidistant_grid(True),
        "n_steps",
        "must be an integer >= 1, got True",
    ),
    "critical_theta tol True": (
        lambda: critical_theta(game(n_agents=2), tol=True),
        "tol",
        f"{POSITIVE} True",
    ),
    "predicted_theta_star beta np.True_": (
        lambda: predicted_theta_star(np.eye(2), 1.0, 2, beta=np.True_),
        "beta",
        f"{NONNEGATIVE} {np.True_!r}",
    ),
    "GameSpec theta True": (lambda: game(n_agents=2, theta=True), "theta", f"{NUMBERS} True"),
    "oscillation_flags u bools": (
        lambda: oscillation_flags([True, False]),
        "u",
        f"{NUMBERS} [True, False]",
    ),
    "arbitrageur_is_idle tol nan": (
        lambda: arbitrageur_is_idle(solve(game(n_agents=2)), 0, tol=np.nan),
        "tol",
        f"{NONNEGATIVE} nan",
    ),
    # a negative fee, a variance rate that is no rate, and a bundle of another grid
    "fundamental_solutions theta -1": (
        lambda: fundamental_solutions(game(n_agents=2), bundle(4), -1.0, 0.5),
        "theta",
        f"{NONNEGATIVE} -1.0",
    ),
    "fundamental_solutions theta 'x'": (
        lambda: fundamental_solutions(game(n_agents=2), bundle(4), "x", 0.0),
        "theta",
        f"{NONNEGATIVE} 'x'",
    ),
    **{
        f"fundamental_solutions var_rate {rate!r}": (
            lambda rate=rate: fundamental_solutions(game(n_agents=2), bundle(4), 0.0, rate),
            "var_rate",
            f"{NONNEGATIVE} {rate!r}",
        )
        for rate in (-100.0, np.nan)
    },
    "fundamental_solutions bundle of 6 steps": (
        lambda: fundamental_solutions(game(n_agents=2), bundle(6), 0.0, 0.0),
        "bundle",
        "must be built on 5 grid points, got shape (7, 7)",
    ),
    **{
        f"stability_sweep point {point!r}": (
            lambda point=point: stability_sweep([point], SweepBase(kernel=exponential_kernel())),
            "points",
            f"must be mappings, got {point!r}",
        )
        for point in (1, None)
    },
    "principal_groups covariance 'x'": (
        lambda: principal_groups(np.eye(2), "x"),
        "covariance",
        f"{NUMBERS} 'x'",
    ),
    "principal_groups 3x3 covariance for 2x2 Q": (
        lambda: principal_groups(np.eye(2), np.eye(3)),
        "covariance",
        "must match the cross-impact shape",
    ),
    **{
        f"payoff_matrix mask_options {options!r}": (
            lambda options=options: payoff_matrix(game(n_agents=2), options),
            "mask_options",
            f"must be lists of masks, got {options!r}",
        )
        for options in (5, None, [5, 5])
    },
    "predicted_theta_star theorem n_agents 'x'": (
        lambda: predicted_theta_star(np.eye(1), 1.0, "x", mode="theorem"),
        "n_agents",
        "must be an integer >= 1, got 'x'",
    ),
}


@pytest.mark.parametrize("call, argument, message", BAD_INPUTS.values(), ids=list(BAD_INPUTS))
def test_a_bad_count_or_number_raises_an_argument_error_naming_it(call, argument, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic warns
        with pytest.raises(ArgumentError) as raised:
            call()
    assert raised.value.argument == argument
    assert str(raised.value) == f"{argument} {message}"


def test_a_non_finite_right_hand_side_is_a_numeric_error():
    # like a non-finite matrix entry or profile entry: the arguments are
    # well formed, and the solve has no answer
    with pytest.raises(NumericError, match="right-hand side has non-finite entries"):
        guarded_solve(np.eye(2), [np.nan, 1.0])


def raising_functions(module: Path):
    """(function, exception, line) of each ``raise ValueError`` or ``raise TypeError``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                found.append((function, exc.id, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(module.read_text()), None)
    return found


def test_plain_value_and_type_errors_are_only_domain_errors():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    raising = [
        (module, function, name, line)
        for module in modules
        for function, name, line in raising_functions(module)
    ]
    stray = [
        f"{module.name}:{line} {function} raises {name}"
        for module, function, name, line in raising
        if (module.stem, function) not in DOMAIN_ERRORS
    ]
    assert stray == []
    # an entry whose function no longer raises would widen the allow-list unseen
    assert DOMAIN_ERRORS <= {(module.stem, function) for module, function, _, _ in raising}


# the functions that may convert or broadcast an array outside ``_linalg``,
# each for its reason; every caller's array goes through ``_linalg._array``
OWN_CONVERSIONS = {
    ("kernels", "DecayKernel.__call__"): "evaluates lags the package computes, not an argument",
    ("equilibrium", "GameSpec.thetas"): "broadcasts a fee the spec has already checked",
}


def array_conversions(module: Path):
    """(qualified function, call, line) of each ``np.asarray`` or ``np.array`` to
    float and each ``np.broadcast_to``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            to_float = any(
                keyword.arg == "dtype" and ast.unparse(keyword.value) in ("float", "np.float64")
                for keyword in node.keywords
            )
            if node.func.attr == "broadcast_to" or (
                node.func.attr in ("asarray", "array") and to_float
            ):
                found.append((scope, f"np.{node.func.attr}", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(module.read_text()), None)
    return found


def test_arrays_are_converted_only_by_the_array_check():
    modules = [module for module in sorted(PACKAGE.glob("*.py")) if module.stem != "_linalg"]
    assert len(modules) > 5
    converting = [
        (module, function, call, line)
        for module in modules
        for function, call, line in array_conversions(module)
    ]
    stray = [
        f"{module.name}:{line} {function} calls {call}"
        for module, function, call, line in converting
        if (module.stem, function) not in OWN_CONVERSIONS
    ]
    assert stray == []
    # an entry whose function no longer converts would widen the allow-list unseen
    assert set(OWN_CONVERSIONS) <= {(module.stem, function) for module, function, _, _ in converting}
