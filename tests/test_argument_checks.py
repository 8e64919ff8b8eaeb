"""One argument-check policy: a rejected count or number is an ArgumentError naming it.

The table holds counts and numbers that must be rejected where they enter.
The source scan keeps a plain ValueError or TypeError to the domain errors
of ``DOMAIN_ERRORS``.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import pytest

from impact_games import (
    GameSpec,
    block_matrix,
    build_cross_impact,
    exponential_kernel,
    make_equidistant_grid,
    one_factor_matrix,
    predicted_theta_star,
)
from impact_games._linalg import ArgumentError

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
    return GameSpec(
        grid=make_equidistant_grid(4),
        kernel=exponential_kernel(),
        cross_impact=np.eye(1),
        **kwargs,
    )


# (call, the argument its ArgumentError must name, the message)
INTEGER, POSITIVE = "must be an integer >= 1, got 2.5", "must be finite and positive, got"
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
    "identity size 2.5": (
        lambda: build_cross_impact("identity", size=2.5),
        "size",
        "must be an integer, got 2.5",
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
