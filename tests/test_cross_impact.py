import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from impact_games import (
    GameSpec,
    analyze_cross_impact,
    block_matrix,
    build_cross_impact,
    closed_form_equilibrium,
    explicit_matrix,
    exponential_kernel,
    make_equidistant_grid,
    one_factor_matrix,
    predicted_theta_star,
    price_covariance,
    rank_one_matrix,
    stationarity_residual,
)


def test_one_factor_definition():
    q = one_factor_matrix(3, 0.5)
    expected = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    assert np.array_equal(q, expected)


@given(
    loadings=hnp.arrays(
        float,
        st.integers(min_value=1, max_value=8),
        elements=st.floats(min_value=-0.99, max_value=0.99),
    )
)
def test_rank_one_has_unit_diagonal(loadings):
    q = rank_one_matrix(loadings)
    assert np.abs(np.diag(q) - 1.0).max() <= 1e-15
    assert np.array_equal(q, q.T)


def test_block_definition():
    q = block_matrix(sizes=[2, 2], intra=[0.6, 0.6], inter=0.1)
    expected = np.array(
        [
            [1.0, 0.6, 0.1, 0.1],
            [0.6, 1.0, 0.1, 0.1],
            [0.1, 0.1, 1.0, 0.6],
            [0.1, 0.1, 0.6, 1.0],
        ]
    )
    assert np.array_equal(q, expected)


@pytest.mark.parametrize(
    "make",
    [
        lambda: one_factor_matrix(3, 0.0),
        lambda: one_factor_matrix(3, 1.0),
        lambda: one_factor_matrix(0, 0.5),
        lambda: rank_one_matrix([0.5, 1.0]),
        lambda: rank_one_matrix([-1.2]),
        lambda: block_matrix([2, 2], [0.5, 0.5], 0.6),  # inter must stay below intra
        lambda: block_matrix([2], [0.5, 0.5], 0.1),
        lambda: block_matrix([2, 0], [0.5, 0.5], 0.1),
        lambda: build_cross_impact("explicit", matrix=[[1.0, 0.2], [0.4, 1.0]]),
        lambda: build_cross_impact("unknown_family"),
    ],
)
def test_constructor_bounds(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize(
    "make, argument, message",
    [
        (lambda: rank_one_matrix([]), "loadings", "loadings must be a nonempty vector"),
        (lambda: block_matrix([], [], 0.1), "sizes", "need at least one block"),
        (
            lambda: price_covariance(np.eye(3), np.eye(2)),
            "sigma",
            "explicit sigma must match the cross-impact shape",
        ),
    ],
    ids=["no loadings", "no blocks", "sigma of another shape"],
)
def test_an_empty_or_mis_shaped_argument_is_named(make, argument, message):
    with pytest.raises(ValueError) as raised:
        make()
    assert raised.value.argument == argument
    assert str(raised.value) == message


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "check",
    [
        explicit_matrix,
        analyze_cross_impact,
        lambda q: GameSpec(
            grid=make_equidistant_grid(3), kernel=exponential_kernel(), cross_impact=q, n_agents=2
        ),
        lambda q: predicted_theta_star(q, 1.0, 2),
    ],
    ids=["explicit_matrix", "analyze_cross_impact", "GameSpec", "predicted_theta_star"],
)
def test_non_finite_cross_impact_is_rejected(check, entry):
    # a NaN pair is symmetric to no comparison, so only the finiteness check sees it
    with pytest.raises(ValueError, match="cross_impact must be finite") as excinfo:
        check(np.array([[1.0, entry], [entry, 1.0]]))
    assert excinfo.value.argument == "cross_impact"


def test_build_cross_impact_dispatch():
    assert np.array_equal(build_cross_impact("identity", size=3), np.eye(3))
    assert np.array_equal(
        build_cross_impact("one_factor", n_assets=2, coupling=0.3), one_factor_matrix(2, 0.3)
    )


def test_two_asset_one_factor_spectrum():
    report = analyze_cross_impact(one_factor_matrix(2, 0.6))
    assert np.allclose(report.eigenvalues, [1.6, 0.4], atol=1e-12)
    top = report.eigenvectors[:, 0]
    assert abs(abs(top[0]) - abs(top[1])) <= 1e-12  # proportional to the all-ones vector
    assert report.top_eigenvalue == pytest.approx(1.6, abs=1e-12)


@pytest.mark.parametrize("n_assets, coupling", [(2, 0.6), (5, 0.3), (11, 0.9)])
def test_one_factor_full_spectrum(n_assets, coupling):
    report = analyze_cross_impact(one_factor_matrix(n_assets, coupling))
    expected = np.r_[1.0 - coupling + coupling * n_assets, np.full(n_assets - 1, 1.0 - coupling)]
    assert np.allclose(report.eigenvalues, expected, atol=1e-10)


def test_block_without_inter_coupling_has_union_spectrum():
    sizes, intra = [3, 2], [0.4, 0.7]
    report = analyze_cross_impact(block_matrix(sizes, intra, 0.0))
    expected = []
    for size, q in zip(sizes, intra):
        expected.append(1.0 - q + q * size)
        expected.extend([1.0 - q] * (size - 1))
    assert np.allclose(report.eigenvalues, sorted(expected, reverse=True), atol=1e-10)


def test_identity_commutes_with_any_covariance(rng):
    # a risk-averse game accepts every covariance when Q = I, and its closed
    # form rotates the one eigenspace until the covariance is diagonal there
    s = rng.normal(size=(4, 4))
    spec = GameSpec(
        grid=make_equidistant_grid(10, 1.0),
        kernel=exponential_kernel(),
        cross_impact=np.eye(4),
        inventories=rng.normal(size=(4, 2)),
        theta=0.2,
        gamma=3.0,
        covariance=s @ s.T,
    )
    strategies = closed_form_equilibrium(spec).strategies
    for agent in range(spec.n_agents):
        assert stationarity_residual(spec, strategies, agent) <= 1e-9


def test_orthonormal_eigenvectors_and_reconstruction(rng):
    mat = rng.normal(size=(6, 6))
    q = mat + mat.T
    report = analyze_cross_impact(q)
    vec = report.eigenvectors
    assert np.abs(vec.T @ vec - np.eye(6)).max() <= 1e-12
    rebuilt = vec @ np.diag(report.eigenvalues) @ vec.T
    assert np.abs(rebuilt - q).max() <= 1e-12 * np.abs(q).max()


@st.composite
def unit_diag_symmetric(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    entries = draw(
        hnp.arrays(float, (n, n), elements=st.floats(min_value=-0.9, max_value=0.9))
    )
    q = np.triu(entries, k=1)
    q = q + q.T + np.eye(n)
    return q


@given(q=unit_diag_symmetric())
def test_one_factor_is_the_least_extreme_unit_diagonal_matrix(q):
    # among unit-diagonal matrices with the same off-diagonal mass, the
    # uniform (one-factor) member minimizes the top eigenvalue
    report = analyze_cross_impact(q)
    assert report.top_eigenvalue >= report.one_factor_bound - 1e-9


def test_one_factor_attains_its_bound():
    q = one_factor_matrix(5, 0.3)
    report = analyze_cross_impact(q)
    assert report.top_eigenvalue == pytest.approx(report.one_factor_bound, rel=1e-12)
