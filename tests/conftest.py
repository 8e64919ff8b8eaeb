import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# printed (fundamentalist, arbitrageur) costs of the two-asset venue-choice
# game; cells are (seller option, idle agent option), 0 = asset 1 only
VENUE_CHOICE_COSTS = {
    (0, 0): (0.4882, -0.0370),
    (0, 1): (0.4935, -0.0412),
    (1, 0): (0.4836, -0.0334),
    (1, 1): (0.4885, -0.0377),
}


def assert_matches_printed(computed, printed, decimals=4, rel=1e-3):
    """Compare against a value printed with a fixed number of decimals.

    The tolerance is the requested relative tolerance plus half a unit in the
    last printed decimal place, which is the irreducible rounding slack of the
    reference itself.
    """
    slack = rel * abs(printed) + 0.5 * 10.0 ** (-decimals)
    assert abs(computed - printed) <= slack, (
        f"{computed!r} differs from printed value {printed!r} by "
        f"{abs(computed - printed):.3e} (allowed {slack:.3e})"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
