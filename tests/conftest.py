import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from octomono.algebra import Octonion, PointLike, as_coords
from octomono.trig_series import (
    CombinedRelationResiduals,
    TruncationPolicy,
    combined_relation_gaps,
    cot,
    csc,
    duplication_gap,
    tan,
)

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def octonions(max_component: float = 10.0, min_norm: float = 0.0):
    """Strategy for octonions with bounded, well-scaled components."""
    coord = st.floats(
        min_value=-max_component,
        max_value=max_component,
        allow_nan=False,
        allow_infinity=False,
        width=64,
    )
    strat = st.tuples(*([coord] * 8)).map(lambda c: Octonion(*c))
    if min_norm > 0.0:
        strat = strat.filter(lambda o: o.norm() >= min_norm)
    return strat


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_octonions(rng: np.random.Generator, n: int) -> np.ndarray:
    """Coordinate array of n random octonions with log-uniform overall scale.

    Scales in [0.05, 2] keep identity residuals near machine precision
    while still exercising several orders of magnitude.
    """
    scale = np.exp(rng.uniform(np.log(0.05), np.log(2.0), size=n))
    coords = rng.uniform(-1.0, 1.0, size=(n, 8))
    return scale[:, None] * coords


def duplication_residual(
    z: PointLike, policy: TruncationPolicy = TruncationPolicy()
) -> float | np.ndarray:
    """|128*cot(2z) - cot(z) - cot(z + pi/2)|, zero up to truncation.

    A float for a point, one residual per row for a batch (n, 8).
    """
    zc = as_coords(z)
    return duplication_gap(cot(zc, policy), cot(2.0 * zc, policy), tan(zc, policy))


def combined_relation_residuals(
    z: PointLike, policy: TruncationPolicy = TruncationPolicy()
) -> CombinedRelationResiduals:
    """Measure both candidate right-hand sides of the combined relation.

    ``against_duplication`` compares to ``128*cot(2z)`` and
    ``against_two_cot`` compares to ``2*cot(z) - 128*cot(2z)``.  Which
    one vanishes is a property of the function family, not an input to
    this routine; callers should measure rather than assume.
    """
    zc = as_coords(z)
    return combined_relation_gaps(
        cot(zc, policy),
        cot(2.0 * zc, policy),
        tan(zc, policy),
        csc(zc, policy),
        tan(0.5 * zc, policy),
    )
