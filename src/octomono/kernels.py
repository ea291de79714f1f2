"""Reproducing kernels on the unit ball, the strip, and the half-space.

Conventions
-----------
All strip and half-space kernels are built from the combined argument
``u = z + conj(w)``.  With the strip ``0 < Re < d`` this puts the
singular lattice of the step ``2d`` sums exactly on the walls, makes the
boundary kernels Hermitian (``conj(S(z, w)) = S(w, z)``) and ties the
volume kernels to the boundary ones through an exact x0-derivative:
``B = -2 * d/dx0 S`` on the half-space, term by term on the strip.

Unit-ball kernels use ``u = 1 - conj(z) * w``; the boundary kernel is
``u / |u|^8`` and the volume kernel ``(6 * (1 - |z|^2 |w|^2) + 2u) * u / |u|^10``.

Closed-form kernels (ball, half-space) return plain octonions and
raise only on singular arguments; the reproduction integrals need them
on the closures of their domains, so no interior check is applied.
Each scalar kernel is row 0 of its batched form: the ball kernels call
``*_ball_values`` on a ``(1, 8)`` row, the half-space kernels the
Cauchy kernel ``q0`` and its x0-derivative at ``u``, and the strip
kernels, after their domain checks, ``*_strip_values``, returning a
:class:`KernelEval` with the truncation tail bound.  The strip
``*_values`` helpers take a batch of combined arguments ``u`` (n, 8)
straight to the lattice-sum engine of :mod:`octomono.trig_series` at
step ``2d``: the Szego kernel is the alternating sum, the Bergman
kernel ``-2`` times the derivative sum, and one tail bound covers every
row.  They apply no interior checks, only the pole guard; the Monte
Carlo layer uses them, including at exterior evaluation points where
the reproduction integral must vanish instead of reproducing.  The
other ``*_values`` helpers are the batched closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import Octonion, PointLike, as_coords, mul, mul_many
from .errors import DomainError, SingularityError
from .regularity import FiniteDiffConfig, cauchy_kernel, central_difference, dq0_dx0, q0_many
from .trig_series import (
    PeriodizedSumSpec,
    TruncationPolicy,
    periodized_deriv_sum,
    periodized_sum,
)

# Combined arguments this close (in Re) to the singular walls are refused.
WALL_GUARD = 1e-9

# 1 as a coordinate row: 1 - p keeps +0.0 where p has a zero, as Octonion(1) - p does
_ONE = np.eye(8)[0]


@dataclass(frozen=True)
class StripDomain:
    """The strip 0 < Re(z) < d."""

    d: float

    def __post_init__(self) -> None:
        if not 0.0 < self.d < math.inf:
            raise DomainError(f"strip width must be positive and finite, got {self.d}")

    def contains(self, z: PointLike) -> bool:
        return 0.0 < float(as_coords(z)[..., 0]) < self.d


@dataclass(frozen=True)
class KernelEval:
    value: Octonion
    tail_bound: float


def _as_oct(z: PointLike) -> Octonion:
    arr = as_coords(z)
    if arr.shape != (8,):
        raise DomainError(f"expected a single point of shape (8,), got {arr.shape}")
    return Octonion(*arr)


def _check_ball(z: Octonion, name: str) -> None:
    if z.norm_sq() >= 1.0:
        raise DomainError(f"{name} must lie in the open unit ball, |{name}| = {z.norm():.6g}")


def _combined(z: Octonion, w: Octonion) -> Octonion:
    return z + w.conjugate()


def _half_space_argument(z: PointLike, w: PointLike) -> Octonion:
    """u = z + conj(w) for z and w in the half-space Re > 0."""
    zo, wo = _as_oct(z), _as_oct(w)
    for p, name in ((zo, "z"), (wo, "w")):
        if p.real <= 0.0:
            raise DomainError(f"{name} must have positive real part, Re = {p.real:.6g}")
    return _combined(zo, wo)


def _strip_argument(
    z: PointLike, w: PointLike, domain: StripDomain
) -> tuple[Octonion, Octonion, Octonion]:
    """z, w and u = z + conj(w) for interior z and w, with u off the singular walls."""
    zo, wo = _as_oct(z), _as_oct(w)
    for p, name in ((zo, "z"), (wo, "w")):
        if not domain.contains(p):
            raise DomainError(
                f"{name} must lie in the open strip 0 < Re < {domain.d}, Re = {p.real:.6g}"
            )
    u = _combined(zo, wo)
    if u.real < WALL_GUARD or u.real > 2.0 * domain.d - WALL_GUARD:
        raise SingularityError(
            f"combined argument Re = {u.real:.3e} is within {WALL_GUARD} of a singular wall"
        )
    return zo, wo, u


# ---------------------------------------------------------------------------
# Unit ball


def szego_unit_ball(z: PointLike, w: PointLike) -> Octonion:
    """Boundary kernel (1 - conj(z) w) / |1 - conj(z) w|^8."""
    return Octonion(*szego_ball_values(_as_oct(z), _as_oct(w).to_array()[None])[0])


def bergman_unit_ball(z: PointLike, w: PointLike) -> Octonion:
    """Volume kernel (6 (1 - |z|^2 |w|^2) + 2u) u / |u|^10, u = 1 - conj(z) w."""
    return Octonion(*bergman_ball_values(_as_oct(z), _as_oct(w).to_array()[None])[0])


def bergman_unit_ball_potential_residual(
    z: PointLike, w: PointLike, fd: FiniteDiffConfig = FiniteDiffConfig()
) -> float:
    """Check that conj(B(z, w)) conj(z) is a w-gradient of a real potential.

    The candidate potential is p(w) = (1 - |z|^2 |w|^2) / |1 - w conj(z)|^8
    and the comparison side applies the conjugated Cauchy-Riemann operator
    d/dw0 - sum_i ei d/dwi to it by central differences.
    """
    zo, wo = _as_oct(z), _as_oct(w)
    _check_ball(zo, "z")
    _check_ball(wo, "w")
    b = bergman_unit_ball(zo, wo)
    lhs = mul(b.conjugate(), zo.conjugate())

    zn2 = zo.norm_sq()

    def potential(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        u = -mul_many(pts, np.array(zo.conjugate().coords))
        u[..., 0] += 1.0
        n2 = np.einsum("...i,...i->...", u, u)
        w2 = np.einsum("...i,...i->...", pts, pts)
        return (1.0 - zn2 * w2) / n2**4

    grad = central_difference(potential, wo.to_array(), np.eye(8), fd.h)
    rhs = Octonion(grad[0], *(-grad[1:]))
    return (lhs - rhs).norm()


# ---------------------------------------------------------------------------
# Half-space Re > 0


def szego_half_space(z: PointLike, w: PointLike) -> Octonion:
    """Boundary kernel q0(z + conj(w)) on the half-space Re > 0."""
    return cauchy_kernel(_half_space_argument(z, w))


def bergman_half_space(z: PointLike, w: PointLike) -> Octonion:
    """Volume kernel -2 d/dx0 q0 at z + conj(w)."""
    return dq0_dx0(_half_space_argument(z, w)) * -2.0


# ---------------------------------------------------------------------------
# Strip 0 < Re < d


def szego_strip(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
) -> KernelEval:
    """Boundary kernel: alternating step 2d sum of q0 at u = z + conj(w).

    Row 0 of :func:`szego_strip_values`.  Since q0 is homogeneous of
    degree -7, the sum equals the paper's closed form, the rescaled
    octonionic cosecant (pi/2d)^7 csc((pi/2d) u).
    """
    u = _strip_argument(z, w, domain)[2].to_array()[None]
    rows, tail_bound = szego_strip_values(u, domain.d, policy)
    return KernelEval(Octonion(*rows[0]), tail_bound)


def bergman_strip(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
) -> KernelEval:
    """Volume kernel: -2 times the step 2d lattice sum of d/dx0 q0 at u.

    Row 0 of :func:`bergman_strip_values`; by the same homogeneity it is
    -2 (pi/2d)^8 times the step pi derivative sum at (pi/2d) u.
    """
    u = _strip_argument(z, w, domain)[2].to_array()[None]
    rows, tail_bound = bergman_strip_values(u, domain.d, policy)
    return KernelEval(Octonion(*rows[0]), tail_bound)


def bergman_strip_half_step_variant(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
) -> Octonion:
    """(-2/128) times the step-d derivative lattice sum at u = z + conj(w).

    A naive argument-doubling reading of the closed form gives this
    denser lattice in place of :func:`bergman_strip`; its distance from
    the kernel shows the mismatch rather than hiding it.  Raises
    :class:`SingularityError` where this lattice has a pole, including
    points where the kernel is regular.
    """
    u = _strip_argument(z, w, domain)[2]
    return periodized_deriv_sum(u, PeriodizedSumSpec(domain.d), policy).value * (-2.0 / 128.0)


def strip_relation_residual(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
    method: str = "analytic",
    fd: FiniteDiffConfig = FiniteDiffConfig(),
) -> float:
    """|B(z/2, w/2) - B((z+d)/2, (w+d)/2) + 512 d/dx0 S(z, w)|.

    Halving maps the strip into itself, so both volume kernel terms stay
    admissible whenever z and w are interior.  ``method='analytic'``
    differentiates the boundary series term by term;  ``method='fd'``
    uses a central difference of the boundary kernel in the first
    argument's real coordinate.
    """
    zo, wo, u = _strip_argument(z, w, domain)

    lhs = (
        bergman_strip(zo * 0.5, wo * 0.5, domain, policy).value
        - bergman_strip((zo + domain.d) * 0.5, (wo + domain.d) * 0.5, domain, policy).value
    )
    if method == "analytic":
        ds = periodized_deriv_sum(
            u, PeriodizedSumSpec(2.0 * domain.d, alternating=True), policy
        )
        rhs = ds.value * -512.0
    elif method == "fd":
        h = fd.h
        plus = szego_strip(zo + h, wo, domain, policy).value
        minus = szego_strip(zo - h, wo, domain, policy).value
        rhs = (plus - minus) * (-512.0 / (2.0 * h))
    else:
        raise ValueError(f"method must be 'analytic' or 'fd', got {method!r}")
    return (lhs - rhs).norm()


# ---------------------------------------------------------------------------
# Batch evaluation on combined arguments (used by the Monte Carlo layer)


def szego_strip_values(
    u: np.ndarray, d: float, policy: TruncationPolicy = TruncationPolicy()
) -> tuple[np.ndarray, float]:
    """Alternating step 2d kernel sum on combined arguments u (n, 8).

    Returns (values, tail_bound).  No interior checks; only the pole
    guard is enforced, so exterior combined arguments are allowed.
    """
    res = periodized_sum(u, PeriodizedSumSpec(2.0 * d, alternating=True), policy)
    return res.value, res.tail_bound


def bergman_strip_values(
    u: np.ndarray, d: float, policy: TruncationPolicy = TruncationPolicy()
) -> tuple[np.ndarray, float]:
    """Volume kernel -2 sum_n d/dx0 q0(u + 2dn) on combined arguments u."""
    res = periodized_deriv_sum(u, PeriodizedSumSpec(2.0 * d), policy)
    return res.value * -2.0, 2.0 * res.tail_bound


def szego_half_space_values(u: np.ndarray) -> np.ndarray:
    return q0_many(u)


def bergman_half_space_values(u: np.ndarray) -> np.ndarray:
    from .regularity import dq0_dx0_many

    return -2.0 * dq0_dx0_many(u)


def _ball_argument(z: Octonion, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """u = 1 - conj(z) w (n, 8) and |u|^2 (n,), refusing a singular row."""
    u = mul_many(np.array(z.conjugate().coords), np.asarray(w, dtype=np.float64))
    np.subtract(_ONE, u, out=u)  # in place, so no second (n, 8) array is live
    n2 = np.einsum("ij,ij->i", u, u)
    if np.any(n2 < 1e-24):
        raise SingularityError(
            f"1 - conj(z) w is singular, |u| = {math.sqrt(float(n2.min())):.3e}"
        )
    return u, n2


def szego_ball_values(z: Octonion, w: np.ndarray) -> np.ndarray:
    """Boundary kernel rows S(z, w_k) for fixed z and sample points w (n, 8)."""
    u, n2 = _ball_argument(z, w)
    u /= (n2**4)[:, None]
    return u


def bergman_ball_values(z: Octonion, w: np.ndarray) -> np.ndarray:
    """Volume kernel rows B(z, w_k) for fixed z and sample points w (n, 8)."""
    w = np.asarray(w, dtype=np.float64)
    u, n2 = _ball_argument(z, w)
    w2 = np.einsum("ij,ij->i", w, w)
    bracket = 2.0 * u
    bracket[:, 0] += 6.0 * (1.0 - z.norm_sq() * w2)
    rows = mul_many(bracket, u)
    rows /= (n2**5)[:, None]
    return rows
