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
Strip entry points validate domains and return a :class:`KernelEval`
carrying the truncation tail bound.  The strip ``*_values`` helpers take
a batch of combined arguments ``u`` (n, 8) straight to the lattice-sum
engine of :mod:`octomono.trig_series` at step ``2d``: the Szego kernel
is the alternating sum, the Bergman kernel ``-2`` times the derivative
sum, and one tail bound covers every row.  They apply no interior
checks, only the pole guard; the Monte Carlo layer uses them, including
at exterior evaluation points where the reproduction integral must
vanish instead of reproducing.  The other ``*_values`` helpers are the
batched closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import Octonion, mul, mul_many
from .errors import DomainError, SingularityError
from .regularity import FiniteDiffConfig, dq0_dx0, q0_many
from .trig_series import (
    PeriodizedSumSpec,
    TruncationPolicy,
    periodized_deriv_sum,
    periodized_sum,
)

PointLike = Union[Octonion, np.ndarray]

# Combined arguments this close (in Re) to the singular walls are refused.
WALL_GUARD = 1e-9


@dataclass(frozen=True)
class StripDomain:
    """The strip 0 < Re(z) < d."""

    d: float

    def __post_init__(self) -> None:
        if not self.d > 0.0:
            raise DomainError(f"strip width must be positive, got {self.d}")

    def contains(self, z: PointLike, margin: float = 0.0) -> bool:
        x0 = z.real if isinstance(z, Octonion) else float(np.asarray(z)[..., 0])
        return margin < x0 < self.d - margin


@dataclass(frozen=True)
class KernelEval:
    value: Octonion
    tail_bound: float
    method: str


def _as_oct(z: PointLike) -> Octonion:
    if isinstance(z, Octonion):
        return z
    arr = np.asarray(z, dtype=np.float64)
    if arr.shape != (8,):
        raise DomainError(f"expected a single point of shape (8,), got {arr.shape}")
    return Octonion(*arr)


def _check_ball(z: Octonion, name: str) -> None:
    if z.norm_sq() >= 1.0:
        raise DomainError(f"{name} must lie in the open unit ball, |{name}| = {z.norm():.6g}")


def _check_half_space(z: Octonion, name: str) -> None:
    if z.real <= 0.0:
        raise DomainError(f"{name} must have positive real part, Re = {z.real:.6g}")


def _check_strip(z: Octonion, domain: StripDomain, name: str) -> None:
    if not domain.contains(z):
        raise DomainError(
            f"{name} must lie in the open strip 0 < Re < {domain.d}, Re = {z.real:.6g}"
        )


def _combined(z: Octonion, w: Octonion) -> Octonion:
    return z + w.conjugate()


def _check_walls(u: Octonion, domain: StripDomain) -> None:
    if u.real < WALL_GUARD or u.real > 2.0 * domain.d - WALL_GUARD:
        raise SingularityError(
            f"combined argument Re = {u.real:.3e} is within {WALL_GUARD} of a singular wall"
        )


# ---------------------------------------------------------------------------
# Unit ball


def szego_unit_ball(z: PointLike, w: PointLike) -> Octonion:
    """Boundary kernel (1 - conj(z) w) / |1 - conj(z) w|^8."""
    zo, wo = _as_oct(z), _as_oct(w)
    u = Octonion(1.0) - mul(zo.conjugate(), wo)
    n2 = u.norm_sq()
    if n2 < 1e-24:
        raise SingularityError(f"1 - conj(z) w is singular, |u| = {math.sqrt(n2):.3e}")
    return u * (1.0 / n2**4)


def bergman_unit_ball(z: PointLike, w: PointLike) -> Octonion:
    """Volume kernel (6 (1 - |z|^2 |w|^2) + 2u) u / |u|^10, u = 1 - conj(z) w."""
    zo, wo = _as_oct(z), _as_oct(w)
    u = Octonion(1.0) - mul(zo.conjugate(), wo)
    n2 = u.norm_sq()
    if n2 < 1e-24:
        raise SingularityError(f"1 - conj(z) w is singular, |u| = {math.sqrt(n2):.3e}")
    bracket = u * 2.0 + 6.0 * (1.0 - zo.norm_sq() * wo.norm_sq())
    return mul(bracket, u) * (1.0 / n2**5)


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

    zc = zo.to_array()
    zn2 = zo.norm_sq()

    def potential(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        u = -mul_many(pts, np.array(zo.conjugate().coords))
        u[..., 0] += 1.0
        n2 = np.einsum("...i,...i->...", u, u)
        w2 = np.einsum("...i,...i->...", pts, pts)
        return (1.0 - zn2 * w2) / n2**4

    h = fd.h
    eye = np.eye(8)
    grad = (potential(wo.to_array() + h * eye) - potential(wo.to_array() - h * eye)) / (
        2.0 * h
    )
    rhs = Octonion(grad[0], *(-grad[1:]))
    return (lhs - rhs).norm()


# ---------------------------------------------------------------------------
# Half-space Re > 0


def szego_half_space(z: PointLike, w: PointLike) -> Octonion:
    """Boundary kernel q0(z + conj(w)) on the half-space Re > 0."""
    zo, wo = _as_oct(z), _as_oct(w)
    _check_half_space(zo, "z")
    _check_half_space(wo, "w")
    u = _combined(zo, wo)
    n2 = u.norm_sq()
    return u.conjugate() * (1.0 / n2**4)


def bergman_half_space(z: PointLike, w: PointLike) -> Octonion:
    """Volume kernel -2 d/dx0 q0 at z + conj(w)."""
    zo, wo = _as_oct(z), _as_oct(w)
    _check_half_space(zo, "z")
    _check_half_space(wo, "w")
    u = _combined(zo, wo)
    return dq0_dx0(u) * -2.0


# ---------------------------------------------------------------------------
# Strip 0 < Re < d


def szego_strip(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
    method: str = "series",
) -> KernelEval:
    """Boundary kernel: alternating step 2d sum of q0 at u = z + conj(w).

    ``method='series'`` sums the lattice directly and is authoritative;
    ``method='closed_form'`` routes through the rescaled octonionic csc,
    (pi/2d)^7 csc((pi/2d) u).
    """
    zo, wo = _as_oct(z), _as_oct(w)
    _check_strip(zo, domain, "z")
    _check_strip(wo, domain, "w")
    u = _combined(zo, wo)
    _check_walls(u, domain)
    if method == "series":
        res = periodized_sum(u, PeriodizedSumSpec(2.0 * domain.d, alternating=True), policy)
        return KernelEval(res.value, res.tail_bound, method)
    if method == "closed_form":
        s = math.pi / (2.0 * domain.d)
        res = periodized_sum(
            u * s, PeriodizedSumSpec(math.pi, alternating=True), policy
        )
        return KernelEval(res.value * s**7, s**7 * res.tail_bound, method)
    raise ValueError(f"method must be 'series' or 'closed_form', got {method!r}")


def bergman_strip(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
    method: str = "series",
) -> KernelEval:
    """Volume kernel: -2 times the step 2d lattice sum of d/dx0 q0 at u.

    ``method='closed_form'`` evaluates the same sum through the rescaled
    derivative series at argument (pi/2d) u.
    """
    zo, wo = _as_oct(z), _as_oct(w)
    _check_strip(zo, domain, "z")
    _check_strip(wo, domain, "w")
    u = _combined(zo, wo)
    _check_walls(u, domain)
    if method == "series":
        res = periodized_deriv_sum(u, PeriodizedSumSpec(2.0 * domain.d), policy)
        return KernelEval(res.value * -2.0, 2.0 * res.tail_bound, method)
    if method == "closed_form":
        s = math.pi / (2.0 * domain.d)
        res = periodized_deriv_sum(u * s, PeriodizedSumSpec(math.pi), policy)
        return KernelEval(res.value * (-2.0 * s**8), 2.0 * s**8 * res.tail_bound, method)
    raise ValueError(f"method must be 'series' or 'closed_form', got {method!r}")


def bergman_strip_closed_form_variants(
    z: PointLike,
    w: PointLike,
    domain: StripDomain,
    policy: TruncationPolicy = TruncationPolicy(),
) -> dict[str, float]:
    """Residuals of two rescaled routes against the direct series.

    ``rescaled`` is the faithful change of variables (step 2d); it must
    match.  ``half_step`` doubles the lattice density (step d), the
    result a naive argument-doubling derivation produces; its residual
    is reported so the mismatch is visible rather than silent.
    """
    zo, wo = _as_oct(z), _as_oct(w)
    series = bergman_strip(zo, wo, domain, policy, method="series").value
    rescaled = bergman_strip(zo, wo, domain, policy, method="closed_form").value
    u = _combined(zo, wo)
    half = periodized_deriv_sum(u, PeriodizedSumSpec(domain.d), policy).value * (
        -2.0 / 128.0
    )
    return {
        "rescaled": (rescaled - series).norm(),
        "half_step": (half - series).norm(),
    }


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
    zo, wo = _as_oct(z), _as_oct(w)
    _check_strip(zo, domain, "z")
    _check_strip(wo, domain, "w")
    u = _combined(zo, wo)
    _check_walls(u, domain)

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


def szego_ball_values(z: Octonion, w: np.ndarray) -> np.ndarray:
    """Boundary kernel rows S(z, w_k) for fixed z and sample points w (n, 8)."""
    w = np.asarray(w, dtype=np.float64)
    u = -mul_many(np.array(z.conjugate().coords), w)
    u[:, 0] += 1.0
    n2 = np.einsum("ij,ij->i", u, u)
    return u / (n2**4)[:, None]


def bergman_ball_values(z: Octonion, w: np.ndarray) -> np.ndarray:
    """Volume kernel rows B(z, w_k) for fixed z and sample points w (n, 8)."""
    w = np.asarray(w, dtype=np.float64)
    u = -mul_many(np.array(z.conjugate().coords), w)
    u[:, 0] += 1.0
    n2 = np.einsum("ij,ij->i", u, u)
    w2 = np.einsum("ij,ij->i", w, w)
    bracket = 2.0 * u
    bracket[:, 0] += 6.0 * (1.0 - z.norm_sq() * w2)
    return mul_many(bracket, u) / (n2**5)[:, None]
