"""Octonionic trigonometric functions as periodized Cauchy-kernel sums.

Every series here is the lattice sum ``sum_{k=-N..N} s^k K(u + step*k*e0)``
with ``s = -1`` (alternating, cosecant-type) or ``s = 1``, and ``K`` the
Cauchy kernel ``q0`` (order 0) or its x0-derivative (order 1, used by
the strip volume kernels).  One engine, :func:`_lattice_sum`, evaluates
it on an ``(n, 8)`` batch in the radial form ``t = u0 + step*k``,
``r^2 = t^2 + |Im u|^2``, with one real and one imaginary accumulator
per row; a point is a batch of one.  The tail table gives, per order,
``(num, den, p)`` with the one-sided tail past ``N`` terms at most
``num / (den * step) * (step*N - |u|)^-p``: ``(1/3, 6)`` for the degree
-7 kernel and ``(18/7, 7)`` for its degree -8 derivative.  ``N`` is the
least count that brings this below the policy tolerance at the batch's
largest norm, so the one tail bound returned holds for every row.  Each
row adds its terms in the order ``k = -N..N``.

Normalization: ``cot(z) = sum_n q0(z + pi*n*e0)`` and
``csc(z) = sum_n (-1)^n q0(z + pi*n*e0)``; the shifted companions are
``tan(z) = -cot(z + pi/2)`` and ``sec(z) = csc(z + pi/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .algebra import Octonion
from .errors import DomainError, PolicyError, SingularityError

PointLike = Union[Octonion, np.ndarray]

# Distance from a lattice pole below which evaluation is refused.
POLE_GUARD = 1e-12

# (num, den, p) per kernel order, see the module docstring.
_TAIL_LAW = ((1.0, 3.0, 6), (18.0, 7.0, 7))

# Batch rows evaluated together as one (terms, rows) block.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail tolerance and a hard cap on the one-sided term count."""

    tail_tol: float = 1e-12
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_tol < math.inf:
            raise PolicyError(f"tail_tol must be positive and finite, got {self.tail_tol}")
        if self.max_terms < 1:
            raise PolicyError(f"max_terms must be >= 1, got {self.max_terms}")


@dataclass(frozen=True)
class PeriodizedSumSpec:
    """Lattice step along e0 and whether terms alternate in sign."""

    step: float
    alternating: bool = False


@dataclass(frozen=True)
class SumResult:
    """Values, one tail bound valid for every row, and terms per row."""

    value: PointLike
    tail_bound: float
    terms: int


def _coords(z: PointLike) -> np.ndarray:
    """Coordinates of a point (8,) or a batch (n, 8)."""
    if isinstance(z, Octonion):
        return z.to_array()
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 8:
        raise ValueError(f"expected a point (8,) or a batch (n, 8), got {arr.shape}")
    return arr


def _wrap(value: np.ndarray, like: PointLike) -> PointLike:
    if isinstance(like, Octonion):
        return Octonion(*value)
    return value


def _lattice_sum(
    u: np.ndarray, step: float, alternating: bool, order: int, policy: TruncationPolicy
) -> tuple[np.ndarray, float, int]:
    """Lattice sum of ``q0`` (order 0) or ``d/dx0 q0`` (order 1) on rows of u (n, 8).

    Returns ``(values (n, 8), tail bound for every row, terms per row)``.
    Only the pole guard is enforced, so any finite argument off the
    lattice is accepted.
    """
    u0 = u[:, 0]
    uim = u[:, 1:]
    s2 = np.einsum("ij,ij->i", uim, uim)
    max_norm = math.sqrt(float(np.max(u0 * u0 + s2, initial=0.0)))
    if not math.isfinite(max_norm):
        raise DomainError("lattice sum argument is not finite")
    num, den, power = _TAIL_LAW[order]
    margin = (num / (den * step * policy.tail_tol)) ** (1.0 / power)
    n_side = int(math.floor((max_norm + margin) / step)) + 1
    if n_side > policy.max_terms:
        raise PolicyError(
            f"periodized sum needs {n_side} one-sided terms, "
            f"policy allows {policy.max_terms}"
        )
    tail = num / (den * step) * (step * n_side - max_norm) ** -power

    shifts = (step * np.arange(-n_side, n_side + 1, dtype=np.float64))[:, None]
    # block rows holding odd k, whose terms flip sign in an alternating sum
    odd = slice((n_side + 1) % 2, None, 2)
    n_rows = u0.size
    if n_rows % _BLOCK_ROWS == 1:
        # numpy sums a one-column block pairwise instead of in k order,
        # so a lone last row is evaluated next to a copy of itself
        u0 = np.append(u0, u0[-1])
        s2 = np.append(s2, s2[-1])
    acc_re = np.empty_like(u0)
    acc_im = np.empty_like(u0)
    for lo in range(0, n_rows, _BLOCK_ROWS):
        cols = slice(lo, lo + _BLOCK_ROWS)
        # in-place steps; each term is still rounded as in
        # t/r^8, 1/r^8 and 1/r^8 - 8t*t/r^10, 8t/r^10
        t = u0[cols] + shifts
        r2 = t * t
        r2 += s2[cols]
        if r2.min() < POLE_GUARD * POLE_GUARD:
            raise SingularityError(f"a lattice point lies within {POLE_GUARD} of a pole")
        r8 = r2 * r2
        r8 *= r8
        if order == 0:
            re = np.divide(t, r8, out=t)
            im = np.divide(1.0, r8, out=r8)
        else:
            r10 = np.multiply(r8, r2, out=r2)
            im = 8.0 * t
            t *= im
            t /= r10
            re = np.divide(1.0, r8, out=r8)
            re -= t
            im /= r10
        if alternating:
            re[odd] *= -1.0
            im[odd] *= -1.0
        re.sum(axis=0, out=acc_re[cols])
        im.sum(axis=0, out=acc_im[cols])

    out = np.empty_like(u)
    out[:, 0] = acc_re[:n_rows]
    # q0 = conj(u)/|u|^8 puts -Im u on the imaginary part; its
    # x0-derivative puts +Im u there
    out[:, 1:] = (-uim if order == 0 else uim) * acc_im[:n_rows, None]
    return out, tail, 2 * n_side + 1


def _periodized(
    zeta: PointLike, spec: PeriodizedSumSpec, order: int, policy: TruncationPolicy
) -> SumResult:
    zc = _coords(zeta)
    values, tail, terms = _lattice_sum(
        zc.reshape(-1, 8), spec.step, spec.alternating, order, policy
    )
    return SumResult(_wrap(values.reshape(zc.shape), zeta), tail, terms)


def periodized_sum(
    zeta: PointLike,
    spec: PeriodizedSumSpec,
    policy: TruncationPolicy = TruncationPolicy(),
) -> SumResult:
    """Truncated ``sum_n s^n q0(zeta + step*n*e0)`` with its tail bound."""
    return _periodized(zeta, spec, 0, policy)


def periodized_deriv_sum(
    zeta: PointLike,
    spec: PeriodizedSumSpec,
    policy: TruncationPolicy = TruncationPolicy(),
) -> SumResult:
    """Same lattice sum built from the x0-derivative of the kernel."""
    return _periodized(zeta, spec, 1, policy)


def cot(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    return periodized_sum(z, PeriodizedSumSpec(step=math.pi), policy)


def csc(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    return periodized_sum(z, PeriodizedSumSpec(step=math.pi, alternating=True), policy)


def _shift_half_pi(z: PointLike) -> PointLike:
    if isinstance(z, Octonion):
        return z + math.pi / 2.0
    out = np.array(z, dtype=np.float64, copy=True)
    out[..., 0] += math.pi / 2.0
    return out


def tan(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    res = cot(_shift_half_pi(z), policy)
    return SumResult(-res.value, res.tail_bound, res.terms)


def sec(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    return csc(_shift_half_pi(z), policy)


def duplication_residual(
    z: PointLike, policy: TruncationPolicy = TruncationPolicy()
) -> Union[float, np.ndarray]:
    """|128*cot(2z) - cot(z) - cot(z + pi/2)|, zero up to truncation.

    A float for a point, one residual per row for a batch (n, 8).
    """
    zc = _coords(z)
    lhs = 128.0 * cot(2.0 * zc, policy).value
    rhs = cot(zc, policy).value + cot(_shift_half_pi(zc), policy).value
    return np.linalg.norm(lhs - rhs, axis=-1)


class CombinedRelationResiduals(NamedTuple):
    """Residuals of two candidate closures of ``csc + tan - tan(z/2)/64``.

    Floats for a point, arrays with one entry per row for a batch.
    """

    against_duplication: Union[float, np.ndarray]
    against_two_cot: Union[float, np.ndarray]


def combined_relation_residuals(
    z: PointLike, policy: TruncationPolicy = TruncationPolicy()
) -> CombinedRelationResiduals:
    """Measure both candidate right-hand sides of the combined relation.

    ``against_duplication`` compares to ``128*cot(2z)`` and
    ``against_two_cot`` compares to ``2*cot(z) - 128*cot(2z)``.  Which
    one vanishes is a property of the function family, not an input to
    this routine; callers should measure rather than assume.
    """
    zc = _coords(z)
    combo = (
        csc(zc, policy).value
        + tan(zc, policy).value
        - tan(0.5 * zc, policy).value / 64.0
    )
    dup = 128.0 * cot(2.0 * zc, policy).value
    two_cot = 2.0 * cot(zc, policy).value - dup
    return CombinedRelationResiduals(
        against_duplication=np.linalg.norm(combo - dup, axis=-1),
        against_two_cot=np.linalg.norm(combo - two_cot, axis=-1),
    )
