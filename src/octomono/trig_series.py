"""Octonionic trigonometric functions as periodized Cauchy-kernel sums.

Every series here is the lattice sum ``sum_{k in Z} s^k K(u + step*k*e0)``
with ``s = -1`` (alternating, cosecant-type) or ``s = 1``, and ``K`` the
Cauchy kernel ``q0`` (order 0) or its x0-derivative (order 1, used by
the strip volume kernels).  One engine, :func:`_lattice_sum`, evaluates
it on an ``(n, 8)`` batch in the radial form ``t = u0 + step*k``,
``r^2 = t^2 + |Im u|^2``, with one real and one imaginary accumulator
per row; a point is a batch of one.  Each row adds its terms in the
order ``k = -N..N`` and then, if the sum has one, its two end-correction
terms, at ``u + h*e0`` and then ``u - h*e0``.

Tail table per (order, alternating), with ``s`` the step,
``h = s*(N + 1/2)`` and ``rho = h - max|Re u|``:

==============  ====================================  ==========================
sum             terms                                 bound on the remainder
==============  ====================================  ==========================
order 0, plain  ``k = -N..N``                         ``(1/(3s)) (s*N -
                                                      max|u|)^-6``
order 1, alt.   ``k = -N..N``                         ``(18/(7s)) (s*N -
                                                      max|u|)^-7``
order 0, alt.   ``k = -N..N`` and                     ``2 (63 s^3 rho^-10
                ``(-1)^(N+1) (q0(u+h) + q0(u-h))/2``  + (7/2) s^2 rho^-9)``
order 1, plain  ``k = -N..N`` and                     ``2 (21 s^2 rho^-10
                ``(q0(u-h) - q0(u+h)) / s``           + (7/3) s rho^-9)``
==============  ====================================  ==========================

``N`` is the least count that brings the bound within the policy
tolerance for the batch's largest ``|u|`` (first two rows, ``_TAIL_LAW``)
or ``|Re u|`` (last two, ``_END_LAW``), so the one tail bound returned
holds for every row.  The first two rows bound each dropped term by its
modulus.  The last two, used by the strip kernels and csc/sec, need
about half the terms at the default tolerance, and their count does not
grow with ``|Im u|``.

Derivation of the end-corrected rows.  On the complex slice through
``u``, ``v = t + iy`` with ``y = |Im u|``, the kernel is
``q0 = v^-4 vbar^-3``.  ``d/dt`` acts on ``v`` and ``vbar`` alike, so
Leibniz' rule and the Vandermonde identity for rising factorials give
``|d^n/dt^n q0| <= (7)_n |v|^-(7+n) <= (7)_n |t|^-(7+n)``, that is 56
for ``n = 2`` and 504 for ``n = 3``.  Every dropped term and every cell
below lies at ``|t| >= rho`` on its side of the lattice.

- Order 1, ``g = d/dt q0``: a dropped term ``g(t_k)`` is the midpoint
  rule for ``(1/s) int g`` over the cell ``[t_k - s/2, t_k + s/2]``, in
  error by at most ``(s^2/24) max|g''| <= 21 s^2 |t|^-10`` on the cell.
  The cells past ``t + h`` integrate to ``-q0(u + h)/s`` and those before
  ``t - h`` to ``q0(u - h)/s``.  With
  ``sum_j (rho + j*s)^-10 <= rho^-10 + rho^-9/(9s)`` the cell errors add
  up to ``21 s^2 rho^-10 + (7/3) s rho^-9`` per side.
- Alternating order 0, ``g = q0``, ``a = s/2``: write
  ``g(t_k) = (g(t_k - a) + g(t_k + a))/2 - e_k``.  Across the
  alternating signs the half-sums telescope to ``(-1)^(N+1) g(t +- h)/2``
  per side.  The rest, ``sum (-1)^k e_k``, is taken in pairs
  ``e_k - e_(k+1)``: weights ``1/2, -1, 1, -1/2`` at
  ``t_k - a, t_k, t_k + 2a, t_k + 3a``.  They vanish on quadratics, and
  their Peano kernel for ``g'''`` keeps one sign with integral ``a^3``,
  so a pair is at most ``(s^3/8) max|g'''| <= 63 s^3 |t|^-10``.  Pairs
  step by ``2s``: ``sum_j (rho + 2js)^-10 <= rho^-10 + rho^-9/(18s)``
  gives ``63 s^3 rho^-10 + (7/2) s^2 rho^-9`` per side.

On the real axis ``|d^n/dt^n q0|`` equals its bound, and the ``rho^-9``
term of each per-side bound is that side's leading remainder itself, so
neither ``rho^-9`` constant can be lowered.

Normalization: ``cot(z) = sum_n q0(z + pi*n*e0)`` and
``csc(z) = sum_n (-1)^n q0(z + pi*n*e0)``; the shifted companions are
``tan(z) = -cot(z + pi/2)`` and ``sec(z) = csc(z + pi/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .algebra import PointLike, as_coords, like
from .errors import DomainError, PolicyError, SingularityError

# Distance from a lattice pole below which evaluation is refused.
POLE_GUARD = 1e-12

# (num, den, p) per kernel order for a sum without an end correction: the
# remainder is at most num / (den * step) * (step*N - max|u|)^-p.
_TAIL_LAW = ((1.0, 3.0, 6), (18.0, 7.0, 7))

# (a, b, p) per end-corrected (order, alternating): the remainder is at most
# 2 * (a * step^p * rho^-10 + b * step^(p-1) * rho^-9), see the module docstring.
_END_LAW = {(0, True): (63.0, 3.5, 3), (1, False): (21.0, 7.0 / 3.0, 2)}

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
    """Values, one tail bound valid for every row, and terms per row.

    ``terms`` counts the ``2N + 1`` lattice terms, plus the two
    evaluations at ``u +- h*e0`` in a sum with an end correction.
    """

    value: PointLike
    tail_bound: float
    terms: int


def _check_budget(n_side: int, policy: TruncationPolicy) -> None:
    if n_side > policy.max_terms:
        raise PolicyError(
            f"periodized sum needs {n_side} one-sided terms, "
            f"policy allows {policy.max_terms}"
        )


def _end_corrected_count(
    step: float, max_re: float, law: tuple[float, float, int], policy: TruncationPolicy
) -> tuple[int, float]:
    """Least one-sided count N whose end-corrected bound is within tail_tol, and that bound."""
    a, b, power = law
    c10 = 2.0 * a * step**power
    c9 = 2.0 * b * step ** (power - 1)
    tol = policy.tail_tol
    # below rho_min one of the two terms alone exceeds tol
    rho_min = max((c10 / tol) ** 0.1, (c9 / tol) ** (1.0 / 9.0))

    def bound(n: int) -> float:
        rho = step * (n + 0.5) - max_re
        if rho <= 0.0 or rho < rho_min:
            return math.inf
        return c10 * rho**-10 + c9 * rho**-9

    n_side = max(0, math.ceil((rho_min + max_re) / step - 0.5))
    # checked before the search too, which steps one term at a time
    _check_budget(n_side, policy)
    while bound(n_side) > tol:
        n_side += 1
    _check_budget(n_side, policy)
    return n_side, bound(n_side)


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
    end_law = _END_LAW.get((order, alternating))
    if end_law is None:
        num, den, power = _TAIL_LAW[order]
        margin = (num / (den * step * policy.tail_tol)) ** (1.0 / power)
        n_side = int(math.floor((max_norm + margin) / step)) + 1
        _check_budget(n_side, policy)
        tail = num / (den * step) * (step * n_side - max_norm) ** -power
    else:
        max_re = float(np.max(np.abs(u0), initial=0.0))
        n_side, tail = _end_corrected_count(step, max_re, end_law, policy)

    shifts = step * np.arange(-n_side, n_side + 1, dtype=np.float64)
    if end_law is not None:
        # the end correction is q0 at u + h*e0 and u - h*e0, weighted by w,
        # evaluated as the last two rows of each block
        h = step * (n_side + 0.5)
        shifts = np.append(shifts, (h, -h))
        if order == 0:
            w = np.full((2, 1), 0.5 if n_side % 2 else -0.5)
        else:
            w = np.array([[-1.0], [1.0]]) / step
    shifts = shifts[:, None]
    # block rows holding odd k, whose terms flip sign in an alternating sum
    odd = slice((n_side + 1) % 2, 2 * n_side + 1, 2)
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
            if end_law is not None:
                re[-2:] *= w
                im[-2:] *= w
        else:
            if end_law is not None:
                # q0's -Im u part enters the +Im u accumulator negated
                ends = (t[-2:] / r8[-2:] * w, -1.0 / r8[-2:] * w)
            r10 = np.multiply(r8, r2, out=r2)
            im = 8.0 * t
            t *= im
            t /= r10
            re = np.divide(1.0, r8, out=r8)
            re -= t
            im /= r10
            if end_law is not None:
                re[-2:], im[-2:] = ends
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
    return out, tail, len(shifts)


def _periodized(
    zeta: PointLike, spec: PeriodizedSumSpec, order: int, policy: TruncationPolicy
) -> SumResult:
    zc = as_coords(zeta)
    values, tail, terms = _lattice_sum(
        zc.reshape(-1, 8), spec.step, spec.alternating, order, policy
    )
    return SumResult(like(zeta, values.reshape(zc.shape)), tail, terms)


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
    out = as_coords(z).copy()
    out[..., 0] += math.pi / 2.0
    return like(z, out)


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
    zc = as_coords(z)
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
    zc = as_coords(z)
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
