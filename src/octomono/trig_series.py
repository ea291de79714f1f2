"""Octonionic trigonometric functions as periodized Cauchy-kernel sums.

Every series here is the lattice sum ``sum_{k in Z} s^k K(u + step*k*e0)``
with ``s = -1`` (alternating, cosecant-type) or ``s = 1``, and ``K`` the
Cauchy kernel ``q0`` (order 0) or its x0-derivative (order 1, used by
the strip volume kernels).  One engine, :func:`_lattice_sum`, evaluates
it on an ``(n, 8)`` batch, a point being a batch of one, by one of two
routes per row:

- the direct route (:func:`_direct`) in the radial form
  ``t = u0 + step*k``, ``r^2 = t^2 + |Im u|^2``, with one real and one
  imaginary accumulator per row.  Each row adds its terms in the order
  ``k = -N..N`` and then, if the sum has one, its two end-correction
  terms, at ``u + h*e0`` and then ``u - h*e0``;
- the closed form (:func:`_closed_form`): on the complex slice through
  ``u`` three of the four sums are finite combinations of the complex
  csc or cot and their first four derivatives, with no truncation at
  all.

=========================  ==================================================
sum                        route
=========================  ==================================================
order 1, alternating       direct, every row
order 0, plain (cot, tan)  closed form on each row with ``|Im u| > 0``, a
order 0, alternating       normal ``e^(-kappa |Im u|)`` and a rounding bound
(strip Szego, csc, sec)    within the batch's tail bound; direct, with the
order 1, plain             sum's end correction if it has one, on every
(strip Bergman)            other row
=========================  ==================================================

The batch's ``N`` and its one tail bound come from the tables below
whichever route its rows take, so a direct row's bits do not depend on
the other rows' routes, and the tail bound also bounds the rounding of
every closed-form row.  There is no option: the rule picks the route.

Tail table of the direct route per (order, alternating), with ``s`` the
step, ``h = s*(N + 1/2)`` and ``rho = h - max|Re u|``:

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
holds for every row; a count above :data:`MAX_TERMS` is refused with
:class:`PolicyError`.  The first two rows bound each dropped term by its
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

The closed form.  On the slice, with ``v = t + iy``, ``c = 2iy`` and
``vbar = v - c``, the kernel and its ``t``-derivative split into partial
fractions (the alternating derivative sum is the one sum left without):

``q0 = -10/(c^6 v) - 6/(c^5 v^2) - 3/(c^4 v^3) - 1/(c^3 v^4)
+ 10/(c^6 vbar) - 4/(c^5 vbar^2) + 1/(c^4 vbar^3)``

``d/dt q0 = 10/(c^6 v^2) + 12/(c^5 v^3) + 9/(c^4 v^4) + 4/(c^3 v^5)
- 10/(c^6 vbar^2) + 8/(c^5 vbar^3) - 3/(c^4 vbar^4)``

Each power sums over the lattice in closed form,
``sum_k s^k (w + k*step)^-j = ((-1)^(j-1)/(j-1)!) kappa^j f^(j-1)(kappa w)``
with ``kappa = pi/step`` and ``f = csc`` (alternating) or ``cot``
(plain).  The plain ``j = 1`` sum converges only taken symmetrically,
``k = -N..N``, to ``kappa cot``, but the kernel's ``j = 1`` pair
``-10/(c^6 v) + 10/(c^6 vbar) = 10/(c^5 v vbar)`` is absolutely
convergent, so the symmetric truncation of the direct route converges
to it; the plain derivative sum has no ``j = 1`` term:

===  ==============================  ==============================
j    alternating sum / kappa^j       plain sum / kappa^j
===  ==============================  ==============================
1    ``csc``                         ``cot``
2    ``csc cot``                     ``csc^2``
3    ``csc (2 cot^2 + 1) / 2``       ``cot csc^2``
4    ``csc cot (6 cot^2 + 5) / 6``   ``csc^2 (3 csc^2 - 2) / 3``
5    --                              ``cot csc^2 (3 csc^2 - 1) / 3``
===  ==============================  ==============================

written in ``csc^2`` where that keeps relative accuracy as ``|Im u|``
grows (``cot' = -csc^2``, not ``1 - cot^2``).  The sums at ``vbar`` are
the conjugates of those at ``v``, so one ``h = e^(i kappa v)``, with
``|h| = e^(-kappa y) < 1``, gives everything:
``csc(kappa v) = -2ih/(1 - h^2)`` and ``cot(kappa v) = -i(1 + h^2)/(1 - h^2)``.
The complex result ``a + ib`` maps back to ``a + b Im u / y``.  The two
plain sums share ``x = h/(1 - h^2)``, ``g = (1 + h^2)/(1 - h^2)``,
``w = x^2``, ``v = g w`` and ``z = w (6w + 1)``: ``csc^2 = -4w``,
``cot csc^2 = 4iv`` and ``csc^2 (3 csc^2 - 2)/3 = 8z/3``, so with
``p = 1/(2y)`` the plain q0 sum is
``p^3 (8 kappa^2 p^2 Im w + 8 kappa^3 p Im v + (8/3) kappa^4 Im z)``
``- i p^3 (20 kappa p^3 Re g + 40 kappa^2 p^2 Re w + 16 kappa^3 p Re v
+ (8/3) kappa^4 Re z)``.

Rounding bound of the closed form.  With ``u`` the unit roundoff
``2^-53``, ``A = 1/|1 - h^2|``, ``a = 2|h|A = |csc|`` and
``b = (1 + |h|^2)A >= |cot|``, let ``M`` be the sum over the seven
partial-fraction terms of the modulus of each coefficient times its
lattice sum from the table, with ``csc`` and ``cot`` replaced by ``a``
and ``b`` and each bracket by the sum of its terms' moduli; ``M``
bounds the sum of the terms' moduli.  For the plain q0 sum that is
``M = kappa p^3 (20 p^3 b + a^2 (10 kappa p^2 + 4 kappa^2 p b +
kappa^3 (3a^2 + 2)/3))``, ``p = 1/(2y)``: the ``j = 1`` pair counts
``2 * 10 p^6 kappa b``.  To first order in ``u``:

- the computed ``h`` is ``h (1 + eta)``, ``|eta| <= u (21 + 3 kappa|t| +
  7 kappa y)``: ``kappa`` is within ``1.5u`` of ``pi/step`` and ``y``,
  the root of the rounded sum of seven squares, within ``4.5u``, so the
  exponent ``kappa y`` is off by at most ``7u kappa y`` and the phase
  ``kappa t`` by ``3u kappa |t|``; ``exp`` is within 4 ulp (``8u``),
  ``cos + i sin`` within ``12u`` of its unit modulus, and the product
  within ``u``;
- ``h d/dh = -i d/dz`` takes ``csc`` to at most ``a b`` and ``cot`` to
  ``|csc|^2 = a^2``, so a monomial ``csc^i cot^k`` moves by at most
  ``(i b + k a^2/b) |eta|`` of its majorant ``a^i b^k``: ``sigma = b +
  3a^2/b`` for the alternating terms (``i = 1``, ``k <= 3``) and ``4b +
  a^2/b`` for the plain ones of both orders (``i <= 4``, ``k <= 1``;
  the plain q0 sum's ``cot`` moves by ``a^2/b``).  This is the
  ``1/|1 - h^2|`` amplification near the real axis;
- from the computed ``h``: ``1/(1 - h^2)`` is within ``(5 + 3A)u``, so
  ``h/(1 - h^2)`` within ``(8 + 3A)u`` of ``a/2`` and
  ``(1 + h^2)/(1 - h^2)`` within ``(12 + 3A)u`` of ``b`` (complex
  products within ``3u``); a term multiplies at most five such factors
  (four in the plain q0 sum) with five more roundings, ``55u + 15uA``;
  its power of ``kappa`` adds at most ``11u``, its ``(2y)^-6`` at most
  ``33u``, the evaluation in powers of ``1/(2y)`` ``11u`` and the
  division by ``y`` and product with ``Im u`` ``6.5u``: ``117u + 15uA``
  in all.

So a row's error is at most ``u M (sigma (21 + 3 kappa|t| + 7 kappa y)
+ 120 + 15A)``.  ``eta`` stays far below 1 at any ``|Re u|`` the term
budget admits, so the first-order terms hold.

Normalization: ``cot(z) = sum_n q0(z + pi*n*e0)`` and
``csc(z) = sum_n (-1)^n q0(z + pi*n*e0)``; the shifted companions are
``tan(z) = -cot(z + pi/2)`` and ``sec(z) = csc(z + pi/2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .algebra import PointLike, as_coords, divide_by_power, like, norm_many, norm_sq_many
from .errors import DomainError, PolicyError, SingularityError

# Distance from a lattice pole below which evaluation is refused.
POLE_GUARD = 1e-12

# (num, den, p) per kernel order for a sum without an end correction: the
# remainder is at most num / (den * step) * (step*N - max|u|)^-p.
_TAIL_LAW = ((1.0, 3.0, 6), (18.0, 7.0, 7))

# (a, b, p) per end-corrected (order, alternating): the remainder is at most
# 2 * (a * step^p * rho^-10 + b * step^(p-1) * rho^-9), see the module docstring.
_END_LAW = {(0, True): (63.0, 3.5, 3), (1, False): (21.0, 7.0 / 3.0, 2)}

# Hard cap on the one-sided term count N of a lattice sum.
MAX_TERMS = 1_000_000

# Batch rows evaluated together as one (terms, rows) block.
_BLOCK_ROWS = 512

# Batch rows evaluated together in the closed form.
_CLOSED_ROWS = 8192

# Unit roundoff 2^-53 and the least normal float64.
_UNIT = 0.5 * np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail tolerance of a lattice sum."""

    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_tol < math.inf:
            raise PolicyError(f"tail_tol must be positive and finite, got {self.tail_tol}")


@dataclass(frozen=True)
class SumResult:
    """Values, one tail bound valid for every row, and terms per row.

    ``terms`` counts the direct route's ``2N + 1`` lattice terms, plus
    the two evaluations at ``u +- h*e0`` in a sum with an end correction,
    also where rows take the closed form.
    """

    value: PointLike
    tail_bound: float
    terms: int


def _check_budget(count: float) -> int:
    """The one-sided term count N as an int; a count above MAX_TERMS, an
    infinite one or NaN is refused before the conversion."""
    if not count <= MAX_TERMS:
        raise PolicyError(
            f"periodized sum needs {count:.7g} one-sided terms, the cap is {MAX_TERMS}"
        )
    return int(count)


def _end_corrected_count(
    step: float, max_re: float, law: tuple[float, float, int], policy: TruncationPolicy
) -> tuple[int, float]:
    """Least one-sided count N whose end-corrected bound is within tail_tol, and that bound."""
    a, b, power = law
    tol = policy.tail_tol
    try:  # float ** raises OverflowError past the float range
        c10 = 2.0 * a * step**power
        c9 = 2.0 * b * step ** (power - 1)
    except OverflowError:
        c10 = c9 = math.inf
    # below rho_min one of the two terms alone exceeds tol
    rho_min = max((c10 / tol) ** 0.1, (c9 / tol) ** (1.0 / 9.0))

    def bound(n: int) -> float:
        rho = step * (n + 0.5) - max_re
        if rho <= 0.0 or rho < rho_min:
            return math.inf
        return c10 * rho**-10 + c9 * rho**-9

    # checked before the search too, which steps one term at a time; a
    # NaN start stays NaN through max and is refused
    n_side = _check_budget(max(np.ceil((rho_min + max_re) / step - 0.5), 0.0))
    while bound(n_side) > tol:
        n_side += 1
    _check_budget(n_side)
    return n_side, bound(n_side)


def _scaled_terms(t: np.ndarray, r2: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """A term's real and imaginary parts from ``t`` and ``r^2`` by divisions
    by ``r^2`` alone: the form of the entries whose ``r^8`` (order 0) or
    ``r^10`` (order 1) overflows, where a quotient by that power reads 0."""
    if order == 0:
        return divide_by_power(t, r2, 4), divide_by_power(1.0, r2, 4)
    c = 8.0 * t / r2  # |c| <= 8 / r
    return divide_by_power(1.0 - c * t, r2, 4), divide_by_power(c, r2, 4)


# Far terms overflow r^8 (from r = 3.4e38) or r^10 (from r = 6.7e30); those
# entries are redone by _scaled_terms, so that overflow is expected, not reported.
@np.errstate(over="ignore")
def _direct(
    u0: np.ndarray,
    s2: np.ndarray,
    step: float,
    alternating: bool,
    order: int,
    n_side: int,
    end_corrected: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The terms ``k = -N..N`` (and the end correction) added per row, in
    blocks of rows; returns the real and imaginary accumulators."""
    shifts = step * np.arange(-n_side, n_side + 1, dtype=np.float64)
    if end_corrected:
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
            far = np.isinf(r8)
            redo = _scaled_terms(t[far], r2[far], 0) if far.any() else None
            re = np.divide(t, r8, out=t)
            im = np.divide(1.0, r8, out=r8)
            if redo is not None:
                re[far], im[far] = redo
            if end_corrected:
                re[-2:] *= w
                im[-2:] *= w
        else:
            if end_corrected:
                q_re, q_im = t[-2:] / r8[-2:], 1.0 / r8[-2:]
                far = np.isinf(r8[-2:])
                if far.any():
                    q_re[far], q_im[far] = _scaled_terms(t[-2:][far], r2[-2:][far], 0)
                # q0's -Im u part enters the +Im u accumulator negated
                ends = (q_re * w, -q_im * w)
            r10 = r8 * r2
            far = np.isinf(r10)
            redo = _scaled_terms(t[far], r2[far], 1) if far.any() else None
            im = 8.0 * t
            t *= im
            t /= r10
            re = np.divide(1.0, r8, out=r8)
            re -= t
            im /= r10
            if redo is not None:
                re[far], im[far] = redo
            if end_corrected:
                re[-2:], im[-2:] = ends
        if alternating:
            re[odd] *= -1.0
            im[odd] *= -1.0
        re.sum(axis=0, out=acc_re[cols])
        im.sum(axis=0, out=acc_im[cols])
    return acc_re[:n_rows], acc_im[:n_rows]


def _closed_form(
    u0: np.ndarray, s2: np.ndarray, step: float, alternating: bool, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A lattice sum in closed form, and each row's rounding bound.

    Returns the real and imaginary accumulators in :func:`_direct`'s
    convention and the bound of the module docstring, which is infinite
    where ``|Im u| = 0`` or ``e^(-kappa |Im u|)`` is not a normal float
    and not a number where the closed form overflows.  Every sum but the
    alternating derivative sum has one.
    """
    kap = math.pi / step
    acc_re = np.empty_like(u0)
    acc_im = np.empty_like(u0)
    bounds = np.empty_like(u0)
    # rows at |Im u| = 0 or near a pole make infinities and NaNs here,
    # which their bound turns away
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(0, u0.size, _CLOSED_ROWS):
            rows = slice(lo, lo + _CLOSED_ROWS)
            t = u0[rows]
            y = np.sqrt(s2[rows])
            ky = kap * y
            mag = np.exp(-ky)  # |h|, h = e^(i kappa v)
            phase = kap * t
            h = np.empty(t.shape, dtype=np.complex128)
            np.multiply(mag, np.cos(phase), out=h.real)
            np.multiply(mag, np.sin(phase), out=h.imag)
            h2 = h * h
            den = 1.0 - h2
            amp2 = den.real * den.real
            amp2 += den.imag * den.imag
            np.divide(1.0, amp2, out=amp2)  # A^2 = 1/|1 - h^2|^2
            np.conjugate(den, out=den)
            den *= amp2  # 1/(1 - h^2)
            x = h * den  # csc = -2i x
            g = np.add(h2, 1.0, out=h2)
            g *= den  # cot = -i g
            amp = np.sqrt(amp2)
            p = 0.5 / y
            a = 2.0 * mag * amp  # |csc|
            b = mag * mag
            b += 1.0
            b *= amp  # >= |cot|
            if alternating:
                xg = x * g
                g2 = g * g
                q = x * (1.0 - 2.0 * g2)
                r = xg * (5.0 - 6.0 * g2)
                re = p * (4.0 * kap**2) * xg.imag
                re -= (2.0 * kap**3) * q.imag
                re *= p
                re -= (kap**4 / 3.0) * r.imag
                # -Im S: the direct route's imaginary accumulator carries -Im S/y
                im = p * (40.0 * kap) * x.real
                im += (20.0 * kap**2) * xg.real
                im *= p
                im -= (4.0 * kap**3) * q.real
                im *= p
                im -= (kap**4 / 3.0) * r.real
                im /= y
                size = p * 20.0 + (10.0 * kap) * b
                size *= p
                size += (2.0 * kap**2) * (2.0 * b * b + 1.0)
                size *= p
                size += (kap**3 / 6.0) * b * (6.0 * b * b + 5.0)
                size *= kap * a
                sens = b + 3.0 * a * a / b
            else:
                # csc^2 = -4w, cot csc^2 = 4i v, csc^2 (3 csc^2 - 2) / 3 = 8z/3
                w = x * x
                v = g * w
                z = w * (6.0 * w + 1.0)
                a2 = a * a
                if order == 0:
                    re = p * (8.0 * kap**2) * w.imag
                    re += (8.0 * kap**3) * v.imag
                    re *= p
                    re += (8.0 * kap**4 / 3.0) * z.imag
                    # -Im S, as in the alternating sum
                    im = p * (20.0 * kap) * g.real
                    im += (40.0 * kap**2) * w.real
                    im *= p
                    im += (16.0 * kap**3) * v.real
                    im *= p
                    im += (8.0 * kap**4 / 3.0) * z.real
                    im /= y
                    size = p * 20.0 * b + (10.0 * kap) * a2
                    size *= p
                    size += (4.0 * kap**2) * b * a2
                    size *= p
                    size += (kap**3 / 3.0) * a2 * (3.0 * a2 + 2.0)
                    size *= kap
                else:
                    yy = v * (12.0 * w + 1.0)
                    re = p * (16.0 * kap**3) * v.real
                    re += (16.0 * kap**4) * z.real
                    re *= p
                    re += (16.0 * kap**5 / 3.0) * yy.real
                    im = p * (80.0 * kap**2) * w.imag
                    im += (80.0 * kap**3) * v.imag
                    im *= p
                    im += (32.0 * kap**4) * z.imag
                    im *= p
                    im += (16.0 * kap**5 / 3.0) * yy.imag
                    im /= y
                    size = p * 20.0 + (20.0 * kap) * b
                    size *= p
                    size += (4.0 * kap**2) * (3.0 * a2 + 2.0)
                    size *= p
                    size += (4.0 * kap**3 / 3.0) * b * (3.0 * a2 + 1.0)
                    size *= kap * kap * a2
                sens = 4.0 * b + a2 / b
            p3 = p * p * p
            re *= p3
            im *= p3
            size *= p3
            # the rounding bound of the module docstring
            grow = 3.0 * kap * np.abs(t)
            grow += 7.0 * ky
            grow += 21.0
            grow *= sens
            grow += 15.0 * amp
            grow += 120.0
            bound = np.multiply(grow, size, out=bounds[rows])
            bound *= _UNIT
            bound[(y == 0.0) | (mag < _TINY)] = np.inf
            acc_re[rows] = re
            acc_im[rows] = im
    return acc_re, acc_im, bounds


def _lattice_sum(
    u: np.ndarray, step: float, alternating: bool, order: int, policy: TruncationPolicy
) -> SumResult:
    """Lattice sum of ``q0`` (order 0) or ``d/dx0 q0`` (order 1) on rows of u (n, 8).

    Returns the values (n, 8), one tail bound for every row and the terms per row.
    Only the pole guard is enforced, so any finite argument off the
    lattice is accepted.
    """
    u0 = u[:, 0]
    uim = u[:, 1:]
    # squares overflow from |u| = 1.3e154: a modulus-law count is then
    # refused, and an end-corrected row's terms read their true value 0
    with np.errstate(over="ignore"):
        s2 = norm_sq_many(uim)
        max_norm = math.sqrt(float(np.max(u0 * u0 + s2, initial=0.0)))
    if not math.isfinite(max_norm) and not np.isfinite(u).all():
        raise DomainError("lattice sum argument is not finite")
    end_law = _END_LAW.get((order, alternating))
    if end_law is None:
        num, den, power = _TAIL_LAW[order]
        margin = (num / (den * step * policy.tail_tol)) ** (1.0 / power)
        n_side = _check_budget(np.floor((max_norm + margin) / step) + 1.0)
        tail = num / (den * step) * (step * n_side - max_norm) ** -power
    else:
        max_re = float(np.max(np.abs(u0), initial=0.0))
        n_side, tail = _end_corrected_count(step, max_re, end_law, policy)
    if order == 1 and alternating:
        # the one sum without a closed form
        acc_re, acc_im = _direct(u0, s2, step, alternating, order, n_side, False)
    else:
        acc_re, acc_im, bounds = _closed_form(u0, s2, step, alternating, order)
        # rows whose closed form is not certified within the tail (NaN included)
        rest = np.flatnonzero(~(bounds <= tail))
        if rest.size:
            acc_re[rest], acc_im[rest] = _direct(
                u0[rest], s2[rest], step, alternating, order, n_side, end_law is not None
            )

    out = np.empty_like(u)
    out[:, 0] = acc_re
    # q0 = conj(u)/|u|^8 puts -Im u on the imaginary part; its
    # x0-derivative puts +Im u there
    np.multiply(uim, (-acc_im if order == 0 else acc_im)[:, None], out=out[:, 1:])
    return SumResult(out, tail, 2 * n_side + (3 if end_law is not None else 1))


def _periodized(
    zeta: PointLike, step: float, alternating: bool, order: int, policy: TruncationPolicy
) -> SumResult:
    zc = as_coords(zeta)
    res = _lattice_sum(zc.reshape(-1, 8), step, alternating, order, policy)
    return SumResult(like(zeta, res.value.reshape(zc.shape)), res.tail_bound, res.terms)


def periodized_sum(
    zeta: PointLike,
    step: float,
    alternating: bool = False,
    policy: TruncationPolicy = TruncationPolicy(),
) -> SumResult:
    """Truncated ``sum_n s^n q0(zeta + step*n*e0)`` with its tail bound,
    ``s = -1`` if ``alternating``, else 1."""
    return _periodized(zeta, step, alternating, 0, policy)


def periodized_deriv_sum(
    zeta: PointLike,
    step: float,
    alternating: bool = False,
    policy: TruncationPolicy = TruncationPolicy(),
) -> SumResult:
    """Same lattice sum built from the x0-derivative of the kernel."""
    return _periodized(zeta, step, alternating, 1, policy)


def cot(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    return periodized_sum(z, math.pi, policy=policy)


def csc(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    return periodized_sum(z, math.pi, True, policy)


def _shift_half_pi(z: PointLike) -> PointLike:
    out = as_coords(z).copy()
    out[..., 0] += math.pi / 2.0
    return like(z, out)


def tan(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    res = cot(_shift_half_pi(z), policy)
    return SumResult(-res.value, res.tail_bound, res.terms)


def sec(z: PointLike, policy: TruncationPolicy = TruncationPolicy()) -> SumResult:
    return csc(_shift_half_pi(z), policy)


def duplication_gap(
    cot_z: SumResult, cot_2z: SumResult, tan_z: SumResult
) -> Union[float, np.ndarray]:
    """The duplication residual from the sums cot(z), cot(2z) and tan(z) at one z.

    tan(z) is -cot(z + pi/2), so subtracting it adds cot(z + pi/2).
    """
    return norm_many(128.0 * cot_2z.value - (cot_z.value - tan_z.value))


class CombinedRelationResiduals(NamedTuple):
    """Residuals of two candidate closures of ``csc + tan - tan(z/2)/64``.

    Floats for a point, arrays with one entry per row for a batch.
    """

    against_duplication: Union[float, np.ndarray]
    against_two_cot: Union[float, np.ndarray]


def combined_relation_gaps(
    cot_z: SumResult,
    cot_2z: SumResult,
    tan_z: SumResult,
    csc_z: SumResult,
    tan_half_z: SumResult,
) -> CombinedRelationResiduals:
    """The combined-relation residuals from the sums at one z (tan_half_z at z/2)."""
    combo = csc_z.value + tan_z.value - tan_half_z.value / 64.0
    dup = 128.0 * cot_2z.value
    two_cot = 2.0 * cot_z.value - dup
    return CombinedRelationResiduals(
        against_duplication=norm_many(combo - dup),
        against_two_cot=norm_many(combo - two_cot),
    )
