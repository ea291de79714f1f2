"""Independent reference computations used as test oracles.

Everything here is deliberately written from scratch against plain
numpy/scipy: brute-force lattice sums with an inline kernel, and
deterministic Simpson quadrature for the flat-domain reproduction
integrals (reduced to 1-D/2-D by rotational symmetry).  Only the Monte
Carlo section at the end uses the package's own code: it feeds the
package's products and kernel values through plain-code samplers of
the same sample stream and copies of the earlier per-estimator
integrands and chunk reduction, as a bit-level oracle for the estimator
engine.  The algebra suite section, likewise, is the suite's first
formulation on the package's products, a bit-level oracle for its rows.
The last section is the hand scanner that parsed octonion literals
before the term regex, the reference of ``parse_octonion``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from octomono.algebra import (
    Octonion,
    conj_many,
    mul,
    mul_cayley_dickson,
    mul_many,
    norm_many,
    parse_octonion,
)
from octomono.kernels import (
    bergman_ball_values,
    bergman_strip_values,
    szego_ball_values,
    szego_strip_values,
)
from octomono.kernels import bergman_unit_ball
from octomono.errors import DomainError
from octomono.regularity import dq0_dx0_many, q0_many
from octomono.suites import Row
from octomono.trig_series import TruncationPolicy, periodized_deriv_sum, periodized_sum

SPHERE6_AREA = 16.0 * np.pi**3 / 15.0
REPRO_CONST = 3.0 / np.pi**4


def norm_sq_reference(a: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of a (..., k) array, each row's squares
    added one coordinate at a time in the order 0..k-1."""
    a = np.asarray(a)
    out = a[..., 0] * a[..., 0]
    for k in range(1, a.shape[-1]):
        out = out + a[..., k] * a[..., k]
    return out


def q0_inline(p: np.ndarray) -> np.ndarray:
    """conj(p)/|p|^8 written out directly."""
    p = np.asarray(p, dtype=np.float64)
    r2 = (p * p).sum(axis=-1)
    out = -p / (r2**4)[..., None]
    out[..., 0] *= -1.0
    return out


def brute_lattice_sum(
    z: np.ndarray, step: float, n_terms: int, alternating: bool
) -> np.ndarray:
    """sum over n in [-n_terms, n_terms] of s^n q0(z + step*n*e0)."""
    z = np.asarray(z, dtype=np.float64)
    total = np.zeros(8)
    for n in range(-n_terms, n_terms + 1):
        term = z.copy()
        term[0] += step * n
        sign = -1.0 if (alternating and n % 2 != 0) else 1.0
        total += sign * q0_inline(term)
    return total


def brute_lattice_sum_longdouble(
    z: np.ndarray, step: float, n_terms: int, alternating: bool, order: int
) -> tuple[np.ndarray, float]:
    """sum over |n| <= n_terms of s^n q0 (order 0) or d/dx0 q0 (order 1) at
    z + step*n*e0, in longdouble, and the sum of the terms' norms."""
    z = np.asarray(z, dtype=np.longdouble)
    n = np.arange(-n_terms, n_terms + 1)
    sign = np.where(alternating & (n % 2 != 0), -1.0, 1.0).astype(np.longdouble)
    t = z[0] + np.longdouble(step) * n
    r2 = t * t + (z[1:] ** 2).sum()
    if order == 0:
        # conj(p)/|p|^8: real part t/r^8, imaginary part -Im z / r^8
        re, im = t / r2**4, -1.0 / r2**4
    else:
        re, im = 1.0 / r2**4 - 8.0 * t * t / r2**5, 8.0 * t / r2**5
    re, im = sign * re, sign * im
    total = np.empty(8, dtype=np.longdouble)
    total[0] = re.sum()
    total[1:] = z[1:] * im.sum()
    norms = np.sqrt(re * re + im * im * (z[1:] ** 2).sum())
    return total, float(norms.sum())


def poisson_lattice_sum(
    z: np.ndarray, step: float, alternating: bool, order: int, terms: int = 40
) -> np.ndarray:
    """sum over n of s^n q0 (order 0) or d/dx0 q0 (order 1) at z + step*n*e0,
    by Poisson summation in longdouble; needs |Im z| = y > 0.

    On the complex slice through z, q0 is g(t) = (t + iy)^-4 (t - iy)^-3,
    whose transform int g(t) e^(-i xi t) dt is, with a = |xi| y,
    -i pi (2a^3 + 9a^2 + 18a + 15) e^-a / (48 y^6) for xi > 0,
    -i pi (a^2 + 4a + 5) e^-a / (16 y^6) for xi < 0 and -5i pi / (16 y^6)
    at 0; d/dt multiplies it by i xi.  The lattice sum is (1/step) times
    the sum of transform(xi) e^(i xi t) over xi = pi (2m + 1)/step
    (alternating) or 2 pi m/step, |m| <= terms.
    """
    z = np.asarray(z, dtype=np.longdouble)
    t = z[0]
    y = np.sqrt((z[1:] ** 2).sum())
    pi = np.longdouble("3.14159265358979323846264338327950288")
    m = np.arange(-terms, terms + 1).astype(np.longdouble)
    xi = pi * (2 * m + 1) / step if alternating else 2 * pi * m / step
    a = np.abs(xi) * y
    transform = np.where(
        xi > 0,
        (2 * a**3 + 9 * a**2 + 18 * a + 15) / (48 * y**6),
        (a**2 + 4 * a + 5) / (16 * y**6),
    ) * (-1j * pi * np.exp(-a))
    if order == 1:
        transform = transform * (1j * xi)
    total = (transform * np.exp(1j * xi * t)).sum() / np.longdouble(step)
    # the slice's imaginary unit is Im z / y
    out = np.empty(8, dtype=np.longdouble)
    out[0] = total.real
    out[1:] = z[1:] * (total.imag / y)
    return out


def brute_deriv_sum(z: np.ndarray, step: float, n_terms: int) -> np.ndarray:
    """Central-difference d/dx0 of the non-alternating lattice sum."""
    h = 1e-6
    zp = np.asarray(z, dtype=np.float64).copy()
    zm = zp.copy()
    zp[0] += h
    zm[0] -= h
    return (
        brute_lattice_sum(zp, step, n_terms, False)
        - brute_lattice_sum(zm, step, n_terms, False)
    ) / (2.0 * h)


def end_corrected_count(
    max_re: float, step: float, a: float, b: float, power: int, tail_tol: float
) -> tuple[int, float]:
    """Least n >= 0, searched from 0, whose documented end-corrected bound
    2 (a s^p rho^-10 + b s^(p-1) rho^-9), rho = s (n + 1/2) - max|Re u|,
    is within tail_tol; returns (n, bound)."""
    c10 = 2.0 * a * step**power
    c9 = 2.0 * b * step ** (power - 1)
    n = 0
    while True:
        rho = step * (n + 0.5) - max_re
        if rho > 0.0:
            bound = c10 * rho**-10 + c9 * rho**-9
            if bound <= tail_tol:
                return n, bound
        n += 1


def _add_ends(acc_re, acc_im, u0, s2, ends, im_sign):
    """Add w*q0 at each (shift, w) of ends, in order, to the accumulators;
    the imaginary accumulator takes im_sign/r^8 per end."""
    for shift, w in ends:
        t = u0 + shift
        r2 = t * t + s2
        r8 = (r2 * r2) ** 2
        acc_re += t / r8 * w
        acc_im += im_sign / r8 * w


def plain_lattice_sum_reference(
    u: np.ndarray, step: float, tail_tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """The per-k loop for the plain q0 sum (cot at step pi), kept as a
    bit-level oracle of its direct route.

    N is the modulus law's: the least N past (max|u| + margin) / step,
    margin = (1/(3 step tail_tol))^(1/6), so that the tail bound
    (1/(3 step)) (step N - max|u|)^-6 is within tail_tol.  Each row's
    terms are added in the order k = -N..N into accumulators that start
    at +0.0.
    """
    u = np.asarray(u, dtype=np.float64)
    u0 = u[:, 0]
    uim = u[:, 1:]
    s2 = norm_sq_reference(uim)
    max_norm = math.sqrt(float(np.max(u0 * u0 + s2)))
    margin = (1.0 / (3.0 * step * tail_tol)) ** (1.0 / 6.0)
    n_side = math.floor((max_norm + margin) / step) + 1
    tail = 1.0 / (3.0 * step) * (step * n_side - max_norm) ** -6
    acc_re = np.zeros_like(u0)
    acc_im = np.zeros_like(u0)
    for k in range(-n_side, n_side + 1):
        t = u0 + step * k
        r2 = t * t + s2
        r8 = (r2 * r2) ** 2
        acc_re += t / r8
        acc_im += 1.0 / r8
    out = np.empty_like(u)
    out[:, 0] = acc_re
    out[:, 1:] = -uim * acc_im[:, None]
    return out, tail


def szego_strip_values_reference(
    u: np.ndarray, d: float, tail_tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """The per-k loop for the Szego strip kernel, kept as a bit-level oracle.

    Each row's terms are added in the order k = -n..n into accumulators
    that start at +0.0, then the half-lattice end correction
    (-1)^(n+1)/2 * (q0(u + h) + q0(u - h)), h = 2d(n + 1/2).
    """
    u = np.asarray(u, dtype=np.float64)
    step = 2.0 * d
    n_side, tail = end_corrected_count(np.abs(u[:, 0]).max(), step, 63.0, 3.5, 3, tail_tol)
    u0 = u[:, 0]
    uim = u[:, 1:]
    s2 = norm_sq_reference(uim)
    acc_re = np.zeros_like(u0)
    acc_im = np.zeros_like(u0)
    for k in range(-n_side, n_side + 1):
        t = u0 + step * k
        r2 = t * t + s2
        r8 = (r2 * r2) ** 2
        sign = -1.0 if (k % 2) else 1.0
        acc_re += sign * t / r8
        acc_im += sign / r8
    h = step * (n_side + 0.5)
    w = 0.5 if n_side % 2 else -0.5
    _add_ends(acc_re, acc_im, u0, s2, ((h, w), (-h, w)), 1.0)
    out = np.empty_like(u)
    out[:, 0] = acc_re
    out[:, 1:] = -uim * acc_im[:, None]
    return out, tail


def bergman_strip_values_reference(
    u: np.ndarray, d: float, tail_tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """The per-k loop for the Bergman strip kernel, kept as a bit-level oracle.

    The end correction is (q0(u - h) - q0(u + h)) / 2d; q0's imaginary
    part enters the derivative's accumulator with the opposite sign.
    """
    u = np.asarray(u, dtype=np.float64)
    step = 2.0 * d
    n_side, tail = end_corrected_count(
        np.abs(u[:, 0]).max(), step, 21.0, 7.0 / 3.0, 2, tail_tol
    )
    u0 = u[:, 0]
    uim = u[:, 1:]
    s2 = norm_sq_reference(uim)
    acc_re = np.zeros_like(u0)
    acc_im = np.zeros_like(u0)
    for k in range(-n_side, n_side + 1):
        t = u0 + step * k
        r2 = t * t + s2
        r8 = (r2 * r2) ** 2
        r10 = r8 * r2
        acc_re += 1.0 / r8 - 8.0 * t * t / r10
        acc_im += 8.0 * t / r10
    h = step * (n_side + 0.5)
    _add_ends(acc_re, acc_im, u0, s2, ((h, -1.0 / step), (-h, 1.0 / step)), -1.0)
    out = np.empty_like(u)
    out[:, 0] = -2.0 * acc_re
    out[:, 1:] = -2.0 * uim * acc_im[:, None]
    return out, 2.0 * tail


def szego_strip_reference(
    z: Octonion, w: Octonion, d: float, policy: TruncationPolicy, method: str
) -> tuple[Octonion, float]:
    """The two method branches szego_strip had before the shared strip body.

    Returns (value, tail bound); domain checks are left out.
    """
    u = z + w.conjugate()
    if method == "series":
        res = periodized_sum(u, 2.0 * d, True, policy)
        return res.value, res.tail_bound
    s = math.pi / (2.0 * d)
    res = periodized_sum(u * s, math.pi, True, policy)
    return res.value * s**7, s**7 * res.tail_bound


def bergman_strip_reference(
    z: Octonion, w: Octonion, d: float, policy: TruncationPolicy, method: str
) -> tuple[Octonion, float]:
    """The two method branches bergman_strip had before the shared strip body."""
    u = z + w.conjugate()
    if method == "series":
        res = periodized_deriv_sum(u, 2.0 * d, policy=policy)
        return res.value * -2.0, 2.0 * res.tail_bound
    s = math.pi / (2.0 * d)
    res = periodized_deriv_sum(u * s, math.pi, policy=policy)
    return res.value * (-2.0 * s**8), 2.0 * s**8 * res.tail_bound


def bergman_unit_ball_potential_residual_reference(
    z: Octonion, w: Octonion, h: float = 1e-5
) -> float:
    """The potential-equation residual with its hand-written eye stencil."""
    b = bergman_unit_ball(z, w)
    lhs = b.conjugate() * z.conjugate()
    zn2 = z.norm_sq()

    def potential(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        u = -mul_many(pts, np.array(z.conjugate().coords))
        u[..., 0] += 1.0
        n2 = norm_sq_reference(u)
        w2 = norm_sq_reference(pts)
        return (1.0 - zn2 * w2) / n2**4

    eye = np.eye(8)
    grad = (potential(w.to_array() + h * eye) - potential(w.to_array() - h * eye)) / (
        2.0 * h
    )
    rhs = Octonion(grad[0], *(-grad[1:]))
    return (lhs - rhs).norm()


def bergman_half_space_values(u: np.ndarray) -> np.ndarray:
    """Half-space volume kernel rows -2 d/dx0 q0(u) at combined arguments u (n, 8)."""
    return -2.0 * dq0_dx0_many(u)


def lambda_sum(s: float, terms: int = 200_000) -> float:
    """sum over odd k >= 1 of k^-s."""
    k = np.arange(1, 2 * terms, 2, dtype=np.float64)
    return float((k**-s).sum())


def strip_szego_wall_integral(
    z: float, c: float, d: float, radius: float, n_grid: int = 200_001, n_terms: int = 60
) -> float:
    """Truncated two-wall reproduction integral for real z and real c.

    For real z the integrand's octonion product collapses to a radial
    scalar; the value is exact to Simpson error.  radius large enough
    recovers q0(z - c) itself.
    """
    total = 0.0
    for wall_x in (0.0, d):
        r = np.linspace(0.0, radius, n_grid)
        r2 = r * r
        ns = np.arange(-n_terms, n_terms + 1)
        t = z + wall_x + 2.0 * d * ns
        rn8 = (t[:, None] ** 2 + r2[None, :]) ** 4
        sign = np.where(ns % 2 == 0, 1.0, -1.0)[:, None]
        s0 = (sign * t[:, None] / rn8).sum(axis=0)
        sigma = (sign / rn8).sum(axis=0)
        rho8 = ((wall_x - c) ** 2 + r2) ** 4
        f0 = (wall_x - c) / rho8
        total += simpson((s0 * f0 + sigma * r2 / rho8) * r**6, x=r)
    return REPRO_CONST * SPHERE6_AREA * total


def strip_bergman_volume_integral(
    z: float,
    c: float,
    d: float,
    radius: float,
    nx: int = 401,
    nr: int = 40_001,
    n_terms: int = 60,
) -> float:
    """Truncated strip-volume reproduction integral for real z, real c."""
    x0 = np.linspace(0.0, d, nx)
    r = np.linspace(0.0, radius, nr)
    r2 = r * r
    ns = np.arange(-n_terms, n_terms + 1)
    inner = np.empty(nx)
    for i, x in enumerate(x0):
        t = z + x + 2.0 * d * ns
        rn2 = t[:, None] ** 2 + r2[None, :]
        rn8 = rn2**4
        rn10 = rn8 * rn2
        b0 = -2.0 * (1.0 / rn8 - 8.0 * t[:, None] ** 2 / rn10).sum(axis=0)
        bv = 16.0 * (t[:, None] / rn10).sum(axis=0)
        rho2 = (x - c) ** 2 + r2
        rho8 = rho2**4
        f0 = (x - c) / rho8
        inner[i] = simpson((b0 * f0 + bv * r2 / rho8) * r**6, x=r)
    return REPRO_CONST * SPHERE6_AREA * simpson(inner, x=x0)


def half_space_szego_wall_integral(
    z: float, c: float, radius: float, n_grid: int = 200_001
) -> float:
    """Truncated wall integral on Re > 0 for real z > 0, real c < 0."""
    r = np.linspace(0.0, radius, n_grid)
    r2 = r * r
    rn8 = (z**2 + r2) ** 4
    s0 = z / rn8
    sigma = 1.0 / rn8
    rho8 = (c**2 + r2) ** 4
    f0 = -c / rho8
    integrand = (s0 * f0 + sigma * r2 / rho8) * r**6
    return REPRO_CONST * SPHERE6_AREA * simpson(integrand, x=r)


# The full 7x7 imaginary-unit multiplication table, transcribed by hand
# from the seven oriented triples (1,2,4) (1,3,5) (2,3,6) (1,7,6) (2,5,7)
# (3,7,4) (4,6,5).  TABLE[i][j] = (sign, index) of e_i * e_j; index 0
# with sign -1 encodes -1.
MUL_TABLE = {
    (1, 1): (-1, 0), (1, 2): (1, 4), (1, 3): (1, 5), (1, 4): (-1, 2),
    (1, 5): (-1, 3), (1, 6): (-1, 7), (1, 7): (1, 6),
    (2, 1): (-1, 4), (2, 2): (-1, 0), (2, 3): (1, 6), (2, 4): (1, 1),
    (2, 5): (1, 7), (2, 6): (-1, 3), (2, 7): (-1, 5),
    (3, 1): (-1, 5), (3, 2): (-1, 6), (3, 3): (-1, 0), (3, 4): (-1, 7),
    (3, 5): (1, 1), (3, 6): (1, 2), (3, 7): (1, 4),
    (4, 1): (1, 2), (4, 2): (-1, 1), (4, 3): (1, 7), (4, 4): (-1, 0),
    (4, 5): (-1, 6), (4, 6): (1, 5), (4, 7): (-1, 3),
    (5, 1): (1, 3), (5, 2): (-1, 7), (5, 3): (-1, 1), (5, 4): (1, 6),
    (5, 5): (-1, 0), (5, 6): (-1, 4), (5, 7): (1, 2),
    (6, 1): (1, 7), (6, 2): (1, 3), (6, 3): (-1, 2), (6, 4): (-1, 5),
    (6, 5): (1, 4), (6, 6): (-1, 0), (6, 7): (-1, 1),
    (7, 1): (-1, 6), (7, 2): (1, 5), (7, 3): (-1, 4), (7, 4): (1, 3),
    (7, 5): (-1, 2), (7, 6): (1, 1), (7, 7): (-1, 0),
}


def _table_arrays() -> tuple[np.ndarray, np.ndarray]:
    """MUL_TABLE as 8x8 (index, sign) arrays, real unit included."""
    idx = np.zeros((8, 8), dtype=np.intp)
    sgn = np.ones((8, 8))
    idx[0, :] = np.arange(8)
    idx[:, 0] = np.arange(8)
    for (i, j), (s, k) in MUL_TABLE.items():
        idx[i, j] = k
        sgn[i, j] = s
    return idx, sgn


_REF_IDX, _REF_SGN = _table_arrays()


def mul_many_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The original fancy-index product loop, kept as a bit-level oracle.

    Row-major: for each left coordinate i = 0..7 the signed products
    a_i * b_j are added into a (..., 8) accumulator that starts at +0.0.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.dtype.kind != "f":
        a = a.astype(np.float64)
    if b.dtype.kind != "f":
        b = b.astype(np.float64)
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.zeros(out_shape, dtype=np.result_type(a, b))
    for i in range(8):
        # _REF_IDX[i] is a permutation of 0..7, so fancy += has no collisions.
        out[..., _REF_IDX[i]] += _REF_SGN[i] * (a[..., i, None] * b)
    return out


# ---------------------------------------------------------------------------
# Monte Carlo estimators as written before the single estimator engine:
# each integrand returns (values, shell statistic), and every estimator
# runs its own reduction, tail formula and warning test.  The samplers
# draw the stream from its definition: chunk i's SFC64 substream, each
# sample's normals a coordinate row of (dim, count) draws, then its
# radii and, in the strip volume, its real parts.

_SHELL_FRACTION = 0.8


@dataclass(frozen=True)
class ReferenceBatch:
    """One chunk of reference samples.  The package's batches hold points
    and weights only; here the sphere keeps its sampled directions as its
    normals, which the Cauchy oracles read."""

    points: np.ndarray
    weights: np.ndarray
    normals: Optional[np.ndarray]


def chunk_rng_reference(seed, i):
    """Chunk i's generator: SFC64 on the substream (seed, i)."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
    )


def _directions_reference(rng, count, dim):
    """(count, dim) unit rows from (dim, count) normals, a coordinate's
    draws after another's, each row's norm summed in coordinate order."""
    g = rng.standard_normal((dim, count))
    n = np.sqrt(norm_sq_reference(g.T))
    n[n == 0.0] = 1.0
    return (g / n).T


def sphere_sampler_reference(radius):
    area = np.pi**4 / 3.0 * radius**7

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 8)
        return ReferenceBatch(np.zeros(8) + radius * dirs, np.full(count, area / total), dirs)

    return sampler


def ball_sampler_reference(radius):
    volume = np.pi**4 / 24.0 * radius**8

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 8)
        r = radius * rng.uniform(size=count) ** 0.125
        return ReferenceBatch(np.zeros(8) + r[:, None] * dirs, np.full(count, volume / total), None)

    return sampler


def _ball7_volume_reference(radius):
    return 16.0 * np.pi**3 * radius**7 / 105.0


def strip_boundary_sampler_reference(d, radius):
    plane_measure = _ball7_volume_reference(radius)

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        pts = np.zeros((count, 8))
        pts[:, 1:] = r[:, None] * dirs
        on_top = ((start + np.arange(count)) % 2) == 1
        pts[on_top, 0] = d
        n_bottom, n_top = (total + 1) // 2, total // 2
        weights = np.where(on_top, plane_measure / n_top, plane_measure / n_bottom)
        return ReferenceBatch(pts, weights, None)

    return sampler


def strip_volume_sampler_reference(d, radius):
    measure = d * _ball7_volume_reference(radius)

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        x0 = rng.uniform(0.0, d, size=count)
        pts = np.empty((count, 8))
        pts[:, 0] = x0
        pts[:, 1:] = r[:, None] * dirs
        return ReferenceBatch(pts, np.full(count, measure / total), None)

    return sampler


def half_space_sampler_reference(radius):
    plane_measure = _ball7_volume_reference(radius)

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        pts = np.zeros((count, 8))
        pts[:, 1:] = r[:, None] * dirs
        return ReferenceBatch(pts, np.full(count, plane_measure / total), None)

    return sampler


def _accumulate_reference(sampler, integrand, cfg):
    parts = []
    for i in range(-(-cfg.samples // cfg.chunk)):  # chunk order
        start = i * cfg.chunk
        rng = chunk_rng_reference(cfg.seed, i)
        batch = sampler(rng, min(cfg.chunk, cfg.samples - start), start, cfg.samples)
        # the package keeps samples coordinate-major, and numpy sums the
        # chunk reduction in an order set by the layout; the same values in
        # the same layout give the same bits
        normals = None if batch.normals is None else np.asfortranarray(batch.normals)
        batch = ReferenceBatch(np.asfortranarray(batch.points), batch.weights, normals)
        values, aux = integrand(batch)
        weighted = batch.weights[:, None] * values
        part_a = weighted.sum(axis=0)
        part_b = float((batch.weights**2 * norm_sq_reference(values)).sum())
        parts.append((part_a, part_b, aux))
    total_a = np.zeros(8)
    total_b = 0.0
    for part_a, part_b, _ in parts:
        total_a = total_a + part_a
        total_b += part_b
    aux_max = float(np.max([aux for _, _, aux in parts], initial=0.0))
    return total_a, total_b, aux_max


def _result_reference(total_a, total_b, cfg, const, tail_est=0.0):
    """(value coordinates, std_err, tail_est, warning text or None)."""
    var = max(total_b - float(norm_sq_reference(total_a)) / cfg.samples, 0.0)
    value = Octonion(*(const * total_a))
    std_err = const * math.sqrt(var)
    norm = value.norm()
    message = None
    if tail_est > 0.1 * (norm + std_err):
        message = (
            f"truncation tail estimate {tail_est:.3e} is not small against the "
            f"result |{norm:.3e}| +/- {std_err:.3e}; increase radius"
        )
    return value.to_array(), std_err, tail_est, message


def _shell_stat_reference(values, points, radius, decay):
    y = np.sqrt(norm_sq_reference(points[:, 1:]))
    mask = y > _SHELL_FRACTION * radius
    if not mask.any():
        return 0.0
    mags = np.sqrt(norm_sq_reference(values[mask]))
    return float((mags * y[mask] ** decay).max())


def _flat_reference(sampler, integrand, cfg, decay, width):
    def with_shell(batch):
        vals = integrand(batch)
        return vals, _shell_stat_reference(vals, batch.points, cfg.radius, decay)

    a, b, shell_c = _accumulate_reference(sampler, with_shell, cfg)
    tail = (
        REPRO_CONST * shell_c * SPHERE6_AREA * width * cfg.radius ** (7 - decay) / (decay - 7)
    )
    return _result_reference(a, b, cfg, REPRO_CONST, tail)


def _unit_rows_reference(points):
    n = np.sqrt(norm_sq_reference(points))
    unit = np.zeros_like(points)
    safe = n > 1e-12
    unit[safe] = points[safe] / n[safe, None]
    unit[~safe, 0] = 1.0
    return unit


def cauchy_theorem_check_reference(f, cfg):
    def integrand(batch):
        return mul_many(batch.normals, f(batch.points)), 0.0

    a, b, _ = _accumulate_reference(sphere_sampler_reference(1.0), integrand, cfg)
    return _result_reference(a, b, cfg, 1.0)


def cauchy_formula_reproduce_reference(f, z, cfg, grouping="normal_first"):
    zc = z.to_array()

    def integrand(batch):
        kernel = q0_many(batch.points - zc)
        if grouping == "normal_first":
            vals = mul_many(kernel, mul_many(batch.normals, f(batch.points)))
        else:
            vals = mul_many(mul_many(kernel, batch.normals), f(batch.points))
        return vals, 0.0

    a, b, _ = _accumulate_reference(sphere_sampler_reference(1.0), integrand, cfg)
    return _result_reference(a, b, cfg, REPRO_CONST)


def _ball_pairing_reference(sampler, left_fn, twist_fn, f, cfg):
    def integrand(batch):
        unit = twist_fn(batch.points)
        left = mul_many(left_fn(batch.points), conj_many(unit))
        right = mul_many(unit, f(batch.points))
        return mul_many(left, right), 0.0

    a, b, _ = _accumulate_reference(sampler, integrand, cfg)
    return _result_reference(a, b, cfg, REPRO_CONST)


def szego_reproduce_ball_reference(f, z, cfg):
    return _ball_pairing_reference(
        sphere_sampler_reference(1.0), lambda p: szego_ball_values(z, p), lambda p: p, f, cfg
    )


def inner_product_hardy_ball_reference(f, g, cfg):
    return _ball_pairing_reference(
        sphere_sampler_reference(1.0), lambda p: conj_many(g(p)), lambda p: p, f, cfg
    )


def bergman_reproduce_ball_reference(f, z, cfg):
    return _ball_pairing_reference(
        ball_sampler_reference(1.0),
        lambda p: bergman_ball_values(z, p),
        _unit_rows_reference,
        f,
        cfg,
    )


def inner_product_bergman_ball_reference(f, g, cfg):
    return _ball_pairing_reference(
        ball_sampler_reference(1.0), lambda p: conj_many(g(p)), _unit_rows_reference, f, cfg
    )


def szego_reproduce_strip_reference(f, z, domain, cfg, policy=TruncationPolicy()):
    zc = z.to_array()

    def integrand(batch):
        kernel = szego_strip_values(zc + conj_many(batch.points), domain.d, policy).value
        return mul_many(kernel, f(batch.points))

    sampler = strip_boundary_sampler_reference(domain.d, cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 14, 2.0)


def bergman_reproduce_strip_reference(f, z, domain, cfg, policy=TruncationPolicy()):
    zc = z.to_array()

    def integrand(batch):
        kernel = bergman_strip_values(zc + conj_many(batch.points), domain.d, policy).value
        return mul_many(kernel, f(batch.points))

    sampler = strip_volume_sampler_reference(domain.d, cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 15, domain.d)


def inner_product_strip_boundary_reference(f, g, domain, cfg):
    def integrand(batch):
        return mul_many(conj_many(g(batch.points)), f(batch.points))

    sampler = strip_boundary_sampler_reference(domain.d, cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 14, 2.0)


def inner_product_strip_volume_reference(f, g, domain, cfg):
    def integrand(batch):
        return mul_many(conj_many(g(batch.points)), f(batch.points))

    sampler = strip_volume_sampler_reference(domain.d, cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 14, domain.d)


def szego_reproduce_half_space_reference(f, z, cfg):
    zc = z.to_array()

    def integrand(batch):
        kernel = q0_many(zc + conj_many(batch.points))
        return mul_many(kernel, f(batch.points))

    sampler = half_space_sampler_reference(cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 14, 1.0)


def algebra_suite_reference(trials: int, seed: int) -> list:
    """The algebra suite's rows from its first formulation: all trials in
    one batch, 26 products (five of them made twice)."""
    rng = np.random.default_rng(seed)
    x, y, z = (
        np.asfortranarray(rng.uniform(-10.0, 10.0, size=(trials, 8)), dtype=np.longdouble)
        for _ in range(3)
    )

    def worst(arr):
        return float(np.max(np.abs(arr)))

    basis = [Octonion.basis(k) for k in range(8)]
    table_gap = max(
        worst((mul(a, b) - mul_cayley_dickson(a, b)).to_array()) for a in basis for b in basis
    )
    rows = [Row("table_vs_cayley_dickson", table_gap, 0.0, table_gap, 1e-14)]

    nx, ny = norm_many(x), norm_many(y)
    xy = mul_many(x, y)
    comp = worst((norm_many(xy) - nx * ny) / (nx * ny))
    rows.append(Row("norm_composition_rel", comp, 0.0, comp, 1e-12))

    right = mul_many(x, xy) - mul_many(mul_many(x, x), y)
    left = mul_many(mul_many(y, x), x) - mul_many(y, mul_many(x, x))
    alt = max(worst(right), worst(left))
    rows.append(Row("alternativity", alt, 0.0, alt, 1e-11))

    flex = worst(mul_many(x, mul_many(y, x)) - mul_many(xy, x))
    rows.append(Row("flexibility", flex, 0.0, flex, 1e-11))

    mo = worst(mul_many(xy, mul_many(z, x)) - mul_many(mul_many(x, mul_many(y, z)), x))
    rows.append(Row("moufang", mo, 0.0, mo, 1e-11))

    cc = worst(mul_many(conj_many(x), xy) - (nx**2)[:, None] * y)
    rows.append(Row("conjugate_cancel", cc, 0.0, cc, 1e-11))

    anti = worst(conj_many(xy) - mul_many(conj_many(y), conj_many(x)))
    rows.append(Row("conjugation_antiautomorphism", anti, 0.0, anti, 1e-11))

    sq = mul_many(x, conj_many(x))
    sr = max(worst(sq[:, 1:]), worst(sq[:, 0] - nx**2))
    rows.append(Row("scalar_real", sr, 0.0, sr, 1e-11))

    assoc = mul_many(xy, z) - mul_many(x, mul_many(y, z))
    assoc_yx = mul_many(mul_many(y, x), z) - mul_many(y, mul_many(x, z))
    anti_sym = worst(assoc + assoc_yx)
    rows.append(Row("associator_alternation", anti_sym, 0.0, anti_sym, 1e-11))
    return rows


# ---------------------------------------------------------------------------
# Octonion literals: the hand scanner


_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_UNIT_RE = re.compile(r"e([0-7])")
_SIGN_RE = re.compile(r"[+-]")


def parse_octonion_reference(text: str) -> Octonion:
    """``parse_octonion`` with the hand scanner for sums of terms.

    Empty text and JSON arrays go to ``parse_octonion`` itself: the
    scanner never saw them, and their path is unchanged."""
    s = text.strip()
    if not s or s.startswith("["):
        return parse_octonion(text)
    try:
        value = Octonion(float(s))
    except ValueError:
        value = _parse_terms_reference(s)
    if not all(math.isfinite(c) for c in value.coords):
        raise DomainError(f"octonion literal has a non-finite coordinate: {text!r}")
    return value


def _parse_terms_reference(s: str) -> Octonion:
    coords = [0.0] * 8
    pos = 0
    n = len(s)
    first = True
    while True:
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n:
            if first:
                raise DomainError(f"bad octonion literal: {s!r}")
            break
        sign = 1.0
        m = _SIGN_RE.match(s, pos)
        if m:
            sign = -1.0 if m.group(0) == "-" else 1.0
            pos = m.end()
            while pos < n and s[pos].isspace():
                pos += 1
        elif not first:
            raise DomainError(f"expected '+' or '-' at position {pos} in {s!r}")
        first = False

        m = _NUM_RE.match(s, pos)
        if m:
            value = float(m.group(0))
            pos = m.end()
            # A unit may follow, but only across whitespace or '*'.
            probe = pos
            saw_sep = False
            while probe < n and s[probe].isspace():
                probe += 1
                saw_sep = True
            if probe < n and s[probe] == "*":
                probe += 1
                saw_sep = True
                while probe < n and s[probe].isspace():
                    probe += 1
            um = _UNIT_RE.match(s, probe) if saw_sep else None
            if um:
                coords[int(um.group(1))] += sign * value
                pos = um.end()
            else:
                coords[0] += sign * value
            continue

        um = _UNIT_RE.match(s, pos)
        if um:
            coords[int(um.group(1))] += sign
            pos = um.end()
            continue
        raise DomainError(f"unrecognized term at position {pos} in {s!r}")
    return Octonion(*coords)
