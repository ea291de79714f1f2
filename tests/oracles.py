"""Independent reference computations used as test oracles.

Everything here is deliberately written from scratch against plain
numpy/scipy: brute-force lattice sums with an inline kernel, and
deterministic Simpson quadrature for the flat-domain reproduction
integrals (reduced to 1-D/2-D by rotational symmetry).  Only the Monte
Carlo section at the end uses the package's own code: it feeds the
package's products and kernel values through copies of the earlier
samplers, per-estimator integrands and chunk reduction, as a bit-level
oracle for the estimator engine.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson

from octomono.algebra import Octonion, conj_many, mul_many
from octomono.kernels import (
    bergman_ball_values,
    bergman_strip_values,
    szego_ball_values,
    szego_half_space_values,
    szego_strip_values,
)
from octomono.kernels import bergman_unit_ball
from octomono.quadrature import SampleBatch
from octomono.regularity import q0_many
from octomono.trig_series import (
    PeriodizedSumSpec,
    TruncationPolicy,
    periodized_deriv_sum,
    periodized_sum,
)

SPHERE6_AREA = 16.0 * np.pi**3 / 15.0
REPRO_CONST = 3.0 / np.pi**4


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
    s2 = np.einsum("ij,ij->i", uim, uim)
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
    s2 = np.einsum("ij,ij->i", uim, uim)
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
        res = periodized_sum(u, PeriodizedSumSpec(2.0 * d, alternating=True), policy)
        return res.value, res.tail_bound
    s = math.pi / (2.0 * d)
    res = periodized_sum(u * s, PeriodizedSumSpec(math.pi, alternating=True), policy)
    return res.value * s**7, s**7 * res.tail_bound


def bergman_strip_reference(
    z: Octonion, w: Octonion, d: float, policy: TruncationPolicy, method: str
) -> tuple[Octonion, float]:
    """The two method branches bergman_strip had before the shared strip body."""
    u = z + w.conjugate()
    if method == "series":
        res = periodized_deriv_sum(u, PeriodizedSumSpec(2.0 * d), policy)
        return res.value * -2.0, 2.0 * res.tail_bound
    s = math.pi / (2.0 * d)
    res = periodized_deriv_sum(u * s, PeriodizedSumSpec(math.pi), policy)
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
        n2 = np.einsum("...i,...i->...", u, u)
        w2 = np.einsum("...i,...i->...", pts, pts)
        return (1.0 - zn2 * w2) / n2**4

    eye = np.eye(8)
    grad = (potential(w.to_array() + h * eye) - potential(w.to_array() - h * eye)) / (
        2.0 * h
    )
    rhs = Octonion(grad[0], *(-grad[1:]))
    return (lhs - rhs).norm()


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
# runs its own reduction, tail formula and warning test.

_SHELL_FRACTION = 0.8


def _directions_reference(rng, count, dim):
    g = rng.standard_normal((count, dim))
    n = np.sqrt(np.einsum("ij,ij->i", g, g))
    n[n == 0.0] = 1.0
    return g / n[:, None]


def sphere_sampler_reference(radius):
    area = np.pi**4 / 3.0 * radius**7

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 8)
        return SampleBatch(np.zeros(8) + radius * dirs, np.full(count, area / total), dirs)

    return sampler


def ball_sampler_reference(radius):
    volume = np.pi**4 / 24.0 * radius**8

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 8)
        r = radius * rng.uniform(size=count) ** 0.125
        return SampleBatch(np.zeros(8) + r[:, None] * dirs, np.full(count, volume / total), None)

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
        normals = np.zeros((count, 8))
        normals[:, 0] = np.where(on_top, 1.0, -1.0)
        n_bottom, n_top = (total + 1) // 2, total // 2
        weights = np.where(on_top, plane_measure / n_top, plane_measure / n_bottom)
        return SampleBatch(pts, weights, normals)

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
        return SampleBatch(pts, np.full(count, measure / total), None)

    return sampler


def half_space_sampler_reference(radius):
    plane_measure = _ball7_volume_reference(radius)

    def sampler(rng, count, start, total):
        dirs = _directions_reference(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        pts = np.zeros((count, 8))
        pts[:, 1:] = r[:, None] * dirs
        normals = np.zeros((count, 8))
        normals[:, 0] = -1.0
        return SampleBatch(pts, np.full(count, plane_measure / total), normals)

    return sampler


def _accumulate_reference(sampler, integrand, cfg):
    parts = []
    for i in range(-(-cfg.samples // cfg.chunk)):  # chunk order
        start = i * cfg.chunk
        seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(seed))
        batch = sampler(rng, min(cfg.chunk, cfg.samples - start), start, cfg.samples)
        # the package keeps samples coordinate-major, and numpy sums the
        # norms and the chunk reduction in an order set by the layout; the
        # same values in the same layout give the same bits
        normals = None if batch.normals is None else np.asfortranarray(batch.normals)
        batch = SampleBatch(np.asfortranarray(batch.points), batch.weights, normals)
        values, aux = integrand(batch)
        weighted = batch.weights[:, None] * values
        part_a = weighted.sum(axis=0)
        part_b = float((batch.weights**2 * np.einsum("ij,ij->i", values, values)).sum())
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
    var = max(total_b - float(total_a @ total_a) / cfg.samples, 0.0)
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
    y = np.sqrt(np.einsum("ij,ij->i", points[:, 1:], points[:, 1:]))
    mask = y > _SHELL_FRACTION * radius
    if not mask.any():
        return 0.0
    mags = np.sqrt(np.einsum("ij,ij->i", values[mask], values[mask]))
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
    n = np.sqrt(np.einsum("ij,ij->i", points, points))
    unit = np.zeros_like(points)
    safe = n > 1e-12
    unit[safe] = points[safe] / n[safe, None]
    unit[~safe, 0] = 1.0
    return unit


def cauchy_theorem_check_reference(f, cfg, radius=1.0):
    def integrand(batch):
        return mul_many(batch.normals, f(batch.points)), 0.0

    a, b, _ = _accumulate_reference(sphere_sampler_reference(radius), integrand, cfg)
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
        kernel, _ = szego_strip_values(zc + conj_many(batch.points), domain.d, policy)
        return mul_many(kernel, f(batch.points))

    sampler = strip_boundary_sampler_reference(domain.d, cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 14, 2.0)


def bergman_reproduce_strip_reference(f, z, domain, cfg, policy=TruncationPolicy()):
    zc = z.to_array()

    def integrand(batch):
        kernel, _ = bergman_strip_values(zc + conj_many(batch.points), domain.d, policy)
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
        kernel = szego_half_space_values(zc + conj_many(batch.points))
        return mul_many(kernel, f(batch.points))

    sampler = half_space_sampler_reference(cfg.radius)
    return _flat_reference(sampler, integrand, cfg, 14, 1.0)
