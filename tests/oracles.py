"""Independent reference computations used as test oracles.

Everything here is deliberately written from scratch against plain
numpy/scipy: brute-force lattice sums with an inline kernel, and
deterministic Simpson quadrature for the flat-domain reproduction
integrals (reduced to 1-D/2-D by rotational symmetry).  Nothing imports
the package's own series or quadrature code.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import simpson

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


def _strip_batch_terms(u: np.ndarray, step: float, margin: float) -> int:
    norms = np.sqrt(np.einsum("ij,ij->i", u, u))
    return int(np.floor((float(norms.max()) + margin) / step)) + 1


def szego_strip_values_reference(
    u: np.ndarray, d: float, tail_tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """The original per-k loop for the Szego strip kernel, kept as a bit-level oracle.

    Each row's terms are added in the order k = -n..n into accumulators
    that start at +0.0.
    """
    u = np.asarray(u, dtype=np.float64)
    step = 2.0 * d
    margin = (1.0 / (3.0 * step * tail_tol)) ** (1.0 / 6.0)
    n_side = _strip_batch_terms(u, step, margin)
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
    out = np.empty_like(u)
    out[:, 0] = acc_re
    out[:, 1:] = -uim * acc_im[:, None]
    norms = np.sqrt(u0 * u0 + s2)
    tail = (1.0 / (3.0 * step)) * (step * n_side - float(norms.max())) ** -6
    return out, tail


def bergman_strip_values_reference(
    u: np.ndarray, d: float, tail_tol: float = 1e-12
) -> tuple[np.ndarray, float]:
    """The original per-k loop for the Bergman strip kernel, kept as a bit-level oracle."""
    u = np.asarray(u, dtype=np.float64)
    step = 2.0 * d
    margin = (18.0 / (7.0 * step * tail_tol)) ** (1.0 / 7.0)
    n_side = _strip_batch_terms(u, step, margin)
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
    out = np.empty_like(u)
    out[:, 0] = -2.0 * acc_re
    out[:, 1:] = -2.0 * uim * acc_im[:, None]
    norms = np.sqrt(u0 * u0 + s2)
    tail = 2.0 * (18.0 / (7.0 * step)) * (step * n_side - float(norms.max())) ** -7
    return out, tail


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
