"""Cauchy-Riemann operators and the degree -7 Cauchy kernel.

The left operator is ``D f = df/dx0 + sum_i ei * (df/dxi)`` and the
right operator multiplies the partials by ``ei`` on the right.  A
function is left (right) monogenic where the corresponding image
vanishes.  Derivatives are central finite differences, so residuals of
truly monogenic functions sit at the truncation floor ``O(h^2 |f'''|)``
rather than at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    MUL_IDX,
    MUL_SGN,
    PointLike,
    as_coords,
    divide_by_power,
    like,
    norm_many,
    norm_sq_many,
)
from .errors import DomainError, SingularityError

ArrayFn = Callable[[np.ndarray], np.ndarray]

_BASIS = np.eye(8, dtype=np.float64)
# |z|^2 below which the Cauchy kernel and its derivative refuse a point
_MIN_NORM_SQ = 1e-30 * 1e-30


def _unit_product_gather(idx: np.ndarray, sgn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Multiplying row i by a unit maps coordinate j to idx[i, j] with sign
    # sgn[i, j]; invert that permutation so output k reads source src[i, k].
    src = np.argsort(idx, axis=1)
    return src, np.take_along_axis(sgn, src, axis=1)


_ROWS = np.arange(8)[:, None]
# Points per operator call in o_regularity_residual: a point's stencil is
# 16 rows of f, so a call holds 16,384 rows and memory stays bounded.
_POINTS_PER_CALL = 1024
# (e_i * r)_k = _L_SGN[i, k] * r[_L_SRC[i, k]];  (r * e_i)_k likewise with _R_*.
_L_SRC, _L_SGN = _unit_product_gather(MUL_IDX, MUL_SGN)
_R_SRC, _R_SGN = _unit_product_gather(MUL_IDX.T, MUL_SGN.T)


@dataclass(frozen=True)
class FiniteDiffConfig:
    """Step size for central differences."""

    h: float = 1e-5

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            # a zero step makes every difference quotient 0/0 = NaN
            raise DomainError(f"finite-difference step must be positive and finite, got {self.h}")


@dataclass(frozen=True)
class FunctionHandle:
    """Named octonion-valued function of an octonion variable.

    ``eval_batch`` maps coordinate arrays of shape (..., 8) to arrays of
    the same shape and must broadcast over leading axes.
    """

    name: str
    eval_batch: ArrayFn

    def __call__(self, z: PointLike) -> PointLike:
        return like(z, self.eval_batch(as_coords(z)))


def q0_many(points: np.ndarray) -> np.ndarray:
    """Cauchy kernel conj(z)/|z|^8 on a coordinate array (..., 8)."""
    p = np.asarray(points, dtype=np.float64)
    r2 = norm_sq_many(p)
    if np.any(r2 < _MIN_NORM_SQ):
        raise SingularityError("Cauchy kernel evaluated too close to 0")
    with np.errstate(over="ignore"):  # the rows past the float range are redone below
        r8 = (r2 * r2) ** 2
    far = np.isinf(r8)
    out = p / r8[..., None]
    if np.any(far):
        # where |p|^8 overflows, p / |p|^8 reads 0: divide by |p|^2 four times
        out[far] = divide_by_power(p[far], r2[far][:, None], 4)
    # IEEE division is symmetric in sign, so negating the quotient gives
    # the bits of -p / r8 without a negated copy of p
    np.negative(out[..., 1:], out=out[..., 1:])
    return out


def cauchy_kernel(z: PointLike) -> PointLike:
    """conj(z)/|z|^8, the degree -7 monogenic kernel with pole at 0."""
    return like(z, q0_many(as_coords(z)))


def dq0_dx0_many(points: np.ndarray) -> np.ndarray:
    """First-coordinate partial of the Cauchy kernel, in closed form."""
    p = np.asarray(points, dtype=np.float64)
    r2 = norm_sq_many(p)
    if np.any(r2 < _MIN_NORM_SQ):
        raise SingularityError("Cauchy kernel derivative too close to 0")
    with np.errstate(over="ignore"):  # the rows past the float range are redone below
        r8 = (r2 * r2) ** 2
        r10 = r8 * r2
        out = p * (8.0 * p[..., :1] / r10[..., None])
        out[..., 0] = 1.0 / r8 - 8.0 * p[..., 0] ** 2 / r10
    far = np.isinf(r10)
    if np.any(far):
        # where |p|^10 overflows, 8 p0 p / |p|^10 reads 0 and the real part's
        # sign flips: divide by |p|^2 first (|8 p0 p| / |p|^2 <= 8), then by
        # |p|^8, or by |p|^2 four times on the rows where |p|^8 is inf too
        pf, r2f, r8f = p[far], r2[far][:, None], r8[far][:, None]
        c = 8.0 * pf[:, :1] / r2f
        num = pf * c
        num[:, 0] = 1.0 - c[:, 0] * pf[:, 0]
        out[far] = np.where(np.isinf(r8f), divide_by_power(num, r2f, 4), num / r8f)
    return out


def dq0_dx0(z: PointLike) -> PointLike:
    return like(z, dq0_dx0_many(as_coords(z)))


def central_difference(f: ArrayFn, zc: np.ndarray, units: np.ndarray, h: float) -> np.ndarray:
    """(f(zc + h e) - f(zc - h e)) / 2h for the unit step rows ``e`` of ``units``.

    ``units`` is one coordinate axis (8,) or a stack of them (k, 8); the
    result has one row per step row, or per point of a batch ``zc``.
    Both ends go to ``f`` in one call, stacked as ``(2, ...)``, so an
    ``f`` whose truncation depends on its batch (a lattice sum takes its
    term count from the largest ``|u|`` or ``|Re u|``) differences one
    truncated function.
    """
    steps = h * units
    up, down = zc + steps, zc - steps
    if np.any(((up == zc) | (down == zc)) & (steps != 0.0)):
        # z + h == z would make that difference quotient exactly 0, a silent
        # pass; a zero step gives 0/0 = NaN, which the residual keeps
        raise DomainError(f"step {h:g} leaves a coordinate of the point unchanged")
    ends = f(np.stack((up, down)))
    return (ends[0] - ends[1]) / (2.0 * h)


def _apply_D(src: np.ndarray, sgn: np.ndarray, f: ArrayFn, z: PointLike, h: float) -> PointLike:
    """The image at a point or at each point of a (..., 8) batch, from one call of f.

    ``f`` receives the whole ``(2, ..., 8, 8)`` stencil, both ends of each
    point's eight steps, so a batch-dependent ``f`` sees one term count.
    """
    zc = as_coords(z)
    rows = central_difference(f, zc[..., None, :], _BASIS, h)  # rows[..., i, :] = df/dxi
    # sum_i e_i * rows[i] (rows[i] * e_i for the right tables), added in the
    # order i = 0..7; a sum started at +0.0 gives a zero the sign the
    # row-major product form, mul_many's bits summed over i = 0..7, gives
    # it, so for finite rows both agree bit for bit (an inf row gives inf
    # here where 0 * inf made NaN there)
    image = (sgn * rows[..., _ROWS, src]).sum(axis=-2, initial=0.0)
    return like(z, image)


def apply_D_left(f: ArrayFn, z: PointLike, h: float = 1e-5) -> PointLike:
    """df/dx0 + sum_i ei * (df/dxi) by central differences."""
    return _apply_D(_L_SRC, _L_SGN, f, z, h)


def apply_D_right(f: ArrayFn, z: PointLike, h: float = 1e-5) -> PointLike:
    """df/dx0 + sum_i (df/dxi) * ei by central differences."""
    return _apply_D(_R_SRC, _R_SGN, f, z, h)


def o_regularity_residual(f: ArrayFn, points: PointLike, h: float = 1e-5) -> float:
    """Max left Cauchy-Riemann image norm over points; near 0 for monogenic f.

    ``points`` is a single point or a batch (n, 8).  Up to 1,024 points
    are evaluated in one operator call: ``f`` receives their whole
    ``(2, n, 8, 8)`` stencil, so a batch-dependent ``f`` (a lattice sum)
    uses one term count for all of them.  Callers must keep every point
    at distance >= 10h from the singular set of f.
    """
    zs = as_coords(points).reshape(-1, 8)
    worst = 0.0
    for lo in range(0, len(zs), _POINTS_PER_CALL):
        image = apply_D_left(f, zs[lo : lo + _POINTS_PER_CALL], h)
        # np.max keeps a NaN norm, where the builtin max(0.0, nan) would drop it
        worst = np.max(norm_many(image), initial=worst)
    return float(worst)
