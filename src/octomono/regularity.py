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
from typing import Callable, Iterable, Union

import numpy as np

from .algebra import MUL_IDX, MUL_SGN, PointLike, as_coords, like
from .errors import DomainError, SingularityError

ArrayFn = Callable[[np.ndarray], np.ndarray]

_BASIS = np.eye(8, dtype=np.float64)


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


def q0_many(points: np.ndarray, min_norm: float = 1e-30) -> np.ndarray:
    """Cauchy kernel conj(z)/|z|^8 on a coordinate array (..., 8)."""
    p = np.asarray(points, dtype=np.float64)
    r2 = np.einsum("...i,...i->...", p, p)
    if np.any(r2 < min_norm * min_norm):
        raise SingularityError("Cauchy kernel evaluated too close to 0")
    r8 = (r2 * r2) ** 2
    out = -p / r8[..., None]
    out[..., 0] *= -1.0
    return out


def cauchy_kernel(z: PointLike) -> PointLike:
    """conj(z)/|z|^8, the degree -7 monogenic kernel with pole at 0."""
    return like(z, q0_many(as_coords(z)))


def dq0_dx0_many(points: np.ndarray, min_norm: float = 1e-30) -> np.ndarray:
    """First-coordinate partial of the Cauchy kernel, in closed form."""
    p = np.asarray(points, dtype=np.float64)
    r2 = np.einsum("...i,...i->...", p, p)
    if np.any(r2 < min_norm * min_norm):
        raise SingularityError("Cauchy kernel derivative too close to 0")
    r8 = (r2 * r2) ** 2
    r10 = r8 * r2
    out = p * (8.0 * p[..., :1] / r10[..., None])
    out[..., 0] = 1.0 / r8 - 8.0 * p[..., 0] ** 2 / r10
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


def partial_derivative(f: ArrayFn, z: PointLike, axis: int, h: float = 1e-5) -> PointLike:
    """Central-difference partial along one coordinate axis, at a point or a batch."""
    return like(z, central_difference(f, as_coords(z), _BASIS[axis], h))


def _apply_D(src: np.ndarray, sgn: np.ndarray, f: ArrayFn, z: PointLike, h: float) -> PointLike:
    """The image at a point or at each point of a (..., 8) batch, from one call of f.

    ``f`` receives the whole ``(2, ..., 8, 8)`` stencil, both ends of each
    point's eight steps, so a batch-dependent ``f`` sees one term count.
    """
    zc = as_coords(z)
    rows = central_difference(f, zc[..., None, :], _BASIS, h)  # rows[..., i, :] = df/dxi
    # sum_i e_i * rows[i] (rows[i] * e_i for the right tables), added in the
    # order i = 0..7; a sum started at +0.0 gives a zero the sign the
    # mul_many(_BASIS, rows) form gives it, so for finite rows both agree
    # bit for bit (an inf row gives inf here where 0 * inf made NaN there)
    image = (sgn * rows[..., _ROWS, src]).sum(axis=-2, initial=0.0)
    # the gather leaves the batch axis innermost; C order lets a row's
    # np.sum add its eight coordinates in the order it does for one point
    return like(z, np.ascontiguousarray(image))


def apply_D_left(f: ArrayFn, z: PointLike, h: float = 1e-5) -> PointLike:
    """df/dx0 + sum_i ei * (df/dxi) by central differences."""
    return _apply_D(_L_SRC, _L_SGN, f, z, h)


def apply_D_right(f: ArrayFn, z: PointLike, h: float = 1e-5) -> PointLike:
    """df/dx0 + sum_i (df/dxi) * ei by central differences."""
    return _apply_D(_R_SRC, _R_SGN, f, z, h)


def o_regularity_residual(
    f: ArrayFn,
    points: Union[PointLike, Iterable[PointLike]],
    h: float = 1e-5,
    side: str = "left",
) -> float:
    """Max Cauchy-Riemann image norm over points; near 0 for monogenic f.

    ``points`` is a single point, a batch (n, 8) or an iterable of points.
    Up to 1,024 points are evaluated in one operator call: ``f`` receives
    their whole ``(2, n, 8, 8)`` stencil, so a batch-dependent ``f`` (a
    lattice sum) uses one term count for all of them.  Callers must keep
    every point at distance >= 10h from the singular set of f.
    """
    if side == "left":
        apply = apply_D_left
    elif side == "right":
        apply = apply_D_right
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if np.iterable(points) and not isinstance(points, np.ndarray):
        zs = np.array([as_coords(z) for z in points]).reshape(-1, 8)
    else:
        zs = as_coords(points).reshape(-1, 8)
    worst = 0.0
    for lo in range(0, len(zs), _POINTS_PER_CALL):
        image = apply(f, zs[lo : lo + _POINTS_PER_CALL], h)
        # np.max keeps a NaN norm, where the builtin max(0.0, nan) would drop it
        worst = np.max(np.sqrt(np.sum(image * image, axis=-1)), initial=worst)
    return float(worst)
