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
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .algebra import MUL_IDX, MUL_SGN, Octonion
from .errors import DomainError, SingularityError

ArrayFn = Callable[[np.ndarray], np.ndarray]
PointLike = Union[Octonion, np.ndarray]

_BASIS = np.eye(8, dtype=np.float64)


def _unit_product_gather(idx: np.ndarray, sgn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Multiplying row i by a unit maps coordinate j to idx[i, j] with sign
    # sgn[i, j]; invert that permutation so output k reads source src[i, k].
    src = np.argsort(idx, axis=1)
    return src, np.take_along_axis(sgn, src, axis=1)


_ROWS = np.arange(8)[:, None]
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
    the same shape and must broadcast over leading axes.  An optional
    ``domain_guard`` predicate reports whether a point sits far enough
    inside the function's domain for finite-difference probing.
    """

    name: str
    eval_batch: ArrayFn
    domain_guard: Optional[Callable[[np.ndarray], bool]] = None

    def __call__(self, z: PointLike) -> PointLike:
        if isinstance(z, Octonion):
            return Octonion(*self.eval_batch(z.to_array()))
        return self.eval_batch(np.asarray(z, dtype=np.float64))

    def admits(self, z: PointLike) -> bool:
        if self.domain_guard is None:
            return True
        return bool(self.domain_guard(_as_coords(z)))


def _as_coords(z: PointLike) -> np.ndarray:
    if isinstance(z, Octonion):
        return z.to_array()
    return np.asarray(z, dtype=np.float64)


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
    if isinstance(z, Octonion):
        return Octonion(*q0_many(z.to_array()))
    return q0_many(z)


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
    if isinstance(z, Octonion):
        return Octonion(*dq0_dx0_many(z.to_array()))
    return dq0_dx0_many(z)


def partial_derivative(f: ArrayFn, z: PointLike, axis: int, h: float = 1e-5) -> PointLike:
    """Central-difference partial along one coordinate axis."""
    zc = _as_coords(z)
    step = h * _BASIS[axis]
    val = (f(zc + step) - f(zc - step)) / (2.0 * h)
    if isinstance(z, Octonion):
        return Octonion(*val)
    return val


def _jacobian_rows(f: ArrayFn, zc: np.ndarray, h: float) -> np.ndarray:
    # rows[i] = df/dxi at zc, shape (8, 8); one batched call per sign.
    up, down = zc[None, :] + h * _BASIS, zc[None, :] - h * _BASIS
    if h != 0.0 and (np.any(np.diagonal(up) == zc) or np.any(np.diagonal(down) == zc)):
        # z + h == z would make that difference quotient exactly 0, a silent
        # pass; a zero step gives 0/0 = NaN, which the residual keeps
        raise DomainError(f"step {h:g} leaves a coordinate of the point unchanged")
    return (f(up) - f(down)) / (2.0 * h)


def apply_D_left(f: ArrayFn, z: PointLike, h: float = 1e-5) -> PointLike:
    """df/dx0 + sum_i ei * (df/dxi) by central differences."""
    zc = _as_coords(z)
    rows = _jacobian_rows(f, zc, h)
    # sum_i e_i * rows[i]; a sum started at +0.0 gives a zero the sign the
    # mul_many(_BASIS, rows) form gives it, so for finite rows both agree
    # bit for bit (an inf row gives inf here where 0 * inf made NaN there)
    out = (_L_SGN * rows[_ROWS, _L_SRC]).sum(axis=0, initial=0.0)
    if isinstance(z, Octonion):
        return Octonion(*out)
    return out


def apply_D_right(f: ArrayFn, z: PointLike, h: float = 1e-5) -> PointLike:
    """df/dx0 + sum_i (df/dxi) * ei by central differences."""
    zc = _as_coords(z)
    rows = _jacobian_rows(f, zc, h)
    out = (_R_SGN * rows[_ROWS, _R_SRC]).sum(axis=0, initial=0.0)
    if isinstance(z, Octonion):
        return Octonion(*out)
    return out


def o_regularity_residual(
    f: ArrayFn,
    points: Union[PointLike, Iterable[PointLike]],
    h: float = 1e-5,
    side: str = "left",
) -> float:
    """Max Cauchy-Riemann image norm over points; near 0 for monogenic f.

    ``points`` is a single point or an iterable of points.  Callers must
    keep every point at distance >= 10h from the singular set of f.
    """
    if side == "left":
        apply = apply_D_left
    elif side == "right":
        apply = apply_D_right
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if isinstance(points, Octonion) or (
        isinstance(points, np.ndarray) and points.ndim == 1
    ):
        points = [points]
    norms = []
    for z in points:
        image = apply(f, z, h)
        arr = image.to_array() if isinstance(image, Octonion) else np.asarray(image)
        norms.append(np.sqrt(np.sum(arr * arr)))
    # np.max keeps a NaN norm, where the builtin max(0.0, nan) would drop it
    return float(np.max(norms, initial=0.0))
