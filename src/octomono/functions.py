"""Premade octonion-valued test functions.

Everything here is a :class:`~octomono.regularity.FunctionHandle`
operating on coordinate arrays of shape (..., 8), so the same object
feeds the finite-difference operators and the Monte Carlo integrators.
"""

from __future__ import annotations

import numpy as np

from .algebra import Octonion, conj_many, mul_many
from .regularity import FunctionHandle, q0_many


def constant(value: Octonion | float) -> FunctionHandle:
    vo = Octonion(float(value)) if np.isscalar(value) else value
    row = np.array(vo.coords)

    def ev(points: np.ndarray) -> np.ndarray:
        out = np.empty_like(points, dtype=np.float64)
        out[...] = row
        return out

    return FunctionHandle(f"constant({vo})", ev)


def identity_map() -> FunctionHandle:
    def ev(points: np.ndarray) -> np.ndarray:
        return np.array(points, dtype=np.float64, copy=True)

    return FunctionHandle("identity", ev)


def linear_monogenic() -> FunctionHandle:
    """f(x) = x1 - x2 e4; annihilated by the left Cauchy-Riemann operator."""

    def ev(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        out = np.zeros_like(pts)
        out[..., 0] = pts[..., 1]
        out[..., 4] = -pts[..., 2]
        return out

    return FunctionHandle("linear", ev)


def right_multiplied(handle: FunctionHandle, factor: Octonion) -> FunctionHandle:
    """w -> handle(w) * factor; right factors can break left monogenicity."""
    row = np.array(factor.coords)

    def ev(points: np.ndarray) -> np.ndarray:
        return mul_many(handle.eval_batch(points), row)

    return FunctionHandle(f"{handle.name}*({factor})", ev)


def shifted_cauchy_kernel(center: Octonion) -> FunctionHandle:
    """w -> q0(w - center); two-sided monogenic away from the center."""
    row = np.array(center.coords)

    def ev(points: np.ndarray) -> np.ndarray:
        return q0_many(np.asarray(points, dtype=np.float64) - row)

    return FunctionHandle(f"q0(w - ({center}))", ev)


def _ball_section(values, w0: Octonion, name: str) -> FunctionHandle:
    # x -> K(x, w0) = conj(K(w0, x)) for a ball kernel's batched rows K(w0, .)
    def ev(points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return conj_many(values(w0, pts.reshape(-1, 8))).reshape(pts.shape)

    return FunctionHandle(f"{name}(., {w0})", ev)


def szego_ball_section(w0: Octonion) -> FunctionHandle:
    """x -> S(x, w0) on the ball; equals conj(S(w0, x)) by symmetry."""
    from .kernels import szego_ball_values

    return _ball_section(szego_ball_values, w0, "szego_ball")


def bergman_ball_section(w0: Octonion) -> FunctionHandle:
    """x -> B(x, w0) on the ball; equals conj(B(w0, x)) by symmetry."""
    from .kernels import bergman_ball_values

    return _ball_section(bergman_ball_values, w0, "bergman_ball")

