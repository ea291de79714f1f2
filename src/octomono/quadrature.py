"""Seeded Monte Carlo verification of the reproducing identities.

Determinism contract: for a fixed (seed, samples, chunk) the result is
bit-identical at any thread count.  Sample index space is split into
fixed-size chunks; chunk i draws from its own counter-based substream
(Philox seeded with spawn_key=(i,)) and partial sums are reduced in
chunk order, so neither scheduling nor thread count can reorder any
floating-point operation.

Sampling is plain uniform Monte Carlo over each region (no importance
sampling, no low-discrepancy sequences, no adaptivity).  Unbounded
regions (strip boundary planes, strip volume, half-space boundary) are
truncated at ``radius`` in the imaginary directions; estimators report
a truncation tail estimate calibrated from the outermost samples, and
warn when it is not small against the result.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import Octonion, conj_many, mul_many
from .errors import DomainError
from .kernels import (
    StripDomain,
    bergman_ball_values,
    bergman_strip_values,
    szego_ball_values,
    szego_half_space_values,
    szego_strip_values,
)
from .regularity import q0_many
from .trig_series import TruncationPolicy

SPHERE7_AREA = math.pi**4 / 3.0
BALL8_VOLUME = math.pi**4 / 24.0
SPHERE6_AREA = 16.0 * math.pi**3 / 15.0
REPRO_CONST = 3.0 / math.pi**4

# Samples with |imaginary part| above this fraction of the truncation
# radius calibrate the tail estimate.
SHELL_FRACTION = 0.8


def ball7_volume(radius: float) -> float:
    return 16.0 * math.pi**3 * radius**7 / 105.0


@dataclass(frozen=True)
class McConfig:
    seed: int = 42
    samples: int = 100_000
    radius: float = 50.0
    chunk: int = 131_072
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("samples", "chunk", "threads"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.radius < math.inf:
            raise DomainError(f"radius must be positive and finite, got {self.radius}")


@dataclass(frozen=True)
class SampleBatch:
    points: np.ndarray
    weights: np.ndarray
    normals: Optional[np.ndarray]


@dataclass(frozen=True)
class Region:
    name: str
    kind: str  # "boundary" or "volume"
    sampler: Callable[[np.random.Generator, int, int, int], SampleBatch]


@dataclass(frozen=True)
class MCResult:
    value: Octonion
    std_err: float
    tail_est: float
    samples: int


Integrand = Callable[[SampleBatch], tuple[np.ndarray, float]]


def _directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    n = np.sqrt(np.einsum("ij,ij->i", g, g))
    n[n == 0.0] = 1.0
    return g / n[:, None]


def sphere_region(radius: float = 1.0, center: Octonion = Octonion()) -> Region:
    area = SPHERE7_AREA * radius**7
    c = center.to_array()

    def sampler(rng, count, start, total):
        dirs = _directions(rng, count, 8)
        weights = np.full(count, area / total)
        return SampleBatch(c + radius * dirs, weights, dirs)

    return Region("sphere", "boundary", sampler)


def ball_region(radius: float = 1.0, center: Octonion = Octonion()) -> Region:
    volume = BALL8_VOLUME * radius**8
    c = center.to_array()

    def sampler(rng, count, start, total):
        dirs = _directions(rng, count, 8)
        r = radius * rng.uniform(size=count) ** 0.125
        weights = np.full(count, volume / total)
        return SampleBatch(c + r[:, None] * dirs, weights, None)

    return Region("ball", "volume", sampler)


def strip_boundary_region(domain: StripDomain, radius: float) -> Region:
    """Both walls, truncated to |Im w| <= radius; even global sample
    indices land on the wall Re = 0, odd indices on Re = d."""
    plane_measure = ball7_volume(radius)

    def sampler(rng, count, start, total):
        if total < 2:
            raise DomainError("strip boundary sampling needs at least 2 samples")
        dirs = _directions(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        pts = np.zeros((count, 8))
        pts[:, 1:] = r[:, None] * dirs
        idx = start + np.arange(count)
        on_top = (idx % 2) == 1
        pts[on_top, 0] = domain.d
        normals = np.zeros((count, 8))
        normals[:, 0] = np.where(on_top, 1.0, -1.0)
        n_bottom = (total + 1) // 2
        n_top = total // 2
        weights = np.where(on_top, plane_measure / n_top, plane_measure / n_bottom)
        return SampleBatch(pts, weights, normals)

    return Region("strip_boundary", "boundary", sampler)


def strip_volume_region(domain: StripDomain, radius: float) -> Region:
    measure = domain.d * ball7_volume(radius)

    def sampler(rng, count, start, total):
        dirs = _directions(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        x0 = rng.uniform(0.0, domain.d, size=count)
        pts = np.empty((count, 8))
        pts[:, 0] = x0
        pts[:, 1:] = r[:, None] * dirs
        weights = np.full(count, measure / total)
        return SampleBatch(pts, weights, None)

    return Region("strip_volume", "volume", sampler)


def half_space_boundary_region(radius: float) -> Region:
    """The wall Re = 0 of the right half-space, outward normal -e0."""
    plane_measure = ball7_volume(radius)

    def sampler(rng, count, start, total):
        dirs = _directions(rng, count, 7)
        r = radius * rng.uniform(size=count) ** (1.0 / 7.0)
        pts = np.zeros((count, 8))
        pts[:, 1:] = r[:, None] * dirs
        normals = np.zeros((count, 8))
        normals[:, 0] = -1.0
        weights = np.full(count, plane_measure / total)
        return SampleBatch(pts, weights, normals)

    return Region("half_space_boundary", "boundary", sampler)


def _chunk_batch(region: Region, cfg: McConfig, i: int) -> SampleBatch:
    """Chunk i's samples, drawn from its own substream (cfg.seed, i)."""
    start = i * cfg.chunk
    count = min(cfg.chunk, cfg.samples - start)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))
    )
    return region.sampler(rng, count, start, cfg.samples)


def sample(region: Region, cfg: McConfig):
    """Yield the deterministic sample batches of a run, one per chunk.

    Each chunk draws from its own counter-based substream keyed by
    (cfg.seed, chunk index), so the stream is identical to what the
    estimators consume and independent of the thread count.
    """
    for i in range(-(-cfg.samples // cfg.chunk)):
        yield _chunk_batch(region, cfg, i)


# ---------------------------------------------------------------------------
# Engine


def _accumulate(
    region: Region, integrand: Integrand, cfg: McConfig
) -> tuple[np.ndarray, float, float]:
    def work(i: int) -> tuple[np.ndarray, float, float]:
        batch = _chunk_batch(region, cfg, i)
        values, aux = integrand(batch)
        weighted = batch.weights[:, None] * values
        part_a = weighted.sum(axis=0)
        part_b = float(
            (batch.weights**2 * np.einsum("ij,ij->i", values, values)).sum()
        )
        return part_a, part_b, aux

    n_chunks = -(-cfg.samples // cfg.chunk)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(work, range(n_chunks)))
    else:
        parts = [work(i) for i in range(n_chunks)]

    total_a = np.zeros(8)
    total_b = 0.0
    for part_a, part_b, _ in parts:  # fixed chunk order
        total_a = total_a + part_a
        total_b += part_b
    # np.max keeps a NaN shell statistic, where max(0.0, nan) would drop it
    aux_max = float(np.max([aux for _, _, aux in parts], initial=0.0))
    return total_a, total_b, aux_max


def _result(
    total_a: np.ndarray,
    total_b: float,
    cfg: McConfig,
    const: float,
    tail_est: float = 0.0,
) -> MCResult:
    var = max(total_b - float(total_a @ total_a) / cfg.samples, 0.0)
    value = Octonion(*(const * total_a))
    result = MCResult(value, const * math.sqrt(var), tail_est, cfg.samples)
    if tail_est > 0.1 * (value.norm() + result.std_err):
        warnings.warn(
            f"truncation tail estimate {tail_est:.3e} is not small against the "
            f"result |{value.norm():.3e}| +/- {result.std_err:.3e}; increase radius",
            stacklevel=3,
        )
    return result


def _shell_stat(
    values: np.ndarray, points: np.ndarray, radius: float, decay: int
) -> float:
    """max |integrand| * |Im w|^decay over the outer calibration shell."""
    y = np.sqrt(np.einsum("ij,ij->i", points[:, 1:], points[:, 1:]))
    mask = y > SHELL_FRACTION * radius
    if not mask.any():
        return 0.0
    mags = np.sqrt(np.einsum("ij,ij->i", values[mask], values[mask]))
    return float((mags * y[mask] ** decay).max())


def _tail_estimate(shell_c: float, radius: float, decay: int, width: float) -> float:
    # integral of shell_c * r^-decay over the truncated exterior,
    # area element ~ SPHERE6_AREA r^6 dr, extra transverse width folded in.
    return (
        REPRO_CONST
        * shell_c
        * SPHERE6_AREA
        * width
        * radius ** (7 - decay)
        / (decay - 7)
    )


def _as_handle(f) -> Callable[[np.ndarray], np.ndarray]:
    return f if callable(f) else f.eval_batch


# ---------------------------------------------------------------------------
# Sphere and ball estimators


def cauchy_theorem_check(f, cfg: McConfig, radius: float = 1.0) -> MCResult:
    """Estimate of the surface integral of n(w) f(w); near 0 for
    left-monogenic f."""
    fn = _as_handle(f)

    def integrand(batch: SampleBatch):
        return mul_many(batch.normals, fn(batch.points)), 0.0

    a, b, _ = _accumulate(sphere_region(radius), integrand, cfg)
    return _result(a, b, cfg, 1.0)


def cauchy_formula_reproduce(
    f, z: Octonion, cfg: McConfig, grouping: str = "normal_first"
) -> MCResult:
    """(3/pi^4) integral of q0(w - z) (n(w) f(w)) over the unit sphere.

    ``grouping='normal_first'`` multiplies n(w) f(w) before applying the
    kernel, the order under which reproduction holds;
    ``grouping='kernel_first'`` associates the other way and is exposed
    to make the non-associativity error observable.

    No interior check: for z outside the closed ball the estimate
    targets 0 instead of f(z).
    """
    if grouping not in ("normal_first", "kernel_first"):
        raise ValueError(f"unknown grouping {grouping!r}")
    fn = _as_handle(f)
    zc = z.to_array()

    def integrand(batch: SampleBatch):
        kernel = q0_many(batch.points - zc)
        if grouping == "normal_first":
            vals = mul_many(kernel, mul_many(batch.normals, fn(batch.points)))
        else:
            vals = mul_many(mul_many(kernel, batch.normals), fn(batch.points))
        return vals, 0.0

    a, b, _ = _accumulate(sphere_region(1.0), integrand, cfg)
    return _result(a, b, cfg, REPRO_CONST)


def szego_reproduce_ball(f, z: Octonion, cfg: McConfig) -> MCResult:
    """(3/pi^4) integral of (S(z, w) conj(w)) (w f(w)) over the unit sphere.

    No interior check: exterior z targets 0.
    """
    fn = _as_handle(f)

    def integrand(batch: SampleBatch):
        kernel = szego_ball_values(z, batch.points)
        left = mul_many(kernel, conj_many(batch.points))
        right = mul_many(batch.points, fn(batch.points))
        return mul_many(left, right), 0.0

    a, b, _ = _accumulate(sphere_region(1.0), integrand, cfg)
    return _result(a, b, cfg, REPRO_CONST)


def inner_product_hardy_ball(f, g, cfg: McConfig) -> MCResult:
    """(f, g) = (3/pi^4) integral of (conj(g) conj(w)) (w f) over the unit sphere."""
    fn, gn = _as_handle(f), _as_handle(g)

    def integrand(batch: SampleBatch):
        left = mul_many(conj_many(gn(batch.points)), conj_many(batch.points))
        right = mul_many(batch.points, fn(batch.points))
        return mul_many(left, right), 0.0

    a, b, _ = _accumulate(sphere_region(1.0), integrand, cfg)
    return _result(a, b, cfg, REPRO_CONST)


def _unit_rows(points: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.einsum("ij,ij->i", points, points))
    unit = np.zeros_like(points)
    safe = n > 1e-12
    unit[safe] = points[safe] / n[safe, None]
    unit[~safe, 0] = 1.0  # measure-zero center; continuity value
    return unit


def bergman_reproduce_ball(f, z: Octonion, cfg: McConfig) -> MCResult:
    """(3/pi^4) integral of (B(z, w) conj(w/|w|)) ((w/|w|) f(w)) over the ball.

    No interior check: exterior z targets 0.
    """
    fn = _as_handle(f)

    def integrand(batch: SampleBatch):
        unit = _unit_rows(batch.points)
        kernel = bergman_ball_values(z, batch.points)
        left = mul_many(kernel, conj_many(unit))
        right = mul_many(unit, fn(batch.points))
        return mul_many(left, right), 0.0

    a, b, _ = _accumulate(ball_region(1.0), integrand, cfg)
    return _result(a, b, cfg, REPRO_CONST)


def inner_product_bergman_ball(f, g, cfg: McConfig) -> MCResult:
    """(f, g) = (3/pi^4) integral of (conj(g) conj(w/|w|)) ((w/|w|) f) over the ball."""
    fn, gn = _as_handle(f), _as_handle(g)

    def integrand(batch: SampleBatch):
        unit = _unit_rows(batch.points)
        left = mul_many(conj_many(gn(batch.points)), conj_many(unit))
        right = mul_many(unit, fn(batch.points))
        return mul_many(left, right), 0.0

    a, b, _ = _accumulate(ball_region(1.0), integrand, cfg)
    return _result(a, b, cfg, REPRO_CONST)


# ---------------------------------------------------------------------------
# Strip and half-space estimators


def szego_reproduce_strip(
    f,
    z: Octonion,
    domain: StripDomain,
    cfg: McConfig,
    policy: TruncationPolicy = TruncationPolicy(),
) -> MCResult:
    """(3/pi^4) integral of S(z, w) f(w) over both truncated walls.

    No interior check on z: for z outside the closed strip the estimate
    targets 0 instead of f(z).
    """
    fn = _as_handle(f)
    zc = z.to_array()

    def integrand(batch: SampleBatch):
        u = zc + conj_many(batch.points)
        kernel, _ = szego_strip_values(u, domain.d, policy)
        vals = mul_many(kernel, fn(batch.points))
        return vals, _shell_stat(vals, batch.points, cfg.radius, 14)

    region = strip_boundary_region(domain, cfg.radius)
    a, b, shell_c = _accumulate(region, integrand, cfg)
    tail = _tail_estimate(shell_c, cfg.radius, 14, 2.0)
    return _result(a, b, cfg, REPRO_CONST, tail)


def bergman_reproduce_strip(
    f,
    z: Octonion,
    domain: StripDomain,
    cfg: McConfig,
    policy: TruncationPolicy = TruncationPolicy(),
) -> MCResult:
    """(3/pi^4) integral of B(z, w) f(w) over the truncated strip volume."""
    fn = _as_handle(f)
    zc = z.to_array()

    def integrand(batch: SampleBatch):
        u = zc + conj_many(batch.points)
        kernel, _ = bergman_strip_values(u, domain.d, policy)
        vals = mul_many(kernel, fn(batch.points))
        return vals, _shell_stat(vals, batch.points, cfg.radius, 15)

    region = strip_volume_region(domain, cfg.radius)
    a, b, shell_c = _accumulate(region, integrand, cfg)
    tail = _tail_estimate(shell_c, cfg.radius, 15, domain.d)
    return _result(a, b, cfg, REPRO_CONST, tail)


def inner_product_strip_boundary(
    f, g, domain: StripDomain, cfg: McConfig
) -> MCResult:
    """(f, g) = (3/pi^4) integral of conj(g) f over both truncated walls."""
    fn, gn = _as_handle(f), _as_handle(g)

    def integrand(batch: SampleBatch):
        vals = mul_many(conj_many(gn(batch.points)), fn(batch.points))
        return vals, _shell_stat(vals, batch.points, cfg.radius, 14)

    region = strip_boundary_region(domain, cfg.radius)
    a, b, shell_c = _accumulate(region, integrand, cfg)
    tail = _tail_estimate(shell_c, cfg.radius, 14, 2.0)
    return _result(a, b, cfg, REPRO_CONST, tail)


def inner_product_strip_volume(
    f, g, domain: StripDomain, cfg: McConfig
) -> MCResult:
    """(f, g) = (3/pi^4) integral of conj(g) f over the truncated strip volume."""
    fn, gn = _as_handle(f), _as_handle(g)

    def integrand(batch: SampleBatch):
        vals = mul_many(conj_many(gn(batch.points)), fn(batch.points))
        return vals, _shell_stat(vals, batch.points, cfg.radius, 14)

    region = strip_volume_region(domain, cfg.radius)
    a, b, shell_c = _accumulate(region, integrand, cfg)
    tail = _tail_estimate(shell_c, cfg.radius, 14, domain.d)
    return _result(a, b, cfg, REPRO_CONST, tail)


def szego_reproduce_half_space(f, z: Octonion, cfg: McConfig) -> MCResult:
    """(3/pi^4) integral of S(z, w) f(w) over the truncated wall Re = 0."""
    if z.real <= 0.0:
        raise DomainError("evaluation point must have positive real part")
    fn = _as_handle(f)
    zc = z.to_array()

    def integrand(batch: SampleBatch):
        u = zc + conj_many(batch.points)
        kernel = szego_half_space_values(u)
        vals = mul_many(kernel, fn(batch.points))
        return vals, _shell_stat(vals, batch.points, cfg.radius, 14)

    region = half_space_boundary_region(cfg.radius)
    a, b, shell_c = _accumulate(region, integrand, cfg)
    tail = _tail_estimate(shell_c, cfg.radius, 14, 1.0)
    return _result(a, b, cfg, REPRO_CONST, tail)
