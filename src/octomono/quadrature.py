"""Seeded Monte Carlo verification of the reproducing identities.

Each estimator is one call of the engine ``_estimate``, which reduces an
integrand's (n, 8) value rows chunk by chunk, computes the truncation
tail and raises the warnings.  All integrands but the two Cauchy
checks are the pairing (L conj(nu)) (nu f) of ``_paired``: L is conj(g)
or a kernel section, nu is w on the unit sphere, w/|w| in the ball and 1
on the flat regions, where the pairing is L f.

Samples are coordinate-major: each sampler returns its (n, 8) points
and normals as ``f_contiguous`` arrays, whose eight coordinates are each
one contiguous row, drawn from the same Philox draws in the same order
as row-major arrays would be.  The kernels, the test functions and
:func:`~octomono.algebra.mul_many` keep that layout, so no product of an
integrand moves an operand.  The layout also fixes the order in which
numpy sums over the coordinate axis and over a chunk's rows.

The reproduction estimators take a sequence of cases (f, z) and return
one :class:`MCResult` per case, in order; the inner products and
``cauchy_theorem_check`` estimate one integral.  The cases of one call
share one sample stream: each chunk is drawn once, and the shell
statistic's |Im w|, the twist nu and the kernel rows of each run of
consecutive cases at the same z are computed once per chunk.  Each case
keeps its own partial sums, tail and warning.

Determinism contract: for a fixed (seed, samples, chunk) the result is
bit-identical at any thread count, and each case of a call is
bit-identical to a call with that case alone.  Sample index space is
split into fixed-size chunks; chunk i draws from its own counter-based
substream (Philox seeded with spawn_key=(i,)) and each case's partial
sums are reduced in chunk order, so neither scheduling, thread count
nor the other cases can reorder any floating-point operation.

Sampling is plain uniform Monte Carlo over each region (no importance
sampling, no low-discrepancy sequences, no adaptivity).  Unbounded
regions (strip boundary planes, strip volume, half-space boundary) are
truncated at ``radius`` in the imaginary directions; their estimators
name the integrand's decay exponent, the engine extrapolates a tail
estimate from the outermost samples and warns when it is not small
against the result, when the estimate is not finite, or when squared
sample values underflow; it refuses a radius too large for the squares
to be finite.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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
        try:  # radius**7 raises OverflowError past the float range
            finite = math.isfinite(ball7_volume(self.radius))
        except OverflowError:
            finite = False
        if not (self.radius > 0.0 and finite):
            raise DomainError(f"radius must be positive with a finite measure, got {self.radius}")


@dataclass(frozen=True)
class SampleBatch:
    points: np.ndarray
    weights: np.ndarray
    normals: Optional[np.ndarray]


@dataclass(frozen=True)
class Region:
    name: str
    sampler: Callable[[np.random.Generator, int, int, int], SampleBatch]
    measure: float  # total area or volume; no sample weight exceeds it


@dataclass(frozen=True)
class MCResult:
    value: Octonion
    std_err: float
    tail_est: float
    samples: int
    warning: Optional[str]  # the text of the UserWarning the estimate raised, if any


# One reproduction case: the function f (a FunctionHandle or a callable on
# (n, 8) rows) and the evaluation point z.
Case = tuple[object, Octonion]


def _directions(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    n = np.sqrt(np.einsum("ij,ij->i", g, g))
    n[n == 0.0] = 1.0
    return np.divide(g, n[:, None], out=np.empty((dim, count)).T)


def _uniform_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform points of the centred dim-ball: directions drawn first, then radii."""
    dirs = _directions(rng, count, dim)
    r = radius * rng.uniform(size=count) ** (1.0 / dim)
    return r[:, None] * dirs


def sphere_region(radius: float = 1.0, center: Octonion = Octonion()) -> Region:
    area = SPHERE7_AREA * radius**7
    c = center.to_array()

    def sampler(rng, count, start, total):
        dirs = _directions(rng, count, 8)
        weights = np.full(count, area / total)
        return SampleBatch(c + radius * dirs, weights, dirs)

    return Region("sphere", sampler, area)


def ball_region(radius: float = 1.0, center: Octonion = Octonion()) -> Region:
    volume = BALL8_VOLUME * radius**8
    c = center.to_array()

    def sampler(rng, count, start, total):
        pts = c + _uniform_ball(rng, count, 8, radius)
        return SampleBatch(pts, np.full(count, volume / total), None)

    return Region("ball", sampler, volume)


def strip_boundary_region(domain: StripDomain, radius: float) -> Region:
    """Both walls, truncated to |Im w| <= radius; even global sample
    indices land on the wall Re = 0, odd indices on Re = d."""
    plane_measure = ball7_volume(radius)

    def sampler(rng, count, start, total):
        if total < 2:
            raise DomainError("strip boundary sampling needs at least 2 samples")
        pts = np.zeros((count, 8), order="F")
        pts[:, 1:] = _uniform_ball(rng, count, 7, radius)
        idx = start + np.arange(count)
        on_top = (idx % 2) == 1
        pts[on_top, 0] = domain.d
        normals = np.zeros((count, 8), order="F")
        normals[:, 0] = np.where(on_top, 1.0, -1.0)
        n_bottom = (total + 1) // 2
        n_top = total // 2
        weights = np.where(on_top, plane_measure / n_top, plane_measure / n_bottom)
        return SampleBatch(pts, weights, normals)

    return Region("strip_boundary", sampler, 2.0 * plane_measure)


def strip_volume_region(domain: StripDomain, radius: float) -> Region:
    measure = domain.d * ball7_volume(radius)

    def sampler(rng, count, start, total):
        pts = np.empty((count, 8), order="F")
        pts[:, 1:] = _uniform_ball(rng, count, 7, radius)
        pts[:, 0] = rng.uniform(0.0, domain.d, size=count)
        return SampleBatch(pts, np.full(count, measure / total), None)

    return Region("strip_volume", sampler, measure)


def half_space_boundary_region(radius: float) -> Region:
    """The wall Re = 0 of the right half-space, outward normal -e0."""
    plane_measure = ball7_volume(radius)

    def sampler(rng, count, start, total):
        pts = np.zeros((count, 8), order="F")
        pts[:, 1:] = _uniform_ball(rng, count, 7, radius)
        normals = np.zeros((count, 8), order="F")
        normals[:, 0] = -1.0
        weights = np.full(count, plane_measure / total)
        return SampleBatch(pts, weights, normals)

    return Region("half_space_boundary", sampler, plane_measure)


def _chunk_batch(region: Region, cfg: McConfig, i: int) -> SampleBatch:
    """Chunk i's samples, drawn from its own substream (cfg.seed, i)."""
    start = i * cfg.chunk
    count = min(cfg.chunk, cfg.samples - start)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))
    )
    return region.sampler(rng, count, start, cfg.samples)


# ---------------------------------------------------------------------------
# Engine


def _estimate(
    region: Region,
    integrand: Callable[[SampleBatch], Iterator[np.ndarray]],
    cfg: McConfig,
    const: float = REPRO_CONST,
    decay: int = 0,
    width: float = 0.0,
) -> list[MCResult]:
    """const times the weighted sum of each case's (n, 8) value rows.

    ``integrand`` maps a chunk's samples to an iterator that yields one
    block of value rows per case, in case order; the engine reduces each
    block and lets it go before asking for the next, so one case's rows
    are live at a time.  Returns one result per case, in order.

    A nonzero ``decay`` declares that the integrand falls off like
    |Im w|^-decay beyond the truncation radius, across a region of
    transverse ``width``; each case's tail estimate integrates that law
    from its largest shell statistic of any chunk.  Warns, at the
    estimator's caller and once per case that needs it, when an estimate
    is not finite or its tail is not small against it, or when squared
    sample values underflow to zero; the case's result keeps the text as
    ``warning``.

    Refuses, before sampling, a truncation radius at which
    ``radius**decay`` or the square of the region's measure, which
    bounds every squared weight, is not finite.
    """
    try:  # float ** raises OverflowError past the float range
        finite = math.isfinite(cfg.radius**decay) and math.isfinite(region.measure**2)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"the {region.name} region at radius {cfg.radius} is too large: "
            f"radius**{decay} or its squared measure {region.measure:.3e}**2 "
            f"is not a finite float"
        )

    def work(i: int) -> list[tuple[np.ndarray, float, float, bool]]:
        batch = _chunk_batch(region, cfg, i)
        parts = []
        shell_y = None  # |Im w|^decay on the outer calibration shell, and the shell's mask
        for values in integrand(batch):
            weighted = batch.weights[:, None] * values
            part_a = weighted.sum(axis=0)
            part_b = float(
                (batch.weights**2 * np.einsum("ij,ij->i", values, values)).sum()
            )
            # nonzero values whose squares all underflow leave no variance
            underflow = part_b == 0.0 and bool(weighted.any())
            shell = 0.0  # max |value| * |Im w|^decay over the outer calibration shell
            if decay:
                if shell_y is None:
                    y = np.sqrt(np.einsum("ij,ij->i", batch.points[:, 1:], batch.points[:, 1:]))
                    mask = y > SHELL_FRACTION * cfg.radius
                    shell_y = y[mask] ** decay, mask
                    del y
                y_decay, mask = shell_y
                if y_decay.size:
                    mags = np.sqrt(np.einsum("ij,ij->i", values[mask], values[mask]))
                    shell = float((mags * y_decay).max())
                    del mags
            parts.append((part_a, part_b, shell, underflow))
            del values, weighted  # before the next case's rows are built
        return parts

    n_chunks = -(-cfg.samples // cfg.chunk)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            chunks = list(pool.map(work, range(n_chunks)))
    else:
        chunks = [work(i) for i in range(n_chunks)]

    results = []
    for parts in zip(*chunks):  # one case's parts, in fixed chunk order
        result = _case_result(parts, cfg, const, decay, width)
        if result.warning is not None:
            warnings.warn(result.warning, stacklevel=3)
        results.append(result)
    return results


def _case_result(parts, cfg: McConfig, const: float, decay: int, width: float) -> MCResult:
    """One case's result from its per-chunk parts, with the warning it needs, if any."""
    total_a = np.zeros(8)
    total_b = 0.0
    for part_a, part_b, _, _ in parts:  # fixed chunk order
        total_a = total_a + part_a
        total_b += part_b
    tail_est = 0.0
    if decay:
        # np.max keeps a NaN shell statistic, where max(0.0, nan) would drop it
        shell_c = float(np.max([shell for _, _, shell, _ in parts], initial=0.0))
        # integral of shell_c * r^-decay over the truncated exterior,
        # area element ~ SPHERE6_AREA r^6 dr, extra transverse width folded in.
        tail_est = (
            REPRO_CONST
            * shell_c
            * SPHERE6_AREA
            * width
            * cfg.radius ** (7 - decay)
            / (decay - 7)
        )

    var = max(total_b - float(total_a @ total_a) / cfg.samples, 0.0)
    value = Octonion(*(const * total_a))
    std_err = const * math.sqrt(var)
    size = f"|{value.norm():.3e}| +/- {std_err:.3e}"
    if not np.isfinite([*value.coords, std_err, tail_est]).all():
        problem = f"estimate {size} with truncation tail {tail_est:.3e} is not finite"
    elif any(underflow for *_, underflow in parts):
        problem = (
            f"squared sample values underflow to zero, so the estimate {size} "
            f"and its truncation tail {tail_est:.3e} understate its error; "
            f"decrease radius"
        )
    elif tail_est > 0.1 * (value.norm() + std_err):
        problem = (
            f"truncation tail estimate {tail_est:.3e} is not small against the "
            f"result {size}; increase radius"
        )
    else:
        problem = None
    return MCResult(value, std_err, tail_est, cfg.samples, problem)


def _as_handle(f) -> Callable[[np.ndarray], np.ndarray]:
    return f if callable(f) else f.eval_batch


def _kernel_pairs(cases: Sequence[Case], kernel) -> list[tuple[Callable, object]]:
    """(L, f) for each case (f, z) of a reproduction, L the rows kernel(z, w).

    A run of consecutive cases with the same z, bit for bit, shares one
    L, so :func:`_paired` builds its kernel rows once per chunk.
    Refuses an empty case list before any sampling.
    """
    if not cases:
        raise DomainError("a reproduction estimate needs at least one (f, z) case")
    pairs = []
    last_z = None
    for f, z in cases:
        z_bytes = z.to_array().tobytes()
        if z_bytes != last_z:
            left = functools.partial(kernel, z)
            last_z = z_bytes
        pairs.append((left, f))
    return pairs


def _paired(pairs, twist=None) -> Callable[[SampleBatch], Iterator[np.ndarray]]:
    """Integrand (L conj(nu)) (nu f) per (L, f) pair, or L f without a twist.

    ``L`` maps sample points to the rows of L (``conj(g)`` or a kernel
    section) and ``twist`` maps them to the rows of nu.  Per chunk, nu is
    built once, and L conj(nu) once for each run of consecutive pairs
    with the same ``L`` object; a run's rows go before the next run's
    are built.
    """
    pairs = [(left, _as_handle(f)) for left, f in pairs]

    def integrand(batch: SampleBatch) -> Iterator[np.ndarray]:
        points = batch.points
        nu = None
        last = lhs = None
        for left, fn in pairs:
            if left is not last:
                lhs = None  # free the last run's rows before building this run's
                lhs, last = left(points), left
                if twist is not None:
                    # nu comes after the first kernel rows, as in a one-case
                    # call; conj(nu) is not kept, since holding it while the
                    # next run's kernel rows are built adds an (n, 8) array
                    # to the peak
                    if nu is None:
                        nu = twist(points)
                    lhs = mul_many(lhs, conj_many(nu))
            if twist is None:
                yield mul_many(lhs, fn(points))
            else:
                yield mul_many(lhs, mul_many(nu, fn(points)))

    return integrand


def _conj_of(g) -> Callable[[np.ndarray], np.ndarray]:
    gn = _as_handle(g)
    return lambda points: conj_many(gn(points))


def _unit_rows(points: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.einsum("ij,ij->i", points, points))
    safe = n > 1e-12
    unit = np.zeros_like(points)
    np.divide(points, n[:, None], out=unit, where=safe[:, None])
    unit[~safe, 0] = 1.0  # measure-zero center; continuity value
    return unit


# ---------------------------------------------------------------------------
# Sphere and ball estimators


def cauchy_theorem_check(f, cfg: McConfig, radius: float = 1.0) -> MCResult:
    """Estimate of the surface integral of n(w) f(w); near 0 for
    left-monogenic f."""
    fn = _as_handle(f)

    def integrand(batch: SampleBatch):
        yield mul_many(batch.normals, fn(batch.points))

    return _estimate(sphere_region(radius), integrand, cfg, const=1.0)[0]


def cauchy_formula_reproduce(
    cases: Sequence[Case], cfg: McConfig, grouping: str = "normal_first"
) -> list[MCResult]:
    """(3/pi^4) integral of q0(w - z) (n(w) f(w)) over the unit sphere,
    one result per case (f, z).

    ``grouping='normal_first'`` multiplies n(w) f(w) before applying the
    kernel, the order under which reproduction holds;
    ``grouping='kernel_first'`` associates the other way and is exposed
    to make the non-associativity error observable.

    No interior check: for z outside the closed ball the estimate
    targets 0 instead of f(z).
    """
    if grouping not in ("normal_first", "kernel_first"):
        raise ValueError(f"unknown grouping {grouping!r}")
    pairs = [
        (left, _as_handle(f))
        for left, f in _kernel_pairs(cases, lambda z, p: q0_many(p - z.to_array()))
    ]

    def integrand(batch: SampleBatch):
        points, normals = batch.points, batch.normals
        for kernel, fn in pairs:
            if grouping == "normal_first":
                yield mul_many(kernel(points), mul_many(normals, fn(points)))
            else:
                yield mul_many(mul_many(kernel(points), normals), fn(points))

    return _estimate(sphere_region(1.0), integrand, cfg)


def szego_reproduce_ball(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of (S(z, w) conj(w)) (w f(w)) over the unit sphere,
    one result per case (f, z).

    No interior check: exterior z targets 0.
    """
    pairs = _kernel_pairs(cases, szego_ball_values)
    return _estimate(sphere_region(1.0), _paired(pairs, lambda p: p), cfg)


def inner_product_hardy_ball(f, g, cfg: McConfig) -> MCResult:
    """(f, g) = (3/pi^4) integral of (conj(g) conj(w)) (w f) over the unit sphere."""
    return _estimate(sphere_region(1.0), _paired([(_conj_of(g), f)], lambda p: p), cfg)[0]


def bergman_reproduce_ball(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of (B(z, w) conj(w/|w|)) ((w/|w|) f(w)) over the ball,
    one result per case (f, z).

    No interior check: exterior z targets 0.
    """
    pairs = _kernel_pairs(cases, bergman_ball_values)
    return _estimate(ball_region(1.0), _paired(pairs, _unit_rows), cfg)


def inner_product_bergman_ball(f, g, cfg: McConfig) -> MCResult:
    """(f, g) = (3/pi^4) integral of (conj(g) conj(w/|w|)) ((w/|w|) f) over the ball."""
    return _estimate(ball_region(1.0), _paired([(_conj_of(g), f)], _unit_rows), cfg)[0]


# ---------------------------------------------------------------------------
# Strip and half-space estimators; each names its integrand's decay
# exponent in |Im w| and its region's transverse width once


def szego_reproduce_strip(
    cases: Sequence[Case],
    domain: StripDomain,
    cfg: McConfig,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[MCResult]:
    """(3/pi^4) integral of S(z, w) f(w) over both truncated walls, one
    result per case (f, z).

    No interior check on z: for z outside the closed strip the estimate
    targets 0 instead of f(z).
    """

    def kernel(z: Octonion, p: np.ndarray) -> np.ndarray:
        return szego_strip_values(z.to_array() + conj_many(p), domain.d, policy)[0]

    region = strip_boundary_region(domain, cfg.radius)
    pairs = _kernel_pairs(cases, kernel)
    return _estimate(region, _paired(pairs), cfg, decay=14, width=2.0)


def bergman_reproduce_strip(
    cases: Sequence[Case],
    domain: StripDomain,
    cfg: McConfig,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[MCResult]:
    """(3/pi^4) integral of B(z, w) f(w) over the truncated strip volume,
    one result per case (f, z)."""

    def kernel(z: Octonion, p: np.ndarray) -> np.ndarray:
        return bergman_strip_values(z.to_array() + conj_many(p), domain.d, policy)[0]

    region = strip_volume_region(domain, cfg.radius)
    pairs = _kernel_pairs(cases, kernel)
    return _estimate(region, _paired(pairs), cfg, decay=15, width=domain.d)


def inner_product_strip_boundary(
    f, g, domain: StripDomain, cfg: McConfig
) -> MCResult:
    """(f, g) = (3/pi^4) integral of conj(g) f over both truncated walls."""
    region = strip_boundary_region(domain, cfg.radius)
    return _estimate(region, _paired([(_conj_of(g), f)]), cfg, decay=14, width=2.0)[0]


def inner_product_strip_volume(
    f, g, domain: StripDomain, cfg: McConfig
) -> MCResult:
    """(f, g) = (3/pi^4) integral of conj(g) f over the truncated strip volume."""
    region = strip_volume_region(domain, cfg.radius)
    pairs = [(_conj_of(g), f)]
    return _estimate(region, _paired(pairs), cfg, decay=14, width=domain.d)[0]


def szego_reproduce_half_space(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of S(z, w) f(w) over the truncated wall Re = 0,
    one result per case (f, z)."""
    if any(z.real <= 0.0 for _, z in cases):
        raise DomainError("evaluation point must have positive real part")

    def kernel(z: Octonion, p: np.ndarray) -> np.ndarray:
        return szego_half_space_values(z.to_array() + conj_many(p))

    region = half_space_boundary_region(cfg.radius)
    pairs = _kernel_pairs(cases, kernel)
    return _estimate(region, _paired(pairs), cfg, decay=14, width=1.0)
