"""Seeded Monte Carlo verification of the reproducing identities.

Each estimator is one call of the engine ``_estimate``, which reduces an
integrand's (n, 8) value rows chunk by chunk, computes the truncation
tail and raises the warnings.  Every integrand is the pairing
(L conj(nu)) (nu f) of ``_paired``: L is conj(g) or a kernel section,
and nu is w on the unit sphere and w/|w| in the unit ball.  Without a
twist nu the pairing is L f: on the flat regions, and in the Cauchy
checks, where it is n f or q0(w - z) (n f), n = w the sphere's normal.

Samples are points and weights, coordinate-major: each sampler returns
its (n, 8) points as an ``f_contiguous`` array, whose eight coordinates
are each one contiguous row, which the generator fills directly, a
coordinate at a time (:func:`_directions`).  The kernels and the test
functions keep that layout, so the products of an integrand read
contiguous rows.  Every integrand ends in a
:func:`~octomono.algebra.mul_many` product, which is coordinate-major
for any operand, so the engine reduces one layout: each coordinate of a
chunk's weighted values is summed on its own, and an estimate's bits do
not depend on the layout a test function returns.

The reproduction estimators take a sequence of cases (f, z) and return
one :class:`MCResult` per case, in order; the inner products and
``cauchy_theorem_check`` estimate one integral.  The cases of one call
share one sample stream: each chunk is drawn once and cut into blocks
of at most :data:`~octomono.algebra.BLOCK_ROWS` rows, the package's one
row block, and the shell statistic's |Im w|, the twist nu and the
kernel rows of each run of consecutive cases at the same z are computed
once per block.  Each case keeps its own partial sums, tail and warning.
:func:`~octomono.algebra.mul_many` cuts its batches by the same
constant, so each product of an engine block is one block of it.

The blocks are the nodes of numpy's pairwise-summation tree over the
chunk (:func:`_tree_reduce`), so the block sums added back up that tree
have the bits of numpy's sum over the whole chunk.

Determinism contract: for a fixed (seed, samples, chunk) the result is
bit-identical at any thread count, and each case of a call is
bit-identical to a call with that case alone.  Sample index space is
split into fixed-size chunks; chunk i draws from its own substream, an
SFC64 generator seeded with ``SeedSequence(entropy=seed,
spawn_key=(i,))`` and so keyed only by (seed, i), and each case's
partial sums are reduced in chunk order, so neither scheduling, thread
count nor the other cases can reorder any floating-point operation.  The
blocks depend only on a chunk's length, and every step of an integrand
works row by row but one: the strip lattice sums take their term count
and tail bound, which routes rows between the closed form and the
direct sum, from the largest |Re u| of a block.  On the strip walls
every block holds both walls, so that is its chunk's; in the strip
volume it can fall short of it, and a row the closed form does not
certify (real or near-real u) may then get other bits than in one sum
over the chunk, with a term count that still meets the tail tolerance.

Sampling is plain uniform Monte Carlo over each region (no importance
sampling, no low-discrepancy sequences, no adaptivity).  Unbounded
regions (strip boundary planes, strip volume, half-space boundary) are
truncated at ``radius`` in the imaginary directions; their estimators
name the integrand's decay exponent and their :class:`Region` the
transverse width the tail law integrates over.  The engine extrapolates
a tail estimate from the outermost samples and warns when it is not
small against the result, when the estimate is not finite, or when
squared sample values underflow; it refuses a radius at which the
squares or the tail law leave the float range.
"""

from __future__ import annotations

import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .algebra import BLOCK_ROWS, Octonion, conj_many, mul_many, norm_many, norm_sq_many
from .errors import DomainError
from .kernels import (
    StripDomain,
    bergman_ball_values,
    bergman_strip_values,
    szego_ball_values,
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
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise DomainError(f"seed must be >= 0, got {self.seed}")
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


@dataclass(frozen=True)
class Region:
    name: str
    sampler: Callable[[np.random.Generator, int, int, int], SampleBatch]
    measure: float  # total area or volume; no sample weight exceeds it
    width: float = 0.0  # transverse width the tail law integrates over


@dataclass(frozen=True)
class MCResult:
    value: Octonion
    std_err: float
    tail_est: float
    warning: Optional[str]  # the text of the UserWarning the estimate raised, if any


# One reproduction case: the function f (a FunctionHandle or a callable on
# (n, 8) rows) and the evaluation point z.
Case = tuple[object, Octonion]


def _directions(
    rng: np.random.Generator, count: int, dim: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Uniform unit rows of a coordinate-major (count, dim) array, written
    to ``out`` if given.  Standard normal draws fill the coordinate rows in
    order, ``count`` each, and are divided in place by each sample's norm."""
    dirs = np.empty((dim, count)).T if out is None else out
    rng.standard_normal(out=dirs.T)
    n = np.sqrt(norm_sq_many(dirs))
    n[n == 0.0] = 1.0
    np.divide(dirs.T, n, out=dirs.T)
    return dirs


def _uniform_ball(
    rng: np.random.Generator, count: int, dim: int, radius: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Uniform points of the centred dim-ball, coordinate-major: directions
    drawn first, then radii.  Written to ``out`` if given."""
    pts = _directions(rng, count, dim, out)
    r = radius * rng.uniform(size=count) ** (1.0 / dim)
    np.multiply(pts.T, r, out=pts.T)
    return pts


def sphere_region() -> Region:
    """The unit sphere at the origin, whose points are their own normals."""

    def sampler(rng, count, start, total):
        return SampleBatch(_directions(rng, count, 8), np.full(count, SPHERE7_AREA / total))

    return Region("sphere", sampler, SPHERE7_AREA)


def ball_region() -> Region:
    """The unit ball at the origin."""

    def sampler(rng, count, start, total):
        pts = _uniform_ball(rng, count, 8, 1.0)
        return SampleBatch(pts, np.full(count, BALL8_VOLUME / total))

    return Region("ball", sampler, BALL8_VOLUME)


def strip_boundary_region(domain: StripDomain, radius: float) -> Region:
    """Both walls, truncated to |Im w| <= radius; even global sample
    indices land on the wall Re = 0, odd indices on Re = d."""
    plane_measure = ball7_volume(radius)

    def sampler(rng, count, start, total):
        if total < 2:
            raise DomainError("strip boundary sampling needs at least 2 samples")
        pts = np.zeros((count, 8), order="F")
        _uniform_ball(rng, count, 7, radius, out=pts[:, 1:])
        bottom = start % 2  # the first local row with an even global index
        top = 1 - bottom
        pts[top::2, 0] = domain.d
        weights = np.empty(count)
        weights[bottom::2] = plane_measure / ((total + 1) // 2)
        weights[top::2] = plane_measure / (total // 2)
        return SampleBatch(pts, weights)

    return Region("strip_boundary", sampler, 2.0 * plane_measure, width=2.0)


def strip_volume_region(domain: StripDomain, radius: float) -> Region:
    measure = domain.d * ball7_volume(radius)

    def sampler(rng, count, start, total):
        pts = np.empty((count, 8), order="F")
        _uniform_ball(rng, count, 7, radius, out=pts[:, 1:])
        pts[:, 0] = rng.uniform(0.0, domain.d, size=count)
        return SampleBatch(pts, np.full(count, measure / total))

    return Region("strip_volume", sampler, measure, width=domain.d)


def half_space_boundary_region(radius: float) -> Region:
    """The wall Re = 0 of the right half-space."""
    plane_measure = ball7_volume(radius)

    def sampler(rng, count, start, total):
        pts = np.zeros((count, 8), order="F")
        _uniform_ball(rng, count, 7, radius, out=pts[:, 1:])
        return SampleBatch(pts, np.full(count, plane_measure / total))

    return Region("half_space_boundary", sampler, plane_measure, width=1.0)


def _chunk_batch(region: Region, cfg: McConfig, i: int) -> SampleBatch:
    """Chunk i's samples, drawn from its own substream (cfg.seed, i)."""
    start = i * cfg.chunk
    count = min(cfg.chunk, cfg.samples - start)
    rng = np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(i,)))
    )
    return region.sampler(rng, count, start, cfg.samples)


# ---------------------------------------------------------------------------
# Engine


def _tree_reduce(n: int, leaf: Callable, combine: Callable, lo: int = 0):
    """``leaf(lo, hi)`` on each block of rows of numpy's pairwise-sum tree
    over the n rows from ``lo``, combined up that tree, left to right.

    numpy sums a contiguous array of n > 128 terms as the sum of its
    first ``n2 = n//2 - (n//2) % 8`` terms and the rest, each summed the
    same way; the blocks are the nodes of that tree that hold at most
    :data:`~octomono.algebra.BLOCK_ROWS` rows, the row block of
    :func:`~octomono.algebra.mul_many`, so a block's products are not cut
    again.  The bound is more than 128, where numpy's pairwise tree has
    leaves of its own.  So with ``leaf`` numpy's ``.sum()`` of a
    block's terms and ``combine`` an IEEE add, the result has the bits
    of ``.sum()`` of all n terms: a block's ``.sum()`` starts at +0.0,
    which changes a partial sum only where it is -0.0 and then only to
    +0.0, as the whole sum's own start at +0.0 does.
    """
    if n <= BLOCK_ROWS:
        return leaf(lo, lo + n)
    half = n // 2
    n2 = half - half % 8
    return combine(
        _tree_reduce(n2, leaf, combine, lo), _tree_reduce(n - n2, leaf, combine, lo + n2)
    )


def _add_parts(left: list, right: list) -> list:
    """Each case's parts over two neighbouring blocks of rows, combined."""
    return [
        # np.maximum keeps a NaN shell statistic, where max(0.0, nan) would drop it
        (a1 + a2, b1 + b2, float(np.maximum(s1, s2)), z1 or z2)
        for (a1, b1, s1, z1), (a2, b2, s2, z2) in zip(left, right)
    ]


def _rows(batch: SampleBatch, lo: int, hi: int) -> SampleBatch:
    """The samples lo:hi of a batch, as views."""
    return SampleBatch(batch.points[lo:hi], batch.weights[lo:hi])


def _estimate(
    region: Region,
    integrand: Callable[[SampleBatch], Iterator[np.ndarray]],
    cfg: McConfig,
    const: float = REPRO_CONST,
    decay: int = 0,
) -> list[MCResult]:
    """const times the weighted sum of each case's (n, 8) value rows.

    Each chunk is drawn once and cut into the blocks of
    :func:`_tree_reduce`.  ``integrand`` maps a block's samples to an
    iterator that yields one array of value rows per case, in case
    order; the engine reduces each array and lets it go before asking
    for the next, so one case's rows of one block are live at a time.
    Returns one result per case, in order.

    A nonzero ``decay`` declares that the integrand falls off like
    |Im w|^-decay beyond the truncation radius, across the region's
    transverse ``width``; each case's tail estimate integrates that law
    from its largest shell statistic of any chunk.  Warns, at the
    estimator's caller and once per case that needs it, when an estimate
    is not finite or its tail is not small against it, or when squared
    sample values underflow to zero; the case's result keeps the text as
    ``warning``.

    Refuses, before sampling, a truncation radius at which
    ``radius**decay``, the tail law's ``radius**(7 - decay)`` or the
    square of the region's measure, which bounds every squared weight,
    is not finite.
    """
    try:  # float ** raises OverflowError past the float range
        bounds = (cfg.radius**decay, cfg.radius ** (7 - decay), region.measure**2)
        finite = all(map(math.isfinite, bounds))
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(
            f"the {region.name} region at radius {cfg.radius} is too large or too small: "
            f"radius**{decay}, radius**{7 - decay} or its squared measure "
            f"{region.measure:.3e}**2 is not a finite float"
        )

    def block_parts(block: SampleBatch) -> list[tuple[np.ndarray, float, float, bool]]:
        """Each case's parts over one block: the weighted values' and the
        weighted squares' sums, the shell statistic, and whether a
        weighted value is nonzero where the squares sum to 0."""
        w2 = block.weights**2
        parts = []
        shell_y = None  # |Im w|^decay on the outer calibration shell, and the shell's mask
        for values in integrand(block):
            buf = norm_sq_many(values)  # the squared norms, for the shell too
            shell = 0.0  # max |value| * |Im w|^decay over the outer calibration shell
            if decay:
                if shell_y is None:
                    y = norm_many(block.points[:, 1:])
                    mask = y > SHELL_FRACTION * cfg.radius
                    shell_y = y[mask] ** decay, mask
                    del y
                y_decay, mask = shell_y
                if y_decay.size:
                    shell = float((np.sqrt(buf[mask]) * y_decay).max())
            # then the weighted squares, then one coordinate's weighted values
            buf *= w2
            part_b = float(buf.sum())
            nonzero = False
            part_a = np.empty(8)
            for j in range(8):  # a coordinate at a time, each summed on its own
                np.multiply(block.weights, values[:, j], out=buf)
                part_a[j] = buf.sum()
                nonzero = nonzero or (part_b == 0.0 and bool(buf.any()))
            parts.append((part_a, part_b, shell, nonzero))
            del values, buf  # before the next case's rows are built
        return parts

    def work(i: int) -> list[tuple[np.ndarray, float, float, bool]]:
        batch = _chunk_batch(region, cfg, i)
        parts = _tree_reduce(
            batch.weights.size, lambda lo, hi: block_parts(_rows(batch, lo, hi)), _add_parts
        )
        # nonzero values whose squares all underflow leave no variance
        return [(a, b, shell, b == 0.0 and nonzero) for a, b, shell, nonzero in parts]

    n_chunks = -(-cfg.samples // cfg.chunk)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            chunks = list(pool.map(work, range(n_chunks)))
    else:
        chunks = [work(i) for i in range(n_chunks)]

    results = []
    for parts in zip(*chunks):  # one case's parts, in fixed chunk order
        result = _case_result(parts, cfg, const, decay, region.width)
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
            const
            * shell_c
            * SPHERE6_AREA
            * width
            * cfg.radius ** (7 - decay)
            / (decay - 7)
        )

    var = max(total_b - float(norm_sq_many(total_a)) / cfg.samples, 0.0)
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
    return MCResult(value, std_err, tail_est, problem)


def _as_handle(f) -> Callable[[np.ndarray], np.ndarray]:
    return f if callable(f) else f.eval_batch


def _kernel_pairs(cases: Sequence[Case], kernel) -> list[tuple[Callable, object]]:
    """(L, f) for each case (f, z) of a reproduction, L the rows kernel(z, w).

    A run of consecutive cases with the same z, bit for bit, shares one
    L, so :func:`_paired` builds its kernel rows once per block.
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


def _flat_pairs(cases: Sequence[Case], values) -> list[tuple[Callable, object]]:
    """(L, f) for each case (f, z) of a flat-region reproduction, L the
    kernel rows ``values(u)`` at u = z + conj(w)."""
    return _kernel_pairs(cases, lambda z, p: values(z.to_array() + conj_many(p)))


def _paired(pairs, twist=None) -> Callable[[SampleBatch], Iterator[np.ndarray]]:
    """Integrand (L conj(nu)) (nu f) per (L, f) pair, or L f without a twist.

    ``L`` maps sample points to the rows of L (``conj(g)``, a kernel
    section or the sphere's normal) and ``twist`` maps them to the rows
    of nu.  Per block, nu is built once, and L conj(nu) once for each run
    of consecutive pairs with the same ``L`` object; a run's rows go
    before the next run's are built.
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


def _normal_times(f) -> Callable[[np.ndarray], np.ndarray]:
    """w f(w): the unit sphere's outward normal n(w) = w times f."""
    fn = _as_handle(f)
    return lambda points: mul_many(points, fn(points))


def _unit_rows(points: np.ndarray) -> np.ndarray:
    n = norm_many(points)
    safe = n > 1e-12
    unit = np.zeros_like(points)
    np.divide(points, n[:, None], out=unit, where=safe[:, None])
    unit[~safe, 0] = 1.0  # measure-zero center; continuity value
    return unit


# ---------------------------------------------------------------------------
# Sphere and ball estimators


def cauchy_theorem_check(f, cfg: McConfig) -> MCResult:
    """Estimate of the integral of n(w) f(w) over the unit sphere; near 0
    for left-monogenic f."""
    return _estimate(sphere_region(), _paired([(lambda p: p, f)]), cfg, const=1.0)[0]


def cauchy_formula_reproduce(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of q0(w - z) (n(w) f(w)) over the unit sphere,
    one result per case (f, z).

    n(w) f(w) is multiplied before the kernel is applied, the grouping
    under which reproduction holds.  No interior check: for z outside the
    closed ball the estimate targets 0 instead of f(z).
    """
    pairs = _kernel_pairs(cases, lambda z, p: q0_many(p - z.to_array()))
    return _estimate(sphere_region(), _paired([(k, _normal_times(f)) for k, f in pairs]), cfg)


def szego_reproduce_ball(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of (S(z, w) conj(w)) (w f(w)) over the unit sphere,
    one result per case (f, z).

    No interior check: exterior z targets 0.
    """
    pairs = _kernel_pairs(cases, szego_ball_values)
    return _estimate(sphere_region(), _paired(pairs, lambda p: p), cfg)


def inner_product_hardy_ball(f, g, cfg: McConfig) -> MCResult:
    """(f, g) = (3/pi^4) integral of (conj(g) conj(w)) (w f) over the unit sphere."""
    return _estimate(sphere_region(), _paired([(_conj_of(g), f)], lambda p: p), cfg)[0]


def bergman_reproduce_ball(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of (B(z, w) conj(w/|w|)) ((w/|w|) f(w)) over the ball,
    one result per case (f, z).

    No interior check: exterior z targets 0.
    """
    pairs = _kernel_pairs(cases, bergman_ball_values)
    return _estimate(ball_region(), _paired(pairs, _unit_rows), cfg)


def inner_product_bergman_ball(f, g, cfg: McConfig) -> MCResult:
    """(f, g) = (3/pi^4) integral of (conj(g) conj(w/|w|)) ((w/|w|) f) over the ball."""
    return _estimate(ball_region(), _paired([(_conj_of(g), f)], _unit_rows), cfg)[0]


# ---------------------------------------------------------------------------
# Strip and half-space estimators; each names its integrand's decay
# exponent in |Im w| once, and its region the transverse width


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
    pairs = _flat_pairs(cases, lambda u: szego_strip_values(u, domain.d, policy).value)
    return _estimate(strip_boundary_region(domain, cfg.radius), _paired(pairs), cfg, decay=14)


def bergman_reproduce_strip(
    cases: Sequence[Case],
    domain: StripDomain,
    cfg: McConfig,
    policy: TruncationPolicy = TruncationPolicy(),
) -> list[MCResult]:
    """(3/pi^4) integral of B(z, w) f(w) over the truncated strip volume,
    one result per case (f, z)."""
    pairs = _flat_pairs(cases, lambda u: bergman_strip_values(u, domain.d, policy).value)
    return _estimate(strip_volume_region(domain, cfg.radius), _paired(pairs), cfg, decay=15)


def inner_product_strip_boundary(
    f, g, domain: StripDomain, cfg: McConfig
) -> MCResult:
    """(f, g) = (3/pi^4) integral of conj(g) f over both truncated walls."""
    region = strip_boundary_region(domain, cfg.radius)
    return _estimate(region, _paired([(_conj_of(g), f)]), cfg, decay=14)[0]


def inner_product_strip_volume(
    f, g, domain: StripDomain, cfg: McConfig
) -> MCResult:
    """(f, g) = (3/pi^4) integral of conj(g) f over the truncated strip volume."""
    region = strip_volume_region(domain, cfg.radius)
    return _estimate(region, _paired([(_conj_of(g), f)]), cfg, decay=14)[0]


def szego_reproduce_half_space(cases: Sequence[Case], cfg: McConfig) -> list[MCResult]:
    """(3/pi^4) integral of S(z, w) f(w) over the truncated wall Re = 0,
    one result per case (f, z)."""
    if any(z.real <= 0.0 for _, z in cases):
        raise DomainError("evaluation point must have positive real part")
    pairs = _flat_pairs(cases, q0_many)
    return _estimate(half_space_boundary_region(cfg.radius), _paired(pairs), cfg, decay=14)
