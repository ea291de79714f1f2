"""Verification suites: each checks one part of the package and returns rows.

A suite takes parsed values and config objects, refuses inputs it cannot
run on (``DomainError``) and returns a list of :class:`Row`.  ``cli``
turns the rows into the JSON and CSV reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels, quadrature
from .algebra import Octonion, conj_many, mul, mul_cayley_dickson, mul_many, norm_many
from .errors import DomainError
from .functions import constant, linear_monogenic, shifted_cauchy_kernel
from .kernels import StripDomain
from .quadrature import McConfig
from .regularity import FiniteDiffConfig, o_regularity_residual
from .trig_series import (
    TruncationPolicy,
    combined_relation_gaps,
    cot,
    csc,
    duplication_gap,
    sec,
    tan,
)


@dataclass(frozen=True)
class Row:
    """One report row.

    ``value`` and ``target`` are scalars, octonions (held as their 8
    coordinates) or, for a warning, text.  ``d`` is the strip width the
    row was computed at, if any.  A row is a check exactly when it has a
    tolerance; the others are informational and carry no verdict.
    """

    name: str
    value: object
    target: object = None
    residual: Optional[float] = None
    tolerance: Optional[float] = None
    tail_bound: Optional[float] = None
    d: Optional[float] = None

    def __post_init__(self) -> None:
        for field in ("value", "target"):
            if isinstance(getattr(self, field), Octonion):
                object.__setattr__(self, field, getattr(self, field).to_array().tolist())

    @property
    def passed(self) -> Optional[bool]:
        if self.tolerance is None:
            return None
        # a NaN or an infinite residual fails whatever its sign
        return bool(math.isfinite(self.residual) and self.residual <= self.tolerance)


def _worst(*arrays) -> float:
    """The largest magnitude over all the arrays: the suites' one reduction."""
    # np.max keeps a NaN, where the builtin max(0.0, nan) would drop it
    return float(np.max([np.max(np.abs(a)) for a in arrays]))


# Trials per block of the algebra suite's walk.  A block's longdouble
# (n, 8) operand takes 512 KiB, and the products of a block are freed
# before the next.  `algebra --trials 50000` in a fresh interpreter
# (2-vCPU Intel Xeon KVM guest, 2 MiB of L2 per core; median of 7) at
# 1,024, 2,048, 4,096, 16,384 and 50,000 (one block) rows per block took
# 0.77, 0.69, 0.72, 0.68 and 0.71 s at a peak resident set of 47, 49, 53,
# 75 and 134 MiB.  Past 2,048 rows the time is flat within the noise,
# bound by the x87 arithmetic, while the memory grows with the block.
ALGEBRA_BLOCK_ROWS = 4096


def _block_residuals(x, y, z) -> dict[str, float]:
    # each distinct product once, 21 in all: x*y, y*x, x*x and x*(y*z)
    # enter more than one identity
    nx, ny = norm_many(x), norm_many(y)
    cx = conj_many(x)
    xy, yx, xx = mul_many(x, y), mul_many(y, x), mul_many(x, x)
    x_yz = mul_many(x, mul_many(y, z))
    sq = mul_many(x, cx)
    return {
        "norm_composition_rel": _worst((norm_many(xy) - nx * ny) / (nx * ny)),
        "alternativity": _worst(
            mul_many(x, xy) - mul_many(xx, y), mul_many(yx, x) - mul_many(y, xx)
        ),
        "flexibility": _worst(mul_many(x, yx) - mul_many(xy, x)),
        "moufang": _worst(mul_many(xy, mul_many(z, x)) - mul_many(x_yz, x)),
        "conjugate_cancel": _worst(mul_many(cx, xy) - (nx**2)[:, None] * y),
        "conjugation_antiautomorphism": _worst(conj_many(xy) - mul_many(conj_many(y), cx)),
        "scalar_real": _worst(sq[:, 1:], sq[:, 0] - nx**2),
        "associator_alternation": _worst(
            (mul_many(xy, z) - x_yz) + (mul_many(yx, z) - mul_many(y, mul_many(x, z)))
        ),
    }


def identity_residuals(x, y, z) -> dict[str, float]:
    """Each identity's worst residual over the rows of the (n, 8) trial
    arrays, walked in blocks of ``ALGEBRA_BLOCK_ROWS`` rows.

    Each block is evaluated in 80-bit extended precision: the identities
    hold exactly for the structure constants, and chained products of
    magnitude ~1e5 carry ~1e-10 of double roundoff, above the 1e-11
    absolute bar the checks enforce.  A row's residual does not depend on
    its block and rounding to float64 is monotone, so the worst of the
    block maxima is the worst over the rows; a NaN in any row is kept.
    """
    blocks = []
    for lo in range(0, len(x), ALGEBRA_BLOCK_ROWS):
        parts = (a[lo : lo + ALGEBRA_BLOCK_ROWS] for a in (x, y, z))
        # coordinate-major, so mul_many reads contiguous coordinate rows
        blocks.append(_block_residuals(*(np.asfortranarray(p, np.longdouble) for p in parts)))
    return {name: _worst(*(b[name] for b in blocks)) for name in blocks[0]}


def _rng(seed: int) -> np.random.Generator:
    """The suites' generator; numpy's seeding takes no negative seed."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def algebra(trials: int, seed: int) -> list[Row]:
    """The algebra identities on ``trials`` random triples and the basis products."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = _rng(seed)
    x, y, z = (rng.uniform(-10.0, 10.0, size=(trials, 8)) for _ in range(3))
    # table vs doubling construction on the basis products
    basis = [Octonion.basis(k) for k in range(8)]
    table_gap = _worst(
        *((mul(a, b) - mul_cayley_dickson(a, b)).to_array() for a in basis for b in basis)
    )
    rows = [Row("table_vs_cayley_dickson", table_gap, 0.0, table_gap, 1e-14)]
    for name, worst in identity_residuals(x, y, z).items():
        bar = 1e-12 if name == "norm_composition_rel" else 1e-11  # a relative residual
        rows.append(Row(name, worst, 0.0, worst, bar))
    return rows


def trig_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Points with |Im z| in [0.8, 1.6]: far from every lattice pole."""
    pts = np.empty((count, 8))
    pts[:, 0] = rng.uniform(-2.0, 2.0, size=count)
    dirs = rng.standard_normal((count, 7))
    # einsum's own order on the row-major draws, not norm_sq_many's: the
    # points are a seeded stream, and every trig report would move with it
    dirs /= np.sqrt(np.einsum("ij,ij->i", dirs, dirs))[:, None]
    pts[:, 1:] = dirs * rng.uniform(0.8, 1.6, size=count)[:, None]
    return pts


def _identity_tolerance(*terms) -> float:
    """Bar of an identity among lattice sums, from (coefficient, SumResult) terms.

    Each sum is within its tail bound of the exact series, so the
    identity's residual is within the sum of |coefficient| * tail bound;
    1e-9 covers roundoff where the tails are negligible.
    """
    return max(1e-9, sum(abs(k) * res.tail_bound for k, res in terms))


def _fd_tolerance(h: float, f_max: float) -> float:
    """Bar of a Cauchy-Riemann residual by central differences of step h.

    Truncation: the differences err by O(h^2), so the bar grows with the
    step squared past the default step 1e-5.  Roundoff: each end of a
    difference carries the evaluation's own error, taken as 2 eps of the
    largest value f_max (the rounding of a lattice sum's dominant term
    and of the sum).  A partial takes the difference of two ends over 2h,
    and the residual adds eight partials, each times a unit octonion, so
    roundoff stays within 8 * 2 * (2 eps f_max) / (2h) = 16 eps f_max / h.
    """
    roundoff = 16.0 * np.finfo(np.float64).eps * f_max / h
    try:  # float ** raises OverflowError past the float range
        bar = max(1e-6 * max(1.0, (h / 1e-5) ** 2), roundoff)
    except OverflowError:
        bar = math.inf
    if not math.isfinite(bar):
        raise DomainError(f"finite-difference step {h} gives no finite Cauchy-Riemann bar")
    return bar


def trig(points: int, seed: int, policy: TruncationPolicy, fd: FiniteDiffConfig) -> list[Row]:
    """The series identities and the monogenicity of cot, tan, csc and sec at
    ``points`` random points, with bars derived from ``policy`` and ``fd``."""
    if points < 1:
        raise DomainError("points must be >= 1")
    pts = trig_points(_rng(seed), points)

    # each distinct lattice sum once; the identities below share them
    c = cot(pts, policy)
    c2 = cot(2.0 * pts, policy)
    t = tan(pts, policy)  # -cot(z + pi/2), the duplication's third sum
    s = csc(pts, policy)
    c_half = cot(0.5 * pts, policy)
    t_half = tan(0.5 * pts, policy)
    se = sec(pts, policy)
    cscrel = norm_many(s.value - c_half.value / 64.0 + c.value)
    cr = combined_relation_gaps(c, c2, t, s, t_half)

    # each identity's residuals with the (coefficient, lattice sum) terms it combines
    identities = (
        ("duplication_max", duplication_gap(c, c2, t), ((128.0, c2), (1.0, c), (1.0, t))),
        ("csc_relation_max", cscrel, ((1.0, s), (1.0 / 64.0, c_half), (1.0, c))),
    )
    rows = [
        Row(name, _worst(gaps), 0.0, _worst(gaps), _identity_tolerance(*terms))
        for name, gaps, terms in identities
    ]
    rows += [
        # informational: which combined-relation candidate vanishes is
        # reported, never enforced
        Row("combined_against_duplication_max", _worst(cr.against_duplication)),
        Row("combined_against_two_cot_max", _worst(cr.against_two_cot)),
    ]

    f_max = _worst(*(norm_many(r.value) for r in (c, t, s, se)))
    fd_tol = _fd_tolerance(fd.h, f_max)
    for name, fn in (("cot", cot), ("tan", tan), ("csc", csc), ("sec", sec)):
        resid = o_regularity_residual(lambda a, fn=fn: fn(a, policy).value, pts, h=fd.h)
        rows.append(Row(f"oregularity_{name}", resid, 0.0, resid, fd_tol))
    return rows


# kernel name -> kernel(z, w), or kernel(z, w, domain, policy) for a *_strip name
KERNELS = {
    "szego_ball": kernels.szego_unit_ball,
    "bergman_ball": kernels.bergman_unit_ball,
    "szego_halfspace": kernels.szego_half_space,
    "bergman_halfspace": kernels.bergman_half_space,
    "szego_strip": kernels.szego_strip,
    "bergman_strip": kernels.bergman_strip,
}


def eval_kernel(
    kernel: str, z: Octonion, w: Octonion, policy: TruncationPolicy, d: Optional[float] = None
) -> list[Row]:
    """One kernel value; a strip kernel needs the width ``d``."""
    if not kernel.endswith("_strip"):
        return [Row(kernel, KERNELS[kernel](z, w), tail_bound=0.0)]
    if d is None:
        raise DomainError(f"{kernel} requires --d")
    ev = KERNELS[kernel](z, w, StripDomain(d), policy)
    return [Row(kernel, ev.value, tail_bound=ev.tail_bound, d=d)]


def _shift_cases(d: float, tolerance: float) -> list[tuple]:
    """f = q0(w - c) with its pole c at -1 and at d + 1, reproduced at z = d/2."""
    z = Octonion(0.5 * d)
    return [
        (f"kernel_shift_{label}", shifted_cauchy_kernel(Octonion(c)), z, tolerance, True)
        for label, c in (("c_minus_1", -1.0), ("c_d_plus_1", d + 1.0))
    ]


# experiment -> (estimator, cases) at strip width d.  A case is (name, f,
# z, tolerance, relative): a relative case checks |value - f(z)| / |f(z)|,
# the others |value| against 0 (z outside the region).  Built per run, so
# a run uses the estimators and function factories bound when it starts
# (perfbench's tracer rebinds them to count their calls).
REPRODUCE = {
    "cauchy_ball": lambda d: (
        quadrature.cauchy_formula_reproduce,
        [
            ("constant_interior", constant(1.0), Octonion(0.0, 0.3), 0.02, True),
            ("constant_exterior", constant(1.0), Octonion(0.0, 1.3), 0.02, False),
            ("linear_interior", linear_monogenic(), Octonion(0.0, 0.2, 0.1), 0.05, True),
        ],
    ),
    "szego_ball": lambda d: (
        quadrature.szego_reproduce_ball,
        [("constant_boundary", constant(1.0), Octonion(0.3), 0.03, True)],
    ),
    "bergman_ball": lambda d: (
        quadrature.bergman_reproduce_ball,
        [
            ("constant_volume", constant(1.0), Octonion(0.0, 0.4), 0.05, True),
            ("linear_volume", linear_monogenic(), Octonion(0.0, 0.2, 0.1), 0.05, True),
        ],
    ),
    "szego_strip": lambda d: (quadrature.szego_reproduce_strip, _shift_cases(d, 0.05)),
    "bergman_strip": lambda d: (quadrature.bergman_reproduce_strip, _shift_cases(d, 0.08)),
}


def reproduce(experiment: str, cfg: McConfig, d: float = 1.0) -> list[Row]:
    """Monte Carlo reproduction of each case of ``experiment`` from one
    sample stream; the *_strip experiments run on the strip of width ``d``.

    Each case gives a check row and its ``_std_err`` row, a strip case
    also its ``_tail_est`` row, and a case whose estimate warned a
    ``_warning`` row with the warning's text.
    """
    strip = experiment.endswith("_strip")
    domain_args = (StripDomain(d),) if strip else ()
    width = d if strip else None
    estimator, cases = REPRODUCE[experiment](d)
    with np.errstate(over="ignore"):  # an overflowing |z - c|^8 gives a zero target
        targets = [f(z) if relative else Octonion() for _, f, z, _, relative in cases]
    for (name, *_, relative), target in zip(cases, targets):
        if relative and not 0.0 < target.norm() < math.inf:
            # checked before sampling; a relative residual needs a finite nonzero target
            raise DomainError(f"{name}: the target f(z) has norm {target.norm()}")
    results = estimator([(f, z) for _, f, z, _, _ in cases], *domain_args, cfg)
    rows = []
    for (name, f, z, tol, relative), target, res in zip(cases, targets, results):
        resid = (res.value - target).norm()
        if relative:
            resid /= target.norm()
        rows.append(Row(name, res.value, target, resid, tol, d=width))
        rows.append(Row(f"{name}_std_err", res.std_err, d=width))
        if strip:
            rows.append(Row(f"{name}_tail_est", res.tail_est, d=width))
        if res.warning is not None:
            rows.append(Row(f"{name}_warning", res.warning, d=width))
    return rows


def limit_study(
    d_values: list[float],
    z: Octonion,
    w: Octonion,
    policy: TruncationPolicy,
    scale_with_d: bool = True,
) -> list[Row]:
    """Gaps between the strip and half-space kernels at each width, and
    their fitted decay exponents (-7 Szego, -8 Bergman) over two or more
    widths.  ``scale_with_d`` evaluates at z d/2 and w d/2.  A gap that
    reads 0 or inf is refused."""
    if not d_values:
        raise DomainError("d_values must list at least one width")
    if any(d <= 0 for d in d_values):
        raise DomainError("strip widths must be positive")
    if len(set(d_values)) < len(d_values):
        # a slope through repeated widths is fitted to fewer points than it reports
        raise DomainError("strip widths must be distinct")
    exponents = {"szego": -7.0, "bergman": -8.0}  # of each kernel's gap against d
    gaps = {name: [] for name in exponents}
    rows = []
    for d in d_values:
        domain = StripDomain(d)
        ze, we = (z * (0.5 * d), w * (0.5 * d)) if scale_with_d else (z, w)
        if not (domain.contains(ze) and domain.contains(we)):
            raise DomainError(f"evaluation points leave the strip at d={d:g}")
        for name in exponents:
            strip, half = KERNELS[f"{name}_strip"], KERNELS[f"{name}_halfspace"]
            gap = (strip(ze, we, domain, policy).value - half(ze, we)).norm()
            if not 0.0 < gap < math.inf:
                # the fit needs log(gap)
                raise DomainError(f"the {name} gap at d={d:g} reads {gap}, out of the float range")
            gaps[name].append(gap)
            rows.append(Row(f"{name}_diff[d={d:g}]", gap, d=d))

    if len(d_values) > 1:
        logs = np.log(np.asarray(d_values))
        for name, target in exponents.items():
            slope = float(np.polyfit(logs, np.log(np.asarray(gaps[name])), 1)[0])
            rows.append(Row(f"{name}_exponent", slope, target, abs(slope - target), 0.5))
    return rows
