"""Batch CLI: verification suites and kernel evaluation with JSON reports.

Report schema (stable key order, deterministic for a fixed seed and flag
set at any thread count):

    {command, params{}, seed, results[{name, value, target, residual,
     tolerance, tail_bound, pass}], elapsed_ms}

``value``/``target`` are scalars or 8-coordinate lists; inapplicable
fields are null.  Rows with ``pass: null`` are informational and never
fail a run.  Exit codes: 0 all checks passed, 1 at least one check row
failed, 2 domain or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from .algebra import Octonion, as_coords, conj_many, mul_many, norm_many, parse_octonion
from .errors import DomainError, PolicyError, SingularityError
from .functions import constant, linear_monogenic, shifted_cauchy_kernel
from .kernels import (
    StripDomain,
    bergman_half_space,
    bergman_strip,
    bergman_strip_closed_form_variants,
    bergman_unit_ball,
    szego_half_space,
    szego_strip,
    szego_unit_ball,
)
from .quadrature import (
    McConfig,
    bergman_reproduce_ball,
    bergman_reproduce_strip,
    cauchy_formula_reproduce,
    szego_reproduce_ball,
    szego_reproduce_strip,
)
from .regularity import FiniteDiffConfig, o_regularity_residual
from .trig_series import (
    TruncationPolicy,
    combined_relation_residuals,
    cot,
    csc,
    duplication_residual,
    sec,
    tan,
)

BALL_KERNELS = ("szego_ball", "bergman_ball")
HALFSPACE_KERNELS = ("szego_halfspace", "bergman_halfspace")
STRIP_KERNELS = ("szego_strip", "bergman_strip")


def _coords_list(value) -> list[float]:
    return as_coords(value).tolist()


def _row(
    name: str,
    value,
    target=None,
    residual=None,
    tolerance=None,
    tail_bound=None,
    passed=None,
    d=None,
):
    if isinstance(value, Octonion):
        value = _coords_list(value)
    if isinstance(target, Octonion):
        target = _coords_list(target)
    row = {
        "name": name,
        "value": value,
        "target": target,
        "residual": residual,
        "tolerance": tolerance,
        "tail_bound": tail_bound,
        "pass": passed,
    }
    # side channel for the CSV d column; stripped before JSON output
    row["_d"] = d
    return row


def _check_row(name, value, target, residual, tolerance, tail_bound=None, d=None):
    return _row(
        name,
        value,
        target=target,
        residual=residual,
        tolerance=tolerance,
        tail_bound=tail_bound,
        # a NaN or an infinite residual fails whatever its sign
        passed=bool(math.isfinite(residual) and residual <= tolerance),
        d=d,
    )


def _scalarize(value) -> str:
    """CSV cell for a row value: scalars stay, octonion lists go to norms."""
    if value is None:
        return ""
    if isinstance(value, list):
        return repr(float(math.sqrt(sum(c * c for c in value))))
    return repr(float(value))


def _emit(report: dict, csv_path: str | None) -> None:
    rows = report["results"]
    d_col = [r.pop("_d") for r in rows]
    if csv_path:
        # written before the JSON, so a path that cannot be opened leaves stdout empty
        try:
            fh = open(csv_path, "w", newline="")
        except OSError as exc:
            raise DomainError(f"cannot write CSV: {exc}") from None
        with fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "d", "value", "target", "residual"])
            for r, d in zip(rows, d_col):
                writer.writerow(
                    [
                        r["name"],
                        "" if d is None else repr(float(d)),
                        _scalarize(r["value"]),
                        _scalarize(r["target"]),
                        "" if r["residual"] is None else repr(float(r["residual"])),
                    ]
                )
    print(json.dumps(report, indent=2))


def _finish(command, params, seed, rows, t0, csv_path) -> int:
    report = {
        "command": command,
        "params": params,
        "seed": seed,
        "results": rows,
        "elapsed_ms": int((time.monotonic() - t0) * 1000.0),
    }
    _emit(report, csv_path)
    failed = any(r["pass"] is False for r in rows)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# algebra suite


def _algebra_rows(trials: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    # identity residuals are evaluated in 80-bit extended precision: the
    # identities hold exactly for the structure constants, and chained
    # products of magnitude ~1e5 carry ~1e-10 of double roundoff, above
    # the 1e-11 absolute bar the checks enforce
    x, y, z = (
        rng.uniform(-10.0, 10.0, size=(trials, 8)).astype(np.longdouble)
        for _ in range(3)
    )

    def mx(a, b):
        return mul_many(a, b)

    def worst(arr):
        return float(np.abs(arr).max())

    rows = []
    # table vs doubling construction on the basis products
    eye = np.eye(8)
    from .algebra import mul, mul_cayley_dickson

    table_gap = 0.0
    for i in range(8):
        for j in range(8):
            a, b = Octonion(*eye[i]), Octonion(*eye[j])
            gap = (mul(a, b) - mul_cayley_dickson(a, b)).to_array()
            table_gap = max(table_gap, float(np.abs(gap).max()))
    rows.append(_check_row("table_vs_cayley_dickson", table_gap, 0.0, table_gap, 1e-14))

    nx, ny = norm_many(x), norm_many(y)
    comp = np.abs(norm_many(mx(x, y)) - nx * ny) / (nx * ny)
    rows.append(_check_row("norm_composition_rel", worst(comp), 0.0, worst(comp), 1e-12))

    r = mx(x, mx(x, y)) - mx(mx(x, x), y)
    l = mx(mx(y, x), x) - mx(y, mx(x, x))
    alt = max(worst(r), worst(l))
    rows.append(_check_row("alternativity", alt, 0.0, alt, 1e-11))

    flex = worst(mx(x, mx(y, x)) - mx(mx(x, y), x))
    rows.append(_check_row("flexibility", flex, 0.0, flex, 1e-11))

    mo = worst(mx(mx(x, y), mx(z, x)) - mx(mx(x, mx(y, z)), x))
    rows.append(_check_row("moufang", mo, 0.0, mo, 1e-11))

    cc = worst(mx(conj_many(x), mx(x, y)) - (nx**2)[:, None] * y)
    rows.append(_check_row("conjugate_cancel", cc, 0.0, cc, 1e-11))

    anti = worst(conj_many(mx(x, y)) - mx(conj_many(y), conj_many(x)))
    rows.append(_check_row("conjugation_antiautomorphism", anti, 0.0, anti, 1e-11))

    sq = mx(x, conj_many(x))
    sr = max(worst(sq[:, 1:]), worst(sq[:, 0] - nx**2))
    rows.append(_check_row("scalar_real", sr, 0.0, sr, 1e-11))

    assoc = mx(mx(x, y), z) - mx(x, mx(y, z))
    assoc_yx = mx(mx(y, x), z) - mx(y, mx(x, z))
    anti_sym = worst(assoc + assoc_yx)
    rows.append(_check_row("associator_alternation", anti_sym, 0.0, anti_sym, 1e-11))
    return rows


def _cmd_algebra(args, t0) -> int:
    if args.trials < 1:
        raise DomainError("trials must be >= 1")
    rows = _algebra_rows(args.trials, args.seed)
    params = {"trials": args.trials}
    return _finish("algebra", params, args.seed, rows, t0, args.csv)


# ---------------------------------------------------------------------------
# trig suite


def _trig_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """Points with |Im z| in [0.8, 1.6]: far from every lattice pole."""
    pts = np.empty((count, 8))
    pts[:, 0] = rng.uniform(-2.0, 2.0, size=count)
    dirs = rng.standard_normal((count, 7))
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
    return max(1e-6 * max(1.0, (h / 1e-5) ** 2), roundoff)


def _cmd_trig(args, t0) -> int:
    if args.points < 1:
        raise DomainError("points must be >= 1")
    fd = FiniteDiffConfig(args.fd_step)
    policy = TruncationPolicy(tail_tol=args.tail_tol)
    rng = np.random.default_rng(args.seed)
    pts = _trig_points(rng, args.points)

    def worst(rows: np.ndarray) -> float:
        # np.max keeps a NaN, where the builtin max(0.0, nan) would drop it
        return float(np.max(rows))

    c = cot(pts, policy)
    c2 = cot(2.0 * pts, policy)
    t = tan(pts, policy)  # -cot(z + pi/2), the duplication's third sum
    shifted = pts.copy()
    shifted[:, 0] += math.pi / 2.0
    dup = worst(duplication_residual(pts, policy))
    tanrel = worst(np.linalg.norm(t.value - c.value + 128.0 * c2.value, axis=1))
    s = csc(pts, policy)
    c_half = cot(0.5 * pts, policy)
    cscrel = worst(np.linalg.norm(s.value - c_half.value / 64.0 + c.value, axis=1))
    se = sec(pts, policy)
    s_shift = csc(shifted, policy)
    secdef = worst(np.linalg.norm(se.value - s_shift.value, axis=1))
    cr = combined_relation_residuals(pts, policy)

    # each identity's residual with the (coefficient, lattice sum) terms it combines
    identities = (
        ("duplication_max", dup, ((128.0, c2), (1.0, c), (1.0, t))),
        ("tan_relation_max", tanrel, ((1.0, t), (1.0, c), (128.0, c2))),
        ("csc_relation_max", cscrel, ((1.0, s), (1.0 / 64.0, c_half), (1.0, c))),
        ("sec_definition_max", secdef, ((1.0, se), (1.0, s_shift))),
    )
    rows = [
        _check_row(name, resid, 0.0, resid, _identity_tolerance(*terms))
        for name, resid, terms in identities
    ]
    rows += [
        # informational: which combined-relation candidate vanishes is
        # reported, never enforced
        _row("combined_against_duplication_max", worst(cr.against_duplication)),
        _row("combined_against_two_cot_max", worst(cr.against_two_cot)),
    ]

    f_max = max(worst(np.linalg.norm(r.value, axis=1)) for r in (c, t, s, se))
    fd_tol = _fd_tolerance(fd.h, f_max)
    for name, fn in (("cot", cot), ("tan", tan), ("csc", csc), ("sec", sec)):
        resid = o_regularity_residual(
            lambda a, fn=fn: fn(a, policy).value, pts, h=fd.h
        )
        rows.append(_check_row(f"oregularity_{name}", resid, 0.0, resid, fd_tol))

    params = {"points": args.points, "tail_tol": args.tail_tol, "fd_step": args.fd_step}
    return _finish("trig", params, args.seed, rows, t0, args.csv)


# ---------------------------------------------------------------------------
# eval-kernel


def _cmd_eval_kernel(args, t0) -> int:
    z = parse_octonion(args.z)
    w = parse_octonion(args.w)
    policy = TruncationPolicy(tail_tol=args.tail_tol)
    rows = []
    params = {"kernel": args.kernel, "z": _coords_list(z), "w": _coords_list(w)}

    if args.kernel in STRIP_KERNELS:
        if args.d is None:
            raise DomainError(f"{args.kernel} requires --d")
        if args.method is None:
            args.method = "series"
        params["d"] = args.d
        params["method"] = args.method
        params["tail_tol"] = args.tail_tol
        domain = StripDomain(args.d)
        fn = szego_strip if args.kernel == "szego_strip" else bergman_strip
        methods = (
            ("series", "closed_form") if args.method == "both" else (args.method,)
        )
        evals = {m: fn(z, w, domain, policy, method=m) for m in methods}
        for m, ev in evals.items():
            rows.append(
                _row(f"{args.kernel}[{m}]", ev.value, tail_bound=ev.tail_bound, d=args.d)
            )
        if args.method == "both":
            delta = (evals["series"].value - evals["closed_form"].value).norm()
            tol = evals["series"].tail_bound + evals["closed_form"].tail_bound + 1e-12
            rows.append(
                _check_row("cross_method_delta", delta, 0.0, delta, tol, d=args.d)
            )
            if args.kernel == "bergman_strip":
                # informational: the step-d variant reading of the closed
                # form has poles at points where the kernel is regular
                try:
                    variants = bergman_strip_closed_form_variants(z, w, domain, policy)
                    delta = variants["half_step"]
                except SingularityError:
                    delta = None
                rows.append(_row("half_step_variant_delta", delta, d=args.d))
    else:
        if args.method not in (None, "closed_form"):
            raise DomainError(f"{args.kernel} has only a closed form")
        kernel_fn = {
            "szego_ball": szego_unit_ball,
            "bergman_ball": bergman_unit_ball,
            "szego_halfspace": szego_half_space,
            "bergman_halfspace": bergman_half_space,
        }[args.kernel]
        rows.append(_row(args.kernel, kernel_fn(z, w), tail_bound=0.0))

    return _finish("eval-kernel", params, args.seed, rows, t0, args.csv)


# ---------------------------------------------------------------------------
# reproduce


def _repro_rows_ball(experiment: str, cfg: McConfig) -> list[dict]:
    rows = []
    if experiment == "cauchy_ball":
        cases = [
            ("constant_interior", constant(1.0), Octonion(0.0, 0.3), 0.02, "rel"),
            ("constant_exterior", constant(1.0), Octonion(0.0, 1.3), 0.02, "abs"),
            (
                "linear_interior",
                linear_monogenic(),
                Octonion(0.0, 0.2, 0.1),
                0.05,
                "rel",
            ),
        ]
        runner = cauchy_formula_reproduce
    elif experiment == "szego_ball":
        cases = [("constant_boundary", constant(1.0), Octonion(0.3), 0.03, "rel")]
        runner = szego_reproduce_ball
    else:  # bergman_ball
        cases = [
            ("constant_volume", constant(1.0), Octonion(0.0, 0.4), 0.05, "rel"),
            (
                "linear_volume",
                linear_monogenic(),
                Octonion(0.0, 0.2, 0.1),
                0.05,
                "rel",
            ),
        ]
        runner = bergman_reproduce_ball
    for name, f, zpt, tol, mode in cases:
        res = runner(f, zpt, cfg)
        if mode == "abs":
            target = Octonion()
            resid = res.value.norm()
        else:
            target = f(zpt)
            resid = (res.value - target).norm() / target.norm()
        rows.append(_check_row(name, res.value, target, resid, tol))
        rows.append(_row(f"{name}_std_err", res.std_err))
    return rows


def _repro_rows_strip(experiment: str, d: float, cfg: McConfig) -> list[dict]:
    domain = StripDomain(d)
    zpt = Octonion(0.5 * d)
    tol = 0.05 if experiment == "szego_strip" else 0.08
    runner = (
        szego_reproduce_strip if experiment == "szego_strip" else bergman_reproduce_strip
    )
    rows = []
    for label, c in (("c_minus_1", -1.0), ("c_d_plus_1", d + 1.0)):
        f = shifted_cauchy_kernel(Octonion(c))
        res = runner(f, zpt, domain, cfg)
        target = f(zpt)
        resid = (res.value - target).norm() / target.norm()
        rows.append(_check_row(f"kernel_shift_{label}", res.value, target, resid, tol, d=d))
        rows.append(_row(f"kernel_shift_{label}_std_err", res.std_err, d=d))
        rows.append(_row(f"kernel_shift_{label}_tail_est", res.tail_est, d=d))
    return rows


def _cmd_reproduce(args, t0) -> int:
    if args.samples < 10**3:
        raise DomainError("samples must be >= 1000")
    cfg = McConfig(
        seed=args.seed, samples=args.samples, radius=args.radius, threads=args.threads
    )
    params = {"experiment": args.experiment, "samples": args.samples}
    if args.experiment in ("szego_strip", "bergman_strip"):
        d = 1.0 if args.d is None else args.d
        params["d"] = d
        params["radius"] = args.radius
        rows = _repro_rows_strip(args.experiment, d, cfg)
    else:
        rows = _repro_rows_ball(args.experiment, cfg)
    return _finish("reproduce", params, args.seed, rows, t0, args.csv)


# ---------------------------------------------------------------------------
# limit-study


def _cmd_limit_study(args, t0) -> int:
    try:
        d_values = [float(tok) for tok in args.d_values.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad d list {args.d_values!r}") from exc
    if not d_values:
        raise DomainError("d_values must list at least one width")
    if any(d <= 0 for d in d_values):
        raise DomainError("strip widths must be positive")
    if len(set(d_values)) < len(d_values):
        # a slope through repeated widths is fitted to fewer points than it reports
        raise DomainError("strip widths must be distinct")
    z = parse_octonion(args.z)
    w = parse_octonion(args.w)
    policy = TruncationPolicy(tail_tol=args.tail_tol)

    rows = []
    diffs = {"szego": [], "bergman": []}
    for d in d_values:
        domain = StripDomain(d)
        if args.scale_with_d:
            ze, we = z * (0.5 * d), w * (0.5 * d)
        else:
            ze, we = z, w
        if not (domain.contains(ze) and domain.contains(we)):
            raise DomainError(f"evaluation points leave the strip at d={d:g}")
        s_gap = (
            szego_strip(ze, we, domain, policy).value - szego_half_space(ze, we)
        ).norm()
        b_gap = (
            bergman_strip(ze, we, domain, policy).value - bergman_half_space(ze, we)
        ).norm()
        diffs["szego"].append(s_gap)
        diffs["bergman"].append(b_gap)
        rows.append(_row(f"szego_diff[d={d:g}]", s_gap, d=d))
        rows.append(_row(f"bergman_diff[d={d:g}]", b_gap, d=d))

    if len(d_values) > 1:
        logs = np.log(np.asarray(d_values))
        for name, target in (("szego", -7.0), ("bergman", -8.0)):
            slope = float(np.polyfit(logs, np.log(np.asarray(diffs[name])), 1)[0])
            rows.append(
                _check_row(f"{name}_exponent", slope, target, abs(slope - target), 0.5)
            )

    params = {
        "d_values": d_values,
        "z": _coords_list(z),
        "w": _coords_list(w),
        "scale_with_d": bool(args.scale_with_d),
        "tail_tol": args.tail_tol,
    }
    return _finish("limit-study", params, args.seed, rows, t0, args.csv)


# ---------------------------------------------------------------------------
# entry point


def _global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    """Install the shared flags; real defaults only at the top level.

    SUPPRESS on the per-subcommand copies keeps e.g. ``--seed 7 algebra``
    from being overwritten by a subparser default.
    """

    def default(v):
        return v if top else argparse.SUPPRESS

    parser.add_argument("--seed", type=int, default=default(42), help="RNG seed (default 42)")
    parser.add_argument(
        "--samples", type=int, default=default(10**6), help="MC sample count (default 1e6)"
    )
    parser.add_argument(
        "--tail-tol", type=float, default=default(1e-12), help="series tail tolerance"
    )
    parser.add_argument(
        "--fd-step", type=float, default=default(1e-5), help="finite-difference step"
    )
    parser.add_argument(
        "--radius",
        type=float,
        default=default(50.0),
        help="truncation radius for flat regions",
    )
    parser.add_argument(
        "--threads", type=int, default=default(1), help="worker threads (never changes results)"
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=default(None), help="also write rows as CSV"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octomono",
        description="Octonionic special functions and reproducing kernels: "
        "verification suites, kernel evaluation, Monte Carlo reproduction checks.",
    )
    _global_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _global_flags(p, top=False)
        return p

    p = add("algebra", "run the algebra identity suite")
    p.add_argument("--trials", type=int, default=10**4)
    p.set_defaults(func=_cmd_algebra)

    p = add("trig", "run the series identity suite")
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=_cmd_trig)

    p = add("eval-kernel", "evaluate one reproducing kernel")
    p.add_argument(
        "--kernel",
        required=True,
        choices=BALL_KERNELS + HALFSPACE_KERNELS + STRIP_KERNELS,
    )
    p.add_argument("--z", required=True, help='octonion literal, e.g. "0.5" or "[0.5,0,...]"')
    p.add_argument("--w", required=True)
    p.add_argument("--d", type=float, default=None, help="strip width (strip kernels)")
    p.add_argument("--method", choices=("series", "closed_form", "both"), default=None)
    p.set_defaults(func=_cmd_eval_kernel)

    p = add("reproduce", "Monte Carlo reproducing-property checks")
    p.add_argument(
        "--experiment",
        required=True,
        choices=("cauchy_ball", "szego_ball", "bergman_ball", "szego_strip", "bergman_strip"),
    )
    p.add_argument("--d", type=float, default=None, help="strip width (default 1)")
    p.set_defaults(func=_cmd_reproduce)

    p = add("limit-study", "strip-to-half-space kernel convergence")
    p.add_argument("--d-values", required=True, help='comma list, e.g. "2,4,8,16"')
    p.add_argument("--z", default="1")
    p.add_argument("--w", default="1")
    p.add_argument(
        "--scale-with-d",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="evaluate at z*(d/2) so the geometry scales with the strip "
        "(fixed points leave the asymptotic regime; see README)",
    )
    p.set_defaults(func=_cmd_limit_study)
    return parser


def main(argv=None) -> int:
    t0 = time.monotonic()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, t0)
    except (DomainError, SingularityError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
