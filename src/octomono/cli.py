"""Batch CLI: runs one verification suite and prints its rows as a JSON report.

Report schema (stable key order, deterministic for a fixed seed and flag
set at any thread count):

    {command, params{}, seed, results[{name, value, target, residual,
     tolerance, tail_bound, pass}], elapsed_ms}

``value``/``target`` are scalars, 8-coordinate lists or, in a
``_warning`` row, the warning's text; inapplicable fields are null.
Rows with ``pass: null`` are informational and never fail a run.  Exit
codes: 0 all checks passed, 1 at least one check row failed, 2 domain or
usage error.  ``--csv PATH`` also writes the rows as ``name, d, value,
target, residual``, with octonions as their norms.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time

from . import suites
from .algebra import Octonion, parse_octonion
from .errors import DomainError, PolicyError, SingularityError
from .quadrature import McConfig
from .regularity import FiniteDiffConfig
from .trig_series import TruncationPolicy


def _cell(value) -> str:
    """CSV cell: null blank, text as it is, octonion lists as their norms."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return repr(Octonion(*value).norm())
    return repr(float(value))


def _write_csv(path: str, rows: list[suites.Row]) -> None:
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write CSV: {exc}") from None
    with fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "d", "value", "target", "residual"])
        for r in rows:
            writer.writerow([r.name, *map(_cell, (r.d, r.value, r.target, r.residual))])


def _report(args, params: dict, rows: list[suites.Row], t0: float) -> str:
    """The JSON report; writes the CSV first if ``--csv`` asks for it."""
    elapsed_ms = int((time.monotonic() - t0) * 1000.0)
    if args.csv:
        # written before the JSON, so a path that cannot be opened leaves stdout empty
        _write_csv(args.csv, rows)
    # the row's fields in order, d (a CSV column) replaced by the verdict
    results = [{**{k: v for k, v in vars(r).items() if k != "d"}, "pass": r.passed} for r in rows]
    report = {
        "command": args.command,
        "params": params,
        "seed": args.seed,
        "results": results,
        "elapsed_ms": elapsed_ms,
    }
    return json.dumps(report, indent=2)


# ---------------------------------------------------------------------------
# subcommands: each returns (params, rows)


def _cmd_algebra(args):
    return {"trials": args.trials}, suites.algebra(args.trials, args.seed)


def _cmd_trig(args):
    fd = FiniteDiffConfig(args.fd_step)
    policy = TruncationPolicy(tail_tol=args.tail_tol)
    params = {"points": args.points, "tail_tol": args.tail_tol, "fd_step": args.fd_step}
    return params, suites.trig(args.points, args.seed, policy, fd)


def _cmd_eval_kernel(args):
    z, w = parse_octonion(args.z), parse_octonion(args.w)
    policy = TruncationPolicy(tail_tol=args.tail_tol)
    params = {"kernel": args.kernel, "z": list(z.coords), "w": list(w.coords)}
    if args.kernel.endswith("_strip"):
        params.update(d=args.d, tail_tol=args.tail_tol)
    return params, suites.eval_kernel(args.kernel, z, w, policy, args.d)


def _cmd_reproduce(args):
    if args.samples < 10**3:
        raise DomainError("samples must be >= 1000")
    cfg = McConfig(seed=args.seed, samples=args.samples, radius=args.radius, threads=args.threads)
    params = {"experiment": args.experiment, "samples": args.samples}
    if args.experiment.endswith("_strip"):
        params.update(d=args.d, radius=args.radius)
    return params, suites.reproduce(args.experiment, cfg, args.d)


def _cmd_limit_study(args):
    try:
        d_values = [float(tok) for tok in args.d_values.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"bad d list {args.d_values!r}") from exc
    z, w = parse_octonion(args.z), parse_octonion(args.w)
    policy = TruncationPolicy(tail_tol=args.tail_tol)
    params = {
        "d_values": d_values,
        "z": list(z.coords),
        "w": list(w.coords),
        "scale_with_d": bool(args.scale_with_d),
        "tail_tol": args.tail_tol,
    }
    return params, suites.limit_study(d_values, z, w, policy, args.scale_with_d)


# ---------------------------------------------------------------------------
# entry point


# The shared flags, accepted before or after the subcommand.
GLOBAL_FLAGS = {
    "--seed": dict(type=int, default=42, help="RNG seed (default 42)"),
    "--samples": dict(type=int, default=10**6, help="MC sample count (default 1e6)"),
    "--tail-tol": dict(type=float, default=1e-12, help="series tail tolerance"),
    "--fd-step": dict(type=float, default=1e-5, help="finite-difference step"),
    "--radius": dict(type=float, default=50.0, help="truncation radius for flat regions"),
    "--threads": dict(type=int, default=1, help="worker threads (never changes results)"),
    "--csv": dict(type=str, default=None, metavar="PATH", help="also write rows as CSV"),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # SUPPRESS throughout, so a subparser never overwrites e.g. ``--seed 7
    # algebra``; the defaults come from the namespace ``main`` starts with
    shared = argparse.ArgumentParser(add_help=False)
    for flag, spec in GLOBAL_FLAGS.items():
        shared.add_argument(flag, **{**spec, "default": argparse.SUPPRESS})
    parser = argparse.ArgumentParser(
        prog="octomono",
        description="Octonionic special functions and reproducing kernels: "
        "verification suites, kernel evaluation, Monte Carlo reproduction checks.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[shared])

    p = add("algebra", "run the algebra identity suite")
    p.add_argument("--trials", type=int, default=10**4)
    p.set_defaults(func=_cmd_algebra)

    p = add("trig", "run the series identity suite")
    p.add_argument("--points", type=int, default=50)
    p.set_defaults(func=_cmd_trig)

    p = add("eval-kernel", "evaluate one reproducing kernel")
    p.add_argument("--kernel", required=True, choices=tuple(suites.KERNELS))
    p.add_argument("--z", required=True, help='octonion literal, e.g. "0.5" or "[0.5,0,...]"')
    p.add_argument("--w", required=True)
    p.add_argument("--d", type=float, default=None, help="strip width (strip kernels)")
    p.set_defaults(func=_cmd_eval_kernel)

    p = add("reproduce", "Monte Carlo reproducing-property checks")
    p.add_argument("--experiment", required=True, choices=tuple(suites.REPRODUCE))
    p.add_argument("--d", type=float, default=1.0, help="strip width (default 1)")
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
    defaults = {flag[2:].replace("-", "_"): spec["default"] for flag, spec in GLOBAL_FLAGS.items()}
    args = _parser().parse_args(argv, argparse.Namespace(**defaults))
    try:
        params, rows = args.func(args)
        report = _report(args, params, rows, t0)
    except (DomainError, SingularityError, PolicyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(report)
        sys.stdout.flush()  # here, so a closed pipe raises inside the try
    except BrokenPipeError:
        # the reader stopped early (``| head``); point stdout at devnull so
        # that the flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if any(r.passed is False for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
