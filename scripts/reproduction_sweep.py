#!/usr/bin/env python3
"""Truncation radius versus Monte Carlo variance for strip reproduction.

The strip walls are unbounded, so the sampler draws from a truncated
wall segment of half-length R and reweights.  The boundary kernel seen
by the integrand decays like |z - w|^-7 along the wall, which puts
essentially all of its mass within |Im| <~ 2 of the evaluation point.
Raising R therefore adds volume that contributes nothing but variance:
past R ~ 10 the hit fraction collapses and the estimate degenerates to
0 with a misleadingly small in-sample standard error.  This script
measures that directly for f(w) = q0(w - c) reproduced at a strip
midpoint, printing per-radius estimates, errors, and tail bounds.

Run:  python3 scripts/reproduction_sweep.py --samples 200000 --seeds 3
"""

import argparse
import warnings

import numpy as np

from octomono.algebra import Octonion
from octomono.functions import shifted_cauchy_kernel
from octomono.kernels import StripDomain
from octomono.quadrature import McConfig, szego_reproduce_strip
from octomono.regularity import q0_many


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--radii", type=float, nargs="+", default=[1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0]
    )
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--seeds", type=int, default=3, help="seeds 42..42+n-1, averaged")
    ap.add_argument("--z", type=float, default=0.5, help="real evaluation point in (0, d)")
    ap.add_argument("--c", type=float, default=-1.0, help="real pole of the test function")
    ap.add_argument("--d", type=float, default=1.0, help="strip width")
    args = ap.parse_args()

    dom = StripDomain(args.d)
    f = shifted_cauchy_kernel(Octonion(args.c))
    target = Octonion(*q0_many(np.array([args.z - args.c] + [0.0] * 7)))
    tnorm = target.norm()
    print(f"target |f({args.z})| = {tnorm:.6e}   samples/seed = {args.samples}")
    print(
        f"{'R':>6}  {'mean est.':>12}  {'rel err':>9}  {'std_err':>10}  "
        f"{'tail est':>10}  {'rms spread':>10}"
    )
    for radius in args.radii:
        vals, errs, tails = [], [], []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(42, 42 + args.seeds):
                cfg = McConfig(seed=seed, samples=args.samples, radius=radius)
                (r,) = szego_reproduce_strip([(f, Octonion(args.z))], dom, cfg)
                vals.append(r.value.to_array())
                errs.append(r.std_err)
                tails.append(r.tail_est)
        mean = np.mean(vals, axis=0)
        rel = float(np.linalg.norm(mean - target.to_array())) / tnorm
        spread = float(np.sqrt(np.mean([np.sum((v - mean) ** 2) for v in vals])))
        print(
            f"{radius:6.1f}  {float(mean[0]):12.5e}  {rel:9.2%}  "
            f"{float(np.mean(errs)):10.2e}  {float(np.mean(tails)):10.2e}  {spread:10.2e}"
        )
    print(
        "\nnote: large R drives both the estimate and the in-sample std_err "
        "toward 0 because the sampler no longer lands where the kernel has "
        "mass; the tail column bounds what the truncation itself discards."
    )


if __name__ == "__main__":
    main()
