"""Remake bench/refs.json: independent GKw optima of the family-fit datasets.

For each dataset of the family-fit workload, a Nelder-Mead search on the
independent log-likelihood of reference.py (no gkw code) climbs from the
generating law and from four fixed offsets of it, in log coordinates
bounded to [-30, 30], the box gkw's fitter searches.  The best point
found is stored, after its log-likelihood has been confirmed with
50-digit mpmath arithmetic; the benchmark then requires the program's
GKw fit to reach at least that log-likelihood.

    python3 bench/make_refs.py        # about seven minutes on one core
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp
import numpy as np
from scipy import optimize

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
BOX = [(-30.0, 30.0)] * 5   # log-parameter walls of gkw's fitter


def _negll(phi, x):
    theta = tuple(float(v) for v in np.exp(phi))
    if not all(0.0 < v < math.inf for v in theta):
        return math.inf
    with np.errstate(all="ignore"):
        ll = float(np.sum(reference.log_pdf(theta, x)))
    return -ll if math.isfinite(ll) else math.inf


def best_point(truth, x):
    centre = np.log(np.maximum(np.asarray(truth, dtype=float), 1e-3))
    offsets = np.random.default_rng(20260101).normal(0.0, 1.0, size=(4, 5))
    options = {"maxiter": 20000, "maxfev": 20000, "xatol": 1e-10, "fatol": 1e-12,
               "adaptive": True}
    best = None
    for start in [centre, *(centre + offsets)]:
        res = optimize.minimize(_negll, np.clip(start, -29.0, 29.0), args=(x,),
                                method="Nelder-Mead", bounds=BOX, options=options)
        # restart once from the end point: the simplex often stalls early
        res = optimize.minimize(_negll, res.x, args=(x,), method="Nelder-Mead",
                                bounds=BOX, options=options)
        if best is None or res.fun < best.fun:
            best = res
    theta = [float(v) for v in np.exp(best.x)]
    return theta, reference.loglik(theta, x)


def mp_loglik(theta, x, dps: int = 50) -> float:
    with mp.workdps(dps):
        a, b, g, d, l = (mp.mpf(v) for v in theta)
        total = len(x) * (mp.log(l * a * b) - mp.log(mp.beta(g, d + 1)))
        for xi in x:
            xi = mp.mpf(float(xi))
            la = mp.log1p(-xi**a)          # log(1 - x^a)
            ly = mp.log(-mp.expm1(b * la))  # log y
            total += ((a - 1) * mp.log(xi) + (b - 1) * la + (g * l - 1) * ly
                      + d * mp.log(-mp.expm1(l * ly)))
        return float(total)


def main() -> int:
    refs = {}
    for spec in workloads.FIT_DATASETS:
        x = workloads.fit_values(spec)
        theta, ll = best_point(spec.truth, x)
        exact = mp_loglik(theta, x)
        if abs(ll - exact) > 1e-9 * abs(exact):
            raise SystemExit(f"{spec.name}: loglik {ll!r} at {theta} is {exact!r} in mpmath")
        refs[spec.name] = {"theta": theta, "loglik": ll}
        print(f"{spec.name}: loglik {ll:.6f} at {', '.join(f'{v:.6g}' for v in theta)}",
              flush=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
