"""The benchmark's workloads: their inputs, operations and checks.

A workload turns the seed into a list of operations.  An operation is
one call into a public entry point of gkw (the only timed part), a
collector that turns the call's return value into an output after the
clock has stopped, and a check that compares that output with an
independent computation from reference.py.  A check returns None when
the output passes and a one-line reason when it does not.

This module never imports gkw: the runner passes the freshly imported
package in, so that importing it can be timed as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Op:
    key: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]
    collect: Callable[[object], object] = lambda ret: ret
    fault: str | None = None  # the named known fault this operation shows
    work: tuple[str, int] | None = None  # (what, how many) one call produces


def throughput(ops, times) -> list[tuple[str, float]]:
    """(what, amount per second of call time) for each kind of work."""
    totals: dict[str, list] = {}
    for op, t in zip(ops, times):
        if op.work:
            acc = totals.setdefault(op.work[0], [0, 0.0])
            acc[0] += op.work[1]
            acc[1] += t
    return [(what, amount / secs) for what, (amount, secs) in totals.items()]


def _fmt(theta) -> str:
    return ",".join(repr(float(v)) for v in theta)


# ----------------------------------------------------------------------
# family-fit: `gkw fit` with its default eight models, through cli.main
# ----------------------------------------------------------------------


class FitSpec(NamedTuple):
    name: str
    truth: tuple
    n: int
    seed: int
    fault: str | None = None


def _nested_study_laws(faults) -> list[FitSpec]:
    """The first laws and seeds of the nested-ordering study (n = 150)."""
    rng = np.random.default_rng(60_000)
    out = []
    for k, fault in enumerate(faults):
        a, b, g, l = np.exp(rng.uniform(math.log(0.7), math.log(2.0), 4))
        d = rng.uniform(0.2, 1.8)
        out.append(FitSpec(f"nested-{k}", (a, b, g, d, l), 150, 61_000 + k, fault))
    return out


FIT_DATASETS = [
    FitSpec("workhorse-s1", (2, 3, 1.5, 0.5, 2), 2000, 1),
    FitSpec("workhorse-s3", (2, 3, 1.5, 0.5, 2), 2000, 3, "F5"),
    FitSpec("kw", (2, 3, 1, 0, 1), 2000, 910_000),
    FitSpec("beta-null", (1, 1, 2, 1.5, 1), 2000, 741_000, "F5"),
    FitSpec("kwkw-ridge", (2, 3, 1, 1, 0.7), 2000, 916_000),
    FitSpec("gkw-ridge", (2, 3, 0.5, 1, 0.7), 2000, 917_000),
    FitSpec("bkw-delta-wall", (2, 4, 0.5, 1, 1), 2000, 915_003, "F5"),
    *_nested_study_laws(["F5", "F5", None]),
]

LOGLIK_ATOL = 1e-6   # reported loglik against the independent sum: the
LOGLIK_RTOL = 1e-9   # nesting tolerance, or 1e-9 of the loglik if larger
NEST_TOL = 1e-6      # a nested model may not beat its parent by more
REF_TOL = 1e-3       # GKw may fall short of a reference optimum by this


def fit_values(spec: FitSpec) -> np.ndarray:
    return ref.draw(spec.truth, spec.n, spec.seed)


NESTED_PAIRS = {(a, b) for a in ref.PINS for b in ref.PINS if ref.nests(a, b)}


def nesting_violation(ll: dict) -> str | None:
    """A nested model's loglik above its parent's by more than NEST_TOL."""
    for null, alt in sorted(NESTED_PAIRS):
        if ll[alt] < ll[null] - NEST_TOL:
            return f"{alt} loglik {ll[alt]!r} below nested {null} {ll[null]!r}"
    return None


def check_fit(spec: FitSpec, x: np.ndarray, ref_theta, out) -> str | None:
    rc, text = out
    if rc != 0:
        return f"gkw fit exited with {rc}"
    report = json.loads(text)
    models = {m["name"]: m for m in report["models"]}
    if set(models) != set(ref.PINS):
        return f"models {sorted(models)} are not the default eight"
    ll = {}
    for name, m in models.items():
        theta = tuple(float(m["theta"][k]) for k in ref.NAMES)
        for i, v in ref.PINS[name].items():
            if theta[i] != v:
                return f"{name}: pinned {ref.NAMES[i]} = {theta[i]!r}, not {v!r}"
        free = [ref.NAMES[i] for i in range(5) if i not in ref.PINS[name]]
        if m["free"] != free:
            return f"{name}: free list {m['free']} is not {free}"
        ll[name] = float(m["loglik"])
        indep = ref.loglik(theta, x)
        if not abs(ll[name] - indep) <= max(LOGLIK_ATOL, LOGLIK_RTOL * abs(indep)):
            return f"{name}: reported loglik {ll[name]!r}, recomputed {indep!r}"
    bad = nesting_violation(ll)
    if bad:
        return bad
    for label, theta in (("generating law", spec.truth), ("reference point", ref_theta)):
        floor = ref.loglik(tuple(float(v) for v in theta), x)
        if ll["GKw"] < floor - REF_TOL:
            return f"GKw loglik {ll['GKw']:.6f} below the {label}'s {floor:.6f}"
    rows = {(r["null"], r["alt"]): r for r in report["lr_tests"]}
    if set(rows) != NESTED_PAIRS:
        return f"LR rows {sorted(rows)} are not the nested pairs"
    for (null, alt), r in rows.items():
        w = max(2.0 * (ll[alt] - ll[null]), 0.0)
        df = ref.free_count(alt) - ref.free_count(null)
        if not abs(r["w"] - w) <= 1e-9 * max(1.0, w):
            return f"LR {null}/{alt}: w {r['w']!r}, expected {w!r}"
        if r["df"] != df:
            return f"LR {null}/{alt}: df {r['df']}, expected {df}"
        p = ref.chi2_sf(w, df)
        if not abs(r["p_value"] - p) <= 1e-9 * p + 1e-15:
            return f"LR {null}/{alt}: p {r['p_value']!r}, expected {p!r}"
    return None


def family_fit(gkw, seed: int, outdir: str) -> list[Op]:
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    os.makedirs(os.path.join(outdir, "data"), exist_ok=True)
    ops = []
    for k in np.random.default_rng(seed).permutation(len(FIT_DATASETS)):
        spec = FIT_DATASETS[k]
        x = fit_values(spec)
        data = os.path.join(outdir, "data", spec.name + ".csv")
        report = os.path.join(outdir, "data", spec.name + ".json")
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("x\n" + "".join(format(v, ".17g") + "\n" for v in x))
        argv = ["fit", "--data", data, "--out", report, "--quiet"]

        def collect(rc, report=report):
            with open(report, encoding="utf-8") as fh:
                return rc, fh.read()

        ops.append(Op(
            key=spec.name,
            call=lambda argv=argv: gkw.cli.main(argv),
            collect=collect,
            check=lambda out, spec=spec, x=x: check_fit(spec, x, refs[spec.name]["theta"], out),
            fault=spec.fault,
            work=("fit reports", 1),
        ))
    return ops


# ----------------------------------------------------------------------
# sampling: core.sample at 1e5 draws, plus the sampler faults F1-F3
# ----------------------------------------------------------------------

SHAPES = [
    ("kw", (2, 3, 1, 0, 1)),
    ("beta", (1, 1, 2, 1.5, 1)),
    ("workhorse", (2, 3, 1.5, 0.5, 2)),
    ("kwkw", (2, 2, 1, 1.5, 2)),
    ("spike", (0.5, 0.5, 3, 0, 2)),
]
DRAWS = 100_000
KS_PMIN = 1e-6          # a correct sampler fails this once in a million runs
QUANTILE_TOL = 1e-9     # |F(quantile(u)) - u|, the accuracy gkw documents
CDF_ATOL, CDF_RTOL = 1e-12, 1e-10

F1 = (1, 1, 0.01, 0, 1)
F2 = (2, 3, 0.001, 4, 1)
F3 = (2, 3, 1e4, 9999, 1)
F4 = (1.59, 5.70, 9.7e-5, 3.86e10, 4388)
FAULT_DRAWS = 2000


def check_draws(theta, n, x) -> str | None:
    """Draws inside (0, 1) that pass KS against the independent cdf.

    That the same seed gives the same draws is checked by the runner,
    which compares every round's output with the first round's.
    """
    x = np.asarray(x)
    if x.shape != (n,):
        return f"{x.shape} draws, expected {n}"
    if not np.all((x > 0.0) & (x < 1.0)):
        return "a draw lies outside the open interval (0, 1)"
    p = ref.ks_pvalue(theta, x)
    if p < KS_PMIN:
        return f"KS p-value {p:.3g} against the independent cdf"
    return None


def quantile_excess(theta, u, q):
    """|F(q) - u| beyond QUANTILE_TOL and the float spacing at q.

    Where the density is steep, one float step in q moves F by more than
    QUANTILE_TOL, so the nearest representable q can miss u by that step.
    """
    q = np.asarray(q, dtype=float)
    out = np.full(q.shape, math.inf)
    inside = (q > 0.0) & (q < 1.0)
    qi = q[inside]
    f = ref.cdf(theta, qi)
    step = np.maximum(np.abs(ref.cdf(theta, np.nextafter(qi, 1.0)) - f),
                      np.abs(f - ref.cdf(theta, np.nextafter(qi, 0.0))))
    out[inside] = np.abs(f - np.asarray(u, dtype=float)[inside]) - step - QUANTILE_TOL
    return out


def check_quantiles(theta, u, q) -> str | None:
    excess = quantile_excess(theta, u, q)
    worst = int(np.argmax(excess))
    if excess[worst] > 0.0:
        q = np.asarray(q, dtype=float)
        return f"F(q) misses u = {u[worst]!r} by {excess[worst]:.3g} beyond tolerance (q = {q[worst]!r})"
    return None


def check_cdf(theta, x, c) -> str | None:
    want = ref.cdf(theta, x)
    err = np.abs(np.asarray(c, dtype=float) - want) - (CDF_ATOL + CDF_RTOL * want)
    worst = int(np.argmax(err))
    if err[worst] > 0.0:
        return f"cdf({x[worst]!r}) = {np.asarray(c)[worst]!r}, expected {want[worst]!r}"
    return None


def _params(gkw, theta):
    return gkw.core.Params(*(float(v) for v in theta))


def sampling(gkw, seed: int, outdir: str) -> list[Op]:
    core = gkw.core
    ops = []
    for i, (name, theta) in enumerate(SHAPES):
        p = _params(gkw, theta)
        s = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        ops.append(Op(
            key=f"sample-{name}",
            call=lambda p=p, s=s: core.sample(p, DRAWS, seed=s),
            check=lambda x, theta=theta: check_draws(theta, DRAWS, x),
            work=("draws", DRAWS),
        ))
    u19 = np.linspace(0.05, 0.95, 19)
    u9 = np.linspace(0.1, 0.9, 9)
    p1, p2, p3 = (_params(gkw, t) for t in (F1, F2, F3))

    def both(theta, u):
        def check(out):
            x, q = out
            return check_draws(theta, FAULT_DRAWS, x) or check_quantiles(theta, u, q)
        return check

    ops += [
        Op("F1-sample-quantile",
           lambda: (core.sample(p1, FAULT_DRAWS, seed=1), core.quantile(p1, u19)),
           both(F1, u19), fault="F1"),
        Op("F2-sample-quantile",
           lambda: (core.sample(p2, FAULT_DRAWS, seed=1), core.quantile(p2, u9)),
           both(F2, u9), fault="F2"),
        Op("F3-sample",
           lambda: core.sample(p3, FAULT_DRAWS, seed=1),
           lambda x: check_draws(F3, FAULT_DRAWS, x),
           fault="F3"),
    ]
    return ops


# ----------------------------------------------------------------------
# eval: cdf and quantile on 1e4-point arrays, and single-point
# pdf/cdf/quantile calls as `gkw eval` makes them
# ----------------------------------------------------------------------

GRID = 10_000
CDF_GRIDS = 20        # per shape; sized so each call kind holds a fair share
POINTS = 200          # single-point calls per kind and shape
PDF_RTOL = 1e-12


def _point_check(kind, theta, pts, j, array_path, cache):
    """Check one single-point result against reference and array path."""
    def check(v):
        if kind not in cache:
            cache[kind] = np.asarray(array_path(), dtype=float)
        arr = float(cache[kind][j])
        t = pts[j]
        if kind == "pdf":
            want = float(ref.pdf(theta, t))
            if not (abs(v - want) <= PDF_RTOL * want and abs(v - arr) <= PDF_RTOL * want):
                return f"pdf({t!r}) = {v!r}; reference {want!r}, array path {arr!r}"
            return None
        if kind == "cdf":
            want = float(ref.cdf(theta, t))
            tol = CDF_ATOL + CDF_RTOL * want
            if not (abs(v - want) <= tol and abs(v - arr) <= 2 * tol):
                return f"cdf({t!r}) = {v!r}; reference {want!r}, array path {arr!r}"
            return None
        if quantile_excess(theta, [t, t], [v, arr]).max() > 0.0:
            return f"quantile({t!r}) = {v!r}, array path {arr!r}: F misses u"
        return None
    return check


def eval_calls(gkw, seed: int, outdir: str) -> list[Op]:
    core = gkw.core
    ops = []
    for i, (name, theta) in enumerate(SHAPES):
        p = _params(gkw, theta)
        rng = np.random.default_rng([seed, i])
        u = rng.random(GRID)
        ops.append(Op(f"quantile-grid-{name}", lambda p=p, u=u: core.quantile(p, u),
                      lambda q, theta=theta, u=u: check_quantiles(theta, u, q),
                      work=("array quantile points", GRID)))
        for k in range(CDF_GRIDS):
            x = rng.random(GRID)
            ops.append(Op(f"cdf-grid-{name}-{k}", lambda p=p, x=x: core.cdf(p, x),
                          lambda c, theta=theta, x=x: check_cdf(theta, x, c),
                          work=("array cdf points", GRID)))
        for kind in ("pdf", "cdf", "quantile"):
            pts = rng.random(POINTS)
            cache = {}
            for j, t in enumerate(pts.tolist()):
                ops.append(Op(
                    f"{kind}-point-{name}-{j}",
                    lambda kind=kind, p=p, t=t: getattr(core, kind)(p, t),
                    _point_check(kind, theta, pts, j,
                                 lambda kind=kind, p=p, pts=pts: getattr(core, kind)(p, pts),
                                 cache),
                    work=("single-point calls", 1),
                ))
    x4 = np.array([0.1, 0.3])
    p4 = _params(gkw, F4)
    ops.append(Op("F4-cdf", lambda: core.cdf(p4, x4),
                  lambda c: check_cdf(F4, x4, c), fault="F4"))
    return ops


# ----------------------------------------------------------------------
# properties: `gkw props` over the twelve qualitative shapes
# ----------------------------------------------------------------------

# The shapes of tests/gridpoints.py, frozen here so that the workload
# does not move when the test grid does.  F6 and F7 are faults of the
# series layer found while building this benchmark (README.md).
PROPS_SHAPES = [
    ("uniform", (1, 1, 1, 0, 1), None),
    ("kw22", (2, 2, 1, 0, 1), None),
    ("workhorse", (2, 3, 1.5, 0.5, 2), "F6"),
    ("bathtub", (0.7, 0.8, 0.6, 0, 0.9), "F6"),
    ("decreasing", (0.5, 1, 0.8, 0, 1), None),
    ("increasing_j", (1, 0.5, 3, 0, 1), "F7"),
    ("beta52", (1, 1, 5, 1, 1), None),
    ("beta25", (1, 1, 2, 4, 1), None),
    ("kwkw", (2, 2, 1, 1.5, 2), None),
    ("ekw", (2, 3, 1, 0, 2), None),
    ("spike", (0.5, 0.5, 3, 0, 2), "F7"),
    ("mound", (1.5, 1.8, 1.4, 0.8, 1.1), None),
]
PROPS_ARGS = (
    ["--moments", "4", "--lmoments", "--entropy", "0.5", "--deviations"],
    ["--entropy", "2"],
)
PROPS_RTOL, PROPS_ATOL = 1e-8, 1e-10


def _close(got, want) -> bool:
    return abs(got - want) <= PROPS_ATOL + PROPS_RTOL * abs(want)


def check_props(theta, out) -> str | None:
    (rc1, text1), (rc2, text2) = out
    if rc1 != 0 or rc2 != 0:
        return f"gkw props exited with {rc1}, {rc2}"
    main, second = json.loads(text1), json.loads(text2)
    for r in range(1, 5):
        got, want = main[f"mu{r}"], ref.moment(theta, r)
        if not _close(got, want):
            return f"mu{r} = {got!r}, expected {want!r}"
    l1, l2, l3, l4 = (main[f"l{i}"] for i in range(1, 5))
    if not _close(l1, main["mu1"]):
        return f"l1 = {l1!r} differs from mu1 = {main['mu1']!r}"
    if not l2 > 0.0:
        return f"l2 = {l2!r} is not positive"
    t3, t4 = l3 / l2, l4 / l2
    if not (abs(t3) < 1.0 and (5.0 * t3 * t3 - 1.0) / 4.0 <= t4 < 1.0):
        return f"L-moment ratios tau3 = {t3!r}, tau4 = {t4!r} are not attainable"
    for rho, out_rho in ((0.5, main), (2.0, second)):
        got, want = out_rho["renyi"], ref.renyi(theta, rho)
        if (got == "divergent") != (want is None):
            return f"renyi({rho}) = {got!r}, expected {'divergent' if want is None else want}"
        if want is not None and not _close(got, want):
            return f"renyi({rho}) = {got!r}, expected {want!r}"
    d1, d2 = ref.mean_deviations(theta)
    if not (_close(main["delta1"], d1) and _close(main["delta2"], d2)):
        return f"mean deviations {main['delta1']!r}, {main['delta2']!r}; expected {d1!r}, {d2!r}"
    return None


def properties(gkw, seed: int, outdir: str) -> list[Op]:
    def run(theta_text):
        outs = []
        for extra in PROPS_ARGS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = gkw.cli.main(["props", "--theta", theta_text, *extra, "--quiet"])
            outs.append((rc, buf.getvalue()))
        return outs

    ops = []
    for k in np.random.default_rng(seed).permutation(len(PROPS_SHAPES)):
        name, theta, fault = PROPS_SHAPES[k]
        ops.append(Op(name, lambda t=_fmt(theta): run(t),
                      lambda out, theta=theta: check_props(theta, out),
                      fault=fault, work=("property sets", 1)))
    return ops


WORKLOADS = {
    "family-fit": family_fit,
    "sampling": sampling,
    "eval": eval_calls,
    "properties": properties,
}
