"""End-to-end acceptance checks for the whole toolkit.

Every test here verifies one advertised numerical guarantee at its
stated tolerance against an independent route: closed forms evaluated
with mpmath, high-accuracy quadrature carried out in log coordinates
(so boundary singularities and sub-double-precision tail mass are
integrated exactly rather than clipped), finite differences, or Monte
Carlo.  Each test prints a one-line scoreboard entry with the measured
figure before asserting, so a full run reads as a summary table even
when everything passes.

The simulation studies (recovery coverage, likelihood-ratio calibration)
use frozen seeds; their runtimes are asserted against explicit budgets.
"""

import math
import time
import warnings

import numpy as np
import pytest
from mpmath import mp

from gkw import core, estim, oracle, series
from gkw.core import Params, SUBMODELS
from gkw.series import DivergentIntegralError
from gkw.specfun import inv_reg_inc_beta, ln_beta

from crosscheck import (
    ExpansionDomainError,
    SeriesDivergenceWarning,
    cdf_expansion,
    fd_grad,
    fd_hess,
    mc_order_stat_mean,
    moment_series,
    order_stat_moment_barakat,
    order_stat_series,
    pdf_expansion,
    quantile_series_coeffs,
)
from gridpoints import (
    BETA25,
    BETA52,
    EKW,
    GRID12,
    GRID_BY_NAME,
    KW22,
    UNIFORM,
    WORKHORSE,
)

_PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "lam")


def _emit(capsys, text):
    """Print one scoreboard line straight to the terminal."""
    with capsys.disabled():
        print(text, flush=True)


# ----------------------------------------------------------------------
# quadrature oracle in log coordinates
#
# For densities with endpoint singularities like (1-x)^(-1/2), an
# x-space integrator cannot see the ~1e-8 of probability mass that sits
# within one double-precision ulp of 1.  Substituting s = log x on the
# left half and s = log(1-x) on the right half turns both endpoint
# layers into plain exponential decay, which adaptive panels resolve to
# near machine precision.  exp(-700) is still a normal double, and the
# mass beyond it is negligible for every integrand checked here.
# ----------------------------------------------------------------------

S_LO = -700.0
S_MID = math.log(0.5)


def _half_integrand(theta, side, weight_r=0.0, rho=1.0):
    """Integrand g(s) with  int g ds = int x^r f(x)^rho dx  over one half.

    ``side`` selects the substitution: "left" means s = log x over
    (0, 1/2], "right" means s = log(1-x) over [1/2, 1).
    """

    def g(s):
        s = np.asarray(s, dtype=float)
        log_x = s if side == "left" else np.log1p(-np.exp(s))
        lp = core._log_pdf_at(theta, log_x)
        return np.exp(s + weight_r * log_x + rho * lp)

    return g


def _quad_unit(theta, weight_r=0.0, rho=1.0, tol=1e-13):
    """int_0^1 x^weight_r f(x)^rho dx by split log-coordinate quadrature."""
    left = oracle.adaptive_quad(
        _half_integrand(theta, "left", weight_r, rho), S_LO, S_MID,
        tol=tol, max_subdiv=4000,
    )
    right = oracle.adaptive_quad(
        _half_integrand(theta, "right", weight_r, rho), S_LO, S_MID,
        tol=tol, max_subdiv=4000,
    )
    return float(left) + float(right)


def _cdf_quad(theta, q, tol=1e-13):
    """int_0^q f(x) dx via the same substitutions."""
    if q <= 0.5:
        part = oracle.adaptive_quad(
            _half_integrand(theta, "left"), S_LO, math.log(q),
            tol=tol, max_subdiv=4000,
        )
        return float(part)
    upper = oracle.adaptive_quad(
        _half_integrand(theta, "right"), S_LO, math.log1p(-q),
        tol=tol, max_subdiv=4000,
    )
    return _quad_unit(theta, tol=tol) - float(upper)


# ----------------------------------------------------------------------
# 1. density normalization and cdf/pdf consistency
# ----------------------------------------------------------------------

def test_normalization_and_cdf_consistency(capsys):
    t0 = time.time()
    worst_norm = 0.0
    worst_cdf = 0.0
    for _, theta in GRID12:
        worst_norm = max(worst_norm, abs(_quad_unit(theta) - 1.0))
        for q in (0.1, 0.35, 0.65, 0.9):
            diff = abs(core.cdf(theta, q) - _cdf_quad(theta, q))
            worst_cdf = max(worst_cdf, diff)
    dt = time.time() - t0
    ok = worst_norm <= 1e-8 and worst_cdf <= 1e-8 and dt < 10.0
    _emit(capsys,
          f"normalization (12 shapes): {'PASS' if ok else 'FAIL'} "
          f"(max |int pdf - 1| = {worst_norm:.2e}, "
          f"max |cdf - int pdf| = {worst_cdf:.2e}, {dt:.1f}s)")
    assert worst_norm <= 1e-8
    assert worst_cdf <= 1e-8
    assert dt < 10.0


# ----------------------------------------------------------------------
# 2. special cases reduce to their classical closed forms
# ----------------------------------------------------------------------

def _closed_forms(name, theta, x):
    """Return (pdf, cdf) of the classical special case at x via mpmath."""
    a, b, g, d, l = [mp.mpf(float(v)) for v in theta.as_tuple()]
    x = mp.mpf(x)
    if name == "Beta":
        pdf = x ** (g - 1) * (1 - x) ** d / mp.beta(g, d + 1)
        cdf = mp.betainc(g, d + 1, 0, x, regularized=True)
    elif name == "Kw":
        pdf = a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1)
        cdf = 1 - (1 - x ** a) ** b
    elif name == "EKw":
        y = 1 - (1 - x ** a) ** b
        pdf = l * a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1) * y ** (l - 1)
        cdf = y ** l
    elif name == "KwKw":
        y = 1 - (1 - x ** a) ** b
        pdf = ((d + 1) * l * a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1)
               * y ** (l - 1) * (1 - y ** l) ** d)
        cdf = 1 - (1 - y ** l) ** (d + 1)
    elif name in ("Mc", "BP"):
        pdf = l * x ** (g * l - 1) * (1 - x ** l) ** d / mp.beta(g, d + 1)
        cdf = mp.betainc(g, d + 1, 0, x ** l, regularized=True)
    else:  # pragma: no cover - guard against typos in the table below
        raise AssertionError(name)
    return float(pdf), float(cdf)


_SPECIAL_CASES = [
    ("Beta", Params(1, 1, 2.5, 1.5, 1)),
    ("Kw", Params(2, 3, 1, 0, 1)),
    ("EKw", Params(2, 3, 1, 0, 1.5)),
    ("KwKw", Params(2, 3, 1, 1.5, 2)),
    ("Mc", Params(1, 1, 2, 1.5, 2)),
    ("BP", Params(1, 1, 1.5, 2, 0.8)),
]


def test_submodel_closed_forms(capsys):
    with mp.workdps(40):
        worst = 0.0
        for name, theta in _SPECIAL_CASES:
            for x in np.linspace(0.03, 0.97, 20):
                ref_pdf, ref_cdf = _closed_forms(name, theta, float(x))
                ep = abs(core.pdf(theta, float(x)) - ref_pdf)
                ec = abs(core.cdf(theta, float(x)) - ref_cdf)
                worst = max(worst, ep / max(1.0, abs(ref_pdf)), ec)
    ok = worst <= 1e-12
    _emit(capsys,
          f"special-case closed forms (6 laws x 20 pts): "
          f"{'PASS' if ok else 'FAIL'} (max scaled err = {worst:.2e})")
    assert worst <= 1e-12


# ----------------------------------------------------------------------
# 3. expansion evaluators (tests/crosscheck.py) honour their reported
#    tail bounds
# ----------------------------------------------------------------------

def test_expansion_tail_bounds(capsys):
    n_conv = n_flag = 0
    worst_bound = 0.0
    worst_excess = -math.inf
    for _, theta in GRID12:
        for x in (0.25, 0.5, 0.75):
            for fn, ref_fn in ((pdf_expansion, core.pdf), (cdf_expansion, core.cdf)):
                with warnings.catch_warnings(record=True) as rec:
                    warnings.simplefilter("always")
                    try:
                        sv = fn(theta, x)
                    except ExpansionDomainError:
                        n_flag += 1
                        continue
                warned = any(issubclass(w.category, SeriesDivergenceWarning)
                             for w in rec)
                if warned or not sv.converged:
                    # flagged, not silently wrong
                    assert warned and not sv.converged
                    n_flag += 1
                    continue
                n_conv += 1
                err = abs(float(sv) - float(ref_fn(theta, x)))
                worst_bound = max(worst_bound, sv.tail_bound)
                worst_excess = max(worst_excess, err - sv.tail_bound)
    # converged values must sit inside the reported truncation bound
    # (plus float accumulation) and the achieved bounds must be tight
    ok = worst_bound <= 1e-6 and worst_excess <= 1e-9 and n_conv >= 48
    _emit(capsys,
          f"expansion tail bounds: {'PASS' if ok else 'FAIL'} "
          f"({n_conv} converged, {n_flag} flagged, "
          f"max bound = {worst_bound:.2e}, max err-bound = {worst_excess:.2e})")
    assert worst_bound <= 1e-6
    assert worst_excess <= 1e-9
    assert n_conv >= 48 and n_flag > 0


# ----------------------------------------------------------------------
# 4. moments: expansion route vs quadrature, plus exact anchors
# ----------------------------------------------------------------------

def test_moments_dual_route(capsys):
    worst = 0.0
    for _, theta in GRID12:
        for r in (1.0, 2.0, 3.0, 4.0):
            got = float(series.moment(theta, r))
            ref = _quad_unit(theta, weight_r=r)
            tol = max(1e-6, 1e-4 * abs(ref))
            worst = max(worst, abs(got - ref) / tol)
    kw_mean = abs(float(series.moment(KW22, 1.0)) - 8.0 / 15.0)
    beta_mean = abs(float(series.moment(BETA52, 1.0)) - 5.0 / 7.0)
    # the paper's expansion (tests/crosscheck.py) wherever it applies and
    # converges on the integer-delta laws: its truncated m-sums put bathtub
    # mu_4 6.9e-10 relative off
    series_gap, n_series = 0.0, 0
    for _, theta in GRID12:
        for r in (1.0, 2.0, 3.0, 4.0):
            ref = moment_series(theta, r)
            if ref is not None:
                got = float(series.moment(theta, r))
                series_gap = max(series_gap, abs(got - float(ref)) / abs(got))
                n_series += 1
    ok = (worst <= 1.0 and kw_mean <= 1e-10 and beta_mean <= 1e-10
          and series_gap <= 1e-9 and n_series >= 33)
    _emit(capsys,
          f"moments r=1..4 (12 shapes): {'PASS' if ok else 'FAIL'} "
          f"(max err/tol = {worst:.2e}, exact anchors "
          f"{kw_mean:.1e} / {beta_mean:.1e}, paper's series on {n_series} "
          f"values {series_gap:.1e} relative)")
    assert worst <= 1.0
    assert kw_mean <= 1e-10
    assert beta_mean <= 1e-10
    assert n_series >= 33 and series_gap <= 1e-9


# ----------------------------------------------------------------------
# 5. analytic score and observed information vs finite differences
# ----------------------------------------------------------------------

def test_score_and_information_vs_fd(capsys):
    t0 = time.time()
    worst_g = worst_h = 0.0
    for k in range(50):
        rng = np.random.default_rng(777_000 + k)
        a, b, g, l = np.exp(rng.uniform(math.log(0.6), math.log(2.2), 4))
        d = rng.uniform(0.2, 2.0)
        theta = Params(a, b, g, d, l)
        data = estim.Dataset(core.sample(theta, 80, seed=778_000 + k))

        def ll(v):
            return estim.log_likelihood(Params(*v), data)

        v0 = np.array(theta.as_tuple())
        s = estim.score(theta, data)
        fd_s = fd_grad(ll, v0)
        worst_g = max(worst_g,
                      float(np.max(np.abs(s - fd_s) / np.maximum(1.0, np.abs(s)))))
        info = estim.observed_info(theta, data)
        fd_h = fd_hess(ll, v0)
        worst_h = max(worst_h,
                      float(np.max(np.abs(info + fd_h) / np.maximum(1.0, np.abs(info)))))
    dt = time.time() - t0
    ok = worst_g <= 1e-5 and worst_h <= 1e-4 and dt < 60.0
    _emit(capsys,
          f"score/information vs FD (50 instances): "
          f"{'PASS' if ok else 'FAIL'} (grad {worst_g:.2e}, "
          f"info {worst_h:.2e}, {dt:.1f}s)")
    assert worst_g <= 1e-5
    assert worst_h <= 1e-4
    assert dt < 60.0


# ----------------------------------------------------------------------
# 6. order-statistic means: the paper's series route, the survival-power
#    route (both tests/crosscheck.py), Monte Carlo and the library's
#    quadrature agree
# ----------------------------------------------------------------------

def test_order_stat_three_routes(capsys):
    worst_rel = 0.0
    worst_mc = 0.0
    worst_quad = 0.0
    # beta52 (gamma*lambda = 5): 1 - F has four leading zeros and, as a
    # polynomial, interior zero runs
    for j, (_, theta) in enumerate((("kw22", KW22), ("ekw", EKW),
                                    ("workhorse", WORKHORSE), ("beta52", BETA52))):
        for k, (i, n) in enumerate(((1, 2), (2, 3), (3, 3))):
            a = float(order_stat_series(theta, i, n, 1.0))
            b = float(order_stat_moment_barakat(theta, i, n, 1))
            worst_rel = max(worst_rel, abs(a - b) / abs(a))
            mc, se = mc_order_stat_mean(theta, i, n, 1.0, 100_000,
                                        seed=52_100 + 10 * k + j)
            worst_mc = max(worst_mc, abs(a - mc) / (3.0 * se))
            quad = series.order_stat_moment_series(theta, i, n, 1.0)
            assert quad.method == "quadrature" and quad.converged, (i, n)
            worst_quad = max(worst_quad, abs(float(quad) - a) / abs(a))
    ok = worst_rel <= 1e-4 and worst_mc <= 1.0 and worst_quad <= 1e-11
    _emit(capsys,
          f"order-stat means (4 shapes x 3 (i,n)): {'PASS' if ok else 'FAIL'} "
          f"(route diff = {worst_rel:.2e}, max |diff|/3SE = {worst_mc:.2f}, "
          f"quadrature {worst_quad:.1e} relative)")
    assert worst_rel <= 1e-4
    assert worst_mc <= 1.0
    assert worst_quad <= 1e-11


# ----------------------------------------------------------------------
# 7. sampler distributional correctness (one-sample KS)
# ----------------------------------------------------------------------

def test_sampler_ks(capsys):
    n = 100_000
    limit = 1.62762 / math.sqrt(n)  # 99% one-sample KS band
    worst = 0.0
    for name in ("kw22", "workhorse", "beta25", "ekw", "mound"):
        theta = GRID_BY_NAME[name]
        for seed in (11, 12, 13):
            x = np.sort(core.sample(theta, n, seed=seed))
            u = core.cdf(theta, x)
            i = np.arange(n)
            d = max(float(np.max(u - i / n)), float(np.max((i + 1) / n - u)))
            worst = max(worst, d)
    ok = worst < limit
    _emit(capsys,
          f"sampler KS (5 shapes x 3 seeds, n=1e5): "
          f"{'PASS' if ok else 'FAIL'} (max D = {worst:.5f}, "
          f"band = {limit:.5f})")
    assert worst < limit


# ----------------------------------------------------------------------
# 8. maximum-likelihood recovery: likelihood-ratio and Wald coverage
# ----------------------------------------------------------------------
#
# 200 replications per law at n = 2000 with frozen seeds.  Every law is
# judged by the likelihood-ratio (Wilks 1938) confidence region, the
# interval that maximum likelihood itself supports and that the paper's
# testing section relies on: the share of replications with
# 2 (l(theta_hat) - l(truth)) <= chi2_{k, 0.95}, k the free-parameter
# count, must land in [0.90, 0.99].  The lower edge catches a biased or
# wrong likelihood, the upper edge a fitter that stops short of the
# maximum.  No replication may end below the likelihood of the truth,
# which the fitter could always have reached.
#
# The laws with at most three free parameters must in addition give
# 95% Wald coverage in [0.90, 0.99] for every free parameter and a
# median estimate within 5% of the truth; replications that did not
# converge or whose observed information is singular count as Wald
# misses.  The Wald check is not a property of maximum likelihood in
# the three ridge laws (BKw, KwKw, GKw), so it is reported for them but
# not asserted: their likelihood carries a near-flat ridge (gamma up,
# lambda down, gamma*lambda roughly fixed, alpha compensating) plus
# boundary attractors (gamma -> inf with lambda -> 0, and delta = 0)
# where the sample likelihood is genuinely maximal and the observed
# information is singular.  At n = 2000, about 20-45% of the replications
# end there without converging or with singular information, and even
# the fits that converge with finite standard errors cover at only
# about 0.7-0.8 on their worst parameter, because the quadratic
# approximation behind a Wald interval fails along the ridge.  The
# likelihood-ratio region needs no such approximation.

_RECOVERY_TRUTHS = [
    ("Kw", Params(2, 3, 1, 0, 1), 910_000),
    ("Beta", Params(1, 1, 2, 2, 1), 911_000),
    ("EKw", Params(2, 3, 1, 0, 2), 912_000),
    ("Mc", Params(1, 1, 1, 4, 2), 913_000),
    ("BP", Params(1, 1, 1, 2.5, 2), 914_000),
    ("BKw", Params(2, 4, 0.5, 1, 1), 915_000),
    ("KwKw", Params(2, 3, 1, 1, 0.7), 916_000),
    ("GKw", Params(2, 3, 0.5, 1, 0.7), 917_000),
]

_RECOVERY_REPS = 200
_RECOVERY_N = 2000
_RECOVERY_TIMES: dict[str, float] = {}
# upper 5% points of chi-square with k = 2..5 degrees of freedom
_CHI2_95 = {2: 5.991465, 3: 7.814728, 4: 9.487729, 5: 11.070498}


@pytest.mark.slow
@pytest.mark.parametrize("name,truth,base", _RECOVERY_TRUTHS,
                         ids=[t[0] for t in _RECOVERY_TRUTHS])
def test_mle_recovery_coverage(capsys, name, truth, base):
    t0 = time.time()
    sub = SUBMODELS[name]
    idx = [_PARAM_NAMES.index(f) for f in sub.free_names]
    tv = np.array(truth.as_tuple())[idx]
    cover = np.zeros(len(idx))
    hats = []
    n_wilks = 0
    worst_gain = math.inf
    n_unconverged = 0
    n_singular = 0
    for rep in range(_RECOVERY_REPS):
        data = estim.Dataset(core.sample(truth, _RECOVERY_N, seed=base + rep))
        r = estim.fit(data, sub)
        gain = r.loglik - estim.log_likelihood(truth, data)
        worst_gain = min(worst_gain, gain)
        n_wilks += 2.0 * gain <= _CHI2_95[sub.free_count]
        h = np.array(r.theta_hat.as_tuple())[idx]
        hats.append(h)
        if not r.converged:
            n_unconverged += 1
            continue
        if r.std_errors is None:
            n_singular += 1
            continue
        lo = h - 1.96 * r.std_errors
        hi = h + 1.96 * r.std_errors
        cover += (lo <= tv) & (tv <= hi)
    wilks = n_wilks / _RECOVERY_REPS
    cov = cover / _RECOVERY_REPS
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        med = np.nanmedian(np.array(hats), axis=0)
    bias = np.abs(med - tv) / tv
    _RECOVERY_TIMES[name] = time.time() - t0
    wilks_ok = 0.90 <= wilks <= 0.99 and worst_gain >= -1e-6
    wald_ok = bool(np.all((cov >= 0.90) & (cov <= 0.99)) and np.all(bias < 0.05))
    ridge = sub.free_count > 3
    ok = wilks_ok and (ridge or wald_ok)
    detail = (f"LR coverage {wilks:.3f}, "
              f"min l(hat) - l(truth) {worst_gain:.2e}, "
              f"Wald coverage {np.round(cov, 3).tolist()}"
              f"{' (not asserted)' if ridge else ''}, "
              f"median bias % {np.round(100 * bias, 2).tolist()}, "
              f"not converged {n_unconverged}/{_RECOVERY_REPS}, "
              f"singular info {n_singular}/{_RECOVERY_REPS}")
    _emit(capsys, f"  recovery {name:4s}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert wilks_ok, (
        f"likelihood-ratio recovery out of range for {name}: {detail}. "
        "The 95% Wilks region must cover the truth in 90-99% of "
        "replications, and no fit may end below the truth's likelihood."
    )
    if not ridge:
        assert wald_ok, f"Wald recovery out of range for {name}: {detail}"


@pytest.mark.slow
def test_mle_recovery_runtime_budget(capsys):
    dt = sum(_RECOVERY_TIMES.values())
    ok = len(_RECOVERY_TIMES) == len(_RECOVERY_TRUTHS) and dt < 900.0
    _emit(capsys,
          f"mle recovery runtime (8 laws x 200 reps, n=2000): "
          f"{'PASS' if ok else 'FAIL'} ({dt:.0f}s of 900s budget)")
    assert len(_RECOVERY_TIMES) == len(_RECOVERY_TRUTHS)
    assert dt < 900.0


# ----------------------------------------------------------------------
# 9. likelihood-ratio machinery: nesting order and null calibration
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_nested_loglik_ordering(capsys):
    worst = -math.inf
    rng = np.random.default_rng(60_000)
    for k in range(20):
        a, b, g, l = np.exp(rng.uniform(math.log(0.7), math.log(2.0), 4))
        d = rng.uniform(0.2, 1.8)
        truth = Params(a, b, g, d, l)
        data = estim.Dataset(core.sample(truth, 150, seed=61_000 + k))
        fits = estim.fit_family(data, tuple(SUBMODELS))
        for null_name, nf in fits.items():
            for alt_name, af in fits.items():
                if null_name == alt_name:
                    continue
                if not SUBMODELS[null_name].nests_within(SUBMODELS[alt_name]):
                    continue
                worst = max(worst, nf.loglik - af.loglik)
    ok = worst <= 1e-6
    _emit(capsys,
          f"nested loglik ordering (20 datasets, all pairs): "
          f"{'PASS' if ok else 'FAIL'} (max null-alt gap = {worst:.2e})")
    assert worst <= 1e-6


@pytest.mark.slow
def test_lr_null_rejection_rate(capsys):
    t0 = time.time()
    truth = Params(1, 1, 2, 1.5, 1)  # a Beta law inside the full family
    reps, n = 200, 2000
    rejections = 0
    for rep in range(reps):
        data = estim.Dataset(core.sample(truth, n, seed=741_000 + rep))
        null_fit = estim.fit(data, "Beta")
        alt_fit = estim.fit(data, "GKw", extra_starts=(null_fit.theta_hat,))
        if estim.lr_test(null_fit, alt_fit).p_value < 0.05:
            rejections += 1
    dt = time.time() - t0
    # boundary cases make the chi^2(3) reference conservative, so the
    # 2-9% acceptance window sits below the nominal 5% on both sides
    ok = 4 <= rejections <= 18
    _emit(capsys,
          f"LR null calibration (200 reps, n=2000): "
          f"{'PASS' if ok else 'FAIL'} ({rejections}/200 rejections, "
          f"window [4, 18], {dt:.0f}s)")
    assert 4 <= rejections <= 18


# ----------------------------------------------------------------------
# 10. Renyi entropy vs direct quadrature of f^rho
# ----------------------------------------------------------------------

def test_renyi_dual_route(capsys):
    worst = 0.0
    n_divergent = 0
    for _, theta in GRID12:
        a, b, g, d, l = theta.as_tuple()
        for rho in (0.5, 2.0):
            # exact integrability condition for f^rho at the endpoints
            divergent = (rho * (a * g * l - 1.0) <= -1.0
                         or rho * (b * (d + 1.0) - 1.0) <= -1.0)
            try:
                sv = series.renyi_entropy(theta, rho)
            except DivergentIntegralError:
                assert divergent, "flagged divergent but integral exists"
                n_divergent += 1
                continue
            assert not divergent, "returned a value for a divergent integral"
            ref = math.log(_quad_unit(theta, rho=rho)) / (1.0 - rho)
            worst = max(worst, abs(float(sv) - ref))
    u_err = max(abs(float(series.renyi_entropy(UNIFORM, rho)))
                for rho in (0.5, 2.0))
    ok = worst <= 1e-4 and u_err <= 1e-12
    _emit(capsys,
          f"Renyi entropy (12 shapes x rho 0.5/2): "
          f"{'PASS' if ok else 'FAIL'} (max err = {worst:.2e}, "
          f"{n_divergent} divergent all flagged, uniform = {u_err:.1e})")
    assert worst <= 1e-4
    assert u_err <= 1e-12


# ----------------------------------------------------------------------
# 11. quantile power-series coefficients (tests/crosscheck.py)
# ----------------------------------------------------------------------

def test_quantile_series_accuracy(capsys):
    # closed-form second coefficient
    worst_a2 = 0.0
    for g, d in ((0.5, 0.5), (1.0, 1.0), (2.0, 3.0), (3.5, 0.25), (1.3, 2.1)):
        a = quantile_series_coeffs(Params(1, 1, g, d, 1), 3)
        worst_a2 = max(worst_a2, abs(a[2] - d / (g + 1.0)) / (d / (g + 1.0)))

    # delta = 0 collapses the series to the exact power law u^(1/gamma)
    g = 1.7
    coeffs0 = quantile_series_coeffs(Params(1, 1, g, 0, 1), 6)
    collapse_ok = coeffs0[1] == 1.0 and bool(np.all(coeffs0[2:] == 0.0))
    pow_err = max(abs(inv_reg_inc_beta(u, g, 1.0) - u ** (1.0 / g))
                  for u in (1e-2, 1e-4, 1e-6))

    # four-term truncation error must fall off rapidly as u -> 0
    # (below u ~ 1e-6 the comparison bottoms out on the root-finding
    # inverse's own tolerance, so the grid stops at 1e-5)
    g, d = 2.0, 1.5
    a = quantile_series_coeffs(Params(1, 1, g, d, 1), 5)
    errs = []
    for u in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        v = (g * u * math.exp(ln_beta(g, d + 1.0))) ** (1.0 / g)
        z4 = sum(a[k] * v ** k for k in range(5))
        errs.append(abs(z4 - inv_reg_inc_beta(u, g, d + 1.0)))
    shrinking = all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    ok = (worst_a2 <= 1e-13 and collapse_ok and pow_err <= 1e-12
          and shrinking and errs[-1] < 1e-8)
    _emit(capsys,
          f"quantile series: {'PASS' if ok else 'FAIL'} "
          f"(a2 rel err = {worst_a2:.1e}, delta=0 collapse exact, "
          f"4-term err {errs[0]:.1e} -> {errs[-1]:.1e})")
    assert worst_a2 <= 1e-13
    assert collapse_ok
    assert pow_err <= 1e-12
    assert shrinking
    assert errs[-1] < 1e-8
