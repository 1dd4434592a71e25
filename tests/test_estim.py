"""Tests for maximum-likelihood machinery in gkw.estim.

The analytic score and observed information are certified against the
finite-difference oracles; the optimizer is exercised on simulated data
with known truths, against an independently coded beta MLE, and on its
contract corners (boundaries, degenerate data, non-nested LR pairs).
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkw import core, estim, specfun
from gkw.core import Params, SUBMODELS
from gkw.estim import (
    Dataset,
    EstimationError,
    FitResult,
    LrTestResult,
    default_init,
    fit,
    fit_family,
    log_likelihood,
    lr_test,
    observed_info,
    score,
    start_grid,
    std_errors,
)

from crosscheck import fd_grad, fd_hess, same_bits
from frozen_fits import (
    FROZEN_FITS,
    FROZEN_SEEDED_FITS,
    FROZEN_SEEDED_TRACES,
    FROZEN_TRACES,
    SEED,
    frozen_fit_data,
)
from gridpoints import (
    BATHTUB,
    BETA52,
    INCREASING_J,
    KW22,
    KWKW,
    MOUND,
    SPIKE,
    UNIFORM,
    WORKHORSE,
)

PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "lam")


def _dataset(seed=7, n=40, lo=0.02, hi=0.98):
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(lo, hi, n))


def _random_instance(rng):
    """A random (theta, dataset) pair with delta kept off the boundary
    so the centred finite-difference stencils stay inside the domain."""
    theta = Params(
        alpha=rng.uniform(0.4, 3.0),
        beta=rng.uniform(0.4, 3.0),
        gamma=rng.uniform(0.3, 3.0),
        delta=rng.uniform(0.05, 3.0),
        lam=rng.uniform(0.4, 3.0),
    )
    n = int(rng.integers(20, 80))
    data = Dataset(rng.uniform(0.01, 0.99, n))
    return theta, data


class TestDataset:
    def test_basic_fields(self):
        d = Dataset([0.2, 0.5, 0.9], source="toy")
        assert d.n == 3
        assert d.source == "toy"
        assert d.values.dtype == float

    def test_values_are_read_only(self):
        d = Dataset([0.2, 0.5])
        with pytest.raises(ValueError):
            d.values[0] = 0.3

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="index 1"):
            Dataset([0.5, bad, 0.7])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset([])


class TestLogLikelihood:
    def test_uniform_parameters_give_zero(self):
        data = _dataset()
        assert log_likelihood(UNIFORM, data) == 0.0

    def test_single_observation_is_log_pdf(self):
        data = Dataset([0.37])
        assert log_likelihood(WORKHORSE, data) == pytest.approx(
            core.log_pdf(WORKHORSE, 0.37), rel=1e-14
        )

    def test_matches_sum_of_log_densities(self):
        data = _dataset(seed=3, n=200)
        direct = math.fsum(core.log_pdf(WORKHORSE, x) for x in data.values)
        assert log_likelihood(WORKHORSE, data) == pytest.approx(
            direct, abs=1e-9 * data.n
        )


class TestScore:
    @pytest.mark.parametrize(
        "theta",
        [WORKHORSE, KWKW, MOUND, BETA52, BATHTUB, SPIKE, INCREASING_J],
        ids=lambda p: f"a{p.alpha:g}b{p.beta:g}",
    )
    def test_matches_finite_differences(self, theta):
        # delta = 0 shifts slightly inside so the centred stencil is legal
        if theta.delta == 0.0:
            theta = theta.replace(delta=5e-4)
        data = _dataset()
        f = lambda v: log_likelihood(Params(*v), data)
        g_fd = fd_grad(f, np.array(theta.as_tuple(), dtype=float))
        g = score(theta, data)
        for i in range(5):
            if abs(g_fd[i]) < 1e-6:
                assert g[i] == pytest.approx(g_fd[i], abs=1e-8)
            else:
                assert g[i] == pytest.approx(g_fd[i], rel=1e-5)

    def test_extreme_tail_data(self):
        rng = np.random.default_rng(5)
        x = np.concatenate(
            [
                rng.uniform(1e-6, 1e-3, 5),
                rng.uniform(0.999, 0.999999, 5),
                rng.uniform(0.1, 0.9, 30),
            ]
        )
        data = Dataset(x)
        f = lambda v: log_likelihood(Params(*v), data)
        g_fd = fd_grad(f, np.array(WORKHORSE.as_tuple(), dtype=float))
        assert np.allclose(score(WORKHORSE, data), g_fd, rtol=1e-5, atol=1e-8)

    def test_fifty_random_instances(self):
        rng = np.random.default_rng(20240501)
        for _ in range(50):
            theta, data = _random_instance(rng)
            f = lambda v: log_likelihood(Params(*v), data)
            g_fd = fd_grad(f, np.array(theta.as_tuple(), dtype=float))
            g = score(theta, data)
            for i in range(5):
                if abs(g_fd[i]) < 1e-6:
                    assert g[i] == pytest.approx(g_fd[i], abs=1e-8)
                else:
                    assert g[i] == pytest.approx(g_fd[i], rel=1e-5)

    def test_gamma_component_closed_form(self):
        data = _dataset(seed=11)
        a, b, g, d, l = WORKHORSE.as_tuple()
        s = a * np.log(data.values)
        ly = specfun.log1mexp(b * specfun.log1mexp(s))
        expected = -data.n * (
            specfun.digamma(g) - specfun.digamma(g + d + 1.0)
        ) + l * float(np.sum(ly))
        assert score(WORKHORSE, data)[2] == pytest.approx(expected, rel=1e-13)

    def test_underflowing_power_chain_matches_mpmath(self):
        # x^alpha underflows at the first two points and y rounds to 1 at
        # the third; the reference differentiates the log-likelihood at
        # 50 digits with every one-minus-power taken through log1p/expm1
        theta = Params(83.55, 3.147e6, 1.0, 2.658, 0.01724)
        xs = (1e-4, 1.354e-4, 0.93)

        def ll(a, b, g, d, l):
            out = 0
            for x in xs:
                x = mp.mpf(x)
                la = mp.log1p(-x**a)
                bla = b * la
                ly = mp.log(-mp.expm1(bla)) if bla > -1 else mp.log1p(-mp.exp(bla))
                out += (mp.log(l * a * b) - mp.log(mp.beta(g, d + 1))
                        + (a - 1) * mp.log(x) + (b - 1) * la
                        + (g * l - 1) * ly + d * mp.log(-mp.expm1(l * ly)))
            return out

        with mp.workdps(50):
            p = [mp.mpf(v) for v in theta.as_tuple()]
            ref = []
            for i in range(5):
                def partial(t, i=i):
                    q = list(p)
                    q[i] = t
                    return ll(*q)
                ref.append(float(mp.diff(partial, p[i])))
        got = score(theta, Dataset(xs))
        assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_delta_component_at_zero_boundary(self):
        # one-sided second-order difference, since delta cannot go negative
        theta = Params(2.0, 3.0, 1.5, 0.0, 2.0)
        data = _dataset(seed=13)
        h = 1e-7
        f0 = log_likelihood(theta, data)
        f1 = log_likelihood(theta.replace(delta=h), data)
        f2 = log_likelihood(theta.replace(delta=2 * h), data)
        fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        assert score(theta, data)[3] == pytest.approx(fd, rel=1e-5)


class TestObservedInfo:
    @pytest.mark.parametrize(
        "theta",
        [WORKHORSE, KWKW, MOUND, BETA52, BATHTUB, SPIKE],
        ids=lambda p: f"a{p.alpha:g}b{p.beta:g}",
    )
    def test_matches_fd_hessian(self, theta):
        if theta.delta == 0.0:
            theta = theta.replace(delta=5e-4)
        data = _dataset()
        f = lambda v: log_likelihood(Params(*v), data)
        H_fd = fd_hess(f, np.array(theta.as_tuple(), dtype=float))
        J = observed_info(theta, data)
        scale = np.maximum(np.abs(H_fd), 1.0)
        assert np.max(np.abs(-H_fd - J) / scale) < 1e-4

    def test_exactly_symmetric(self):
        J = observed_info(WORKHORSE, _dataset())
        assert np.array_equal(J, J.T)

    def test_trigamma_entries_are_data_free(self):
        a, b, g, d, l = KWKW.as_tuple()
        for seed in (1, 2):
            J = observed_info(KWKW, _dataset(seed=seed))
            n = 40
            assert J[2, 2] == pytest.approx(
                n * (specfun.trigamma(g) - specfun.trigamma(g + d + 1.0)), rel=1e-12
            )
            assert J[2, 3] == pytest.approx(
                -n * specfun.trigamma(g + d + 1.0), rel=1e-12
            )

    def test_positive_definite_at_truth_on_large_sample(self):
        x = core.sample(KW22, 4000, seed=2)
        J = observed_info(KW22, Dataset(x))
        block = J[np.ix_([0, 1], [0, 1])]
        np.linalg.cholesky(block)  # raises if not PD


class TestDefaultInit:
    def test_uniform_like_data(self):
        n = 500
        data = Dataset(np.linspace(0.5 / n, 1.0 - 0.5 / n, n))
        start = default_init(data, SUBMODELS["GKw"])
        assert start.alpha == 1.0 and start.beta == 1.0 and start.lam == 1.0
        assert start.gamma == pytest.approx(1.0, abs=0.1)
        assert start.delta == pytest.approx(0.0, abs=0.1)

    def test_projection_onto_kw(self):
        start = default_init(_dataset(), SUBMODELS["Kw"])
        assert (start.gamma, start.delta, start.lam) == (1.0, 0.0, 1.0)

    def test_zero_variance_raises(self):
        with pytest.raises(EstimationError):
            default_init(Dataset([0.4] * 10), SUBMODELS["Kw"])

    def test_start_grid_is_deterministic(self):
        data = _dataset()
        g1 = start_grid(data, SUBMODELS["GKw"])
        g2 = start_grid(data, SUBMODELS["GKw"])
        assert all(p.as_tuple() == q.as_tuple() for p, q in zip(g1, g2))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 1.0 - 1e-3, allow_nan=False), min_size=2, max_size=40),
        st.sampled_from(sorted(SUBMODELS)),
    )
    def test_start_points_always_valid(self, xs, name):
        if float(np.ptp(xs)) == 0.0:
            return
        sub = SUBMODELS[name]
        for p in start_grid(Dataset(xs), sub):
            for k, v in sub.fixed_dict.items():
                assert getattr(p, k) == v


def _beta_mle_oracle(x):
    """Newton iteration on the beta score, all special functions from
    mpmath -- independent of the package's own machinery."""
    s1 = float(np.mean(np.log(x)))
    s2 = float(np.mean(np.log1p(-x)))
    m, v = float(np.mean(x)), float(np.var(x))
    c = m * (1.0 - m) / v - 1.0
    a, b = m * c, (1.0 - m) * c
    for _ in range(80):
        t = float(mp.polygamma(1, a + b))
        ga = float(mp.digamma(a) - mp.digamma(a + b)) - s1
        gb = float(mp.digamma(b) - mp.digamma(a + b)) - s2
        ha = float(mp.polygamma(1, a)) - t
        hb = float(mp.polygamma(1, b)) - t
        det = ha * hb - t * t
        da = (hb * ga + t * gb) / det
        db = (t * ga + ha * gb) / det
        a, b = a - da, b - db
        if abs(da) + abs(db) < 1e-13:
            break
    n = len(x)
    info = n * np.array([[ha, -t], [-t, hb]])
    ses = np.sqrt(np.diag(np.linalg.inv(info)))
    return a, b, ses


class TestFit:
    def test_kw_recovery_within_three_se(self):
        truth = Params(2.0, 3.0, 1.0, 0.0, 1.0)
        data = Dataset(core.sample(truth, 5000, seed=11))
        r = fit(data, "Kw")
        assert r.converged and r.std_errors is not None
        assert abs(r.theta_hat.alpha - 2.0) < 3.0 * r.std_errors[0]
        assert abs(r.theta_hat.beta - 3.0) < 3.0 * r.std_errors[1]

    def test_beta_fit_matches_independent_oracle(self):
        data = Dataset(core.sample(Params(1.0, 1.0, 2.0, 2.0, 1.0), 3000, seed=5))
        r = fit(data, "Beta")
        a_hat, b_hat, ses = _beta_mle_oracle(data.values)
        assert r.theta_hat.gamma == pytest.approx(a_hat, abs=1e-4)
        assert r.theta_hat.delta == pytest.approx(b_hat - 1.0, abs=1e-4)
        assert r.std_errors == pytest.approx(ses, rel=0.05)

    def test_loglik_and_gradient_invariants(self):
        data = Dataset(core.sample(KW22, 1500, seed=8))
        r = fit(data, "EKw")
        assert r.loglik == pytest.approx(log_likelihood(r.theta_hat, data), abs=1e-8)
        if r.converged:
            assert r.grad_norm < 1e-5 * max(1.0, abs(r.loglik))

    @pytest.mark.parametrize("sub", ["Beta", "EKw", "GKw"])
    def test_results_carry_python_floats(self, sub):
        # NumPy scalars reaching the estimate would print it as
        # Params(alpha=np.float64(...), ...)
        r = fit(Dataset(frozen_fit_data("nested-0")), sub)
        assert all(type(v) is float for v in r.theta_hat.as_tuple())
        assert type(r.loglik) is float and type(r.grad_norm) is float
        assert "np." not in repr(r.theta_hat)

    def test_refit_is_deterministic(self):
        data = Dataset(core.sample(KW22, 800, seed=4))
        r1, r2 = fit(data, "Kw"), fit(data, "Kw")
        assert r1.theta_hat.as_tuple() == r2.theta_hat.as_tuple()
        assert r1.iterations == r2.iterations

    def test_explicit_init_is_honoured(self):
        truth = Params(2.0, 3.0, 1.0, 0.0, 1.0)
        data = Dataset(core.sample(truth, 2000, seed=9))
        r = fit(data, "Kw", init=truth)
        assert r.converged
        assert r.theta_hat.alpha == pytest.approx(2.0, abs=0.3)

    def test_delta_wall_reported_as_exact_zero(self):
        truth = Params(2.0, 3.0, 1.0, 0.0, 2.0)       # delta truly on the boundary
        data = Dataset(core.sample(truth, 2000, seed=21))
        r = fit(data, "KwKw", init=truth)
        assert r.theta_hat.delta == 0.0
        assert "delta" in r.boundary

    @pytest.mark.parametrize("seed", [916004, 916007])
    def test_delta_stalled_short_of_wall_reported_as_zero(self, seed):
        # the optimizer stops near delta ~ 1.7e-7 with dl/d delta < 0;
        # the maximum is on the wall
        data = Dataset(core.sample(Params(2.0, 3.0, 1.0, 1.0, 0.7), 2000, seed=seed))
        r = fit(data, "KwKw")
        assert r.theta_hat.delta == 0.0
        assert "delta" in r.boundary
        assert score(r.theta_hat, data)[3] <= 0.0

    def test_degenerate_data_raises(self):
        with pytest.raises(EstimationError):
            fit(Dataset([0.3] * 50), "Kw")

    def test_too_few_observations_raises(self):
        with pytest.raises(ValueError):
            fit(Dataset([0.2, 0.4, 0.6]), "GKw")

    def test_fit_family_respects_nesting(self):
        data = Dataset(core.sample(WORKHORSE, 600, seed=17))
        fam = fit_family(data)
        assert set(fam) == set(SUBMODELS)
        ll = {nm: fam[nm].loglik for nm in fam}
        slack = 1e-6
        assert ll["Kw"] <= ll["EKw"] + slack <= ll["GKw"] + 2 * slack
        assert ll["Kw"] <= ll["BKw"] + slack <= ll["GKw"] + 2 * slack
        assert ll["Beta"] <= ll["Mc"] + slack <= ll["GKw"] + 2 * slack
        assert ll["Beta"] <= ll["BKw"] + slack
        assert ll["BP"] <= ll["Mc"] + slack
        assert ll["KwKw"] <= ll["GKw"] + slack


class _Counter:
    """Wraps a function and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


def _run_alone(run, beat=math.inf):
    """Drive one estim._bfgs run to its end, sending it a fixed beat."""
    try:
        run.send(None)
        while True:
            run.send(beat)
    except StopIteration as done:
        return done.value


def _same_fit(r, s):
    return (r.theta_hat == s.theta_hat and r.loglik == s.loglik
            and r.converged == s.converged and r.iterations == s.iterations
            and r.grad_norm == s.grad_norm and r.boundary == s.boundary
            and np.array_equal(r.std_errors, s.std_errors))


class TestWorkCounts:
    def test_duplicate_start_is_run_once(self, monkeypatch):
        data = Dataset(core.sample(WORKHORSE, 300, seed=5))
        start = default_init(data, SUBMODELS["EKw"])
        passes = _Counter(core._log_density)
        monkeypatch.setattr(core, "_log_density", passes)
        once = fit(data, "EKw", init=start)
        passes_once, passes.calls = passes.calls, 0
        twice = fit(data, "EKw", init=start, extra_starts=(start,))
        assert passes_once > 0
        assert passes.calls == passes_once
        assert _same_fit(once, twice)

    def test_pinned_head_is_built_once_per_fit(self, monkeypatch):
        # Mc pins alpha = beta = 1: one head serves every start, every
        # evaluation and the closing pass
        data = Dataset(core.sample(Params(1.0, 1.0, 2.0, 1.5, 0.7), 300, seed=5))
        passes = _Counter(core._log_density)
        heads = _Counter(core._Head)
        monkeypatch.setattr(core, "_log_density", passes)
        monkeypatch.setattr(core, "_Head", heads)
        fit(data, "Mc")
        assert passes.calls > 100
        assert heads.calls == 1
        heads.calls = 0
        fit(data, "Mc")
        assert heads.calls == 1           # nothing is kept across fits

    def test_pinned_coordinates_get_no_score_component(self, monkeypatch):
        data = Dataset(core.sample(Params(1.0, 1.0, 2.0, 1.5, 0.7), 300, seed=5))
        asked = []
        real = estim._score_from_head

        def recording(theta, data, head, idx=range(5)):
            asked.append(tuple(idx))
            return real(theta, data, head, idx)

        monkeypatch.setattr(estim, "_score_from_head", recording)
        fit(data, "Mc")
        assert asked.count((2, 3, 4)) > 10   # the optimizer's gradients
        assert not any(0 in idx or 1 in idx for idx in asked)

    def test_score_built_only_for_accepted_steps(self, monkeypatch):
        data = Dataset(core.sample(WORKHORSE, 300, seed=5))
        free_idx = [0, 1, 4]              # EKw: alpha, beta, lambda
        start = default_init(data, SUBMODELS["EKw"])
        phi0 = np.log(np.array(start.as_tuple())[free_idx])
        lower, upper = estim._walls(free_idx)
        objective = _Counter(estim._make_objective(estim._Pass(data), free_idx,
                                                   np.array(start.as_tuple())))
        builds = _Counter(estim._score_from_head)
        monkeypatch.setattr(estim, "_score_from_head", builds)
        stop = _run_alone(estim._bfgs(objective, phi0, lower, upper,
                                      gtol=1e-6, max_iter=500))
        assert stop.reason == "gradient"          # so every iteration accepted a step
        assert builds.calls == stop.iterations + 1  # the first point and each accepted step
        assert objective.calls > builds.calls

    def test_closing_evaluations_share_one_pass(self, monkeypatch):
        # delta stalls short of its wall here, so the KKT point is tried too
        data = Dataset(core.sample(Params(2.0, 3.0, 1.0, 1.0, 0.7), 2000, seed=916004))
        want = fit(data, "KwKw")

        def forbidden(*args):
            raise AssertionError("fit evaluated a point outside the shared pass")

        for name in ("log_likelihood", "score", "observed_info"):
            monkeypatch.setattr(estim, name, forbidden)
        got = fit(data, "KwKw")
        assert got.theta_hat.delta == 0.0 and "delta" in got.boundary
        assert (got.theta_hat, got.loglik, got.grad_norm) == (want.theta_hat, want.loglik,
                                                              want.grad_norm)
        assert np.array_equal(got.std_errors, want.std_errors, equal_nan=True)

    def test_raced_gkw_fit_costs_a_third_of_sequential(self, monkeypatch):
        # nested-0: run one after another, the second of the nine GKw
        # starts crawled along the ridge for 7,249 of the fit's 8,810
        # passes; raced, it is abandoned once the starts that beat it lead
        data = Dataset(frozen_fit_data("nested-0"))
        fam = fit_family(data)
        warm = tuple(r.theta_hat for nm, r in fam.items() if nm != "GKw")
        passes = _Counter(core._log_density)
        monkeypatch.setattr(core, "_log_density", passes)
        got = fit(data, "GKw", extra_starts=warm)
        assert _same_fit(got, fam["GKw"])
        assert passes.calls <= 8810 // 3
        assert sum(t.evaluations for t in got.trace) < passes.calls
        crawler = got.trace[1]
        assert crawler.reason == "abandoned"
        assert crawler.evaluations < 7249 // 10

    def test_fit_family_fits_shared_pattern_once(self, monkeypatch):
        data = Dataset(core.sample(WORKHORSE, 300, seed=17))
        calls = _Counter(estim.fit)
        monkeypatch.setattr(estim, "fit", calls)
        fam = fit_family(data, tuple(SUBMODELS))
        assert calls.calls == 7
        assert fam["BP"].submodel is SUBMODELS["BP"]
        assert fam["Mc"].submodel is SUBMODELS["Mc"]
        assert _same_fit(fam["BP"], fam["Mc"])


class TestOptimizer:
    @pytest.mark.parametrize("theta", [WORKHORSE, Params(83.55, 3.147e6, 1.0, 2.658, 0.01724)])
    def test_shared_pass_matches_separate_calls(self, theta):
        data = _dataset(seed=5, n=300)
        with np.errstate(**estim._QUIET):
            ll, head = estim._Pass(data)(theta)
            assert np.array_equal(estim._score_from_head(theta, data, head), score(theta, data))
        assert ll == log_likelihood(theta, data)

    @staticmethod
    def _linear(slope):
        return lambda phi: (slope * float(phi[0]), lambda: np.array([slope]))

    def test_stalled_run_stops_before_its_budget(self):
        # descends by ~1e-14 per iteration and never meets the gradient test
        lo, hi = np.array([-1e4]), np.array([1e4])
        stop = _run_alone(estim._bfgs(self._linear(1e-7), np.array([0.0]), lo, hi,
                                      gtol=1e-12, max_iter=500))
        assert stop.reason == "stalled"
        assert stop.iterations < 500
        assert stop.F < 0.0

    def test_run_that_cannot_catch_up_is_abandoned(self):
        # one unit of progress per iteration: 500 iterations cannot reach -1e6
        lo, hi = np.array([-1e4]), np.array([1e4])
        kw = dict(gtol=1e-12, max_iter=500)
        free = _run_alone(estim._bfgs(self._linear(1.0), np.array([0.0]), lo, hi, **kw))
        stop = _run_alone(estim._bfgs(self._linear(1.0), np.array([0.0]), lo, hi, **kw),
                          beat=-1e6)
        assert (free.iterations, free.reason) == (500, "max_iter")
        assert stop.iterations < 500 and stop.reason == "abandoned"
        assert stop.F < 0.0

    @pytest.mark.parametrize("leader", ["converged", "running"])
    def test_crawler_listed_first_is_abandoned_once_another_start_leads(self, leader):
        # alone, the crawler spends its whole budget: one unit per
        # evaluation.  The start that leads it either converges at once or
        # is itself still running (down the same slope, far lower) when
        # the crawler reaches its first catch-up check.
        lo, hi = np.array([-1e4]), np.array([1e4])
        kw = dict(gtol=1e-12, max_iter=500)

        def bowl(phi):
            r = float(phi[0]) - 3.0
            return r * r - 1e6, lambda: np.array([2.0 * r])

        def far_slope(phi):
            return float(phi[0]) - 1e6, lambda: np.array([1.0])

        def crawler():
            return estim._bfgs(self._linear(1.0), np.array([0.0]), lo, hi, **kw)

        def lead():
            return estim._bfgs(bowl if leader == "converged" else far_slope,
                               np.array([0.0]), lo, hi, **kw)

        alone = _run_alone(crawler())
        crawl, won = estim._race([crawler(), lead()])
        assert (alone.reason, alone.evaluations) == ("max_iter", 501)
        assert crawl.reason == "abandoned"
        assert crawl.evaluations == estim._STALL_EVALS + 1
        want = _run_alone(lead())
        assert won.reason == want.reason == ("gradient" if leader == "converged" else "max_iter")
        assert np.array_equal(won.phi, want.phi)
        assert (won.F, won.iterations, won.evaluations) == (want.F, want.iterations,
                                                            want.evaluations)

    def test_suspended_run_holds_no_pass(self):
        # between steps a run keeps no gradient thunk, and so no pass arrays
        data = Dataset(core.sample(WORKHORSE, 300, seed=5))
        free_idx = [0, 1, 4]
        start = default_init(data, SUBMODELS["EKw"])
        objective = estim._make_objective(estim._Pass(data), free_idx,
                                          np.array(start.as_tuple()))
        run = estim._bfgs(objective, np.log(np.array(start.as_tuple())[free_idx]),
                          *estim._walls(free_idx), gtol=1e-6, max_iter=500)
        with np.errstate(**estim._QUIET):
            run.send(None)
            for _ in range(5):
                assert run.gi_frame.f_locals["grad"] is None
                run.send(math.inf)

    def test_race_steps_the_start_with_fewest_evaluations(self):
        order = []

        def run(name, evals):
            for k in evals:
                beat = yield 0.0, k
                order.append((name, beat))
            return estim._Stop(np.zeros(1), 0.0, 0, evals[-1], "gradient")

        estim._race([run("a", [1, 5]), run("b", [1, 2, 3])])
        # a and b tie at one evaluation, and a, the lower index, steps;
        # then b, behind a, steps until it stops, and a finishes
        assert [nm for nm, _ in order] == ["a", "b", "b", "b", "a"]


class TestTrace:
    REASONS = {"gradient", "max_iter", "stalled", "abandoned", "line_search", "nonfinite"}

    def test_one_record_per_start(self):
        data = Dataset(frozen_fit_data("nested-0"))
        r = fit(data, "GKw")
        assert [t.start for t in r.trace] == [0, 1, 2]
        assert {t.reason for t in r.trace} <= self.REASONS
        kept = max(r.trace, key=lambda t: (t.loglik, -t.start))
        assert kept.iterations == r.iterations
        assert all(0 <= t.iterations < t.evaluations for t in r.trace)

    def test_converged_single_start(self):
        data = Dataset(core.sample(WORKHORSE, 300, seed=5))
        r = fit(data, "Kw", init=default_init(data, SUBMODELS["Kw"]))
        (t,) = r.trace
        assert (t.start, t.reason, t.iterations) == (0, "gradient", r.iterations)
        assert r.converged and t.loglik == r.loglik

    def test_budget_reason(self, monkeypatch):
        monkeypatch.setattr(estim, "_MAX_ITER", 2)
        data = Dataset(core.sample(WORKHORSE, 300, seed=5))
        r = fit(data, "GKw")
        assert [(t.reason, t.iterations) for t in r.trace] == [("max_iter", 2)] * 3

    def test_line_search_and_nonfinite_reasons(self):
        lo, hi = np.array([-1e4]), np.array([1e4])
        kw = dict(gtol=1e-12, max_iter=500)
        flat = _run_alone(estim._bfgs(lambda phi: (0.0, lambda: np.array([1.0])),
                                      np.array([0.0]), lo, hi, **kw))
        assert (flat.reason, flat.iterations) == ("line_search", 1)
        assert flat.evaluations == 1 + 2 * estim._MAX_HALVINGS
        nowhere = _run_alone(estim._bfgs(lambda phi: (math.inf, lambda: None),
                                         np.array([0.0]), lo, hi, **kw))
        assert (nowhere.reason, nowhere.iterations, nowhere.evaluations) == ("nonfinite", 0, 1)


class TestStdErrors:
    def test_shrink_like_root_n(self):
        truth = Params(2.0, 3.0, 1.0, 0.0, 1.0)
        x = core.sample(truth, 5000, seed=11)
        r_full = fit(Dataset(x), "Kw")
        r_quarter = fit(Dataset(x[:1250]), "Kw")
        ratio = r_quarter.std_errors / r_full.std_errors
        assert np.all(ratio > 1.6) and np.all(ratio < 2.4)

    def test_zero_row_information_is_flagged(self):
        info = np.eye(5)
        info[1] = 0.0
        info[:, 1] = 0.0
        assert estim._se_from_info(info, [0, 1]) is None

    def test_non_finite_information_is_flagged(self):
        info = np.full((5, 5), np.inf)
        assert estim._se_from_info(info, [0, 1]) is None

    def test_requires_converged_fit(self):
        bogus = FitResult(
            submodel=SUBMODELS["Kw"], theta_hat=KW22, loglik=-1.0,
            std_errors=None, converged=False, iterations=0, grad_norm=math.inf,
        )
        with pytest.raises(ValueError):
            std_errors(bogus, _dataset())

    def test_matches_fit_attached_errors(self):
        data = Dataset(core.sample(KW22, 1000, seed=3))
        r = fit(data, "Kw")
        assert std_errors(r, data) == pytest.approx(r.std_errors, rel=1e-12)

    # delta = 0 on its wall is a one-sided maximum: no Wald interval for
    # delta, and the others come from the information on the interior
    # coordinates (the full free block gave delta SEs of 1.65 and 1.24)
    @pytest.mark.parametrize("name, truth, seed", [
        ("BKw", Params(2, 4, 0.5, 1, 1), 915003),
        ("KwKw", Params(2, 3, 1, 1, 0.7), 916024),
    ])
    def test_delta_on_wall_has_no_standard_error(self, name, truth, seed):
        data = Dataset(core.sample(truth, 2000, seed=seed))
        r = fit(data, name)
        assert r.converged and r.theta_hat.delta == 0.0 and "delta" in r.boundary
        free = list(SUBMODELS[name].free_names)
        k = free.index("delta")
        assert math.isnan(r.std_errors[k])
        inner = [PARAM_NAMES.index(nm) for nm in free if nm != "delta"]
        info = observed_info(r.theta_hat, data)[np.ix_(inner, inner)]
        want = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.delete(r.std_errors, k) == pytest.approx(want, rel=1e-12)
        assert np.array_equal(std_errors(r, data), r.std_errors, equal_nan=True)


def _fake_fit(name, loglik):
    sub = SUBMODELS[name]
    return FitResult(
        submodel=sub, theta_hat=UNIFORM, loglik=loglik, std_errors=None,
        converged=True, iterations=1, grad_norm=0.0,
    )


class TestLrTest:
    def test_equal_logliks_give_w_zero_p_one(self):
        r = lr_test(_fake_fit("Kw", -10.0), _fake_fit("EKw", -10.0))
        assert r.statistic_w == 0.0
        assert r.p_value == 1.0
        assert r.df == 1

    def test_chi_square_95_point(self):
        r = lr_test(_fake_fit("Kw", 0.0), _fake_fit("EKw", 3.841 / 2.0))
        assert r.p_value == pytest.approx(0.05, abs=5e-4)

    def test_beta_versus_gkw_has_df_three(self):
        r = lr_test(_fake_fit("Beta", -5.0), _fake_fit("GKw", -4.0))
        assert r.df == 3

    def test_tiny_negative_w_clamped(self):
        r = lr_test(_fake_fit("Kw", -10.0), _fake_fit("EKw", -10.0 - 1e-9))
        assert r.statistic_w == 0.0
        assert r.p_value == 1.0

    @pytest.mark.parametrize("null,alt", [("Mc", "Kw"), ("BP", "Mc"), ("GKw", "Kw")])
    def test_non_nested_pairs_rejected(self, null, alt):
        with pytest.raises(ValueError):
            lr_test(_fake_fit(null, -1.0), _fake_fit(alt, -1.0))

    def test_on_real_fits(self):
        data = Dataset(core.sample(KW22, 1200, seed=19))
        fam = fit_family(data, ("Kw", "EKw", "GKw"))
        r = lr_test(fam["Kw"], fam["GKw"])
        assert r.statistic_w >= 0.0
        assert 0.0 <= r.p_value <= 1.0
        assert r.df == 3
        assert r.null_model.name == "Kw" and r.alt_model.name == "GKw"


# ----------------------------------------------------------------------
# The log-likelihood pass, bit for bit against the chain it replaced.
# The reference below is that chain as it stood: the three log1mexp
# helpers with their array branches written out, the seven-log chain,
# the density sum and the score, each array built afresh.
# ----------------------------------------------------------------------

_REF_TINY = -20.0


def _ref_tiny_branch(out, tiny, v, half):
    if out.ndim == 0:
        return float(v + half * np.exp(v)) if tiny else float(out)
    if tiny.any():
        vt = v[tiny]
        out[tiny] = vt + half * np.exp(vt)
    return out


def _ref_log1mexp(s):
    s = np.asarray(s, dtype=float)
    near = s > -0.6931471805599453
    with np.errstate(divide="ignore", invalid="ignore"):
        if s.ndim == 0:
            return float(np.log(-np.expm1(min(s, 0.0))) if near else np.log1p(-np.exp(s)))
        out = np.log1p(-np.exp(s))
        if near.any():
            out[near] = np.log(-np.expm1(np.minimum(s[near], 0.0)))
    return out


def _ref_log_neg_log1mexp(s, l1m_s):
    s = np.asarray(s, dtype=float)
    tiny = s < _REF_TINY
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(-np.asarray(l1m_s, dtype=float))
    return _ref_tiny_branch(out, tiny, s, 0.5)


def _ref_log1mexp_tiny(s, log_neg_s):
    w = np.asarray(log_neg_s, dtype=float)
    tiny = w < _REF_TINY
    out = np.asarray(_ref_log1mexp(s), dtype=float)
    return _ref_tiny_branch(out, tiny, w, -0.5)


def _ref_log_chain(theta, log_x):
    a, b, _, _, l = theta.as_tuple()
    s = a * np.asarray(log_x, dtype=float)
    la = _ref_log1mexp(s)
    lla = _ref_log_neg_log1mexp(s, la)
    bla = b * la
    ly = _ref_log1mexp_tiny(bla, math.log(b) + lla)
    lny = _ref_log_neg_log1mexp(bla, ly)
    lu = _ref_log1mexp_tiny(l * ly, math.log(l) + lny)
    return s, la, lla, bla, ly, lny, lu


def _ref_log_pdf_from_chain(theta, log_x, la, ly, lu):
    a, b, g, d, l = theta.as_tuple()
    out = (
        math.log(l) + math.log(a) + math.log(b) - specfun.ln_beta(g, d + 1.0)
        + (a - 1.0) * log_x + (b - 1.0) * la
    )
    gl1 = g * l - 1.0
    if gl1 != 0.0:
        out = out + gl1 * ly
    if d != 0.0:
        out = out + d * lu
    return out


def _ref_loglik_and_score(theta, log_x):
    """(per-element log-density, log-likelihood, score) as the old pass
    built them; log_x is 0-d for a scalar."""
    log_x = np.asarray(log_x, dtype=float)
    n = log_x.size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s, la, lla, bla, ly, lny, lu = _ref_log_chain(theta, log_x)
        logf = _ref_log_pdf_from_chain(theta, log_x, la, ly, lu)
        lly = theta.lam * ly
        llx = np.log(-log_x)
        lx = log_x
        a, b, g, d, l = theta.as_tuple()
        gl1 = g * l - 1.0
        lb = math.log(b)
        u_alpha = n / a + float(np.sum(lx))
        u_beta = n / b + float(np.sum(la))
        if b != 1.0:
            u_alpha -= (b - 1.0) * float(np.sum(-np.exp(s - la + llx)))
        if gl1 != 0.0:
            r_a = -np.exp(lb + s + (b - 1.0) * la - ly + llx)
            r_b = np.exp(bla - ly + lla)
            u_alpha += gl1 * float(np.sum(r_a))
            u_beta += gl1 * float(np.sum(r_b))
        if d != 0.0:
            va = -np.exp(lb + (l - 1.0) * ly - lu + s + (b - 1.0) * la + llx)
            vb = np.exp((l - 1.0) * ly - lu + bla + lla)
            u_alpha -= d * l * float(np.sum(va))
            u_beta -= d * l * float(np.sum(vb))
        u_gamma = n * specfun.digamma_diff(g, d + 1.0) + l * float(np.sum(ly))
        u_delta = n * specfun.digamma_diff(d + 1.0, g) + float(np.sum(lu))
        u_lam = n / l + g * float(np.sum(ly))
        if d != 0.0:
            q = -np.exp(lly - lu + lny)
            u_lam -= d * float(np.sum(q))
    score_ = np.array([u_alpha, u_beta, u_gamma, u_delta, u_lam])
    return logf, float(np.sum(logf)), score_


_UNIFORM_150 = tuple(np.random.default_rng(2024).uniform(0.001, 0.999, 150))

# (theta, points): each point set reaches a branch of the chain
_PASS_CASES = {
    # x^alpha underflows at 1e-4 and 1e-300; y rounds to 1 at 0.93
    "alpha-power-underflow": (Params(83.55, 3.147e6, 1.0, 2.658, 0.01724),
                              (1e-4, 1.354e-4, 0.93, 0.5, 1e-300, 0.999999)),
    # (1 - x^alpha)^beta underflows: y == 1 and ly == -0.0
    "y-to-one": (Params(2.0, 1e4, 1.5, 0.5, 2.0), (0.3, 0.5, 0.9, 0.999, 0.01)),
    # x^alpha > 1/2 for nearly every x: the near branch of log1mexp
    "near-branch": (Params(0.05, 3.0, 1.5, 0.5, 2.0), _UNIFORM_150),
    # x^alpha < e^-20: the tiny branch of log(-log(1 - e^s))
    "tiny-x-power": (Params(50.0, 2.0, 1.5, 0.5, 2.0), (0.5, 0.3, 0.01, 0.999, 0.9)),
    # beta log(1 - x^alpha) > -e^-20: the tiny branch of log(1 - e^s)
    "tiny-y": (Params(2.0, 1e-12, 3.0, 0.5, 2.0), (0.5, 0.3, 0.01, 0.999, 1e-200)),
    # lambda log y > -e^-20: the same branch one link further
    "tiny-y-power": (Params(2.0, 3.0, 1.5, 0.5, 1e-12), (0.5, 0.3, 0.01, 0.999)),
    "delta-zero": (Params(2.0, 3.0, 1.5, 0.0, 2.0), _UNIFORM_150),
    "gamma-lambda-one": (Params(2.0, 3.0, 0.5, 0.5, 2.0), _UNIFORM_150),
    "beta-one": (Params(2.0, 1.0, 1.5, 0.5, 2.0), _UNIFORM_150),
    "alpha-beta-one": (Params(1.0, 1.0, 2.0, 1.5, 0.7), _UNIFORM_150),
    "beta-law": (Params(1.0, 1.0, 2.0, 1.5, 1.0), _UNIFORM_150),
    "workhorse": (WORKHORSE, _UNIFORM_150),
    "n-one": (WORKHORSE, (0.37,)),
}


class TestPassBitForBit:
    @pytest.mark.parametrize("case", sorted(_PASS_CASES))
    def test_density_loglik_and_score(self, case):
        theta, xs = _PASS_CASES[case]
        data = Dataset(xs)
        logf_ref, ll_ref, score_ref = _ref_loglik_and_score(theta, data.log_values)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logf, _ = core._log_density(theta, data.log_values)
        assert same_bits(logf, logf_ref)
        assert same_bits(core.log_pdf(theta, data.values), logf_ref)
        assert same_bits(log_likelihood(theta, data), ll_ref)
        assert same_bits(score(theta, data), score_ref)

    @pytest.mark.parametrize("case", ["alpha-power-underflow", "y-to-one", "tiny-x-power",
                                      "tiny-y", "n-one"])
    def test_scalar_input(self, case):
        theta, xs = _PASS_CASES[case]
        for x in xs:
            logf_ref, _, _ = _ref_loglik_and_score(theta, math.log(x))
            got = core.log_pdf(theta, x)
            assert isinstance(got, float)
            assert same_bits(got, logf_ref)

    @pytest.mark.parametrize("case", ["workhorse", "alpha-power-underflow", "tiny-y"])
    def test_reused_head_and_any_score_subset(self, case):
        # one pass object walked through points that share alpha and beta,
        # in an order that revisits lambda, gives each point's own bits
        base, xs = _PASS_CASES[case]
        data = Dataset(xs)
        ll_pass = estim._Pass(data)
        points = [base, base.replace(gamma=2.5), base.replace(lam=0.3),
                  base.replace(delta=0.0), base.replace(delta=4.0, lam=0.3), base,
                  base.replace(alpha=base.alpha * 1.5)]
        for theta in points:
            _, ll_ref, score_ref = _ref_loglik_and_score(theta, data.log_values)
            with np.errstate(**estim._QUIET):    # as a fit runs its passes
                ll, head = ll_pass(theta)
                assert same_bits(ll, ll_ref)
                for idx in ([0, 1, 2, 3, 4], [2, 3, 4], [0, 1, 4], [3], [4, 0]):
                    got = estim._score_from_head(theta, data, head, idx)
                    assert same_bits(got, score_ref[idx])


def _hex(values):
    return tuple(float(v).hex() for v in values)


class TestFrozenFits:
    # every fit follows the trajectory it followed before the pass was
    # rewritten, so estimates, counts and errors agree to the last bit, and
    # every start stops for the same reason after the same evaluations
    @staticmethod
    def _assert_frozen(fam, want, traces):
        assert list(fam) == list(want)
        for nm, r in fam.items():
            theta, loglik, iterations, grad_norm, converged, ses, boundary = want[nm]
            assert _hex(r.theta_hat.as_tuple()) == theta, nm
            assert (r.loglik.hex(), r.iterations, r.grad_norm.hex(), r.converged) == (
                loglik, iterations, grad_norm, converged), nm
            assert (None if r.std_errors is None else _hex(r.std_errors)) == ses, nm
            assert r.boundary == boundary, nm
            assert tuple((t.reason, t.iterations, t.evaluations) for t in r.trace) == (
                traces[nm]), nm

    @pytest.mark.parametrize("name", sorted(FROZEN_FITS))
    def test_fit_family_equals_frozen_results(self, name):
        fam = fit_family(Dataset(frozen_fit_data(name)))
        self._assert_frozen(fam, FROZEN_FITS[name], FROZEN_TRACES[name])

    @pytest.mark.parametrize("name", sorted(FROZEN_SEEDED_FITS))
    def test_seeded_fit_family_equals_frozen_results(self, name):
        # the two jittered starts per fit that `gkw fit --seed` adds
        fam = fit_family(Dataset(frozen_fit_data(name)), seed=SEED)
        self._assert_frozen(fam, FROZEN_SEEDED_FITS[name], FROZEN_SEEDED_TRACES[name])
