"""Distribution-layer tests.

Closed-form special cases pin the algebra; quadrature of the density
checks normalization and the cdf; sampling is checked against the cdf
with a Kolmogorov-Smirnov statistic.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.stats

from gkw import core
from gkw.core import (
    SUBMODELS,
    Params,
    apply_submodel,
    cdf,
    lgkw_pdf,
    log_pdf,
    pdf,
    power_transform_params,
    quantile,
    sample,
)
from gkw.oracle import adaptive_quad
from gkw.specfun import NonConvergenceError


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Params(0.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Params(1.0, -2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Params(1.0, 1.0, 1.0, -0.1, 1.0)
        with pytest.raises(ValueError):
            Params(1.0, 1.0, math.inf, 0.0, 1.0)
        # delta == 0 is legal, it is a boundary case several sub-models use
        Params(1.0, 1.0, 1.0, 0.0, 1.0)

    def test_numpy_scalars_are_stored_as_floats(self):
        # any real NumPy scalar is accepted, and every field, float64 ones
        # included, is stored as a Python float
        for vals in (np.array([2, 3, 1, 0, 1]), np.array([2, 3, 1, 0, 1], dtype=np.int32),
                     np.array([2.0, 3.0, 1.0, 0.0, 1.0], dtype=np.float32),
                     np.array([2.0, 3.0, 1.0, 0.0, 1.0]), [2, 3, 1, 0, True]):
            t = Params(*vals)
            assert t == Params(2.0, 3.0, 1.0, 0.0, 1.0)
            assert all(type(v) is float for v in t.as_tuple())
        # a float32 keeps its value, widened
        assert Params(np.float32(0.1), 1, 1, 0, 1).alpha == float(np.float32(0.1))
        assert repr(Params(*np.array([2, 3, 1, 0, 1]))) == (
            "Params(alpha=2.0, beta=3.0, gamma=1.0, delta=0.0, lam=1.0)")

    @pytest.mark.parametrize("bad", [np.float32(-1.0), np.int64(0), np.float64(math.nan),
                                     np.float32(math.inf), np.bool_(True), "2", None, 1j,
                                     np.complex128(2.0), np.array(2.0)])
    def test_invalid_scalars_are_still_rejected(self, bad):
        with pytest.raises(ValueError, match="alpha must be a positive finite real"):
            Params(bad, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [np.float32(-0.5), np.int64(-1), np.float64(math.nan)])
    def test_negative_numpy_delta_is_rejected(self, bad):
        with pytest.raises(ValueError, match="delta must be a nonnegative finite real"):
            Params(1.0, 1.0, 1.0, bad, 1.0)

    def test_replace(self):
        t = Params(2.0, 3.0, 1.5, 0.5, 2.0)
        assert t.replace(alpha=1.0).as_tuple() == (1.0, 3.0, 1.5, 0.5, 2.0)
        assert t.as_tuple() == (2.0, 3.0, 1.5, 0.5, 2.0)


class TestSubModels:
    def test_registry(self):
        assert set(SUBMODELS) == {
            "GKw", "BKw", "KwKw", "EKw", "Mc", "Beta", "BP", "Kw",
        }
        assert SUBMODELS["GKw"].free_count == 5
        assert SUBMODELS["BKw"].free_count == 4
        assert SUBMODELS["KwKw"].free_count == 4
        assert SUBMODELS["EKw"].free_count == 3
        assert SUBMODELS["Mc"].free_count == 3
        assert SUBMODELS["Beta"].free_count == 2
        assert SUBMODELS["Kw"].free_count == 2
        # BP pins the same slice as Mc
        assert SUBMODELS["BP"].fixed_dict == SUBMODELS["Mc"].fixed_dict

    def test_nesting(self):
        assert SUBMODELS["Beta"].nests_within(SUBMODELS["Mc"])
        assert SUBMODELS["Kw"].nests_within(SUBMODELS["KwKw"])
        assert SUBMODELS["Kw"].nests_within(SUBMODELS["EKw"])
        assert SUBMODELS["EKw"].nests_within(SUBMODELS["KwKw"])
        assert SUBMODELS["Beta"].nests_within(SUBMODELS["GKw"])
        assert not SUBMODELS["Mc"].nests_within(SUBMODELS["Beta"])
        assert not SUBMODELS["EKw"].nests_within(SUBMODELS["BKw"])
        assert not SUBMODELS["GKw"].nests_within(SUBMODELS["GKw"])

    def test_apply(self):
        t = apply_submodel(SUBMODELS["Kw"], [2.0, 3.0])
        assert t == Params(2.0, 3.0, 1.0, 0.0, 1.0)
        t = apply_submodel(SUBMODELS["Beta"], [2.5, 1.5])
        assert t == Params(1.0, 1.0, 2.5, 1.5, 1.0)
        with pytest.raises(ValueError):
            apply_submodel(SUBMODELS["Kw"], [2.0])


WORKHORSE = Params(2.0, 3.0, 1.5, 0.5, 2.0)


class TestClosedForms:
    def test_uniform(self):
        t = Params(1.0, 1.0, 1.0, 0.0, 1.0)
        for x in (0.1, 0.25, 0.5, 0.9):
            assert pdf(t, x) == pytest.approx(1.0, abs=1e-14)
            assert cdf(t, x) == pytest.approx(x, abs=1e-14)
            assert quantile(t, x) == pytest.approx(x, abs=1e-14)

    def test_kumaraswamy_cdf(self):
        t = Params(2.0, 3.0, 1.0, 0.0, 1.0)
        for x in np.linspace(0.05, 0.95, 19):
            assert cdf(t, x) == pytest.approx(1 - (1 - x**2) ** 3, abs=1e-14)
            assert pdf(t, x) == pytest.approx(
                6 * x * (1 - x**2) ** 2, rel=1e-13
            )

    def test_beta_slice_matches_reference(self):
        # alpha = beta = lambda = 1 collapses to a beta(gamma, delta+1) law
        t = Params(1.0, 1.0, 2.5, 1.5, 1.0)
        ref = scipy.stats.beta(2.5, 2.5)
        for x in np.linspace(0.05, 0.95, 19):
            assert pdf(t, x) == pytest.approx(ref.pdf(x), rel=1e-12)
            assert cdf(t, x) == pytest.approx(ref.cdf(x), abs=1e-12)

    def test_kwkw_closed_cdf(self):
        # gamma = 1: F = 1 - [1 - G^lambda]^{delta+1}, G the Kw cdf
        t = Params(2.0, 2.0, 1.0, 1.5, 2.0)
        for x in np.linspace(0.05, 0.95, 19):
            g = 1 - (1 - x**2) ** 2
            assert cdf(t, x) == pytest.approx(1 - (1 - g**2) ** 2.5, abs=1e-13)


class TestDensity:
    @pytest.mark.parametrize(
        "theta",
        [
            WORKHORSE,
            Params(0.7, 0.8, 0.6, 0.0, 0.9),
            Params(1.0, 1.0, 2.0, 4.0, 1.0),
            Params(1.5, 1.8, 1.4, 0.8, 1.1),
        ],
    )
    def test_normalization(self, theta):
        res = adaptive_quad(lambda x: pdf(theta, x), 0.0, 1.0, tol=1e-11)
        assert res.reliable
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_cdf_is_antiderivative(self, subtests=None):
        for x in (0.2, 0.5, 0.8):
            res = adaptive_quad(lambda t: pdf(WORKHORSE, t), 0.0, x, tol=1e-12)
            assert res.value == pytest.approx(cdf(WORKHORSE, x), abs=1e-10)

    def test_log_pdf_consistency(self):
        xs = np.linspace(0.02, 0.98, 25)
        lp = log_pdf(WORKHORSE, xs)
        assert np.allclose(np.exp(lp), pdf(WORKHORSE, xs), rtol=1e-13)

    def test_outside_support(self):
        assert pdf(WORKHORSE, -0.5) == 0.0
        assert pdf(WORKHORSE, 0.0) == 0.0
        assert pdf(WORKHORSE, 1.0) == 0.0
        assert pdf(WORKHORSE, 1.5) == 0.0
        assert cdf(WORKHORSE, -0.5) == 0.0
        assert cdf(WORKHORSE, 1.5) == 1.0
        with pytest.raises(ValueError):
            log_pdf(WORKHORSE, 0.0)
        with pytest.raises(ValueError):
            log_pdf(WORKHORSE, 1.0)

    def test_extreme_parameters_stay_finite(self):
        # magnitudes like these overflow naive power chains
        t = Params(18.12, 1.81, 0.73, 0.06, 15.78)
        for x in (1e-8, 0.1, 0.9, 0.99, 1 - 1e-12):
            lp = log_pdf(t, x)
            assert math.isfinite(lp)
        tiny = Params(0.05, 0.05, 0.05, 30.0, 0.05)
        assert math.isfinite(log_pdf(tiny, 0.5))

    def test_deep_tail_log_pdf(self):
        # near x = 1 the (1 - x^alpha) factor needs the compensated path
        t = Params(2.0, 5.0, 1.0, 0.0, 1.0)
        x = 1 - 1e-14
        # log pdf = log(10) + log x + 4 log(1 - x^2) exactly for this Kw
        want = math.log(10) + math.log(x) + 4 * math.log1p(-x * x)
        assert log_pdf(t, x) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "x,want",
        [
            (1e-4, -2.1364752920270043),
            (1.354e-4, -2.0030089239001727),
            (0.93, -26816.31412580805),
        ],
    )
    def test_underflowing_power_chain(self, x, want):
        # x^alpha underflows at the first two points and y rounds to 1 at
        # the third; references from 50-digit mpmath
        t = Params(83.55, 3.147e6, 1.0, 2.658, 0.01724)
        assert log_pdf(t, x) == pytest.approx(want, rel=1e-10)


class TestCdf:
    # z = y^lambda underflows (about 1e-3776 and 1e-983) while I_z stays
    # large because gamma is tiny; references from 50-digit mpmath betainc
    # at the exact binary values of the parameters
    UNDERFLOW = Params(1.59, 5.70, 9.7e-5, 3.86e10, 4388.0)
    UNDERFLOW_CDF = {0.1: 0.431390052069271154935793157425,
                     0.3: 0.804914172590921060344934558918}

    @pytest.mark.parametrize("x", [0.1, 0.3])
    def test_underflowing_z_scalar(self, x):
        assert cdf(self.UNDERFLOW, x) == pytest.approx(self.UNDERFLOW_CDF[x], rel=1e-14)

    def test_underflowing_z_array(self):
        xs = np.array([0.1, 0.3] * 5)
        want = np.array([self.UNDERFLOW_CDF[x] for x in xs])
        assert cdf(self.UNDERFLOW, xs) == pytest.approx(want, rel=1e-14)


class TestQuantile:
    def test_unconverged_array_inverse_raises(self):
        # the array path (more than 8 points) once returned 7.08e-21 at
        # every u in 0.1..0.9 for this law; it must raise, not return
        us = np.linspace(0.1, 0.9, 9)
        with pytest.raises(NonConvergenceError, match=r"u=0\.1\b"):
            quantile(Params(2.0, 3.0, 0.001, 4.0, 1.0), us)

    def test_unit_delta_array_quantile_is_exact(self):
        # V ~ Beta(0.01, 1) and x = v: the quantile is u^100, which the
        # Newton iteration of the array path once missed (7.45e-39 at
        # u = 0.1) and later raised on
        us = np.linspace(0.05, 0.95, 19)
        xs = quantile(Params(1.0, 1.0, 0.01, 0.0, 1.0), us)
        np.testing.assert_allclose(xs, us**100, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("theta", [(2, 3, 1, 0, 1), (2, 3, 1, 0, 2), (2, 2, 1, 1.5, 2),
                                       (0.5, 0.5, 3, 0, 2), (1, 1, 0.01, 0, 1)],
                             ids=["kw", "ekw", "kwkw", "spike", "F1"])
    def test_unit_shape_point_equals_array(self, theta):
        # gamma = 1 or delta = 0: one point and 9 points both take the
        # inverse's closed form, where a point once took the scalar Newton
        theta = Params(*map(float, theta))
        us = np.linspace(0.1, 0.9, 9)
        many = quantile(theta, us)
        assert np.array_equal([quantile(theta, float(u)) for u in us], many)

    @pytest.mark.parametrize("theta", [(2, 3, 1, 0, 1), (2, 2, 1, 1.5, 2), (0.5, 0.5, 3, 0, 2),
                                       (1, 1, 0.01, 0, 1)], ids=["kw", "kwkw", "spike", "F1"])
    def test_unit_shape_takes_no_scalar_inverse(self, theta, monkeypatch):
        # 1 to 8 points take the array closed form together, not one
        # scalar inverse call per point
        def fail(*args):
            raise AssertionError("scalar inverse called")

        monkeypatch.setattr(core.specfun, "inv_reg_inc_beta", fail)
        theta = Params(*map(float, theta))
        for n in range(1, core._SCALAR_POINTS + 1):
            us = np.linspace(0.1, 0.9, n)
            assert np.all(np.abs(cdf(theta, quantile(theta, us)) - us) <= 1e-9)

    def test_deep_left_tail(self):
        # v^{1/lambda} = 1.6e-17 at u = 1e-5, so 1 - v^{1/lambda} rounds to
        # 1 and the map once returned x = 0; log x from 50-digit mpmath
        theta = Params(10.0, 0.5, 0.05, 0.0, 0.3)
        want = math.exp(-76.683521715078860)
        many = np.full(9, 0.5)
        many[4] = 1e-5
        for q in (quantile(theta, 1e-5), quantile(theta, many)[4]):
            assert abs(q / want - 1.0) <= 1e-13, q
            assert abs(cdf(theta, q) - 1e-5) <= 1e-9

    def test_round_trip(self):
        us = np.linspace(0.001, 0.999, 41)
        for theta in (WORKHORSE, Params(0.5, 1.0, 0.8, 0.0, 1.0)):
            xs = quantile(theta, us)
            assert np.max(np.abs(cdf(theta, xs) - us)) < 1e-9

    def test_endpoints(self):
        assert quantile(WORKHORSE, 0.0) == 0.0
        assert quantile(WORKHORSE, 1.0) == 1.0
        with pytest.raises(ValueError):
            quantile(WORKHORSE, -0.01)
        with pytest.raises(ValueError):
            quantile(WORKHORSE, 1.01)

    def test_monotone(self):
        us = np.linspace(0.0, 1.0, 101)
        xs = quantile(WORKHORSE, us)
        assert np.all(np.diff(xs) >= 0)


class TestSizeSwitch:
    # cdf and quantile take the scalar incomplete-beta kernels up to
    # core._SCALAR_POINTS points and the array kernels above; on both
    # sides they must meet the benchmark's tolerances (cdf 1e-12 absolute
    # plus 1e-10 relative, |F(q) - u| <= 1e-9 beyond the float step at q).
    # The shapes are the benchmark's five and the F4 law, whose z
    # underflows and whose quantiles underflow float64.
    SHAPES = {
        "kw": (2, 3, 1, 0, 1), "beta": (1, 1, 2, 1.5, 1), "workhorse": (2, 3, 1.5, 0.5, 2),
        "kwkw": (2, 2, 1, 1.5, 2), "spike": (0.5, 0.5, 3, 0, 2),
        "F4": (1.59, 5.70, 9.7e-5, 3.86e10, 4388),
    }
    N = core._SCALAR_POINTS

    @pytest.mark.parametrize("name", SHAPES)
    def test_cdf_agrees_across_the_switch(self, name):
        theta = Params(*map(float, self.SHAPES[name]))
        x = np.random.default_rng(11).random(self.N + 1)
        few, many = cdf(theta, x[:-1]), cdf(theta, x)[:-1]
        assert np.all(np.abs(few - many) <= 1e-12 + 1e-10 * few)

    @pytest.mark.parametrize("name", SHAPES)
    def test_quantile_meets_tolerance_on_both_sides(self, name):
        theta = Params(*map(float, self.SHAPES[name]))
        u = np.random.default_rng(12).random(self.N + 1)
        if name == "F4":
            for us in (u[:-1], u):
                with pytest.raises(NonConvergenceError):
                    quantile(theta, us)
            return
        for q in (quantile(theta, u[:-1]), quantile(theta, u)[:-1]):
            f = cdf(theta, q)
            step = np.maximum(np.abs(cdf(theta, np.nextafter(q, 1.0)) - f),
                              np.abs(f - cdf(theta, np.nextafter(q, 0.0))))
            assert np.all(np.abs(f - u[:-1]) <= 1e-9 + step)

    # a NaN point is an input error on both sides of the switch; past it,
    # the array kernels iterated the NaN and raised NonConvergenceError
    @pytest.mark.parametrize("fn", [cdf, quantile], ids=["cdf", "quantile"])
    @pytest.mark.parametrize("n", [1, 10])
    def test_nan_is_a_value_error(self, fn, n):
        points = np.full(n, 0.3)
        points[-1] = np.nan
        with pytest.raises(ValueError):
            fn(Params(2.0, 3.0, 1.5, 0.5, 2.0), points)


class TestSample:
    def test_deterministic(self):
        a = sample(WORKHORSE, 500, seed=7)
        b = sample(WORKHORSE, 500, seed=7)
        c = sample(WORKHORSE, 500, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("theta", [WORKHORSE, Params(1.0, 1.0, 0.01, 0.0, 1.0)],
                             ids=["workhorse", "F1"])
    @pytest.mark.parametrize("n", [5, 2000])
    def test_is_quantile_at_seeded_uniforms(self, theta, n):
        # on both sides of the size switch: the uniforms are integers in
        # [1, 2^53) scaled down, and the draws their clipped quantiles
        u = np.random.default_rng(3).integers(1, 1 << 53, size=n).astype(float) * 2.0**-53
        want = np.clip(quantile(theta, u), 5e-308, 1.0 - 2.0**-53)
        assert np.array_equal(sample(theta, n, seed=3), want)

    # four laws of the 250-shape sweep (rng seed 20261019, indices 61, 76,
    # 187 and 190) at which the map sent tail draws to the 5e-308 clip or
    # lost their precision: 1 - v^{1/lambda} or x^alpha rounded to 1
    @pytest.mark.parametrize("theta", [
        (12.096858480608525, 0.17535087260995108, 0.1324422171808404,
         1.0107067198176334, 0.08726982239713531),
        (3.8709044677286015, 2.2454779628649524, 0.18196173118177109,
         0.16237138756133404, 0.053727826844171864),
        (1.2562920000587707, 14.2052452139434, 0.06839871611657185, 0.0,
         0.12228968667275411),
        (3.306984911996798, 0.5361388440893645, 0.06773931846672063, 0.0,
         0.10073544310605888),
    ], ids=["sweep61", "sweep76", "sweep187", "sweep190"])
    def test_tail_draws_are_x_of_v(self, theta):
        # every draw is x(v) at its v to 1e-11, against 50-digit mpmath
        theta = Params(*theta)
        n = 2000
        u = np.random.default_rng(1).integers(1, 1 << 53, size=n).astype(float) * 2.0**-53
        v = core.specfun._inv_reg_inc_beta_arr(u, theta.gamma, theta.delta + 1.0)
        with mpmath.workdps(50):
            a, b, lam = (mpmath.mpf(p) for p in (theta.alpha, theta.beta, theta.lam))
            want = []
            for vi in v:
                s = mpmath.log(vi) / lam
                t = mpmath.exp(s)
                log_w = (mpmath.log1p(-t) if t < 0.5 else mpmath.log(-mpmath.expm1(s))) / b
                want.append(float(mpmath.exp(mpmath.log(-mpmath.expm1(log_w)) / a)))
        want = np.clip(want, 5e-308, 1.0 - 2.0**-53)
        x = sample(theta, n, seed=1)
        assert np.max(np.abs(x / want - 1.0)) <= 1e-11

    def test_open_interval(self):
        x = sample(WORKHORSE, 20000, seed=1)
        assert x.min() > 0.0
        assert x.max() < 1.0

    @pytest.mark.parametrize("seed", [11, 12])
    def test_ks_against_cdf(self, seed):
        n = 20000
        x = sample(WORKHORSE, n, seed=seed)
        d = scipy.stats.kstest(x, lambda v: cdf(WORKHORSE, v)).statistic
        assert d < 1.63 / math.sqrt(n)

    def test_ks_at_tiny_gamma(self):
        # Params(1, 1, 0.01, 0, 1) has cdf x^0.01: a tenth of its mass lies
        # below 1e-100
        x = sample(Params(1.0, 1.0, 0.01, 0.0, 1.0), 2000, seed=1)
        assert x.min() > 0.0 and x.max() < 1.0
        assert scipy.stats.kstest(x, lambda v: v**0.01).pvalue > 1e-6

    def test_ks_at_small_gamma_large_delta(self):
        # a shape from the 250-shape sweep (gamma = 0.063, delta = 16.6) at
        # which a Newton loop that kept stepping converged draws left
        # |I_z - u| = 1.7e-4 and raised
        theta = Params(3.35425049397689, 5.178017394125466, 0.06301220482678085,
                       16.570034801734895, 5.146081300696888)
        x = sample(theta, 2000, seed=1)
        assert x.min() > 0.0 and x.max() < 1.0
        assert scipy.stats.kstest(x, lambda v: cdf(theta, v)).pvalue > 1e-3

    def test_working_set(self):
        # 1e5 draws of workhorse: 12.9 MiB while every pass evaluated every
        # draw, 10.3 MiB with the draws still iterating copied out as others
        # converge
        tracemalloc.start()
        try:
            sample(WORKHORSE, 100_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20, peak / 2**20

    def test_bad_n(self):
        with pytest.raises(ValueError):
            sample(WORKHORSE, 0, seed=1)


class TestTransforms:
    def test_power_transform_cdf_identity(self):
        # Y = X^{1/a} for X in the alpha = 1 slice lands on alpha = a
        base = Params(1.0, 2.0, 1.5, 0.5, 2.0)
        t = power_transform_params(base, 3.0)
        assert t.alpha == 3.0
        for y in np.linspace(0.05, 0.95, 19):
            assert cdf(t, y) == pytest.approx(cdf(base, y**3.0), abs=1e-13)

    def test_power_transform_requires_unit_alpha(self):
        with pytest.raises(ValueError):
            power_transform_params(WORKHORSE, 2.0)

    def test_lgkw_exponential_case(self):
        # alpha free, everything else unity: -log X is exponential(alpha)
        t = Params(2.0, 1.0, 1.0, 0.0, 1.0)
        for y in (0.1, 0.5, 1.0, 3.0):
            assert lgkw_pdf(t, y) == pytest.approx(2 * math.exp(-2 * y), rel=1e-12)

    def test_lgkw_normalizes(self):
        t = Params(2.0, 3.0, 1.5, 0.5, 2.0)
        res = adaptive_quad(lambda y: lgkw_pdf(t, y), 1e-12, 60.0, tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_lgkw_matches_change_of_variables(self):
        for y in (0.2, 0.7, 1.5):
            x = math.exp(-y)
            assert lgkw_pdf(WORKHORSE, y) == pytest.approx(
                pdf(WORKHORSE, x) * x, rel=1e-12
            )

    def test_lgkw_domain(self):
        with pytest.raises(ValueError):
            lgkw_pdf(WORKHORSE, 0.0)
        with pytest.raises(ValueError):
            lgkw_pdf(WORKHORSE, -1.0)
