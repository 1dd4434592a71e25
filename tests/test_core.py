"""Distribution-layer tests.

Closed-form special cases pin the algebra; quadrature of the density
checks normalization and the cdf; sampling is checked against the cdf
with a Kolmogorov-Smirnov statistic.
"""

import math

import numpy as np
import pytest
import scipy.stats

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
        # the array path (more than 8 points) once returned 7.45e-39 at
        # u = 0.1 for this law, where the true quantile is 1e-100
        us = np.linspace(0.1, 0.9, 9)
        with pytest.raises(NonConvergenceError, match=r"u=0\.1\b"):
            quantile(Params(1.0, 1.0, 0.01, 0.0, 1.0), us)

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


class TestSample:
    def test_deterministic(self):
        a = sample(WORKHORSE, 500, seed=7)
        b = sample(WORKHORSE, 500, seed=7)
        c = sample(WORKHORSE, 500, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

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
