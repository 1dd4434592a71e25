"""Checks for the verification machinery itself: gkw.oracle's quadrature
and the reference routes of tests/crosscheck.py.

The quadrature battery includes endpoint singularities and an
oscillatory case; finite differences are checked for the expected
second-order step scaling; the survival-power order-statistic route is
checked against the paper's binomial route where 1 - F starts with
zeros.
"""

import math

import numpy as np
import pytest

from gkw.core import Params
from gkw.oracle import adaptive_quad

from crosscheck import (fd_grad, fd_hess, mc_order_stat_mean, order_stat_moment_barakat,
                        order_stat_series)
from gridpoints import BETA25, BETA52, UNIFORM


class TestAdaptiveQuad:
    # (integrand, lo, hi, exact value)
    BATTERY = [
        (lambda x: x**2, 0.0, 1.0, 1.0 / 3.0),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
        (lambda x: np.log(x), 0.0, 1.0, -1.0),
        (lambda x: np.exp(-x), 0.0, 5.0, 1.0 - math.exp(-5.0)),
        (lambda x: np.cos(50.0 * x), 0.0, 1.0, math.sin(50.0) / 50.0),
        (
            lambda x: (1.0 - x) ** -0.3,
            0.0,
            1.0,
            1.0 / 0.7,
        ),
    ]

    @pytest.mark.parametrize("f,lo,hi,exact", BATTERY)
    def test_battery(self, f, lo, hi, exact):
        res = adaptive_quad(f, lo, hi, tol=1e-10)
        assert abs(res.value - exact) < 1e-9
        assert res.reliable

    def test_error_estimate_brackets_truth(self):
        res = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, tol=1e-10)
        assert abs(res.value - 2.0) <= 10 * max(res.err_estimate, 1e-12)

    def test_budget_exhaustion_reported(self):
        res = adaptive_quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                            tol=1e-14, max_subdiv=3)
        assert not res.reliable
        assert res.subdivisions == 3

    def test_float_conversion(self):
        res = adaptive_quad(lambda x: x, 0.0, 2.0, tol=1e-12)
        assert float(res) == pytest.approx(2.0, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            adaptive_quad(lambda x: x, 0.0, math.inf)


def _rosenbrock(v):
    x, y = v
    return (1 - x) ** 2 + 100 * (y - x**2) ** 2


class TestFdGrad:
    def test_quadratic(self):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])

        def f(v):
            return 0.5 * float(v @ A @ v)

        x = np.array([0.7, -1.3])
        assert np.allclose(fd_grad(f, x), A @ x, atol=1e-8)

    def test_rosenbrock(self):
        x = np.array([0.4, 0.6])
        want = np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        assert np.allclose(fd_grad(_rosenbrock, x), want, rtol=1e-6, atol=1e-6)

    def test_second_order_step_scaling(self):
        # halving h should cut central-difference error by about 4
        f = math.sin
        x = np.array([0.9])
        exact = math.cos(0.9)
        e1 = abs(fd_grad(lambda v: f(v[0]), x, h_rel=1e-3)[0] - exact)
        e2 = abs(fd_grad(lambda v: f(v[0]), x, h_rel=5e-4)[0] - exact)
        assert 3.5 < e1 / e2 < 4.5

    def test_non_finite_raises_with_coordinate(self):
        def f(v):
            return float(v[0]) if v[1] >= 0 else float("nan")

        with pytest.raises(ValueError, match="coordinate 1"):
            fd_grad(f, np.array([1.0, 0.0]))


class TestFdHess:
    def test_quadratic_exact(self):
        A = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.0], [0.5, 0.0, 4.0]])

        def f(v):
            return 0.5 * float(v @ A @ v)

        H = fd_hess(f, np.array([0.3, -0.2, 1.1]))
        assert np.allclose(H, A, atol=1e-5)
        assert np.array_equal(H, H.T)

    def test_rosenbrock_hessian(self):
        x = np.array([0.4, 0.6])
        want = np.array(
            [
                [2 - 400 * (x[1] - 3 * x[0] ** 2), -400 * x[0]],
                [-400 * x[0], 200.0],
            ]
        )
        assert np.allclose(fd_hess(_rosenbrock, x), want, rtol=1e-4, atol=1e-3)


class TestMcOrderStat:
    def test_uniform_min_of_two(self):
        t = Params(1.0, 1.0, 1.0, 0.0, 1.0)
        mean, se = mc_order_stat_mean(t, 1, 2, 1.0, n_rep=40000, seed=3)
        assert abs(mean - 1.0 / 3.0) < 3 * se
        assert se < 0.01

    def test_uniform_median_of_three(self):
        t = Params(1.0, 1.0, 1.0, 0.0, 1.0)
        mean, se = mc_order_stat_mean(t, 2, 3, 1.0, n_rep=40000, seed=4)
        assert abs(mean - 0.5) < 3 * se

    def test_deterministic(self):
        t = Params(2.0, 2.0, 1.0, 0.0, 1.0)
        a = mc_order_stat_mean(t, 1, 2, 1.0, n_rep=1000, seed=9)
        b = mc_order_stat_mean(t, 1, 2, 1.0, n_rep=1000, seed=9)
        assert a == b

    def test_bad_rank(self):
        t = Params(1.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            mc_order_stat_mean(t, 3, 2, 1.0, n_rep=10, seed=0)


# (i, n, r) for i <= n <= 4 and r in {1, 2}
RANKS = [(i, n, r) for n in range(1, 5) for i in range(1, n + 1) for r in (1, 2)]


class TestBarakat:
    def test_non_integer_r_rejected(self):
        with pytest.raises(ValueError):
            order_stat_moment_barakat(UNIFORM, 1, 2, 1.5)

    def test_agrees_where_the_polynomial_has_zero_runs(self):
        # F = 6x^5 - 5x^6: four leading zeros, and (1 - F)^p has interior
        # runs of zeros on which the small-terms rule would stop
        for i, n, r in RANKS:
            got = order_stat_moment_barakat(BETA52, i, n, r)
            want = order_stat_series(BETA52, i, n, float(r))
            assert got.method == "series", (i, n, r)
            assert float(got) == pytest.approx(float(want), rel=1e-12), (i, n, r)

    # gamma*lambda >= 4: the small-terms rule stops on the leading zeros of
    # 1 - F unless they are factored out, and the value reads exactly 1.0
    @pytest.mark.parametrize("theta", [Params(1, 1, 5, 5, 1), Params(1, 1, 4, 5, 1), BETA25],
                             ids=["beta56", "beta46", "beta25"])
    def test_value_is_backed_or_quadrature(self, theta):
        for i, n, r in RANKS:
            got = order_stat_moment_barakat(theta, i, n, r)
            want = order_stat_series(theta, i, n, float(r))
            assert float(got) != 1.0, (i, n, r)
            if got.method != "quadrature":
                assert float(got) == pytest.approx(float(want), rel=1e-9), (i, n, r)
