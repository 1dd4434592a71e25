"""Tests for the expansion machinery in gkw.series.

Reference values are either closed forms or 40-digit quadrature results
(frozen constants); everything else is cross-checked against the adaptive
quadrature / Monte Carlo oracles at runtime.
"""

import json
import math
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkw import cli, core, oracle, series, specfun
from gkw.core import Params
from gkw.series import (
    CoeffTable,
    DivergentIntegralError,
    ExpansionDomainError,
    SeriesControl,
    SeriesDivergenceWarning,
    SeriesValue,
)

from crosscheck import mc_order_stat_mean, order_stat_moment_barakat
from gridpoints import (
    BATHTUB,
    BETA25,
    BETA52,
    DECREASING,
    EKW,
    GRID12,
    INCREASING_J,
    KW22,
    KWKW,
    MOUND,
    SPIKE,
    UNIFORM,
    V_VALID,
    WORKHORSE,
)

# 40-digit quadrature anchors for the workhorse point (2, 3, 1.5, 0.5, 2)
WORK_RAW_MOMENTS = {
    1: 0.5755344694858665342684,
    2: 0.3500642185585924057278,
    3: 0.2227499657011177704847,
    4: 0.1471745115826618743997,
}
WORK_KAPPA3 = -0.0003921175744275978389168
WORK_KAPPA4 = -0.0001178744633158320193638
WORK_MGF = {2.0: 3.280907970083557671871, -2.0: 0.328578492284767074329}
WORK_RENYI = {2.0: -0.6996099323505939863675, 0.5: -0.4349018093282235590408}
WORK_DELTA1 = 0.1112912782069759711512
WORK_DELTA2 = 0.1112464455678660220121
WORK_LORENZ_03 = 0.2149153655878044933688
WORK_ORDER_23 = 0.5777107708746252014236
WORK_LMOMENTS = [
    0.5755344694858665342684,
    0.07796058431003699509769,
    -0.002176301388758667155275,
    0.007988307927916012190365,
]
KWKW_RAW_MOMENTS = {
    1: 0.5307152926309158385411,
    2: 0.3045291081782284740162,
    3: 0.1853480808090783002519,
    4: 0.1181843642330517545226,
}
MOUND_RAW_MOMENTS = {
    1: 0.4420560716471333092157,
    2: 0.2319911879794890326015,
    3: 0.1358345340823217877421,
    4: 0.08587857455410611268578,
}
EKW_ORDER_23 = 0.5766140109033178627414
KWKW_RENYI_2 = -0.5989230609229075009941

GENEROUS = SeriesControl(max_terms=2000)


class TestControlAndValue:
    def test_control_defaults(self):
        ctl = SeriesControl()
        assert ctl.max_terms == 400
        assert ctl.tail_tol == 1e-10

    @pytest.mark.parametrize("kw", [
        {"max_terms": 0}, {"max_terms": -3}, {"max_terms": 2.5},
        {"tail_tol": 0.0}, {"tail_tol": -1e-9}, {"tail_tol": float("inf")},
    ])
    def test_control_rejects_bad_fields(self, kw):
        with pytest.raises(ValueError):
            SeriesControl(**kw)

    def test_series_value_behaves_like_float(self):
        v = SeriesValue(0.25, tail_bound=1e-12, terms=7, method="series")
        assert v == 0.25
        assert v + 0.75 == 1.0
        assert isinstance(v + 0.75, float)
        assert v.terms == 7
        assert v.method == "series"
        assert v.converged

    def test_series_value_carries_quadrature_tag(self):
        v = series.mgf(WORKHORSE, 2.0)
        assert v.method == "quadrature"
        assert v.converged


class TestPowerSeriesPower:
    def test_polynomial_square(self):
        out = series.power_series_power([1.0, 2.0, 3.0], 2, 5)
        assert out == pytest.approx([1.0, 4.0, 10.0, 12.0, 9.0], abs=1e-13)

    def test_cube_of_binomial(self):
        out = series.power_series_power([1.0, -1.0], 3, 4)
        assert out == pytest.approx([1.0, -3.0, 3.0, -1.0], abs=1e-13)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError, match="leading coefficient"):
            series.power_series_power([0.0, 1.0], 2, 4)

    @pytest.mark.parametrize("p", [0, -1, 1.5])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(ValueError):
            series.power_series_power([1.0, 1.0], p, 4)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            series.power_series_power([1.0, 1.0], 2, 0)

    @given(
        lead=st.floats(0.3, 2.0),
        sign=st.sampled_from([-1.0, 1.0]),
        rest=st.lists(st.floats(-2, 2), min_size=0, max_size=5),
        p=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_repeated_convolution(self, lead, sign, rest, p):
        # the recurrence divides by the leading coefficient, so keep it
        # comparable in size to the rest for a well-conditioned check
        coeffs = [sign * lead] + rest
        n = 8
        out = series.power_series_power(coeffs, p, n)
        ref = np.array([1.0])
        for _ in range(p):
            ref = np.convolve(ref, coeffs)
        ref = np.concatenate([ref, np.zeros(n)])[:n]
        scale = np.max(np.abs(ref)) + 1.0
        assert out == pytest.approx(ref, abs=1e-9 * scale)


class TestOmegaWeights:
    def test_uniform_is_single_unit_weight(self):
        w = series.omega_weights(UNIFORM)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0, abs=1e-14)

    def test_beta_gamma1_delta1(self):
        # 1/B(1,2) = 2, so omega = [2/(1+0), -2/(1+1)] = [2, -1]
        w = series.omega_weights(Params(1, 1, 1, 1, 1))
        assert w == pytest.approx([2.0, -1.0], abs=1e-13)

    def test_integer_delta_terminates_and_sums_to_one(self):
        w = series.omega_weights(BETA25)
        assert w.shape == (5,)  # delta = 4
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_reconstruction_fractional_delta(self):
        # non-integer delta: truncated weights still rebuild the cdf
        theta = Params(1.2, 0.9, 0.8, 2.5, 1.1)
        ctl = SeriesControl(max_terms=800)
        for x in (0.2, 0.5, 0.8):
            got = series.cdf_expansion(theta, x, ctl)
            assert got.converged
            assert float(got) == pytest.approx(core.cdf(theta, x), abs=1e-8)


class TestMixtureCoeffs:
    def test_kw_is_its_own_single_component(self):
        ct = series.mixture_coeffs(KW22)
        assert ct.p_valid and ct.v_valid
        assert ct.p == pytest.approx([1.0], abs=1e-13)
        assert ct.v[:4] == pytest.approx([4.0, -4.0, 0.0, 0.0], abs=1e-12)

    def test_uniform_tables(self):
        ct = series.mixture_coeffs(UNIFORM)
        assert ct.p == pytest.approx([1.0], abs=1e-14)
        assert ct.v[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(ct.v[1:] == 0.0)

    def test_p_table_rebuilds_density(self):
        # components are Kumaraswamy(alpha, (k+1) beta) densities
        ct = series.mixture_coeffs(BETA52)
        assert ct.p_valid
        assert math.fsum(ct.p) == pytest.approx(1.0, abs=1e-12)
        a, b = BETA52.alpha, BETA52.beta
        for x in (0.15, 0.5, 0.85):
            k = np.arange(len(ct.p))
            comps = (k + 1) * b * a * x ** (a - 1) * (1 - x**a) ** ((k + 1) * b - 1)
            assert float(np.dot(ct.p, comps)) == pytest.approx(
                core.pdf(BETA52, x), rel=1e-12
            )

    def test_p_requires_integer_delta(self):
        ct = series.mixture_coeffs(WORKHORSE)
        assert not ct.p_valid
        assert ct.p.size == 0
        assert any("integer delta" in note for note in ct.notes)

    @pytest.mark.parametrize("name,theta", GRID12)
    def test_v_validity_pattern(self, name, theta):
        ct = series.mixture_coeffs(theta)
        assert ct.v_valid == (name in V_VALID)

    def test_v_has_exact_leading_zeros(self):
        # gamma*lambda - 1 leading zeros before the first power term
        ct = series.mixture_coeffs(EKW)  # gamma*lambda = 2
        assert ct.v[0] == 0.0
        assert ct.v[1] != 0.0

    def test_vstar_sums_to_one_for_polynomial_tables(self):
        # finitely many nonzero v_i: sum v_i/((i+1) alpha) = total mass
        for theta in (UNIFORM, KW22, EKW, BETA52, BETA25):
            ct = series.mixture_coeffs(theta)
            i = np.arange(len(ct.v), dtype=float)
            vstar = ct.v / ((i + 1.0) * theta.alpha)
            assert math.fsum(vstar) == pytest.approx(1.0, abs=1e-11)


class TestExpansionEvaluators:
    @pytest.mark.parametrize("x", [0.1, 0.35, 0.6, 0.9])
    def test_cdf_expansion_matches_cdf(self, x):
        got = series.cdf_expansion(WORKHORSE, x)
        assert got.converged
        assert float(got) == pytest.approx(core.cdf(WORKHORSE, x), abs=1e-8)

    def test_cdf_expansion_integer_delta_is_exact(self):
        got = series.cdf_expansion(BETA52, 0.4)
        assert got.method == "exact"
        assert float(got) == pytest.approx(core.cdf(BETA52, 0.4), abs=1e-13)

    def test_pdf_expansion_inside_radius(self):
        got = series.pdf_expansion(WORKHORSE, 0.45)
        assert got.converged
        assert float(got) == pytest.approx(core.pdf(WORKHORSE, 0.45), abs=1e-9)

    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_pdf_expansion_polynomial_point(self, x):
        got = series.pdf_expansion(EKW, x)
        assert float(got) == pytest.approx(core.pdf(EKW, x), rel=1e-11)

    def test_pdf_expansion_flags_divergence(self):
        # the coefficient series for this theta has convergence radius
        # ~0.26 in x^alpha; x = 0.8 sits far outside it
        with pytest.warns(SeriesDivergenceWarning):
            got = series.pdf_expansion(WORKHORSE, 0.8)
        assert not got.converged

    def test_pdf_expansion_rejects_invalid_theta(self):
        with pytest.raises(ExpansionDomainError):
            series.pdf_expansion(BATHTUB, 0.5)
        with pytest.raises(ExpansionDomainError):
            series.pdf_expansion(MOUND, 0.5)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.3])
    def test_domain_validation(self, x):
        with pytest.raises(ValueError):
            series.cdf_expansion(WORKHORSE, x)
        with pytest.raises(ValueError):
            series.pdf_expansion(KW22, x)


class TestMoment:
    def test_uniform_all_orders(self):
        for r in range(1, 7):
            got = series.moment(UNIFORM, float(r))
            assert got.method == "exact"
            assert float(got) == pytest.approx(1.0 / (r + 1), abs=1e-14)

    def test_kw22_mean_closed_form(self):
        got = series.moment(KW22, 1.0)
        assert got.method == "exact"
        assert float(got) == pytest.approx(8.0 / 15.0, abs=1e-12)

    def test_beta_means(self):
        got = series.moment(BETA52, 1.0)
        assert float(got) == pytest.approx(5.0 / 7.0, abs=1e-12)
        # non-integer gamma exercises the finite m-route
        got = series.moment(Params(1, 1, 2.5, 1, 1), 1.0)
        assert got.method == "exact"
        assert float(got) == pytest.approx(5.0 / 9.0, abs=1e-10)

    def test_negative_order_closed_form(self):
        # E[X^{-3/2}] for Kumaraswamy(2,2): 2 B(1/4, 2) = 6.4
        got = series.moment(KW22, -1.5)
        assert float(got) == pytest.approx(6.4, abs=1e-11)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_workhorse_vs_frozen_quadrature(self, r):
        got = series.moment(WORKHORSE, float(r), GENEROUS)
        assert got.converged
        assert float(got) == pytest.approx(WORK_RAW_MOMENTS[r], abs=2e-8)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_kwkw_vs_frozen_quadrature(self, r):
        got = series.moment(KWKW, float(r), GENEROUS)
        assert float(got) == pytest.approx(KWKW_RAW_MOMENTS[r], abs=2e-8)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_mound_vs_frozen_quadrature(self, r):
        got = series.moment(MOUND, float(r), GENEROUS)
        assert float(got) == pytest.approx(MOUND_RAW_MOMENTS[r], abs=2e-8)

    @pytest.mark.parametrize("name,theta", GRID12)
    def test_monotone_decreasing_in_order(self, name, theta):
        vals = [float(series.moment(theta, float(r))) for r in (1, 2, 3)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_r_at_or_below_neg_alpha_rejected(self):
        with pytest.raises(ValueError, match="-alpha"):
            series.moment(UNIFORM, -1.0)
        with pytest.raises(ValueError, match="-alpha"):
            series.moment(KW22, -2.5)


class TestCentralMomentsAndCumulants:
    def test_uniform_table(self):
        mus, kappas = series.central_moments_and_cumulants(UNIFORM, 4)
        assert mus[0] == pytest.approx(0.0, abs=1e-13)
        assert mus[1] == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert mus[2] == pytest.approx(0.0, abs=1e-12)
        assert mus[3] == pytest.approx(1.0 / 80.0, abs=1e-12)
        assert kappas[0] == pytest.approx(0.5, abs=1e-13)
        assert kappas[1] == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert kappas[2] == pytest.approx(0.0, abs=1e-12)
        assert kappas[3] == pytest.approx(-1.0 / 120.0, abs=1e-12)

    def test_workhorse_higher_cumulants(self):
        _, kappas = series.central_moments_and_cumulants(WORKHORSE, 4, GENEROUS)
        assert kappas[2] == pytest.approx(WORK_KAPPA3, abs=1e-7)
        assert kappas[3] == pytest.approx(WORK_KAPPA4, abs=1e-7)

    @pytest.mark.parametrize("name,theta", GRID12)
    def test_variance_nonnegative(self, name, theta):
        _, kappas = series.central_moments_and_cumulants(theta, 2)
        assert kappas[1] >= 0.0

    def test_uniform_sixth_order(self):
        mus, kappas = series.central_moments_and_cumulants(UNIFORM, 6)
        assert mus[5] == pytest.approx(1.0 / 448.0, abs=1e-10)
        assert kappas[5] == pytest.approx(1.0 / 252.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [0, 7, -1, 2.5])
    def test_up_to_validation(self, bad):
        with pytest.raises(ValueError):
            series.central_moments_and_cumulants(UNIFORM, bad)


class TestFactorialMoment:
    def test_uniform_third_descending(self):
        # E[X(X-1)(X-2)] = 1/4 - 3/3 + 2/2 = 1/4
        assert series.factorial_moment(UNIFORM, 3) == pytest.approx(0.25, abs=1e-12)

    def test_first_is_mean(self):
        assert series.factorial_moment(KW22, 1) == pytest.approx(
            8.0 / 15.0, abs=1e-12
        )

    def test_second_matches_direct(self):
        # E[X(X-1)] = mu2' - mu1'
        got = series.factorial_moment(WORKHORSE, 2, GENEROUS)
        want = WORK_RAW_MOMENTS[2] - WORK_RAW_MOMENTS[1]
        assert got == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("bad", [0, -2, 1.5])
    def test_r_validation(self, bad):
        with pytest.raises(ValueError):
            series.factorial_moment(UNIFORM, bad)


class TestMgf:
    def test_at_zero_is_exactly_one(self):
        got = series.mgf(WORKHORSE, 0.0)
        assert float(got) == 1.0
        assert got.method == "exact"

    @pytest.mark.parametrize("t", [1.0, -3.0, 0.25])
    def test_uniform_closed_form(self, t):
        got = series.mgf(UNIFORM, t)
        assert float(got) == pytest.approx(math.expm1(t) / t, abs=1e-13)

    def test_kw22_series_route_vs_quadrature(self):
        got = series.mgf(KW22, 1.5)
        assert got.method == "series"
        ref = oracle.adaptive_quad(
            lambda x: np.exp(1.5 * x) * core.pdf(KW22, x), 0.0, 1.0, tol=1e-12
        )
        assert float(got) == pytest.approx(ref.value, abs=1e-11)

    @pytest.mark.parametrize("t", [2.0, -2.0])
    def test_workhorse_vs_frozen_quadrature(self, t):
        got = series.mgf(WORKHORSE, t)
        assert float(got) == pytest.approx(WORK_MGF[t], abs=1e-9)


class TestQuantileSeriesCoeffs:
    def test_leading_terms(self):
        a = series.quantile_series_coeffs(Params(1, 1, 2, 1.5, 1), 4)
        assert a[0] == 0.0
        assert a[1] == 1.0
        assert a[2] == pytest.approx(1.5 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("g,d", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0), (3.5, 0.25)])
    def test_a2_closed_form(self, g, d):
        a = series.quantile_series_coeffs(Params(1, 1, g, d, 1), 3)
        assert a[2] == pytest.approx(d / (g + 1.0), rel=1e-12)

    def test_delta_zero_collapses_to_identity(self):
        a = series.quantile_series_coeffs(Params(2, 3, 1.7, 0, 1.2), 8)
        assert a[1] == 1.0
        assert np.all(a[2:] == 0.0)

    def test_truncation_error_shrinks_toward_zero(self):
        # 4-term truncation against the true inverse incomplete beta;
        # the error must fall off rapidly as u -> 0
        from gkw.specfun import inv_reg_inc_beta, ln_beta

        g, d = 2.0, 1.5
        a = series.quantile_series_coeffs(Params(1, 1, g, d, 1), 5)
        errs = []
        for u in (1e-2, 1e-3, 1e-4):
            v = (g * u * math.exp(ln_beta(g, d + 1.0))) ** (1.0 / g)
            z_series = sum(a[k] * v**k for k in range(5))
            z_true = inv_reg_inc_beta(u, g, d + 1.0)
            errs.append(abs(z_series - z_true))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-11

    @pytest.mark.parametrize("bad", [1, 0, -2, 2.5])
    def test_n_coeffs_validation(self, bad):
        with pytest.raises(ValueError):
            series.quantile_series_coeffs(UNIFORM, bad)


class TestMeanDeviations:
    def test_uniform_quarter_quarter(self):
        d1, d2 = series.mean_deviations(UNIFORM)
        assert float(d1) == pytest.approx(0.25, abs=1e-12)
        assert float(d2) == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_beta_deviations_agree(self):
        # Beta(3,3) is symmetric about 1/2, so mean = median and d1 = d2
        theta = Params(1, 1, 3, 2, 1)
        d1, d2 = series.mean_deviations(theta)
        assert float(d1) == pytest.approx(float(d2), abs=1e-9)

    def test_workhorse_vs_frozen_quadrature(self):
        d1, d2 = series.mean_deviations(WORKHORSE, GENEROUS)
        assert float(d1) == pytest.approx(WORK_DELTA1, abs=1e-7)
        assert float(d2) == pytest.approx(WORK_DELTA2, abs=1e-7)


class TestBonferroniLorenz:
    def test_uniform_at_half(self):
        b, lo = series.bonferroni_lorenz(UNIFORM, 0.5)
        assert float(b) == pytest.approx(0.5, abs=1e-12)
        assert float(lo) == pytest.approx(0.25, abs=1e-12)

    def test_workhorse_anchor(self):
        b, lo = series.bonferroni_lorenz(WORKHORSE, 0.3, GENEROUS)
        assert float(lo) == pytest.approx(WORK_LORENZ_03, abs=1e-7)
        assert float(b) == pytest.approx(WORK_LORENZ_03 / 0.3, abs=1e-6)

    def test_lorenz_is_convex_and_below_diagonal(self):
        ps = np.linspace(0.02, 0.98, 49)
        ls = np.array([float(series.bonferroni_lorenz(EKW, p)[1]) for p in ps])
        assert np.all(ls <= ps + 1e-9)
        assert np.all(np.diff(ls, 2) > -1e-7)  # discrete convexity

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 2.0])
    def test_p_validation(self, p):
        with pytest.raises(ValueError):
            series.bonferroni_lorenz(UNIFORM, p)


class TestOrderStatMoments:
    @pytest.mark.parametrize("i,n,want", [(1, 2, 1 / 3), (2, 3, 0.5), (3, 3, 0.75),
                                          (2, 2, 2 / 3)])
    def test_uniform_closed_forms(self, i, n, want):
        got = series.order_stat_moment_series(UNIFORM, i, n, 1.0)
        assert float(got) == pytest.approx(want, abs=1e-11)
        got_b = order_stat_moment_barakat(UNIFORM, i, n, 1)
        assert float(got_b) == pytest.approx(want, abs=1e-11)

    def test_single_observation_is_plain_moment(self):
        got = series.order_stat_moment_series(KW22, 1, 1, 2.0)
        assert float(got) == pytest.approx(float(series.moment(KW22, 2.0)), abs=1e-11)

    def test_spike_rational_value(self):
        # E[X_{1:2}] = 373/420 exactly for this parameter point
        got = series.order_stat_moment_series(SPIKE, 1, 2, 1.0, GENEROUS)
        assert float(got) == pytest.approx(373.0 / 420.0, abs=2e-6)

    def test_routes_agree_on_series_point(self):
        a = series.order_stat_moment_series(EKW, 2, 3, 1.0)
        b = order_stat_moment_barakat(EKW, 2, 3, 1)
        assert a.method == "series" and b.method == "series"
        assert float(a) == pytest.approx(float(b), rel=1e-10)
        assert float(a) == pytest.approx(EKW_ORDER_23, abs=1e-10)

    def test_workhorse_falls_back_but_stays_correct(self):
        # coefficient series has finite radius here: both routes reroute
        a = series.order_stat_moment_series(WORKHORSE, 2, 3, 1.0)
        b = order_stat_moment_barakat(WORKHORSE, 2, 3, 1)
        assert a.method == "quadrature" and b.method == "quadrature"
        assert float(a) == pytest.approx(WORK_ORDER_23, abs=1e-9)
        assert float(b) == pytest.approx(WORK_ORDER_23, abs=1e-9)

    def test_against_monte_carlo(self):
        mc, se = mc_order_stat_mean(INCREASING_J, 2, 3, 1.0, 60000, seed=19)
        got = series.order_stat_moment_series(INCREASING_J, 2, 3, 1.0)
        assert abs(float(got) - mc) < 3.5 * se

    def test_bathtub_quadrature_fallback(self):
        got = series.order_stat_moment_series(BATHTUB, 1, 2, 1.0)
        assert got.method == "quadrature"
        mc, se = mc_order_stat_mean(BATHTUB, 1, 2, 1.0, 60000, seed=23)
        assert abs(float(got) - mc) < 3.5 * se

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            series.order_stat_moment_series(UNIFORM, 0, 2, 1.0)
        with pytest.raises(ValueError):
            series.order_stat_moment_series(UNIFORM, 3, 2, 1.0)
        with pytest.raises(ValueError):
            series.order_stat_moment_series(UNIFORM, 1, 2, -1.0)


class TestLMoments:
    def test_uniform(self):
        lams = series.l_moments(UNIFORM, 4)
        assert lams[0] == pytest.approx(0.5, abs=1e-12)
        assert lams[1] == pytest.approx(1.0 / 6.0, abs=1e-11)
        assert lams[2] == pytest.approx(0.0, abs=1e-11)
        assert lams[3] == pytest.approx(0.0, abs=1e-11)

    def test_first_is_mean(self):
        lams = series.l_moments(KW22, 1)
        assert len(lams) == 1
        assert lams[0] == pytest.approx(8.0 / 15.0, abs=1e-11)

    def test_workhorse_all_four(self):
        lams = series.l_moments(WORKHORSE, 4, GENEROUS)
        for got, want in zip(lams, WORK_LMOMENTS):
            assert got == pytest.approx(want, abs=2e-7)

    def test_l2_is_half_gini_integral(self):
        # lambda_2 = integral F (1 - F) dx, an independent identity
        ref = oracle.adaptive_quad(
            lambda x: core.cdf(EKW, x) * (1.0 - core.cdf(EKW, x)), 0.0, 1.0,
            tol=1e-12,
        )
        lams = series.l_moments(EKW, 2)
        assert lams[1] == pytest.approx(ref.value, abs=1e-9)

    # lambda_4 from 40-digit mpmath probability-weighted moments.  The n = 4
    # q-sums cancel below rounding at both laws; summed anyway, they put
    # lambda_4 1.8e-6 and 4.8e-10 relative off, so they must go to quadrature.
    @pytest.mark.parametrize("theta, want", [(BETA25, 0.0080663716415499966),
                                             (EKW, 0.0085611014536742523)],
                             ids=["beta25", "ekw"])
    def test_l4_of_cancelling_sums(self, theta, want):
        assert series.l_moments(theta, 4)[3] == pytest.approx(want, rel=1e-12)

    # ln B(gamma, delta + 1) is out of float64 range at these laws, so no
    # series table exists and every value comes from quadrature, where the
    # array cdf stalls on some node arrays (fault F3).  Both laws are nearly
    # normal: tau3 ~ 0, tau4 ~ 30 atan(sqrt 2) / pi - 9 = 0.1226 and
    # lambda_2 / delta_1 ~ 1 / sqrt 2.
    @pytest.mark.parametrize("theta", [Params(2, 3, 1e5, 1e5, 1), Params(0.5, 2, 2e4, 2e4, 2)])
    def test_narrow_law_without_series_tables(self, theta):
        l1, l2, l3, l4 = series.l_moments(theta, 4)
        (mu,) = series.moments(theta, [1.0])
        d1, _ = series.mean_deviations(theta)
        assert mu.method == "quadrature" and mu.converged
        assert l1 == pytest.approx(float(mu), abs=1e-12)
        assert abs(l3 / l2) < 0.01
        assert l4 / l2 == pytest.approx(30.0 * math.atan(math.sqrt(2.0)) / math.pi - 9.0, abs=1e-3)
        assert l2 / float(d1) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-3)

    @pytest.mark.parametrize("bad", [0, 5, -1, 1.5])
    def test_up_to_validation(self, bad):
        with pytest.raises(ValueError):
            series.l_moments(UNIFORM, bad)


class TestRenyiEntropy:
    def test_uniform_is_exact_zero(self):
        for rho in (0.5, 2.0, 3.0):
            got = series.renyi_entropy(UNIFORM, rho)
            assert float(got) == 0.0

    def test_beta21_closed_form(self):
        # f = 2x: integral f^2 = 4/3, J = ln(3/4)
        got = series.renyi_entropy(Params(1, 1, 2, 0, 1), 2.0)
        assert got.method == "series"
        assert float(got) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_workhorse_series_route(self):
        got = series.renyi_entropy(WORKHORSE, 2.0)
        assert got.method == "series"
        assert float(got) == pytest.approx(WORK_RENYI[2.0], abs=1e-9)

    def test_workhorse_quadrature_route(self):
        # rho*delta = 0.25 is not an integer: expansion would need
        # cancellation-hostile powers, so this is a tagged fallback
        got = series.renyi_entropy(WORKHORSE, 0.5)
        assert got.method == "quadrature"
        assert float(got) == pytest.approx(WORK_RENYI[0.5], abs=1e-9)

    def test_kwkw_anchor(self):
        got = series.renyi_entropy(KWKW, 2.0)
        assert float(got) == pytest.approx(KWKW_RENYI_2, abs=1e-8)

    @pytest.mark.parametrize(
        "theta", [BATHTUB, DECREASING, INCREASING_J, SPIKE],
        ids=["bathtub", "decreasing", "increasing_j", "spike"],
    )
    def test_divergent_at_rho_two(self, theta):
        with pytest.raises(DivergentIntegralError):
            series.renyi_entropy(theta, 2.0)

    @pytest.mark.parametrize("name,theta", GRID12)
    def test_all_converge_at_rho_half(self, name, theta):
        got = series.renyi_entropy(theta, 0.5)
        assert math.isfinite(float(got))
        assert got.converged

    def test_negative_beta_exponent_falls_back(self):
        # b' = rho(beta-1)+1 = -0.2 blocks the beta-function expansion
        theta = Params(2, 0.4, 2, 1, 1)
        got = series.renyi_entropy(theta, 2.0)
        assert got.method == "quadrature"
        ref = oracle.adaptive_quad(
            lambda x: np.power(core.pdf(theta, x), 2.0), 0.0, 1.0, tol=1e-12
        )
        assert float(got) == pytest.approx(math.log(ref.value) / (1.0 - 2.0), abs=1e-8)

    @pytest.mark.parametrize("rho", [1.0, 0.0, -0.5])
    def test_rho_validation(self, rho):
        with pytest.raises(ValueError):
            series.renyi_entropy(UNIFORM, rho)


class TestOverflowingTables:
    # Beta(400, 401) = (1, 1, 400, 400, 1): ln B(gamma, delta + 1) = -557 is
    # in range, but omega_j = C(400, j) / ((400 + j) B) overflows float64,
    # and so does the Renyi series' front factor (1/B)^2.  At
    # (2, 3, 1e4, 9999, 1), ln B = -13,866 and no table exists at all.
    # References: closed forms for Beta(a, b) (mean deviation about the
    # median from mpmath's median and incomplete beta) and the L-moments
    # from probability-weighted moments by 30-digit mpmath quadrature.
    # The tolerance is what quadrature to 1e-11 absolute allows, also on
    # integral f^2 ~ 16 for the entropy.
    BETA400 = Params(1, 1, 400, 400, 1)
    NARROW = Params(2, 3, 1e4, 9999, 1)
    BETA400_REF = {
        "mu1": 400 / 801, "mu2": 400 * 401 / (801 * 802),
        "delta1": 0.014091522599775088241, "delta2": 0.014091522593675759724,
        "renyi2": -2.7707229529635037805,
        "l1": 400 / 801, "l2": 0.0099626563420512199462,
        "l3": 2.86433735313633662e-7, "l4": 0.0012179400112629182003,
    }

    def _check(self, key, got):
        assert float(got) == pytest.approx(self.BETA400_REF[key], rel=1e-12, abs=1e-12), key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moments_take_quadrature_where_omega_overflows(self):
        for key, got in zip(("mu1", "mu2"), series.moments(self.BETA400, [1, 2])):
            assert got.method == "quadrature" and got.converged
            self._check(key, got)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_renyi_takes_quadrature_where_its_front_factor_overflows(self):
        got = series.renyi_entropy(self.BETA400, 2.0)
        assert got.method == "quadrature" and got.converged
        self._check("renyi2", got)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_l_moments_and_mean_deviations_warn_nothing(self):
        for i, got in enumerate(series.l_moments(self.BETA400, 4), 1):
            self._check(f"l{i}", got)
        for key, got in zip(("delta1", "delta2"), series.mean_deviations(self.BETA400)):
            self._check(key, got)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [BETA400, NARROW], ids=["beta400", "narrow"])
    def test_omega_tables_raise_where_they_do_not_fit(self, theta):
        with pytest.raises(ExpansionDomainError):
            series.omega_weights(theta)
        with pytest.raises(ExpansionDomainError):
            series.mixture_coeffs(theta)
        with pytest.raises(ExpansionDomainError):
            series.cdf_expansion(theta, 0.45)


def _beta_law(a, b):
    """Beta(a, b) as a GKw law, with its first two moments."""
    return Params(1, 1, a, b - 1, 1), a / (a + b), a * (a + 1) / ((a + b) * (a + b + 1))


class TestCancellingTables:
    # At Beta(a, b) = (1, 1, a, b - 1, 1) with a and b of 10 or more, omega
    # and v are alternating binomials over B(a, b) (up to 1e7 at Beta(10, 11),
    # 1e17 at Beta(30, 31)) whose finite sums cancel below rounding.  Those
    # sums must give way to quadrature, or be flagged; references are Beta
    # closed forms, and mpmath's 1F1 for the mgf.

    # the finite double sum, the integer-delta and the general-delta sweeps
    @pytest.mark.parametrize("a, b", [(10, 11), (30, 31), (60, 61.5)])
    def test_moments_take_quadrature_where_the_sweep_cancels(self, a, b):
        theta, mu1, mu2 = _beta_law(a, b)
        got = series.moments(theta, [1, 2])
        assert [v.method for v in got] == ["quadrature", "quadrature"]
        assert float(got[0]) == pytest.approx(mu1, rel=1e-12, abs=1e-12)
        assert float(got[1]) == pytest.approx(mu2, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("theta, rho", [(Params(1, 1, 10, 10, 1), 2.0), (BETA25, 3.0)])
    def test_renyi_m_sum_that_cancels_takes_quadrature(self, theta, rho):
        a, b = theta.gamma, theta.delta + 1.0
        ln_int = specfun.ln_beta(rho * (a - 1) + 1, rho * (b - 1) + 1) - rho * specfun.ln_beta(a, b)
        got = series.renyi_entropy(theta, rho)
        assert got.method == "quadrature"
        assert float(got) == pytest.approx(ln_int / (1.0 - rho), rel=1e-12, abs=1e-12)

    def test_mean_deviation_and_mgf_series_that_cancel_take_quadrature(self):
        theta, mu1, _ = _beta_law(20, 21)
        d1, _ = series.mean_deviations(theta)
        assert d1.method == "quadrature"
        assert float(d1) == pytest.approx(0.0619068841794441870759, rel=1e-12)
        got = series.mgf(_beta_law(5, 40)[0], 0.7)
        assert got.method == "quadrature"
        assert float(got) == pytest.approx(1.08145559013562963301, rel=1e-12)

    def test_bare_expansions_flag_cancellation(self):
        theta, _, _ = _beta_law(30, 31)
        for expansion in (series.cdf_expansion, series.pdf_expansion):
            with pytest.warns(SeriesDivergenceWarning, match="cancel"):
                got = expansion(theta, 0.8)
            assert not got.converged


QUAD_REFS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "quad-refs.json").read_text(encoding="utf-8"))


class TestQuadratureOverV:
    # The fallback is a trapezoid rule in s with logit V = mu + sigma sinh s,
    # V ~ Beta(gamma, delta + 1).  References: SciPy quad in logit V at
    # relative tolerance 2e-14 (tests/make_quad_refs.py), frozen in
    # tests/data/quad-refs.json.

    @pytest.mark.parametrize("name", ["bathtub", "decreasing"])
    def test_order_statistics_and_j_match_the_references(self, name):
        ref = QUAD_REFS[name]
        theta = Params(*ref["theta"])
        tables = series._Tables(theta, SeriesControl())
        pairs = [(i, n) for i, n, _ in ref["order_stats"]]
        # the ten means of l_moments, as one vector-valued rule
        for (i, n, want), got in zip(ref["order_stats"],
                                     series._order_stat_quad(tables, pairs, 1.0)):
            assert got.method == "quadrature" and got.converged
            assert float(got) == pytest.approx(want, rel=1e-13, abs=0), (i, n)
            lone = series.order_stat_moment_series(theta, i, n, 1.0)
            assert float(lone) == pytest.approx(want, rel=1e-13, abs=0), (i, n)
        uppers = [upper for upper, _ in ref["j"]]
        for (upper, want), got in zip(ref["j"], series._j_integrals(tables, uppers)):
            assert got.method == "quadrature" and got.converged
            assert float(got) == pytest.approx(want, rel=1e-13, abs=0), upper

    def test_mass_within_a_float_step_of_one(self):
        # Every draw of this law reads 1 - 1.1e-16, and its density in x is
        # 0 at 0.5 and 3.9e-309 at 0.99; the true mean is 1 to 1e-40.
        # Quadrature in x read 5.9e-233 here, flagged converged.
        got = series.moment(Params(46.15, 0.0655, 8.03, 0.0747, 32.41), 1)
        assert got.converged and abs(float(got) - 1.0) <= 1e-12

    def test_large_renyi_integral_settles(self):
        # integral f^3.3 ~ 1e5: quadrature to an absolute tolerance of 1e-11
        # spent its whole budget here and flagged an accurate value
        ref = QUAD_REFS["narrow"]
        ((rho, want),) = ref["renyi"]
        got = series.renyi_entropy(Params(*ref["theta"]), rho)
        assert got.method == "quadrature" and got.converged
        assert float(got) == pytest.approx(want, rel=1e-12)

    # Beta(a, b) = Params(1, 1, a, b - 1, 1): logit V from very wide (a = 0.01,
    # sd 100) to very narrow (a = b = 2e4, sd 0.01), against closed forms
    @pytest.mark.parametrize("a, b", [(0.01, 1.0), (0.01, 3.0), (0.05, 4.0), (0.3, 1.0),
                                      (3.0, 1e3), (1e3, 1.5), (2e4, 2e4)])
    def test_beta_moments_at_extreme_shapes(self, a, b):
        tables = series._Tables(Params(1, 1, a, b - 1.0, 1), SeriesControl())
        mu1, mu2 = series._quad(tables, lambda at: np.vstack([at.log_x, 2.0 * at.log_x]))
        assert mu1.converged and mu2.converged
        assert float(mu1) == pytest.approx(a / (a + b), rel=1e-13, abs=0)
        assert float(mu2) == pytest.approx(a * (a + 1) / ((a + b) * (a + b + 1)), rel=1e-13, abs=0)

    def test_unsettled_rows_are_flagged(self, monkeypatch):
        # 37 nodes at the first level, and no room for a second halving
        monkeypatch.setattr(core, "_EXPECT_MAX_NODES", 60)
        (got,) = series._quad(series._Tables(BATHTUB, SeriesControl()), lambda at: at.log_x)
        assert got.method == "quadrature" and not got.converged
        assert got.terms <= 60
        assert all(not v.converged for v in series.l_moments(BATHTUB, 4))


class TestTruncationMachinery:
    def test_tiny_budget_warns_and_flags(self):
        ctl = SeriesControl(max_terms=8)
        with pytest.warns(SeriesDivergenceWarning):
            got = series.pdf_expansion(SPIKE, 0.9, ctl)
        assert not got.converged
        assert got.terms == 8

    _J = np.arange(1.0, 201.0)
    _NAN_AT_3 = np.where(np.arange(200) == 3, np.nan, _J**-2.0)

    @pytest.mark.parametrize("terms, max_terms, fires, fit", [
        (_J**-6.0, 200, True, True),           # rule fires, power tail fitted
        ((-0.5) ** _J, 200, True, False),      # rule fires, alternating: no fit
        (_J**-2.0, 100, False, True),          # cap reached, tail extrapolated
        (1.0 / _J, 100, False, False),         # cap reached, unconverged
        (_NAN_AT_3, 100, False, True),         # NaN in the stream
    ], ids=["fires-fit", "fires-nofit", "cap-fit", "cap-unconverged", "nan"])
    def test_streamed_sum_matches_array_sum(self, terms, max_terms, fires, fit):
        # the moments' j-sweep streams its terms into the rule a block at a
        # time: the first block whose prefix holds a run of small terms
        # stops the sum, which is then _sum_terms of the terms up to the stop
        ctl = SeriesControl(max_terms=max_terms)
        terms = terms[:max_terms]
        fed = max_terms
        for j1 in range(series._ROW_BLOCK, max_terms + series._ROW_BLOCK, series._ROW_BLOCK):
            _, (stop,) = series._first_runs(terms[None, : min(j1, max_terms)], ctl)
            if stop >= 0:
                fed = int(stop) + 1
                break
        assert (stop >= 0) == fires
        assert (series._power_tail(terms[:fed]) is not None) == fit
        got = series._sum_terms(terms[:fed], ctl)
        # the array sum over the full cap stops at the same index
        want = series._sum_terms(terms, ctl)
        assert got.terms == want.terms == fed
        assert (got.tail_bound, got.method, got.converged) == (
            want.tail_bound, want.method, want.converged)
        assert float(got) == float(want) or (math.isnan(got) and math.isnan(want))
        if np.isnan(terms).any():
            assert not got.converged

    # a stop inside the tenth block, a stop on the last row of the sixth,
    # and no stop before max_terms (the tail is extrapolated)
    @pytest.mark.parametrize("theta, r, stop", [
        (KWKW, 1.0, 293),
        (Params(2.5, 1.6, 3.9, 2.7, 1.9), 2.0, 191),
        (WORKHORSE, 1.0, None),
    ], ids=["inside-block", "block-edge", "no-stop"])
    def test_j_sweep_stops_where_the_array_sum_stops(self, theta, r, stop, monkeypatch):
        ctl = SeriesControl()
        a, b, g, _, l = theta.as_tuple()
        tables = series._Tables(theta, ctl)
        omega = tables.omega
        # the whole j-term array omega_j (psi_j M_j - 1), each M_j summed alone
        count, signed_binom, exact = series._psi_coeffs(r / a, ctl)
        assert not exact
        psis = l * (g + np.arange(omega.size, dtype=float))
        rows = series._beta_rows(psis, b, count)
        m_sums = [series._sum_terms(psi * signed_binom * row, ctl) for psi, row in zip(psis, rows)]
        want = series._sum_terms(omega * (np.array([float(m) for m in m_sums]) - 1.0), ctl)
        bounds = np.abs(omega) * np.array([m.tail_bound for m in m_sums])

        built = _Recorder(series._beta_rows, lambda psis, b, count: len(psis))
        monkeypatch.setattr(series, "_beta_rows", built)
        (got,) = series._moment_sweep(tables, [r])
        assert got.terms == want.terms == (omega.size if stop is None else stop + 1)
        assert float(got) == 1.0 + float(want)
        assert got.tail_bound == want.tail_bound + np.cumsum(bounds)[want.terms - 1]
        assert (got.method, got.converged) == ("series", True)
        # the sweep builds the rows of the stop's block and none past it
        blocks = math.ceil(got.terms / series._ROW_BLOCK)
        assert sum(built.keys) == min(omega.size, blocks * series._ROW_BLOCK)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_partial_sum_is_not_converged(self, sign):
        # once the partial sum is infinite every finite term is small
        # against it; three of them must not read as convergence
        ctl = SeriesControl(max_terms=100)
        terms = self._J[:100] ** -3.0
        terms[1] = sign * math.inf
        got = series._sum_terms(terms, ctl)
        assert float(got) == sign * math.inf
        assert not got.converged and got.terms == 100

    def test_coeff_table_records_theta(self):
        ct = series.mixture_coeffs(KW22)
        assert isinstance(ct, CoeffTable)
        assert ct.theta == KW22
        assert ct.notes == ()


def _ps_pow_reference(a, p, n):
    """The Miller recurrence with its j(p+1) vector built afresh at every
    order: the reference _ps_pow must match bit for bit."""
    a = np.asarray(a, dtype=float)
    if a.size < n:
        a = np.concatenate([a, np.zeros(n - a.size)])
    c = np.zeros(n)
    c[0] = a[0] ** p
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, n):
            j = np.arange(1, s + 1)
            c[s] = np.dot((j * (p + 1.0) - s) * a[1 : s + 1], c[s - 1 :: -1][:s]) / (
                s * a[0]
            )
    return c


def _omega_reference(theta, count):
    """omega_j with the binomial carried along a loop over j: the bits
    the vectorized omega table must reproduce."""
    g, d = theta.gamma, theta.delta
    norm = math.exp(specfun.ln_beta(g, d + 1.0))
    out, binom = [], 1.0
    for j in range(count):
        if j:
            binom *= (d - (j - 1)) / j
        out.append((-1.0) ** j * binom / ((g + j) * norm))
    return np.array(out)


class TestKernelsBitForBit:
    # the vectorized kernels give exactly the bits of their per-row and
    # per-order forms

    @pytest.mark.parametrize("theta, count", [
        (WORKHORSE, 400), (MOUND, 400), (BETA25, 5), (Params(1.2, 0.9, 0.8, 2.5, 1.1), 60),
    ])
    def test_omega_equals_the_running_product(self, theta, count):
        got = series.omega_weights(theta, SeriesControl(max_terms=count))
        assert got.tobytes() == _omega_reference(theta, count).tobytes()

    @pytest.mark.parametrize("g, l, b", [
        (1.5, 2.0, 3.0),        # workhorse's first block of psi_j
        (0.6, 0.9, 0.8),        # bathtub: psi below 1, 1/b columns
        (1e5 - 10.25, 1.0, 2.0),  # psi crosses 1e5 inside the block
    ])
    def test_beta_rows_equal_per_psi_rows(self, g, l, b):
        width = 400
        psis = l * (g + np.arange(series._ROW_BLOCK, dtype=float))
        rows = series._beta_rows(psis, b, width)
        assert rows.shape == (series._ROW_BLOCK, width)
        cols = np.arange(width, dtype=float) / b + 1.0
        for psi, row in zip(psis, rows):
            want = np.exp(series._ln_beta_arr(float(psi), cols))
            assert row.tobytes() == want.tobytes()
        if g > 1e4:
            assert psis.min() < 1e5 <= psis.max()

    def test_ln_beta_arr_grid_equals_per_cell_calls(self):
        # ln Gamma of a column and a row broadcast against ln Gamma(a + b)
        # on the grid; cells on both sides of the hi >= 1e5 rewrite
        a = np.array([0.3, 1.5, 7.0, 99999.5, 1e5, 2.5e5])
        b = np.array([0.2, 1.0, 3.7, 50.0, 1e5 + 3.0])
        grid = series._ln_beta_arr(a[:, None], b[None, :])
        assert grid.shape == (a.size, b.size)
        cells = np.array([[series._ln_beta_arr(x, y) for y in b] for x in a])
        assert grid.tobytes() == cells.tobytes()
        hi = np.maximum(a[:, None], b[None, :])
        assert (hi < 1e5).any() and (hi >= 1e5).any()

    @pytest.mark.parametrize("theta", [WORKHORSE, MOUND, KWKW], ids=["workhorse", "mound", "kwkw"])
    @pytest.mark.parametrize("max_terms", [400, 7])
    def test_psi_block_truncation_equals_per_row_sums(self, theta, max_terms):
        ctl = SeriesControl(max_terms=max_terms)
        a, b, g, _, l = theta.as_tuple()
        psis = l * (g + np.arange(series._ROW_BLOCK, dtype=float))
        checked = 0
        for r in (1.0, 2.0, 3.0, 4.0):
            count, signed_binom, exact = series._psi_coeffs(r / a, ctl)
            if exact:
                continue
            rows = series._beta_rows(psis, b, count)
            terms = psis[:, None] * signed_binom * rows
            partial, stops = series._first_runs(terms, ctl)
            vals, bounds, oks = series._psi_moments(psis, rows, (count, signed_binom, exact), ctl)
            for i, psi in enumerate(psis):
                want = series._sum_terms(float(psi) * signed_binom * rows[i], ctl)
                got = series._row_sum(terms[i], partial[i], int(stops[i]))
                assert _same_value(got, want)
                assert (vals[i], bounds[i], oks[i]) == (float(want), want.tail_bound,
                                                         want.converged)
                checked += 1
        assert checked >= series._ROW_BLOCK

    @pytest.mark.parametrize("p", [3.0, 0.5, -1.5, 2.4])
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_ps_pow_equals_the_per_order_loop(self, p, n):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, 300) / (1.0 + np.arange(300)) ** 2
        a[0] = 1.3
        got = series._ps_pow(a, p, n)
        assert got.tobytes() == _ps_pow_reference(a, p, n).tobytes()


class _Recorder:
    """Wraps a function and records a key of each call's arguments."""

    def __init__(self, fn, key):
        self.fn, self.key, self.keys = fn, key, []

    def __call__(self, *args, **kwargs):
        self.keys.append(self.key(*args))
        return self.fn(*args, **kwargs)


def _same_value(x, y):
    return (float(x) == float(y) and x.tail_bound == y.tail_bound and x.terms == y.terms
            and x.method == y.method and x.converged == y.converged)


def _psi_key(a, b):
    """The psi of every Beta row one _ln_beta_arr call builds."""
    return tuple(np.ravel(a))


def _psis(keys):
    return [psi for key in keys for psi in key]


class TestSharedTables:
    # Within one call, each table a theta's series need is built once;
    # nothing is kept from one call to the next.

    # general delta (infinite j-sum) and integer delta with non-integer psi_j
    @pytest.mark.parametrize("theta", [WORKHORSE, Params(2, 3, 1.5, 2, 1.3)])
    def test_moments_build_each_beta_row_once(self, theta, monkeypatch):
        rows = _Recorder(series._ln_beta_arr, _psi_key)
        monkeypatch.setattr(series, "_ln_beta_arr", rows)
        got = series.moments(theta, [1, 2, 3, 4])
        psis = _psis(rows.keys)
        assert len(psis) == len(set(psis)) > 0
        monkeypatch.undo()
        for r, value in zip([1, 2, 3, 4], got):
            assert _same_value(value, series.moment(theta, r))

    def test_moments_build_rows_a_block_at_a_time(self, monkeypatch):
        rows = _Recorder(series._ln_beta_arr, _psi_key)
        monkeypatch.setattr(series, "_ln_beta_arr", rows)
        got = series.moments(WORKHORSE, [1, 2, 3, 4])
        # each r's j-sum stops after its own terms; the sweep visits the longest
        assert all(v.method == "series" for v in got)
        visited = max(v.terms for v in got)
        assert 0 < len(rows.keys) <= math.ceil(visited / series._ROW_BLOCK)

    def test_central_moments_share_the_sweep(self, monkeypatch):
        rows = _Recorder(series._ln_beta_arr, _psi_key)
        monkeypatch.setattr(series, "_ln_beta_arr", rows)
        series.central_moments_and_cumulants(KWKW, 4)
        psis = _psis(rows.keys)
        assert len(psis) == len(set(psis)) > 0

    def test_l_moments_build_v_table_and_powers_once(self, monkeypatch):
        tables = _Recorder(series._v_coeffs, lambda tables: tables.ctl.max_terms)
        monkeypatch.setattr(series, "_v_coeffs", tables)
        powers = _Recorder(series._ps_pow, lambda a, p, n: p)
        monkeypatch.setattr(series, "_ps_pow", powers)
        series.l_moments(EKW, 4)
        assert len(tables.keys) == 1
        # EKW's v-table takes one power (S/w)^{gamma lambda - 1}; then h^1..h^4
        assert sorted(powers.keys) == [1.0, 1.0, 2.0, 3.0, 4.0]

    def test_l_moments_take_the_cdf_once_per_node_array(self, monkeypatch):
        # bathtub has no v-table: all ten m_{i:n} come from one quadrature,
        # whose rows share F = I_v on each node array
        sizes = []

        def quad(*args, **kwargs):
            out = real_quad(*args, **kwargs)
            sizes.append(len(out))
            return out

        real_quad = series._quad
        monkeypatch.setattr(series, "_quad", quad)
        cdfs = _Recorder(core._inc_beta_at_log_z, lambda lz, a, b: lz.size)
        monkeypatch.setattr(core, "_inc_beta_at_log_z", cdfs)
        nodes = _Recorder(core._log_w_x, lambda theta, lv, l1v=None: lv.size)
        monkeypatch.setattr(core, "_log_w_x", nodes)
        got = series.l_moments(BATHTUB, 4)
        assert all(v.method == "quadrature" and v.converged for v in got)
        assert sizes == [10]
        # each node of each array takes one incomplete beta (on one side of
        # the mean of V or the other) for all ten rows
        assert sum(cdfs.keys) == sum(nodes.keys) > 0
        assert len(nodes.keys) <= len(cdfs.keys) <= 2 * len(nodes.keys)

    # one `gkw props` call with all four verbs runs them on one set of tables
    def _props(self, theta, capsys):
        text = ",".join(f"{v:g}" for v in theta.as_tuple())
        assert cli.main(["props", "--theta", text, "--moments", "4", "--lmoments",
                         "--entropy", "0.5", "--deviations", "--quiet"]) == 0
        return capsys.readouterr().out

    def test_props_builds_each_psi_row_once(self, monkeypatch, capsys):
        rows = _Recorder(series._beta_rows, lambda psis, b, count: tuple(psis))
        monkeypatch.setattr(series, "_beta_rows", rows)
        self._props(WORKHORSE, capsys)
        psis = _psis(rows.keys)
        # the mean deviations take mu_1 from the moments sweep
        assert len(psis) == len(set(psis)) > 0

    def test_props_builds_the_v_table_once(self, monkeypatch, capsys):
        tables = _Recorder(series._v_coeffs, lambda tables: tables.ctl.max_terms)
        monkeypatch.setattr(series, "_v_coeffs", tables)
        out = self._props(EKW, capsys)
        # the L-moments and the mean deviations both sum v-table series
        assert len(tables.keys) == 1
        assert '"delta1_method": "series"' in out and '"l4"' in out

    # Beta(10, 4): the finite double sum cancels below rounding at r = 1, 2
    # but not at r = 3, 4, so two orders take the sweep and two do not
    @pytest.mark.parametrize("theta", [theta for _, theta in GRID12] + [Params(1, 1, 10, 3, 1)],
                             ids=[name for name, _ in GRID12] + ["beta10_4"])
    def test_moments_equal_lone_moment_calls(self, theta):
        rs = [1, 2, 3, 4]
        tables = series._Tables(theta, SeriesControl())
        got = series._moments(tables, rs)
        # the memo keeps every value it computed
        assert sorted(tables.mu) == rs
        for r, value in zip(rs, got):
            lone = series.moment(theta, r)
            assert float(value).hex() == float(lone).hex() and _same_value(value, lone)
            assert tables.mu[r] is value
        pairs = zip(series._mean_deviations(tables), series.mean_deviations(theta))
        assert all(_same_value(x, y) for x, y in pairs)

    def test_props_builds_each_power_of_s_over_w_once(self, monkeypatch, capsys):
        # kwkw's v-table takes A^1 and A^lambda = A^2 of A = S/w; the Renyi
        # series at rho = 2 takes A^{rho (gamma lambda - 1)} = A^2 and A^lambda
        powers = _Recorder(series._ps_pow, lambda a, p, n: (np.asarray(a).tobytes(), p))
        monkeypatch.setattr(series, "_ps_pow", powers)
        assert cli.main(["props", "--theta", "2,2,1,1.5,2", "--lmoments", "--deviations",
                         "--entropy", "2", "--quiet"]) == 0
        assert '"renyi_method": "series"' in capsys.readouterr().out
        assert len(powers.keys) == len(set(powers.keys))
        a = series._Tables(KWKW, SeriesControl()).s_over_w.tobytes()
        assert sorted(p for key, p in powers.keys if key == a) == [1.0, 2.0]

    def test_no_work_is_kept_between_calls(self, monkeypatch):
        cdf = _Recorder(core._inc_beta_at_log_z, lambda lz, a, b: None)
        rows = _Recorder(series._ln_beta_arr, lambda a, b: None)
        monkeypatch.setattr(core, "_inc_beta_at_log_z", cdf)
        monkeypatch.setattr(series, "_ln_beta_arr", rows)
        counts = []
        for _ in range(2):
            first = (len(cdf.keys), len(rows.keys))
            series.l_moments(BATHTUB, 4)
            series.moments(WORKHORSE, [1, 2])
            counts.append((len(cdf.keys) - first[0], len(rows.keys) - first[1]))
        assert counts[0] == counts[1]
        assert min(counts[0]) > 0
