"""Tests for gkw.series, the quadrature over V, and for the paper's
expansions and their truncation rule, which tests/crosscheck.py keeps as
references.

Reference values are either closed forms or 40-digit quadrature results
(frozen constants); everything else is cross-checked against the adaptive
quadrature / Monte Carlo oracles and the paper's expansions at runtime.
"""

import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkw import cli, core, oracle, series, specfun
from gkw.core import Params
from gkw.series import DivergentIntegralError, SeriesValue

import crosscheck
import make_quad_refs
from crosscheck import (
    CoeffTable,
    ExpansionDomainError,
    ExpansionTables,
    SeriesControl,
    SeriesDivergenceWarning,
    cdf_expansion,
    j_series,
    mc_order_stat_mean,
    mgf_series,
    mixture_coeffs,
    omega_weights,
    order_stat_moment_barakat,
    order_stat_series,
    pdf_expansion,
    power_series_power,
    quantile_series_coeffs,
    renyi_series,
)
from gridpoints import (
    BATHTUB,
    BETA25,
    BETA52,
    DECREASING,
    EKW,
    GRID12,
    GRID_BY_NAME,
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

BETA400 = Params(1, 1, 400, 400, 1)


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
        out = power_series_power([1.0, 2.0, 3.0], 2, 5)
        assert out == pytest.approx([1.0, 4.0, 10.0, 12.0, 9.0], abs=1e-13)

    def test_cube_of_binomial(self):
        out = power_series_power([1.0, -1.0], 3, 4)
        assert out == pytest.approx([1.0, -3.0, 3.0, -1.0], abs=1e-13)

    def test_leading_zero_rejected(self):
        with pytest.raises(ValueError, match="leading coefficient"):
            power_series_power([0.0, 1.0], 2, 4)

    @pytest.mark.parametrize("p", [0, -1, 1.5])
    def test_bad_exponent_rejected(self, p):
        with pytest.raises(ValueError):
            power_series_power([1.0, 1.0], p, 4)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            power_series_power([1.0, 1.0], 2, 0)

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
        out = power_series_power(coeffs, p, n)
        ref = np.array([1.0])
        for _ in range(p):
            ref = np.convolve(ref, coeffs)
        ref = np.concatenate([ref, np.zeros(n)])[:n]
        scale = np.max(np.abs(ref)) + 1.0
        assert out == pytest.approx(ref, abs=1e-9 * scale)


class TestOmegaWeights:
    def test_uniform_is_single_unit_weight(self):
        w = omega_weights(UNIFORM)
        assert w.shape == (1,)
        assert w[0] == pytest.approx(1.0, abs=1e-14)

    def test_beta_gamma1_delta1(self):
        # 1/B(1,2) = 2, so omega = [2/(1+0), -2/(1+1)] = [2, -1]
        w = omega_weights(Params(1, 1, 1, 1, 1))
        assert w == pytest.approx([2.0, -1.0], abs=1e-13)

    def test_integer_delta_terminates_and_sums_to_one(self):
        w = omega_weights(BETA25)
        assert w.shape == (5,)  # delta = 4
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_reconstruction_fractional_delta(self):
        # non-integer delta: truncated weights still rebuild the cdf
        theta = Params(1.2, 0.9, 0.8, 2.5, 1.1)
        ctl = SeriesControl(max_terms=800)
        for x in (0.2, 0.5, 0.8):
            got = cdf_expansion(theta, x, ctl)
            assert got.converged
            assert float(got) == pytest.approx(core.cdf(theta, x), abs=1e-8)


class TestMixtureCoeffs:
    def test_kw_is_its_own_single_component(self):
        ct = mixture_coeffs(KW22)
        assert ct.p_valid and ct.v_valid
        assert ct.p == pytest.approx([1.0], abs=1e-13)
        assert ct.v[:4] == pytest.approx([4.0, -4.0, 0.0, 0.0], abs=1e-12)

    def test_uniform_tables(self):
        ct = mixture_coeffs(UNIFORM)
        assert ct.p == pytest.approx([1.0], abs=1e-14)
        assert ct.v[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(ct.v[1:] == 0.0)

    def test_p_table_rebuilds_density(self):
        # components are Kumaraswamy(alpha, (k+1) beta) densities
        ct = mixture_coeffs(BETA52)
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
        ct = mixture_coeffs(WORKHORSE)
        assert not ct.p_valid
        assert ct.p.size == 0
        assert any("integer delta" in note for note in ct.notes)

    @pytest.mark.parametrize("name,theta", GRID12)
    def test_v_validity_pattern(self, name, theta):
        ct = mixture_coeffs(theta)
        assert ct.v_valid == (name in V_VALID)

    def test_v_has_exact_leading_zeros(self):
        # gamma*lambda - 1 leading zeros before the first power term
        ct = mixture_coeffs(EKW)  # gamma*lambda = 2
        assert ct.v[0] == 0.0
        assert ct.v[1] != 0.0

    def test_vstar_sums_to_one_for_polynomial_tables(self):
        # finitely many nonzero v_i: sum v_i/((i+1) alpha) = total mass
        for theta in (UNIFORM, KW22, EKW, BETA52, BETA25):
            ct = mixture_coeffs(theta)
            i = np.arange(len(ct.v), dtype=float)
            vstar = ct.v / ((i + 1.0) * theta.alpha)
            assert math.fsum(vstar) == pytest.approx(1.0, abs=1e-11)


class TestExpansionEvaluators:
    @pytest.mark.parametrize("x", [0.1, 0.35, 0.6, 0.9])
    def test_cdf_expansion_matches_cdf(self, x):
        if x == 0.9:
            # G1(x)^lambda = 0.986: the j-terms shrink by that ratio, too
            # slowly to stop within 400 terms, so the sum is warned about
            # and flagged (a fitted tail read 6.6e-9 off with bound 1.7e-9)
            with pytest.warns(SeriesDivergenceWarning):
                got = cdf_expansion(WORKHORSE, x)
            assert not got.converged
            return
        got = cdf_expansion(WORKHORSE, x)
        assert got.converged
        assert float(got) == pytest.approx(core.cdf(WORKHORSE, x), abs=1e-8)

    def test_cdf_expansion_integer_delta_is_exact(self):
        got = cdf_expansion(BETA52, 0.4)
        assert got.method == "exact"
        assert float(got) == pytest.approx(core.cdf(BETA52, 0.4), abs=1e-13)

    def test_pdf_expansion_inside_radius(self):
        got = pdf_expansion(WORKHORSE, 0.45)
        assert got.converged
        assert float(got) == pytest.approx(core.pdf(WORKHORSE, 0.45), abs=1e-9)

    @pytest.mark.parametrize("x", [0.2, 0.5, 0.8])
    def test_pdf_expansion_polynomial_point(self, x):
        got = pdf_expansion(EKW, x)
        assert float(got) == pytest.approx(core.pdf(EKW, x), rel=1e-11)

    def test_pdf_expansion_flags_divergence(self):
        # the coefficient series for this theta has convergence radius
        # ~0.26 in x^alpha; x = 0.8 sits far outside it
        with pytest.warns(SeriesDivergenceWarning):
            got = pdf_expansion(WORKHORSE, 0.8)
        assert not got.converged

    def test_pdf_expansion_rejects_invalid_theta(self):
        with pytest.raises(ExpansionDomainError):
            pdf_expansion(BATHTUB, 0.5)
        with pytest.raises(ExpansionDomainError):
            pdf_expansion(MOUND, 0.5)

    @pytest.mark.parametrize("x", [0.0, 1.0, -0.2, 1.3])
    def test_domain_validation(self, x):
        with pytest.raises(ValueError):
            cdf_expansion(WORKHORSE, x)
        with pytest.raises(ValueError):
            pdf_expansion(KW22, x)


class TestMoment:
    def test_uniform_all_orders(self):
        for r in range(1, 7):
            got = series.moment(UNIFORM, float(r))
            assert float(got) == pytest.approx(1.0 / (r + 1), abs=1e-14)

    def test_kw22_mean_closed_form(self):
        got = series.moment(KW22, 1.0)
        assert float(got) == pytest.approx(8.0 / 15.0, abs=1e-12)

    def test_beta_means(self):
        got = series.moment(BETA52, 1.0)
        assert float(got) == pytest.approx(5.0 / 7.0, abs=1e-12)
        got = series.moment(Params(1, 1, 2.5, 1, 1), 1.0)
        assert float(got) == pytest.approx(5.0 / 9.0, abs=1e-10)

    def test_negative_order_closed_form(self):
        # E[X^{-3/2}] for Kumaraswamy(2,2): 2 B(1/4, 2) = 6.4
        got = series.moment(KW22, -1.5)
        assert float(got) == pytest.approx(6.4, abs=1e-11)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_workhorse_vs_frozen_quadrature(self, r):
        got = series.moment(WORKHORSE, float(r))
        assert got.converged
        assert float(got) == pytest.approx(WORK_RAW_MOMENTS[r], abs=2e-8)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_kwkw_vs_frozen_quadrature(self, r):
        got = series.moment(KWKW, float(r))
        assert float(got) == pytest.approx(KWKW_RAW_MOMENTS[r], abs=2e-8)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_mound_vs_frozen_quadrature(self, r):
        got = series.moment(MOUND, float(r))
        assert float(got) == pytest.approx(MOUND_RAW_MOMENTS[r], abs=2e-8)

    @pytest.mark.parametrize("name,theta", GRID12)
    def test_monotone_decreasing_in_order(self, name, theta):
        vals = [float(series.moment(theta, float(r))) for r in (1, 2, 3)]
        assert 1.0 >= vals[0] > vals[1] > vals[2] > 0.0

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
        _, kappas = series.central_moments_and_cumulants(WORKHORSE, 4)
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
        got = series.factorial_moment(WORKHORSE, 2)
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
        # the paper's series (tests/crosscheck.py), the quadrature over V,
        # and adaptive quadrature in x
        got = series.mgf(KW22, 1.5)
        assert got.method == "quadrature" and got.converged
        ref = oracle.adaptive_quad(
            lambda x: np.exp(1.5 * x) * core.pdf(KW22, x), 0.0, 1.0, tol=1e-12
        )
        assert float(got) == pytest.approx(ref.value, abs=1e-11)
        assert float(mgf_series(KW22, 1.5)) == pytest.approx(float(got), rel=1e-13)

    # the paper's series, wherever its v-table exists and it converges
    @pytest.mark.parametrize("name", sorted(V_VALID))
    def test_paper_series_matches_the_quadrature(self, name):
        theta = GRID_BY_NAME[name]
        for t in (-5.0, -1.0, 1.5, 5.0):
            ref = mgf_series(theta, t)
            if ref is not None:
                assert _within_bound(ref, float(series.mgf(theta, t))), t

    @pytest.mark.parametrize("t", [2.0, -2.0])
    def test_workhorse_vs_frozen_quadrature(self, t):
        got = series.mgf(WORKHORSE, t)
        assert float(got) == pytest.approx(WORK_MGF[t], abs=1e-9)


class TestQuantileSeriesCoeffs:
    def test_leading_terms(self):
        a = quantile_series_coeffs(Params(1, 1, 2, 1.5, 1), 4)
        assert a[0] == 0.0
        assert a[1] == 1.0
        assert a[2] == pytest.approx(1.5 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("g,d", [(0.5, 0.5), (1.0, 1.0), (2.0, 3.0), (3.5, 0.25)])
    def test_a2_closed_form(self, g, d):
        a = quantile_series_coeffs(Params(1, 1, g, d, 1), 3)
        assert a[2] == pytest.approx(d / (g + 1.0), rel=1e-12)

    def test_delta_zero_collapses_to_identity(self):
        a = quantile_series_coeffs(Params(2, 3, 1.7, 0, 1.2), 8)
        assert a[1] == 1.0
        assert np.all(a[2:] == 0.0)

    def test_truncation_error_shrinks_toward_zero(self):
        # 4-term truncation against the true inverse incomplete beta;
        # the error must fall off rapidly as u -> 0
        from gkw.specfun import inv_reg_inc_beta, ln_beta

        g, d = 2.0, 1.5
        a = quantile_series_coeffs(Params(1, 1, g, d, 1), 5)
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
            quantile_series_coeffs(UNIFORM, bad)


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
        d1, d2 = series.mean_deviations(WORKHORSE)
        assert float(d1) == pytest.approx(WORK_DELTA1, abs=1e-7)
        assert float(d2) == pytest.approx(WORK_DELTA2, abs=1e-7)


class TestBonferroniLorenz:
    def test_uniform_at_half(self):
        b, lo = series.bonferroni_lorenz(UNIFORM, 0.5)
        assert float(b) == pytest.approx(0.5, abs=1e-12)
        assert float(lo) == pytest.approx(0.25, abs=1e-12)

    def test_workhorse_anchor(self):
        b, lo = series.bonferroni_lorenz(WORKHORSE, 0.3)
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

    # J(q) = E[X; X <= q], by the paper's series (tests/crosscheck.py)
    # wherever its v-table exists and it converges, against the quadrature
    @pytest.mark.parametrize("name", sorted(V_VALID))
    def test_paper_j_series_matches_the_quadrature(self, name):
        theta = GRID_BY_NAME[name]
        mu = float(series.moment(theta, 1))
        for p in (0.05, 0.3, 0.5, 0.7, 0.95):
            q = float(core.quantile(theta, p))
            ref = j_series(theta, q)
            if ref is not None:
                _, lorenz = series.bonferroni_lorenz(theta, p)
                assert lorenz.converged and _within_bound(ref, float(lorenz) * mu), p


# (i, n, r) for 1 <= i <= n <= 4 and r in {1, 2}
ORDER_STAT_RANKS = [(i, n, r) for n in range(1, 5) for i in range(1, n + 1) for r in (1, 2)]


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
        # E[X_{1:2}] = 373/420 exactly for this parameter point; the paper's
        # series decays slowly here, even with 2000 terms
        got = order_stat_series(SPIKE, 1, 2, 1.0, GENEROUS)
        assert float(got) == pytest.approx(373.0 / 420.0, abs=2e-6)
        got = series.order_stat_moment_series(SPIKE, 1, 2, 1.0)
        assert float(got) == pytest.approx(373.0 / 420.0, abs=2e-6)

    def test_routes_agree_on_series_point(self):
        # the paper's series and the survival-power route (tests/crosscheck.py)
        a = order_stat_series(EKW, 2, 3, 1.0)
        b = order_stat_moment_barakat(EKW, 2, 3, 1)
        assert a.method == "series" and b.method == "series"
        assert float(a) == pytest.approx(float(b), rel=1e-10)
        assert float(a) == pytest.approx(EKW_ORDER_23, abs=1e-10)
        got = series.order_stat_moment_series(EKW, 2, 3, 1.0)
        assert float(got) == pytest.approx(EKW_ORDER_23, abs=1e-10)

    def test_workhorse_falls_back_but_stays_correct(self):
        # coefficient series has finite radius here: both series routes
        # reroute to the library's quadrature
        a = order_stat_series(WORKHORSE, 2, 3, 1.0)
        b = order_stat_moment_barakat(WORKHORSE, 2, 3, 1)
        assert a.method == "quadrature" and b.method == "quadrature"
        assert float(a) == pytest.approx(WORK_ORDER_23, abs=1e-9)
        assert float(b) == pytest.approx(WORK_ORDER_23, abs=1e-9)

    # E[X_{i:n}^r] takes the quadrature at every grid law, and agrees with
    # the paper's series (tests/crosscheck.py) wherever that converges
    @pytest.mark.parametrize("name,theta", GRID12)
    def test_takes_the_quadrature(self, name, theta):
        for i, n, r in ORDER_STAT_RANKS:
            got = series.order_stat_moment_series(theta, i, n, float(r))
            assert got.method == "quadrature" and got.converged, (i, n, r)
            ref = order_stat_series(theta, i, n, float(r))
            if ref.method == "series":
                assert float(got) == pytest.approx(float(ref), rel=1e-11, abs=0), (i, n, r)

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
        lams = series.l_moments(WORKHORSE, 4)
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
        assert float(got) == pytest.approx(math.log(0.75), abs=1e-12)

    def test_workhorse_series_route(self):
        got = series.renyi_entropy(WORKHORSE, 2.0)
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

    # the paper's expansion (tests/crosscheck.py) at every grid law where
    # it applies: rho delta an integer, b' > 0, no cancelling powers
    @pytest.mark.parametrize("name, rho", [
        *((name, 0.5) for name in ("uniform", "kw22", "decreasing", "beta25", "ekw")),
        *((name, 2.0) for name in ("uniform", "kw22", "workhorse", "beta52", "beta25", "kwkw",
                                   "ekw")),
    ])
    def test_matches_the_paper_series(self, name, rho):
        theta = GRID_BY_NAME[name]
        ref = renyi_series(theta, rho)
        assert ref is not None and ref.converged
        got = series.renyi_entropy(theta, rho)
        assert float(got) == pytest.approx(float(ref), rel=0, abs=1e-10)

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


class TestMirrorImage:
    # Beta(2, 5) and Beta(5, 2) are the laws of X and 1 - X: one Renyi
    # entropy, and L-moments that agree up to the sign of the odd ones
    # (lambda_1 against 1 - lambda_1).  No reference is needed.  The
    # paper's series put Renyi(2) 3.4e-11 and lambda_4 1.7e-13 apart.
    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_renyi(self, rho):
        got, want = series.renyi_entropy(BETA25, rho), series.renyi_entropy(BETA52, rho)
        assert float(got) == pytest.approx(float(want), rel=0, abs=1e-14)

    def test_l_moments(self):
        l25, l52 = series.l_moments(BETA25, 4), series.l_moments(BETA52, 4)
        for got, want in zip(l25, (1.0 - l52[0], l52[1], -l52[2], l52[3])):
            assert float(got) == pytest.approx(float(want), rel=0, abs=1e-14)

    # the mean against 1 - mean, the central moments up to the sign of the
    # odd one, and the mean deviations.  The moments' finite double sum put
    # mu_4 1.0e-13 and the mean 2.2e-14 apart, and mu - 2 J(M) put the
    # mean deviations about the median 1.1e-13 apart.
    def test_moments_and_mean_deviation(self):
        (m25,), (m52,) = series.moments(BETA25, [1]), series.moments(BETA52, [1])
        assert float(m25) == pytest.approx(1.0 - float(m52), rel=0, abs=1e-14)
        c25, _ = series.central_moments_and_cumulants(BETA25, 4)
        c52, _ = series.central_moments_and_cumulants(BETA52, 4)
        for got, want in zip(c25[1:], (c52[1], -c52[2], c52[3])):
            assert got == pytest.approx(want, rel=0, abs=1e-14)
        for d25, d52 in zip(series.mean_deviations(BETA25), series.mean_deviations(BETA52)):
            assert float(d25) == pytest.approx(float(d52), rel=0, abs=1e-14)


class TestOverflowingTables:
    # Beta(400, 401) = (1, 1, 400, 400, 1): ln B(gamma, delta + 1) = -557 is
    # in range, but omega_j = C(400, j) / ((400 + j) B) overflows float64.
    # At (2, 3, 1e4, 9999, 1), ln B = -13,866 and no table exists at all.
    # The moments and mean deviations fall back to quadrature; the Renyi
    # entropy and the L-moments take it at every law.
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

    @pytest.mark.parametrize("theta, pointwise", [(NARROW, True), (WORKHORSE, False)],
                             ids=["narrow", "workhorse"])
    def test_quadrature_cdf_kernel_follows_ln_b(self, theta, pointwise, monkeypatch):
        # the nodes take F by the scalar kernel only where ln B(gamma,
        # delta + 1) is out of float64 range, where the array one stalls
        scalar = _Recorder(specfun.reg_inc_beta, lambda x, a, b: None)
        monkeypatch.setattr(specfun, "reg_inc_beta", scalar)
        array = _Recorder(specfun._reg_inc_beta_arr, lambda x, a, b: x.size)
        monkeypatch.setattr(specfun, "_reg_inc_beta_arr", array)
        got = series.l_moments(theta, 2)
        assert all(v.method == "quadrature" and v.converged for v in got)
        used, unused = (scalar, array) if pointwise else (array, scalar)
        assert len(used.keys) > 0 and unused.keys == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", [BETA400, NARROW], ids=["beta400", "narrow"])
    def test_omega_tables_raise_where_they_do_not_fit(self, theta):
        with pytest.raises(ExpansionDomainError):
            omega_weights(theta)
        with pytest.raises(ExpansionDomainError):
            mixture_coeffs(theta)
        with pytest.raises(ExpansionDomainError):
            cdf_expansion(theta, 0.45)


def _beta_law(a, b):
    """Beta(a, b) as a GKw law, with its first two moments."""
    return Params(1, 1, a, b - 1, 1), a / (a + b), a * (a + 1) / ((a + b) * (a + b + 1))


class TestCancellingTables:
    # At Beta(a, b) = (1, 1, a, b - 1, 1) with a and b of 10 or more, omega
    # and v are alternating binomials over B(a, b) (up to 1e7 at Beta(10, 11),
    # 1e17 at Beta(30, 31)) whose finite sums cancel below rounding.  Those
    # sums must give way to quadrature, or be flagged; references are Beta
    # closed forms, and mpmath's 1F1 for the mgf.

    # the paper's moment sums cancel here (the integer-delta ones at a, b
    # of 10 or more); the moments take the quadrature at every law
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
        for expansion in (cdf_expansion, pdf_expansion):
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

    def test_reference_logit_is_finite_where_x_alpha_is_tiny(self):
        # a sweep shape whose median is about 1e-135, so x^alpha is about
        # 1e-60: log(1 - x^alpha) as log(-expm1(alpha log x)) read 0 there,
        # and the logit of V at the median raised a math domain error
        theta = (0.445, 0.0656, 0.0610, 0.124, 0.0819)
        x = make_quad_refs.median(theta)
        assert 0.0 < x < 1e-100
        assert math.isfinite(make_quad_refs._logit_v_at(theta, x))

    @pytest.mark.parametrize("name", ["bathtub", "decreasing"])
    def test_order_statistics_and_j_match_the_references(self, name):
        ref = QUAD_REFS[name]
        theta = Params(*ref["theta"])
        law = series._Law(theta)
        pairs = [(i, n) for i, n, _ in ref["order_stats"]]
        # the ten means of l_moments, as one vector-valued rule
        for (i, n, want), got in zip(ref["order_stats"],
                                     series._order_stat_quad(law, pairs, 1.0)):
            assert got.method == "quadrature" and got.converged
            assert float(got) == pytest.approx(want, rel=1e-13, abs=0), (i, n)
            lone = series.order_stat_moment_series(theta, i, n, 1.0)
            assert float(lone) == pytest.approx(want, rel=1e-13, abs=0), (i, n)
        for upper, want in ref["j"]:
            got = series._below(law, upper, lambda at: at.log_x)
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
        law = series._Law(Params(1, 1, a, b - 1.0, 1))
        mu1, mu2 = series._quad(law, lambda at: np.vstack([at.log_x, 2.0 * at.log_x]))
        assert mu1.converged and mu2.converged
        assert float(mu1) == pytest.approx(a / (a + b), rel=1e-13, abs=0)
        assert float(mu2) == pytest.approx(a * (a + 1) / ((a + b) * (a + b + 1)), rel=1e-13, abs=0)

    def test_unsettled_rows_are_flagged(self, monkeypatch):
        # 37 nodes at the first level, and no room for a second halving
        monkeypatch.setattr(core, "_EXPECT_MAX_NODES", 60)
        (got,) = series._quad(series._Law(BATHTUB), lambda at: at.log_x)
        assert got.method == "quadrature" and not got.converged
        assert got.terms <= 60
        assert all(not v.converged for v in series.l_moments(BATHTUB, 4))


def _within_bound(value, want):
    """The rule for a value flagged converged: within 10 times its bound,
    1e-10 relative or 1e-13, whichever is largest."""
    return abs(float(value) - want) <= 10 * max(value.tail_bound, 1e-10 * abs(want), 1e-13)


class TestConvergedValuesHoldTheirBounds:
    # Values that a fitted power tail or the paper's moment sums flagged
    # converged outside their bounds; references from
    # tests/data/quad-refs.json.

    # small_alpha: E[X^3] read -520.6 (reference 5.1e-6) with bound 3.3e-7;
    # workhorse: the j-sum hit its cap and mu_3, mu_4 missed their bounds
    @pytest.mark.parametrize("name, orders", [("small_alpha", [1, 2, 3]),
                                              ("workhorse", [3, 4])])
    def test_moments(self, name, orders):
        ref = QUAD_REFS[name]
        want = dict(ref["moments"])
        for r, got in zip(orders, series.moments(Params(*ref["theta"]), orders)):
            assert got.converged and _within_bound(got, want[r]), r

    # delta = 0 laws of the sweep, where the integer-delta j-sum read E[X],
    # E[X^2] and E[X^3] = 1 + 7.8e-13 with bound 3.6e-84 (sweep_a), and
    # E[X^3] 2.0e-12 off with bound 2.6e-15 (sweep_b) and 1.6e-10 off with
    # bound 5.5e-14 (sweep_c)
    @pytest.mark.parametrize("name", ["sweep_a", "sweep_b", "sweep_c"])
    def test_sweep_moments(self, name):
        ref = QUAD_REFS[name]
        orders = [r for r, _ in ref["moments"]]
        for (r, want), got in zip(ref["moments"], series.moments(Params(*ref["theta"]), orders)):
            assert got.converged and abs(float(got) - want) <= 10 * got.tail_bound + 1e-15, r
            assert 0.0 < float(got) <= 1.0, r

    # Beta(10, 4): the finite double sum read the mean 1.9e-12 off 5/7 with
    # bound 4.8e-13
    def test_beta10_4_mean(self):
        got = series.moment(Params(1, 1, 10, 3, 1), 1)
        assert got.converged and abs(float(got) - 5.0 / 7.0) <= 10 * got.tail_bound + 1e-15

    def test_bathtub_renyi(self):
        ref = QUAD_REFS["bathtub"]
        ((rho, want),) = ref["renyi"]
        got = series.renyi_entropy(Params(*ref["theta"]), rho)
        assert got.converged and _within_bound(got, want)

    # the paper's order-statistic expansion (tests/crosscheck.py), whose
    # bound includes the rounding of its q-sums: without it the bound reads
    # 0 at these polynomial-h laws, where EKW m_{3:3} is 2.2e-13 off.  The
    # values that fall back to quadrature (beta25 n >= 3, EKW n = 4), and
    # the library's values, carry the rounding of its sums: without it EKW
    # m_{2:4} and m_{4:4} read bound 0 while 1.4e-15 and 1.0e-15 off.
    @pytest.mark.parametrize("name", ["uniform", "kw22", "beta52", "beta25", "ekw"])
    def test_order_stat_series(self, name):
        ref = QUAD_REFS[name]
        theta = Params(*ref["theta"])
        for i, n, want in ref["order_stats"]:
            for got in (order_stat_series(theta, i, n, 1.0),
                        series.order_stat_moment_series(theta, i, n, 1.0)):
                assert got.converged, (i, n)
                assert abs(float(got) - want) <= 10 * got.tail_bound + 1e-15, (i, n)

    # every finite Renyi entropy of the grid at rho = 0.5 and 2: without the
    # rounding of the quadrature's sums 11 of these 20 read bound 0
    @pytest.mark.parametrize("name", [name for name, _ in GRID12])
    def test_renyi(self, name):
        ref = QUAD_REFS[name]
        theta = Params(*ref["theta"])
        finite = [rho for rho in (0.5, 2.0)
                  if rho * (theta.alpha * theta.gamma * theta.lam - 1.0) > -1.0
                  and rho * (theta.beta * (theta.delta + 1.0) - 1.0) > -1.0]
        assert [rho for rho, _ in ref["renyi"]] == finite
        for rho, want in ref["renyi"]:
            got = series.renyi_entropy(theta, rho)
            assert got.converged and abs(float(got) - want) <= 10 * got.tail_bound + 1e-15, rho

    # delta1 and delta2 of every law, against E[X] - c + 2 E[(c - X)+]
    # (positive integrands).  mu - 2 J(M) put sweep_c's delta2 3.0e-3
    # relative off with bound 1.2e-15.  small_alpha's median underflows to
    # 0, and sweep_a's mean rounds to 1.  narrow's reference lies 4e-14 off
    # the 30-digit mpmath values of tests/test_cli.py, which gkw meets to
    # 2e-15.
    @pytest.mark.parametrize("name", sorted(QUAD_REFS))
    def test_mean_deviations(self, name):
        ref = QUAD_REFS[name]
        got = series.mean_deviations(Params(*ref["theta"]))
        for k, (value, want) in enumerate(zip(got, ref["deviations"])):
            assert value.method == "quadrature" and value.converged, k
            assert _within_bound(value, want), k

    # E[e^{tX}] at Beta(a, b) is 1F1(a; a + b; t) (mpmath at 40 digits);
    # the paper's series read these with bound 0, up to 6.1e-13 off
    @pytest.mark.parametrize("a, b, t, want", [
        (5, 2, 5.0, 46.55648880369626796381), (5, 2, -5.0, 0.04042768199451280257982),
        (2, 5, 5.0, 6.0), (2, 5, -5.0, 0.3136951540228214167619)])
    def test_mgf(self, a, b, t, want):
        got = series.mgf(Params(1, 1, a, b - 1, 1), t)
        assert got.converged and abs(float(got) - want) <= 10 * got.tail_bound + 1e-15 * want

    # near the (1 - x)^(-1/2) singularity m_{1:1}'s series decays slowly
    # and read 3e-7 (increasing_j) and 4e-6 (spike) off the exact mean
    @pytest.mark.parametrize("name", ["increasing_j", "spike"])
    def test_l1_is_the_exact_mean(self, name):
        ref = QUAD_REFS[name]
        theta = Params(*ref["theta"])
        mu = series.moment(theta, 1)
        (l1,) = series.l_moments(theta, 1)
        for got in (mu, l1):
            assert got.converged and _within_bound(got, ref["moments"][0][1])
        assert float(l1) == pytest.approx(float(mu), rel=0, abs=1e-12)


class TestTruncationMachinery:
    def test_tiny_budget_warns_and_flags(self):
        ctl = SeriesControl(max_terms=8)
        with pytest.warns(SeriesDivergenceWarning):
            got = pdf_expansion(SPIKE, 0.9, ctl)
        assert not got.converged
        assert got.terms == 8

    _J = np.arange(1.0, 201.0)
    _NAN_AT_3 = np.where(np.arange(200) == 3, np.nan, _J**-2.0)

    @pytest.mark.parametrize("terms, max_terms, converged", [
        ((-0.5) ** _J, 200, True),             # rule fires, last ratio 0.5
        (0.91 ** np.arange(1.0, 401.0), 400, False),  # rule fires, last ratio 0.91
        (1.0 / _J, 100, False),                # cap reached
        (_NAN_AT_3, 100, False),               # NaN in the stream
    ], ids=["fires-nofit", "fires-slow", "cap-unconverged", "nan"])
    def test_streamed_sum_matches_array_sum(self, terms, max_terms, converged):
        # a sum the rule stops is the sum of its terms up to the stop, and
        # it counts as converged only where the last ratio is below 0.9,
        # which bounds its tail as geometric
        ctl = SeriesControl(max_terms=max_terms)
        terms = terms[:max_terms]
        want = crosscheck._sum_terms(terms, ctl)
        fed = want.terms
        stop = fed - 1
        got = crosscheck._sum_terms(terms[:fed], ctl)
        assert got.converged == want.converged == converged
        if converged:
            assert _same_value(got, want) and got.terms == fed
            ratio = abs(terms[stop] / terms[stop - 1])
            assert got.tail_bound == max(abs(terms[stop]) * ratio / (1.0 - ratio),
                                         abs(terms[stop]))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_partial_sum_is_not_converged(self, sign):
        # once the partial sum is infinite every finite term is small
        # against it; three of them must not read as convergence
        ctl = SeriesControl(max_terms=100)
        terms = self._J[:100] ** -3.0
        terms[1] = sign * math.inf
        got = crosscheck._sum_terms(terms, ctl)
        assert float(got) == sign * math.inf
        assert not got.converged and got.terms == 100

    def test_coeff_table_records_theta(self):
        ct = mixture_coeffs(KW22)
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


class TestShortTables:
    # Beta(400, 401): the paper's v-table (tests/crosscheck.py) has its
    # first gamma lambda - 1 = 399 orders zero, so a budget of at most 399
    # orders gives an all-zero table, and the expansions on it fall back to
    # quadrature or are flagged.  From 201 to 398 the
    # table used to overflow its own slice.
    @pytest.mark.parametrize("max_terms", [200, 256, 300, 398, 399])
    def test_mean_deviations_take_quadrature(self, max_terms):
        # the mean deviations read no expansion table, so a short one
        # changes nothing: the values on a fresh _Law are those of a lone call
        assert not ExpansionTables(BETA400, SeriesControl(max_terms=max_terms)).v.any()
        got = series._mean_deviations(series._Law(BETA400))
        want = series.mean_deviations(BETA400)
        assert all(v.method == "quadrature" and v.converged for v in got)
        assert all(_same_value(x, y) for x, y in zip(got, want))

    @pytest.mark.parametrize("max_terms", [200, 256, 300, 398, 399])
    def test_pdf_expansion_is_flagged(self, max_terms):
        with pytest.warns(SeriesDivergenceWarning):
            got = pdf_expansion(BETA400, 0.5, SeriesControl(max_terms=max_terms))
        assert not got.converged and float(got) == 0.0

    @pytest.mark.parametrize("max_terms", [256, 399])
    def test_order_stat_moment_takes_quadrature(self, max_terms):
        got = order_stat_series(BETA400, 2, 3, 1.0, SeriesControl(max_terms=max_terms))
        assert got.method == "quadrature" and got.converged
        assert _same_value(got, series.order_stat_moment_series(BETA400, 2, 3, 1.0))


class TestKernelsBitForBit:
    # the vectorized kernels give exactly the bits of their per-row and
    # per-order forms

    @pytest.mark.parametrize("theta, count", [
        (WORKHORSE, 400), (MOUND, 400), (BETA25, 5), (Params(1.2, 0.9, 0.8, 2.5, 1.1), 60),
    ])
    def test_omega_equals_the_running_product(self, theta, count):
        got = omega_weights(theta, SeriesControl(max_terms=count))
        assert got.tobytes() == _omega_reference(theta, count).tobytes()

    # every order of the v-table reads only the orders below it, so the
    # table of a shorter budget is a prefix of the full one: Beta(400,
    # 401) has gamma lambda - 1 = 399 leading zeros, which a table of 256
    # orders used to overflow, and (1, 1, 0.1, 1, 10) shifts S^lambda by 10
    # orders, more than a table of 7 holds
    _V_LAWS = [(name, theta) for name, theta in GRID12 if name in V_VALID] + [
        ("beta400", BETA400), ("beta10_4", Params(1, 1, 10, 3, 1)),
        ("lambda10", Params(1, 1, 0.1, 1, 10))]

    @pytest.mark.parametrize("theta", [theta for _, theta in _V_LAWS],
                             ids=[name for name, _ in _V_LAWS])
    def test_v_prefix_is_the_first_orders_of_the_table(self, theta):
        full = ExpansionTables(theta, SeriesControl()).v
        for n in (7, 256):
            short = ExpansionTables(theta, SeriesControl(max_terms=n)).v
            assert short.tobytes() == full[:n].tobytes()

    @pytest.mark.parametrize("p", [3.0, 0.5, -1.5, 2.4])
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_ps_pow_equals_the_per_order_loop(self, p, n):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1.0, 1.0, 300) / (1.0 + np.arange(300)) ** 2
        a[0] = 1.3
        got = crosscheck._ps_pow(a, p, n)
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


def _node_arrays(monkeypatch):
    """The logs of V of every node array whose _AtV is built from now on."""
    arrays = []

    class AtV(core._AtV):
        def __init__(self, theta, lv, *rest):
            arrays.append(lv.tobytes())
            super().__init__(theta, lv, *rest)

    monkeypatch.setattr(core, "_AtV", AtV)
    return arrays


class TestSharedTables:
    # Within one call, each node array a theta's quadratures reach is
    # evaluated once; nothing is kept from one call to the next.

    def test_l_moments_take_one_quadrature(self, monkeypatch):
        quads = _Recorder(series._quad, lambda *args: None)
        monkeypatch.setattr(series, "_quad", quads)
        got = series.l_moments(EKW, 4)
        assert len(quads.keys) == 1
        assert all(v.method == "quadrature" and v.converged for v in got)

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
        nodes = _Recorder(core._log_w_x, lambda theta, lv, log_neg_lv: lv.size)
        monkeypatch.setattr(core, "_log_w_x", nodes)
        got = series.l_moments(BATHTUB, 4)
        assert all(v.method == "quadrature" and v.converged for v in got)
        assert sizes == [10]
        # each node of each array takes one incomplete beta (on one side of
        # the mean of V or the other) for all ten rows
        assert sum(cdfs.keys) == sum(nodes.keys) > 0
        assert len(nodes.keys) <= len(cdfs.keys) <= 2 * len(nodes.keys)

    # one `gkw props` call with all four verbs runs them on one _Law
    def _props(self, theta, capsys):
        text = ",".join(f"{v:g}" for v in theta.as_tuple())
        assert cli.main(["props", "--theta", text, "--moments", "4", "--lmoments",
                         "--entropy", "0.5", "--deviations", "--quiet"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("theta", [EKW, BATHTUB, WORKHORSE, SPIKE],
                             ids=["ekw", "bathtub", "workhorse", "spike"])
    def test_props_evaluates_each_node_array_once(self, theta, monkeypatch, capsys):
        arrays = _node_arrays(monkeypatch)
        self._props(theta, capsys)
        assert len(arrays) == len(set(arrays)) > 0

    # the orders' rules share the node memo of one _Law
    @pytest.mark.parametrize("theta", [BETA25, BATHTUB, WORKHORSE],
                             ids=["beta25", "bathtub", "workhorse"])
    def test_central_moments_evaluate_each_node_array_once(self, theta, monkeypatch):
        arrays = _node_arrays(monkeypatch)
        series.central_moments_and_cumulants(theta, 6)
        assert len(arrays) == len(set(arrays)) > 0

    # every verb of props takes the quadrature
    def test_props_builds_no_expansion_table(self, capsys):
        out = self._props(EKW, capsys)
        assert '"delta1_method": "quadrature"' in out and '"l4"' in out

    @pytest.mark.parametrize("theta", [theta for _, theta in GRID12] + [Params(1, 1, 10, 3, 1)],
                             ids=[name for name, _ in GRID12] + ["beta10_4"])
    def test_moments_equal_lone_moment_calls(self, theta):
        rs = [1, 2, 3, 4]
        law = series._Law(theta)
        got = series._moments(law, rs)
        # the memo keeps every value it computed
        assert sorted(law.mu) == rs
        for r, value in zip(rs, got):
            lone = series.moment(theta, r)
            assert float(value).hex() == float(lone).hex() and _same_value(value, lone)
            assert law.mu[r] is value
        # the verbs after the moments reuse their node arrays, and give the
        # lone calls' bits
        pairs = [*zip(series._l_moments(law, 4), series.l_moments(theta, 4)),
                 (series._renyi_entropy(law, 0.5), series.renyi_entropy(theta, 0.5)),
                 *zip(series._mean_deviations(law), series.mean_deviations(theta))]
        assert all(_same_value(x, y) for x, y in pairs)

    def test_no_work_is_kept_between_calls(self, monkeypatch):
        cdf = _Recorder(core._inc_beta_at_log_z, lambda lz, a, b: None)
        monkeypatch.setattr(core, "_inc_beta_at_log_z", cdf)
        arrays = _node_arrays(monkeypatch)
        counts = []
        for _ in range(2):
            first = (len(cdf.keys), len(arrays))
            series.l_moments(BATHTUB, 4)
            series.moments(BETA25, [1, 2])
            counts.append((len(cdf.keys) - first[0], len(arrays) - first[1]))
        assert counts[0] == counts[1]
        assert min(counts[0]) > 0
