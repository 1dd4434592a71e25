"""Series expansions for the generalized Kumaraswamy family.

The cdf admits the weighted expansion

    F(x) = sum_j omega_j * G1(x)^{lambda (gamma + j)},

with G1 the two-parameter Kumaraswamy cdf, and the density correspondingly
unfolds into a mixture of Kumaraswamy densities (coefficients p_k) or a
power series sum_i v_i x^{(i+1) alpha - 1}.  This module builds those
coefficient tables and everything derived from them: ordinary, central,
factorial moments and cumulants, the moment generating function, quantile
series coefficients, mean deviations, Bonferroni and Lorenz curves,
order-statistic moments by two independent routes, L-moments, and Renyi
entropy.

Truncation policy, implemented once in _sum_terms (_TermSum streams
terms into it): infinite sums stop at the first index where |term| <
tail_tol * |partial sum| holds for 3 consecutive terms.  When max_terms is
exhausted first, an algebraic tail extrapolation is attempted (the sums
here decay like j^{-s}).  Failing that, operations with an integral
representation switch to adaptive quadrature, all through _quad, and tag
the result (method="quadrature") -- the coefficient expansions have finite
convergence radii for some parameter points, so this is a routine,
documented event, not a warning.  Only the bare expansion evaluators
(cdf_expansion / pdf_expansion), which have nothing to fall back on, emit
a SeriesDivergenceWarning and flag the value as unconverged.  Several
parameter combinations admit fully finite ("exact") evaluations and are
detected up front.

Every sum-valued operation returns a SeriesValue: a float carrying the
achieved tail bound, the number of terms used, the evaluation method
("exact" | "series" | "quadrature"), and a convergence flag.

Work is shared within one call, never across calls.  moments() sweeps j
once for all its orders, building each omega_j once and the Beta rows a
block of j at a time, one vectorized call per block;
l_moments() builds the v-table and each power h^q once for its ten
order-statistic moments, and where those fall back to quadrature they
evaluate (F, f) once per panel.  These tables are dropped when the call
returns, so a repeated call repeats the work and no memory is held.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import core, oracle, specfun
from .core import Params
from .specfun import _ln_beta_arr, ln_beta

__all__ = [
    "SeriesControl",
    "SeriesValue",
    "CoeffTable",
    "SeriesDivergenceWarning",
    "DivergentIntegralError",
    "ExpansionDomainError",
    "omega_weights",
    "mixture_coeffs",
    "cdf_expansion",
    "pdf_expansion",
    "moment",
    "moments",
    "central_moments_and_cumulants",
    "factorial_moment",
    "mgf",
    "quantile_series_coeffs",
    "mean_deviations",
    "bonferroni_lorenz",
    "power_series_power",
    "order_stat_moment_series",
    "order_stat_moment_barakat",
    "l_moments",
    "renyi_entropy",
]


class SeriesDivergenceWarning(RuntimeWarning):
    """A truncated sum hit max_terms without meeting the tail criterion."""


class DivergentIntegralError(ValueError):
    """The requested integral does not exist (endpoint non-integrable)."""


class ExpansionDomainError(ValueError):
    """The requested expansion does not exist for this parameter pattern."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for infinite sums.

    Truncation occurs at the first index where |term| < tail_tol *
    |partial sum| for 3 consecutive terms, or at max_terms.
    """

    max_terms: int = 400
    tail_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (isinstance(self.max_terms, int) and self.max_terms >= 1):
            raise ValueError(f"max_terms must be a positive integer, got {self.max_terms!r}")
        if not (self.tail_tol > 0 and math.isfinite(self.tail_tol)):
            raise ValueError(f"tail_tol must be a positive real, got {self.tail_tol!r}")


_DEFAULT_CTL = SeriesControl()


class SeriesValue(float):
    """A float annotated with how it was obtained.

    Attributes: tail_bound (estimated truncation error), terms (number of
    terms consumed), method ("exact", "series" or "quadrature"), converged.
    Arithmetic degrades to plain float.
    """

    tail_bound: float
    terms: int
    method: str
    converged: bool

    def __new__(cls, value, tail_bound=0.0, terms=0, method="series", converged=True):
        self = super().__new__(cls, value)
        self.tail_bound = float(tail_bound)
        self.terms = int(terms)
        self.method = method
        self.converged = bool(converged)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SeriesValue({float(self)!r}, tail_bound={self.tail_bound:.3g}, "
            f"terms={self.terms}, method={self.method!r}, converged={self.converged})"
        )


@dataclass(frozen=True)
class CoeffTable:
    """Expansion coefficients for one parameter point.

    omega: cdf expansion weights; p: Kumaraswamy-mixture coefficients for
    the density; v: power-series density coefficients.  The p table exists
    only for integer delta (the defining j-sum diverges otherwise), and
    the v table only when gamma*lambda is a positive integer and either
    delta = 0 or lambda is a positive integer; the validity flags and
    notes record this.
    """

    omega: np.ndarray
    p: np.ndarray
    v: np.ndarray
    theta: Params
    p_valid: bool
    v_valid: bool
    notes: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# Small numeric helpers
# ----------------------------------------------------------------------


def _is_nonneg_int(x: float) -> bool:
    return x >= -1e-12 and abs(x - round(x)) < 1e-12


def _is_pos_int(x: float) -> bool:
    return x >= 0.5 and abs(x - round(x)) < 1e-12


def _binom_seq(p: float, count: int) -> np.ndarray:
    """Generalized binomial coefficients C(p, m) for m = 0..count-1."""
    if count <= 0:
        return np.empty(0)
    m = np.arange(1, count, dtype=float)
    out = np.empty(count)
    out[0] = 1.0
    if count > 1:
        out[1:] = np.cumprod((p - m + 1.0) / m)
    return out


def _signed_binom(p: float, count: int) -> np.ndarray:
    """(-1)^m C(p, m) for m = 0..count-1 (a sign flip is exact)."""
    out = _binom_seq(p, count)
    out[1::2] *= -1.0
    return out


def _ps_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """First n coefficients of the product of two power series."""
    return np.convolve(a[:n], b[:n])[:n]


def _ps_pow(a: np.ndarray, p: float, n: int) -> np.ndarray:
    """First n coefficients of (sum a_j x^j)^p for real p; needs a[0] != 0.

    J.C.P. Miller recurrence: c_0 = a_0^p and
        c_s = (s a_0)^{-1} sum_{j=1..s} (j(p+1) - s) a_j c_{s-j}.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or a[0] == 0.0:
        raise ValueError("power of a series requires a nonzero leading coefficient")
    if a.size < n:
        a = np.concatenate([a, np.zeros(n - a.size)])
    c = np.zeros(n)
    c[0] = a[0] ** p
    # series with growing coefficients can overflow in high orders; the
    # resulting non-finite entries are caught by callers' convergence checks
    jp = np.arange(1, n) * (p + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(1, n):
            c[s] = np.dot((jp[:s] - s) * a[1 : s + 1], c[s - 1 :: -1][:s]) / (
                s * a[0]
            )
    return c


def power_series_power(a, p: int, n: int) -> np.ndarray:
    """First n coefficients of (sum a_j x^j)^p for a positive integer p.

    The leading coefficient must be nonzero; leading zeros are the
    caller's responsibility to factor out (the shifted exponent bookkeeping
    depends on context).  The underlying recurrence divides by a_0, so a
    leading coefficient much smaller than its neighbours amplifies
    rounding error in the high-order output terms.
    """
    if not (isinstance(p, (int, np.integer)) and p >= 1):
        raise ValueError(f"p must be a positive integer, got {p!r}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    a = np.asarray(a, dtype=float)
    if a.size == 0 or a[0] == 0.0:
        raise ValueError("leading coefficient must be nonzero; factor out powers of x first")
    return _ps_pow(a, float(p), int(n))


# ----------------------------------------------------------------------
# Truncated summation with the 3-consecutive-small-terms rule
# ----------------------------------------------------------------------


def _power_tail(terms: np.ndarray) -> tuple[float, float] | None:
    """Estimate the tail of an algebraically decaying series.

    Fits |t_j| ~ C j^{-s} on the trailing window and integrates the fit
    past the last summed term.  Returns (tail, residual_bound) or None
    when the window is too short, not one-signed, not decreasing, or the
    fitted decay is too slow to sum.
    """
    n = len(terms)
    if n < 16:
        return None
    w = min(32, n // 4)
    window = terms[-(w + 1) :]
    t_end = window[-1]
    if t_end == 0.0 or np.any(np.sign(window) != np.sign(t_end)):
        return None
    mags = np.abs(window)
    if np.any(np.diff(mags) >= 0.0):
        return None

    def est(width: int) -> float | None:
        j_end, j_ref = float(n), float(n - width)
        s = math.log(abs(window[-(width + 1)] / t_end)) / math.log(j_end / j_ref)
        if s <= 1.05:
            return None
        return t_end * j_end**s * (j_end + 0.5) ** (1.0 - s) / (s - 1.0)

    tail = est(w)
    tail_half = est(w // 2)
    if tail is None or tail_half is None:
        return None
    bound = 2.0 * abs(tail - tail_half) + 1e-3 * abs(t_end)
    return tail, bound


def _sum_terms(terms: np.ndarray, ctl: SeriesControl, *,
               warn_label: str | None = None, complete: bool = False) -> SeriesValue:
    """Sum a precomputed term array under the truncation rule.

    With complete=True the array is the entire (finite) sum and is added
    up directly.  Otherwise it is the first len(terms) terms of an
    infinite series: if the rule never fires, a tail extrapolation is
    attempted before declaring failure.  A warn_label is only passed by
    callers with no quadrature fallback; everyone else inspects the
    converged flag and reroutes silently (the method tag records it).
    """
    terms = np.asarray(terms, dtype=float)
    if terms.size == 0:
        return SeriesValue(0.0, 0.0, 0, "exact", True)
    if complete:
        return SeriesValue(math.fsum(terms), 0.0, terms.size, "exact", True)
    partial = np.cumsum(terms)
    scale = ctl.tail_tol * np.maximum(np.abs(partial), 1e-300)
    # a zero partial sum means the series has not started (leading zeros),
    # and an infinite one that it has diverged: neither has converged
    small = (np.abs(terms) < scale) & (partial != 0.0) & np.isfinite(partial)
    if terms.size >= 3:
        hit = small[2:] & small[1:-1] & small[:-2]
        idx = np.flatnonzero(hit)
        if idx.size:
            k = idx[0] + 2
            # an algebraic tail can still hold ~tol * k/(s-1) of mass past
            # the stopping index; add the fitted tail when one exists
            fit = _power_tail(terms[: k + 1])
            if fit is not None:
                tail, bound = fit
                return SeriesValue(partial[k] + tail, bound, k + 1, "series", True)
            t_last = abs(terms[k])
            prev = abs(terms[k - 1])
            ratio = t_last / prev if prev > 0 else 0.0
            bound = t_last * (ratio / (1 - ratio) if ratio < 0.9 else 10.0)
            return SeriesValue(partial[k], max(bound, t_last), k + 1, "series", True)
    if np.all(np.isfinite(partial)):
        fit = _power_tail(terms)
        if fit is not None:
            tail, bound = fit
            return SeriesValue(partial[-1] + tail, bound, terms.size, "series", True)
    if warn_label:
        warnings.warn(
            f"{warn_label}: truncation criterion not met after {terms.size} terms",
            SeriesDivergenceWarning,
            stacklevel=3,
        )
    return SeriesValue(partial[-1], abs(terms[-1]) * terms.size, terms.size, "series", False)


class _TermSum:
    """_sum_terms for expensive terms that arrive one at a time, so that
    several sums can share one sweep over j.

    add() takes the next term and returns True once the rule has fired;
    the caller then stops feeding this sum.  The running total is the
    same sequence of additions as _sum_terms' cumsum, so value() -- which
    is _sum_terms on the terms fed -- stops at the same index.
    """

    def __init__(self, ctl: SeriesControl):
        self.ctl = ctl
        self.terms: list[float] = []
        self.total = 0.0
        self.small_run = 0

    def add(self, t: float) -> bool:
        t = float(t)
        self.terms.append(t)
        self.total += t
        total = self.total
        if (abs(t) < self.ctl.tail_tol * max(abs(total), 1e-300) and total != 0.0
                and math.isfinite(total)):
            self.small_run += 1
        else:
            self.small_run = 0
        return self.small_run >= 3

    def value(self) -> SeriesValue:
        return _sum_terms(self.terms, self.ctl)


def _quad(f, hi: float = 1.0) -> SeriesValue:
    """The one quadrature fallback: integral_0^hi f, tagged "quadrature"."""
    quad = oracle.adaptive_quad(f, 0.0, hi, tol=1e-11)
    return SeriesValue(quad.value, quad.err_estimate, quad.subdivisions,
                       "quadrature", quad.reliable)


# ----------------------------------------------------------------------
# Coefficient tables
# ----------------------------------------------------------------------


def omega_weights(theta: Params, ctl: SeriesControl | None = None) -> np.ndarray:
    """cdf-expansion weights omega_j.

    omega_j = (-1)^j C(delta, j) / [(gamma + j) B(gamma, delta + 1)], the
    generalized binomial carrying the 1/j! of the descending factorial.
    For integer delta the sequence terminates after delta + 1 entries and
    sums to exactly 1; otherwise it is truncated at max_terms.
    """
    ctl = ctl or _DEFAULT_CTL
    g, d = theta.gamma, theta.delta
    count = int(round(d)) + 1 if _is_nonneg_int(d) else ctl.max_terms
    j = np.arange(count, dtype=float)
    return _signed_binom(d, count) / ((g + j) * math.exp(ln_beta(g, d + 1.0)))


def _v_validity(theta: Params) -> bool:
    return _is_pos_int(theta.gamma * theta.lam) and (
        theta.delta == 0.0 or _is_pos_int(theta.lam)
    )


def _v_coeffs(theta: Params, n: int) -> np.ndarray:
    """Power-series density coefficients v_i (validity assumed checked).

    f(x) = sum_i v_i x^{(i+1) alpha - 1}.  Writing w = x^alpha and
    S(w) = 1 - (1-w)^beta, the density is (lambda alpha beta / B) *
    x^{alpha-1} T(w) with T = (1-w)^{beta-1} S^{gamma lambda - 1}
    (1 - S^lambda)^delta, so v_i is a plain Taylor coefficient of T.
    S^m factors as w^m (S/w)^m with S/w analytic and nonzero at 0, which
    is what makes the construction a finite-coefficient recurrence.
    """
    a, b, g, d, l = theta.as_tuple()
    m = int(round(g * l)) - 1
    # A(w) = S(w)/w: A_k = (-1)^k C(beta, k+1), A_0 = beta
    A = -_signed_binom(b, n + 1)[1:]
    # (1-w)^{beta-1}
    q = _signed_binom(b - 1.0, n)
    T = _ps_mul(q, _ps_pow(A, float(m), n), n) if m > 0 else q.copy()
    if d != 0.0:
        L = int(round(l))
        SL = np.zeros(n)
        AL = _ps_pow(A, float(L), n)
        SL[L:] = AL[: n - L]
        U = -SL
        U[0] += 1.0
        T = _ps_mul(T, _ps_pow(U, d, n), n)
    v = np.zeros(n)
    v[m:] = T[: n - m]
    return l * a * b * math.exp(-ln_beta(g, d + 1.0)) * v


def mixture_coeffs(theta: Params, ctl: SeriesControl | None = None) -> CoeffTable:
    """Build the omega / p / v coefficient tables for theta.

    p_k = sum_j omega_j psi_j (-1)^k C(psi_j - 1, k) / (k+1) with
    psi_j = lambda (gamma + j); the j-sum only converges when delta is a
    nonnegative integer (finite), so p is flagged invalid otherwise.
    v is flagged invalid unless gamma*lambda is a positive integer and
    (delta = 0 or lambda is a positive integer); outside that set the
    density has a branch point at x = 0 in the x^alpha variable and no
    power series of the stated form exists.
    """
    ctl = ctl or _DEFAULT_CTL
    a, b, g, d, l = theta.as_tuple()
    omega = omega_weights(theta, ctl)
    notes: list[str] = []

    p_valid = _is_nonneg_int(d)
    p = np.empty(0)
    if p_valid:
        psis = l * (g + np.arange(len(omega), dtype=float))
        if all(_is_pos_int(ps) for ps in psis):
            K = int(round(max(psis)))
        else:
            K = ctl.max_terms
        ks = np.arange(K, dtype=float)
        p = np.zeros(K)
        for om, psi in zip(omega, psis):
            p += om * psi * _signed_binom(psi - 1.0, K) / (ks + 1.0)
        if not np.all(np.isfinite(p)):
            p_valid = False
            p = np.empty(0)
            notes.append("p-table overflowed (exponents too large to represent)")
    else:
        notes.append("p-table requires integer delta; its defining j-sum diverges otherwise")

    v_valid = _v_validity(theta)
    if v_valid:
        v = _v_coeffs(theta, ctl.max_terms)
    else:
        v = np.empty(0)
        notes.append(
            "v-table requires gamma*lambda a positive integer and "
            "(delta = 0 or integer lambda)"
        )
    return CoeffTable(omega=omega, p=p, v=v, theta=theta,
                      p_valid=p_valid, v_valid=v_valid, notes=tuple(notes))


def cdf_expansion(theta: Params, x: float, ctl: SeriesControl | None = None) -> SeriesValue:
    """Evaluate the weighted cdf expansion sum_j omega_j G1(x)^{psi_j}.

    Converges for every x in (0,1) (the Kumaraswamy cdf G1 < 1 supplies a
    geometric factor); this is the series counterpart of core.cdf.
    """
    ctl = ctl or _DEFAULT_CTL
    if not (0.0 < x < 1.0):
        raise ValueError("cdf_expansion requires x strictly inside (0, 1)")
    a, b, g, d, l = theta.as_tuple()
    lg1 = math.log(-math.expm1(b * math.log1p(-(x**a))))  # log G1(x)
    int_d = _is_nonneg_int(d)
    count = int(round(d)) + 1 if int_d else ctl.max_terms
    omega = omega_weights(theta, ctl)
    j = np.arange(count, dtype=float)
    terms = omega * np.exp(l * (g + j) * lg1)
    return _sum_terms(terms, ctl, warn_label="cdf_expansion", complete=int_d)


def pdf_expansion(theta: Params, x: float, ctl: SeriesControl | None = None) -> SeriesValue:
    """Evaluate the density power series sum_i v_i x^{(i+1) alpha - 1}.

    Raises ExpansionDomainError when the v-table does not exist for theta
    (flagged, never silently wrong).
    """
    ctl = ctl or _DEFAULT_CTL
    if not (0.0 < x < 1.0):
        raise ValueError("pdf_expansion requires x strictly inside (0, 1)")
    if not _v_validity(theta):
        raise ExpansionDomainError(
            "density power series requires gamma*lambda a positive integer "
            "and (delta = 0 or integer lambda); "
            f"got gamma*lambda={theta.gamma * theta.lam:g}, "
            f"delta={theta.delta:g}, lambda={theta.lam:g}"
        )
    v = _v_coeffs(theta, ctl.max_terms)
    i = np.arange(len(v), dtype=float)
    terms = v * np.power(x, (i + 1.0) * theta.alpha - 1.0)
    return _sum_terms(terms, ctl, warn_label="pdf_expansion")


# ----------------------------------------------------------------------
# Ordinary moments
# ----------------------------------------------------------------------


def _omegas(theta: Params):
    """omega_j for j = 0, 1, 2, ..., the binomial carried along the sweep.

    Step j multiplies in the factor (delta - (j-1))/j: the same products,
    in the same order, as building C(delta, j) from scratch.
    """
    g, d = theta.gamma, theta.delta
    norm = math.exp(ln_beta(g, d + 1.0))
    binom = 1.0
    for j in itertools.count():
        if j:
            binom *= (d - (j - 1)) / j
        yield (-1.0) ** j * binom / ((g + j) * norm)


# Rows per _ln_beta_arr call in the j-sweep: a call costs about the same
# for 1 row as for 32, and a sweep that stops early wastes at most 31.
_ROW_BLOCK = 32


def _beta_rows(psis: np.ndarray, b: float, count: int) -> np.ndarray:
    """B(psi, m/b + 1) for each psi (rows) and m = 0..count-1 (columns):
    the r-independent factor of M(r) for a block of psi in one call."""
    cols = np.arange(count, dtype=float) / b + 1.0
    return np.exp(_ln_beta_arr(psis[:, None], cols[None, :]))


def _psi_coeffs(rr: float, ctl: SeriesControl) -> tuple[int, np.ndarray, bool]:
    """The psi-independent factors of M(r): (count, (-1)^m C(rr, m), exact).

    The m-sum terminates exactly when rr = r/alpha is a nonnegative
    integer and is truncated at max_terms otherwise.
    """
    exact = _is_nonneg_int(rr)
    count = int(round(rr)) + 1 if exact else ctl.max_terms
    return count, _signed_binom(rr, count), exact


def _psi_moment(psi: float, row: np.ndarray, coeffs,
                ctl: SeriesControl) -> tuple[float, float, bool]:
    """psi * M(r) = psi * sum_m (-1)^m C(rr, m) B(psi, m/b + 1).

    This equals E[x(Y)^r] for Y ~ Beta(psi, 1), hence tends to 1 as psi
    grows.  row is psi's row of :func:`_beta_rows`, at least count long, and
    coeffs is :func:`_psi_coeffs` for rr.  Returns (value, tail_bound,
    converged).
    """
    count, signed_binom, exact = coeffs
    if exact:
        terms = signed_binom * row[:count]
        return psi * float(terms.sum()), 0.0, True
    sv = _sum_terms(psi * signed_binom * row[:count], ctl)
    return float(sv), sv.tail_bound, sv.converged


def _moment_finite(b: float, rr: float, omegas, psis) -> SeriesValue:
    """The fully finite double sum over j and k (integer delta and psi_j)."""
    total = 0.0
    n_terms = 0
    for om, psi in zip(omegas, psis):
        K = int(round(psi))
        k = np.arange(K, dtype=float)
        tau = _signed_binom(psi - 1.0, K) * b * np.exp(
            _ln_beta_arr(1.0 + rr, (k + 1.0) * b)
        )
        total += om * psi * float(tau.sum())
        n_terms += K
    return SeriesValue(total, 0.0, n_terms, "exact", True)


def moment(theta: Params, r: float, ctl: SeriesControl | None = None) -> SeriesValue:
    """The r-th ordinary moment E[X^r], r > -alpha.

    Three routes, most exact first:
      * delta and all psi_j = lambda(gamma+j) integers with max psi small:
        the finite Kumaraswamy-mixture sum sum_{j,k} -- fully closed form,
        e.g. the (2,2,1,0,1) mean comes out as 2 B(3/2, 2) = 8/15.
        (Skipped for large psi, where the alternating binomials would
        cancel catastrophically.)
      * integer delta: finite j-sum of psi_j M_j(r); M_j terminates when
        r/alpha is an integer and is truncated otherwise.
      * general delta: the same sum accelerated by splitting off the
        j -> infinity limit (psi_j M_j -> 1 and sum_j omega_j = 1 exactly),
        leaving terms that decay one power faster.
    Falls back to quadrature of x^r f(x) when truncation fails.
    """
    return moments(theta, (r,), ctl)[0]


def moments(theta: Params, rs, ctl: SeriesControl | None = None) -> list[SeriesValue]:
    """E[X^r] for every r in rs; each value is what moment(theta, r) gives.

    One sweep over j serves every r: omega_j and the Beta row
    B(psi_j, m/beta + 1) do not depend on r, so each is built once per
    call.  The rows are built _ROW_BLOCK values of j at a time in one
    vectorized call (all delta+1 of them at once for integer delta) and
    are never kept across calls.  Each r keeps its own truncation of the
    j-sum and its own quadrature fallback.
    """
    ctl = ctl or _DEFAULT_CTL
    a, b, g, d, l = theta.as_tuple()
    rs = list(rs)
    for r in rs:
        if not (r > -a):
            raise ValueError(f"moment requires r > -alpha = {-a:g}, got r={r:g}")
    rrs = [r / a for r in rs]
    out: list[SeriesValue | None] = [None] * len(rs)
    int_delta = _is_nonneg_int(d)

    if int_delta:
        nj = int(round(d)) + 1
        psis = [l * (g + j) for j in range(nj)]
        omegas = list(itertools.islice(_omegas(theta), nj))
        if all(_is_pos_int(ps) for ps in psis) and max(psis) <= 25.0:
            # fully finite double sum; safe from cancellation at these sizes
            return [_moment_finite(b, rr, omegas, psis) for rr in rrs]
    coeffs = [_psi_coeffs(rr, ctl) for rr in rrs]
    width = max((c[0] for c in coeffs), default=0)
    bounds = [0.0] * len(rs)
    oks = [True] * len(rs)

    if int_delta:
        totals = [0.0] * len(rs)
        rows = _beta_rows(np.array(psis), b, width)
        for om, psi, row in zip(omegas, psis, rows):
            for k, c in enumerate(coeffs):
                val, tb, conv = _psi_moment(psi, row, c, ctl)
                totals[k] += om * val
                bounds[k] += abs(om) * tb
                oks[k] = oks[k] and conv
        for k, rr in enumerate(rrs):
            if oks[k]:
                method = "exact" if _is_nonneg_int(rr) else "series"
                out[k] = SeriesValue(totals[k], bounds[k], nj, method, True)
    else:
        sums = [_TermSum(ctl) for _ in rs]
        active = list(range(len(rs)))
        for j, om in zip(range(ctl.max_terms), _omegas(theta)):
            if not active:
                break
            psi = l * (g + j)
            if j % _ROW_BLOCK == 0:
                js = np.arange(j, min(j + _ROW_BLOCK, ctl.max_terms), dtype=float)
                rows = _beta_rows(l * (g + js), b, width)
            row = rows[j % _ROW_BLOCK]
            still = []
            for k in active:
                val, tb, conv = _psi_moment(psi, row, coeffs[k], ctl)
                bounds[k] += abs(om) * tb
                oks[k] = oks[k] and conv
                if not sums[k].add(om * (val - 1.0)):
                    still.append(k)
            active = still
        for k in range(len(rs)):
            sv = sums[k].value()
            if sv.converged and oks[k]:
                out[k] = SeriesValue(1.0 + float(sv), sv.tail_bound + bounds[k],
                                     sv.terms, "series", True)

    for k, r in enumerate(rs):
        if out[k] is None:
            out[k] = _quad(lambda x, r=r: np.power(x, r) * core.pdf(theta, x))
    return out


_CUMULANT_FORMULAS = {
    1: lambda m: m[1],
    2: lambda m: m[2] - m[1] ** 2,
    3: lambda m: m[3] - 3 * m[2] * m[1] + 2 * m[1] ** 3,
    4: lambda m: m[4] - 4 * m[3] * m[1] - 3 * m[2] ** 2 + 12 * m[2] * m[1] ** 2
    - 6 * m[1] ** 4,
    5: lambda m: m[5] - 5 * m[4] * m[1] - 10 * m[3] * m[2] + 20 * m[3] * m[1] ** 2
    + 30 * m[2] ** 2 * m[1] - 60 * m[2] * m[1] ** 3 + 24 * m[1] ** 5,
    6: lambda m: m[6] - 6 * m[5] * m[1] - 15 * m[4] * m[2] + 30 * m[4] * m[1] ** 2
    - 10 * m[3] ** 2 + 120 * m[3] * m[2] * m[1] - 120 * m[3] * m[1] ** 3
    + 30 * m[2] ** 3 - 270 * m[2] ** 2 * m[1] ** 2 + 360 * m[2] * m[1] ** 4
    - 120 * m[1] ** 6,
}


def central_moments_and_cumulants(
    theta: Params, up_to: int, ctl: SeriesControl | None = None
) -> tuple[list[float], list[float]]:
    """Central moments mu_s and cumulants kappa_s for s = 1..up_to (<= 6).

    Both are assembled from ordinary moments: mu_s by the binomial
    recentering sum, kappa_s by the standard conversion polynomials.
    """
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 6):
        raise ValueError(f"up_to must be an integer in 1..6, got {up_to!r}")
    ctl = ctl or _DEFAULT_CTL
    orders = [float(s) for s in range(1, up_to + 1)]
    raw = [1.0] + [float(m) for m in moments(theta, orders, ctl)]
    mean = raw[1]
    central = []
    for s in range(1, up_to + 1):
        mu_s = sum(
            math.comb(s, i) * (-mean) ** i * raw[s - i] for i in range(0, s + 1)
        )
        central.append(mu_s)
    kappas = [_CUMULANT_FORMULAS[s](raw) for s in range(1, up_to + 1)]
    return central, kappas


def factorial_moment(theta: Params, r: int, ctl: SeriesControl | None = None) -> float:
    """Descending factorial moment E[X(X-1)...(X-r+1)].

    Signed Stirling numbers of the first kind from the recurrence
    s(r+1, m) = s(r, m-1) - r s(r, m) convert ordinary moments.
    """
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    ctl = ctl or _DEFAULT_CTL
    s = [1.0]  # s(0, 0)
    for row in range(0, r):
        nxt = [0.0] * (row + 2)
        for mm in range(len(s)):
            nxt[mm + 1] += s[mm]
            nxt[mm] -= row * s[mm]
        s = nxt
    orders = [float(k) for k in range(1, r + 1)]
    raw = [1.0] + [float(m) for m in moments(theta, orders, ctl)]
    return float(sum(s[m] * raw[m] for m in range(0, r + 1)))


# ----------------------------------------------------------------------
# MGF
# ----------------------------------------------------------------------


def _phi_kernel(c: float, t: float) -> float:
    """Phi_c(t) = integral_0^1 x^{c-1} e^{tx} dx = sum_k t^k / (k! (c+k))."""
    total = 0.0
    term = 1.0  # t^k / k!
    for k in range(0, 500):
        piece = term / (c + k)
        total += piece
        if abs(piece) < 1e-17 * max(abs(total), 1e-300) and k > 2:
            break
        term *= t / (k + 1)
    return total


def mgf(theta: Params, t: float, ctl: SeriesControl | None = None) -> SeriesValue:
    """Moment generating function E[e^{tX}] via the density power series.

    Uses the integrated-by-parts form M(t) = e^t - t sum_i v*_i
    Phi_{(i+1)alpha + 1}(t) with v*_i = v_i/((i+1)alpha); since
    sum v*_i = 1 exactly, the summand decays one power faster than the
    naive kernel sum, and M(0) = 1 and the uniform case (e^t - 1)/t are
    reproduced to machine precision.  Quadrature fallback when the
    v-table does not exist.
    """
    ctl = ctl or _DEFAULT_CTL
    if t == 0.0:
        return SeriesValue(1.0, 0.0, 0, "exact", True)
    if _v_validity(theta):
        a = theta.alpha
        v = _v_coeffs(theta, ctl.max_terms)
        i = np.arange(len(v), dtype=float)
        vstar = v / ((i + 1.0) * a)
        phis = np.array([_phi_kernel((ii + 1.0) * a + 1.0, t) for ii in i])
        sv = _sum_terms(vstar * phis, ctl)
        if sv.converged:
            return SeriesValue(math.exp(t) - t * float(sv), abs(t) * sv.tail_bound,
                               sv.terms, "series", True)
    return _quad(lambda x: np.exp(t * x) * core.pdf(theta, x))


# ----------------------------------------------------------------------
# Quantile series
# ----------------------------------------------------------------------


def quantile_series_coeffs(theta: Params, n_coeffs: int) -> np.ndarray:
    """Coefficients a_k of the inverse-incomplete-beta expansion.

    z = Q_Beta(u) = sum_k a_k v^k in powers of v = [gamma u B(gamma,
    delta+1)]^{1/gamma}, with a_0 = 0, a_1 = 1, a_2 = delta/(gamma+1).
    Generated from the defining ODE dz/dv = (z/v)^{1-gamma} (1-z)^{-delta}
    by matching coefficients: with w = z/v,

        k a_k = [v^{k-1}] ( w^{1-gamma} (1-z)^{-delta} ),

    where the right side's only a_k occurrence is the linear (1-gamma) a_k
    term of w^{1-gamma}, so a_k = known/(k-1+gamma).  For delta = 0 every
    a_k (k >= 2) vanishes and z = v, i.e. Q(u) = u^{1/gamma} exactly.
    """
    if not (isinstance(n_coeffs, (int, np.integer)) and n_coeffs >= 2):
        raise ValueError(f"n_coeffs must be an integer >= 2, got {n_coeffs!r}")
    g, d = theta.gamma, theta.delta
    n = int(n_coeffs)
    a = np.zeros(n)
    if n >= 2:
        a[1] = 1.0
    for k in range(2, n):
        # w = z/v as a series in v, with the unknown a_k left at zero
        w = np.zeros(k)
        w[0] = 1.0
        w[1 : k] = a[2 : k + 1]
        rhs = _ps_pow(w, 1.0 - g, k)
        if d != 0.0:
            one_minus_z = np.zeros(k)
            one_minus_z[0] = 1.0
            one_minus_z[1:k] -= a[1:k]
            rhs = _ps_mul(rhs, _ps_pow(one_minus_z, -d, k), k)
        a[k] = rhs[k - 1] / (k - 1.0 + g)
    return a


# ----------------------------------------------------------------------
# Incomplete first moment, mean deviations, Bonferroni/Lorenz
# ----------------------------------------------------------------------


def _j_integrals(theta: Params, uppers, ctl: SeriesControl) -> list[SeriesValue]:
    """J(a) = integral_0^a x f(x) dx at each upper limit a, one v-table for all.

    Series form sum_i v_i a^{(i+1)alpha + 1} / ((i+1)alpha + 1) when the
    v-table exists (geometric in a^alpha, converges fast for a < 1);
    quadrature otherwise.
    """
    expo = v = None
    out = []
    for upper in uppers:
        if upper <= 0.0:
            out.append(SeriesValue(0.0, 0.0, 0, "exact", True))
            continue
        if _v_validity(theta) and upper < 1.0:
            if v is None:
                v = _v_coeffs(theta, ctl.max_terms)
                expo = (np.arange(len(v), dtype=float) + 1.0) * theta.alpha + 1.0
            sv = _sum_terms(v * np.power(upper, expo) / expo, ctl)
            if sv.converged:
                out.append(sv)
                continue
        out.append(_quad(lambda x: x * core.pdf(theta, x), min(upper, 1.0)))
    return out


def mean_deviations(theta: Params, ctl: SeriesControl | None = None) -> tuple[SeriesValue, SeriesValue]:
    """Mean absolute deviations about the mean and about the median.

    delta1 = 2 [mu F(mu) - J(mu)], delta2 = mu - 2 J(M) with M the median
    and J the incomplete first moment.
    """
    ctl = ctl or _DEFAULT_CTL
    mu = float(moment(theta, 1.0, ctl))
    med = core.quantile(theta, 0.5)
    j_mu, j_med = _j_integrals(theta, (mu, med), ctl)
    d1 = 2.0 * (mu * core.cdf(theta, mu) - float(j_mu))
    d2 = mu - 2.0 * float(j_med)
    meth1 = j_mu.method if j_mu.method != "exact" else "series"
    meth2 = j_med.method if j_med.method != "exact" else "series"
    return (
        SeriesValue(d1, 2.0 * j_mu.tail_bound, j_mu.terms, meth1, j_mu.converged),
        SeriesValue(d2, 2.0 * j_med.tail_bound, j_med.terms, meth2, j_med.converged),
    )


def bonferroni_lorenz(theta: Params, p: float, ctl: SeriesControl | None = None) -> tuple[SeriesValue, SeriesValue]:
    """Bonferroni B(p) = J(q)/(p mu) and Lorenz L(p) = J(q)/mu, q = Q(p)."""
    ctl = ctl or _DEFAULT_CTL
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    mu = float(moment(theta, 1.0, ctl))
    q = core.quantile(theta, p)
    (jq,) = _j_integrals(theta, (q,), ctl)
    lorenz = float(jq) / mu
    bound = jq.tail_bound / mu
    return (
        SeriesValue(lorenz / p, bound / p, jq.terms, jq.method, jq.converged),
        SeriesValue(lorenz, bound, jq.terms, jq.method, jq.converged),
    )


# ----------------------------------------------------------------------
# Order statistics and L-moments
# ----------------------------------------------------------------------


def _order_stat_quad(theta: Params, i: int, n: int, r: float,
                     at_nodes=None) -> SeriesValue:
    """E[X_{i:n}^r] by quadrature; at_nodes(x) gives (F(x), f(x)) when set."""
    lnb = ln_beta(float(i), float(n - i + 1))

    def integrand(x):
        if at_nodes is None:
            F, f = core.cdf(theta, x), core.pdf(theta, x)
        else:
            F, f = at_nodes(x)
        dens = f * math.exp(-lnb)
        return np.power(x, r) * dens * F ** (i - 1) * (1.0 - F) ** (n - i)

    return _quad(integrand)


def _check_order_args(i: int, n: int) -> None:
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")


class _OrderStatTables:
    """What the order-statistic moments of one theta share within a call.

    The cdf power series F = x^{alpha L'} h(x^alpha) is built once (from
    the v-table, when it exists), each power h^q once on first use, and
    for the quadrature fallback (F, f) once per panel node array.  The
    tables live only as long as the call that made them.
    """

    def __init__(self, theta: Params, ctl: SeriesControl):
        self.theta = theta
        self.ctl = ctl
        self.valid = _v_validity(theta)
        if self.valid:
            v = _v_coeffs(theta, ctl.max_terms)
            idx = np.arange(len(v), dtype=float)
            g_seq = v / ((idx + 1.0) * theta.alpha)  # F(x) = sum_s g_s x^{(s+1) alpha}
            self.lead = int(np.flatnonzero(g_seq)[0])  # = gamma*lambda - 1, exact zeros before
            self.h = g_seq[self.lead:]
        self._powers: dict[int, np.ndarray] = {}
        self._nodes: dict[bytes, tuple] = {}

    def h_power(self, q: int) -> np.ndarray:
        if q not in self._powers:
            self._powers[q] = _ps_pow(self.h, float(q), len(self.h))
        return self._powers[q]

    def at_nodes(self, x: np.ndarray) -> tuple:
        key = x.tobytes()
        if key not in self._nodes:
            self._nodes[key] = (core.cdf(self.theta, x), core.pdf(self.theta, x))
        return self._nodes[key]


def order_stat_moment_series(theta: Params, i: int, n: int, r: float,
                             ctl: SeriesControl | None = None) -> SeriesValue:
    """E[X_{i:n}^r] via the binomial-in-(1-F) route.

    Expanding (1-F)^{n-i} binomially reduces the target to terms
    T_q = integral x^r d(F^q)/q = 1/q - (r/q) integral x^{r-1} F^q dx, and
    F^q is a power of the cdf power series F = x^{alpha L'} h(x^alpha)
    (leading zeros of the coefficient table factored out).  Quadrature
    fallback when the v-table does not exist.
    """
    ctl = ctl or _DEFAULT_CTL
    _check_order_args(i, n)
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    return _order_stat_series(_OrderStatTables(theta, ctl), i, n, r)


def _order_stat_series(tables: _OrderStatTables, i: int, n: int, r: float) -> SeriesValue:
    """order_stat_moment_series from tables shared with other (i, n)."""
    theta = tables.theta
    if not tables.valid:
        return _order_stat_quad(theta, i, n, r, tables.at_nodes)
    a = theta.alpha
    lead = tables.lead
    total = 0.0
    bound = 0.0
    terms_used = 0
    converged = True
    inv_b = math.exp(-ln_beta(float(i), float(n - i + 1)))
    for j in range(0, n - i + 1):
        q = i + j
        hq = tables.h_power(q)
        s = np.arange(len(hq), dtype=float)
        denom = r + (s + q * (lead + 1.0)) * a
        sv = _sum_terms(hq / denom, tables.ctl)
        coeff = inv_b * (-1.0) ** j * math.comb(n - i, j)
        t_q = 1.0 / q - (r / q) * float(sv)
        total += coeff * t_q
        bound += abs(coeff) * (r / q) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
        converged = converged and sv.converged
    if not converged:
        return _order_stat_quad(theta, i, n, r, tables.at_nodes)
    return SeriesValue(total, bound, terms_used, "series", True)


def order_stat_moment_barakat(theta: Params, i: int, n: int, r: int,
                              ctl: SeriesControl | None = None) -> SeriesValue:
    """E[X_{i:n}^r] via the survival-power route.

    E = r sum_{p=n-i+1}^{n} (-1)^{p-(n-i+1)} C(p-1, n-i) C(n, p) I_p(r)
    with I_p(r) = integral_0^1 x^{r-1} (1-F)^p dx; (1-F) as a series in
    x^alpha has leading coefficient 1, so its integer powers come straight
    from the power-series power recurrence.  An independent rearrangement
    used to cross-check the other route.
    """
    ctl = ctl or _DEFAULT_CTL
    _check_order_args(i, n)
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    if not _v_validity(theta):
        return _order_stat_quad(theta, i, n, float(r))
    a = theta.alpha
    N = ctl.max_terms
    v = _v_coeffs(theta, N)
    idx = np.arange(len(v), dtype=float)
    H = np.zeros(N + 1)
    H[0] = 1.0
    H[1:] = -v / ((idx + 1.0) * a)  # 1 - F in powers of x^alpha
    total = 0.0
    bound = 0.0
    terms_used = 0
    converged = True
    for p in range(n - i + 1, n + 1):
        Hp = _ps_pow(H, float(p), N + 1)
        s = np.arange(len(Hp), dtype=float)
        sv = _sum_terms(Hp / (r + s * a), ctl)
        coeff = r * (-1.0) ** (p - (n - i + 1)) * math.comb(p - 1, n - i) * math.comb(n, p)
        total += coeff * float(sv)
        bound += abs(coeff) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
        converged = converged and sv.converged
    if not converged:
        return _order_stat_quad(theta, i, n, float(r))
    return SeriesValue(total, bound, terms_used, "series", True)


def l_moments(theta: Params, up_to: int, ctl: SeriesControl | None = None) -> list[float]:
    """L-moments lambda_1..lambda_{up_to} (up_to <= 4).

    Built from first moments of order statistics:
        lambda_1 = m_{1:1},  lambda_2 = (m_{2:2} - m_{1:2}) / 2,
        lambda_3 = (m_{3:3} - 2 m_{2:3} + m_{1:3}) / 3,
        lambda_4 = (m_{4:4} - 3 m_{3:4} + 3 m_{2:4} - m_{1:4}) / 4.
    """
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 4):
        raise ValueError(f"up_to must be an integer in 1..4, got {up_to!r}")
    ctl = ctl or _DEFAULT_CTL
    tables = _OrderStatTables(theta, ctl)

    def m(i: int, n: int) -> float:
        return float(_order_stat_series(tables, i, n, 1.0))

    out = [m(1, 1)]
    if up_to >= 2:
        out.append((m(2, 2) - m(1, 2)) / 2.0)
    if up_to >= 3:
        out.append((m(3, 3) - 2.0 * m(2, 3) + m(1, 3)) / 3.0)
    if up_to >= 4:
        out.append((m(4, 4) - 3.0 * m(3, 4) + 3.0 * m(2, 4) - m(1, 4)) / 4.0)
    return out


# ----------------------------------------------------------------------
# Renyi entropy
# ----------------------------------------------------------------------


def renyi_entropy(theta: Params, rho: float, ctl: SeriesControl | None = None) -> SeriesValue:
    """Renyi entropy J_R(rho) = log(integral f^rho) / (1 - rho).

    Existence first: f ~ x^{alpha gamma lambda - 1} at 0 and
    ~ (1-x)^{beta(delta+1)-1} at 1, so the integral of f^rho diverges
    unless rho(alpha gamma lambda - 1) > -1 and rho(beta(delta+1) - 1) >
    -1; DivergentIntegralError is raised otherwise.

    The series route expands f^rho in the w = x^alpha variable:
    (1 - S^lambda)^{rho delta} binomially in S^lambda = w^lambda A^lambda
    (A = S/w analytic, A(0) = beta), each term integrating to a beta
    function B(a_m + s, b') with b' = rho(beta-1) + 1.  It is used when
    rho*delta is a nonnegative integer (finite m-sum; the powers A^{p_m}
    stay small enough that their signed coefficients do not cancel away
    the result) and b' > 0.  Outside that region -- or should truncation
    fail -- quadrature of exp(rho log f) takes over, tagged as such.
    """
    ctl = ctl or _DEFAULT_CTL
    if not (rho > 0.0) or rho == 1.0:
        raise ValueError(f"rho must be positive and different from 1, got {rho!r}")
    a, b, g, d, l = theta.as_tuple()
    e0 = rho * (a * g * l - 1.0)
    e1 = rho * (b * (d + 1.0) - 1.0)
    if e0 <= -1.0:
        raise DivergentIntegralError(
            f"integral of f^rho diverges at x=0 (exponent {e0:g} <= -1)"
        )
    if e1 <= -1.0:
        raise DivergentIntegralError(
            f"integral of f^rho diverges at x=1 (exponent {e1:g} <= -1)"
        )
    b_exp = rho * (b - 1.0) + 1.0
    log_front = rho * (math.log(l) + math.log(a) + math.log(b) - ln_beta(g, d + 1.0)) - math.log(a)
    rd = rho * d
    if b_exp > 0.0 and _is_nonneg_int(rd):
        N = ctl.max_terms
        A = -_signed_binom(b, N + 1)[1:]
        a0 = (rho * (a * g * l - 1.0) + 1.0) / a
        m_count = int(round(rd)) + 1
        # signed-coefficient cancellation guard: l1(A)^p_max over the
        # integral's own scale must leave headroom below 1/eps
        p_max = rho * (g * l - 1.0) + l * (m_count - 1)
        if p_max * math.log(max(float(np.abs(A).sum()), 1.0)) < 27.0:
            P = _ps_pow(A, rho * (g * l - 1.0), N)
            AL = _ps_pow(A, l, N)
            s = np.arange(N, dtype=float)
            binom_m = 1.0
            inner_bound = 0.0
            inner_ok = True
            m_terms = []
            Pm = P
            for mm in range(m_count):
                if mm > 0:
                    binom_m *= (rd - (mm - 1)) / mm
                    Pm = _ps_mul(Pm, AL, N)
                betas = np.exp(_ln_beta_arr(a0 + l * mm + s, b_exp))
                sv = _sum_terms(Pm * betas, ctl)
                inner_bound += abs(binom_m) * sv.tail_bound
                inner_ok = inner_ok and sv.converged
                m_terms.append((-1.0) ** mm * binom_m * float(sv))
            if inner_ok:
                integral = math.exp(log_front) * math.fsum(m_terms)
                if integral > 0.0:
                    total_bound = math.exp(log_front) * inner_bound
                    val = math.log(integral) / (1.0 - rho)
                    return SeriesValue(
                        val,
                        total_bound / (integral * abs(1.0 - rho)),
                        m_count,
                        "series",
                        True,
                    )
    quad = _quad(lambda x: np.power(core.pdf(theta, x), rho))
    return SeriesValue(math.log(quad) / (1.0 - rho),
                       quad.tail_bound / (float(quad) * abs(1.0 - rho)),
                       quad.terms, "quadrature", quad.converged)
