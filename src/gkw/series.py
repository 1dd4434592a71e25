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
detected up front.  A sum of large alternating terms can also cancel
below rounding; the moment sweeps, the Renyi m-sum, the incomplete first
moment, the mgf and the bare evaluators test for that (_rounding_ok) and
take the same fallback or flag.

Every sum-valued operation returns a SeriesValue: a float carrying the
achieved tail bound, the number of terms used, the evaluation method
("exact" | "series" | "quadrature"), and a convergence flag.

Work is shared within one call, never across calls.  Every entry point
builds one _Tables for its theta: it takes ln B(gamma, delta + 1) once,
decides which tables exist (norm_ok, v_ok), and builds each of omega, v,
the cdf series v_i/((i+1) alpha), the powers h^q and the quadrature
panels' (F, f) at most once, on first use.  moments() sweeps j once for
all its orders, building the Beta rows a block of j at a time, one
vectorized call per block; l_moments() shares one _Tables among its ten
order-statistic moments.  The tables are dropped when the call returns,
so a repeated call repeats the work and no memory is held.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core, oracle
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

_EPS = float(np.finfo(float).eps)


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


def _rounding_ok(total: float, mass: float, ctl: SeriesControl) -> bool:
    """Whether a signed sum of terms with sum |terms| = mass is finite and
    its rounding error, about eps * mass, is below tail_tol * |total|.
    Large alternating tables cancel that far: omega_j = C(10, j) / ((10 + j) B)
    at Beta(10, 11) reaches 1e7, and its mean came out 6e-7 off."""
    return math.isfinite(total) and _EPS * mass <= ctl.tail_tol * abs(total)


def _count(p: float, ctl: SeriesControl) -> int:
    """Terms of a binomial sum in p: p + 1 where it terminates (p a
    nonnegative integer), max_terms otherwise."""
    return int(round(p)) + 1 if _is_nonneg_int(p) else ctl.max_terms


def _signed_binom(p: float, count: int) -> np.ndarray:
    """(-1)^m C(p, m) for m = 0..count-1 (count >= 1), C(p, m) as the
    running product of (p - m + 1)/m; the sign flip is exact."""
    m = np.arange(1, count, dtype=float)
    out = np.concatenate(([1.0], np.cumprod((p - m + 1.0) / m)))
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
        raise ValueError("power of a series requires a nonzero leading coefficient; "
                         "factor out powers of x first")
    if a.size < n:
        a = np.concatenate([a, np.zeros(n - a.size)])
    c = np.zeros(n)
    jp = np.arange(1, n) * (p + 1.0)
    # series with large or growing coefficients can overflow; the resulting
    # non-finite entries are caught by callers' convergence checks
    with np.errstate(over="ignore", invalid="ignore"):
        c[0] = a[0] ** p
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
    # a non-finite partial sum is not converged (below); it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
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


def _flag_cancellation(sv: SeriesValue, terms: np.ndarray, ctl: SeriesControl,
                       label: str) -> SeriesValue:
    """A bare expansion evaluator's sum, warned about and flagged
    unconverged where its summed terms cancel below rounding."""
    mass = float(np.abs(terms[: sv.terms]).sum())
    if not sv.converged or _rounding_ok(sv, mass, ctl):
        return sv
    warnings.warn(f"{label}: terms cancel below rounding (sum of |terms| {mass:.3g})",
                  SeriesDivergenceWarning, stacklevel=3)
    return SeriesValue(sv, _EPS * mass, sv.terms, sv.method, False)


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


# Quantile levels at which _quad cuts the range of a narrow law: the outer
# pieces hold 1e-15 of the mass, the inner ones a few standard deviations.
_CUT_LEVELS = (1e-15, 1e-9, 1e-4, 0.5, 1.0 - 1e-4, 1.0 - 1e-9, 1.0 - 1e-15)


def _quad(tables: _Tables, f, hi: float = 1.0) -> SeriesValue:
    """The one quadrature fallback: integral_0^hi f, tagged "quadrature".

    A law without series tables (not tables.norm_ok) is narrow enough
    for the panels over (0, hi) to miss its mass: at (2, 3, 1e4, 9999, 1),
    sd 0.002, every node of E[X_{1:4}] read zero.  Its range is cut at the
    quantiles _CUT_LEVELS, and the pieces share the subdivision budget.
    """
    cuts = {0.0, hi}
    if not tables.norm_ok:
        theta = tables.theta
        cuts.update(x for x in (core.quantile(theta, u) for u in _CUT_LEVELS) if x < hi)
    pieces = list(itertools.pairwise(sorted(cuts)))
    parts = [oracle.adaptive_quad(f, lo, up, tol=1e-11, max_subdiv=2000 // len(pieces))
             for lo, up in pieces]
    return SeriesValue(math.fsum(q.value for q in parts), sum(q.err_estimate for q in parts),
                       sum(q.subdivisions for q in parts), "quadrature",
                       all(q.reliable for q in parts))


# ----------------------------------------------------------------------
# Coefficient tables
# ----------------------------------------------------------------------


# Largest argument of math.exp that stays finite.
_LOG_MAX = math.log(np.finfo(float).max)

_V_DOMAIN = ("v-table requires gamma*lambda a positive integer, "
             "(delta = 0 or integer lambda) and 1/B(gamma, delta + 1) in float64 range")


class _Tables:
    """The expansion tables of one theta, decided once and built lazily.

    ln B(gamma, delta + 1) is taken once.  norm_ok says whether B and 1/B
    are finite, nonzero floats, as omega (over B) and v (times 1/B) need;
    at (2, 3, 1e4, 9999, 1), ln B = -13,866.  v_ok says whether the density
    power series exists.  omega, v, cdf_coeffs, each power h^q and the
    quadrature panels' (F, f) are built on first use, at most once.  The
    tables live only as long as the call that made them.
    """

    def __init__(self, theta: Params, ctl: SeriesControl):
        g, d, l = theta.gamma, theta.delta, theta.lam
        self.theta = theta
        self.ctl = ctl
        self.ln_b = ln_beta(g, d + 1.0)
        self.norm_ok = abs(self.ln_b) < _LOG_MAX
        self.v_ok = self.norm_ok and _is_pos_int(g * l) and (d == 0.0 or _is_pos_int(l))
        self._powers: dict[int, np.ndarray] = {}
        self._nodes: dict[bytes, tuple] = {}

    @functools.cached_property
    def omega(self) -> np.ndarray:
        """omega_j = (-1)^j C(delta, j) / [(gamma + j) B], C(delta, j) as a
        running product of (delta - (j-1))/j; ExpansionDomainError where a
        weight is not a finite float."""
        g, d = self.theta.gamma, self.theta.delta
        if self.norm_ok:
            j = np.arange(_count(d, self.ctl), dtype=float)
            binom = np.cumprod(np.concatenate(([1.0], (d - (j[1:] - 1.0)) / j[1:])))
            binom[1::2] *= -1.0
            with np.errstate(over="ignore"):
                omega = binom / ((g + j) * math.exp(self.ln_b))
            if np.all(np.isfinite(omega)):
                return omega
        raise ExpansionDomainError(
            "omega weights require B(gamma, delta + 1) and C(delta, j) / B in float64 range; "
            f"got ln B = {self.ln_b:g}")

    @functools.cached_property
    def v(self) -> np.ndarray:
        """Density power-series coefficients v_i, i < max_terms."""
        if not self.v_ok:
            th = self.theta
            raise ExpansionDomainError(
                f"{_V_DOMAIN}; got gamma*lambda={th.gamma * th.lam:g}, "
                f"delta={th.delta:g}, lambda={th.lam:g}")
        a, b, _, _, l = self.theta.as_tuple()
        with np.errstate(over="ignore", invalid="ignore"):
            return l * a * b * math.exp(-self.ln_b) * _v_coeffs(self.theta, self.ctl.max_terms)

    @functools.cached_property
    def cdf_coeffs(self) -> np.ndarray:
        """v_i / ((i+1) alpha): F(x) = sum_i v_i/((i+1) alpha) x^{(i+1) alpha}."""
        v = self.v
        return v / ((np.arange(len(v), dtype=float) + 1.0) * self.theta.alpha)

    @functools.cached_property
    def lead(self) -> int:
        """Exact leading zeros of cdf_coeffs (gamma*lambda - 1 of them)."""
        return int(np.flatnonzero(self.cdf_coeffs)[0])

    def h_power(self, q: int) -> np.ndarray:
        """h^q, with F = x^{alpha (lead + 1)} h(x^alpha)."""
        if q not in self._powers:
            h = self.cdf_coeffs[self.lead:]
            self._powers[q] = _ps_pow(h, float(q), len(h))
        return self._powers[q]

    def at_nodes(self, x: np.ndarray) -> tuple:
        """(F, f) at the nodes x, once per node array.  Without norm_ok F is
        taken point by point, so that core takes the scalar incomplete
        beta, where the array one can stall (fault F3)."""
        key = x.tobytes()
        if key not in self._nodes:
            th = self.theta
            if self.norm_ok:
                F = core.cdf(th, x)
            else:
                F = np.array([core.cdf(th, float(u)) for u in x])
            self._nodes[key] = F, core.pdf(th, x)
        return self._nodes[key]


def omega_weights(theta: Params, ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """cdf-expansion weights omega_j.

    omega_j = (-1)^j C(delta, j) / [(gamma + j) B(gamma, delta + 1)], the
    generalized binomial carrying the 1/j! of the descending factorial.
    For integer delta the sequence terminates after delta + 1 entries and
    sums to exactly 1; otherwise it is truncated at max_terms.  Raises
    ExpansionDomainError where the weights do not fit in float64.
    """
    return _Tables(theta, ctl).omega


def _v_coeffs(theta: Params, n: int) -> np.ndarray:
    """Power-series density coefficients v_i up to their constant factor
    lambda alpha beta / B(gamma, delta + 1), which _Tables.v applies
    (validity assumed checked).

    f(x) = sum_i v_i x^{(i+1) alpha - 1}.  Writing w = x^alpha and
    S(w) = 1 - (1-w)^beta, the density is (lambda alpha beta / B) *
    x^{alpha-1} T(w) with T = (1-w)^{beta-1} S^{gamma lambda - 1}
    (1 - S^lambda)^delta, so v_i is a plain Taylor coefficient of T.
    S^m factors as w^m (S/w)^m with S/w analytic and nonzero at 0, which
    is what makes the construction a finite-coefficient recurrence.
    """
    _, b, g, d, l = theta.as_tuple()
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
    return v


def mixture_coeffs(theta: Params, ctl: SeriesControl = _DEFAULT_CTL) -> CoeffTable:
    """Build the omega / p / v coefficient tables for theta.

    p_k = sum_j omega_j psi_j (-1)^k C(psi_j - 1, k) / (k+1) with
    psi_j = lambda (gamma + j); the j-sum only converges when delta is a
    nonnegative integer (finite), so p is flagged invalid otherwise.
    v is flagged invalid unless gamma*lambda is a positive integer and
    (delta = 0 or lambda is a positive integer); outside that set the
    density has a branch point at x = 0 in the x^alpha variable and no
    power series of the stated form exists.  Raises ExpansionDomainError
    where the omega weights do not fit in float64.
    """
    a, b, g, d, l = theta.as_tuple()
    tables = _Tables(theta, ctl)
    omega = tables.omega
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

    if tables.v_ok:
        v = tables.v
    else:
        v = np.empty(0)
        notes.append(_V_DOMAIN)
    return CoeffTable(omega=omega, p=p, v=v, theta=theta,
                      p_valid=p_valid, v_valid=tables.v_ok, notes=tuple(notes))


def cdf_expansion(theta: Params, x: float, ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """Evaluate the weighted cdf expansion sum_j omega_j G1(x)^{psi_j}.

    Converges for every x in (0,1) (the Kumaraswamy cdf G1 < 1 supplies a
    geometric factor); this is the series counterpart of core.cdf.
    Raises ExpansionDomainError where the omega weights do not fit in
    float64.
    """
    if not (0.0 < x < 1.0):
        raise ValueError("cdf_expansion requires x strictly inside (0, 1)")
    a, b, g, d, l = theta.as_tuple()
    lg1 = math.log(-math.expm1(b * math.log1p(-(x**a))))  # log G1(x)
    omega = _Tables(theta, ctl).omega
    j = np.arange(len(omega), dtype=float)
    terms = omega * np.exp(l * (g + j) * lg1)
    sv = _sum_terms(terms, ctl, warn_label="cdf_expansion", complete=_is_nonneg_int(d))
    return _flag_cancellation(sv, terms, ctl, "cdf_expansion")


def pdf_expansion(theta: Params, x: float, ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """Evaluate the density power series sum_i v_i x^{(i+1) alpha - 1}.

    Raises ExpansionDomainError when the v-table does not exist for theta
    (flagged, never silently wrong).
    """
    if not (0.0 < x < 1.0):
        raise ValueError("pdf_expansion requires x strictly inside (0, 1)")
    v = _Tables(theta, ctl).v
    i = np.arange(len(v), dtype=float)
    terms = v * np.power(x, (i + 1.0) * theta.alpha - 1.0)
    return _flag_cancellation(_sum_terms(terms, ctl, warn_label="pdf_expansion"), terms, ctl,
                              "pdf_expansion")


# ----------------------------------------------------------------------
# Ordinary moments
# ----------------------------------------------------------------------


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
    count = _count(rr, ctl)
    return count, _signed_binom(rr, count), _is_nonneg_int(rr)


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


def _moment_finite(b: float, rr: float, omegas, psis, ctl: SeriesControl) -> SeriesValue:
    """The fully finite double sum over j and k (integer delta and psi_j);
    not converged where its terms cancel below rounding (_rounding_ok)."""
    total = 0.0
    mass = 0.0
    n_terms = 0
    for om, psi in zip(omegas, psis):
        K = int(round(psi))
        k = np.arange(K, dtype=float)
        tau = _signed_binom(psi - 1.0, K) * b * np.exp(
            _ln_beta_arr(1.0 + rr, (k + 1.0) * b)
        )
        total += om * psi * float(tau.sum())
        mass += abs(om * psi) * float(np.abs(tau).sum())
        n_terms += K
    return SeriesValue(total, 0.0, n_terms, "exact", _rounding_ok(total, mass, ctl))


def moment(theta: Params, r: float, ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
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
    Falls back to quadrature of x^r f(x) when truncation fails, and where
    the omega weights do not fit in float64 or the sum cancels below
    rounding.
    """
    return moments(theta, (r,), ctl)[0]


def moments(theta: Params, rs, ctl: SeriesControl = _DEFAULT_CTL) -> list[SeriesValue]:
    """E[X^r] for every r in rs; each value is what moment(theta, r) gives.

    One sweep over j serves every r: omega_j and the Beta row
    B(psi_j, m/beta + 1) do not depend on r, so each is built once per
    call.  The rows are built _ROW_BLOCK values of j at a time in one
    vectorized call and are never kept across calls.  Each r keeps its
    own truncation of the j-sum and its own quadrature fallback.
    """
    a, b, g, d, l = theta.as_tuple()
    rs = list(rs)
    for r in rs:
        if not (r > -a):
            raise ValueError(f"moment requires r > -alpha = {-a:g}, got r={r:g}")
    tables = _Tables(theta, ctl)
    try:
        # Python floats: NumPy scalars would slow the j loop below
        omega = tables.omega.tolist()
    except ExpansionDomainError:
        return [_moment_quad(tables, r) for r in rs]
    rrs = [r / a for r in rs]
    int_delta = _is_nonneg_int(d)
    if int_delta:
        psis = [l * (g + j) for j in range(len(omega))]
        if all(_is_pos_int(ps) for ps in psis) and max(psis) <= 25.0:
            # fully finite double sum; large psi cancel catastrophically
            finite = [_moment_finite(b, rr, omega, psis, ctl) for rr in rrs]
            if all(v.converged for v in finite):
                return finite
    coeffs = [_psi_coeffs(rr, ctl) for rr in rrs]
    width = max((c[0] for c in coeffs), default=0)
    # integer delta sums omega_j psi_j M_j over every j; general delta sums
    # omega_j (psi_j M_j - 1) until its own truncation rule fires
    sums = [_TermSum(ctl) for _ in rs]
    bounds = [0.0] * len(rs)
    oks = [True] * len(rs)
    active = list(range(len(rs)))
    for j, om in enumerate(omega):
        if not active:
            break
        psi = l * (g + j)
        if j % _ROW_BLOCK == 0:
            js = np.arange(j, min(j + _ROW_BLOCK, len(omega)), dtype=float)
            rows = _beta_rows(l * (g + js), b, width)
        row = rows[j % _ROW_BLOCK]
        still = []
        for k in active:
            val, tb, conv = _psi_moment(psi, row, coeffs[k], ctl)
            bounds[k] += abs(om) * tb
            oks[k] = oks[k] and conv
            if int_delta:
                sums[k].add(om * val)
                still.append(k)
            elif not sums[k].add(om * (val - 1.0)):
                still.append(k)
        active = still

    out = []
    for k, r in enumerate(rs):
        mass = sum(map(abs, sums[k].terms))
        if int_delta:
            total = sums[k].total
            ok = oks[k] and _rounding_ok(total, mass, ctl)
            method = "exact" if _is_nonneg_int(rrs[k]) else "series"
            value = SeriesValue(total, bounds[k], len(omega), method, True)
        else:
            sv = sums[k].value()
            ok = oks[k] and sv.converged and _rounding_ok(1.0 + float(sv), mass, ctl)
            value = SeriesValue(1.0 + float(sv), sv.tail_bound + bounds[k], sv.terms,
                                "series", True)
        out.append(value if ok else _moment_quad(tables, r))
    return out


def _moment_quad(tables: _Tables, r: float) -> SeriesValue:
    theta = tables.theta
    return _quad(tables, lambda x: np.power(x, r) * core.pdf(theta, x))


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
    theta: Params, up_to: int, ctl: SeriesControl = _DEFAULT_CTL
) -> tuple[list[float], list[float]]:
    """Central moments mu_s and cumulants kappa_s for s = 1..up_to (<= 6).

    Both are assembled from ordinary moments: mu_s by the binomial
    recentering sum, kappa_s by the standard conversion polynomials.
    """
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 6):
        raise ValueError(f"up_to must be an integer in 1..6, got {up_to!r}")
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


def factorial_moment(theta: Params, r: int, ctl: SeriesControl = _DEFAULT_CTL) -> float:
    """Descending factorial moment E[X(X-1)...(X-r+1)].

    Signed Stirling numbers of the first kind from the recurrence
    s(r+1, m) = s(r, m-1) - r s(r, m) convert ordinary moments.
    """
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
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


def mgf(theta: Params, t: float, ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """Moment generating function E[e^{tX}] via the density power series.

    Uses the integrated-by-parts form M(t) = e^t - t sum_i v*_i
    Phi_{(i+1)alpha + 1}(t) with v*_i = v_i/((i+1)alpha); since
    sum v*_i = 1 exactly, the summand decays one power faster than the
    naive kernel sum, and M(0) = 1 and the uniform case (e^t - 1)/t are
    reproduced to machine precision.  Quadrature fallback when the
    v-table does not exist.
    """
    if t == 0.0:
        return SeriesValue(1.0, 0.0, 0, "exact", True)
    tables = _Tables(theta, ctl)
    if tables.v_ok:
        vstar = tables.cdf_coeffs
        i = np.arange(len(vstar), dtype=float)
        phis = np.array([_phi_kernel((ii + 1.0) * theta.alpha + 1.0, t) for ii in i])
        terms = vstar * phis
        sv = _sum_terms(terms, ctl)
        if sv.converged and _rounding_ok(sv, np.abs(terms[:sv.terms]).sum(), ctl):
            return SeriesValue(math.exp(t) - t * float(sv), abs(t) * sv.tail_bound,
                               sv.terms, "series", True)
    return _quad(tables, lambda x: np.exp(t * x) * core.pdf(theta, x))


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


def _j_integrals(tables: _Tables, uppers) -> list[SeriesValue]:
    """J(a) = integral_0^a x f(x) dx at each upper limit a, one v-table for all.

    Series form sum_i v_i a^{(i+1)alpha + 1} / ((i+1)alpha + 1) when the
    v-table exists (geometric in a^alpha, converges fast for a < 1);
    quadrature otherwise.
    """
    theta = tables.theta
    out = []
    for upper in uppers:
        if upper <= 0.0:
            out.append(SeriesValue(0.0, 0.0, 0, "exact", True))
            continue
        if tables.v_ok and upper < 1.0:
            v = tables.v
            expo = (np.arange(len(v), dtype=float) + 1.0) * theta.alpha + 1.0
            terms = v * np.power(upper, expo) / expo
            sv = _sum_terms(terms, tables.ctl)
            if sv.converged and _rounding_ok(sv, np.abs(terms[:sv.terms]).sum(), tables.ctl):
                out.append(sv)
                continue
        out.append(_quad(tables, lambda x: x * core.pdf(theta, x), min(upper, 1.0)))
    return out


def mean_deviations(theta: Params, ctl: SeriesControl = _DEFAULT_CTL) -> tuple[SeriesValue, SeriesValue]:
    """Mean absolute deviations about the mean and about the median.

    delta1 = 2 [mu F(mu) - J(mu)], delta2 = mu - 2 J(M) with M the median
    and J the incomplete first moment.
    """
    mu = float(moment(theta, 1.0, ctl))
    med = core.quantile(theta, 0.5)
    j_mu, j_med = _j_integrals(_Tables(theta, ctl), (mu, med))
    d1 = 2.0 * (mu * core.cdf(theta, mu) - float(j_mu))
    d2 = mu - 2.0 * float(j_med)
    meth1 = j_mu.method if j_mu.method != "exact" else "series"
    meth2 = j_med.method if j_med.method != "exact" else "series"
    return (
        SeriesValue(d1, 2.0 * j_mu.tail_bound, j_mu.terms, meth1, j_mu.converged),
        SeriesValue(d2, 2.0 * j_med.tail_bound, j_med.terms, meth2, j_med.converged),
    )


def bonferroni_lorenz(theta: Params, p: float, ctl: SeriesControl = _DEFAULT_CTL) -> tuple[SeriesValue, SeriesValue]:
    """Bonferroni B(p) = J(q)/(p mu) and Lorenz L(p) = J(q)/mu, q = Q(p)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    mu = float(moment(theta, 1.0, ctl))
    q = core.quantile(theta, p)
    (jq,) = _j_integrals(_Tables(theta, ctl), (q,))
    lorenz = float(jq) / mu
    bound = jq.tail_bound / mu
    return (
        SeriesValue(lorenz / p, bound / p, jq.terms, jq.method, jq.converged),
        SeriesValue(lorenz, bound, jq.terms, jq.method, jq.converged),
    )


# ----------------------------------------------------------------------
# Order statistics and L-moments
# ----------------------------------------------------------------------


def _order_stat_quad(tables: _Tables, i: int, n: int, r: float) -> SeriesValue:
    """E[X_{i:n}^r] by quadrature, (F, f) from tables.at_nodes."""
    lnb = ln_beta(float(i), float(n - i + 1))

    def integrand(x):
        F, f = tables.at_nodes(x)
        dens = f * math.exp(-lnb)
        return np.power(x, r) * dens * F ** (i - 1) * (1.0 - F) ** (n - i)

    return _quad(tables, integrand)


def _check_order_args(i: int, n: int) -> None:
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")


def order_stat_moment_series(theta: Params, i: int, n: int, r: float,
                             ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """E[X_{i:n}^r] via the binomial-in-(1-F) route.

    Expanding (1-F)^{n-i} binomially reduces the target to terms
    T_q = integral x^r d(F^q)/q = 1/q - (r/q) integral x^{r-1} F^q dx, and
    F^q is a power of the cdf power series F = x^{alpha L'} h(x^alpha)
    (leading zeros of the coefficient table factored out).  Quadrature
    fallback when the v-table does not exist.
    """
    _check_order_args(i, n)
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    return _order_stat_series(_Tables(theta, ctl), i, n, r)


def _order_stat_series(tables: _Tables, i: int, n: int, r: float) -> SeriesValue:
    """order_stat_moment_series from tables shared with other (i, n)."""
    if not tables.v_ok:
        return _order_stat_quad(tables, i, n, r)
    a = tables.theta.alpha
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
        return _order_stat_quad(tables, i, n, r)
    return SeriesValue(total, bound, terms_used, "series", True)


def order_stat_moment_barakat(theta: Params, i: int, n: int, r: int,
                              ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """E[X_{i:n}^r] via the survival-power route.

    E = r sum_{p=n-i+1}^{n} (-1)^{p-(n-i+1)} C(p-1, n-i) C(n, p) I_p(r)
    with I_p(r) = integral_0^1 x^{r-1} (1-F)^p dx; (1-F) as a series in
    x^alpha has leading coefficient 1, so its integer powers come straight
    from the power-series power recurrence.  An independent rearrangement
    used to cross-check the other route.
    """
    _check_order_args(i, n)
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    tables = _Tables(theta, ctl)
    if not tables.v_ok:
        return _order_stat_quad(tables, i, n, float(r))
    a = theta.alpha
    H = np.concatenate(([1.0], -tables.cdf_coeffs))  # 1 - F in powers of x^alpha
    total = 0.0
    bound = 0.0
    terms_used = 0
    converged = True
    for p in range(n - i + 1, n + 1):
        Hp = _ps_pow(H, float(p), len(H))
        s = np.arange(len(Hp), dtype=float)
        sv = _sum_terms(Hp / (r + s * a), ctl)
        coeff = r * (-1.0) ** (p - (n - i + 1)) * math.comb(p - 1, n - i) * math.comb(n, p)
        total += coeff * float(sv)
        bound += abs(coeff) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
        converged = converged and sv.converged
    if not converged:
        return _order_stat_quad(tables, i, n, float(r))
    return SeriesValue(total, bound, terms_used, "series", True)


def l_moments(theta: Params, up_to: int, ctl: SeriesControl = _DEFAULT_CTL) -> list[float]:
    """L-moments lambda_1..lambda_{up_to} (up_to <= 4).

    Built from first moments of order statistics:
        lambda_1 = m_{1:1},  lambda_2 = (m_{2:2} - m_{1:2}) / 2,
        lambda_3 = (m_{3:3} - 2 m_{2:3} + m_{1:3}) / 3,
        lambda_4 = (m_{4:4} - 3 m_{3:4} + 3 m_{2:4} - m_{1:4}) / 4.
    """
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 4):
        raise ValueError(f"up_to must be an integer in 1..4, got {up_to!r}")
    tables = _Tables(theta, ctl)

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


def renyi_entropy(theta: Params, rho: float, ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
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
    the result), b' > 0 and the front factor (lambda alpha beta / B)^rho
    / alpha is a finite float.  Outside that region -- or should truncation
    fail -- quadrature of exp(rho log f) takes over, tagged as such.
    """
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
    tables = _Tables(theta, ctl)
    b_exp = rho * (b - 1.0) + 1.0
    log_front = rho * (math.log(l) + math.log(a) + math.log(b) - tables.ln_b) - math.log(a)
    rd = rho * d
    if b_exp > 0.0 and _is_nonneg_int(rd) and log_front < _LOG_MAX:
        N = ctl.max_terms
        A = -_signed_binom(b, N + 1)[1:]
        a0 = (rho * (a * g * l - 1.0) + 1.0) / a
        m_count = _count(rd, ctl)
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
            m_sum = math.fsum(m_terms)
            if inner_ok and _rounding_ok(m_sum, sum(map(abs, m_terms)), ctl):
                integral = math.exp(log_front) * m_sum
                if 0.0 < integral < math.inf:
                    total_bound = math.exp(log_front) * inner_bound
                    val = math.log(integral) / (1.0 - rho)
                    return SeriesValue(
                        val,
                        total_bound / (integral * abs(1.0 - rho)),
                        m_count,
                        "series",
                        True,
                    )
    quad = _quad(tables, lambda x: np.power(core.pdf(theta, x), rho))
    return SeriesValue(math.log(quad) / (1.0 - rho),
                       quad.tail_bound / (float(quad) * abs(1.0 - rho)),
                       quad.terms, "quadrature", quad.converged)
