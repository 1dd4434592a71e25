"""Series expansions for the generalized Kumaraswamy family.

The cdf admits the weighted expansion

    F(x) = sum_j omega_j * G1(x)^{lambda (gamma + j)},

with G1 the two-parameter Kumaraswamy cdf, and the density correspondingly
unfolds into a mixture of Kumaraswamy densities (coefficients p_k) or a
power series sum_i v_i x^{(i+1) alpha - 1}.  This module builds those
coefficient tables and everything derived from them: ordinary, central,
factorial moments and cumulants, the moment generating function, quantile
series coefficients, mean deviations, Bonferroni and Lorenz curves,
order-statistic moments (one route, binomial in 1 - F), L-moments, and
Renyi entropy.

Truncation policy, implemented once in _first_runs: infinite sums stop at
the first index where |term| < tail_tol * |partial sum| holds for 3
consecutive terms; _sum_terms applies it to one sum, and the moments'
m-sums and j-sums apply it to a block of rows at once.  When max_terms is
exhausted first, an algebraic tail extrapolation is attempted (the sums
here decay like j^{-s}).  Failing that, operations with an integral
representation take the one quadrature fallback, _quad, and tag the
result (method="quadrature"): each is an expectation over V ~
Beta(gamma, delta + 1), X = x(V), by a double-exponential trapezoid rule
in logit V (core._expect).  The coefficient expansions have finite
convergence radii for some parameter points, so this is a routine,
documented event, not a warning.  Only the bare expansion evaluators
(cdf_expansion / pdf_expansion), which have nothing to fall back on, emit
a SeriesDivergenceWarning and flag the value as unconverged.  Several
parameter combinations admit fully finite ("exact") evaluations and are
detected up front.  A sum of large alternating terms can also cancel
below rounding; the moment sweeps, the order-statistic q-sums, the Renyi
m-sum, the incomplete first moment, the mgf and the bare evaluators test
for that (_rounding_ok, through _sum_ok for a truncated sum) and take the
same fallback or flag.

Every sum-valued operation returns a SeriesValue: a float carrying the
achieved tail bound, the number of terms used, the evaluation method
("exact" | "series" | "quadrature"), and a convergence flag.

Work is shared within one call, never across calls.  Every entry point
builds one _Tables for its theta: it takes ln B(gamma, delta + 1) once,
decides which tables exist (norm_ok, v_ok), and builds each of omega, v,
the cdf series v_i/((i+1) alpha), the powers (S/w)^p and h^q and each
moment E[X^r] at most once, on first use; the rows of one _quad share x,
f and F = I_v on each of its node arrays.  moments(), l_moments(),
renyi_entropy() and mean_deviations() are one-line wrappers around
bodies that take a _Tables (_moments, _l_moments, _renyi_entropy,
_mean_deviations); `gkw props` builds one _Tables and runs every verb it
was asked for on it, so there the call is the whole props call, and the
mean deviations take mu_1 from the moments memo (_Tables.mu) instead of
sweeping again.  Each order r takes the
route a lone moment(theta, r) call takes; the orders that reach the
j-sweep share it, building the Beta rows a block of j at a time, one
vectorized call per block, and truncating each order's m-sums and j-sums
for the whole block with one 2-D cumsum (_first_runs); l_moments() shares
the tables among its ten order-statistic moments and sends those that
fall back to one _quad.  The tables are dropped when the call returns,
so a repeated call repeats the work and no memory is held.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core
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
    terms consumed; for quadrature, of nodes evaluated), method ("exact",
    "series" or "quadrature"), converged.
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


# Orders per block of _ps_pow's weight table: a 16 x n table, never n x n.
_ORDER_BLOCK = 16


def _ps_pow(a: np.ndarray, p: float, n: int) -> np.ndarray:
    """First n coefficients of (sum a_j x^j)^p for real p; needs a[0] != 0.

    J.C.P. Miller recurrence: c_0 = a_0^p and
        c_s = (s a_0)^{-1} sum_{j=1..s} (j(p+1) - s) a_j c_{s-j}.
    The weights (j(p+1) - s) a_j are built _ORDER_BLOCK orders at a time;
    the dot with c stays one order at a time, as the recurrence needs.
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
        a0 = float(a[0])
        for s0 in range(1, n, _ORDER_BLOCK):
            s1 = min(s0 + _ORDER_BLOCK, n)
            # row k holds (j(p+1) - s) a_j, j = 1..s1-1, for order s = s0 + k
            weights = jp[: s1 - 1] - np.arange(s0, s1)[:, None]
            weights *= a[1:s1]
            for k, s in enumerate(range(s0, s1)):
                # the reversed view c[s-1::-1] (length s) keeps NumPy's
                # sequential dot loop, so the bits match an order-at-a-time build
                c[s] = np.dot(weights[k, :s], c[s - 1 :: -1]) / (s * a0)
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
    partial, stops = _first_runs(terms[None, :], ctl)
    sv = _row_sum(terms, partial[0], int(stops[0]))
    if warn_label and not sv.converged:
        warnings.warn(
            f"{warn_label}: truncation criterion not met after {terms.size} terms",
            SeriesDivergenceWarning,
            stacklevel=3,
        )
    return sv


def _first_runs(terms: np.ndarray, ctl: SeriesControl) -> tuple[np.ndarray, np.ndarray]:
    """The truncation rule on every row of a 2-D term array at once.

    Returns the rows' partial sums and, per row, the index k of the last
    of its first three consecutive small terms (-1 where there is none).
    The cumsum runs along each row in order, so a row's partial sums are
    the bits a 1-D cumsum of that row gives.
    """
    # a non-finite partial sum is not converged (below); it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(terms, axis=1)
    scale = ctl.tail_tol * np.maximum(np.abs(partial), 1e-300)
    # a zero partial sum means the series has not started (leading zeros),
    # and an infinite one that it has diverged: neither has converged
    small = (np.abs(terms) < scale) & (partial != 0.0) & np.isfinite(partial)
    hit = small[:, 2:] & small[:, 1:-1] & small[:, :-2]
    if hit.shape[1] == 0:
        return partial, np.full(len(terms), -1)
    return partial, np.where(hit.any(axis=1), hit.argmax(axis=1) + 2, -1)


def _row_sum(terms: np.ndarray, partial: np.ndarray, k: int) -> SeriesValue:
    """_sum_terms of one row from its partial sums and _first_runs stop k."""
    if k >= 0:
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
    return SeriesValue(partial[-1], abs(terms[-1]) * terms.size, terms.size, "series", False)


def _sum_ok(sv: SeriesValue, terms: np.ndarray, ctl: SeriesControl,
            shift: float = 0.0) -> bool:
    """Whether sv, the truncated sum of terms, converged and shift + sv did
    not cancel below rounding: _rounding_ok with the mass |shift| plus the
    |terms| that sv summed."""
    return sv.converged and _rounding_ok(
        shift + sv, abs(shift) + float(np.abs(terms[: sv.terms]).sum()), ctl)


def _flag_cancellation(sv: SeriesValue, terms: np.ndarray, ctl: SeriesControl,
                       label: str) -> SeriesValue:
    """A bare expansion evaluator's sum, warned about and flagged
    unconverged where its summed terms cancel below rounding."""
    if not sv.converged or _sum_ok(sv, terms, ctl):
        return sv
    mass = float(np.abs(terms[: sv.terms]).sum())
    warnings.warn(f"{label}: terms cancel below rounding (sum of |terms| {mass:.3g})",
                  SeriesDivergenceWarning, stacklevel=3)
    return SeriesValue(sv, _EPS * mass, sv.terms, sv.method, False)


def _quad(tables: _Tables, log_h, upper: float = 1.0) -> list[SeriesValue]:
    """The one quadrature fallback: core._expect's E[h_k(V) | V <= v_a],
    v_a = G1(upper)^lambda, for each row k of log_h, tagged "quadrature"
    with terms = nodes used and tail_bound = the change over the last
    halving.  Without norm_ok, F takes the scalar kernel point by point:
    the array one stalls there (fault F3) until it iterates on an active
    set."""
    values, changes, used, settled = core._expect(tables.theta, log_h, upper,
                                                  pointwise=not tables.norm_ok)
    return [SeriesValue(v, c, used, "quadrature", settled) for v, c in zip(values, changes)]


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
    power series exists.  omega, v, cdf_coeffs and each power (S/w)^p and
    h^q are built on first use, at most once.  mu is a memo of E[X^r]:
    _moments reads it first and writes every value it computes, so a later
    mean deviation takes mu_1 from it.  The tables live only as long as the
    call that made them: one public function call, or one `gkw props` call,
    whose verbs all run on one _Tables.
    """

    def __init__(self, theta: Params, ctl: SeriesControl):
        g, d, l = theta.gamma, theta.delta, theta.lam
        self.theta = theta
        self.ctl = ctl
        self.ln_b = ln_beta(g, d + 1.0)
        self.norm_ok = abs(self.ln_b) < _LOG_MAX
        self.v_ok = self.norm_ok and _is_pos_int(g * l) and (d == 0.0 or _is_pos_int(l))
        self._a_powers: dict[float, np.ndarray] = {}
        self._powers: dict[int, np.ndarray] = {}
        self.mu: dict[float, SeriesValue] = {}

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
            return l * a * b * math.exp(-self.ln_b) * _v_coeffs(self)

    @functools.cached_property
    def cdf_coeffs(self) -> np.ndarray:
        """v_i / ((i+1) alpha): F(x) = sum_i v_i/((i+1) alpha) x^{(i+1) alpha}."""
        v = self.v
        return v / ((np.arange(len(v), dtype=float) + 1.0) * self.theta.alpha)

    @functools.cached_property
    def lead(self) -> int:
        """Exact leading zeros of cdf_coeffs (gamma*lambda - 1 of them)."""
        return int(np.flatnonzero(self.cdf_coeffs)[0])

    @functools.cached_property
    def s_over_w(self) -> np.ndarray:
        """A = S/w with S(w) = 1 - (1-w)^beta, max_terms coefficients:
        A_k = (-1)^k C(beta, k+1), A_0 = beta."""
        return -_signed_binom(self.theta.beta, self.ctl.max_terms + 1)[1:]

    def a_power(self, p: float) -> np.ndarray:
        """A^p to max_terms, once per exact float p: the v-table and the
        Renyi series share a power only where their exponents' bits agree."""
        p = float(p)
        if p not in self._a_powers:
            self._a_powers[p] = _ps_pow(self.s_over_w, p, self.ctl.max_terms)
        return self._a_powers[p]

    def h_power(self, q: int) -> np.ndarray:
        """h^q, with F = x^{alpha (lead + 1)} h(x^alpha)."""
        if q not in self._powers:
            h = self.cdf_coeffs[self.lead:]
            self._powers[q] = _ps_pow(h, float(q), len(h))
        return self._powers[q]


def omega_weights(theta: Params, ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """cdf-expansion weights omega_j.

    omega_j = (-1)^j C(delta, j) / [(gamma + j) B(gamma, delta + 1)], the
    generalized binomial carrying the 1/j! of the descending factorial.
    For integer delta the sequence terminates after delta + 1 entries and
    sums to exactly 1; otherwise it is truncated at max_terms.  Raises
    ExpansionDomainError where the weights do not fit in float64.
    """
    return _Tables(theta, ctl).omega


def _v_coeffs(tables: _Tables) -> np.ndarray:
    """Power-series density coefficients v_i, i < max_terms, up to their
    constant factor lambda alpha beta / B(gamma, delta + 1), which
    _Tables.v applies (validity assumed checked).

    f(x) = sum_i v_i x^{(i+1) alpha - 1}.  Writing w = x^alpha and
    S(w) = 1 - (1-w)^beta, the density is (lambda alpha beta / B) *
    x^{alpha-1} T(w) with T = (1-w)^{beta-1} S^{gamma lambda - 1}
    (1 - S^lambda)^delta, so v_i is a plain Taylor coefficient of T.
    S^m factors as w^m (S/w)^m with S/w analytic and nonzero at 0, which
    is what makes the construction a finite-coefficient recurrence.
    """
    _, b, g, d, l = tables.theta.as_tuple()
    n = tables.ctl.max_terms
    m = int(round(g * l)) - 1
    # (1-w)^{beta-1}
    q = _signed_binom(b - 1.0, n)
    T = _ps_mul(q, tables.a_power(m), n) if m > 0 else q.copy()
    if d != 0.0:
        L = int(round(l))
        SL = np.zeros(n)
        SL[L:] = tables.a_power(L)[: n - L]
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


def _psi_moments(psis: np.ndarray, rows: np.ndarray, coeffs, ctl: SeriesControl) -> np.ndarray:
    """psi * M(r) = psi * sum_m (-1)^m C(rr, m) B(psi, m/b + 1) for a block
    of psi.

    This equals E[x(Y)^r] for Y ~ Beta(psi, 1), hence tends to 1 as psi
    grows.  rows is the block's :func:`_beta_rows`, at least count wide,
    and coeffs is :func:`_psi_coeffs` for rr.  Returns three rows: the
    values, their tail bounds and their convergence flags (1 or 0).  A
    truncated m-sum takes the truncation rule on all rows at once.
    """
    count, signed_binom, exact = coeffs
    if exact:
        vals = psis * (signed_binom * rows[:, :count]).sum(axis=1)
        return np.stack([vals, np.zeros(len(psis)), np.ones(len(psis))])
    terms = psis[:, None] * signed_binom * rows[:, :count]
    svs = map(_row_sum, terms, *_first_runs(terms, ctl))
    return np.array([(sv, sv.tail_bound, sv.converged) for sv in svs]).T


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
    Falls back to quadrature of E[x(V)^r] when truncation fails, and where
    the omega weights do not fit in float64 or the sum cancels below
    rounding.
    """
    return moments(theta, (r,), ctl)[0]


def moments(theta: Params, rs, ctl: SeriesControl = _DEFAULT_CTL) -> list[SeriesValue]:
    """E[X^r] for every r in rs; each value is what moment(theta, r) gives.

    The orders that reach the j-sweep share it: omega_j and the Beta rows
    B(psi_j, m/beta + 1) do not depend on r, so each is built once per call.
    """
    return _moments(_Tables(theta, ctl), rs)


def _moments(tables: _Tables, rs) -> list[SeriesValue]:
    """moments() on shared tables.  tables.mu is a memo of E[X^r]: each r
    not in it takes the finite double sum where that converges, then the
    shared j-sweep, then quadrature, and every value computed is kept."""
    theta, ctl, mu = tables.theta, tables.ctl, tables.mu
    a, b, g, d, l = theta.as_tuple()
    rs = list(rs)
    for r in rs:
        if not (r > -a):
            raise ValueError(f"moment requires r > -alpha = {-a:g}, got r={r:g}")
    todo = [r for r in dict.fromkeys(rs) if r not in mu]
    if todo:
        try:
            # Python floats: NumPy scalars would slow the finite sum's j loop
            omega = tables.omega.tolist()
        except ExpansionDomainError:
            omega = []  # no series: every r takes quadrature
        psis = [l * (g + j) for j in range(len(omega))]
        if (omega and _is_nonneg_int(d) and all(_is_pos_int(ps) for ps in psis)
                and max(psis) <= 25.0):
            # fully finite double sum; large psi cancel catastrophically
            for r in todo:
                value = _moment_finite(b, r / a, omega, psis, ctl)
                if value.converged:
                    mu[r] = value
        swept = [r for r in todo if r not in mu]
        if omega and swept:
            mu.update((r, v) for r, v in zip(swept, _moment_sweep(tables, swept))
                      if v is not None)
        for r in todo:
            if r not in mu:
                mu[r] = _quad(tables, lambda at, r=r: r * at.log_x)[0]
    return [mu[r] for r in rs]


def _moment_sweep(tables: _Tables, rs) -> list[SeriesValue | None]:
    """The j-sweep shared by the orders rs; None where an order's sum does
    not converge or cancels below rounding.

    Integer delta sums omega_j psi_j M_j over every j; general delta sums
    omega_j (psi_j M_j - 1) until the order's truncation rule fires, which
    one _first_runs per block of _ROW_BLOCK rows decides for every order
    still summing.  Its cumsum adds in order, so a stopped order's value
    is _sum_terms of its j-terms up to the stop.
    """
    a, b, g, d, l = tables.theta.as_tuple()
    ctl, omega = tables.ctl, tables.omega
    shift = 0.0 if _is_nonneg_int(d) else 1.0  # nonzero: general delta
    coeffs = [_psi_coeffs(r / a, ctl) for r in rs]
    width = max(c[0] for c in coeffs)
    n = len(omega)
    # psi_j M_j, its tail bound and its convergence flag, per order and j
    parts = np.zeros((3, len(rs), n))
    used = [n] * len(rs)
    active = list(range(len(rs)))
    for j0 in range(0, n, _ROW_BLOCK):
        j1 = min(j0 + _ROW_BLOCK, n)
        block = l * (g + np.arange(j0, j1, dtype=float))
        rows = _beta_rows(block, b, width)
        for k in active:
            parts[:, k, j0:j1] = _psi_moments(block, rows, coeffs[k], ctl)
        if shift:
            _, stops = _first_runs(omega[:j1] * (parts[0, active, :j1] - 1.0), ctl)
            for k, stop in zip(active, stops):
                if stop >= 0:
                    used[k] = int(stop) + 1
            active = [k for k, stop in zip(active, stops) if stop < 0]
            if not active:
                break
    out = []
    for k, (terms, count) in enumerate(zip(omega * (parts[0] - shift), used)):
        t = terms[:count]
        bound = np.cumsum(np.abs(omega[:count]) * parts[1, k, :count])[-1]
        if shift:
            sv = _sum_terms(t, ctl)
            value = SeriesValue(1.0 + float(sv), sv.tail_bound + bound, sv.terms, "series",
                                sv.converged)
        else:
            value = SeriesValue(np.cumsum(t)[-1], bound, n,
                                "exact" if coeffs[k][2] else "series", True)
        out.append(value if parts[2, k, :count].all() and _sum_ok(value, t, ctl) else None)
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
        if _sum_ok(sv, terms, ctl):
            return SeriesValue(math.exp(t) - t * float(sv), abs(t) * sv.tail_bound,
                               sv.terms, "series", True)
    return _quad(tables, lambda at: t * np.exp(at.log_x))[0]


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
    otherwise F(a) E[X | X <= a], the conditional mean by quadrature over
    V <= G1(a)^lambda.
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
            if _sum_ok(sv, terms, tables.ctl):
                out.append(sv)
                continue
        below = core.cdf(theta, upper) if upper < 1.0 else 1.0
        (mean,) = _quad(tables, lambda at: at.log_x, upper)
        out.append(SeriesValue(below * mean, below * mean.tail_bound, mean.terms, mean.method,
                               mean.converged))
    return out


def mean_deviations(theta: Params, ctl: SeriesControl = _DEFAULT_CTL) -> tuple[SeriesValue, SeriesValue]:
    """Mean absolute deviations about the mean and about the median.

    delta1 = 2 [mu F(mu) - J(mu)], delta2 = mu - 2 J(M) with M the median
    and J the incomplete first moment.
    """
    return _mean_deviations(_Tables(theta, ctl))


def _mean_deviations(tables: _Tables) -> tuple[SeriesValue, SeriesValue]:
    """mean_deviations() on shared tables: mu from the moments memo, J
    from tables.v."""
    theta = tables.theta
    mu = float(_moments(tables, (1.0,))[0])
    med = core.quantile(theta, 0.5)
    j_mu, j_med = _j_integrals(tables, (mu, med))
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
    tables = _Tables(theta, ctl)
    mu = float(_moments(tables, (1.0,))[0])
    q = core.quantile(theta, p)
    (jq,) = _j_integrals(tables, (q,))
    lorenz = float(jq) / mu
    bound = jq.tail_bound / mu
    return (
        SeriesValue(lorenz / p, bound / p, jq.terms, jq.method, jq.converged),
        SeriesValue(lorenz, bound, jq.terms, jq.method, jq.converged),
    )


# ----------------------------------------------------------------------
# Order statistics and L-moments
# ----------------------------------------------------------------------


def _order_stat_quad(tables: _Tables, pairs, r: float) -> list[SeriesValue]:
    """E[X_{i:n}^r] for each (i, n) in pairs by one quadrature: every row
    shares log x, log F and log(1 - F) on each node array."""
    lnbs = np.array([[ln_beta(float(i), float(n - i + 1))] for i, n in pairs])
    i, n = np.array(pairs, dtype=float).T[:, :, None]  # one row per pair

    def log_h(at):
        log_F, log_1mF = at.log_cdf
        with np.errstate(invalid="ignore"):
            return (r * at.log_x - lnbs + np.where(i > 1.0, (i - 1.0) * log_F, 0.0)
                    + np.where(n > i, (n - i) * log_1mF, 0.0))

    return _quad(tables, log_h)


def order_stat_moment_series(theta: Params, i: int, n: int, r: float,
                             ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """E[X_{i:n}^r] via the binomial-in-(1-F) route.

    Expanding (1-F)^{n-i} binomially reduces the target to terms
    T_q = integral x^r d(F^q)/q = 1/q - (r/q) integral x^{r-1} F^q dx, and
    F^q is a power of the cdf power series F = x^{alpha L'} h(x^alpha)
    (leading zeros of the coefficient table factored out).  Quadrature
    fallback when the v-table does not exist, when a q-sum fails to
    converge, or when its terms cancel below rounding (_rounding_ok).
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    tables = _Tables(theta, ctl)
    sv = _order_stat_series(tables, i, n, r)
    return sv if sv is not None else _order_stat_quad(tables, [(i, n)], r)[0]


def _order_stat_series(tables: _Tables, i: int, n: int, r: float) -> SeriesValue | None:
    """order_stat_moment_series' series route, from tables shared with
    other (i, n); None where it does not apply or converge."""
    if not tables.v_ok:
        return None
    a = tables.theta.alpha
    lead = tables.lead
    total = 0.0
    bound = 0.0
    terms_used = 0
    inv_b = math.exp(-ln_beta(float(i), float(n - i + 1)))
    for j in range(0, n - i + 1):
        q = i + j
        hq = tables.h_power(q)
        s = np.arange(len(hq), dtype=float)
        terms = hq / (r + (s + q * (lead + 1.0)) * a)
        sv = _sum_terms(terms, tables.ctl)
        if not _sum_ok(sv, terms, tables.ctl):
            return None
        coeff = inv_b * (-1.0) ** j * math.comb(n - i, j)
        t_q = 1.0 / q - (r / q) * float(sv)
        total += coeff * t_q
        bound += abs(coeff) * (r / q) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
    return SeriesValue(total, bound, terms_used, "series", True)


def l_moments(theta: Params, up_to: int, ctl: SeriesControl = _DEFAULT_CTL) -> list[SeriesValue]:
    """L-moments lambda_1..lambda_{up_to} (up_to <= 4).

    Built from first moments of order statistics:
        lambda_1 = m_{1:1},  lambda_2 = (m_{2:2} - m_{1:2}) / 2,
        lambda_3 = (m_{3:3} - 2 m_{2:3} + m_{1:3}) / 3,
        lambda_4 = (m_{4:4} - 3 m_{3:4} + 3 m_{2:4} - m_{1:4}) / 4.
    Each lambda_n is tagged "quadrature" where one of its m_{i:n} is,
    and converged where all of them are.
    """
    return _l_moments(_Tables(theta, ctl), up_to)


def _l_moments(tables: _Tables, up_to: int) -> list[SeriesValue]:
    """l_moments() on shared tables: one h^q for every series m_{i:n},
    and one quadrature for all those that fall back."""
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 4):
        raise ValueError(f"up_to must be an integer in 1..4, got {up_to!r}")
    m = {(i, n): _order_stat_series(tables, i, n, 1.0)
         for n in range(1, up_to + 1) for i in range(n, 0, -1)}
    todo = [pair for pair, value in m.items() if value is None]
    if todo:
        m.update(zip(todo, _order_stat_quad(tables, todo, 1.0)))
    out = []
    for n in range(1, up_to + 1):
        # lambda_n = sum_i (-1)^{n-i} C(n-1, i-1) m_{i:n} / n, from i = n down
        parts = [((-1.0) ** (n - i) * math.comb(n - 1, i - 1), m[i, n]) for i in range(n, 0, -1)]
        total = 0.0
        for c, value in parts:
            total += c * value
        out.append(SeriesValue(
            total / n, sum(abs(c) * v.tail_bound for c, v in parts) / n,
            max(v.terms for _, v in parts),
            "quadrature" if any(v.method == "quadrature" for _, v in parts) else "series",
            all(v.converged for _, v in parts)))
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
    fail -- quadrature of E[f(X)^{rho - 1}] takes over, tagged as such.
    """
    return _renyi_entropy(_Tables(theta, ctl), rho)


def _renyi_entropy(tables: _Tables, rho: float) -> SeriesValue:
    """renyi_entropy() on shared tables: ln B and the powers (S/w)^p."""
    if not (rho > 0.0) or rho == 1.0:
        raise ValueError(f"rho must be positive and different from 1, got {rho!r}")
    theta, ctl = tables.theta, tables.ctl
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
    log_front = rho * (math.log(l) + math.log(a) + math.log(b) - tables.ln_b) - math.log(a)
    rd = rho * d
    if b_exp > 0.0 and _is_nonneg_int(rd) and log_front < _LOG_MAX:
        N = ctl.max_terms
        a0 = (rho * (a * g * l - 1.0) + 1.0) / a
        m_count = _count(rd, ctl)
        # signed-coefficient cancellation guard: l1(A)^p_max over the
        # integral's own scale must leave headroom below 1/eps
        p_max = rho * (g * l - 1.0) + l * (m_count - 1)
        if p_max * math.log(max(float(np.abs(tables.s_over_w).sum()), 1.0)) < 27.0:
            P = tables.a_power(rho * (g * l - 1.0))
            AL = tables.a_power(l)
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
    (quad,) = _quad(tables, lambda at: (rho - 1.0) * at.log_f)
    return SeriesValue(math.log(quad) / (1.0 - rho),
                       quad.tail_bound / (float(quad) * abs(1.0 - rho)),
                       quad.terms, "quadrature", quad.converged)
