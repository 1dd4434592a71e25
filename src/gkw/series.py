"""Series expansions for the generalized Kumaraswamy family.

The cdf admits the weighted expansion

    F(x) = sum_j omega_j * G1(x)^{lambda (gamma + j)},

with G1 the two-parameter Kumaraswamy cdf, and the density correspondingly
unfolds into a mixture of Kumaraswamy densities (coefficients p_k) or a
power series sum_i v_i x^{(i+1) alpha - 1}.  This module builds those
coefficient tables and the bare expansions on them: the cdf and density
expansions, quantile series coefficients, and order-statistic moments
(binomial in 1 - F).  Every other expectation takes the quadrature over
V alone (below): the ordinary moments (and the central and factorial
moments and cumulants built from them), the moment generating function,
the mean deviations, the Bonferroni and Lorenz curves, the L-moments and
the Renyi entropy.  On the test grid's laws where the paper's expansions
of them apply, that quadrature is the more accurate and the faster of
the two, and its bounds hold.

Truncation policy, implemented once in _sum_terms: infinite sums stop
at the first index where |term| < tail_tol * |partial sum| holds for 3
consecutive terms.  A stop counts as converged only where the last
ratio |t_k / t_{k-1}| is below 0.9, which bounds the tail as geometric,
t_k r / (1 - r), and where the summed terms do not cancel below
rounding (_rounding_ok, through _sum_ok).  No tail is extrapolated: the sums that decay only
algebraically (near a (1 - x)^(-1/2) singularity, say) carry no
certified bound.  So every other sum takes the one quadrature fallback,
_quad, and tags the result (method="quadrature"): each is an expectation
over V ~ Beta(gamma, delta + 1), X = x(V), by a double-exponential
trapezoid rule in logit V (core._expect).  The coefficient expansions
have finite convergence radii for some parameter points, so this is a
routine, documented event, not a warning.  Only the bare expansion
evaluators (cdf_expansion / pdf_expansion), which have nothing to fall
back on, emit a SeriesDivergenceWarning and flag the value as
unconverged.  The cdf expansion of integer delta is a finite ("exact")
sum, bounded by eps * sum |terms|, and flagged too where that sum
cancels below rounding.

Every sum-valued operation returns a SeriesValue: a float carrying the
achieved tail bound, the number of terms used, the evaluation method
("exact" | "series" | "quadrature"), and a convergence flag.

Work is shared within one call, never across calls.  Every entry point
builds one _Tables for its theta: it takes ln B(gamma, delta + 1) once,
decides which tables exist (norm_ok, v_ok), and builds each of omega, v,
the cdf series v_i/((i+1) alpha) and each moment E[X^r] at most once, on
first use.  The rows of one _quad share x, f and F = I_v on each of its
node arrays, and every _quad on one _Tables shares its node memo, so a
node array is evaluated once per call.
moments(), l_moments(), renyi_entropy() and mean_deviations() are
one-line wrappers around bodies that take a _Tables (_moments,
_l_moments, _renyi_entropy, _mean_deviations); `gkw props` builds one
_Tables and runs every verb it was asked for on it, so there the call is
the whole props call, and the mean deviations take mu_1 from the moments
memo (_Tables.mu).  Each order r takes its own _quad, as a lone
moment(theta, r) call does; l_moments() takes its ten order-statistic
moments as the rows of one _quad.  The tables are dropped when the call
returns, so a repeated call repeats the work and no memory is held.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import core
from .core import Params
from .specfun import _log1mexp_arr, ln_beta

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
    """A truncated sum did not converge: no stop with a geometric tail bound
    within max_terms, or its terms cancel below rounding."""


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


def _sum_terms(terms: np.ndarray, ctl: SeriesControl, *,
               warn_label: str | None = None, complete: bool = False) -> SeriesValue:
    """Sum a precomputed term array under the truncation rule.

    With complete=True the array is the entire (finite) sum and is added
    up directly, with eps * sum |terms| as its bound.  Otherwise it is
    the first len(terms) terms of an infinite series.  The rule stops at
    the last of the first three consecutive terms below tail_tol times
    the partial sum, k.  That stop counts only where the last ratio
    r = |t_k / t_{k-1}| is below 0.9: the tail is then bounded as
    geometric, t_k r / (1 - r).  An algebraic tail, whose ratios creep up
    to 1, can hold far more than that past the stop, so a slower stop is
    not converged; no tail is extrapolated.  A warn_label is only passed
    by callers with no quadrature fallback; everyone else inspects the
    converged flag (with _sum_ok) and reroutes silently (the method tag
    records it).
    """
    terms = np.asarray(terms, dtype=float)
    if terms.size == 0:
        return SeriesValue(0.0, 0.0, 0, "exact", True)
    if complete:
        return SeriesValue(math.fsum(terms), _EPS * float(np.abs(terms).sum()), terms.size,
                           "exact", True)
    # a non-finite partial sum is not converged (below); it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        partial = np.cumsum(terms)
    scale = ctl.tail_tol * np.maximum(np.abs(partial), 1e-300)
    # a zero partial sum means the series has not started (leading zeros),
    # and an infinite one that it has diverged: neither has converged
    small = (np.abs(terms) < scale) & (partial != 0.0) & np.isfinite(partial)
    hit = np.flatnonzero(small[2:] & small[1:-1] & small[:-2])
    if hit.size:
        k = int(hit[0]) + 2
        t_last, prev = abs(terms[k]), abs(terms[k - 1])
        ratio = t_last / prev if prev > 0 else 0.0
        if ratio < 0.9:
            bound = t_last * ratio / (1 - ratio)
            return SeriesValue(partial[k], max(bound, t_last), k + 1, "series", True)
    if warn_label:
        warnings.warn(
            f"{warn_label}: truncation criterion not met after {terms.size} terms",
            SeriesDivergenceWarning,
            stacklevel=3,
        )
    return SeriesValue(partial[-1], abs(terms[-1]) * terms.size, terms.size, "series", False)


def _sum_ok(sv: SeriesValue, terms: np.ndarray, ctl: SeriesControl) -> bool:
    """Whether sv, the truncated sum of terms, converged and did not cancel
    below rounding: _rounding_ok with the mass of the |terms| it summed."""
    return sv.converged and _rounding_ok(sv, float(np.abs(terms[: sv.terms]).sum()), ctl)


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
    with terms = nodes the rule summed and tail_bound = the change over the
    last halving plus the rounding of the sums.  Every call on one _Tables
    shares its node memo (tables.nodes), so a node array that several
    verbs' rules reach is evaluated once."""
    values, bounds, used, settled = core._expect(tables.theta, log_h, upper,
                                                 nodes=tables.nodes)
    return [SeriesValue(v, b, used, "quadrature", settled) for v, b in zip(values, bounds)]


# ----------------------------------------------------------------------
# Coefficient tables
# ----------------------------------------------------------------------


_V_DOMAIN = ("v-table requires gamma*lambda a positive integer, "
             "(delta = 0 or integer lambda) and 1/B(gamma, delta + 1) in float64 range")

class _Tables:
    """The expansion tables of one theta, decided once and built lazily.

    ln B(gamma, delta + 1) is taken once.  norm_ok says whether B and 1/B
    are finite, nonzero floats, as omega (over B) and v (times 1/B) need;
    at (2, 3, 1e4, 9999, 1), ln B = -13,866.  v_ok says whether the density
    power series exists.  omega, v, cdf_coeffs, lead and S/w are built on
    first use, at most once; only the bare expansions and the
    order-statistic series read them.  mu is a memo of E[X^r], each one
    _quad: _moments reads it first and writes every value it computes, so
    a later mean deviation takes mu_1 from it.  nodes is core._expect's
    node memo: each node array's _AtV (log w, log x and, once a rule needs
    them, log f and log F) and log-weight, shared by every _quad on these
    tables, so the moments, L-moments, entropy and mean-deviation
    quadratures of one call evaluate a node array they share once.  The
    tables, memos included, live only as long as the call that made them:
    one public function call, or one `gkw props` call, whose verbs all run
    on one _Tables.
    """

    def __init__(self, theta: Params, ctl: SeriesControl = _DEFAULT_CTL):
        g, d, l = theta.gamma, theta.delta, theta.lam
        self.theta = theta
        self.ctl = ctl
        self.ln_b = ln_beta(g, d + 1.0)
        self.norm_ok = abs(self.ln_b) < core._LOG_MAX
        self.v_ok = self.norm_ok and _is_pos_int(g * l) and (d == 0.0 or _is_pos_int(l))
        self.mu: dict[float, SeriesValue] = {}
        self.nodes: dict = {}

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
        """Density power-series coefficients v_i, i < max_terms; every
        order reads only the orders below it, so a shorter budget's table
        is the first entries of a longer one, bit for bit."""
        if not self.v_ok:
            th = self.theta
            raise ExpansionDomainError(
                f"{_V_DOMAIN}; got gamma*lambda={th.gamma * th.lam:g}, "
                f"delta={th.delta:g}, lambda={th.lam:g}")
        a, b, _, _, l = self.theta.as_tuple()
        with np.errstate(over="ignore", invalid="ignore"):
            return l * a * b * math.exp(-self.ln_b) * _v_coeffs(self, n=self.ctl.max_terms)

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


def omega_weights(theta: Params, ctl: SeriesControl = _DEFAULT_CTL) -> np.ndarray:
    """cdf-expansion weights omega_j.

    omega_j = (-1)^j C(delta, j) / [(gamma + j) B(gamma, delta + 1)], the
    generalized binomial carrying the 1/j! of the descending factorial.
    For integer delta the sequence terminates after delta + 1 entries and
    sums to exactly 1; otherwise it is truncated at max_terms.  Raises
    ExpansionDomainError where the weights do not fit in float64.
    """
    return _Tables(theta, ctl).omega


def _v_coeffs(tables: _Tables, *, n: int) -> np.ndarray:
    """Power-series density coefficients v_i, i < n, up to their constant
    factor lambda alpha beta / B(gamma, delta + 1), which _Tables.v
    applies (validity assumed checked).

    f(x) = sum_i v_i x^{(i+1) alpha - 1}.  Writing w = x^alpha and
    S(w) = 1 - (1-w)^beta, the density is (lambda alpha beta / B) *
    x^{alpha-1} T(w) with T = (1-w)^{beta-1} S^{gamma lambda - 1}
    (1 - S^lambda)^delta, so v_i is a plain Taylor coefficient of T.
    S^m factors as w^m (S/w)^m with S/w analytic and nonzero at 0, which
    is what makes the construction a finite-coefficient recurrence.  The
    first m = gamma lambda - 1 coefficients are zero, so a table of n <= m
    orders is all zeros.
    """
    _, b, g, d, l = tables.theta.as_tuple()
    m = int(round(g * l)) - 1
    v = np.zeros(n)
    if n <= m:
        return v
    # (1-w)^{beta-1}
    q = _signed_binom(b - 1.0, n)
    T = _ps_mul(q, _ps_pow(tables.s_over_w, float(m), n), n) if m > 0 else q.copy()
    if d != 0.0:
        # S^lambda = w^L (S/w)^L: its first L coefficients are zero too
        L = int(round(l))
        SL = np.zeros(n)
        if n > L:
            SL[L:] = _ps_pow(tables.s_over_w, float(L), n)[: n - L]
        U = -SL
        U[0] += 1.0
        T = _ps_mul(T, _ps_pow(U, d, n), n)
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


def moment(theta: Params, r: float) -> SeriesValue:
    """The r-th ordinary moment E[X^r], r > -alpha.

    E[x(V)^r] for V ~ Beta(gamma, delta + 1) by the one quadrature over V
    (_quad), tagged "quadrature".  The paper's expansion of it, a finite
    j-sum over omega_j for integer delta (moment_series in
    tests/crosscheck.py), is less accurate on every test-grid law where
    it applies, and its bound can miss: at one delta = 0 law it sums E[X]
    to 1 + 7.8e-13.
    """
    return moments(theta, (r,))[0]


def moments(theta: Params, rs) -> list[SeriesValue]:
    """E[X^r] for every r in rs; each value is what moment(theta, r) gives."""
    return _moments(_Tables(theta), rs)


def _moments(tables: _Tables, rs) -> list[SeriesValue]:
    """moments() on shared tables: one _quad per order not yet in the memo
    tables.mu, each kept there.  The orders' rules share the node memo, so
    a node array they all reach is evaluated once."""
    a, mu = tables.theta.alpha, tables.mu
    rs = list(rs)
    for r in rs:
        if not (r > -a):
            raise ValueError(f"moment requires r > -alpha = {-a:g}, got r={r:g}")
    for r in dict.fromkeys(rs):
        if r not in mu:
            mu[r] = _quad(tables, lambda at, r=r: r * at.log_x)[0]
    return [mu[r] for r in rs]


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


def central_moments_and_cumulants(theta: Params, up_to: int) -> tuple[list[float], list[float]]:
    """Central moments mu_s and cumulants kappa_s for s = 1..up_to (<= 6).

    Both are assembled from ordinary moments: mu_s by the binomial
    recentering sum, kappa_s by the standard conversion polynomials.
    """
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 6):
        raise ValueError(f"up_to must be an integer in 1..6, got {up_to!r}")
    orders = [float(s) for s in range(1, up_to + 1)]
    raw = [1.0] + [float(m) for m in moments(theta, orders)]
    mean = raw[1]
    central = []
    for s in range(1, up_to + 1):
        mu_s = sum(
            math.comb(s, i) * (-mean) ** i * raw[s - i] for i in range(0, s + 1)
        )
        central.append(mu_s)
    kappas = [_CUMULANT_FORMULAS[s](raw) for s in range(1, up_to + 1)]
    return central, kappas


def factorial_moment(theta: Params, r: int) -> float:
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
    raw = [1.0] + [float(m) for m in moments(theta, orders)]
    return float(sum(s[m] * raw[m] for m in range(0, r + 1)))


# ----------------------------------------------------------------------
# MGF
# ----------------------------------------------------------------------


def mgf(theta: Params, t: float) -> SeriesValue:
    """Moment generating function E[e^{tX}] = E[e^{t x(V)}], by the one
    quadrature over V (_quad), tagged "quadrature"; exactly 1 at t = 0.
    The paper's expansion of it in the density power series (mgf_series
    in tests/crosscheck.py) needs the v-table, and where it applies its
    bound missed: at Beta(5, 2) and Beta(2, 5), t = +-5, it read 0 with
    the value up to 6.1e-13 off.
    """
    if t == 0.0:
        return SeriesValue(1.0, 0.0, 0, "exact", True)
    return _quad(_Tables(theta), lambda at: t * np.exp(at.log_x))[0]


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
# Mean deviations, Bonferroni/Lorenz
# ----------------------------------------------------------------------


def _below(tables: _Tables, upper: float, log_h) -> SeriesValue:
    """E[h(X); X <= upper] = F(upper) E[h(X) | V <= G1(upper)^lambda]: the
    conditional mean by one _quad, its bound scaled by F(upper).  Exactly 0
    where F(upper) is."""
    below = core.cdf(tables.theta, upper) if upper < 1.0 else 1.0
    if below == 0.0:
        return SeriesValue(0.0, 0.0, 0, "exact", True)
    (mean,) = _quad(tables, log_h, upper)
    return SeriesValue(below * mean, below * mean.tail_bound, mean.terms, mean.method,
                       mean.converged)


def mean_deviations(theta: Params) -> tuple[SeriesValue, SeriesValue]:
    """Mean absolute deviations about the mean and about the median.

    For any c, E|X - c| = (mu - c) + 2 E[(c - X)+], and E[(c - X)+] =
    F(c) E[c - X | V <= G1(c)^lambda] is one quadrature over V (_quad) of
    a positive integrand.  delta1 takes c = mu, where the first term is 0,
    and delta2 takes c = the computed median M, at which E|X - c| is
    stationary, so the error of M enters only to second order.  Both are
    tagged "quadrature"; the bound is twice the sum of the bounds of mu
    and of E[(c - X)+], since an error in mu shifts delta1's c by as much.
    The paper's route, mu - 2 J(M) with J the incomplete first moment
    (j_series in tests/crosscheck.py), cancels: at (0.0546, 0.0767, 25.9,
    0, 0.245) it put delta2 3.0e-3 relative off with bound 1.2e-15.
    """
    return _mean_deviations(_Tables(theta))


def _mean_deviations(tables: _Tables) -> tuple[SeriesValue, SeriesValue]:
    """mean_deviations() on shared tables: mu from the moments memo."""
    (mu,) = _moments(tables, (1.0,))
    out = []
    for c in (float(mu), core.quantile(tables.theta, 0.5)):
        log_c = math.log(c) if c > 0.0 else -math.inf

        def log_gap(at):
            # log(c - x) = log c + log(1 - x / c), as x <= c below
            # G1(c)^lambda; -inf where x rounds to c
            with np.errstate(divide="ignore"):
                return log_c + _log1mexp_arr(at.log_x - log_c)

        gap = _below(tables, c, log_gap)
        out.append(SeriesValue(float(mu) - c + 2.0 * float(gap),
                               2.0 * (mu.tail_bound + gap.tail_bound), gap.terms, "quadrature",
                               mu.converged and gap.converged))
    return out[0], out[1]


def bonferroni_lorenz(theta: Params, p: float) -> tuple[SeriesValue, SeriesValue]:
    """Bonferroni B(p) = J(q)/(p mu) and Lorenz L(p) = J(q)/mu, q = Q(p),
    with J(q) = E[X; X <= q] by the one quadrature over V (_below)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    tables = _Tables(theta)
    mu = float(_moments(tables, (1.0,))[0])
    jq = _below(tables, core.quantile(theta, p), lambda at: at.log_x)
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
    """E[X_{i:n}^r] via the paper's binomial-in-(1-F) expansion.

    Expanding (1-F)^{n-i} binomially reduces the target to terms
    T_q = integral x^r d(F^q)/q = 1/q - (r/q) integral x^{r-1} F^q dx, and
    F^q is a power of the cdf power series F = x^{alpha L'} h(x^alpha)
    (leading zeros of the coefficient table factored out).  The bound is
    the q-sums' truncation bounds plus their rounding, eps sum_j |coeff_j|
    (1/q + (r/q) sum |terms|) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  Quadrature fallback (_order_stat_quad) when the
    v-table does not exist, when a q-sum fails to converge, or when its
    terms cancel below rounding (_rounding_ok).  l_moments() takes its
    order-statistic means from that quadrature alone.
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    tables = _Tables(theta, ctl)
    # no table, or max_terms within its gamma lambda - 1 leading zeros
    if not tables.v_ok or not tables.cdf_coeffs.any():
        return _order_stat_quad(tables, [(i, n)], r)[0]
    a, lead = theta.alpha, tables.lead
    h = tables.cdf_coeffs[lead:]
    s = np.arange(len(h), dtype=float)
    inv_b = math.exp(-ln_beta(float(i), float(n - i + 1)))
    total = bound = mass = 0.0
    terms_used = 0
    for j in range(0, n - i + 1):
        q = i + j
        terms = _ps_pow(h, float(q), len(h)) / (r + (s + q * (lead + 1.0)) * a)
        sv = _sum_terms(terms, ctl)
        if not _sum_ok(sv, terms, ctl):
            return _order_stat_quad(tables, [(i, n)], r)[0]
        coeff = inv_b * (-1.0) ** j * math.comb(n - i, j)
        t_q = 1.0 / q - (r / q) * float(sv)
        total += coeff * t_q
        bound += abs(coeff) * (r / q) * sv.tail_bound
        mass += abs(coeff) * (1.0 / q + (r / q) * float(np.abs(terms[: sv.terms]).sum()))
        terms_used = max(terms_used, sv.terms)
    return SeriesValue(total, bound + _EPS * mass, terms_used, "series", True)


def l_moments(theta: Params, up_to: int) -> list[SeriesValue]:
    """L-moments lambda_1..lambda_{up_to} (up_to <= 4).

    Built from first moments of order statistics:
        lambda_1 = m_{1:1},  lambda_2 = (m_{2:2} - m_{1:2}) / 2,
        lambda_3 = (m_{3:3} - 2 m_{2:3} + m_{1:3}) / 3,
        lambda_4 = (m_{4:4} - 3 m_{3:4} + 3 m_{2:4} - m_{1:4}) / 4.
    Every m_{i:n} comes from one quadrature over V (_order_stat_quad), so
    each lambda_n is tagged "quadrature", bounded by sum |c_i| times the
    changes of its m_{i:n} over the last halving, and converged where that
    quadrature settled.
    """
    return _l_moments(_Tables(theta), up_to)


def _l_moments(tables: _Tables, up_to: int) -> list[SeriesValue]:
    """l_moments() on shared tables: all m_{i:n} as rows of one _quad."""
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 4):
        raise ValueError(f"up_to must be an integer in 1..4, got {up_to!r}")
    pairs = [(i, n) for n in range(1, up_to + 1) for i in range(n, 0, -1)]
    m = dict(zip(pairs, _order_stat_quad(tables, pairs, 1.0)))
    out = []
    for n in range(1, up_to + 1):
        # lambda_n = sum_i (-1)^{n-i} C(n-1, i-1) m_{i:n} / n, from i = n down
        parts = [((-1.0) ** (n - i) * math.comb(n - 1, i - 1), m[i, n]) for i in range(n, 0, -1)]
        total = 0.0
        for c, value in parts:
            total += c * value
        out.append(SeriesValue(total / n, sum(abs(c) * v.tail_bound for c, v in parts) / n,
                               m[n, n].terms, "quadrature", m[n, n].converged))
    return out


# ----------------------------------------------------------------------
# Renyi entropy
# ----------------------------------------------------------------------


def renyi_entropy(theta: Params, rho: float) -> SeriesValue:
    """Renyi entropy J_R(rho) = log(integral f^rho) / (1 - rho).

    Existence first: f ~ x^{alpha gamma lambda - 1} at 0 and
    ~ (1-x)^{beta(delta+1)-1} at 1, so the integral of f^rho diverges
    unless rho(alpha gamma lambda - 1) > -1 and rho(beta(delta+1) - 1) >
    -1; DivergentIntegralError is raised otherwise.

    The integral is E[f(X)^{rho - 1}], taken by the one quadrature over V
    (_quad) and tagged "quadrature"; its bound is the relative change over
    the last halving, over |1 - rho|.  The paper's expansion of f^rho in
    x^alpha (renyi_series in tests/crosscheck.py) needs rho delta an
    integer; on every test-grid law where it applies, it loses to the
    quadrature in accuracy and in time.
    """
    return _renyi_entropy(_Tables(theta), rho)


def _renyi_entropy(tables: _Tables, rho: float) -> SeriesValue:
    """renyi_entropy() on shared tables."""
    if not (rho > 0.0) or rho == 1.0:
        raise ValueError(f"rho must be positive and different from 1, got {rho!r}")
    a, b, g, d, l = tables.theta.as_tuple()
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
    (quad,) = _quad(tables, lambda at: (rho - 1.0) * at.log_f)
    return SeriesValue(math.log(quad) / (1.0 - rho),
                       quad.tail_bound / (float(quad) * abs(1.0 - rho)),
                       quad.terms, "quadrature", quad.converged)
