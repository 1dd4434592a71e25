"""Expectations of the generalized Kumaraswamy family by one quadrature.

Every quantity here is an expectation over the law's underlying
V ~ Beta(gamma, delta + 1), of which
X = x(V) = [1 - (1 - V^{1/lambda})^{1/beta}]^{1/alpha}: the ordinary
moments (and the central and factorial moments and cumulants built from
them), the moment generating function, the mean
deviations, the Bonferroni and Lorenz curves, the order-statistic
moments, the L-moments and the Renyi entropy.  Each takes the one
quadrature over V, _quad: a double-exponential trapezoid rule in logit V
(core._expect), tagged method="quadrature".  The paper's expansions of
these quantities (the omega-weighted cdf expansion, the density power
series, the quantile series, the binomial-in-(1 - F) order-statistic
moments, and the moment, Renyi, incomplete-first-moment and mgf series)
live in tests/crosscheck.py with their truncation rule, as references
the tests check this module against.  On the test grid's laws where they
apply, the quadrature is the more accurate and the faster route, and
its bounds hold.

Every operation returns a SeriesValue: a float carrying the achieved
error bound, the number of quadrature nodes used, the evaluation method
("exact" | "quadrature"), and a convergence flag.

Work is shared within one call, never across calls.  Every entry point
builds one _Law for its theta: mu is a memo of each moment E[X^r] and
nodes is core._expect's node memo, so every _quad on one _Law evaluates
a node array once.  The rows of one _quad share x, f and F = I_v on each
of its node arrays.  moments(), l_moments(), renyi_entropy() and
mean_deviations() are one-line wrappers around bodies that take a _Law
(_moments, _l_moments, _renyi_entropy, _mean_deviations); `gkw props`
builds one _Law and runs every verb it was asked for on it, so there the
call is the whole props call, and the mean deviations take mu_1 from the
moments memo.  Each order r takes its own _quad, as a lone
moment(theta, r) call does; l_moments() takes its ten order-statistic
moments as the rows of one _quad.  The memos are dropped when the call
returns, so a repeated call repeats the work and no memory is held.
"""

from __future__ import annotations

import math

import numpy as np

from . import core
from .core import Params
from .specfun import _log1mexp_arr, ln_beta

__all__ = [
    "SeriesValue",
    "DivergentIntegralError",
    "moment",
    "moments",
    "central_moments_and_cumulants",
    "factorial_moment",
    "mgf",
    "mean_deviations",
    "bonferroni_lorenz",
    "order_stat_moment_series",
    "l_moments",
    "renyi_entropy",
]


class DivergentIntegralError(ValueError):
    """The requested integral does not exist (endpoint non-integrable)."""


class SeriesValue(float):
    """A float annotated with how it was obtained.

    Attributes: tail_bound (estimated error), terms (number of
    terms consumed; for quadrature, of nodes evaluated), method ("exact"
    or "quadrature"; the paper's expansions in tests/crosscheck.py tag
    theirs "series"), converged.
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


class _Law:
    """One theta and the memos of one call.

    mu is a memo of E[X^r], each one _quad: _moments reads it first and
    writes every value it computes, so a later mean deviation takes mu_1
    from it.  nodes is core._expect's node memo: each node array's _AtV
    (log w, log x and, once a rule needs them, log f and log F) and
    log-weight, shared by every _quad on this law, so the moments,
    L-moments, entropy and mean-deviation quadratures of one call evaluate
    a node array they share once.  A _Law lives only as long as the call
    that made it: one public function call, or one `gkw props` call, whose
    verbs all run on one _Law.
    """

    def __init__(self, theta: Params):
        self.theta = theta
        self.mu: dict[float, SeriesValue] = {}
        self.nodes: dict = {}


def _quad(law: _Law, log_h, upper: float = 1.0) -> list[SeriesValue]:
    """The one quadrature: core._expect's E[h_k(V) | V <= v_a],
    v_a = G1(upper)^lambda, for each row k of log_h, tagged "quadrature"
    with terms = nodes the rule summed and tail_bound = the change over the
    last halving plus the rounding of the sums.  Every call on one _Law
    shares its node memo (law.nodes), so a node array that several
    verbs' rules reach is evaluated once."""
    values, bounds, used, settled = core._expect(law.theta, log_h, upper,
                                                 nodes=law.nodes)
    return [SeriesValue(v, b, used, "quadrature", settled) for v, b in zip(values, bounds)]


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
    return _moments(_Law(theta), rs)


def _moments(law: _Law, rs) -> list[SeriesValue]:
    """moments() on a shared law: one _quad per order not yet in the memo
    law.mu, each kept there.  The orders' rules share the node memo, so
    a node array they all reach is evaluated once."""
    a, mu = law.theta.alpha, law.mu
    rs = list(rs)
    for r in rs:
        if not (r > -a):
            raise ValueError(f"moment requires r > -alpha = {-a:g}, got r={r:g}")
    for r in dict.fromkeys(rs):
        if r not in mu:
            mu[r] = _quad(law, lambda at, r=r: r * at.log_x)[0]
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
    return _quad(_Law(theta), lambda at: t * np.exp(at.log_x))[0]


# ----------------------------------------------------------------------
# Mean deviations, Bonferroni/Lorenz
# ----------------------------------------------------------------------


def _below(law: _Law, upper: float, log_h) -> SeriesValue:
    """E[h(X); X <= upper] = F(upper) E[h(X) | V <= G1(upper)^lambda]: the
    conditional mean by one _quad, its bound scaled by F(upper).  Exactly 0
    where F(upper) is."""
    below = core.cdf(law.theta, upper) if upper < 1.0 else 1.0
    if below == 0.0:
        return SeriesValue(0.0, 0.0, 0, "exact", True)
    (mean,) = _quad(law, log_h, upper)
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
    return _mean_deviations(_Law(theta))


def _mean_deviations(law: _Law) -> tuple[SeriesValue, SeriesValue]:
    """mean_deviations() on a shared law: mu from the moments memo."""
    (mu,) = _moments(law, (1.0,))
    out = []
    for c in (float(mu), core.quantile(law.theta, 0.5)):
        log_c = math.log(c) if c > 0.0 else -math.inf

        def log_gap(at):
            # log(c - x) = log c + log(1 - x / c), as x <= c below
            # G1(c)^lambda; -inf where x rounds to c
            with np.errstate(divide="ignore"):
                return log_c + _log1mexp_arr(at.log_x - log_c)

        gap = _below(law, c, log_gap)
        out.append(SeriesValue(float(mu) - c + 2.0 * float(gap),
                               2.0 * (mu.tail_bound + gap.tail_bound), gap.terms, "quadrature",
                               mu.converged and gap.converged))
    return out[0], out[1]


def bonferroni_lorenz(theta: Params, p: float) -> tuple[SeriesValue, SeriesValue]:
    """Bonferroni B(p) = J(q)/(p mu) and Lorenz L(p) = J(q)/mu, q = Q(p),
    with J(q) = E[X; X <= q] by the one quadrature over V (_below)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    law = _Law(theta)
    mu = float(_moments(law, (1.0,))[0])
    jq = _below(law, core.quantile(theta, p), lambda at: at.log_x)
    lorenz = float(jq) / mu
    bound = jq.tail_bound / mu
    return (
        SeriesValue(lorenz / p, bound / p, jq.terms, jq.method, jq.converged),
        SeriesValue(lorenz, bound, jq.terms, jq.method, jq.converged),
    )


# ----------------------------------------------------------------------
# Order statistics and L-moments
# ----------------------------------------------------------------------


def _order_stat_quad(law: _Law, pairs, r: float) -> list[SeriesValue]:
    """E[X_{i:n}^r] for each (i, n) in pairs by one quadrature: every row
    shares log x, log F and log(1 - F) on each node array."""
    lnbs = np.array([[ln_beta(float(i), float(n - i + 1))] for i, n in pairs])
    i, n = np.array(pairs, dtype=float).T[:, :, None]  # one row per pair

    def log_h(at):
        log_F, log_1mF = at.log_cdf
        with np.errstate(invalid="ignore"):
            return (r * at.log_x - lnbs + np.where(i > 1.0, (i - 1.0) * log_F, 0.0)
                    + np.where(n > i, (n - i) * log_1mF, 0.0))

    return _quad(law, log_h)


def order_stat_moment_series(theta: Params, i: int, n: int, r: float) -> SeriesValue:
    """E[X_{i:n}^r], r > 0, by the one quadrature over V (_order_stat_quad),
    tagged "quadrature"; l_moments() takes its order-statistic means from
    the same rule.  The paper's expansion of it, binomial in 1 - F over the
    cdf power series (order_stat_series in tests/crosscheck.py), needs the
    density power series; where it applies, its q-sums still cancel below
    rounding at some laws (beta25 from n = 3 on, ekw at n = 4).
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    return _order_stat_quad(_Law(theta), [(i, n)], r)[0]


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
    return _l_moments(_Law(theta), up_to)


def _l_moments(law: _Law, up_to: int) -> list[SeriesValue]:
    """l_moments() on a shared law: all m_{i:n} as rows of one _quad."""
    if not (isinstance(up_to, (int, np.integer)) and 1 <= up_to <= 4):
        raise ValueError(f"up_to must be an integer in 1..4, got {up_to!r}")
    pairs = [(i, n) for n in range(1, up_to + 1) for i in range(n, 0, -1)]
    m = dict(zip(pairs, _order_stat_quad(law, pairs, 1.0)))
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
    return _renyi_entropy(_Law(theta), rho)


def _renyi_entropy(law: _Law, rho: float) -> SeriesValue:
    """renyi_entropy() on a shared law."""
    if not (rho > 0.0) or rho == 1.0:
        raise ValueError(f"rho must be positive and different from 1, got {rho!r}")
    a, b, g, d, l = law.theta.as_tuple()
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
    (quad,) = _quad(law, lambda at: (rho - 1.0) * at.log_f)
    return SeriesValue(math.log(quad) / (1.0 - rho),
                       quad.tail_bound / (float(quad) * abs(1.0 - rho)),
                       quad.terms, "quadrature", quad.converged)
