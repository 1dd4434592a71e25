"""Reference routes that the tests check the library against: finite
differences, Monte Carlo order-statistic means, the survival-power
route to order-statistic moments, and the paper's expansions with their
truncation rule: the omega-weighted cdf expansion, the density power
series and its Kumaraswamy-mixture form, the quantile series, the
binomial-in-(1 - F) order-statistic moments, and the series for the
moments, the Renyi entropy, the incomplete first moment and the mgf.

Importable module (not collected: its name does not start with test_).
None of this ships in the package; the library has one route per
quantity, the quadrature over V of gkw.series, and these are the
independent ones.  ``same_bits`` compares a rewritten kernel with its
reference to the bit; ``reg_inc_beta_arr_alloc`` and ``betacf_arr_alloc``
are the array incomplete beta as it was before it worked in place, the
reference its in-place form must match.

The expansions.  The cdf admits the weighted expansion

    F(x) = sum_j omega_j * G1(x)^{lambda (gamma + j)},

with G1 the two-parameter Kumaraswamy cdf, and the density
correspondingly unfolds into a mixture of Kumaraswamy densities
(coefficients p_k) or a power series sum_i v_i x^{(i+1) alpha - 1}.
ExpansionTables builds omega, v and the cdf series v_i/((i+1) alpha) of
one theta, each at most once, on first use; it takes ln B(gamma,
delta + 1) once and decides which tables exist (norm_ok, v_ok).

Truncation policy, implemented once in _sum_terms: infinite sums stop
at the first index where |term| < tail_tol * |partial sum| holds for 3
consecutive terms.  A stop counts as converged only where the last
ratio |t_k / t_{k-1}| is below 0.9, which bounds the tail as geometric,
t_k r / (1 - r), and where the summed terms do not cancel below
rounding (_rounding_ok, through _sum_ok).  No tail is extrapolated: the
sums that decay only algebraically (near a (1 - x)^(-1/2) singularity,
say) carry no certified bound.  The order-statistic routes fall back to
the library's quadrature where a sum fails, and tag the value
"quadrature"; the other series references return None.  Only the bare
expansion evaluators (cdf_expansion / pdf_expansion), which have nothing
to fall back on, emit a SeriesDivergenceWarning and flag the value as
unconverged.  The cdf expansion of integer delta is a finite ("exact")
sum, bounded by eps * sum |terms|, and flagged too where that sum
cancels below rounding.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from gkw import core, series, specfun
from gkw.core import Params
from gkw.series import SeriesValue
from gkw.specfun import ln_beta


def same_bits(got, want) -> bool:
    """Equal shape and float bits, with NaN equal to NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    nan = np.isnan(got) & np.isnan(want)
    return np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


def reg_inc_beta_arr_alloc(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """specfun._reg_inc_beta_arr with a fresh array for every operation."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    direct = x <= a / (a + b)
    for flip in (False, True):
        sel = direct if not flip else ~direct
        if not np.any(sel):
            continue
        if flip:
            xa, aa, bb = 1.0 - x[sel], b, a
        else:
            xa, aa, bb = x[sel], a, b
        val = betacf_arr_alloc(aa, bb, xa)
        with np.errstate(divide="ignore"):
            lf = aa * np.log(xa) + bb * np.log1p(-xa) - ln_beta(aa, bb)
        res = np.where(xa > 0.0, np.exp(lf) / aa * val, 0.0)
        res = np.clip(res, 0.0, 1.0)
        out[sel] = 1.0 - res if flip else res
    out[x == 0.0] = 0.0
    out[x == 1.0] = 1.0
    return out


def betacf_arr_alloc(a: float, b: float, x: np.ndarray) -> np.ndarray:
    """specfun._betacf_arr with a fresh array for every operation and the
    _FPMIN guard applied at every step."""
    fpmin, eps = specfun._FPMIN, specfun._EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copysign(np.maximum(np.abs(d), fpmin), d, out=d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, specfun._ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copysign(np.maximum(np.abs(d), fpmin), d, out=d)
        c = 1.0 + aa / c
        np.copysign(np.maximum(np.abs(c), fpmin), c, out=c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copysign(np.maximum(np.abs(d), fpmin), d, out=d)
        c = 1.0 + aa / c
        np.copysign(np.maximum(np.abs(c), fpmin), c, out=c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < 3.0 * eps):
            return h
    raise specfun.NonConvergenceError(
        f"vectorized incomplete beta continued fraction stalled at a={a}, b={b}"
    )


def fd_grad(f, x, h_rel: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    Step per coordinate is h_rel * max(1, |x_i|).  Raises if the
    function comes back non-finite at a probe point, naming the
    coordinate, since silently returning NaN derivatives has a habit of
    burying the actual failure several layers up.
    """
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = h_rel * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = f(xp), f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(
                f"non-finite evaluation while differencing coordinate {i} "
                f"(f+={fp!r}, f-={fm!r})"
            )
        g[i] = (fp - fm) / (2.0 * h)
    return g


def fd_hess(f, x, h_rel: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian (symmetric by construction)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.empty((n, n))
    hs = np.array([h_rel * max(1.0, abs(xi)) for xi in x])
    f0 = f(x)
    if not math.isfinite(f0):
        raise ValueError(f"non-finite evaluation at the expansion point: {f0!r}")
    for i in range(n):
        xp, xm = x.copy(), x.copy()
        xp[i] += hs[i]
        xm[i] -= hs[i]
        fp, fm = f(xp), f(xm)
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise ValueError(f"non-finite evaluation while differencing coordinate {i}")
        H[i, i] = (fp - 2.0 * f0 + fm) / hs[i] ** 2
    for i in range(n):
        for j in range(i + 1, n):
            xpp, xpm, xmp, xmm = x.copy(), x.copy(), x.copy(), x.copy()
            xpp[[i, j]] += [hs[i], hs[j]]
            xpm[i] += hs[i]
            xpm[j] -= hs[j]
            xmp[i] -= hs[i]
            xmp[j] += hs[j]
            xmm[[i, j]] -= [hs[i], hs[j]]
            vals = [f(xpp), f(xpm), f(xmp), f(xmm)]
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(
                    f"non-finite evaluation while differencing coordinates ({i}, {j})"
                )
            H[i, j] = H[j, i] = (vals[0] - vals[1] - vals[2] + vals[3]) / (
                4.0 * hs[i] * hs[j]
            )
    return H


def mc_order_stat_mean(theta: Params, i: int, n: int, r: float,
                       n_rep: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of E[X_{i:n}^r] with its standard error.

    Draws n_rep independent samples of size n, sorts each, and averages
    the r-th power of the i-th smallest value.  Returns (mean, se).
    """
    if not (1 <= i <= n):
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    draws = core.sample(theta, n_rep * n, seed).reshape(n_rep, n)
    draws.sort(axis=1)
    vals = draws[:, i - 1] ** r
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_rep))
    return mean, se




# ----------------------------------------------------------------------
# The paper's expansions and their truncation rule
# ----------------------------------------------------------------------


class SeriesDivergenceWarning(RuntimeWarning):
    """A truncated sum did not converge: no stop with a geometric tail bound
    within max_terms, or its terms cancel below rounding."""


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


_V_DOMAIN = ("v-table requires gamma*lambda a positive integer, "
             "(delta = 0 or integer lambda) and 1/B(gamma, delta + 1) in float64 range")


class ExpansionTables:
    """The expansion tables of one theta, decided once and built lazily.

    ln B(gamma, delta + 1) is taken once.  norm_ok says whether B and 1/B
    are finite, nonzero floats, as omega (over B) and v (times 1/B) need;
    at (2, 3, 1e4, 9999, 1), ln B = -13,866.  v_ok says whether the density
    power series exists.  omega, v, cdf_coeffs, lead and S/w are built on
    first use, at most once, and live as long as the object.
    """

    def __init__(self, theta: Params, ctl: SeriesControl = _DEFAULT_CTL):
        g, d, l = theta.gamma, theta.delta, theta.lam
        self.theta = theta
        self.ctl = ctl
        self.ln_b = ln_beta(g, d + 1.0)
        self.norm_ok = abs(self.ln_b) < core._LOG_MAX
        self.v_ok = self.norm_ok and _is_pos_int(g * l) and (d == 0.0 or _is_pos_int(l))

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
    return ExpansionTables(theta, ctl).omega


def _v_coeffs(tables: ExpansionTables, *, n: int) -> np.ndarray:
    """Power-series density coefficients v_i, i < n, up to their constant
    factor lambda alpha beta / B(gamma, delta + 1), which ExpansionTables.v
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
    tables = ExpansionTables(theta, ctl)
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
    omega = ExpansionTables(theta, ctl).omega
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
    v = ExpansionTables(theta, ctl).v
    i = np.arange(len(v), dtype=float)
    terms = v * np.power(x, (i + 1.0) * theta.alpha - 1.0)
    return _flag_cancellation(_sum_terms(terms, ctl, warn_label="pdf_expansion"), terms, ctl,
                              "pdf_expansion")


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


def order_stat_series(theta: Params, i: int, n: int, r: float,
                      ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """E[X_{i:n}^r] via the paper's binomial-in-(1-F) expansion.

    Expanding (1-F)^{n-i} binomially reduces the target to terms
    T_q = integral x^r d(F^q)/q = 1/q - (r/q) integral x^{r-1} F^q dx, and
    F^q is a power of the cdf power series F = x^{alpha L'} h(x^alpha)
    (leading zeros of the coefficient table factored out).  The bound is
    the q-sums' truncation bounds plus their rounding, eps sum_j |coeff_j|
    (1/q + (r/q) sum |terms|) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 4).  Where the v-table does not exist, a q-sum fails
    to converge, or its terms cancel below rounding (_rounding_ok), the
    value is the library's order-statistic quadrature.
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r!r}")
    tables = ExpansionTables(theta, ctl)
    # no table, or max_terms within its gamma lambda - 1 leading zeros
    if not tables.v_ok or not tables.cdf_coeffs.any():
        return series.order_stat_moment_series(theta, i, n, r)
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
            return series.order_stat_moment_series(theta, i, n, r)
        coeff = inv_b * (-1.0) ** j * math.comb(n - i, j)
        t_q = 1.0 / q - (r / q) * float(sv)
        total += coeff * t_q
        bound += abs(coeff) * (r / q) * sv.tail_bound
        mass += abs(coeff) * (1.0 / q + (r / q) * float(np.abs(terms[: sv.terms]).sum()))
        terms_used = max(terms_used, sv.terms)
    return SeriesValue(total, bound + _EPS * mass, terms_used, "series", True)


def order_stat_moment_barakat(theta: Params, i: int, n: int, r: int,
                              ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue:
    """E[X_{i:n}^r] via the survival-power route (Barakat & Abdelkader,
    Stat. Methods Appl. 13, 2004).

    E = r sum_{p=n-i+1}^{n} (-1)^{p-(n-i+1)} C(p-1, n-i) C(n, p) I_p(r)
    with I_p(r) = integral_0^1 x^{r-1} (1-F)^p dx.  In w = x^alpha,
    1 - F = 1 - w^{L+1} h(w) with L = gamma*lambda - 1 leading zeros of
    the cdf table, so (1-F)^p = 1 + w^{L+1} g_p(w) and I_p(r) = 1/r plus
    the g_p sum; summing g_p from its first nonzero coefficient keeps the
    small-terms rule off those zeros.  Where F is a polynomial in w (beta
    and delta integers, degree D = beta lambda (gamma + delta)), (1-F)^p
    has interior zero runs that the rule would also stop on, so it is
    summed whole.  Where an I_p sum does not converge or cancels below
    rounding, the value is the library's order-statistic quadrature.
    """
    if not (isinstance(i, (int, np.integer)) and isinstance(n, (int, np.integer))
            and 1 <= i <= n):
        raise ValueError(f"order statistic needs integers 1 <= i <= n, got i={i!r}, n={n!r}")
    if not (isinstance(r, (int, np.integer)) and r >= 1):
        raise ValueError(f"r must be a positive integer, got {r!r}")
    tables = ExpansionTables(theta, ctl)
    if not tables.v_ok:
        return series.order_stat_moment_series(theta, i, n, float(r))
    a, b, g, d, l = theta.as_tuple()
    lead = tables.lead
    deg = None
    if _is_pos_int(b) and _is_nonneg_int(d) and b * l * (g + d) <= ctl.max_terms:
        deg = round(b * l * (g + d))
    H = np.concatenate(([1.0], -tables.cdf_coeffs[:deg]))  # 1 - F in powers of w
    total = 0.0
    bound = 0.0
    terms_used = 0
    for p in range(n - i + 1, n + 1):
        Hp = _ps_pow(H, float(p), p * deg + 1 if deg else len(H))
        s = np.arange(lead + 1, len(Hp), dtype=float)
        terms = Hp[lead + 1:] / (r + s * a)
        sv = _sum_terms(terms, ctl, complete=deg is not None)
        i_p = 1.0 / r + float(sv)
        mass = 1.0 / r + float(np.abs(terms[: sv.terms]).sum())
        if not (sv.converged and _rounding_ok(i_p, mass, ctl)):
            return series.order_stat_moment_series(theta, i, n, float(r))
        coeff = r * (-1.0) ** (p - (n - i + 1)) * math.comb(p - 1, n - i) * math.comb(n, p)
        total += coeff * i_p
        bound += abs(coeff) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
    return SeriesValue(total, bound, terms_used, "series", True)


def moment_series(theta: Params, r: float,
                  ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue | None:
    """E[X^r] by the paper's expansion for integer delta; None where it
    does not apply or does not converge.

    E[X^r] = sum_j omega_j psi_j M_j(r), psi_j = lambda (gamma + j), a
    finite j-sum: psi_j M_j(r) is E[X^r] under the cdf G1^psi_j.  Where
    every psi_j is an integer, M_j(r) is the finite Kumaraswamy-mixture
    sum sum_k (-1)^k C(psi_j - 1, k) beta B(1 + r/alpha, (k + 1) beta);
    otherwise M_j(r) = sum_m (-1)^m C(r/alpha, m) B(psi_j, m/beta + 1),
    which terminates where r/alpha is a nonnegative integer and is
    truncated by _sum_terms otherwise.  None where delta is not
    an integer, the omega weights do not fit in float64, or a sum does
    not converge or cancels below rounding.
    """
    a, b, g, d, l = theta.as_tuple()
    if not _is_nonneg_int(d):
        return None
    try:
        omega = omega_weights(theta, ctl)
    except ExpansionDomainError:
        return None
    rr = r / a
    psis = [l * (g + j) for j in range(len(omega))]
    mixture = all(_is_pos_int(psi) for psi in psis)
    total = bound = mass = 0.0
    for om, psi in zip(omega, psis):
        if mixture:
            coeffs = _signed_binom(psi - 1.0, round(psi))
            terms = np.array([psi * c * b * math.exp(ln_beta(1.0 + rr, (k + 1.0) * b))
                              for k, c in enumerate(coeffs)])
        else:
            coeffs = _signed_binom(rr, _count(rr, ctl))
            terms = np.array([psi * c * math.exp(ln_beta(psi, m / b + 1.0))
                              for m, c in enumerate(coeffs)])
        sv = _sum_terms(terms, ctl, complete=mixture or _is_nonneg_int(rr))
        if not _sum_ok(sv, terms, ctl):
            return None
        total += om * float(sv)
        bound += abs(om) * sv.tail_bound
        mass += abs(om * float(sv))
    if not _rounding_ok(total, mass, ctl):
        return None
    return SeriesValue(total, bound + _EPS * mass, len(omega), "series", True)


def renyi_series(theta: Params, rho: float,
                 ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue | None:
    """Renyi entropy J_R(rho) = log(integral f^rho) / (1 - rho) by the
    paper's expansion of f^rho in w = x^alpha; None where the expansion
    does not apply or does not converge.  The integral must exist.

    (1 - S^lambda)^{rho delta} expands binomially in S^lambda = w^lambda
    A^lambda (A = S/w analytic, A(0) = beta), each term integrating to a
    beta function B(a_m + s, b') with b' = rho(beta-1) + 1.  It applies
    where rho*delta is a nonnegative integer (finite m-sum), b' > 0, the
    front factor (lambda alpha beta / B)^rho / alpha is a finite float,
    and the powers A^{p_m} stay small enough that their signed
    coefficients do not cancel away the result.
    """
    a, b, g, d, l = theta.as_tuple()
    tables = ExpansionTables(theta, ctl)
    b_exp = rho * (b - 1.0) + 1.0
    log_front = rho * (math.log(l) + math.log(a) + math.log(b) - tables.ln_b) - math.log(a)
    rd = rho * d
    if not (b_exp > 0.0 and _is_nonneg_int(rd) and log_front < core._LOG_MAX):
        return None
    N = ctl.max_terms
    a0 = (rho * (a * g * l - 1.0) + 1.0) / a
    m_count = _count(rd, ctl)
    # signed-coefficient cancellation guard: l1(A)^p_max over the
    # integral's own scale must leave headroom below 1/eps
    p_max = rho * (g * l - 1.0) + l * (m_count - 1)
    if p_max * math.log(max(float(np.abs(tables.s_over_w).sum()), 1.0)) >= 27.0:
        return None
    Pm = _ps_pow(tables.s_over_w, rho * (g * l - 1.0), N)
    AL = _ps_pow(tables.s_over_w, float(l), N)
    s = np.arange(N, dtype=float)
    binom_m = 1.0
    inner_bound = 0.0
    m_terms = []
    for mm in range(m_count):
        if mm > 0:
            binom_m *= (rd - (mm - 1)) / mm
            Pm = _ps_mul(Pm, AL, N)
        terms = Pm * np.exp([ln_beta(c, b_exp) for c in a0 + l * mm + s])
        sv = _sum_terms(terms, ctl)
        if not _sum_ok(sv, terms, ctl):
            return None
        inner_bound += abs(binom_m) * sv.tail_bound
        m_terms.append((-1.0) ** mm * binom_m * float(sv))
    m_sum = math.fsum(m_terms)
    integral = math.exp(log_front) * m_sum
    if not (_rounding_ok(m_sum, sum(map(abs, m_terms)), ctl)
            and 0.0 < integral < math.inf):
        return None
    bound = math.exp(log_front) * inner_bound / (integral * abs(1.0 - rho))
    return SeriesValue(math.log(integral) / (1.0 - rho), bound, m_count, "series", True)


def j_series(theta: Params, upper: float,
             ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue | None:
    """J(a) = E[X; X <= a] by the paper's expansion in the density power
    series, sum_i v_i a^{(i+1) alpha + 1} / ((i+1) alpha + 1); None where
    the v-table does not exist, a is not inside (0, 1), or the sum does not
    converge or cancels below rounding."""
    tables = ExpansionTables(theta, ctl)
    if not (tables.v_ok and 0.0 < upper < 1.0):
        return None
    expo = (np.arange(ctl.max_terms, dtype=float) + 1.0) * theta.alpha + 1.0
    terms = tables.v * np.power(upper, expo) / expo
    sv = _sum_terms(terms, ctl)
    return sv if _sum_ok(sv, terms, ctl) else None


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


def mgf_series(theta: Params, t: float,
               ctl: SeriesControl = _DEFAULT_CTL) -> SeriesValue | None:
    """E[e^{tX}] by the paper's density power series, integrated by parts:
    M(t) = e^t - t sum_i v*_i Phi_{(i+1) alpha + 1}(t), v*_i = v_i / ((i+1)
    alpha), whose terms decay one power faster than those of the plain
    kernel sum, as sum_i v*_i = 1; None where the v-table does not exist
    or the sum does not converge or cancels below rounding."""
    tables = ExpansionTables(theta, ctl)
    if not tables.v_ok:
        return None
    vstar = tables.cdf_coeffs
    phis = np.array([_phi_kernel((i + 1.0) * theta.alpha + 1.0, t) for i in range(len(vstar))])
    terms = vstar * phis
    sv = _sum_terms(terms, ctl)
    if not _sum_ok(sv, terms, ctl):
        return None
    return SeriesValue(math.exp(t) - t * float(sv), abs(t) * sv.tail_bound, sv.terms,
                              "series", True)
