"""Self-contained special-function kernel.

Everything here is implemented from scratch so that results are
bit-for-bit reproducible and carry no external math dependency:
Lanczos log-gamma, continued-fraction regularized incomplete beta with
the usual symmetry switch, a bracketed Newton inverse for single points
and a bracketed Halley inverse for arrays (Press et al., Numerical
Recipes 3rd ed. section 6.14, from the normal-approximation start of
Abramowitz & Stegun 26.5.22 where both shapes are at least 1), both
closed-form where a shape is 1, recurrence plus asymptotic-series digamma/trigamma, and series /
continued-fraction incomplete gamma.

Accuracy targets: ln_gamma 1e-13 (absolute for moderate arguments,
relative for large ones where float64 spacing dominates),
reg_inc_beta 1e-12 absolute, inv_reg_inc_beta 1e-10 in function value,
digamma/trigamma 1e-10 absolute.

All functions are pure; scalar entry points take any real Python or
NumPy scalar, as core.Params does, and return Python floats, and the
three log-space helpers also take arrays (they wrap their array
kernels).  A few array variants (prefixed ``_``) exist for the hot paths
of the sampler and are verified against the scalar versions in the tests.
``_ln_gamma``, ``_ln_beta`` and ``_digamma_diff`` are the public
functions' arithmetic without their argument checks, for the
log-likelihood pass and score, which call them with the shapes of a
validated Params; the public functions call them after checking.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonConvergenceError",
    "ln_gamma",
    "beta_fn",
    "ln_beta",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "digamma",
    "trigamma",
    "digamma_diff",
    "trigamma_diff",
    "lower_inc_gamma",
    "reg_lower_inc_gamma",
    "reg_upper_inc_gamma",
    "log1mexp",
    "log_neg_log1mexp",
    "log1mexp_tiny",
]

_EPS = 2.220446049250313e-16  # float64 machine epsilon
_FPMIN = 1e-300  # guard against division underflow in Lentz recurrences
_ITMAX = 500  # continued-fraction steps before NonConvergenceError
_NEWTON_ITMAX = 200  # Newton/bisection steps of the scalar inverse
_LN_SQRT_2PI = 0.9189385332046727417803297364056176

# Lanczos approximation, g = 7, 9 coefficients: relative error < 1e-14
# over the positive half-line once the z < 0.5 recurrence is applied.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


class NonConvergenceError(RuntimeError):
    """An iteration failed to meet its tolerance within max_iter.

    Carries the last bracketing interval (if any) in ``bracket``.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


# The real scalars the public functions take, as core.Params does: Python
# and NumPy integers and floats, each used as a Python float.
_REALS = (int, float, np.integer, np.floating)


def _check_positive(name: str, x: float) -> float:
    """x as a Python float; ValueError unless it is a positive finite real
    scalar."""
    if not (isinstance(x, _REALS) and math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")
    return float(x)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    return _ln_gamma(_check_positive("x", x))


_C0, _C1, _C2, _C3, _C4, _C5, _C6, _C7, _C8 = _LANCZOS_C


def _ln_gamma(x: float) -> float:
    """:func:`ln_gamma` without the argument check, the Lanczos sum
    unrolled in the order of its coefficients."""
    if x < 0.5:
        # push into the Lanczos sweet spot; exact up to rounding
        return _ln_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = (_C0 + _C1 / (z + 1.0) + _C2 / (z + 2.0) + _C3 / (z + 3.0) + _C4 / (z + 4.0)
           + _C5 / (z + 5.0) + _C6 / (z + 6.0) + _C7 / (z + 7.0) + _C8 / (z + 8.0))
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _stirling_tail(z: float) -> float:
    """Remainder S(z) in ln Gamma(z) = (z-1/2)ln z - z + ln sqrt(2pi) + S(z)."""
    w = 1.0 / (z * z)
    return (1.0 / 12.0 - (1.0 / 360.0 - w / 1260.0) * w) / z


def ln_beta(a: float, b: float) -> float:
    """log B(a, b), evaluated entirely in log space.

    For max(a, b) >= 1e5 the naive three-term ln-gamma form loses the
    result in cancellation (each term grows like z ln z while log B
    stays O(min ln max)), so the difference ln Gamma(hi) -
    ln Gamma(hi+lo) is expanded through the Stirling series, where every
    term is O(lo ln hi).
    """
    return _ln_beta(_check_positive("a", a), _check_positive("b", b))


def _ln_beta(a: float, b: float) -> float:
    """:func:`ln_beta` for floats a, b > 0, unchecked: the log-likelihood
    pass calls it with the shapes of a validated Params."""
    hi, lo = (a, b) if a >= b else (b, a)
    if hi < 1e5:
        return _ln_gamma(a) + _ln_gamma(b) - _ln_gamma(a + b)
    return (
        _ln_gamma(lo)
        + lo
        - (hi - 0.5) * math.log1p(lo / hi)
        - lo * math.log(hi + lo)
        + _stirling_tail(hi)
        - _stirling_tail(hi + lo)
    )


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    return math.exp(ln_beta(a, b))


_LN_HALF = -0.6931471805599453


def log1mexp(s):
    """log(1 - exp(s)) for s < 0, accurate across the whole range.

    Uses log(-expm1(s)) for s > -log 2 and log1p(-exp(s)) otherwise.
    Accepts scalars or numpy arrays; s == 0 maps to -inf.
    """
    return _on_arrays(_log1mexp_arr, s)


# Below this log-magnitude, e^t < 2.1e-9 and the first-order expansions
# used by the two helpers that follow are exact to float64 rounding.
_TINY_LOG = -20.0


def log_neg_log1mexp(s, l1m_s):
    """log(-log(1 - exp(s))) for s < 0, given l1m_s = log1mexp(s).

    Once e^s < e^-20, -log(1 - e^s) = e^s (1 + e^s/2 + ...) and the
    value is s + e^s/2, taken from s itself: l1m_s is then tiny, and
    zero or subnormal when e^s underflows.  Otherwise it is
    log(-l1m_s).
    """
    return _on_arrays(_log_neg_log1mexp_arr, s, l1m_s)


def log1mexp_tiny(s, log_neg_s):
    """log(1 - exp(s)) for s < 0, given log_neg_s = log(-s).

    The mirror image of :func:`log_neg_log1mexp`: once |s| < e^-20 the
    value is log|s| - |s|/2, taken from log_neg_s, so an |s| too small
    to be stored (or stored only as a subnormal) costs no precision.
    Otherwise it is :func:`log1mexp` of s.
    """
    return _on_arrays(_log1mexp_tiny_arr, s, log_neg_s)


def _on_arrays(kernel, *args):
    """kernel on the arguments as float arrays, a 0-d one taken as 1-d;
    a float back for a 0-d first argument."""
    arrs = [np.asarray(a, dtype=float) for a in args]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = kernel(*(np.atleast_1d(a) for a in arrs))
    return float(out[0]) if arrs[0].ndim == 0 else out


# The array paths of the three helpers above.  Each fills one new array
# in place, and recomputes only the elements that its other branch
# covers: log1mexp's near branch, which most calls of a fit reach, by
# integer index (one nonzero, where a boolean mask is walked once to
# gather and again to scatter), the tiny patches, which few reach, after
# a NaN-blind min has shown that there are some.  None sets np.errstate:
# the log chain of core runs all of them under the one errstate (divide
# and invalid ignored) of its caller.


def _log1mexp_arr(s: np.ndarray) -> np.ndarray:
    out = np.exp(s)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    near = (s > _LN_HALF).nonzero()
    if near[0].size:
        v = s[near]
        np.minimum(v, 0.0, out=v)
        np.expm1(v, out=v)
        np.negative(v, out=v)
        np.log(v, out=v)
        out[near] = v
    return out


def _log_neg_log1mexp_arr(s: np.ndarray, l1m_s: np.ndarray) -> np.ndarray:
    out = np.negative(l1m_s)
    np.log(out, out=out)
    return _patch_tiny(out, s, 0.5)


def _log1mexp_tiny_arr(s: np.ndarray, log_neg_s: np.ndarray, offset: float = 0.0) -> np.ndarray:
    """log1mexp_tiny with log(-s) given as offset + log_neg_s, a scalar
    offset that is added only where some element is patched."""
    return _patch_tiny(_log1mexp_arr(s), log_neg_s, -0.5, offset)


def _patch_tiny(out, v, half, offset=0.0):
    """out, with the first-order expansion w + half e^w where w = offset + v
    is below _TINY_LOG.  Rounding is monotonic, so offset plus the least v
    is the least w: the test needs no sum, and w is formed only on the
    rare path that patches."""
    if offset + np.fmin.reduce(v, axis=None, initial=np.inf) < _TINY_LOG:
        w = v + offset if offset else v
        tiny = w < _TINY_LOG
        wt = w[tiny]
        out[tiny] = wt + half * np.exp(wt)
    return out


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3.0 * _EPS:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}"
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I_x(a, b), absolute error <= 1e-12."""
    a, b = _check_positive("a", a), _check_positive("b", b)
    if not (isinstance(x, _REALS) and 0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > a / (a + b):
        return 1.0 - reg_inc_beta(1.0 - x, b, a)
    lf = a * math.log(x) + b * math.log1p(-x) - ln_beta(a, b)
    front = math.exp(lf) / a
    if front == 0.0:
        return 0.0
    return min(1.0, front * _betacf(a, b, x))


def inv_reg_inc_beta(u: float, a: float, b: float) -> float:
    """Inverse of I_x(a, b): the z with |I_z(a, b) - u| <= 1e-10.

    Where a or b is 1, the closed form of :func:`_inv_reg_inc_beta_arr`.
    Otherwise bracketed Newton iteration with bisection fallback, which
    an underflowing or overflowing density takes; endpoints are returned
    exactly.  Raises NonConvergenceError (carrying the last bracket) if
    the tolerance is not met within 200 steps.
    """
    a, b = _check_positive("a", a), _check_positive("b", b)
    if not (isinstance(u, _REALS) and 0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    u = float(u)
    if a == 1.0 or b == 1.0:
        return float(_inv_reg_inc_beta_arr(np.array([u]), a, b)[0])
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return 1.0
    if a == b and u == 0.5:
        return 0.5

    lnB = ln_beta(a, b)
    mean = a / (a + b)
    # tail-aware starting point: I_z ~ z^a / (a B) as z -> 0 and the
    # mirrored form as z -> 1, else start at the mean
    if u < 0.1:
        z = math.exp((math.log(u) + math.log(a) + lnB) / a)
        z = min(max(z, 1e-300), mean)
    elif u > 0.9:
        z = 1.0 - math.exp((math.log1p(-u) + math.log(b) + lnB) / b)
        z = max(min(z, 1.0 - 1e-16), mean)
    else:
        z = mean

    lo, hi = 0.0, 1.0
    g = reg_inc_beta(z, a, b) - u
    for _ in range(_NEWTON_ITMAX):
        if abs(g) < 1e-13:
            return z
        if g > 0.0:
            hi = z
        else:
            lo = z
        lpdf = (a - 1.0) * math.log(z) + (b - 1.0) * math.log1p(-z) - lnB
        # a Newton step where the density is a normal float and the step
        # stays inside the bracket; a bisection otherwise
        zn = z - g / math.exp(lpdf) if -700.0 < lpdf < 700.0 else lo
        z = zn if lo < zn < hi else 0.5 * (lo + hi)
        if hi - lo < 4.0 * _EPS * max(z, 1e-300):
            gz = reg_inc_beta(z, a, b) - u
            if abs(gz) < 1e-10:
                return z
            break
        g = reg_inc_beta(z, a, b) - u
    if abs(g) < 1e-10:
        return z
    raise NonConvergenceError(
        f"inv_reg_inc_beta(u={u}, a={a}, b={b}) did not converge",
        bracket=(lo, hi),
    )


def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0, absolute error <= 1e-10."""
    x = _check_positive("x", x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # asymptotic series: ln x - 1/(2x) - sum B_{2n}/(2n x^{2n})
    series = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (
                1.0 / 252.0
                - inv2
                * (
                    1.0 / 240.0
                    - inv2 * (1.0 / 132.0 - inv2 * (691.0 / 32760.0 - inv2 / 12.0))
                )
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - series


def trigamma(x: float) -> float:
    """Trigamma psi'(x) for x > 0, absolute error <= 1e-10."""
    x = _check_positive("x", x)
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (
        1.0
        + inv
        * (
            0.5
            + inv
            * (
                1.0 / 6.0
                - inv2
                * (
                    1.0 / 30.0
                    - inv2
                    * (
                        1.0 / 42.0
                        - inv2
                        * (1.0 / 30.0 - inv2 * (5.0 / 66.0 - inv2 * 691.0 / 2730.0))
                    )
                )
            )
        )
    )
    return acc + series


# Asymptotic coefficients: psi(z) ~ ln z - 1/(2z) - sum c_k z^-2k and
# psi'(z) ~ sum t_m z^-m, matching the series in digamma and trigamma.
_PSI_ASYM = ((2, 1.0 / 12.0), (4, -1.0 / 120.0), (6, 1.0 / 252.0),
             (8, -1.0 / 240.0), (10, 1.0 / 132.0), (12, -691.0 / 32760.0),
             (14, 1.0 / 12.0))
_PSI1_ASYM = ((1, 1.0), (2, 0.5), (3, 1.0 / 6.0), (5, -1.0 / 30.0),
              (7, 1.0 / 42.0), (9, -1.0 / 30.0), (11, 5.0 / 66.0),
              (13, -691.0 / 2730.0))


def digamma_diff(x: float, h: float) -> float:
    """psi(x + h) - psi(x) for x, h > 0, to near full relative accuracy.

    Subtracting two digamma values loses about log10(x ln(x) / h)
    digits once x >> h (at x = 5e9, h = 1.2 the difference is ~2.5e-10
    against psi ~ 22).  Here the recurrence steps and every asymptotic term
    are differenced analytically -- x^-m - (x+h)^-m as
    -math.expm1(-m math.log1p(h/x)) x^-m -- so only positive, already-small
    pieces are summed.
    """
    return _digamma_diff(_check_positive("x", x), _check_positive("h", h))


def _digamma_diff(x: float, h: float) -> float:
    """:func:`digamma_diff` for floats x, h > 0, unchecked: the score's
    gamma and delta components call it."""
    acc = 0.0
    while x < 20.0:
        acc += -math.expm1(-math.log1p(h / x)) * (1.0 / x)   # 1/x - 1/(x+h)
        x += 1.0
    r = math.log1p(h / x)
    ix = 1.0 / x
    acc += r + 0.5 * (-math.expm1(-r) * ix)
    for m, c in _PSI_ASYM:
        acc += c * (-math.expm1(-m * r) * ix ** m)
    return acc


def trigamma_diff(x: float, h: float) -> float:
    """psi'(x + h) - psi'(x) for x, h > 0, free of cancellation.

    The companion of :func:`digamma_diff`; the result is negative.
    """
    x, h = _check_positive("x", x), _check_positive("h", h)
    acc = 0.0
    while x < 20.0:
        acc += -math.expm1(-2 * math.log1p(h / x)) * (1.0 / x) ** 2   # 1/x^2 - 1/(x+h)^2
        x += 1.0
    r = math.log1p(h / x)
    ix = 1.0 / x
    for m, t in _PSI1_ASYM:
        acc += t * (-math.expm1(-m * r) * ix ** m)
    return -acc


def _gamma_p_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma by power series (x < a + 1)."""
    ap = a
    s = 1.0 / a
    term = s
    for _ in range(_ITMAX * 4):
        ap += 1.0
        term *= x / ap
        s += term
        if abs(term) < abs(s) * _EPS:
            break
    return s * math.exp(-x + a * math.log(x) - ln_gamma(a))


def _gamma_q_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma by continued fraction (x >= a + 1)."""
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _ITMAX * 4):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - ln_gamma(a))


def _reg_inc_gamma(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)): the power series below x = a + 1 and the
    continued fraction above give the one on their side, and the other
    is its complement."""
    a = _check_positive("a", a)
    if not (isinstance(x, _REALS) and math.isfinite(x) and x >= 0):
        raise ValueError(f"x must be a nonnegative finite real, got {x!r}")
    x = float(x)
    if x == 0.0:
        return 0.0, 1.0
    if x < a + 1.0:
        p = _gamma_p_series(a, x)
        return min(1.0, p), max(0.0, 1.0 - p)
    q = _gamma_q_cf(a, x)
    return max(0.0, 1.0 - q), min(1.0, q)


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized P(a, x) = gamma(a, x) / Gamma(a)."""
    return _reg_inc_gamma(a, x)[0]


def reg_upper_inc_gamma(a: float, x: float) -> float:
    """Regularized Q(a, x) = 1 - P(a, x), computed tail-accurately."""
    return _reg_inc_gamma(a, x)[1]


def lower_inc_gamma(a: float, x: float) -> float:
    """Unregularized lower incomplete gamma: integral of u^{a-1} e^{-u} on (0, x).

    Overflows (returns inf) only where Gamma(a) itself overflows.
    """
    p = reg_lower_inc_gamma(a, x)
    lg = ln_gamma(a)
    if p == 0.0:
        return 0.0
    return math.exp(lg + math.log(p))


# ----------------------------------------------------------------------
# Array variants for the sampler's hot path: scalar (a, b), vector x/u.
# These follow the same algorithms as the scalar versions and are held
# to the same tolerances in the test suite.
# ----------------------------------------------------------------------


def _reg_inc_beta_arr(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """Vectorized I_x(a, b) for scalar shape parameters."""
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
        val = _betacf_arr(aa, bb, xa)
        with np.errstate(divide="ignore"):
            lf = aa * np.log(xa) + bb * np.log1p(-xa) - ln_beta(aa, bb)
        res = np.where(xa > 0.0, np.exp(lf) / aa * val, 0.0)
        res = np.clip(res, 0.0, 1.0)
        out[sel] = 1.0 - res if flip else res
    out[x == 0.0] = 0.0
    out[x == 1.0] = 1.0
    return out


def _betacf_arr(a: float, b: float, x: np.ndarray) -> np.ndarray:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 - qab * x / qap
    np.copysign(np.maximum(np.abs(d), _FPMIN), d, out=d)
    d = 1.0 / d
    h = d.copy()
    for m in range(1, _ITMAX + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        np.copysign(np.maximum(np.abs(d), _FPMIN), d, out=d)
        c = 1.0 + aa / c
        np.copysign(np.maximum(np.abs(c), _FPMIN), c, out=c)
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        np.copysign(np.maximum(np.abs(d), _FPMIN), d, out=d)
        c = 1.0 + aa / c
        np.copysign(np.maximum(np.abs(c), _FPMIN), c, out=c)
        d = 1.0 / d
        delta = d * c
        h *= delta
        if np.all(np.abs(delta - 1.0) < 3.0 * _EPS):
            return h
    raise NonConvergenceError(
        f"vectorized incomplete beta continued fraction stalled at a={a}, b={b}"
    )


def _normal_start(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """Starting points of the array inverse for a, b >= 1.

    Abramowitz & Stegun 26.5.22, as in Press et al., Numerical Recipes
    3rd ed. section 6.14 (invbetai): a rational approximation gives the
    normal deviate x of u from t = sqrt(-2 log p), p = min(u, 1 - u), and
    with h = 2 / (1/(2a - 1) + 1/(2b - 1)), l = (x^2 - 3)/6 and
    w = x sqrt(l + h)/h - (1/(2b - 1) - 1/(2a - 1)) (l + 5/6 - 2/(3h)),
    z = a / (a + b e^{2w}).  A non-finite start (at u = 0 or 1, which the
    caller sets exactly) takes the mean; every start is clipped to
    [1e-300, 1 - 1e-16].
    """
    h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
    skew = 1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
        x = (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t)) - t
        x = np.where(u < 0.5, -x, x)
        lam = (x * x - 3.0) / 6.0
        w = x * np.sqrt(lam + h) / h - skew * (lam + (5.0 / 6.0 - 2.0 / (3.0 * h)))
        z = a / (a + b * np.exp(2.0 * w))
    z[~np.isfinite(z)] = a / (a + b)
    return np.clip(z, 1e-300, 1.0 - 1e-16, out=z)


def _inv_reg_inc_beta_arr(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """Vectorized inverse incomplete beta, |I_z - u| <= 1e-10.

    A unit shape has an exact inverse, taken without iterating:
    I_z(a, 1) = z^a gives z = u^{1/a}, and I_z(1, b) = 1 - (1 - z)^b gives
    z = 1 - (1 - u)^{1/b}, both in logs (Jones, Statistical Methodology 6,
    2009).  Other shapes take a bracketed Halley iteration, as in Press et
    al., Numerical Recipes 3rd ed. section 6.14 (invbetai).  It starts
    from the tail forms I_z ~ z^a / (a B) for u < 0.1 and their mirror
    for u > 0.9, and from the mean a/(a + b) between, except where a and
    b are at least 1.  There the tail forms bound the root.  The start is
    a tail form where the first term it leaves out, (b - 1) z / (a + 1)
    or its mirror, is below 1e-2, and elsewhere the normal approximation
    of Abramowitz & Stegun 26.5.22 (:func:`_normal_start`) clipped into
    the bounds.  Below u = 1e-13 and above 1 - 1e-13 every start meets
    the residual test at once, so there the start sets the relative
    accuracy of z.  The Halley step reuses the density f of the Newton
    step t = (I_z - u)/f: t / (1 - min(1, t f'/f) / 2), with
    f'/f = (a - 1)/z - (b - 1)/(1 - z).
    Each element stops on the pass where its own residual first reads
    |I_z - u| < 1e-13: it takes that pass's step if the step stays inside
    its bracket, and is not stepped again; a step that leaves the bracket
    bisects it.  Later passes evaluate only the elements still iterating.
    Those left when the 120 passes run out are returned if their residual
    is at most 1e-10, and otherwise NonConvergenceError is raised, naming
    the worst u and its bracket.  Endpoints are returned exactly.
    """
    u = np.asarray(u, dtype=float)
    if a == 1.0 or b == 1.0:
        with np.errstate(divide="ignore"):
            if a == b:
                z = u
            elif b == 1.0:
                z = np.exp(np.log(u) / a)
            else:
                z = -np.expm1(np.log1p(-u) / b)
        # exact at u = 0 and u = 1, but u = -0.0 gives -0.0 where a = 1
        return np.where(u == 0.0, 0.0, z)
    shape = u.shape
    u = u.ravel()
    lnB = ln_beta(a, b)
    mean = a / (a + b)
    low = u < 0.1
    high = u > 0.9
    with np.errstate(divide="ignore", over="ignore"):
        z_low = np.clip(
            np.exp((np.log(np.maximum(u[low], 1e-320)) + math.log(a) + lnB) / a),
            1e-300, mean)
        z_high = np.clip(
            1.0 - np.exp((np.log1p(-np.minimum(u[high], 1.0 - 1e-16)) + math.log(b) + lnB) / b),
            mean, 1.0 - 1e-16)
    if a >= 1.0 and b >= 1.0:
        # I_z <= z^a / (a B) where b >= 1, and its mirror where a >= 1, so
        # z_low and z_high bound the root: clipped into them, a start only
        # comes closer to it
        z = _normal_start(u, a, b)
        z[low] = np.where(z_low * ((b - 1.0) / (a + 1.0)) < 1e-2, z_low,
                          np.maximum(z[low], z_low))
        z[high] = np.where((1.0 - z_high) * ((a - 1.0) / (b + 1.0)) < 1e-2, z_high,
                           np.minimum(z[high], z_high))
    else:
        z = np.full_like(u, mean)
        z[low] = z_low
        z[high] = z_high
    del z_low, z_high
    # the endpoints have residual 0, so they leave on the first pass
    z[u == 0.0] = 0.0
    z[u == 1.0] = 1.0
    # The first pass runs on the whole arrays; the elements still iterating
    # are copied out when some leave (a NaN residual never does).
    g = _reg_inc_beta_arr(z, a, b) - u
    act = np.ones(u.shape, dtype=bool)
    za, ua = z, u
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(119):
        np.copyto(hi, za, where=g > 0.0)
        np.copyto(lo, za, where=g <= 0.0)
        done = np.abs(g) < 1e-13
        z_done = za[done]
        # the step, in place on za (so on the first pass in z itself); an
        # overflowing density or curvature gives a step the bracket test
        # rejects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (a - 1.0) * np.log(za)
            t += (b - 1.0) * np.log1p(-za)
            t -= lnB
            np.exp(t, out=t)
            np.divide(g, t, out=t)
            del g   # freed before the next forward pass, which sets the peak memory
            c = (a - 1.0) / za
            c -= (b - 1.0) / (1.0 - za)
            c *= t
            np.minimum(c, 1.0, out=c)
            c *= -0.5
            c += 1.0
            t /= c
            del c
            za -= t
            del t
        bad = ~np.isfinite(za) | (za <= lo) | (za >= hi)
        za[bad] = 0.5 * (lo[bad] + hi[bad])
        if done.any():
            left = np.flatnonzero(act)[done]
            z[left] = np.where(bad[done], z_done, za[done])
            act[left] = False
            keep = ~done
            za, ua, lo, hi = za[keep], ua[keep], lo[keep], hi[keep]
            if not za.size:
                break
        g = _reg_inc_beta_arr(za, a, b) - ua
    if za.size:
        # the 120th pass measured the residual of the z still iterating
        worst = int(np.argmax(np.abs(g)))
        if not abs(g[worst]) <= 1e-10:
            raise NonConvergenceError(
                f"inverse incomplete beta (a={a}, b={b}) did not converge at "
                f"u={float(ua[worst])!r}: |I_z - u| = {abs(g[worst]):.3g} "
                f"at z={float(za[worst])!r}",
                bracket=(float(lo[worst]), float(hi[worst])),
            )
        z[act] = za
    return z.reshape(shape)
