"""Self-contained special-function kernel.

Everything here is implemented from scratch so that results are
bit-for-bit reproducible and carry no external math dependency:
Lanczos log-gamma, continued-fraction regularized incomplete beta with
the usual symmetry switch, a bracketed Newton inverse, recurrence plus
asymptotic-series digamma/trigamma, and series / continued-fraction
incomplete gamma.

Accuracy targets: ln_gamma 1e-13 (absolute for moderate arguments,
relative for large ones where float64 spacing dominates),
reg_inc_beta 1e-12 absolute, inv_reg_inc_beta 1e-10 in function value,
digamma/trigamma 1e-10 absolute.

All functions are pure; scalar entry points take and return floats.
A few array variants (prefixed ``_``) exist for the hot paths of the
sampler and are verified against the scalar versions in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Accuracy",
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
_ITMAX = 500
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


@dataclass(frozen=True)
class Accuracy:
    """Iteration budget for the iterative routines (their stopping
    tolerances are fixed)."""

    max_iter: int = 200

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _check_positive(name: str, x: float) -> None:
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a positive finite real, got {x!r}")


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise ValueError(f"ln_gamma requires positive finite x, got {x!r}")
    x = float(x)
    if x < 0.5:
        # push into the Lanczos sweet spot; exact up to rounding
        return ln_gamma(x + 1.0) - math.log(x)
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _stirling_tail(z: float) -> float:
    """Remainder S(z) in ln Gamma(z) = (z-1/2)ln z - z + ln sqrt(2pi) + S(z);
    elementwise on arrays."""
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
    _check_positive("a", a)
    _check_positive("b", b)
    hi, lo = (a, b) if a >= b else (b, a)
    if hi < 1e5:
        return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
    return (
        ln_gamma(lo)
        + lo
        - (hi - 0.5) * math.log1p(lo / hi)
        - lo * math.log(hi + lo)
        + _stirling_tail(hi)
        - _stirling_tail(hi + lo)
    )


def _ln_gamma_arr(x: np.ndarray) -> np.ndarray:
    """Vectorized ln_gamma for arrays of positive reals (internal)."""
    x = np.asarray(x, dtype=float)
    shift = x < 0.5
    xs = np.where(shift, x + 1.0, x)
    z = xs - 1.0
    acc = np.full_like(xs, _LANCZOS_C[0])
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    out = _LN_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(acc)
    return np.where(shift, out - np.log(np.where(shift, x, 1.0)), out)


def _ln_beta_arr(a, b) -> np.ndarray:
    """Vectorized ln B(a, b); a and b broadcast (internal).

    Shares the large-argument rewrite with ``ln_beta`` so huge shape
    values keep absolute (not just relative) accuracy.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    naive = _ln_gamma_arr(a) + _ln_gamma_arr(b) - _ln_gamma_arr(a + b)
    big = hi >= 1e5
    if not np.any(big):
        return naive
    hi_s = np.where(big, hi, 2e5)
    lo_s = np.where(big, lo, 1.0)
    stable = (
        _ln_gamma_arr(lo_s)
        + lo_s
        - (hi_s - 0.5) * np.log1p(lo_s / hi_s)
        - lo_s * np.log(hi_s + lo_s)
        + _stirling_tail(hi_s)
        - _stirling_tail(hi_s + lo_s)
    )
    return np.where(big, stable, naive)


def beta_fn(a: float, b: float) -> float:
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    return math.exp(ln_beta(a, b))


_LN_HALF = -0.6931471805599453


def log1mexp(s):
    """log(1 - exp(s)) for s < 0, accurate across the whole range.

    Uses log(-expm1(s)) for s > -log 2 and log1p(-exp(s)) otherwise.
    Accepts scalars or numpy arrays; s == 0 maps to -inf.
    """
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if s.ndim == 0:
            return float(np.log(-np.expm1(min(s, 0.0))) if s > _LN_HALF else np.log1p(-np.exp(s)))
        return _log1mexp_arr(s)


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
    s = np.asarray(s, dtype=float)
    l1m_s = np.asarray(l1m_s, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if l1m_s.ndim == 0:
            return float(s + 0.5 * np.exp(s)) if s < _TINY_LOG else float(np.log(-l1m_s))
        return _log_neg_log1mexp_arr(s, l1m_s)


def log1mexp_tiny(s, log_neg_s):
    """log(1 - exp(s)) for s < 0, given log_neg_s = log(-s).

    The mirror image of :func:`log_neg_log1mexp`: once |s| < e^-20 the
    value is log|s| - |s|/2, taken from log_neg_s, so an |s| too small
    to be stored (or stored only as a subnormal) costs no precision.
    Otherwise it is :func:`log1mexp` of s.
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(log_neg_s, dtype=float)
    if s.ndim == 0:
        return float(w + -0.5 * np.exp(w)) if w < _TINY_LOG else log1mexp(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _log1mexp_tiny_arr(s, w)


# The array paths of the three helpers above.  Each fills one new array
# in place, and recomputes only the elements that its other branch
# covers, after a NaN-blind min or max has shown that there are some.
# None sets np.errstate: the log chain of core runs all of them under the
# one errstate (divide and invalid ignored) of its caller.


def _log1mexp_arr(s: np.ndarray) -> np.ndarray:
    out = np.exp(s)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    if np.fmax.reduce(s, initial=-np.inf) > _LN_HALF:
        near = s > _LN_HALF
        v = np.minimum(s[near], 0.0)
        np.expm1(v, out=v)
        np.negative(v, out=v)
        np.log(v, out=v)
        out[near] = v
    return out


def _log_neg_log1mexp_arr(s: np.ndarray, l1m_s: np.ndarray) -> np.ndarray:
    out = np.negative(l1m_s)
    np.log(out, out=out)
    return _patch_tiny(out, s, 0.5)


def _log1mexp_tiny_arr(s: np.ndarray, log_neg_s: np.ndarray) -> np.ndarray:
    return _patch_tiny(_log1mexp_arr(s), log_neg_s, -0.5)


def _patch_tiny(out, v, half):
    """out, with the first-order expansion v + half e^v where v < _TINY_LOG."""
    if np.fmin.reduce(v, initial=np.inf) < _TINY_LOG:
        tiny = v < _TINY_LOG
        vt = v[tiny]
        out[tiny] = vt + half * np.exp(vt)
    return out


def _betacf(a: float, b: float, x: float, acc: Accuracy) -> float:
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
    for m in range(1, max(acc.max_iter, _ITMAX) + 1):
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


def reg_inc_beta(x: float, a: float, b: float, acc: Accuracy = Accuracy()) -> float:
    """Regularized incomplete beta I_x(a, b), absolute error <= 1e-12."""
    _check_positive("a", a)
    _check_positive("b", b)
    if not (isinstance(x, (int, float)) and 0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x > a / (a + b):
        return 1.0 - reg_inc_beta(1.0 - x, b, a, acc)
    lf = a * math.log(x) + b * math.log1p(-x) - ln_beta(a, b)
    front = math.exp(lf) / a
    if front == 0.0:
        return 0.0
    return min(1.0, front * _betacf(a, b, x, acc))


def inv_reg_inc_beta(u: float, a: float, b: float, acc: Accuracy = Accuracy()) -> float:
    """Inverse of I_x(a, b): the z with |I_z(a, b) - u| <= 1e-10.

    Bracketed Newton iteration with bisection fallback; endpoints are
    returned exactly.  Raises NonConvergenceError (carrying the last
    bracket) if the tolerance is not met within max_iter steps.
    """
    _check_positive("a", a)
    _check_positive("b", b)
    if not (isinstance(u, (int, float)) and 0.0 <= u <= 1.0):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    u = float(u)
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
    g = reg_inc_beta(z, a, b, acc) - u
    it_cap = max(acc.max_iter, 200)
    for _ in range(it_cap):
        if abs(g) < 1e-13:
            return z
        if g > 0.0:
            hi = z
        else:
            lo = z
        lpdf = (a - 1.0) * math.log(z) + (b - 1.0) * math.log1p(-z) - lnB
        step_ok = False
        if lpdf > -700.0:
            dens = math.exp(lpdf)
            if dens > 0.0 and math.isfinite(dens):
                zn = z - g / dens
                if lo < zn < hi:
                    z = zn
                    step_ok = True
        if not step_ok:
            z = 0.5 * (lo + hi)
        if hi - lo < 4.0 * _EPS * max(z, 1e-300):
            gz = reg_inc_beta(z, a, b, acc) - u
            if abs(gz) < 1e-10:
                return z
            break
        g = reg_inc_beta(z, a, b, acc) - u
    if abs(g) < 1e-10:
        return z
    raise NonConvergenceError(
        f"inv_reg_inc_beta(u={u}, a={a}, b={b}) did not converge",
        bracket=(lo, hi),
    )


def digamma(x: float) -> float:
    """Digamma psi(x) for x > 0, absolute error <= 1e-10."""
    _check_positive("x", x)
    x = float(x)
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
    _check_positive("x", x)
    x = float(x)
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


def _pow_diff(m: int, log_ratio: float, x: float) -> float:
    """x^-m - (x+h)^-m from log_ratio = log1p(h/x), free of cancellation."""
    return -math.expm1(-m * log_ratio) * (1.0 / x) ** m


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
    are differenced analytically -- x^-m - (x+h)^-m through
    expm1(-m log1p(h/x)) -- so only positive, already-small pieces
    are summed.
    """
    _check_positive("x", x)
    _check_positive("h", h)
    x, h = float(x), float(h)
    acc = 0.0
    while x < 20.0:
        acc += _pow_diff(1, math.log1p(h / x), x)   # 1/x - 1/(x+h)
        x += 1.0
    r = math.log1p(h / x)
    acc += r + 0.5 * _pow_diff(1, r, x)
    for m, c in _PSI_ASYM:
        acc += c * _pow_diff(m, r, x)
    return acc


def trigamma_diff(x: float, h: float) -> float:
    """psi'(x + h) - psi'(x) for x, h > 0, free of cancellation.

    The companion of :func:`digamma_diff`; the result is negative.
    """
    _check_positive("x", x)
    _check_positive("h", h)
    x, h = float(x), float(h)
    acc = 0.0
    while x < 20.0:
        acc += _pow_diff(2, math.log1p(h / x), x)   # 1/x^2 - 1/(x+h)^2
        x += 1.0
    r = math.log1p(h / x)
    for m, t in _PSI1_ASYM:
        acc += t * _pow_diff(m, r, x)
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


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized P(a, x) = gamma(a, x) / Gamma(a)."""
    _check_positive("a", a)
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise ValueError(f"x must be a nonnegative finite real, got {x!r}")
    x = float(x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _gamma_p_series(a, x))
    return max(0.0, 1.0 - _gamma_q_cf(a, x))


def reg_upper_inc_gamma(a: float, x: float) -> float:
    """Regularized Q(a, x) = 1 - P(a, x), computed tail-accurately."""
    _check_positive("a", a)
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise ValueError(f"x must be a nonnegative finite real, got {x!r}")
    x = float(x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _gamma_p_series(a, x))
    return min(1.0, _gamma_q_cf(a, x))


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


def _inv_reg_inc_beta_arr(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """Vectorized inverse incomplete beta (bracketed Newton), |I_z - u| <= 1e-10.

    Raises NonConvergenceError, naming the worst u, when the passes run
    out with a residual above 1e-10 at any point.
    """
    u = np.asarray(u, dtype=float)
    lnB = ln_beta(a, b)
    mean = a / (a + b)
    with np.errstate(divide="ignore", over="ignore"):
        lo_guess = np.exp((np.log(np.maximum(u, 1e-320)) + math.log(a) + lnB) / a)
        hi_guess = 1.0 - np.exp(
            (np.log1p(-np.minimum(u, 1.0 - 1e-16)) + math.log(b) + lnB) / b
        )
    z = np.full_like(u, mean)
    z = np.where(u < 0.1, np.clip(lo_guess, 1e-300, mean), z)
    z = np.where(u > 0.9, np.clip(hi_guess, mean, 1.0 - 1e-16), z)
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(119):
        g = _reg_inc_beta_arr(z, a, b) - u
        if np.all(np.abs(g) < 1e-13):
            break
        hi = np.where(g > 0.0, z, hi)
        lo = np.where(g <= 0.0, z, lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            lpdf = (a - 1.0) * np.log(z) + (b - 1.0) * np.log1p(-z) - lnB
            dens = np.exp(lpdf)
            zn = z - g / dens
        bad = ~np.isfinite(zn) | (zn <= lo) | (zn >= hi)
        z = np.where(bad, 0.5 * (lo + hi), zn)
    else:
        # The last of the 120 passes only measures the residual of the z
        # that is returned, and raises if it misses the tolerance anywhere.
        g = _reg_inc_beta_arr(z, a, b) - u
        miss = np.where((u == 0.0) | (u == 1.0), 0.0, np.abs(g))
        worst = int(np.argmax(miss))
        if not miss[worst] <= 1e-10:
            raise NonConvergenceError(
                f"inverse incomplete beta (a={a}, b={b}) did not converge at "
                f"u={float(u[worst])!r}: |I_z - u| = {miss[worst]:.3g} "
                f"at z={float(z[worst])!r}",
                bracket=(float(lo[worst]), float(hi[worst])),
            )
    z = np.where(u == 0.0, 0.0, z)
    z = np.where(u == 1.0, 1.0, z)
    return z
