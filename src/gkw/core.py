"""Exact distribution primitives for the generalized Kumaraswamy family.

The five-parameter family on (0, 1) has distribution function

    F(x) = I_z(gamma, delta + 1),    z = [1 - (1 - x^alpha)^beta]^lambda,

where I is the regularized incomplete beta function.  This module holds
the parameter container, the named sub-model patterns, pdf / log-pdf /
cdf / quantile, a seed-deterministic sampler, expectations over the
underlying variate V ~ Beta(gamma, delta + 1) (_expect, the quadrature
that every series value takes), the power-transformation rule for the
alpha = 1 slice, and the density of the negative-log transform.

Everything is evaluated through compensated one-minus-power forms
(expm1 / log1p / log1mexp) so that both tails stay accurate; the
log-density never exponentiates an intermediate factor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .specfun import _log1mexp_arr, _log1mexp_tiny_arr, _log_neg_log1mexp_arr

__all__ = [
    "Params",
    "SubModel",
    "SUBMODELS",
    "pdf",
    "log_pdf",
    "cdf",
    "quantile",
    "sample",
    "power_transform_params",
    "lgkw_pdf",
    "apply_submodel",
]

_PARAM_NAMES = ("alpha", "beta", "gamma", "delta", "lam")


@dataclass(frozen=True)
class Params:
    """Parameter vector (alpha, beta, gamma, delta, lambda).

    alpha, beta, gamma, lambda must be positive; delta may be zero
    (several sub-models require it) but not negative.  ``lam`` stands
    in for the reserved word ``lambda``.  Each may be given as any real
    Python or NumPy scalar, and is stored as a Python float.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    lam: float

    def __post_init__(self) -> None:
        for name in _PARAM_NAMES:
            given = v = getattr(self, name)
            if type(v) is not float and isinstance(v, specfun._REALS):
                v = float(v)
                object.__setattr__(self, name, v)
            if not (type(v) is float and math.isfinite(v)
                    and (v > 0.0 or name == "delta" and v >= 0.0)):
                kind = "nonnegative" if name == "delta" else "positive"
                raise ValueError(f"{name} must be a {kind} finite real, got {given!r}")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.alpha, self.beta, self.gamma, self.delta, self.lam)

    def replace(self, **kw) -> "Params":
        vals = dict(zip(_PARAM_NAMES, self.as_tuple()))
        vals.update(kw)
        return Params(**vals)


@dataclass(frozen=True)
class SubModel:
    """A named constraint pattern over Params.

    ``fixed`` lists (parameter-name, value) pairs pinned by the pattern;
    the remaining parameters are free.
    """

    name: str
    fixed: tuple[tuple[str, float], ...]

    @property
    def free_count(self) -> int:
        return 5 - len(self.fixed)

    @property
    def free_names(self) -> tuple[str, ...]:
        pinned = {k for k, _ in self.fixed}
        return tuple(n for n in _PARAM_NAMES if n not in pinned)

    @property
    def fixed_dict(self) -> dict[str, float]:
        return dict(self.fixed)

    def nests_within(self, other: "SubModel") -> bool:
        """True when this pattern is a proper restriction of ``other``."""
        mine, theirs = self.fixed_dict, other.fixed_dict
        if len(mine) <= len(theirs):
            return False
        return all(k in mine and mine[k] == v for k, v in theirs.items())


SUBMODELS: dict[str, SubModel] = {
    m.name: m
    for m in (
        SubModel("GKw", ()),
        SubModel("BKw", (("lam", 1.0),)),
        SubModel("KwKw", (("gamma", 1.0),)),
        SubModel("EKw", (("gamma", 1.0), ("delta", 0.0))),
        SubModel("Mc", (("alpha", 1.0), ("beta", 1.0))),
        SubModel("Beta", (("alpha", 1.0), ("beta", 1.0), ("lam", 1.0))),
        SubModel("BP", (("alpha", 1.0), ("beta", 1.0))),
        SubModel("Kw", (("gamma", 1.0), ("delta", 0.0), ("lam", 1.0))),
    )
}


def apply_submodel(sub: SubModel, free_values) -> Params:
    """Fill a full parameter vector from a pattern and its free values."""
    free_values = list(free_values)
    if len(free_values) != sub.free_count:
        raise ValueError(
            f"{sub.name} takes {sub.free_count} free values, got {len(free_values)}"
        )
    vals = dict(sub.fixed)
    for name, v in zip(sub.free_names, free_values):
        vals[name] = float(v)
    return Params(**{n: vals[n] for n in _PARAM_NAMES})


# ----------------------------------------------------------------------
# Stable building blocks: the log chain and the log-density pass.
# ----------------------------------------------------------------------


class _Head:
    """The links of the log chain that alpha and beta fix, from log x.

    s = alpha log x, la = log(1 - x^alpha), lla = log(-la),
    bla = beta la, ly = log y for y = 1 - (1 - x^alpha)^beta and
    lny = log(-ly); a1lx = (alpha - 1) log x and b1la = (beta - 1) la
    are the two density terms they fix.  :meth:`tail` adds lly =
    lambda ly and lu = log(1 - y^lambda) for one lambda, keeping the
    last pair built.

    Each logarithm is carried from the one before it, never from the
    exponentiated factor: when x^alpha underflows, ly follows
    log beta + s, and when y rounds to 1, lu follows
    log lambda + log(-ly), so neither tail produces a zero or subnormal
    that the next log turns into +-inf.  log_x is a 1-d float array;
    build it and call tail() under np.errstate(divide="ignore",
    invalid="ignore"): the raw logs make infinities that the tiny
    branches then patch.

    A fit builds one for every evaluation at which alpha or beta moved:
    two log1mexp passes (la, and ly through its tiny-value form), two
    log(-log1mexp) passes (lla, lny) and four products, on specfun's
    array kernels, and a tail adds one log1mexp pass.  No scalar special
    function is called; the pass around it (:func:`_log_density`) takes
    ln B from the unchecked specfun._ln_beta.
    """

    __slots__ = ("ab", "s", "la", "lla", "bla", "ly", "lny", "a1lx", "b1la", "_tail")

    def __init__(self, a: float, b: float, log_x: np.ndarray):
        self.ab = (a, b)
        self.s = s = a * log_x
        self.la = la = _log1mexp_arr(s)
        self.lla = lla = _log_neg_log1mexp_arr(s, la)
        self.bla = bla = b * la
        self.ly = ly = _log1mexp_tiny_arr(bla, lla, math.log(b))
        self.lny = _log_neg_log1mexp_arr(bla, ly)
        self.a1lx = (a - 1.0) * log_x
        self.b1la = (b - 1.0) * la
        self._tail = None

    def tail(self, lam: float):
        """(lly, lu) for this lambda."""
        if self._tail is None or self._tail[0] != lam:
            lly = lam * self.ly
            lu = _log1mexp_tiny_arr(lly, self.lny, math.log(lam))
            self._tail = (lam, lly, lu)
        return self._tail[1:]


def _log_density(theta: Params, log_x: np.ndarray, head: _Head | None = None):
    """Per-element log-density at a 1-d float array of log x, and its head.

    The one pass behind the log-density, the log-likelihood and its
    score and information.  ``head`` is the :class:`_Head` of an earlier
    call on the same log_x; it is reused as it is when alpha and beta
    have not changed, and rebuilt otherwise.  lu is built only where
    delta != 0.  ln B(gamma, delta + 1) comes from the unchecked
    specfun._ln_beta: a Params has validated the shapes.  Run under
    np.errstate(divide="ignore", invalid="ignore"), as the head is.
    """
    a, b, g, d, l = theta.as_tuple()
    if head is None or head.ab != (a, b):
        head = _Head(a, b, log_x)
    out = head.a1lx + (math.log(l) + math.log(a) + math.log(b) - specfun._ln_beta(g, d + 1.0))
    out += head.b1la
    gl1 = g * l - 1.0
    if gl1 != 0.0:
        out += gl1 * head.ly
    if d != 0.0:
        out += d * head.tail(l)[1]
    return out, head


def _log_pdf_at(theta: Params, log_x):
    """log-density at log x of any shape (a 0-d array for a scalar)."""
    lx = np.asarray(log_x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out, _ = _log_density(theta, lx.reshape(-1))
    return out.reshape(lx.shape)


def log_pdf(theta: Params, x: float) -> float:
    """Log of the density at x in the open interval (0, 1).

    Evaluated entirely in log space so extreme parameter magnitudes do
    not overflow.  Raises for x at or outside the endpoints, where the
    density may diverge.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0) or np.any(xs >= 1.0):
        raise ValueError("log_pdf requires x strictly inside (0, 1)")
    out = _log_pdf_at(theta, np.log(xs))
    if out.ndim == 0:
        return float(out)
    return out


def pdf(theta: Params, x: float) -> float:
    """Density at x; zero outside the open interval (0, 1)."""
    xs = np.asarray(x, dtype=float)
    inside = (xs > 0.0) & (xs < 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lp = _log_pdf_at(theta, np.log(np.where(inside, xs, 0.5)))
        out = np.where(inside, np.exp(lp), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _log_z(theta: Params, log_x):
    """log z with z = [1 - (1 - x^alpha)^beta]^lambda, at a 1-d array of log x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return theta.lam * _Head(theta.alpha, theta.beta, log_x).ly


def _log_w_x(theta: Params, log_v, log_neg_log_v):
    """(log w, log x) at a 1-d array of log v, given log(-log v) as well,
    for the map X = x(V) with V ~ Beta(gamma, delta + 1):

        w = (1 - v^{1/lambda})^{1/beta} = 1 - x^alpha,  x = (1 - w)^{1/alpha}.

    Each log1mexp takes its first-order branch where its argument is below
    e^-20 in size, the mirror image of _Head: w keeps its precision where
    v^{1/lambda} rounds to 1, and x where w does, so a tail draw never
    rounds to 0 or 1 on the way.  v = 0 maps to x = 0 and v = 1 to x = 1.
    Run under np.errstate(divide="ignore", invalid="ignore").
    """
    a, b, l = theta.alpha, theta.beta, theta.lam
    s = log_v / l
    lw1 = _log1mexp_tiny_arr(s, log_neg_log_v, -math.log(l))
    log_w = lw1 / b
    # log(-log w) = log(-lw1) - log beta
    log_x = _log1mexp_tiny_arr(log_w, _log_neg_log1mexp_arr(s, lw1), -math.log(b))
    log_x /= a
    return log_w, log_x


class _AtV:
    """The law at a 1-d array of v, given as lv = log v and l1v =
    log(1 - v), with v a draw of V ~ Beta(gamma, delta + 1) and x = x(v):
    log_w and log_x by _log_w_x, taking log(-log v) from l1v near v = 1, and on
    first use log_f = log f(x) and log_cdf = (log F(x), log(1 - F(x))),
    F(x) = I_v(gamma, delta + 1).  None is formed from x or v, so no tail
    rounds to 0 or 1:

        log f = log(lambda alpha beta / B) + (alpha - 1) log x
                + (beta - 1) log w + (gamma - 1/lambda) log v + delta log(1 - v).

    log_cdf takes the scalar kernel point by point where pointwise.
    """

    def __init__(self, theta: Params, lv: np.ndarray, l1v: np.ndarray, pointwise: bool):
        self.theta, self.lv, self.l1v, self.pointwise = theta, lv, l1v, pointwise
        with np.errstate(divide="ignore", invalid="ignore"):
            self.log_w, self.log_x = _log_w_x(theta, lv, _log_neg_log1mexp_arr(l1v, lv))

    @functools.cached_property
    def log_f(self) -> np.ndarray:
        a, b, g, d, l = self.theta.as_tuple()
        out = (g - 1.0 / l) * self.lv + (math.log(l * a * b) - specfun.ln_beta(g, d + 1.0))
        for c, part in ((a - 1.0, self.log_x), (b - 1.0, self.log_w), (d, self.l1v)):
            if c != 0.0:
                out += c * part
        return out

    @functools.cached_property
    def log_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        # one incomplete beta per node, on the side of the mean of V where
        # its argument is exact: I_v(gamma, delta + 1) below, and
        # 1 - F = I_{1-v}(delta + 1, gamma) above, where F rounds to 1
        g, q = self.theta.gamma, self.theta.delta + 1.0
        up = self.lv > math.log(g / (g + q))
        part = np.empty_like(self.lv)
        for side, lz, a, b in ((~up, self.lv, g, q), (up, self.l1v, q, g)):
            if side.any():
                part[side] = _inc_beta_at_log_z(lz[side], a, b, pointwise=self.pointwise)
        with np.errstate(divide="ignore"):
            log_part, log_rest = np.log(part), np.log1p(-part)
        return np.where(up, log_rest, log_part), np.where(up, log_part, log_rest)


# _expect's first step and half-width in s, its relative tolerance, node cap
_EXPECT_STEP, _EXPECT_SPAN, _EXPECT_TOL, _EXPECT_MAX_NODES = 0.5, 9.0, 1e-13, 1 << 14
# Largest argument of math.exp that stays finite.
_LOG_MAX = math.log(np.finfo(float).max)


def _expect(theta: Params, log_h, upper: float = 1.0, *, nodes: dict):
    """E[h_k(V) | V <= v_a], V ~ Beta(gamma, delta + 1), for each row k of
    log_h(at), at the _AtV of a node array and v_a = G1(upper)^lambda (the
    whole law for upper >= 1).  Where B(gamma, delta + 1) or its inverse
    is not a finite float, the _AtV takes F by the scalar kernel point by
    point: the array one stalls there (fault F3) until it iterates on an
    active set.

    The trapezoid rule in s with logit V = mu + sigma sinh s, mu and sigma
    the mean and sd of logit V (Takahasi and Mori 1974; Mori and Sugihara,
    J. Comput. Appl. Math. 127, 2001); below v_a, logit(V / v_a) maps
    (0, v_a) onto the line, with the frame of logit Beta(gamma, 1).  The
    nodes on [-_EXPECT_SPAN, _EXPECT_SPAN] are cut to where some row's
    terms exceed eps of its sum, and h is halved until, from the second
    halving on, two levels agree to _EXPECT_TOL relative.  A value is a
    row's sum over the weights' sum, so the rounding of ln B, common to
    both, cancels.  Each row's bound is its change over the last halving
    plus the rounding of its two sums, eps sum_i t_i (1 + |log t_i|) over
    the weights' sum for the row's terms t_i, and that of the weights times
    the value (Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 4): a term's relative error is about eps times its exponent.
    Returns (values, bounds, nodes used, settled): not settled where the
    rows do not settle within _EXPECT_MAX_NODES nodes or the terms at the
    span's ends are not negligible.

    nodes keeps each node array's _AtV and log-weight, keyed by upper and
    the array, for every call with the same theta that is given the same
    dict: every whole-law expectation puts its nodes on one lattice of
    nested halvings, so calls for different h share node arrays, and each
    is evaluated once.  The caller owns the dict and decides how long it
    lives; only log_h and the sums are taken per call.
    """
    g, d = theta.gamma, theta.delta
    lva, l1va, q, ln_b = 0.0, -math.inf, d + 1.0, specfun.ln_beta(g, d + 1.0)
    pointwise = not abs(ln_b) < _LOG_MAX
    if upper < 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            head = _Head(theta.alpha, theta.beta, np.array([math.log(upper)]))
            lva, l1va = (float(part[0]) for part in head.tail(theta.lam))
        q = 1.0
    mu = specfun.digamma(g) - specfun.digamma(q)
    sigma = math.sqrt(specfun.trigamma(g) + specfun.trigamma(q))

    def at_nodes(s: np.ndarray) -> tuple[_AtV, np.ndarray]:
        """The _AtV and the log-weights at s."""
        t = mu + sigma * np.sinh(s)
        l1u = -np.logaddexp(0.0, t)  # log(1 - u), u = v / v_a
        lv = lva - np.logaddexp(0.0, -t)
        # 1 - v = (1 - v_a) + v_a (1 - u); every row shares x, f and F
        at = _AtV(theta, lv, np.logaddexp(l1va, lva + l1u), pointwise)
        # the density of V times dv/ds = v (1 - u) sigma cosh s
        log_weight = (g * lv + d * at.l1v + l1u - ln_b + math.log(sigma)
                      + np.abs(s) + np.log1p(np.exp(-2.0 * np.abs(s))) - math.log(2.0))
        return at, log_weight

    def terms(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The weights and each row's terms t at s, and t |log t|, the
        rounding of each from its exponent over eps."""
        key = (upper, s.tobytes())
        if key not in nodes:
            nodes[key] = at_nodes(s)
        at, log_weight = nodes[key]
        with np.errstate(over="ignore", invalid="ignore"):
            log_t = np.vstack([log_weight, log_h(at) + log_weight])
            t = np.exp(log_t)
            return t, np.where(t > 0.0, t * np.abs(log_t), 0.0)

    def ratios(total: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return total[1:] / total[0]

    def bounds(change, value, total, total_err) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            mass = (total + total_err) / total[0]
        return change + np.finfo(float).eps * (mass[1:] + np.abs(value) * mass[0])

    h, k = _EXPECT_STEP, int(_EXPECT_SPAN / _EXPECT_STEP)
    t, t_err = terms(np.arange(-k, k + 1) * h)
    # one negligible node is kept beyond each end
    wide = np.flatnonzero((t > np.finfo(float).eps * t.sum(axis=1, keepdims=True)).any(axis=0))
    lo, hi = (wide[0] - 1, wide[-1] + 1) if wide.size else (-1, 2 * k + 1)
    ends_ok = lo >= 0 and hi <= 2 * k
    lo, hi = max(lo, 0), min(hi, 2 * k)
    total, total_err = t[:, lo : hi + 1].sum(axis=1), t_err[:, lo : hi + 1].sum(axis=1)
    used, n = 2 * k + 1, hi - lo + 1
    value, change = ratios(total), np.full(len(t) - 1, np.inf)
    for level in itertools.count(1):
        if used + n - 1 > _EXPECT_MAX_NODES:
            break
        t, t_err = terms((lo - k) * _EXPECT_STEP + (np.arange(n - 1) + 0.5) * h)
        total, total_err = total + t.sum(axis=1), total_err + t_err.sum(axis=1)
        used, h, n = used + n - 1, h / 2.0, 2 * n - 1
        change, value = np.abs(ratios(total) - value), ratios(total)
        if not np.all(np.isfinite(value)):
            break
        if level >= 2 and np.all(change <= _EXPECT_TOL * np.abs(value)):
            return value, bounds(change, value, total, total_err), used, ends_ok
    return value, bounds(change, value, total, total_err), used, False


# cdf and quantile call the scalar incomplete-beta kernels point by point up
# to this many points, the array kernels above.  On the benchmark's shapes
# (2-core x86-64, Python 3.11, NumPy 2.4) one point costs 4-9 us in the
# scalar I_x, against 0.08-0.36 ms for the array I_x on 9 points, and 35-42
# us in the scalar inverse, against 0.7-1.2 ms for the array inverse on 9:
# the scalar loop is still the cheaper at 9.  quantile takes a unit shape
# (gamma = 1 or delta = 0) by the array closed form at every size: 27-30 us
# for 8 Kw, KwKw or spike quantiles, against 62-78 us point by point.
_SCALAR_POINTS = 8


def cdf(theta: Params, x: float) -> float:
    """Distribution function; 0 below the support, 1 above.  A NaN x is
    a ValueError."""
    xs = np.asarray(x, dtype=float)
    if np.isnan(xs).any():
        raise ValueError("cdf requires x that is not NaN")
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs).astype(float)
    out = np.empty_like(xs)
    below = xs <= 0.0
    above = xs >= 1.0
    inside = ~(below | above)
    out[below] = 0.0
    out[above] = 1.0
    if np.any(inside):
        lz = _log_z(theta, np.log(xs[inside]))
        out[inside] = _inc_beta_at_log_z(lz, theta.gamma, theta.delta + 1.0,
                                         pointwise=inside.sum() <= _SCALAR_POINTS)
    return float(out[0]) if scalar else out


def _inc_beta_at_log_z(lz: np.ndarray, a: float, b: float, pointwise: bool) -> np.ndarray:
    """I_z(a, b) at a 1-d array of log z: the scalar kernel point by point
    where pointwise, the array kernel otherwise."""
    z = np.clip(np.exp(lz), 0.0, 1.0)
    if pointwise:
        v = np.array([specfun.reg_inc_beta(float(zi), a, b) for zi in z])
    else:
        v = specfun._reg_inc_beta_arr(z, a, b)
    # Where z underflows but log z is finite, I_z(a, b) is its leading
    # term z^a / (a B(a, b)), taken from log z; the next term is smaller
    # by a factor of order z, so below 1e-300 the leading term is exact
    # in float64.
    if not z.all():
        tiny = (z == 0.0) & np.isfinite(lz)
        lead = a * lz[tiny] - math.log(a) - specfun.ln_beta(a, b)
        v[tiny] = np.minimum(np.exp(lead), 1.0)
    return v


def quantile(theta: Params, u: float) -> float:
    """The x with cdf(theta, x) = u: x(V) at V = I^{-1}(u; gamma, delta + 1),
    by the scalar inverse kernel point by point up to _SCALAR_POINTS points
    and the array kernel above, or its closed form at any size where
    gamma = 1 or delta = 0; then _log_w_x from log v and log(-log v).
    Exact at the endpoints.  Accuracy: |cdf(x) - u| <= 1e-9.
    """
    g, d = theta.gamma, theta.delta
    us = np.asarray(u, dtype=float)
    # a NaN fails both comparisons, so it is rejected here too
    if not np.all((us >= 0.0) & (us <= 1.0)):
        raise ValueError("u must lie in [0, 1]")
    scalar = us.ndim == 0
    us = np.atleast_1d(us)
    if us.size > _SCALAR_POINTS or g == 1.0 or d == 0.0:
        v = specfun._inv_reg_inc_beta_arr(us, g, d + 1.0)
    else:
        v = np.array([specfun.inv_reg_inc_beta(float(ui), g, d + 1.0) for ui in us])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_v = np.log(v)
        # log(-log v), in v's array
        _, out = _log_w_x(theta, log_v, np.log(np.negative(log_v, out=v), out=v))
        np.exp(out, out=out)
    return float(out[0]) if scalar else out


def sample(theta: Params, n: int, seed: int) -> np.ndarray:
    """Draw n variates, deterministically for a given seed.

    :func:`quantile` at n seeded uniforms on (0, 1), so n <= _SCALAR_POINTS
    draws take the scalar inverse kernel where gamma != 1 and delta != 0;
    each draw is clipped to [5e-308, 1 - 2^-53], strictly inside (0, 1).
    Raises NonConvergenceError where the inverse does.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    # uniforms on the open interval: integers in [1, 2^53) scaled down
    u = rng.integers(1, 1 << 53, size=n).astype(float) * 2.0**-53
    return np.clip(quantile(theta, u), 5e-308, 1.0 - 2.0**-53)


def power_transform_params(theta: Params, a: float) -> Params:
    """Parameters of Y = X^{1/a} when X has alpha = 1.

    Raising a draw with pattern (1, beta, gamma, delta, lambda) to the
    power 1/a lands back in the family with alpha = a and everything
    else unchanged.
    """
    if theta.alpha != 1.0:
        raise ValueError("power_transform_params requires alpha == 1")
    return theta.replace(alpha=specfun._check_positive("a", a))


def lgkw_pdf(theta: Params, y: float) -> float:
    """Density of Y = -log X on (0, inf).

    Change of variables: pdf(theta, e^{-y}) * e^{-y}, evaluated from
    log x = -y directly so very large y cannot underflow prematurely.
    For beta = gamma = lambda = 1, delta = 0 this is the exponential
    density with rate alpha; the general case covers the log-space
    reductions of the family (beta-generalized-exponential and friends).
    """
    ys = np.asarray(y, dtype=float)
    if np.any(ys <= 0.0):
        raise ValueError("lgkw_pdf requires y > 0")
    with np.errstate(over="ignore"):
        out = np.exp(_log_pdf_at(theta, -ys) - ys)
    if out.ndim == 0:
        return float(out)
    return out
