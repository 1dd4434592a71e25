"""Exact distribution primitives for the generalized Kumaraswamy family.

The five-parameter family on (0, 1) has distribution function

    F(x) = I_z(gamma, delta + 1),    z = [1 - (1 - x^alpha)^beta]^lambda,

where I is the regularized incomplete beta function.  This module holds
the parameter container, the named sub-model patterns, pdf / log-pdf /
cdf / quantile, a seed-deterministic sampler, the power-transformation
rule for the alpha = 1 slice, and the density of the negative-log
transform.

Everything is evaluated through compensated one-minus-power forms
(expm1 / log1p / log1mexp) so that both tails stay accurate; the
log-density never exponentiates an intermediate factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .specfun import _log1mexp_arr, _log1mexp_tiny_arr, _log_neg_log1mexp_arr, log1mexp

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
    in for the reserved word ``lambda``.
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "lam"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")
        d = self.delta
        if not (isinstance(d, (int, float)) and math.isfinite(d) and d >= 0):
            raise ValueError(f"delta must be a nonnegative finite real, got {d!r}")

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
    """

    __slots__ = ("ab", "s", "la", "lla", "bla", "ly", "lny", "a1lx", "b1la", "_tail")

    def __init__(self, a: float, b: float, log_x: np.ndarray):
        self.ab = (a, b)
        self.s = s = a * log_x
        self.la = la = _log1mexp_arr(s)
        self.lla = lla = _log_neg_log1mexp_arr(s, la)
        self.bla = bla = b * la
        self.ly = ly = _log1mexp_tiny_arr(bla, math.log(b) + lla)
        self.lny = _log_neg_log1mexp_arr(bla, ly)
        self.a1lx = (a - 1.0) * log_x
        self.b1la = (b - 1.0) * la
        self._tail = None

    def tail(self, lam: float):
        """(lly, lu) for this lambda."""
        if self._tail is None or self._tail[0] != lam:
            lly = lam * self.ly
            lu = _log1mexp_tiny_arr(lly, math.log(lam) + self.lny)
            self._tail = (lam, lly, lu)
        return self._tail[1:]


def _log_density(theta: Params, log_x: np.ndarray, head: _Head | None = None):
    """Per-element log-density at a 1-d float array of log x, and its head.

    The one pass behind the log-density, the log-likelihood and its
    score and information.  ``head`` is the :class:`_Head` of an earlier
    call on the same log_x; it is reused as it is when alpha and beta
    have not changed, and rebuilt otherwise.  lu is built only where
    delta != 0.  Run under np.errstate(divide="ignore",
    invalid="ignore"), as the head is.
    """
    a, b, g, d, l = theta.as_tuple()
    if head is None or head.ab != (a, b):
        head = _Head(a, b, log_x)
    out = head.a1lx + (math.log(l) + math.log(a) + math.log(b) - specfun.ln_beta(g, d + 1.0))
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


# cdf and quantile call the scalar incomplete-beta kernels point by point up
# to this many points, the array kernels above.  On the benchmark's shapes one
# point costs 13-27 us scalar against 0.1-0.4 ms in the array I_x (inverse:
# 0.04-0.1 against 0.4-2 ms), and the scalar loop is still the cheaper at 9.
# At a unit shape (gamma = 1 or delta = 0) the array inverse is a closed form,
# about 10 us at 9 points against 0.2-0.7 ms for 9 scalar solves; the switch
# holds there too, so up to 8 points keep the scalar Newton's values.
_SCALAR_POINTS = 8


def cdf(theta: Params, x: float) -> float:
    """Distribution function; 0 below the support, 1 above."""
    xs = np.asarray(x, dtype=float)
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
        z = np.clip(np.exp(lz), 0.0, 1.0)
        g, d = theta.gamma, theta.delta
        if inside.sum() > _SCALAR_POINTS:
            v = specfun._reg_inc_beta_arr(z, g, d + 1.0)
        else:
            v = np.array([specfun.reg_inc_beta(float(zi), g, d + 1.0) for zi in z])
        # Where z underflows but log z is finite, I_z(g, d + 1) is its
        # leading term z^g / (g B(g, d + 1)), taken from log z; the next
        # term is smaller by a factor of order z, so below 1e-300 the
        # leading term is exact in float64.
        if not z.all():
            tiny = (z == 0.0) & np.isfinite(lz)
            lead = g * lz[tiny] - math.log(g) - specfun.ln_beta(g, d + 1.0)
            v[tiny] = np.minimum(np.exp(lead), 1.0)
        out[inside] = v
    return float(out[0]) if scalar else out


def quantile(theta: Params, u: float) -> float:
    """The x with cdf(theta, x) = u, via the inverse incomplete beta.

    Exact at the endpoints.  Accuracy: |cdf(x) - u| <= 1e-9.
    """
    a, b, g, d, l = theta.as_tuple()
    us = np.asarray(u, dtype=float)
    if np.any((us < 0.0) | (us > 1.0)):
        raise ValueError("u must lie in [0, 1]")
    scalar = us.ndim == 0
    us = np.atleast_1d(us).astype(float)
    if us.size > _SCALAR_POINTS:
        v = specfun._inv_reg_inc_beta_arr(us, g, d + 1.0)
    else:
        v = np.array([specfun.inv_reg_inc_beta(float(ui), g, d + 1.0) for ui in us])
    out = np.empty_like(us)
    zero = v == 0.0
    one = v == 1.0
    mid = ~(zero | one)
    out[zero] = 0.0
    out[one] = 1.0
    if np.any(mid):
        with np.errstate(divide="ignore"):
            lv = np.log(v[mid])
            # x = [1 - (1 - v^{1/lambda})^{1/beta}]^{1/alpha}, all in logs
            log_x = log1mexp(log1mexp(lv / l) / b) / a
        out[mid] = np.exp(log_x)
    return float(out[0]) if scalar else out


def sample(theta: Params, n: int, seed: int) -> np.ndarray:
    """Draw n variates, deterministically for a given seed.

    Inversion throughout: uniforms are pushed through the inverse
    incomplete beta to get the underlying beta variate V with shape
    (gamma, delta + 1), then X = [1 - (1 - V^{1/lambda})^{1/beta}]^{1/alpha}.
    Where delta = 0 (Kw, EKw) V = U^{1/gamma}, and where gamma = 1 (Kw,
    KwKw) V = 1 - (1 - U)^{1/(delta + 1)}, both exact; other laws take a
    Newton solve per draw, which raises NonConvergenceError where it fails.
    Every returned value is strictly inside (0, 1).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(seed)
    # uniforms on the open interval: integers in [1, 2^53) scaled down
    u = rng.integers(1, 1 << 53, size=n).astype(float) * 2.0**-53
    g, d, l, b, a = theta.gamma, theta.delta, theta.lam, theta.beta, theta.alpha
    v = specfun._inv_reg_inc_beta_arr(u, g, d + 1.0)
    v = np.clip(v, 5e-324, 1.0 - 2.0**-53)
    with np.errstate(divide="ignore"):
        log_x = log1mexp(log1mexp(np.log(v) / l) / b) / a
    x = np.exp(log_x)
    return np.clip(x, 5e-308, 1.0 - 2.0**-53)


def power_transform_params(theta: Params, a: float) -> Params:
    """Parameters of Y = X^{1/a} when X has alpha = 1.

    Raising a draw with pattern (1, beta, gamma, delta, lambda) to the
    power 1/a lands back in the family with alpha = a and everything
    else unchanged.
    """
    if theta.alpha != 1.0:
        raise ValueError("power_transform_params requires alpha == 1")
    if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
        raise ValueError(f"a must be a positive finite real, got {a!r}")
    return theta.replace(alpha=float(a))


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
