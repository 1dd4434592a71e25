"""Independent reference computations for the benchmark's checks.

Nothing here imports gkw.  Densities, distribution functions and
quantiles of the generalized Kumaraswamy law are rebuilt from NumPy and
SciPy (and mpmath in the self-tests), so that agreement with the
program means something.  A parameter vector is a plain 5-tuple
(alpha, beta, gamma, delta, lambda).

The GKw law: F(x) = I_z(gamma, delta + 1) with
z = y^lambda, y = 1 - (1 - x^alpha)^beta, and density

    f(x) = lambda alpha beta x^(alpha-1) (1-x^alpha)^(beta-1)
           y^(gamma lambda - 1) (1 - y^lambda)^delta / B(gamma, delta+1).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special

# Sub-model patterns: pinned (index, value) pairs over
# (alpha, beta, gamma, delta, lambda).  The fitter's nesting rule is
# "strictly more pins, agreeing on every pin of the larger model".
NAMES = ("alpha", "beta", "gamma", "delta", "lam")
PINS = {
    "GKw": {},
    "BKw": {4: 1.0},
    "KwKw": {2: 1.0},
    "EKw": {2: 1.0, 3: 0.0},
    "Mc": {0: 1.0, 1: 1.0},
    "Beta": {0: 1.0, 1: 1.0, 4: 1.0},
    "BP": {0: 1.0, 1: 1.0},
    "Kw": {2: 1.0, 3: 0.0, 4: 1.0},
}


def nests(null: str, alt: str) -> bool:
    small, big = PINS[null], PINS[alt]
    return len(small) > len(big) and all(small.get(k) == v for k, v in big.items())


def free_count(model: str) -> int:
    return 5 - len(PINS[model])


def _log1mexp(t):
    """log(1 - e^t) for t <= 0, accurate at both ends (-inf at t = 0)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore"):
        near = np.log(-np.expm1(np.minimum(t, -0.0)))
        far = np.log1p(-np.exp(np.minimum(t, -math.log(2.0))))
    return np.where(t > -math.log(2.0), near, far)


def _chain(theta, log_x):
    """(log(1 - x^a), log y, log(1 - y^lambda)) from log x, in log space.

    Where x^alpha underflows, log y = log beta + alpha log x; where y
    rounds to 1, log(-log y) = beta log(1 - x^alpha) and
    log(1 - y^lambda) = log lambda + log(-log y).
    """
    a, b, g, d, l = theta
    s = a * np.asarray(log_x, dtype=float)
    la = _log1mexp(s)
    bla = b * la
    with np.errstate(divide="ignore"):
        # log y = log(1 - e^bla); e^s underflowing leaves la = -0
        ly = np.where(s < -700.0, math.log(b) + s, _log1mexp(bla))
        # log(-log y): -log y = -log1p(-e^bla) ~ e^bla as bla -> -inf
        lny = np.where(bla < -700.0, bla, np.log(-ly))
        t = l * ly
        lu = np.where(t > -1e-300, math.log(l) + lny, _log1mexp(t))
    return la, ly, lu


def ln_beta(a: float, b: float) -> float:
    """log B(a, b) to full double precision, also where lgamma(a) is huge
    and the lgamma difference cancels (a = 2e4 loses ten digits)."""
    with mp.workdps(40):
        return float(mp.log(mp.beta(a, b)))


def log_pdf(theta, x):
    a, b, g, d, l = theta
    lx = np.log(np.asarray(x, dtype=float))
    la, ly, lu = _chain(theta, lx)
    out = (math.log(l) + math.log(a) + math.log(b) - ln_beta(g, d + 1.0)
           + (a - 1.0) * lx + (b - 1.0) * la)
    if g * l != 1.0:
        out = out + (g * l - 1.0) * ly
    if d != 0.0:
        out = out + d * lu
    return out


def loglik(theta, x) -> float:
    return math.fsum(np.asarray(log_pdf(theta, x), dtype=float).ravel())


def pdf(theta, x):
    return np.exp(log_pdf(theta, x))


def _reg_beta(log_z, a, b):
    """I_z(a, b) from log z, with the closed forms for a = 1 and b = 1.

    When b z is far below the double epsilon the leading term of the
    series, z^a / (a B(a, b)), is exact to double precision and stays
    representable where z itself underflows.
    """
    log_z = np.asarray(log_z, dtype=float)
    z = np.exp(log_z)
    if b == 1.0:
        return np.exp(a * log_z)
    if a == 1.0:
        return -np.expm1(b * np.log1p(-np.minimum(z, 1.0)))
    tiny = log_z + math.log(max(b, 1.0)) < -40.0
    with np.errstate(over="ignore"):
        lead = np.exp(a * log_z - math.log(a) - special.betaln(a, b))
    return np.where(tiny, lead, special.betainc(a, b, z))


def cdf(theta, x):
    """Distribution function at points strictly inside (0, 1)."""
    a, b, g, d, l = theta
    _, ly, _ = _chain(theta, np.log(np.asarray(x, dtype=float)))
    return _reg_beta(l * ly, g, d + 1.0)


def quantile(theta, u):
    """x with F(x) = u, from scipy's inverse incomplete beta (log-space map)."""
    a, b, g, d, l = theta
    u = np.asarray(u, dtype=float)
    if d == 0.0:
        log_v = np.log(u) / g                       # I_v(g, 1) = v^g
    else:
        v = special.betaincinv(g, d + 1.0, u)
        with np.errstate(divide="ignore"):
            log_v = np.log(v)
        # where betaincinv underflows, invert the leading series term
        lead = (np.log(u) + math.log(g) + special.betaln(g, d + 1.0)) / g
        log_v = np.where(v < 1e-280, lead, log_v)
    return np.exp(_log1mexp(_log1mexp(log_v / l) / b) / a)


def draw(theta, n: int, seed: int) -> np.ndarray:
    """n variates by inversion of seeded uniforms, without gkw.

    The uniforms are those of gkw's sampler for the same seed (integers
    in [1, 2^53) scaled by 2^-53), pushed through scipy's inverse
    incomplete beta, so the draws are reproducible by anyone with NumPy
    and SciPy and do not change when gkw's sampler does.
    """
    rng = np.random.default_rng(seed)
    u = rng.integers(1, 1 << 53, size=n).astype(float) * 2.0**-53
    return np.clip(quantile(theta, u), 5e-308, 1.0 - 2.0**-53)


def ks_pvalue(theta, x) -> float:
    """Two-sided Kolmogorov-Smirnov p-value of draws x against cdf(theta)."""
    xs = np.sort(np.asarray(x, dtype=float))
    n = xs.size
    F = cdf(theta, xs)
    i = np.arange(1, n + 1)
    dstat = max(float(np.max(i / n - F)), float(np.max(F - (i - 1) / n)))
    from scipy import stats  # imported on first use: it is large
    return float(stats.kstwo.sf(dstat, n))


def _quad(f, lo=0.0, hi=1.0, points=None) -> float:
    from scipy import integrate  # imported on first use: it is large
    val, _ = integrate.quad(f, lo, hi, points=points, limit=400,
                            epsabs=1e-14, epsrel=1e-12)
    return val


def moment(theta, r: int) -> float:
    """E[X^r]: closed forms for Kw and Beta laws, quadrature otherwise."""
    a, b, g, d, l = theta
    if (g, d, l) == (1.0, 0.0, 1.0):
        return b * math.exp(special.betaln(1.0 + r / a, b))
    if (a, b, l) == (1.0, 1.0, 1.0):
        return math.exp(special.betaln(g + r, d + 1.0) - special.betaln(g, d + 1.0))
    return _quad(lambda x: x**r * float(pdf(theta, x)))


def renyi(theta, rho: float):
    """Renyi entropy log(int f^rho)/(1 - rho), or None where it diverges."""
    a, b, g, d, l = theta
    if rho * (a * g * l - 1.0) <= -1.0 or rho * (b * (d + 1.0) - 1.0) <= -1.0:
        return None
    integral = _quad(lambda x: math.exp(rho * float(log_pdf(theta, x))))
    return math.log(integral) / (1.0 - rho)


def mean_deviations(theta) -> tuple[float, float]:
    """E|X - mean| and E|X - median| by quadrature split at the centre."""
    mu = moment(theta, 1)
    med = float(quantile(theta, 0.5))
    out = []
    for c in (mu, med):
        out.append(_quad(lambda x: abs(x - c) * float(pdf(theta, x)), points=[c]))
    return out[0], out[1]


def chi2_sf(w: float, df: int) -> float:
    from scipy import stats
    return float(stats.chi2.sf(w, df))
