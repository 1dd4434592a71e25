"""Reference routes that the tests check the library against: finite
differences, Monte Carlo order-statistic means, and the survival-power
route to order-statistic moments.

Importable module (not collected: its name does not start with test_).
None of this ships in the package; the library has one route per
quantity, and these are the independent ones.
"""

import math

import numpy as np

from gkw import core, series
from gkw.core import Params


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


def order_stat_moment_barakat(theta: Params, i: int, n: int, r: int,
                              ctl: series.SeriesControl = series._DEFAULT_CTL
                              ) -> series.SeriesValue:
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
    tables = series._Tables(theta, ctl)
    if not tables.v_ok:
        return series._order_stat_quad(tables, [(i, n)], float(r))[0]
    a, b, g, d, l = theta.as_tuple()
    lead = tables.lead
    deg = None
    if series._is_pos_int(b) and series._is_nonneg_int(d) and b * l * (g + d) <= ctl.max_terms:
        deg = round(b * l * (g + d))
    H = np.concatenate(([1.0], -tables.cdf_coeffs[:deg]))  # 1 - F in powers of w
    total = 0.0
    bound = 0.0
    terms_used = 0
    for p in range(n - i + 1, n + 1):
        Hp = series._ps_pow(H, float(p), p * deg + 1 if deg else len(H))
        s = np.arange(lead + 1, len(Hp), dtype=float)
        terms = Hp[lead + 1:] / (r + s * a)
        sv = series._sum_terms(terms, ctl, complete=deg is not None)
        if not series._sum_ok(sv, terms, ctl, shift=1.0 / r):
            return series._order_stat_quad(tables, [(i, n)], float(r))[0]
        i_p = 1.0 / r + float(sv)
        coeff = r * (-1.0) ** (p - (n - i + 1)) * math.comb(p - 1, n - i) * math.comb(n, p)
        total += coeff * i_p
        bound += abs(coeff) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
    return series.SeriesValue(total, bound, terms_used, "series", True)
