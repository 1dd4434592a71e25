"""Reference routes that the tests check the library against: finite
differences, Monte Carlo order-statistic means, the survival-power
route to order-statistic moments, and the paper's series for the
moments, the Renyi entropy, the incomplete first moment and the mgf.

Importable module (not collected: its name does not start with test_).
None of this ships in the package; the library has one route per
quantity, and these are the independent ones.  ``same_bits`` compares a
rewritten kernel with its reference to the bit.
"""

import math

import numpy as np

from gkw import core, series
from gkw.core import Params
from gkw.specfun import ln_beta


def same_bits(got, want) -> bool:
    """Equal shape and float bits, with NaN equal to NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    nan = np.isnan(got) & np.isnan(want)
    return np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, want).tobytes()


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
        i_p = 1.0 / r + float(sv)
        mass = 1.0 / r + float(np.abs(terms[: sv.terms]).sum())
        if not (sv.converged and series._rounding_ok(i_p, mass, ctl)):
            return series._order_stat_quad(tables, [(i, n)], float(r))[0]
        coeff = r * (-1.0) ** (p - (n - i + 1)) * math.comb(p - 1, n - i) * math.comb(n, p)
        total += coeff * i_p
        bound += abs(coeff) * sv.tail_bound
        terms_used = max(terms_used, sv.terms)
    return series.SeriesValue(total, bound, terms_used, "series", True)


def moment_series(theta: Params, r: float,
                  ctl: series.SeriesControl = series._DEFAULT_CTL) -> series.SeriesValue | None:
    """E[X^r] by the paper's expansion for integer delta; None where it
    does not apply or does not converge.

    E[X^r] = sum_j omega_j psi_j M_j(r), psi_j = lambda (gamma + j), a
    finite j-sum: psi_j M_j(r) is E[X^r] under the cdf G1^psi_j.  Where
    every psi_j is an integer, M_j(r) is the finite Kumaraswamy-mixture
    sum sum_k (-1)^k C(psi_j - 1, k) beta B(1 + r/alpha, (k + 1) beta);
    otherwise M_j(r) = sum_m (-1)^m C(r/alpha, m) B(psi_j, m/beta + 1),
    which terminates where r/alpha is a nonnegative integer and is
    truncated by the library's rule otherwise.  None where delta is not
    an integer, the omega weights do not fit in float64, or a sum does
    not converge or cancels below rounding.
    """
    a, b, g, d, l = theta.as_tuple()
    if not series._is_nonneg_int(d):
        return None
    try:
        omega = series.omega_weights(theta, ctl)
    except series.ExpansionDomainError:
        return None
    rr = r / a
    psis = [l * (g + j) for j in range(len(omega))]
    mixture = all(series._is_pos_int(psi) for psi in psis)
    total = bound = mass = 0.0
    for om, psi in zip(omega, psis):
        if mixture:
            coeffs = series._signed_binom(psi - 1.0, round(psi))
            terms = np.array([psi * c * b * math.exp(ln_beta(1.0 + rr, (k + 1.0) * b))
                              for k, c in enumerate(coeffs)])
        else:
            coeffs = series._signed_binom(rr, series._count(rr, ctl))
            terms = np.array([psi * c * math.exp(ln_beta(psi, m / b + 1.0))
                              for m, c in enumerate(coeffs)])
        sv = series._sum_terms(terms, ctl, complete=mixture or series._is_nonneg_int(rr))
        if not series._sum_ok(sv, terms, ctl):
            return None
        total += om * float(sv)
        bound += abs(om) * sv.tail_bound
        mass += abs(om * float(sv))
    if not series._rounding_ok(total, mass, ctl):
        return None
    return series.SeriesValue(total, bound + series._EPS * mass, len(omega), "series", True)


def renyi_series(theta: Params, rho: float,
                 ctl: series.SeriesControl = series._DEFAULT_CTL) -> series.SeriesValue | None:
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
    tables = series._Tables(theta, ctl)
    b_exp = rho * (b - 1.0) + 1.0
    log_front = rho * (math.log(l) + math.log(a) + math.log(b) - tables.ln_b) - math.log(a)
    rd = rho * d
    if not (b_exp > 0.0 and series._is_nonneg_int(rd) and log_front < core._LOG_MAX):
        return None
    N = ctl.max_terms
    a0 = (rho * (a * g * l - 1.0) + 1.0) / a
    m_count = series._count(rd, ctl)
    # signed-coefficient cancellation guard: l1(A)^p_max over the
    # integral's own scale must leave headroom below 1/eps
    p_max = rho * (g * l - 1.0) + l * (m_count - 1)
    if p_max * math.log(max(float(np.abs(tables.s_over_w).sum()), 1.0)) >= 27.0:
        return None
    Pm = series._ps_pow(tables.s_over_w, rho * (g * l - 1.0), N)
    AL = series._ps_pow(tables.s_over_w, float(l), N)
    s = np.arange(N, dtype=float)
    binom_m = 1.0
    inner_bound = 0.0
    m_terms = []
    for mm in range(m_count):
        if mm > 0:
            binom_m *= (rd - (mm - 1)) / mm
            Pm = series._ps_mul(Pm, AL, N)
        terms = Pm * np.exp([ln_beta(c, b_exp) for c in a0 + l * mm + s])
        sv = series._sum_terms(terms, ctl)
        if not series._sum_ok(sv, terms, ctl):
            return None
        inner_bound += abs(binom_m) * sv.tail_bound
        m_terms.append((-1.0) ** mm * binom_m * float(sv))
    m_sum = math.fsum(m_terms)
    integral = math.exp(log_front) * m_sum
    if not (series._rounding_ok(m_sum, sum(map(abs, m_terms)), ctl)
            and 0.0 < integral < math.inf):
        return None
    bound = math.exp(log_front) * inner_bound / (integral * abs(1.0 - rho))
    return series.SeriesValue(math.log(integral) / (1.0 - rho), bound, m_count, "series", True)


def j_series(theta: Params, upper: float,
             ctl: series.SeriesControl = series._DEFAULT_CTL) -> series.SeriesValue | None:
    """J(a) = E[X; X <= a] by the paper's expansion in the density power
    series, sum_i v_i a^{(i+1) alpha + 1} / ((i+1) alpha + 1); None where
    the v-table does not exist, a is not inside (0, 1), or the sum does not
    converge or cancels below rounding."""
    tables = series._Tables(theta, ctl)
    if not (tables.v_ok and 0.0 < upper < 1.0):
        return None
    expo = (np.arange(ctl.max_terms, dtype=float) + 1.0) * theta.alpha + 1.0
    terms = tables.v * np.power(upper, expo) / expo
    sv = series._sum_terms(terms, ctl)
    return sv if series._sum_ok(sv, terms, ctl) else None


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
               ctl: series.SeriesControl = series._DEFAULT_CTL) -> series.SeriesValue | None:
    """E[e^{tX}] by the paper's density power series, integrated by parts:
    M(t) = e^t - t sum_i v*_i Phi_{(i+1) alpha + 1}(t), v*_i = v_i / ((i+1)
    alpha), whose terms decay one power faster than those of the plain
    kernel sum, as sum_i v*_i = 1; None where the v-table does not exist
    or the sum does not converge or cancels below rounding."""
    tables = series._Tables(theta, ctl)
    if not tables.v_ok:
        return None
    vstar = tables.cdf_coeffs
    phis = np.array([_phi_kernel((i + 1.0) * theta.alpha + 1.0, t) for i in range(len(vstar))])
    terms = vstar * phis
    sv = series._sum_terms(terms, ctl)
    if not series._sum_ok(sv, terms, ctl):
        return None
    return series.SeriesValue(math.exp(t) - t * float(sv), abs(t) * sv.tail_bound, sv.terms,
                              "series", True)
