"""Write tests/data/quad-refs.json: references for the series quadrature.

    python tests/make_quad_refs.py

Every value is an expectation over V ~ Beta(gamma, delta + 1), taken by
SciPy `quad` in t = logit V over pieces cut at the mean of logit V
+- 3, 10 and 40 standard deviations, at relative tolerance 2e-14.
Nothing here imports gkw: x(v) = [1 - (1 - v^(1/lambda))^(1/beta)]^(1/alpha)
is rebuilt from NumPy logs, F(x(v)) = I_v(gamma, delta + 1) from
scipy.special.betainc, and ln B from scipy.special.betaln.  SciPy is a
test extra; the tests read the JSON file only.

For each law: the moments E[X^r], r = 1..4; the ten order-statistic
means E[X_{i:n}], n <= 4; the incomplete first moment J(a) = E[X; X <= a]
at the mean and at the median; the mean deviations about the mean and
about the median, each as E|X - c| = E[X] - c + 2 E[(c - X)+], whose
integrands are positive; and, where listed, Renyi entropies (every
finite one of the test grid at rho = 0.5 and 2).
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np
from scipy import integrate, special

OUT = pathlib.Path(__file__).parent / "data" / "quad-refs.json"

LAWS = {
    # no density power series: the order-statistic moments fall back to
    # quadrature
    "bathtub": ((0.7, 0.8, 0.6, 0.0, 0.9), (0.5,)),
    "decreasing": ((0.5, 1.0, 0.8, 0.0, 1.0), (0.5,)),
    # ln B(gamma, delta + 1) = -13,866: no series tables at all
    "narrow": ((2.0, 3.0, 1e4, 9999.0, 1.0), (3.3,)),
    # non-integer delta: the moments' j-sum decays algebraically
    "workhorse": ((2.0, 3.0, 1.5, 0.5, 2.0), (0.5, 2.0)),
    "small_alpha": ((0.0523, 0.3594, 0.0976, 1.1935, 0.0586), ()),
    # a (1 - x)^(-1/2) singularity at x = 1
    "increasing_j": ((1.0, 0.5, 3.0, 0.0, 1.0), (0.5,)),
    "spike": ((0.5, 0.5, 3.0, 0.0, 2.0), (0.5,)),
    # a density power series: the paper's order-statistic expansion applies
    "uniform": ((1.0, 1.0, 1.0, 0.0, 1.0), (0.5, 2.0)),
    "kw22": ((2.0, 2.0, 1.0, 0.0, 1.0), (0.5, 2.0)),
    "beta52": ((1.0, 1.0, 5.0, 1.0, 1.0), (0.5, 2.0)),
    "beta25": ((1.0, 1.0, 2.0, 4.0, 1.0), (0.5, 2.0)),
    "ekw": ((2.0, 3.0, 1.0, 0.0, 2.0), (0.5, 2.0)),
    # delta = 0 laws of the sweep whose moments the integer-delta j-sum put
    # outside their bounds: E[X] = 1 + 7.8e-13 (sweep_a), E[X^3] 2.0e-12
    # off with bound 2.6e-15 (sweep_b) and 1.6e-10 off with bound 5.5e-14
    # (sweep_c)
    "sweep_a": ((0.7100813303641811, 0.056508944782373866, 17.91563309366986, 0.0,
                 39.18630656827331), ()),
    "sweep_b": ((0.18987318384868027, 3.7343695269644384, 30.462968534313866, 0.0,
                 8.813370577043338), ()),
    "sweep_c": ((0.05456128035846789, 0.07665971773392577, 25.9201991514922, 0.0,
                 0.2454235992495531), ()),
    # the rest of the test grid
    "kwkw": ((2.0, 2.0, 1.0, 1.5, 2.0), (0.5, 2.0)),
    "mound": ((1.5, 1.8, 1.4, 0.8, 1.1), (0.5, 2.0)),
}
PAIRS = [(i, n) for n in range(1, 5) for i in range(1, n + 1)]


def _log1mexp(s: float) -> float:
    """log(1 - e^s) for s < 0."""
    return math.log(-math.expm1(s)) if s > -math.log(2.0) else math.log1p(-math.exp(s))


def _at(theta, t: float):
    """(log v, log(1 - v), log w, log x) at t = logit v.  Where 1 - v or
    v^(1/lambda) is below e^-700, the first-order forms log(1 - v^(1/lambda))
    = log(1 - v) - log lambda and log(1 - w) = log(v^(1/lambda) / beta)
    keep the tails finite."""
    a, b, _, _, l = theta
    lv = -float(np.logaddexp(0.0, -t))
    l1v = -float(np.logaddexp(0.0, t))
    if t > 700.0:
        return lv, l1v, (l1v - math.log(l)) / b, -math.exp((l1v - math.log(l)) / b) / a
    if lv / l < -700.0:
        return lv, l1v, -math.exp(lv / l) / b, (lv / l - math.log(b)) / a
    lw = _log1mexp(lv / l) / b
    return lv, l1v, lw, _log1mexp(lw) / a


def _expect(theta, log_h, t_max=math.inf) -> float:
    """E[exp(log_h(t)); logit V <= t_max] for V ~ Beta(gamma, delta + 1)."""
    _, _, g, d, _ = theta
    p, q = g, d + 1.0
    lnb = special.betaln(p, q)
    mu = special.digamma(p) - special.digamma(q)
    sd = math.sqrt(special.polygamma(1, p) + special.polygamma(1, q))

    def integrand(t):
        lv, l1v, _, _ = _at(theta, t)
        return math.exp(p * lv + q * l1v - lnb + log_h(t))

    cuts = sorted(c for c in {mu + k * sd for k in (-40, -10, -3, 0, 3, 10, 40)} if c < t_max)
    ends = [-math.inf, *cuts, t_max]
    total = 0.0
    for lo, hi in zip(ends[:-1], ends[1:]):
        total += integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=2e-14, limit=500)[0]
    return total


def order_stat_mean(theta, i: int, n: int) -> float:
    _, _, g, d, _ = theta
    lnb = special.betaln(i, n - i + 1)

    def log_h(t):
        # F and 1 - F from whichever of v and 1 - v is the smaller, both
        # of them exact from the logit
        if t < 0.0:
            cdf = special.betainc(g, d + 1.0, special.expit(t))
            sf = 1.0 - cdf
        else:
            sf = special.betainc(d + 1.0, g, special.expit(-t))
            cdf = 1.0 - sf
        out = _at(theta, t)[3] - lnb
        with np.errstate(divide="ignore"):
            if i > 1:
                out += (i - 1) * np.log(cdf)
            if n > i:
                out += (n - i) * np.log(sf)
        return out

    return _expect(theta, log_h)


def _logit_v_at(theta, x: float) -> float:
    """logit of v = G1(x)^lambda, G1(x) = 1 - (1 - x^alpha)^beta, in logs;
    +inf where 1 - G1(x) underflows."""
    a, b, _, _, l = theta
    b_la = b * _log1mexp(a * math.log(x))  # log(1 - G1(x))
    if math.exp(b_la) == 0.0:
        return math.inf
    lv = l * _log1mexp(b_la)
    return lv - _log1mexp(lv)


def j_integral(theta, upper: float) -> float:
    return _expect(theta, lambda t: _at(theta, t)[3], _logit_v_at(theta, upper))


def mean_deviation(theta, mean: float, c: float) -> float:
    """E|X - c| = E[X] - c + 2 E[(c - X)+], with c - x = c (1 - x / c)
    from log x; E[(c - X)+] is 0 where c is."""
    if c <= 0.0:
        return mean - c
    log_c = math.log(c)

    def log_gap(t):
        s = _at(theta, t)[3] - log_c
        return log_c + _log1mexp(s) if s < 0.0 else -math.inf

    return mean - c + 2.0 * _expect(theta, log_gap, _logit_v_at(theta, c) if c < 1.0 else math.inf)


def median(theta) -> float:
    a, b, g, d, l = theta
    v = special.betaincinv(g, d + 1.0, 0.5)
    return math.exp(_log1mexp(_log1mexp(math.log(v) / l) / b) / a)


def renyi(theta, rho: float) -> float:
    a, b, g, d, l = theta
    log_front = math.log(l * a * b) - special.betaln(g, d + 1.0)

    def log_h(t):
        lv, l1v, lw, lx = _at(theta, t)
        return (rho - 1.0) * (log_front + (a - 1.0) * lx + (b - 1.0) * lw
                              + (g - 1.0 / l) * lv + d * l1v)

    return math.log(_expect(theta, log_h)) / (1.0 - rho)


def main() -> None:
    out = {}
    for name, (theta, rhos) in LAWS.items():
        mean = _expect(theta, lambda t: _at(theta, t)[3])
        out[name] = {
            "theta": list(theta),
            "moments": [[r, _expect(theta, lambda t, r=r: r * _at(theta, t)[3])]
                        for r in (1, 2, 3, 4)],
            "order_stats": [[i, n, order_stat_mean(theta, i, n)] for i, n in PAIRS],
            # small_alpha's median underflows to 0, where J is 0, and
            # sweep_a's mean and median round to 1, where J is the mean
            "j": [[upper, j_integral(theta, upper)] for upper in (mean, median(theta))
                  if 0.0 < upper < 1.0],
            # [delta1, delta2]
            "deviations": [mean_deviation(theta, mean, c) for c in (mean, median(theta))],
            "renyi": [[rho, renyi(theta, rho)] for rho in rhos],
        }
    OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
