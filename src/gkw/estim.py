"""Maximum-likelihood estimation for the generalized Kumaraswamy family.

Fitting works on any of the named sub-model patterns: the free
parameters are log-transformed (delta as log(delta + 1e-10) so the
boundary delta = 0 stays reachable), and a BFGS iteration with Armijo
backtracking climbs the log-likelihood from a small moment-matched
multi-start grid.  The score vector and observed information matrix are
analytic, written in compensated log-space forms so that observations
far into either tail do not overflow the intermediate products; both
are certified against finite differences in the test suite.

One evaluation is one pass over the data: the log chain of the density
(log x^alpha, log(1 - x^alpha), log y, log(1 - y^lambda) and the logs
of their negatives), the log-density terms summed in one array, and
the sum.  The score and information are built from the blocks that
pass leaves, the score only for the coordinates asked for -- in a fit,
the free ones.  log x, log|log x| and their sum are computed once per
Dataset.  Within one fit the links fixed by alpha and beta are reused
while those two do not move (so Mc, Beta and BP build them once), and
log(1 - y^lambda) while lambda does not; nothing is kept across fits.

Standard errors come from the inverse of the observed information
restricted to the free coordinates, and nested models are compared with
the usual likelihood-ratio chi-square.  A delta estimate that lands on
its lower wall is reported as exactly 0 with a boundary flag and a NaN
standard error, the others then coming from the information on the
interior coordinates; LR p-values are still the plain chi-square
recipe, which is conservative for such boundary nulls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import core, specfun
from .core import _PARAM_NAMES, Params, SubModel, SUBMODELS

__all__ = [
    "EstimationError",
    "Dataset",
    "FitOptions",
    "FitResult",
    "LrTestResult",
    "log_likelihood",
    "score",
    "observed_info",
    "default_init",
    "start_grid",
    "fit",
    "fit_family",
    "std_errors",
    "lr_test",
]

_PARAM_IDX = {n: i for i, n in enumerate(_PARAM_NAMES)}
_DELTA_EPS = 1e-10
_WALL = 30.0
_DELTA_WALL = math.log(_DELTA_EPS)
_MAX_STEP = 2.0    # longest trial step of one iteration, per log-coordinate
_MAX_HALVINGS = 20  # backtracking halvings before a search direction is given up
_STALL_EVALS = 200  # a run whose loglik rose by less than _STALL_GAIN over
_STALL_GAIN = 1e-4  # its last _STALL_EVALS evaluations is stopped as stalled


class EstimationError(RuntimeError):
    """Raised when a dataset cannot support the requested estimation."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """An observed sample on the open unit interval.

    Values exactly at 0 or 1 are rejected, not nudged; shrink the data
    explicitly first if it contains endpoints.  ``source`` is free-text
    provenance carried along for reports.  log x, log|log x| and the
    sum of log x are computed once, here, for every likelihood
    evaluation; nothing that depends on the parameters is stored.
    """

    values: np.ndarray
    source: str = ""
    log_values: np.ndarray = field(init=False, repr=False)
    log_neg_log: np.ndarray = field(init=False, repr=False)
    sum_log: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float).ravel()
        if v.size < 1:
            raise ValueError("dataset must contain at least one value")
        bad = np.flatnonzero(~(np.isfinite(v) & (v > 0.0) & (v < 1.0)))
        if bad.size:
            shown = ", ".join(str(int(i)) for i in bad[:8])
            more = "" if bad.size <= 8 else f" and {bad.size - 8} more"
            raise ValueError(
                f"values must lie strictly inside (0, 1); offending index "
                f"{shown}{more}"
            )
        lx = np.log(v)
        llx = np.log(-lx)
        for arr in (v, lx, llx):
            arr.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "log_values", lx)
        object.__setattr__(self, "log_neg_log", llx)
        object.__setattr__(self, "sum_log", float(np.sum(lx)))

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class FitOptions:
    """Optimizer settings for :func:`fit`.

    ``grad_tol`` is relative: iteration stops when the sup-norm of the
    log-parameter gradient drops below grad_tol * max(1, |loglik|).
    ``coord_scale`` rescales the optimizer's internal coordinates (it
    seeds the initial inverse-Hessian guess); the maximizer itself must
    not depend on it, which the tests exercise.
    """

    max_iter: int = 500
    grad_tol: float = 1e-6
    coord_scale: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a positive integer, got {self.max_iter!r}")
        for name in ("grad_tol", "coord_scale"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite real, got {v!r}")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one maximum-likelihood fit.

    ``grad_norm`` is the sup-norm of the score at ``theta_hat`` in the
    optimizer's log-parameter coordinates, projected at active walls
    (a gradient pointing into a wall counts as zero there).
    ``std_errors`` follows ``submodel.free_names`` order and is None
    when the fit failed or the restricted information matrix is not
    positive definite.  ``boundary`` names free parameters that ended
    on a transformation wall; delta on its lower wall is reported as
    exactly 0, with a NaN standard error.
    """

    submodel: SubModel
    theta_hat: Params
    loglik: float
    std_errors: np.ndarray | None
    converged: bool
    iterations: int
    grad_norm: float
    boundary: tuple[str, ...] = ()


@dataclass(frozen=True)
class LrTestResult:
    """Likelihood-ratio comparison of a nested pair of fits."""

    statistic_w: float
    df: int
    p_value: float
    null_model: SubModel
    alt_model: SubModel


# ----------------------------------------------------------------------
# Log-likelihood, score, observed information.
# ----------------------------------------------------------------------


_ALL = range(5)


class _Pass:
    """Log-likelihood passes over one data set.

    A call at theta returns the log-likelihood and the parts the score
    and information are built from; the :class:`core._Head` of the last
    call is reused while alpha and beta stay where they were, so a fit
    that pins both (Mc, Beta, BP) builds it once.  One is made per fit
    (or per public call); nothing is kept across fits.
    """

    __slots__ = ("data", "head")

    def __init__(self, data: Dataset):
        self.data = data
        self.head = None

    def __call__(self, theta: Params):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            logf, self.head = core._log_density(theta, self.data.log_values, self.head)
            ll = float(np.add.reduce(logf))
        return ll, _Parts(self.head, self.data)


class _Parts(NamedTuple):
    """The blocks one pass leaves for the score and information.

    Everything downstream is assembled as exp(sum of logs) so that a
    large magnitude in one factor (say |log x| for a datum near zero)
    cancels inside the exponent instead of overflowing a product.  The
    logarithms come from the same chain as the log-density, so the
    score and information stay finite where x^alpha underflows or y
    rounds to 1.
    """

    head: core._Head
    data: Dataset


def _loglik_and_parts(theta: Params, data: Dataset):
    """log_likelihood and the :class:`_Parts` blocks, from one pass."""
    return _Pass(data)(theta)


def log_likelihood(theta: Params, data: Dataset) -> float:
    """Sum of the log-density over the sample (may be -inf)."""
    return _loglik_and_parts(theta, data)[0]


def score(theta: Params, data: Dataset) -> np.ndarray:
    """Analytic gradient of the log-likelihood in parameter order.

    Exact derivative of the log-density sum; components belonging to a
    structurally absent term (gamma*lambda = 1, delta = 0) are assembled
    without evaluating that term, so the zero coefficient never
    multiplies an overflowing factor.
    """
    return _score_from_parts(theta, data.n, _loglik_and_parts(theta, data)[1])


def _sum_exp(t: np.ndarray, sign: float) -> float:
    """Sum of sign * exp(t), computed in t."""
    np.exp(t, out=t)
    if sign < 0.0:
        np.negative(t, out=t)
    return float(np.add.reduce(t))


def _score_from_parts(theta: Params, n: int, parts: _Parts, idx=_ALL) -> np.ndarray:
    """The :func:`score` components at parameter indices ``idx``, in that
    order, from the blocks of one pass; no other component is built."""
    a, b, g, d, l = theta.as_tuple()
    h, data = parts
    s, la, ly = h.s, h.la, h.ly
    llx = data.log_neg_log
    gl1 = g * l - 1.0
    lb = math.log(b)
    t = np.empty_like(ly)                 # scratch for each summand
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lly, lu = h.tail(l) if d != 0.0 or 3 in idx else (None, None)
        if d != 0.0 and (0 in idx or 1 in idx):
            l1ly = (l - 1.0) * ly
        if 2 in idx or 4 in idx:
            sum_ly = float(np.add.reduce(ly))
        for i in idx:
            if i == 0:
                u = n / a + data.sum_log
                if b != 1.0:
                    # d/d alpha of (beta-1) log(1-x^alpha):  -(beta-1) x^alpha log x / (1-x^alpha)
                    np.subtract(s, la, out=t)
                    t += llx
                    u -= (b - 1.0) * _sum_exp(t, -1.0)
                if gl1 != 0.0:
                    # (dy/d alpha)/y
                    np.add(s, lb, out=t)
                    t += h.b1la
                    t -= ly
                    t += llx
                    u += gl1 * _sum_exp(t, -1.0)
                if d != 0.0:
                    np.add(l1ly, lb, out=t)
                    t -= lu
                    t += s
                    t += h.b1la
                    t += llx
                    u -= d * l * _sum_exp(t, -1.0)
            elif i == 1:
                u = n / b + float(np.add.reduce(la))
                if gl1 != 0.0:
                    # (dy/d beta)/y
                    np.subtract(h.bla, ly, out=t)
                    t += h.lla
                    u += gl1 * _sum_exp(t, 1.0)
                if d != 0.0:
                    np.subtract(l1ly, lu, out=t)
                    t += h.bla
                    t += h.lla
                    u -= d * l * _sum_exp(t, 1.0)
            elif i == 2:
                # -n d/dg log B(g, d+1) = n [psi(g+d+1) - psi(g)], differenced
                # without cancellation so the gamma -> inf ridge stays resolvable
                u = n * specfun.digamma_diff(g, d + 1.0) + l * sum_ly
            elif i == 3:
                u = n * specfun.digamma_diff(d + 1.0, g) + float(np.add.reduce(lu))
            else:
                u = n / l + g * sum_ly
                if d != 0.0:
                    # y^l log y / (1-y^l)
                    np.subtract(lly, lu, out=t)
                    t += h.lny
                    u -= d * _sum_exp(t, -1.0)
            out.append(u)
    return np.array(out)


def observed_info(theta: Params, data: Dataset) -> np.ndarray:
    """Observed information J = -(Hessian of the log-likelihood), 5x5.

    Symmetric by construction.  Entries touching gamma and delta only
    through the beta-function normalizer are data-free trigamma terms;
    everything else is assembled from the same log-space blocks as the
    score.
    """
    return _info_from_parts(theta, data.n, _loglik_and_parts(theta, data)[1])


def _info_from_parts(theta: Params, n: int, parts) -> np.ndarray:
    """The information of :func:`observed_info`, from the blocks of one pass."""
    a, b, g, d, l = theta.as_tuple()
    h, data = parts
    s, la, lla, bla, ly, lny = h.s, h.la, h.lla, h.bla, h.ly, h.lny
    llx = data.log_neg_log
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        lly, lu = h.tail(l)
        gl1 = g * l - 1.0
        lb = math.log(b)
        t = np.exp(s)
        A = -np.expm1(s)

        # First-derivative ratios reused in the products below.
        r_a = -np.exp(lb + s + (b - 1.0) * la - ly + llx)
        r_b = np.exp(bla - ly + lla)
        va = -np.exp(lb + (l - 1.0) * ly - lu + s + (b - 1.0) * la + llx)
        vb = np.exp((l - 1.0) * ly - lu + bla + lla)
        q = -np.exp(lly - lu + lny)

        H = np.zeros((5, 5))
        H[0, 0] = -n / a**2
        H[1, 1] = -n / b**2
        H[4, 4] = -n / l**2
        if b != 1.0:
            H[0, 0] -= (b - 1.0) * float(np.sum(np.exp(s - 2.0 * la + 2.0 * llx)))
        H[0, 1] = float(np.sum(np.exp(s - la + llx)))
        if gl1 != 0.0:
            curv = A - (b - 1.0) * t
            raa = b * curv * np.exp(s + (b - 2.0) * la - ly + 2.0 * llx)
            rab = -(1.0 + b * la) * np.exp(s + (b - 1.0) * la - ly + llx)
            rbb = -np.exp(bla - ly + 2.0 * lla)
            H[0, 0] += gl1 * float(np.sum(raa - r_a**2))
            H[0, 1] += gl1 * float(np.sum(rab - r_a * r_b))
            H[1, 1] += gl1 * float(np.sum(rbb - r_b**2))
        if d != 0.0:
            curv = A - (b - 1.0) * t
            base1 = (l - 2.0) * ly - lu                # v'(y) first piece
            base2 = 2.0 * (l - 1.0) * ly - 2.0 * lu    # v'(y) second piece
            com_a = 2.0 * lb + 2.0 * llx + 2.0 * s + 2.0 * (b - 1.0) * la
            com_ab = lb + s + (2.0 * b - 1.0) * la + llx + lla
            com_b = 2.0 * bla + 2.0 * lla
            vy_ya2 = (l - 1.0) * np.exp(com_a + base1) + l * np.exp(com_a + base2)
            vy_yayb = -(l - 1.0) * np.exp(com_ab + base1) - l * np.exp(com_ab + base2)
            vy_yb2 = (l - 1.0) * np.exp(com_b + base1) + l * np.exp(com_b + base2)
            v_yaa = b * curv * np.exp((l - 1.0) * ly - lu + s + (b - 2.0) * la + 2.0 * llx)
            v_yab = -(1.0 + b * la) * np.exp((l - 1.0) * ly - lu + s + (b - 1.0) * la + llx)
            v_ybb = -np.exp((l - 1.0) * ly - lu + bla + 2.0 * lla)
            H[0, 0] -= d * l * float(np.sum(vy_ya2 + v_yaa))
            H[0, 1] -= d * l * float(np.sum(vy_yayb + v_yab))
            H[1, 1] -= d * l * float(np.sum(vy_yb2 + v_ybb))
            H[4, 4] -= d * float(np.sum(np.exp(lly - 2.0 * lu + 2.0 * lny)))

        H[0, 2] = l * float(np.sum(r_a))
        H[1, 2] = l * float(np.sum(r_b))
        H[0, 3] = -l * float(np.sum(va))
        H[1, 3] = -l * float(np.sum(vb))
        H[0, 4] = g * float(np.sum(r_a))
        H[1, 4] = g * float(np.sum(r_b))
        if d != 0.0:
            # d(lambda v)/d lambda = v (1 + lambda log y / (1 - y^lambda))
            one_plus = 1.0 - np.exp(math.log(l) + lny - lu)
            H[0, 4] -= d * float(np.sum(va * one_plus))
            H[1, 4] -= d * float(np.sum(vb * one_plus))

        H[2, 2] = n * specfun.trigamma_diff(g, d + 1.0)
        H[3, 3] = n * specfun.trigamma_diff(d + 1.0, g)
        H[2, 3] = n * specfun.trigamma(g + d + 1.0)
        H[2, 4] = float(np.sum(ly))
        H[3, 4] = -float(np.sum(q))

        J = -(H + np.triu(H, 1).T)
    return J


# ----------------------------------------------------------------------
# Starting points.
# ----------------------------------------------------------------------


def default_init(data: Dataset, sub: SubModel) -> Params:
    """Moment-matched starting point projected onto the sub-model.

    Matches a beta distribution to the sample mean and variance to seed
    gamma and delta (alpha, beta, lambda start at 1), then overwrites
    the pattern's pinned coordinates.
    """
    if data.n < 2:
        raise ValueError("default_init needs at least two observations")
    m = float(np.mean(data.values))
    s2 = float(np.var(data.values))
    if s2 == 0.0:
        raise EstimationError("zero sample variance: all values are identical")
    c = max(m * (1.0 - m) / s2 - 1.0, 0.1)
    start = Params(
        alpha=1.0,
        beta=1.0,
        gamma=max(m * c, 0.05),
        delta=max((1.0 - m) * c - 1.0, 0.0),
        lam=1.0,
    )
    return _project(sub, start)


def start_grid(data: Dataset, sub: SubModel) -> list[Params]:
    """Multi-start lattice used by :func:`fit` when no init is given.

    The moment-matched centre plus two jittered copies with every free
    parameter scaled by 0.5 and by 2.  The jitter is deterministic, so
    repeated fits of the same data are reproducible.
    """
    centre = default_init(data, sub)
    rng = np.random.default_rng(20240817)
    out = [centre]
    vec = np.array(centre.as_tuple())
    free = [_PARAM_IDX[nm] for nm in sub.free_names]
    for scale in (0.5, 2.0):
        jit = np.exp(0.05 * rng.standard_normal(len(free)))
        v = vec.copy()
        v[free] = v[free] * scale * jit
        out.append(Params(*v))
    return out


def _project(sub: SubModel, theta: Params) -> Params:
    """Overwrite the pattern's pinned coordinates, keep the rest."""
    vals = dict(zip(_PARAM_NAMES, theta.as_tuple()))
    vals.update(sub.fixed_dict)
    return Params(**vals)


# ----------------------------------------------------------------------
# The optimizer: BFGS on log-parameters with wall projection.
# ----------------------------------------------------------------------


def _walls(free_idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    lower = np.full(len(free_idx), -_WALL)
    for j, i in enumerate(free_idx):
        if i == _PARAM_IDX["delta"]:
            lower[j] = _DELTA_WALL       # exp(wall) - eps == 0: delta = 0 reachable
    upper = np.full(len(free_idx), _WALL)
    return lower, upper


def _phi_to_value(phi: float, i: int) -> float:
    if i == _PARAM_IDX["delta"]:
        return max(math.exp(phi) - _DELTA_EPS, 0.0)
    return math.exp(phi)


def _value_to_phi(v: float, i: int) -> float:
    if i == _PARAM_IDX["delta"]:
        return math.log(v + _DELTA_EPS)
    return math.log(v)


def _phi_score(u: np.ndarray, vec: np.ndarray, free_idx: list[int]) -> np.ndarray:
    """dl/dphi from the score components u = dl/dtheta on the free
    coordinates (in free_idx order): the chain rule through
    value = exp(phi) (delta + eps = exp(phi) for delta)."""
    di = _PARAM_IDX["delta"]
    return np.array([ui * (vec[i] + _DELTA_EPS if i == di else vec[i])
                     for ui, i in zip(u, free_idx)], dtype=float)


def _no_grad():
    return None


def _make_objective(ll_pass: _Pass, free_idx: list[int], fixed: np.ndarray):
    """Return phi -> (negative loglik, gradient thunk).

    A call costs one pass of ``ll_pass``; the thunk builds the score
    components of the free coordinates from that pass's blocks when
    called, and returns None where there is no usable gradient
    (non-finite loglik, NaN score).
    """
    n = ll_pass.data.n

    def objective(phi: np.ndarray):
        vec = fixed.copy()
        for j, i in enumerate(free_idx):
            vec[i] = _phi_to_value(float(phi[j]), i)
        try:
            theta = Params(*vec)
        except ValueError:
            return math.inf, _no_grad
        ll, parts = ll_pass(theta)
        if not math.isfinite(ll):
            return math.inf, _no_grad

        def grad():
            g = -_phi_score(_score_from_parts(theta, n, parts, free_idx), vec, free_idx)
            if np.any(np.isnan(g)):
                return None
            # An infinite component still points somewhere useful; cap it
            # so the line search can follow it to the wall.
            return np.clip(g, -1e30, 1e30)

        return -ll, grad

    return objective


def _project_grad(g: np.ndarray, phi: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Zero descent components blocked by an active wall (minimizing)."""
    gp = g.copy()
    gp[(phi <= lower + 1e-9) & (gp > 0.0)] = 0.0
    gp[(phi >= upper - 1e-9) & (gp < 0.0)] = 0.0
    return gp


def _bfgs(objective, phi0, lower, upper, *, gtol: float, max_iter: int, h0: float,
          beat: float = math.inf):
    """Minimize objective over the box via BFGS with Armijo backtracking.

    ``objective(phi)`` returns (F, grad), ``grad()`` the gradient at phi
    or None; it is called only for the first point and for trial points
    that pass the Armijo test, so a rejected trial costs no gradient.
    Returns (phi, F, grad-or-None, iterations, converged).  Each trial
    step is scaled to move no coordinate by more than _MAX_STEP, so a
    long early step (the first direction is the raw gradient) cannot
    leap from a moderate point onto the far walls, where the likelihood
    is finite but nearly flat.  A direction that still fails the Armijo
    test after _MAX_HALVINGS halvings (a step below ~2e-6 in log
    units) is given up: the quasi-Newton model has failed there, as it
    does when a run crawls along a wall of the gamma/lambda ridge, and
    accepting ever tinier steps would spend hundreds of evaluations
    for no change in the estimate.  Steps are clipped to the box; the
    convergence test uses the wall-projected gradient so a maximum
    pinned on a wall still counts as converged.

    Along that ridge the gradient test can stay out of reach while the
    objective creeps down by a few 1e-9 per iteration, so a run also
    stops, unconverged, when its last _STALL_EVALS evaluations gained
    less than _STALL_GAIN.  ``beat`` is the objective of the best run
    finished so far: a run whose gain over that window, kept up for
    the rest of its max_iter budget, would still not reach ``beat`` is
    abandoned, since it cannot be the one that is kept.  Neither rule
    moves a run backwards, so a warm start's value is never lost.
    """
    phi = np.clip(np.asarray(phi0, dtype=float), lower, upper)
    F, grad = objective(phi)
    g = grad()
    if g is None:
        return phi, F, None, 0, False
    k = phi.size
    H = np.eye(k) * h0 * h0
    it = 0
    converged = False
    evals = 1
    trail = [(evals, F)]                      # (evaluations, objective) per iteration
    j = 0                                     # newest trail entry >= _STALL_EVALS old
    while True:
        gp = _project_grad(g, phi, lower, upper)
        if float(np.max(np.abs(gp))) <= gtol * max(1.0, abs(F)):
            converged = True
            break
        if it >= max_iter:
            break
        while j + 1 < len(trail) and trail[j + 1][0] <= evals - _STALL_EVALS:
            j += 1
        if trail[j][0] <= evals - _STALL_EVALS:
            gain = trail[j][1] - F
            if gain < _STALL_GAIN:
                break
            if F - gain / (it - j) * (max_iter - it) > beat:
                break                         # cannot catch up at this pace
        it += 1
        moved = False
        for attempt in (0, 1):
            p = -(H @ g) if attempt == 0 else -gp
            if attempt == 0 and float(p @ g) >= 0.0:
                continue                      # H lost descent; use steepest
            step = min(1.0, _MAX_STEP / max(float(np.max(np.abs(p))), 1e-300))
            for _ in range(_MAX_HALVINGS):
                cand = np.clip(phi + step * p, lower, upper)
                d = cand - phi
                if not np.any(d):
                    break
                Fc, grad = objective(cand)
                evals += 1
                slope = float(d @ g)
                ok = (Fc <= F + 1e-4 * slope) if slope < 0.0 else (Fc < F)
                gc = grad() if ok else None
                if gc is not None:
                    yv = gc - g
                    sy = float(d @ yv)
                    if sy > 1e-10 * float(np.linalg.norm(d) * np.linalg.norm(yv)):
                        rho = 1.0 / sy
                        V = np.eye(k) - rho * np.outer(d, yv)
                        H = V @ H @ V.T + rho * np.outer(d, d)
                    phi, F, g = cand, Fc, gc
                    moved = True
                    break
                step *= 0.5
            if moved:
                break
            H = np.eye(k) * h0 * h0           # curvature reset before retry
        if not moved:
            break                             # both line searches exhausted
        trail.append((evals, F))
    return phi, F, g, it, converged


def fit(
    data: Dataset,
    sub: SubModel | str,
    init: Params | None = None,
    opts: FitOptions | None = None,
    *,
    extra_starts: tuple[Params, ...] = (),
) -> FitResult:
    """Maximize the log-likelihood over the sub-model's free parameters.

    Runs BFGS on log-transformed coordinates from the moment-matched
    multi-start grid (or from ``init`` when given), keeps the best run
    (ties broken by start order), and reports the result even when the
    gradient test was not met, flagged ``converged=False``.  A start
    that creeps along a ridge too slowly to overtake the best finished
    start is abandoned early (see :func:`_bfgs`).
    ``extra_starts`` appends additional starting points; each start is
    projected onto the sub-model's fixed pattern first, and a start
    equal to an earlier one is run only once.

    Parameters
    ----------
    data : Dataset
    sub : SubModel or registry key such as ``"Kw"``
    init : optional Params, replaces the default start grid
    opts : optional FitOptions
    """
    if isinstance(sub, str):
        sub = SUBMODELS[sub]
    opts = opts if opts is not None else FitOptions()
    if data.n < sub.free_count + 1:
        raise ValueError(
            f"{sub.name} has {sub.free_count} free parameters; need at least "
            f"{sub.free_count + 1} observations, got {data.n}"
        )
    if float(np.ptp(data.values)) == 0.0:
        raise EstimationError("degenerate sample: all values are identical")

    starts = [init] if init is not None else start_grid(data, sub)
    # a start equal to an earlier one would retrace its run and lose the tie
    starts = list(dict.fromkeys(_project(sub, p) for p in [*starts, *extra_starts]))
    free_idx = [_PARAM_IDX[nm] for nm in sub.free_names]
    fixed = np.array(starts[0].as_tuple())
    lower, upper = _walls(free_idx)
    ll_pass = _Pass(data)                    # shared by every start and the closing pass
    objective = _make_objective(ll_pass, free_idx, fixed)

    best = None
    for si, p in enumerate(starts):
        phi0 = np.array([_value_to_phi(p.as_tuple()[i], i) for i in free_idx])
        phi, F, g, it, conv = _bfgs(
            objective, phi0, lower, upper,
            gtol=opts.grad_tol, max_iter=opts.max_iter, h0=opts.coord_scale,
            beat=math.inf if best is None else best[0][0],
        )
        key = (F, si)
        if best is None or key < best[0]:
            best = (key, phi, it, conv)
    (_, _), phi, iterations, _ = best

    # A run that stalls on the flat plateau a few transformed units short
    # of a wall is still a boundary estimate for reporting purposes.
    vec = fixed.copy()
    boundary = []
    di = _PARAM_IDX["delta"]
    for j, i in enumerate(free_idx):
        vec[i] = _phi_to_value(float(phi[j]), i)
        if phi[j] <= lower[j] + 5.0 or phi[j] >= upper[j] - 5.0:
            boundary.append(_PARAM_NAMES[i])
            if i == di and phi[j] <= lower[j] + 5.0:
                vec[i] = 0.0                  # the wall value is exactly zero
    theta_hat = Params(*vec)
    loglik, parts = ll_pass(theta_hat)

    # In phi = log(delta + eps) the gradient (delta + eps) dl/d delta
    # meets the tolerance long before phi nears its wall, so a run can
    # stop at delta ~ 1e-7 while the likelihood still rises towards 0.
    # The KKT conditions for a maximum on the wall decide it instead:
    # dl/d delta <= 0 at delta = 0, and no loss of likelihood there.
    if di in free_idx and vec[di] > 0.0:
        wall = theta_hat.replace(delta=0.0)
        wall_ll, wall_parts = ll_pass(wall)
        kkt = wall_ll >= loglik and _score_from_parts(wall, data.n, wall_parts, (di,))[0] <= 0.0
        if kkt:
            vec[di] = 0.0
            theta_hat, loglik, parts = wall, wall_ll, wall_parts
            boundary = [nm for nm in sub.free_names if nm in boundary or nm == "delta"]

    grad_norm = math.inf
    if math.isfinite(loglik):
        g_phi = _phi_score(_score_from_parts(theta_hat, data.n, parts, free_idx), vec, free_idx)
        g_phi = np.where(np.isnan(g_phi), np.inf, g_phi)
        phi_hat = np.array([_value_to_phi(vec[i], i) for i in free_idx])
        grad_norm = float(np.max(np.abs(_project_grad(-g_phi, phi_hat, lower, upper))))
    converged = grad_norm <= opts.grad_tol * max(1.0, abs(loglik))

    result = FitResult(
        submodel=sub,
        theta_hat=theta_hat,
        loglik=loglik,
        std_errors=None,
        converged=converged,
        iterations=iterations,
        grad_norm=grad_norm,
        boundary=tuple(boundary),
    )
    if converged:
        ses = _se_from_info(_info_from_parts(theta_hat, data.n, parts), free_idx,
                            _on_wall(theta_hat, boundary))
        if ses is not None:
            result = replace(result, std_errors=ses)
    return result


def _seeded_starts(rng: np.random.Generator, data: Dataset, sub: SubModel) -> list[Params]:
    """Two extra multi-start points with lognormal-jittered free coordinates."""
    centre = np.array(default_init(data, sub).as_tuple())
    free = [_PARAM_IDX[nm] for nm in sub.free_names]
    out = []
    for _ in range(2):
        v = centre.copy()
        v[free] = v[free] * np.exp(0.5 * rng.standard_normal(len(free)))
        out.append(Params(*v))
    return out


def fit_family(data: Dataset, names: tuple[str, ...] | None = None, *,
               seed: int | None = None) -> dict[str, FitResult]:
    """Fit several sub-models, warm-starting richer ones from nested fits.

    Models are fitted in increasing order of free-parameter count; every
    completed fit whose pattern is a restriction of a later model is
    added to that model's start list.  This makes the maximized
    log-likelihoods respect the nesting order by construction (a warm
    start can only be improved on).  Names that share a pinned pattern
    (``Mc`` and ``BP``) are fitted once, under the pattern's first
    registry name, and the others get a relabelled copy of that fit.
    With ``seed``, each fit also gets two jittered starts drawn from
    ``numpy.random.default_rng(seed)``.  Returns results keyed by model
    name, in fitting order.
    """
    chosen = list(names) if names is not None else list(SUBMODELS)
    subs = sorted((SUBMODELS[nm] for nm in chosen), key=lambda m: (m.free_count, m.name))
    rng = np.random.default_rng(seed) if seed is not None else None
    results: dict[str, FitResult] = {}
    for sub in subs:
        twin = next((r for r in results.values() if r.submodel.fixed == sub.fixed), None)
        if twin is None:
            warm = [
                r.theta_hat
                for nm, r in results.items()
                if SUBMODELS[nm].nests_within(sub) and math.isfinite(r.loglik)
            ]
            if rng is not None:
                warm.extend(_seeded_starts(rng, data, sub))
            first = next(m for m in SUBMODELS.values() if m.fixed == sub.fixed)
            twin = fit(data, first, extra_starts=tuple(warm))
        results[sub.name] = replace(twin, submodel=sub)
    return results


# ----------------------------------------------------------------------
# Standard errors and likelihood-ratio tests.
# ----------------------------------------------------------------------


def _on_wall(theta_hat: Params, boundary) -> tuple[int, ...]:
    """Parameter indices of a fit that sit on a constraint: delta = 0."""
    return (_PARAM_IDX["delta"],) if "delta" in boundary and theta_hat.delta == 0.0 else ()


def _se_from_info(info: np.ndarray, free_idx: list[int],
                  on_wall: tuple[int, ...] = ()) -> np.ndarray | None:
    """Square roots of the inverse information diagonal on free coords.

    A coordinate in ``on_wall`` gets NaN: its maximum is one-sided, so
    no Wald interval exists for it, and the other coordinates are taken
    from the information restricted to the interior ones.  None when
    that matrix has non-finite entries or is not positive definite --
    no numbers are fabricated for a singular fit.
    """
    inner = [k for k, i in enumerate(free_idx) if i not in on_wall]
    idx = [free_idx[k] for k in inner]
    block = np.asarray(info, dtype=float)[np.ix_(idx, idx)]
    if not np.all(np.isfinite(block)):
        return None
    try:
        np.linalg.cholesky(block)
    except np.linalg.LinAlgError:
        return None
    inv = np.linalg.inv(block)
    diag = np.diag(inv)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return None
    out = np.full(len(free_idx), np.nan)
    out[inner] = np.sqrt(diag)
    return out


def std_errors(fit_result: FitResult, data: Dataset) -> np.ndarray | None:
    """Wald standard errors for the free parameters of a converged fit.

    Ordered like ``fit_result.submodel.free_names``, and equal to the
    errors ``fit`` attaches: NaN for delta on its wall.  Returns None
    when the information matrix restricted to the free coordinates is
    singular or indefinite.
    """
    if not fit_result.converged:
        raise ValueError("standard errors require a converged fit")
    free_idx = [_PARAM_IDX[nm] for nm in fit_result.submodel.free_names]
    return _se_from_info(observed_info(fit_result.theta_hat, data), free_idx,
                         _on_wall(fit_result.theta_hat, fit_result.boundary))


def lr_test(null_fit: FitResult, alt_fit: FitResult) -> LrTestResult:
    """Likelihood-ratio chi-square for a properly nested pair of fits.

    The null sub-model must be a restriction of the alternative.  The
    statistic w = 2(l_alt - l_null) is clamped at zero (a tiny negative
    value is optimizer noise); the p-value is the upper chi-square tail
    with df equal to the difference in free parameter counts.
    """
    null_sub, alt_sub = null_fit.submodel, alt_fit.submodel
    if not null_sub.nests_within(alt_sub):
        raise ValueError(f"{null_sub.name} is not nested within {alt_sub.name}")
    w = max(2.0 * (alt_fit.loglik - null_fit.loglik), 0.0)
    df = alt_sub.free_count - null_sub.free_count
    p = specfun.reg_upper_inc_gamma(df / 2.0, w / 2.0)
    return LrTestResult(
        statistic_w=w,
        df=df,
        p_value=min(max(p, 0.0), 1.0),
        null_model=null_sub,
        alt_model=alt_sub,
    )
