"""Maximum-likelihood estimation for the generalized Kumaraswamy family.

Fitting works on any of the named sub-model patterns, and a BFGS
iteration with Armijo backtracking climbs the log-likelihood from a
small moment-matched multi-start grid.  The optimizer moves each free
parameter in phi = log(value + shift), the shift read from one table,
_SHIFT: 1e-10 for delta, 0 for every other parameter.  So
value = max(exp(phi) - shift, 0) and dvalue/dphi = value + shift.  phi
lies in the box [-30, 30], except that delta's lower wall is
log(1e-10), where delta is exactly 0: the boundary delta = 0 stays
reachable.  The starts are raced: they advance together, the one with
the fewest objective evaluations so far taking the next step, and a
start too slow to overtake the best current value of the others
(``beat``) is abandoned; each fit keeps a trace of how every start
ended.  The score vector and observed information matrix are analytic,
written in compensated log-space forms so that observations far into
either tail do not overflow the intermediate products; both are
certified against finite differences in the test suite.

One evaluation is one pass over the data: the log chain of the density
(log x^alpha, log(1 - x^alpha), log y, log(1 - y^lambda) and the logs
of their negatives), the log-density terms summed in one array, and
the sum.  The score and information are built from the blocks that
pass leaves, the score only for the coordinates asked for -- in a fit,
the free ones.  log x, log|log x| and their sum are computed once per
Dataset.  Within one fit the links fixed by alpha and beta are reused
while those two do not move (so Mc, Beta and BP build them once), and
log(1 - y^lambda) while lambda does not; nothing is kept across fits.

One evaluation of a fit's objective builds a Params from Python floats
(the free values mapped from the optimizer's coordinates), then runs
that pass: a core._Head where alpha or beta moved, its tail where lambda
did, the log-density sum, and ln B(gamma, delta + 1) from the unchecked
specfun._ln_beta.  For a step the line search accepts, it then builds
the score's free components, whose gamma and delta parts call the
unchecked specfun._digamma_diff.  The Params has validated the shapes,
so neither kernel checks them again; the public specfun functions
still do.  The optimizer's wall projection and sup-norms work on lists
of at most five floats; its dot products, H @ g and the BFGS update
stay NumPy calls.  None of this reorders a floating-point operation, so
fits reproduce to the bit.

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
    "FitResult",
    "StartTrace",
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
_SHIFT = (0.0, 0.0, 0.0, 1e-10, 0.0)  # value + shift = exp(phi), per parameter
_WALL = 30.0
_MAX_STEP = 2.0    # longest trial step of one iteration, per log-coordinate
_MAX_HALVINGS = 20  # backtracking halvings before a search direction is given up
_STALL_EVALS = 200  # a run whose loglik rose by less than _STALL_GAIN over
_STALL_GAIN = 1e-4  # its last _STALL_EVALS evaluations is stopped as stalled
_MAX_ITER = 500     # BFGS iterations per start
_GRAD_TOL = 1e-6    # converged once the sup-norm of the wall-projected
                    # log-coordinate gradient is <= _GRAD_TOL * max(1, |loglik|)


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


class StartTrace(NamedTuple):
    """One start of a fit: its index in the fit's start list, why its
    run stopped (a :func:`_bfgs` reason), and its iterations,
    objective evaluations and final log-likelihood."""

    start: int
    reason: str
    iterations: int
    evaluations: int
    loglik: float


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
    exactly 0, with a NaN standard error.  ``trace`` holds one
    :class:`StartTrace` per start, in start order; ``iterations`` is
    the kept start's.
    """

    submodel: SubModel
    theta_hat: Params
    loglik: float
    std_errors: np.ndarray | None
    converged: bool
    iterations: int
    grad_norm: float
    boundary: tuple[str, ...] = ()
    trace: tuple[StartTrace, ...] = ()


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
# The raw logs of the chain make infinities that its tiny branches then
# patch: passes and score builds run under one np.errstate of their
# caller (one per fit, or per public call).
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


class _Pass:
    """Log-likelihood passes over one data set.

    A call at theta returns ``(loglik, head)``: the log-likelihood and
    the :class:`core._Head` whose log-space blocks the score and
    information are built from.  Everything downstream is assembled as
    exp(sum of logs) so that a large magnitude in one factor (say |log x|
    for a datum near zero) cancels inside the exponent instead of
    overflowing a product; the logarithms come from the same chain as
    the log-density, so the score and information stay finite where
    x^alpha underflows or y rounds to 1.  The head of the last call is
    reused while alpha and beta stay where they were, so a fit that pins
    both (Mc, Beta, BP) builds it once.  One is made per fit (or per
    public call); nothing is kept across fits.  Call it under
    ``np.errstate(**_QUIET)``.
    """

    __slots__ = ("data", "head")

    def __init__(self, data: Dataset):
        self.data = data
        self.head = None

    def __call__(self, theta: Params):
        logf, self.head = core._log_density(theta, self.data.log_values, self.head)
        return float(np.add.reduce(logf)), self.head


def log_likelihood(theta: Params, data: Dataset) -> float:
    """Sum of the log-density over the sample (may be -inf)."""
    with np.errstate(**_QUIET):
        return _Pass(data)(theta)[0]


def score(theta: Params, data: Dataset) -> np.ndarray:
    """Analytic gradient of the log-likelihood in parameter order.

    Exact derivative of the log-density sum; components belonging to a
    structurally absent term (gamma*lambda = 1, delta = 0) are assembled
    without evaluating that term, so the zero coefficient never
    multiplies an overflowing factor.
    """
    with np.errstate(**_QUIET):
        return np.array(_score_from_head(theta, data, _Pass(data)(theta)[1]))


def _sum_exp(t: np.ndarray, sign: float) -> float:
    """Sum of sign * exp(t), computed in t.  The sign goes on the sum:
    rounding to nearest is symmetric, so that is the sum of the negated
    terms to the bit."""
    np.exp(t, out=t)
    total = float(np.add.reduce(t))
    return -total if sign < 0.0 else total


def _score_from_head(theta: Params, data: Dataset, h: core._Head, idx=_ALL) -> list[float]:
    """The :func:`score` components at parameter indices ``idx``, in that
    order, from the head of one pass; no other component is built.
    The digamma differences are the unchecked kernel's, on the floats of
    a validated Params.  Call it under ``np.errstate(**_QUIET)``."""
    a, b, g, d, l = theta.as_tuple()
    n = data.n
    s, la, ly = h.s, h.la, h.ly
    llx = data.log_neg_log
    gl1 = g * l - 1.0
    lb = math.log(b)
    t = np.empty_like(ly)                 # scratch for each summand
    out = []
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
            u = n * specfun._digamma_diff(g, d + 1.0) + l * sum_ly
        elif i == 3:
            u = n * specfun._digamma_diff(d + 1.0, g) + float(np.add.reduce(lu))
        else:
            u = n / l + g * sum_ly
            if d != 0.0:
                # y^l log y / (1-y^l)
                np.subtract(lly, lu, out=t)
                t += h.lny
                u -= d * _sum_exp(t, -1.0)
        out.append(u)
    return out


def observed_info(theta: Params, data: Dataset) -> np.ndarray:
    """Observed information J = -(Hessian of the log-likelihood), 5x5.

    Symmetric by construction.  Entries touching gamma and delta only
    through the beta-function normalizer are data-free trigamma terms;
    everything else is assembled from the same log-space blocks as the
    score.
    """
    with np.errstate(**_QUIET):
        return _info_from_head(theta, data, _Pass(data)(theta)[1])


def _info_from_head(theta: Params, data: Dataset, h: core._Head) -> np.ndarray:
    """The information of :func:`observed_info`, from the head of one
    pass.  Call it under ``np.errstate(**_QUIET)``."""
    a, b, g, d, l = theta.as_tuple()
    n = data.n
    s, la, lla, bla, ly, lny = h.s, h.la, h.lla, h.bla, h.ly, h.lny
    llx = data.log_neg_log
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
    return start.replace(**sub.fixed_dict)


def start_grid(data: Dataset, sub: SubModel) -> list[Params]:
    """Multi-start lattice used by :func:`fit` when no init is given.

    The moment-matched centre plus two jittered copies with every free
    parameter scaled by 0.5 and by 2.  The jitter is deterministic, so
    repeated fits of the same data are reproducible.
    """
    centre = default_init(data, sub)
    return [centre, *_jittered(centre, sub, np.random.default_rng(20240817), 0.05, (0.5, 2.0))]


def _jittered(centre: Params, sub: SubModel, rng: np.random.Generator, sd: float,
              scales: tuple[float, ...]) -> list[Params]:
    """One copy of centre per scale, every free coordinate multiplied by
    scale and then by exp(sd * N(0, 1)), a fresh draw for each."""
    vec = np.array(centre.as_tuple())
    free = [_PARAM_IDX[nm] for nm in sub.free_names]
    out = []
    for scale in scales:
        v = vec.copy()
        v[free] = v[free] * scale * np.exp(sd * rng.standard_normal(len(free)))
        out.append(Params(*v))
    return out


# ----------------------------------------------------------------------
# The optimizer: BFGS on log-parameters with wall projection.
# ----------------------------------------------------------------------


def _walls(free_idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The box in phi: +-_WALL, and log(shift) below a shifted
    coordinate, where its value reaches exactly 0."""
    lower = [math.log(_SHIFT[i]) if _SHIFT[i] else -_WALL for i in free_idx]
    return np.array(lower), np.full(len(free_idx), _WALL)


def _phi_to_value(phi: float, i: int) -> float:
    return max(math.exp(phi) - _SHIFT[i], 0.0)


def _phi_score(u: list[float], vec: list[float], free_idx: list[int]) -> list[float]:
    """dl/dphi from the score components u = dl/dtheta on the free
    coordinates (in free_idx order): the chain rule through
    value + shift = exp(phi)."""
    return [ui * (vec[i] + _SHIFT[i]) for ui, i in zip(u, free_idx)]


def _no_grad():
    return None


def _make_objective(ll_pass: _Pass, free_idx: list[int], fixed):
    """Return phi -> (negative loglik, gradient thunk).

    ``fixed`` holds the five parameter values, of which the free ones
    are overwritten.  A call costs one pass of ``ll_pass`` at a Params
    built from Python floats; the thunk builds the score components of
    the free coordinates from that pass's blocks when called, and
    returns None where there is no usable gradient (non-finite loglik,
    NaN score).  Call it under ``np.errstate(**_QUIET)``, as :func:`fit`
    does.
    """
    data = ll_pass.data
    base = [float(v) for v in fixed]

    def objective(phi: np.ndarray):
        vec = base.copy()
        for i, x in zip(free_idx, phi.tolist()):
            vec[i] = _phi_to_value(x, i)
        try:
            theta = Params(*vec)
        except ValueError:
            return math.inf, _no_grad
        ll, head = ll_pass(theta)
        if not math.isfinite(ll):
            return math.inf, _no_grad

        def grad():
            u = _score_from_head(theta, data, head, free_idx)
            g = [-v for v in _phi_score(u, vec, free_idx)]
            if any(map(math.isnan, g)):
                return None
            # An infinite component still points somewhere useful; cap it
            # so the line search can follow it to the wall.
            return np.array([min(max(v, -1e30), 1e30) for v in g])

        return -ll, grad

    return objective


def _project_grad(g: list[float], phi: list[float], lower: list[float],
                  upper: list[float]) -> list[float]:
    """Zero descent components blocked by an active wall (minimizing)."""
    return [0.0 if (x <= lo + 1e-9 and v > 0.0) or (x >= hi - 1e-9 and v < 0.0) else v
            for v, x, lo, hi in zip(g, phi, lower, upper)]


class _Stop(NamedTuple):
    """How one run of :func:`_bfgs` ended: its last accepted point and
    objective, its counts, and why it stopped."""

    phi: np.ndarray
    F: float
    iterations: int
    evaluations: int
    reason: str


def _bfgs(objective, phi0, lower, upper, *, gtol: float, max_iter: int):
    """Minimize objective over the box via BFGS with Armijo backtracking.

    A generator, so that :func:`fit` can advance its starts together.
    It yields (F, evaluations) after the first evaluation and after
    every accepted iteration; the value sent back in is ``beat``, the
    objective this run has to overtake to be kept (see below; send None
    to start it).  It returns a :class:`_Stop`, whose reason is
    ``gradient`` (converged), ``max_iter``, ``stalled``, ``abandoned``,
    ``line_search`` (both searches exhausted) or ``nonfinite`` (no
    objective or gradient at the start).

    ``objective(phi)`` returns (F, grad), ``grad()`` the gradient at phi
    or None; it is called only for the first point and for trial points
    that pass the Armijo test, so a rejected trial costs no gradient.
    Each trial step is scaled to move no coordinate by more than
    _MAX_STEP, so a long early step (the first direction is the raw
    gradient) cannot leap from a moderate point onto the far walls,
    where the likelihood is finite but nearly flat.  A direction that
    still fails the Armijo test after _MAX_HALVINGS halvings (a step
    below ~2e-6 in log units) is given up: the quasi-Newton model has
    failed there, as it does when a run crawls along a wall of the
    gamma/lambda ridge, and accepting ever tinier steps would spend
    hundreds of evaluations for no change in the estimate.  Steps are
    clipped to the box; the convergence test uses the wall-projected
    gradient so a maximum pinned on a wall still counts as converged.

    Along that ridge the gradient test can stay out of reach while the
    objective creeps down by a few 1e-9 per iteration, so a run also
    stops, unconverged, when its last _STALL_EVALS evaluations gained
    less than _STALL_GAIN.  A run whose gain over that window, kept up
    for the rest of its max_iter budget, would still not reach
    ``beat`` is abandoned, since it cannot be the one that is kept.
    Neither rule moves a run backwards, so a warm start's value is
    never lost.  A suspended run holds no gradient thunk, so it keeps
    no pass arrays alive.
    """
    phi = np.minimum(np.maximum(np.asarray(phi0, dtype=float), lower), upper)
    F, grad = objective(phi)
    g = grad()
    grad = None
    evals = 1
    if g is None:
        return _Stop(phi, F, 0, evals, "nonfinite")
    walls = lower.tolist(), upper.tolist()
    eye = np.eye(phi.size)
    H = eye                                   # initial inverse-Hessian guess
    it = 0
    trail = [(evals, F)]                      # (evaluations, objective) per iteration
    j = 0                                     # newest trail entry >= _STALL_EVALS old
    while True:
        beat = yield F, evals
        # g holds no NaN (the objective gives no such gradient), so the
        # max of floats is numpy's
        gp = _project_grad(g.tolist(), phi.tolist(), *walls)
        if max(map(abs, gp)) <= gtol * max(1.0, abs(F)):
            return _Stop(phi, F, it, evals, "gradient")
        if it >= max_iter:
            return _Stop(phi, F, it, evals, "max_iter")
        while j + 1 < len(trail) and trail[j + 1][0] <= evals - _STALL_EVALS:
            j += 1
        if trail[j][0] <= evals - _STALL_EVALS:
            gain = trail[j][1] - F
            if gain < _STALL_GAIN:
                return _Stop(phi, F, it, evals, "stalled")
            if F - gain / (it - j) * (max_iter - it) > beat:
                return _Stop(phi, F, it, evals, "abandoned")  # cannot catch up at this pace
        it += 1
        moved = False
        for attempt in (0, 1):
            p = -(H @ g) if attempt == 0 else -np.array(gp)
            if attempt == 0 and float(p @ g) >= 0.0:
                continue                      # H lost descent; use steepest
            step = min(1.0, _MAX_STEP / max(max(map(abs, p.tolist())), 1e-300))
            for _ in range(_MAX_HALVINGS):
                cand = np.minimum(np.maximum(phi + step * p, lower), upper)
                d = cand - phi
                if not d.any():
                    break
                Fc, grad = objective(cand)
                evals += 1
                slope = float(d @ g)
                ok = (Fc <= F + 1e-4 * slope) if slope < 0.0 else (Fc < F)
                gc = grad() if ok else None
                grad = None
                if gc is not None:
                    yv = gc - g
                    sy = float(d @ yv)
                    if sy > 1e-10 * (math.sqrt(d.dot(d)) * math.sqrt(yv.dot(yv))):
                        rho = 1.0 / sy
                        V = eye - rho * (d[:, None] * yv)
                        H = V @ H @ V.T + rho * (d[:, None] * d)
                    phi, F, g = cand, Fc, gc
                    moved = True
                    break
                step *= 0.5
            if moved:
                break
            H = eye                           # curvature reset before retry
        if not moved:
            return _Stop(phi, F, it, evals, "line_search")
        trail.append((evals, F))


def _race(runs: list) -> list[_Stop]:
    """Advance :func:`_bfgs` runs together until each has stopped.

    The run with the fewest evaluations so far takes the next step
    (ties go to the lower index), and its ``beat`` is the best current
    objective among the other runs, finished or not.  Returns each
    run's :class:`_Stop`, in run order.
    """
    now = [(0, math.inf)] * len(runs)          # (evaluations, objective) per run
    stops = [None] * len(runs)
    live = dict(enumerate(runs))
    while live:
        si = min(live, key=lambda i: (now[i][0], i))
        beat = min((F for i, (_, F) in enumerate(now) if i != si), default=math.inf)
        try:
            F, evals = live[si].send(beat if now[si][0] else None)
            now[si] = (evals, F)
        except StopIteration as done:
            stops[si] = done.value
            now[si] = (done.value.evaluations, done.value.F)
            del live[si]
    return stops


def fit(
    data: Dataset,
    sub: SubModel | str,
    init: Params | None = None,
    *,
    extra_starts: tuple[Params, ...] = (),
) -> FitResult:
    """Maximize the log-likelihood over the sub-model's free parameters.

    Runs BFGS on log-transformed coordinates from the moment-matched
    multi-start grid (or from ``init`` when given), keeps the best run
    (ties broken by start order), and reports the result even when the
    gradient test was not met, flagged ``converged=False``.  The starts
    are raced: they advance together, the one with the fewest
    objective evaluations so far stepping next, and a start that
    creeps along a ridge too slowly to overtake the best current value
    of the others is abandoned early (see :func:`_bfgs`).  The result's
    ``trace`` says how each start ended.  ``extra_starts`` appends
    additional starting points; each start is projected onto the
    sub-model's fixed pattern first, and a start equal to an earlier
    one is run only once.

    Parameters
    ----------
    data : Dataset
    sub : SubModel or registry key such as ``"Kw"``
    init : optional Params, replaces the default start grid
    """
    if isinstance(sub, str):
        sub = SUBMODELS[sub]
    if data.n < sub.free_count + 1:
        raise ValueError(
            f"{sub.name} has {sub.free_count} free parameters; need at least "
            f"{sub.free_count + 1} observations, got {data.n}"
        )
    if float(np.ptp(data.values)) == 0.0:
        raise EstimationError("degenerate sample: all values are identical")

    starts = [init] if init is not None else start_grid(data, sub)
    # a start equal to an earlier one would retrace its run and lose the tie
    starts = list(dict.fromkeys(p.replace(**sub.fixed_dict) for p in [*starts, *extra_starts]))
    free_idx = [_PARAM_IDX[nm] for nm in sub.free_names]
    fixed = starts[0].as_tuple()
    lower, upper = _walls(free_idx)
    ll_pass = _Pass(data)                    # shared by every start and the closing pass
    objective = _make_objective(ll_pass, free_idx, fixed)

    with np.errstate(**_QUIET):
        stops = _race([
            _bfgs(objective, [math.log(p.as_tuple()[i] + _SHIFT[i]) for i in free_idx],
                  lower, upper, gtol=_GRAD_TOL, max_iter=_MAX_ITER)
            for p in starts
        ])
        best = min(stops, key=lambda stop: stop.F)   # ties go to the earlier start
        phi = best.phi

        # A run that stalls on the flat plateau a few transformed units short
        # of a wall is still a boundary estimate for reporting purposes.
        vec = list(fixed)
        boundary = []
        di = _PARAM_IDX["delta"]
        for j, i in enumerate(free_idx):
            vec[i] = _phi_to_value(float(phi[j]), i)
            if phi[j] <= lower[j] + 5.0 or phi[j] >= upper[j] - 5.0:
                boundary.append(_PARAM_NAMES[i])
                if i == di and phi[j] <= lower[j] + 5.0:
                    vec[i] = 0.0                  # the wall value is exactly zero
        theta_hat = Params(*vec)
        loglik, head = ll_pass(theta_hat)

        # In phi = log(delta + shift) the gradient (delta + shift) dl/d delta
        # meets the tolerance long before phi nears its wall, so a run can
        # stop at delta ~ 1e-7 while the likelihood still rises towards 0.
        # The KKT conditions for a maximum on the wall decide it instead:
        # dl/d delta <= 0 at delta = 0, and no loss of likelihood there.
        if di in free_idx and vec[di] > 0.0:
            wall = theta_hat.replace(delta=0.0)
            wall_ll, wall_head = ll_pass(wall)
            kkt = wall_ll >= loglik and _score_from_head(wall, data, wall_head, (di,))[0] <= 0.0
            if kkt:
                vec[di] = 0.0
                theta_hat, loglik, head = wall, wall_ll, wall_head
                boundary = [nm for nm in sub.free_names if nm in boundary or nm == "delta"]

        grad_norm = math.inf
        if math.isfinite(loglik):
            g_phi = _phi_score(_score_from_head(theta_hat, data, head, free_idx), vec, free_idx)
            # a NaN component counts as an infinite ascent direction
            descent = [-math.inf if math.isnan(v) else -v for v in g_phi]
            phi_hat = [math.log(vec[i] + _SHIFT[i]) for i in free_idx]
            projected = _project_grad(descent, phi_hat, lower.tolist(), upper.tolist())
            grad_norm = max(map(abs, projected))
        converged = grad_norm <= _GRAD_TOL * max(1.0, abs(loglik))

        result = FitResult(
            submodel=sub,
            theta_hat=theta_hat,
            loglik=loglik,
            std_errors=None,
            converged=converged,
            iterations=best.iterations,
            grad_norm=grad_norm,
            boundary=tuple(boundary),
            trace=tuple(StartTrace(si, s.reason, s.iterations, s.evaluations, -s.F)
                        for si, s in enumerate(stops)),
        )
        if converged:
            ses = _se_from_info(_info_from_head(theta_hat, data, head), free_idx,
                                _on_wall(theta_hat, boundary))
            if ses is not None:
                result = replace(result, std_errors=ses)
    return result


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
                warm.extend(_jittered(default_init(data, sub), sub, rng, 0.5, (1.0, 1.0)))
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
