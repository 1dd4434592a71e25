"""Adaptive Gauss-Legendre quadrature in x, a reference for the tests.

The package itself does not call it: ``series`` falls back on
``core._expect``, a rule over the underlying beta variate.  It stays
importable because the benchmark's traced runs wrap ``adaptive_quad``.
It knows nothing of the series expansions; it integrates whatever
function it is given.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuadResult", "adaptive_quad"]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel(f, lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    return half * float(np.dot(_GL_WEIGHTS, f(mid + half * _GL_NODES)))


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral plus an a-posteriori error estimate.

    ``reliable`` is False when the subdivision budget ran out before the
    requested tolerance was met; the value is still the best available.
    """

    value: float
    err_estimate: float
    subdivisions: int
    reliable: bool

    def __float__(self) -> float:
        return self.value


def adaptive_quad(f, lo: float, hi: float, tol: float = 1e-10,
                  max_subdiv: int = 2000) -> QuadResult:
    """Integrate f over (lo, hi) by adaptive Gauss-Legendre bisection.

    The integrand is called on arrays of nodes.  Panels are kept in a
    priority queue keyed on local error (|whole - (left + right)| after
    one trial split), and the worst panel is split until the summed
    error drops below ``tol`` or the subdivision cap is reached.
    Endpoint integrable singularities are resolved by the geometric
    refinement this induces near the offending endpoint.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"bad interval ({lo}, {hi})")
    counter = itertools.count()

    def make(a: float, c: float, whole: float):
        m = 0.5 * (a + c)
        left = _panel(f, a, m)
        right = _panel(f, m, c)
        err = abs(whole - (left + right))
        return (-err, next(counter), a, c, whole, left, right)

    heap = [make(lo, hi, _panel(f, lo, hi))]
    stuck = []  # panels too narrow to split further (their error stays counted)
    n_split = 0
    heap_err = -heap[0][0]
    stuck_err = 0.0
    while n_split < max_subdiv and heap and heap_err + stuck_err > tol:
        item = heapq.heappop(heap)
        neg_err, _, a, c, _, left, right = item
        heap_err += neg_err
        m = 0.5 * (a + c)
        if not (a < m < c):
            # midpoint indistinguishable from an endpoint in float64;
            # keep the panel and its residual error on the books
            stuck.append(item)
            stuck_err += -neg_err
            continue
        for child in (make(a, m, left), make(m, c, right)):
            heapq.heappush(heap, child)
            heap_err += -child[0]
        n_split += 1
    total_err = sum(-item[0] for item in heap) + sum(-item[0] for item in stuck)
    value = sum(item[5] + item[6] for item in heap + stuck)
    return QuadResult(
        value=value,
        err_estimate=total_err,
        subdivisions=n_split,
        reliable=total_err <= tol,
    )
