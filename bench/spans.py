"""Spans around gkw's public functions, for the benchmark's traced run.

A function is wrapped by replacing its module attribute, so the calls
the program makes inside itself (series -> oracle -> core -> specfun,
cli -> estim) are seen as well as the benchmark's own.  Spans are kept
in memory as (name, start, end, parent) and written out once, at the
end of the run; the per-layer table is derived from them: inclusive
time, self time (a span minus its wrapped children), and call counts.
Other counts are read from the wrapped functions' public results.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np

# module -> public functions wrapped in the traced run
WRAPPED = {
    "specfun": ("reg_inc_beta", "inv_reg_inc_beta"),
    "core": ("sample", "quantile", "cdf", "pdf"),
    "series": ("moment", "l_moments", "renyi_entropy", "mean_deviations",
               "order_stat_moment_series"),
    "oracle": ("adaptive_quad",),
    "estim": ("fit", "observed_info", "log_likelihood", "score", "lr_test"),
    "cli": ("main",),
}
MODELS = ("GKw", "BKw", "KwKw", "EKw", "Kw", "Beta", "Mc", "BP")
CLI_VERBS = ("fit", "props")

# span names that get .s / .self_s / .calls rows
TIMED = (
    [f"{m}.{f}" for m, fs in WRAPPED.items() if m != "cli" for f in fs]
    + [f"cli.{v}" for v in CLI_VERBS]
)
COUNTS = (
    [f"core.{f}.points" for f in WRAPPED["core"]]
    + ["estim.fit.iterations", "estim.fit.unconverged", "estim.fit.boundary",
       "series.quadrature_fallbacks", "series.terms",
       "oracle.adaptive_quad.subdivisions"]
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in TIMED:
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [(f"estim.fit.{m}.s", "s") for m in MODELS]
    out += [(name, "count") for name in COUNTS]
    out += [("trace.overhead_s", "s"), ("trace.spans", "count")]
    return out


class Tracer:
    """Records spans while installed; one table per traced round."""

    def __init__(self, gkw):
        self.gkw = gkw
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.rounds: list[tuple[int, int, dict]] = []
        self.counts: dict = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ------------------------------------------------------

    def _wrap(self, module: str, fname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def name_of(args, kwargs):
            if module == "estim" and fname == "fit":
                sub = args[1] if len(args) > 1 else kwargs["sub"]
                return "estim.fit." + (sub if isinstance(sub, str) else sub.name)
            if module == "cli":
                argv = args[0] if args else kwargs.get("argv")
                return f"cli.{argv[0]}" if argv else "cli.main"
            return f"{module}.{fname}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_of(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(module, fname, args, kwargs, result)
            return result

        return traced

    def _count(self, module, fname, args, kwargs, result):
        c = self.counts
        if module == "core":
            size = args[1] if fname == "sample" else np.size(args[1])
            c[f"core.{fname}.points"] += int(size)
        elif module == "estim" and fname == "fit":
            c["estim.fit.iterations"] += result.iterations
            c["estim.fit.unconverged"] += not result.converged
            c["estim.fit.boundary"] += bool(result.boundary)
        elif module == "oracle":
            c["oracle.adaptive_quad.subdivisions"] += result.subdivisions
        elif module == "series":
            values = result if isinstance(result, (tuple, list)) else (result,)
            for v in values:
                if isinstance(v, self.gkw.series.SeriesValue):
                    c["series.quadrature_fallbacks"] += v.method == "quadrature"
                    c["series.terms"] += v.terms

    def install(self) -> None:
        for module, names in WRAPPED.items():
            mod = getattr(self.gkw, module)
            for fname in names:
                fn = getattr(mod, fname)
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, self._wrap(module, fname, fn))

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._saved):
            setattr(mod, fname, fn)
        self._saved.clear()

    def begin_round(self) -> None:
        self.counts = defaultdict(int)
        self._first = len(self.spans)

    def end_round(self) -> None:
        self.rounds.append((self._first, len(self.spans), self.counts))

    # -- derived table --------------------------------------------------

    def _round_table(self, first: int, last: int, counts: dict) -> dict:
        incl = defaultdict(float)
        self_t = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        for i in range(last - 1, first - 1, -1):  # children come after parents
            name, t0, t1, parent = self.spans[i]
            dur = t1 - t0
            self_t[name] += dur - child.pop(i, 0.0)
            calls[name] += 1
            if parent >= first:
                child[parent] += dur
            # inclusive time counts a name once, not again inside itself
            p = parent
            while p >= first and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < first:
                incl[name] += dur
        table = {}
        for m in MODELS:
            table[f"estim.fit.{m}.s"] = incl[f"estim.fit.{m}"]
        fit_names = [f"estim.fit.{m}" for m in MODELS]
        incl["estim.fit"] = sum(incl[n] for n in fit_names)
        self_t["estim.fit"] = sum(self_t[n] for n in fit_names)
        calls["estim.fit"] = sum(calls[n] for n in fit_names)
        for name in TIMED:
            table[f"{name}.s"] = incl[name]
            table[f"{name}.self_s"] = self_t[name]
            table[f"{name}.calls"] = calls[name]
        for name in COUNTS:
            table[name] = counts.get(name, 0)
        table["trace.spans"] = last - first
        return table

    def table(self, overhead_s: float) -> dict:
        """Per-layer metrics: the median over traced rounds of each entry."""
        tables = [self._round_table(*r) for r in self.rounds]
        out = {}
        for name, unit in per_layer_metrics():
            if name == "trace.overhead_s":
                value = overhead_s
            else:
                value = statistics.median(t[name] for t in tables)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")
