"""Command-line front end for the gkw package.

Verbs
-----
eval     tabulate pdf, cdf or quantile values at given points
sample   draw variates into a single-column CSV file
props    moments, L-moments, Renyi entropy and mean deviations, as JSON
fit      fit the sub-model family to proportion data; JSON report plus
         an optional plot-ready TSV density table
lr       likelihood-ratio test between two models of an existing report

Exit codes: 0 success, 2 input or contract error, 3 I/O error,
4 numerical failure.

Output is deterministic for fixed flags and seeds: reports carry no
timestamps, dictionary order is fixed, and every float in JSON is
serialized with 17 significant digits so it round-trips exactly.  CSV
input accepts an optional single-cell header row, '#' comment lines and
either newline convention; non-numeric cells are rejected with their
line numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__, core, estim, series
from .core import _PARAM_NAMES, Params, SUBMODELS
from .estim import Dataset, EstimationError, FitResult
from .specfun import NonConvergenceError

__all__ = ["main"]

# Table 1 of the source material abbreviates KwKw as "KKw"; both
# spellings are accepted, the canonical name is used everywhere else.
_MODEL_KEYS = {
    "gkw": "GKw",
    "bkw": "BKw",
    "kkw": "KwKw",
    "kwkw": "KwKw",
    "ekw": "EKw",
    "kw": "Kw",
    "beta": "Beta",
    "mc": "Mc",
    "bp": "BP",
}
_DEFAULT_MODELS = "gkw,bkw,kkw,ekw,kw,beta,mc,bp"


class CliError(Exception):
    """An error with a message for stderr and a process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------


def _parse_floats(text: str, flag: str) -> list[float]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise CliError(2, f"{flag}: expected comma-separated numbers, got {text!r}")
    out = []
    for p in parts:
        try:
            out.append(float(p))
        except ValueError:
            raise CliError(2, f"{flag}: {p!r} is not a number") from None
    return out


def _parse_theta(text: str) -> Params:
    vals = _parse_floats(text, "--theta")
    if len(vals) != 5:
        raise CliError(
            2, f"--theta needs five values alpha,beta,gamma,delta,lambda; got {len(vals)}"
        )
    try:
        return Params(*vals)
    except ValueError as e:
        raise CliError(2, f"--theta: {e}") from None


def _parse_models(text: str) -> list[str]:
    names: list[str] = []
    for key in (k.strip().lower() for k in text.split(",")):
        if not key:
            continue
        if key not in _MODEL_KEYS:
            raise CliError(
                2,
                f"--models: unknown model {key!r}; choose from "
                + ",".join(sorted(set(_MODEL_KEYS))),
            )
        name = _MODEL_KEYS[key]
        if name not in names:
            names.append(name)
    if not names:
        raise CliError(2, "--models: empty model list")
    return names


def _read_proportions(path: str) -> tuple[np.ndarray, list[int]]:
    """Single-column CSV -> (values, 1-based line numbers).

    Skips blank lines and '#' comments; the first non-comment row may be
    a non-numeric header.  Later non-numeric or multi-column rows abort
    with their line numbers.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    values: list[float] = []
    lines: list[int] = []
    bad: list[str] = []
    seen_any = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        cells = [c.strip() for c in s.split(",")]
        if len(cells) != 1:
            bad.append(f"line {lineno}: expected a single column")
            seen_any = True
            continue
        try:
            v = float(cells[0])
        except ValueError:
            if not seen_any:
                seen_any = True  # optional header row
                continue
            bad.append(f"line {lineno}: non-numeric value {cells[0]!r}")
            continue
        seen_any = True
        values.append(v)
        lines.append(lineno)
    if bad:
        shown = "; ".join(bad[:10])
        more = f"; and {len(bad) - 10} more" if len(bad) > 10 else ""
        raise CliError(2, f"{path}: {shown}{more}")
    if not values:
        raise CliError(2, f"{path}: no data rows")
    return np.asarray(values, dtype=float), lines


def _require_open_unit(values: np.ndarray, lines: list[int], path: str,
                       suggest_shrink: bool) -> None:
    bad = [ln for v, ln in zip(values, lines) if not (0.0 < v < 1.0)]
    if not bad:
        return
    shown = ", ".join(str(b) for b in bad[:20])
    more = f" and {len(bad) - 20} more" if len(bad) > 20 else ""
    hint = "; rerun with --shrink to map boundary values inside" if suggest_shrink else ""
    raise CliError(
        2, f"{path}: {len(bad)} value(s) outside (0,1) at line(s) {shown}{more}{hint}"
    )


# ----------------------------------------------------------------------
# Deterministic JSON with full-precision floats
# ----------------------------------------------------------------------


def _json_text(obj, level: int = 0) -> str:
    """Serialize with 17 significant digits; non-finite floats become null."""
    pad = "  " * level
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return format(v, ".17g") if math.isfinite(v) else "null"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, level + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_text(v, level + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _annotate(out: dict, key: str, value, method: bool = True) -> None:
    """Store a quantity plus, with method, how it was obtained, and
    `<key>_converged: false` where it did not converge."""
    out[key] = float(value)
    if isinstance(value, series.SeriesValue):
        if method:
            out[key + "_method"] = value.method
        if not value.converged:
            out[key + "_converged"] = False


# ----------------------------------------------------------------------
# Verbs
# ----------------------------------------------------------------------


def _cmd_eval(args) -> int:
    theta = _parse_theta(args.theta)
    points = _parse_floats(args.at, "--at")
    rows = []
    for x in points:
        if args.what == "pdf":
            if not 0.0 < x < 1.0:
                raise CliError(2, f"--at: pdf point {x:g} outside the open interval (0,1)")
            v = core.pdf(theta, x)
        elif args.what == "cdf":
            if not 0.0 <= x <= 1.0:
                raise CliError(2, f"--at: cdf point {x:g} outside [0,1]")
            v = core.cdf(theta, x)
        else:
            if not 0.0 <= x <= 1.0:
                raise CliError(2, f"--at: quantile level {x:g} outside [0,1]")
            v = core.quantile(theta, x)
        if not math.isfinite(v):
            raise CliError(4, f"{args.what} at {x:g} did not evaluate to a finite number")
        rows.append((x, v))
    for x, v in rows:
        print(f"{x:.12g}\t{v:.12g}")
    return 0


def _cmd_sample(args) -> int:
    theta = _parse_theta(args.theta)
    if args.n < 1:
        raise CliError(2, f"--n must be a positive integer, got {args.n}")
    x = core.sample(theta, args.n, seed=args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x\n")
        fh.writelines(format(v, ".17g") + "\n" for v in x)
    if not args.quiet:
        print(f"wrote {args.n} draws to {args.out}", file=sys.stderr)
    return 0


def _cmd_props(args) -> int:
    theta = _parse_theta(args.theta)
    if not (args.moments or args.lmoments or args.entropy is not None or args.deviations):
        raise CliError(
            2, "props: request at least one of --moments, --lmoments, --entropy, --deviations"
        )
    # one law for every verb: mu_1 and each quadrature node array are built
    # at most once per call
    law = series._Law(theta)
    out: dict = {}
    if args.moments:
        if args.moments < 1:
            raise CliError(2, f"--moments must be a positive integer, got {args.moments}")
        for r, mu in enumerate(series._moments(law, range(1, args.moments + 1)), 1):
            _annotate(out, f"mu{r}", mu)
    if args.lmoments:
        for i, v in enumerate(series._l_moments(law, 4), 1):
            _annotate(out, f"l{i}", v, method=False)
    if args.entropy is not None:
        rho = args.entropy
        if not rho > 0.0 or rho == 1.0:
            raise CliError(2, f"--entropy: rho must be positive and different from 1, got {rho:g}")
        try:
            _annotate(out, "renyi", series._renyi_entropy(law, rho))
        except series.DivergentIntegralError as e:
            out["renyi"] = "divergent"
            out["renyi_reason"] = str(e)
    if args.deviations:
        d1, d2 = series._mean_deviations(law)
        _annotate(out, "delta1", d1)
        _annotate(out, "delta2", d2)
    print(_json_text(out))
    return 0


def _model_entry(nm: str, r: FitResult) -> dict:
    sub = SUBMODELS[nm]
    se = None
    if r.std_errors is not None:
        se = {fn: float(s) for fn, s in zip(sub.free_names, r.std_errors)}
    return {
        "name": nm,
        "free": list(sub.free_names),
        "theta": dict(zip(_PARAM_NAMES, r.theta_hat.as_tuple())),
        "se": se,
        "loglik": r.loglik,
        "converged": r.converged,
        "iterations": r.iterations,
        "grad_norm": r.grad_norm,
        "boundary": list(r.boundary),
    }


def _write_plot(path: str, values: np.ndarray, names: list[str],
                fits: dict[str, FitResult]) -> None:
    """512-bin histogram of the data plus one fitted-density column per model."""
    edges = np.linspace(0.0, 1.0, 513)
    hist, _ = np.histogram(values, bins=edges, density=True)
    mids = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(over="ignore"):
        cols = [np.asarray(core.pdf(fits[nm].theta_hat, mids), dtype=float) for nm in names]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_left\tbin_right\thist_density\t" + "\t".join(names) + "\n")
        for i in range(512):
            row = [edges[i], edges[i + 1], hist[i]] + [c[i] for c in cols]
            fh.write("\t".join(format(v, ".12g") for v in row) + "\n")


def _cmd_fit(args) -> int:
    names = _parse_models(args.models)
    values, lines = _read_proportions(args.data)
    preprocessing = []
    if args.percent:
        values = values / 100.0
        preprocessing.append("percent")
    if args.shrink:
        n = values.size
        values = (values * (n - 1) + 0.5) / n
        preprocessing.append("shrink")
        if not args.quiet:
            print(f"shrink: applied (x*(n-1)+0.5)/n with n={n}", file=sys.stderr)
    _require_open_unit(values, lines, args.data, suggest_shrink=not args.shrink)

    data = Dataset(values)
    fits = estim.fit_family(data, tuple(names), seed=args.seed)
    if not args.quiet:
        for nm, r in fits.items():
            note = "" if r.converged else " (not converged)"
            print(f"fit {nm}: loglik={r.loglik:.6f}{note}", file=sys.stderr)

    lr_rows = []
    for alt in names:
        for null in names:
            if not SUBMODELS[null].nests_within(SUBMODELS[alt]):
                continue
            if not (math.isfinite(fits[null].loglik) and math.isfinite(fits[alt].loglik)):
                continue
            t = estim.lr_test(fits[null], fits[alt])
            lr_rows.append({
                "null": null, "alt": alt,
                "w": t.statistic_w, "df": t.df, "p_value": t.p_value,
            })
    report = {
        "schema": "gkw-report/1",
        "version": __version__,
        "seed": args.seed,
        "data": {
            "source": args.data,
            "n": int(data.n),
            "min": float(np.min(values)),
            "max": float(np.max(values)),
            "mean": float(np.mean(values)),
            "preprocessing": preprocessing,
        },
        "models": [_model_entry(nm, fits[nm]) for nm in names],
        "lr_tests": lr_rows,
    }
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(report) + "\n")
    if args.plot:
        _write_plot(args.plot, values, names, fits)
    if not args.quiet:
        print(f"wrote report to {args.out}", file=sys.stderr)
    return 0


def _canon_model(key: str, flag: str) -> str:
    k = key.strip().lower()
    if k not in _MODEL_KEYS:
        raise CliError(2, f"{flag}: unknown model {key!r}")
    return _MODEL_KEYS[k]


def _fit_from_entry(entry: dict) -> FitResult:
    try:
        t = entry["theta"]
        theta = Params(*[float(t[nm]) for nm in _PARAM_NAMES])
        gn = entry.get("grad_norm")
        return FitResult(
            submodel=SUBMODELS[entry["name"]],
            theta_hat=theta,
            loglik=float(entry["loglik"]),
            std_errors=None,
            converged=bool(entry.get("converged", True)),
            iterations=int(entry.get("iterations", 0)),
            grad_norm=math.inf if gn is None else float(gn),
            boundary=tuple(entry.get("boundary", ())),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CliError(2, f"report entry for {entry.get('name', '?')} is malformed: {e}") from None


def _cmd_lr(args) -> int:
    null_name = _canon_model(args.null, "--null")
    alt_name = _canon_model(args.alt, "--alt")
    with open(args.report, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(2, f"{args.report}: not valid JSON ({e})") from None
    models = {
        m.get("name"): m
        for m in report.get("models", [])
        if isinstance(m, dict)
    }
    for name, flag in ((null_name, "--null"), (alt_name, "--alt")):
        if name not in models:
            raise CliError(2, f"{flag}: model {name} not present in {args.report}")
    if null_name == alt_name:
        out = {"null": null_name, "alt": alt_name, "w": 0.0, "df": 0, "p_value": 1.0}
    else:
        try:
            t = estim.lr_test(_fit_from_entry(models[null_name]), _fit_from_entry(models[alt_name]))
        except ValueError as e:
            raise CliError(2, str(e)) from None
        out = {
            "null": null_name, "alt": alt_name,
            "w": t.statistic_w, "df": t.df, "p_value": t.p_value,
        }
    print(_json_text(out))
    return 0


# ----------------------------------------------------------------------
# Argument parser and entry point
# ----------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use (about 1 ms)."""
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("global options")
    g.add_argument("--quiet", action="store_true",
                   help="suppress informational messages on stderr")

    p = argparse.ArgumentParser(
        prog="gkw",
        description="Generalized Kumaraswamy distributions: evaluation, "
                    "simulation, properties and maximum-likelihood fitting.",
    )
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="verb", metavar="verb", required=True)

    pe = sub.add_parser("eval", parents=[common],
                        help="tabulate pdf, cdf or quantile values")
    pe.add_argument("--theta", required=True, metavar="A,B,G,D,L",
                    help="parameters alpha,beta,gamma,delta,lambda")
    pe.add_argument("--at", required=True, metavar="X1,X2,...",
                    help="evaluation points (quantile levels for --what quantile)")
    pe.add_argument("--what", choices=("pdf", "cdf", "quantile"), default="pdf")
    pe.set_defaults(func=_cmd_eval)

    ps = sub.add_parser("sample", parents=[common],
                        help="draw variates into a single-column CSV")
    ps.add_argument("--theta", required=True, metavar="A,B,G,D,L")
    ps.add_argument("--n", type=int, required=True, help="number of draws")
    ps.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    ps.add_argument("--out", required=True, metavar="FILE", help="output CSV path")
    ps.set_defaults(func=_cmd_sample)

    pp = sub.add_parser("props", parents=[common],
                        help="distributional properties as JSON")
    pp.add_argument("--theta", required=True, metavar="A,B,G,D,L")
    pp.add_argument("--moments", type=int, metavar="K",
                    help="ordinary moments mu1..muK")
    pp.add_argument("--lmoments", action="store_true", help="first four L-moments")
    pp.add_argument("--entropy", type=float, metavar="RHO",
                    help="Renyi entropy of order RHO (RHO > 0, RHO != 1)")
    pp.add_argument("--deviations", action="store_true",
                    help="mean deviations about the mean and the median")
    pp.set_defaults(func=_cmd_props)

    pf = sub.add_parser("fit", parents=[common],
                        help="fit the sub-model family to proportion data")
    pf.add_argument("--data", required=True, metavar="FILE",
                    help="single-column CSV of proportions in (0,1)")
    pf.add_argument("--models", default=_DEFAULT_MODELS, metavar="LIST",
                    help=f"comma-separated model keys (default {_DEFAULT_MODELS})")
    pf.add_argument("--seed", type=int, default=None,
                    help="seed for supplementary multi-start points")
    pf.add_argument("--percent", action="store_true",
                    help="input is in percent; divide by 100 first")
    pf.add_argument("--shrink", action="store_true",
                    help="map values into (0,1) via (x*(n-1)+0.5)/n before fitting")
    pf.add_argument("--out", required=True, metavar="FILE", help="JSON report path")
    pf.add_argument("--plot", metavar="FILE",
                    help="also write a 512-bin TSV density table")
    pf.set_defaults(func=_cmd_fit)

    pl = sub.add_parser("lr", parents=[common],
                        help="likelihood-ratio test from a fit report")
    pl.add_argument("--report", required=True, metavar="FILE", help="fit report JSON")
    pl.add_argument("--null", required=True, help="null (restricted) model key")
    pl.add_argument("--alt", required=True, help="alternative model key")
    pl.set_defaults(func=_cmd_lr)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse prints its own message; keep its code
        code = e.code if e.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except CliError as e:
        print(f"gkw {args.verb}: {e.message}", file=sys.stderr)
        return e.code
    except OSError as e:
        print(f"gkw {args.verb}: {e}", file=sys.stderr)
        return 3
    except (EstimationError, NonConvergenceError, ArithmeticError) as e:
        print(f"gkw {args.verb}: numerical failure: {e}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"gkw {args.verb}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
