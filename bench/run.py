"""Benchmark of the gkw package: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gkw is imported from its src/ tree.
Workloads: family-fit, sampling, eval, properties (bench/README.md says
what each runs and why).  The run sets up (imports gkw and builds the
inputs) several times, then repeats whole rounds of the workload's
operations until S seconds have been measured, then checks every
distinct output against independent computations.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics -- the end-to-end ones with --trace 0, the per-layer ones (from
spans around gkw's public functions) with --trace 1.

One process, one thread: BLAS thread pools are pinned to one thread
before NumPy is imported.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
PROBE_EVERY_S = 0.25    # seconds of calls between two probes
PROBE_REF_S = 3.0e-3    # the probe's time that scaled timings refer to
_PROBE_X = np.linspace(0.01, 0.99, 2000)
END_TO_END = {"setup_s": "s", "round_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
GKW_MODULES = ("specfun", "core", "series", "oracle", "estim", "cli")


def import_gkw() -> types.SimpleNamespace:
    """A fresh import of gkw from this checkout's src/ tree."""
    for name in [m for m in sys.modules if m == "gkw" or m.startswith("gkw.")]:
        del sys.modules[name]
    pkg = importlib.import_module("gkw")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "gkw"):
        raise ImportError(f"gkw was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"gkw.{m}") for m in GKW_MODULES})


def probe() -> float:
    """Seconds taken by a fixed kernel that does not use gkw.

    Interpreter loops of scalar math calls and many small NumPy calls
    (log and exp over 2000 doubles), like gkw's own mix.  On shared
    hardware a process can run at two speeds for a second to a minute at
    a time (on a 2-core virtual machine a single-point cdf call took
    60-70 us in one state and 100-110 us in the other).  The probe, timed
    between the program's calls, slows down with them, so call times
    divided by it stay steady from run to run.
    """
    t0 = time.perf_counter()
    for _ in range(150):
        np.exp(np.log1p(_PROBE_X)).sum()
    s = 0.0
    for i in range(10_000):
        s += math.log1p(i * 1e-3)
    return time.perf_counter() - t0


def setup(build, seed: int):
    """Import gkw and build the inputs SETUP_REPS times.

    Returns the median time scaled to the probe, the package and the
    operations of the last set-up.
    """
    scaled = []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        gkw = import_gkw()
        ops = build(gkw, seed, OUT)
        elapsed = time.perf_counter() - t0
        scaled.append(elapsed * 2.0 * PROBE_REF_S / (before + probe()))
    return statistics.median(scaled), gkw, ops


def digest(obj) -> bytes:
    h = hashlib.blake2b(digest_size=16)

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(o.dtype.str.encode())
            h.update(o.tobytes())
        elif isinstance(o, (tuple, list)):
            h.update(b"(")
            for item in o:
                feed(item)
            h.update(b")")
        elif isinstance(o, BaseException):
            h.update(f"{type(o).__name__}: {o}".encode())
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.digest()


def run_round(ops, outputs):
    """One pass over the operations.

    Returns each call's seconds, the same scaled to the probe, and each
    output's digest.  Only the calls are timed; the probe runs between
    calls every PROBE_EVERY_S seconds of calls, and a call is scaled by
    the mean of the probes on either side of it.  The first output of
    each distinct digest is kept for the checks.
    """
    times, scaled, digests = [], [], []
    clock = time.perf_counter
    last = probe()
    first, busy = 0, 0.0
    for k, (op, seen) in enumerate(zip(ops, outputs)):
        t0 = clock()
        try:
            ret = op.call()
        except Exception as exc:  # a call that raises is an outcome to check
            ret = exc
        times.append(clock() - t0)
        busy += times[-1]
        out = ret if isinstance(ret, Exception) else op.collect(ret)
        d = digest(out)
        seen.setdefault(d, out)
        digests.append(d)
        if busy >= PROBE_EVERY_S or k == len(ops) - 1:
            now = probe()
            factor = 2.0 * PROBE_REF_S / (last + now)
            scaled += [t * factor for t in times[first:]]
            last, first, busy = now, len(times), 0.0
    return times, scaled, digests


def check_outputs(ops, outputs) -> dict:
    """(op index, digest) -> None when the output passes, else the reason.

    gkw is deterministic for fixed inputs, so an output that differs from
    the first round's output of the same operation fails as such.
    """
    verdicts = {}
    for i, (op, seen) in enumerate(zip(ops, outputs)):
        for k, (d, out) in enumerate(seen.items()):
            if k > 0:
                verdicts[i, d] = "output differs from the first round's"
                continue
            if isinstance(out, Exception):
                verdicts[i, d] = f"raised {type(out).__name__}: {out}"
                continue
            try:
                verdicts[i, d] = op.check(out)
            except Exception as exc:  # malformed output the check cannot read
                verdicts[i, d] = f"output unreadable ({type(exc).__name__}: {exc})"
    return verdicts


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gkw", "__init__.py")):
        print(f"bench: no gkw source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    setup_s, gkw, ops = setup(workloads.WORKLOADS[args.workload], args.seed)
    outputs = [{} for _ in ops]
    rounds = []               # (seconds, scaled seconds, digests) per round
    plain, traced = [], []    # the untraced and the traced rounds
    tracer = spans.Tracer(gkw) if args.trace else None
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops, outputs))
        plain.append(rounds[-1])
        if tracer is not None:
            # traced rounds alternate with untraced ones, so the two
            # share the machine's state; their difference is the overhead
            tracer.install()
            tracer.begin_round()
            try:
                rounds.append(run_round(ops, outputs))
            finally:
                tracer.end_round()
                tracer.uninstall()
            traced.append(rounds[-1])
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = check_outputs(ops, outputs)
    failed = 0
    failing = {}
    for _, _, digests in rounds:
        for i, d in enumerate(digests):
            if verdicts[i, d] is not None:
                failed += 1
                failing.setdefault(i, verdicts[i, d])
    for i, reason in sorted(failing.items()):
        print(f"FAILED {ops[i].key} [{ops[i].fault or 'unexpected'}]: {reason}")
    correct = all(ops[i].fault for i in failing)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(ops)} operations")
    if tracer is None:
        per_op = [statistics.median(col) for col in zip(*(r[1] for r in plain))]
        values = {
            "setup_s": setup_s,
            "round_s": statistics.median(sum(r[1]) for r in plain),
            "op_p50_ms": 1e3 * statistics.median(t for r in plain for t in r[1]),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        raw = sorted(sum(r[0]) for r in plain)
        print(f"  unscaled round call time: min {raw[0]:.6g} s, median "
              f"{statistics.median(raw):.6g} s, max {raw[-1]:.6g} s")
        for label, rate in workloads.throughput(ops, per_op):
            print(f"  {label}: {rate:.6g}/s (scaled)")
    else:
        overhead = (statistics.median(sum(r[1]) for r in traced)
                    - statistics.median(sum(r[1]) for r in plain))
        metrics = tracer.table(overhead)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv"))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(rounds) * len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
