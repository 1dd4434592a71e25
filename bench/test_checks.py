"""Self-tests of the benchmark: references, checks and span arithmetic.

Each check must pass the program's real output and reject a slightly
perturbed copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import make_refs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

mp.mp.dps = 50


def _mp_cdf(theta, x) -> float:
    a, b, g, d, l = (mp.mpf(v) for v in theta)
    z = (1 - (1 - mp.mpf(x) ** a) ** b) ** l
    return float(mp.betainc(g, d + 1, 0, z, regularized=True))


@pytest.fixture(scope="module")
def gkw():
    return run.import_gkw()


# -- the independent references --------------------------------------


@pytest.mark.parametrize("theta", [
    (3.2126159360191324e-10, 1.3120263912616594, 1.0, 2.465079450523341, 10686474581524.463),
    (10.431847602561753, 1.2745325697291652, 136.68170646616358, 3.4530444262883395,
     0.0054271172256792465),
    (2.0, 3.0, 1.5, 0.5, 2.0),
])
def test_loglik_matches_mpmath(theta):
    """Log-space loglik at the extreme KwKw estimate of the seed-3 data."""
    x = ref.draw((2, 3, 1.5, 0.5, 2), 200, 3)
    assert ref.loglik(theta, x) == pytest.approx(make_refs.mp_loglik(theta, x), rel=1e-12, abs=1e-10)


@pytest.mark.parametrize("theta,x", [
    ((2, 3, 1.5, 0.5, 2), 0.3), ((1, 1, 2, 1.5, 1), 0.7), ((0.5, 0.5, 3, 0, 2), 0.99),
    ((2, 2, 1, 1.5, 2), 0.05), (wl.F4, 0.1), (wl.F4, 0.3), ((2, 3, 50, 40, 1), 0.5),
])
def test_cdf_matches_mpmath(theta, x):
    assert float(ref.cdf(theta, x)) == pytest.approx(_mp_cdf(theta, x), rel=1e-12, abs=1e-300)


def test_quantile_inverts_cdf():
    for _, theta in wl.SHAPES:
        u = np.linspace(0.01, 0.99, 99)
        assert np.max(np.abs(ref.cdf(theta, ref.quantile(theta, u)) - u)) < 1e-12
    assert float(ref.quantile(wl.F1, 0.1)) == pytest.approx(1e-100, rel=1e-12)


def test_draw_reproduces_the_program_sampler(gkw):
    theta = (2, 3, 1.5, 0.5, 2)
    x = gkw.core.sample(gkw.core.Params(*theta), 2000, seed=3)
    np.testing.assert_allclose(ref.draw(theta, 2000, 3), x, rtol=1e-13)


# -- family-fit ---------------------------------------------------------


@pytest.fixture(scope="module")
def fit_case(gkw, tmp_path_factory):
    """A real report on one n = 150 dataset and its inputs."""
    spec = next(s for s in wl.FIT_DATASETS if s.name == "nested-2")
    out = str(tmp_path_factory.mktemp("fit"))
    op = next(o for o in wl.family_fit(gkw, 0, out) if o.key == spec.name)
    output = op.collect(op.call())
    x = wl.fit_values(spec)
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        ref_theta = json.load(fh)[spec.name]["theta"]
    return spec, x, ref_theta, output


def _edit(output, fn):
    rc, text = output
    report = json.loads(text)
    fn(report)
    return rc, json.dumps(report)


def _model(report, name):
    return next(m for m in report["models"] if m["name"] == name)


def test_fit_check_passes_real_report(fit_case):
    spec, x, ref_theta, output = fit_case
    assert wl.check_fit(spec, x, ref_theta, output) is None


@pytest.mark.parametrize("perturb", [
    lambda r: _model(r, "EKw").update(loglik=_model(r, "EKw")["loglik"] + 1e-3),
    lambda r: _model(r, "Kw")["theta"].update(gamma=1.0 + 1e-12),
    lambda r: r["lr_tests"][0].update(w=r["lr_tests"][0]["w"] * (1 + 1e-6)),
    lambda r: r["lr_tests"][0].update(p_value=r["lr_tests"][0]["p_value"] * (1 + 1e-6)),
    lambda r: r["lr_tests"][0].update(df=r["lr_tests"][0]["df"] + 1),
    lambda r: r["lr_tests"].pop(),
    lambda r: r["models"].pop(),
], ids=["loglik", "pinned", "w", "p", "df", "lr-row", "model"])
def test_fit_check_rejects_perturbed_report(fit_case, perturb):
    spec, x, ref_theta, output = fit_case
    assert wl.check_fit(spec, x, ref_theta, _edit(output, perturb)) is not None


def test_nesting_check_rejects_swapped_pair(fit_case):
    spec, x, ref_theta, output = fit_case
    ll = {m["name"]: m["loglik"] for m in json.loads(output[1])["models"]}
    assert wl.nesting_violation(ll) is None
    ll["Kw"], ll["EKw"] = ll["EKw"], ll["Kw"]
    assert wl.nesting_violation(ll) is not None


def test_fit_check_detects_f5(gkw, tmp_path):
    """The workhorse seed-3 GKw fit stops below the stored reference optimum."""
    op = next(o for o in wl.family_fit(gkw, 0, str(tmp_path)) if o.fault == "F5")
    verdict = op.check(op.collect(op.call()))
    assert verdict is not None and "reference point" in verdict


def test_fit_check_rejects_nonzero_exit(fit_case):
    spec, x, ref_theta, output = fit_case
    assert wl.check_fit(spec, x, ref_theta, (4, output[1])) is not None


# -- sampling and eval ----------------------------------------------------


def test_quantile_check_rejects_relative_shift(gkw):
    theta = (2, 3, 1.5, 0.5, 2)
    u = np.random.default_rng(0).random(1000)
    q = gkw.core.quantile(gkw.core.Params(*theta), u)
    assert wl.check_quantiles(theta, u, q) is None
    moved = q.copy()
    moved[500] *= 1 + 1e-6
    assert wl.check_quantiles(theta, u, moved) is not None


def test_cdf_check_rejects_small_error(gkw):
    theta = (1, 1, 2, 1.5, 1)
    x = np.random.default_rng(0).random(1000)
    c = gkw.core.cdf(gkw.core.Params(*theta), x)
    assert wl.check_cdf(theta, x, c) is None
    c[10] += 1e-9
    assert wl.check_cdf(theta, x, c) is not None


def test_draws_check(gkw):
    theta = (2, 3, 1, 0, 1)
    p = gkw.core.Params(*theta)
    x = gkw.core.sample(p, 20_000, seed=5)
    assert wl.check_draws(theta, 20_000, x) is None
    # draws of a neighbouring law, a draw on the boundary, too few draws
    other = gkw.core.sample(gkw.core.Params(2, 3.5, 1, 0, 1), 20_000, seed=5)
    assert wl.check_draws(theta, 20_000, other) is not None
    edge = x.copy()
    edge[0] = 1.0
    assert wl.check_draws(theta, 20_000, edge) is not None
    assert wl.check_draws(theta, 20_000, x[:-1]) is not None


def test_runner_fails_outputs_that_change_between_rounds():
    ops = [wl.Op("a", lambda: None, lambda out: None)]
    outputs = [{b"first": 1.0, b"second": 2.0}]
    verdicts = run.check_outputs(ops, outputs)
    assert verdicts[0, b"first"] is None and verdicts[0, b"second"] is not None


def test_point_checks(gkw):
    ops = wl.eval_calls(gkw, 3, "")
    for kind, bump in (("pdf", 1e-9), ("cdf", 1e-9), ("quantile", 1e-6)):
        op = next(o for o in ops if o.key.startswith(f"{kind}-point-workhorse"))
        v = op.call()
        assert op.check(v) is None
        assert op.check(v * (1 + bump)) is not None


def test_fault_operations_fail_and_their_neighbours_pass(gkw):
    """F1-F4 fail on the current program; the same calls on Kw pass."""
    ops = wl.sampling(gkw, 7, "") + wl.eval_calls(gkw, 7, "")
    neighbours = ("sample-kw", "quantile-grid-kw", "cdf-grid-kw-0")
    for op in (o for o in ops if o.fault or o.key in neighbours):
        try:
            out = op.collect(op.call())
        except Exception as exc:  # noqa: BLE001 - F2 and F3 raise
            verdict = repr(exc)
        else:
            verdict = op.check(out)
        assert (verdict is not None) == (op.fault is not None), (op.key, verdict)


# -- properties -----------------------------------------------------------


@pytest.fixture(scope="module")
def props_case(gkw):
    op = next(o for o in wl.properties(gkw, 0, "") if o.key == "kwkw")
    theta = next(t for name, t, _ in wl.PROPS_SHAPES if name == "kwkw")
    return theta, op.call()


def _edit_props(output, which, fn):
    out = [list(o) for o in output]
    doc = json.loads(out[which][1])
    fn(doc)
    out[which][1] = json.dumps(doc)
    return [tuple(o) for o in out]


def test_props_check_passes_real_output(props_case):
    theta, output = props_case
    assert wl.check_props(theta, output) is None


@pytest.mark.parametrize("which,perturb", [
    (0, lambda d: d.update(mu2=d["mu2"] * (1 + 1e-6))),
    (0, lambda d: d.update(l1=d["l1"] * (1 + 1e-6))),
    (0, lambda d: d.update(l2=-d["l2"])),
    (0, lambda d: d.update(l4=d["l2"] * 1.5)),
    (1, lambda d: d.update(renyi="divergent")),
    (0, lambda d: d.update(renyi=d["renyi"] + 1e-6)),
    (0, lambda d: d.update(delta2=d["delta2"] * (1 + 1e-6))),
], ids=["mu2", "l1", "l2", "tau4", "renyi-divergent", "renyi", "delta2"])
def test_props_check_rejects_perturbed_output(props_case, which, perturb):
    theta, output = props_case
    assert wl.check_props(theta, _edit_props(output, which, perturb)) is not None


def test_divergence_rule():
    assert ref.renyi((0.5, 0.5, 3, 0, 2), 2.0) is None       # beta(delta+1) = 0.5
    assert ref.renyi((1, 1, 1, 0, 1), 2.0) == pytest.approx(0.0, abs=1e-14)
    assert ref.renyi((1, 1, 1, 0, 1), 0.5) == pytest.approx(0.0, abs=1e-14)


# -- spans and the benchmark's declared metrics ---------------------------


def test_self_time_subtracts_wrapped_children():
    tracer = spans.Tracer(None)
    tracer.spans = [
        ["core.cdf", 0.0, 10.0, -1],
        ["specfun.reg_inc_beta", 1.0, 3.0, 0],
        ["specfun.reg_inc_beta", 4.0, 5.0, 0],
        ["core.pdf", 11.0, 12.0, -1],
    ]
    tracer.rounds = [(0, 4, {})]
    table = tracer.table(0.5)
    assert table["core.cdf.s"]["value"] == 10.0
    assert table["core.cdf.self_s"]["value"] == 7.0
    assert table["specfun.reg_inc_beta.s"]["value"] == 3.0
    assert table["specfun.reg_inc_beta.calls"]["value"] == 2
    assert table["core.pdf.self_s"]["value"] == 1.0
    assert table["trace.overhead_s"]["value"] == 0.5
    assert table["trace.spans"]["value"] == 4


def test_wrappers_see_calls_made_inside_the_program(gkw):
    tracer = spans.Tracer(gkw)
    tracer.install()
    tracer.begin_round()
    try:
        gkw.core.quantile(gkw.core.Params(2, 3, 1.5, 0.5, 2), 0.5)
    finally:
        tracer.end_round()
        tracer.uninstall()
    names = [s[0] for s in tracer.spans]
    assert names[0] == "core.quantile" and "specfun.inv_reg_inc_beta" in names
    assert gkw.core.quantile.__name__ == "quantile" and not hasattr(gkw.core.quantile, "__wrapped__")


def test_benchmark_json_declares_every_printed_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.per_layer_metrics()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
