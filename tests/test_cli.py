"""Tests for the command-line interface.

Each verb is run in-process through ``main(argv)`` with captured
streams, checking outputs against the library itself and the exit-code
contract (0 ok, 2 input/contract, 3 I/O, 4 numerical).  One subprocess
test covers the ``python -m gkw.cli`` entry point.
"""

import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gkw import __version__, cli, core, estim, series
from gkw.cli import main
from gkw.core import Params
from gkw.estim import Dataset

from gridpoints import BATHTUB, EKW, GRID12, KWKW, WORKHORSE


DATA_DIR = pathlib.Path(__file__).parent / "data"


def run_cli(*argv):
    """Invoke main() with captured stdout/stderr; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_csv(path, values, header="x"):
    lines = ([header] if header else []) + [repr(float(v)) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture()
def kw_csv(tmp_path):
    """600 draws from Kw(2,3), written like `gkw sample` output."""
    x = core.sample(Params(2.0, 3.0, 1.0, 0.0, 1.0), 600, seed=42)
    return write_csv(tmp_path / "kw.csv", x)


class TestEval:
    def test_uniform_pdf_is_one(self):
        code, out, _ = run_cli("eval", "--theta", "1,1,1,0,1", "--at", "0.3", "--what", "pdf")
        assert code == 0
        x, v = out.split()
        assert float(x) == 0.3
        assert float(v) == 1.0

    def test_kw22_cdf_value(self):
        code, out, _ = run_cli("eval", "--theta", "2,2,1,0,1", "--at", "0.5", "--what", "cdf")
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(0.4375, abs=1e-12)

    def test_quantile_round_trips_through_cdf(self):
        theta = "2,3,1.5,0.5,2"
        code, out, _ = run_cli("eval", "--theta", theta, "--at", "0.5", "--what", "quantile")
        assert code == 0
        med = float(out.split()[1])
        assert core.cdf(Params(2, 3, 1.5, 0.5, 2), med) == pytest.approx(0.5, abs=1e-9)

    def test_one_row_per_point_in_order(self):
        code, out, _ = run_cli("eval", "--theta", "2,2,1,0,1", "--at", "0.1,0.5,0.9")
        assert code == 0
        rows = out.strip().splitlines()
        assert [float(r.split("\t")[0]) for r in rows] == [0.1, 0.5, 0.9]
        for r in rows:
            x, v = (float(c) for c in r.split("\t"))
            assert v == pytest.approx(core.pdf(Params(2, 2, 1, 0, 1), x), rel=1e-11)

    def test_cdf_accepts_closed_endpoints(self):
        code, out, _ = run_cli("eval", "--theta", "2,2,1,0,1", "--at", "0,1", "--what", "cdf")
        assert code == 0
        vals = [float(r.split("\t")[1]) for r in out.strip().splitlines()]
        assert vals == [0.0, 1.0]

    @pytest.mark.parametrize("what,point", [("pdf", "0"), ("pdf", "1.5"), ("cdf", "-0.1"), ("quantile", "1.2")])
    def test_point_outside_domain_is_exit_2(self, what, point):
        code, _, err = run_cli("eval", "--theta", "2,2,1,0,1", "--at", point, "--what", what)
        assert code == 2
        assert "outside" in err

    def test_bad_theta_is_exit_2(self):
        for bad in ("1,2,3", "1,2,3,4,x", "-1,2,1,0,1"):
            code, _, err = run_cli("eval", "--theta", bad, "--at", "0.5")
            assert code == 2
            assert "--theta" in err


class TestSample:
    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            code, _, _ = run_cli("sample", "--theta", "2,3,1,0,1", "--n", "50",
                                 "--seed", "9", "--out", str(p), "--quiet")
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_rowcount_and_range(self, tmp_path):
        p = tmp_path / "s.csv"
        run_cli("sample", "--theta", "0.5,2,1.5,1,0.8", "--n", "200", "--seed", "3",
                "--out", str(p), "--quiet")
        lines = p.read_text().splitlines()
        assert lines[0] == "x"
        vals = [float(s) for s in lines[1:]]
        assert len(vals) == 200
        assert all(0.0 < v < 1.0 for v in vals)

    def test_uniform_mean_near_half(self, tmp_path):
        p = tmp_path / "u.csv"
        run_cli("sample", "--theta", "1,1,1,0,1", "--n", "100000", "--seed", "5",
                "--out", str(p), "--quiet")
        vals = np.loadtxt(p, skiprows=1)
        assert abs(float(np.mean(vals)) - 0.5) < 0.005

    def test_nonpositive_n_is_exit_2(self, tmp_path):
        code, _, _ = run_cli("sample", "--theta", "1,1,1,0,1", "--n", "0",
                             "--out", str(tmp_path / "s.csv"))
        assert code == 2

    def test_unwritable_out_is_exit_3(self, tmp_path):
        code, _, _ = run_cli("sample", "--theta", "1,1,1,0,1", "--n", "3",
                             "--out", str(tmp_path / "no" / "dir" / "s.csv"))
        assert code == 3


class TestProps:
    def test_unsettled_values_are_flagged(self, monkeypatch):
        # a node cap that the quadrature cannot settle within: bathtub's
        # L-moments and mean deviations, which fall back to it, are flagged
        # and its series mean is not
        monkeypatch.setattr(core, "_EXPECT_MAX_NODES", 60)
        code, out, _ = run_cli("props", "--theta", "0.7,0.8,0.6,0,0.9", "--moments", "1",
                               "--lmoments", "--deviations")
        assert code == 0
        doc = json.loads(out)
        assert doc["mu1_method"] == "series" and "mu1_converged" not in doc
        for key in ("l1", "l2", "l3", "l4", "delta1", "delta2"):
            assert doc[f"{key}_converged"] is False, key
        assert "l1_method" not in doc

    def test_uniform_moments(self):
        code, out, _ = run_cli("props", "--theta", "1,1,1,0,1", "--moments", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["mu1"] == pytest.approx(0.5, abs=1e-12)
        assert doc["mu2"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert doc["mu1_method"] in ("exact", "series", "quadrature")

    def test_uniform_deviations(self):
        code, out, _ = run_cli("props", "--theta", "1,1,1,0,1", "--deviations")
        doc = json.loads(out)
        assert code == 0
        assert doc["delta1"] == pytest.approx(0.25, abs=1e-10)
        assert doc["delta2"] == pytest.approx(0.25, abs=1e-10)

    def test_lmoments_match_library(self):
        theta = Params(2.0, 3.0, 1.5, 0.5, 1.2)
        code, out, _ = run_cli("props", "--theta", "2,3,1.5,0.5,1.2", "--lmoments")
        doc = json.loads(out)
        lib = series.l_moments(theta, 4)
        for i in range(4):
            assert doc[f"l{i + 1}"] == pytest.approx(lib[i], rel=1e-12)

    def test_entropy_matches_library(self):
        theta = Params(2.0, 3.0, 1.5, 0.5, 1.2)
        code, out, _ = run_cli("props", "--theta", "2,3,1.5,0.5,1.2", "--entropy", "2")
        doc = json.loads(out)
        assert doc["renyi"] == pytest.approx(float(series.renyi_entropy(theta, 2.0)), rel=1e-12)

    def test_divergent_entropy_marker_exit_0(self):
        code, out, _ = run_cli("props", "--theta", "0.2,1,1,0,1", "--entropy", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["renyi"] == "divergent"
        assert "diverges" in doc["renyi_reason"]

    def test_nothing_requested_is_exit_2(self):
        code, _, err = run_cli("props", "--theta", "1,1,1,0,1")
        assert code == 2
        assert "at least one" in err

    def test_rho_one_is_exit_2(self):
        code, _, _ = run_cli("props", "--theta", "1,1,1,0,1", "--entropy", "1")
        assert code == 2

    def test_series_control_flags_accepted(self):
        code, out, _ = run_cli("props", "--theta", "2,3,1.5,0.5,1.2", "--moments", "1",
                               "--series-max-terms", "50", "--series-tol", "1e-8")
        assert code == 0
        assert "mu1" in json.loads(out)

    def test_bad_series_control_is_exit_2(self):
        code, _, _ = run_cli("props", "--theta", "1,1,1,0,1", "--moments", "1",
                             "--series-max-terms", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("eval", "--theta", "2,2,1,0,1", "--at", "0.5"),
        ("sample", "--theta", "2,2,1,0,1", "--n", "3", "--out", "d.csv"),
        ("fit", "--data", "d.csv", "--out", "r.json"),
        ("lr", "--report", "r.json", "--null", "kw", "--alt", "gkw"),
    ], ids=["eval", "sample", "fit", "lr"])
    def test_series_flags_belong_to_props_alone(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(*argv, "--series-tol", "1e-8")
        assert code == 2
        assert "unrecognized arguments: --series-tol 1e-8" in err

    # (2, 3, 1e4, 9999, 1): ln B(gamma, delta + 1) = -13,866, so no series
    # table exists in float64 and every value comes from quadrature; the
    # law is narrow (sd 0.002).  References: mpmath at 30 digits in the
    # Beta variable for the moments and mean deviations, SciPy quadrature
    # in u = F(x) (beta.ppf) for the L-moments, where two routes (order
    # statistics and probability-weighted moments) agree to 2e-16.  The
    # tolerance is what the inputs allow: quadrature to 1e-11 and the
    # incomplete beta to 1e-12 absolute.
    NARROW = {
        "mu1": 0.45420220423665483, "mu2": 0.20630388348776073,
        "delta1": 0.0016431744832405308, "delta2": 0.0016431744765898866,
        "l1": 0.45420220423665483, "l2": 0.0011618976952996185,
        "l3": 1.0215720597228639e-07, "l4": 0.00014244588422301918,
    }

    def test_narrow_law_without_series_tables(self):
        code, out, _ = run_cli("props", "--theta", "2,3,1e4,9999,1", "--moments", "2",
                               "--deviations", "--lmoments")
        assert code == 0
        doc = json.loads(out)
        for key, want in self.NARROW.items():
            assert doc[key] == pytest.approx(want, rel=0, abs=5e-13), key
        for key in ("mu1", "mu2", "delta1", "delta2"):
            assert doc[f"{key}_method"] == "quadrature"

    # Beta(400, 401) = (1, 1, 400, 400, 1) has ln B(gamma, delta + 1) in
    # range, but its omega weights and the Renyi series' front factor
    # overflow float64; at (2, 3, 1e4, 9999, 1) no table exists.  Every
    # value then comes from quadrature, with no warning on the way.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta", ["1,1,400,400,1", "2,3,1e4,9999,1"])
    def test_laws_whose_tables_overflow_take_quadrature(self, theta):
        code, out, err = run_cli("props", "--theta", theta, "--moments", "2", "--lmoments",
                                 "--deviations", "--entropy", "2")
        assert code == 0, err
        doc = json.loads(out)
        for key in ("mu1", "mu2", "renyi", "delta1", "delta2"):
            assert doc[f"{key}_method"] == "quadrature"


class TestFit:
    def test_recovers_kw_and_orders_logliks(self, kw_csv, tmp_path):
        rep = tmp_path / "rep.json"
        code, _, _ = run_cli("fit", "--data", kw_csv, "--models", "kw,ekw,gkw",
                             "--out", str(rep), "--quiet")
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["schema"] == "gkw-report/1"
        by_name = {m["name"]: m for m in doc["models"]}
        kw = by_name["Kw"]
        assert kw["converged"]
        for name, true in (("alpha", 2.0), ("beta", 3.0)):
            assert abs(kw["theta"][name] - true) <= 3.0 * kw["se"][name]
        assert by_name["GKw"]["loglik"] >= kw["loglik"] - 1e-9
        assert by_name["EKw"]["loglik"] >= kw["loglik"] - 1e-9

    def test_reported_loglik_reproducible(self, kw_csv, tmp_path):
        rep = tmp_path / "rep.json"
        run_cli("fit", "--data", kw_csv, "--models", "kw,beta", "--out", str(rep), "--quiet")
        doc = json.loads(rep.read_text())
        data = Dataset(np.loadtxt(kw_csv, skiprows=1))
        for m in doc["models"]:
            theta = Params(*[m["theta"][nm] for nm in ("alpha", "beta", "gamma", "delta", "lam")])
            assert estim.log_likelihood(theta, data) == pytest.approx(m["loglik"], abs=1e-6)

    def test_delta_on_wall_se_is_null(self, tmp_path):
        csv = write_csv(tmp_path / "bkw.csv",
                        core.sample(Params(2, 4, 0.5, 1, 1), 2000, seed=915003))
        rep = tmp_path / "rep.json"
        code, _, _ = run_cli("fit", "--data", csv, "--models", "bkw", "--out", str(rep),
                             "--quiet")
        assert code == 0
        (bkw,) = json.loads(rep.read_text())["models"]
        assert bkw["theta"]["delta"] == 0.0 and "delta" in bkw["boundary"]
        assert bkw["se"]["delta"] is None
        assert all(bkw["se"][nm] > 0.0 for nm in ("alpha", "beta", "gamma"))

    def test_rerun_is_byte_identical(self, kw_csv, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            run_cli("fit", "--data", kw_csv, "--models", "kw,beta", "--seed", "4",
                    "--out", str(p), "--quiet")
        assert a.read_bytes() == b.read_bytes()

    def test_lr_table_lists_nested_pairs(self, kw_csv, tmp_path):
        rep = tmp_path / "rep.json"
        run_cli("fit", "--data", kw_csv, "--models", "gkw,kw,beta", "--out", str(rep), "--quiet")
        doc = json.loads(rep.read_text())
        pairs = {(t["null"], t["alt"]) for t in doc["lr_tests"]}
        assert pairs == {("Kw", "GKw"), ("Beta", "GKw")}
        for t in doc["lr_tests"]:
            assert t["w"] >= 0.0
            assert 0.0 <= t["p_value"] <= 1.0

    def test_plot_table_shape_and_content(self, kw_csv, tmp_path):
        rep, plot = tmp_path / "rep.json", tmp_path / "plot.tsv"
        run_cli("fit", "--data", kw_csv, "--models", "kw", "--out", str(rep),
                "--plot", str(plot), "--quiet")
        lines = plot.read_text().splitlines()
        assert lines[0].split("\t") == ["bin_left", "bin_right", "hist_density", "Kw"]
        assert len(lines) == 513
        rows = np.array([[float(c) for c in ln.split("\t")] for ln in lines[1:]])
        # histogram integrates to one; fitted column matches pdf at midpoints
        assert float(np.sum(rows[:, 2]) / 512.0) == pytest.approx(1.0, rel=1e-9)
        doc = json.loads(rep.read_text())
        theta = Params(*[doc["models"][0]["theta"][nm]
                         for nm in ("alpha", "beta", "gamma", "delta", "lam")])
        mid = 0.5 * (rows[100, 0] + rows[100, 1])
        assert rows[100, 3] == pytest.approx(core.pdf(theta, mid), rel=1e-9)

    def test_nonnumeric_cell_reports_line_number(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x\n0.5\nabc\n0.7\n")
        code, _, err = run_cli("fit", "--data", str(p), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "line 3" in err

    def test_multi_column_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("0.5\n0.6,0.7\n")
        code, _, err = run_cli("fit", "--data", str(p), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "line 2" in err

    def test_empty_file_is_exit_2(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        code, _, _ = run_cli("fit", "--data", str(p), "--out", str(tmp_path / "r.json"))
        assert code == 2

    def test_out_of_range_lists_lines_and_shrink_fixes(self, tmp_path):
        p = tmp_path / "d.csv"
        vals = list(np.linspace(0.1, 0.9, 30))
        p.write_text("x\n" + "\n".join(["0.0"] + [str(v) for v in vals] + ["1.0"]) + "\n")
        rep = tmp_path / "r.json"
        code, _, err = run_cli("fit", "--data", str(p), "--models", "kw", "--out", str(rep))
        assert code == 2
        assert "line(s) 2, 33" in err
        code, _, err = run_cli("fit", "--data", str(p), "--models", "kw", "--out", str(rep),
                               "--shrink")
        assert code == 0
        assert "shrink" in err
        doc = json.loads(rep.read_text())
        assert doc["data"]["preprocessing"] == ["shrink"]
        n = 32
        assert doc["data"]["min"] == pytest.approx(0.5 / n)
        assert doc["data"]["max"] == pytest.approx((n - 0.5) / n)

    def test_percent_flag_divides(self, tmp_path):
        p = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        p.write_text("\n".join(str(v) for v in rng.uniform(10, 90, 40)) + "\n")
        rep = tmp_path / "r.json"
        code, _, _ = run_cli("fit", "--data", str(p), "--models", "kw", "--percent",
                             "--out", str(rep), "--quiet")
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["data"]["preprocessing"] == ["percent"]
        assert 0.0 < doc["data"]["min"] < doc["data"]["max"] < 1.0

    def test_crlf_comments_and_headerless(self, tmp_path):
        p = tmp_path / "d.csv"
        body = "# simulated\r\n" + "\r\n".join(str(v) for v in np.linspace(0.2, 0.8, 25)) + "\r\n"
        p.write_bytes(body.encode())
        rep = tmp_path / "r.json"
        code, _, _ = run_cli("fit", "--data", str(p), "--models", "kw", "--out", str(rep),
                             "--quiet")
        assert code == 0
        assert json.loads(rep.read_text())["data"]["n"] == 25

    def test_model_alias_kkw_dedupes(self, kw_csv, tmp_path):
        rep = tmp_path / "r.json"
        code, _, _ = run_cli("fit", "--data", kw_csv, "--models", "kkw,kwkw", "--out", str(rep),
                             "--quiet")
        assert code == 0
        assert [m["name"] for m in json.loads(rep.read_text())["models"]] == ["KwKw"]

    def test_unknown_model_is_exit_2(self, kw_csv, tmp_path):
        code, _, err = run_cli("fit", "--data", kw_csv, "--models", "kw,nope",
                               "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "nope" in err

    def test_missing_data_file_is_exit_3(self, tmp_path):
        code, _, _ = run_cli("fit", "--data", str(tmp_path / "absent.csv"),
                             "--out", str(tmp_path / "r.json"))
        assert code == 3

    def test_degenerate_data_is_exit_4(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x\n" + "0.5\n" * 20)
        code, _, err = run_cli("fit", "--data", str(p), "--models", "kw",
                               "--out", str(tmp_path / "r.json"))
        assert code == 4
        assert "identical" in err


class TestLr:
    @pytest.fixture()
    def report(self, kw_csv, tmp_path):
        rep = tmp_path / "rep.json"
        run_cli("fit", "--data", kw_csv, "--models", "gkw,bkw,kw,beta",
                "--out", str(rep), "--quiet")
        return str(rep)

    def test_identical_models(self, report):
        code, out, _ = run_cli("lr", "--report", report, "--null", "kw", "--alt", "kw")
        assert code == 0
        doc = json.loads(out)
        assert (doc["w"], doc["df"], doc["p_value"]) == (0.0, 0, 1.0)

    def test_beta_vs_gkw_df3(self, report):
        code, out, _ = run_cli("lr", "--report", report, "--null", "beta", "--alt", "gkw")
        assert code == 0
        doc = json.loads(out)
        assert doc["df"] == 3
        rep = json.loads(open(report).read())
        ll = {m["name"]: m["loglik"] for m in rep["models"]}
        assert doc["w"] == pytest.approx(max(0.0, 2.0 * (ll["GKw"] - ll["Beta"])), abs=1e-12)
        assert 0.0 <= doc["p_value"] <= 1.0

    def test_bkw_vs_gkw_df1(self, report):
        code, out, _ = run_cli("lr", "--report", report, "--null", "bkw", "--alt", "gkw")
        assert code == 0
        assert json.loads(out)["df"] == 1

    def test_non_nested_pair_is_exit_2(self, report):
        code, _, err = run_cli("lr", "--report", report, "--null", "gkw", "--alt", "kw")
        assert code == 2
        assert "nested" in err

    def test_model_missing_from_report_is_exit_2(self, report):
        code, _, err = run_cli("lr", "--report", report, "--null", "mc", "--alt", "gkw")
        assert code == 2
        assert "not present" in err

    def test_malformed_report_is_exit_2(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text("{not json")
        code, _, _ = run_cli("lr", "--report", str(p), "--null", "kw", "--alt", "gkw")
        assert code == 2

    def test_missing_report_is_exit_3(self, tmp_path):
        code, _, _ = run_cli("lr", "--report", str(tmp_path / "none.json"),
                             "--null", "kw", "--alt", "gkw")
        assert code == 3


class TestPlumbing:
    def test_help_exits_zero(self):
        code, out, _ = run_cli("--help")
        assert code == 0
        for verb in ("eval", "sample", "props", "fit", "lr"):
            assert verb in out

    def test_missing_verb_is_exit_2(self):
        code, _, _ = run_cli()
        assert code == 2

    def test_unknown_verb_is_exit_2(self):
        code, _, _ = run_cli("frobnicate")
        assert code == 2

    def test_parser_is_built_once_and_reused(self):
        # the second call reuses the first call's parser: errors and
        # --version behave as on a fresh one
        assert run_cli("eval", "--theta", "1,1,1,0,1", "--at", "0.5")[0] == 0
        code, out, err = run_cli("props", "--theta", "1,1,1,0,1", "--no-such-flag")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --no-such-flag" in err
        assert err.startswith("usage: gkw")
        code, out, _ = run_cli("--version")
        assert code == 0 and out == f"gkw {__version__}\n"
        assert cli._build_parser() is cli._build_parser()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gkw.cli", "eval", "--theta", "1,1,1,0,1",
             "--at", "0.25", "--what", "cdf"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert float(proc.stdout.split()[1]) == pytest.approx(0.25, abs=1e-12)


class TestNumericalFailure:
    # exit 4 with a one-line message, not a traceback, for each way the
    # numerics can give up: an iteration that does not converge, a
    # division by an underflowed zero, and a float overflow
    @pytest.mark.parametrize("argv", [
        ("sample", "--theta", "2,3,0.001,4,1", "--n", "100", "--seed", "1"),
        ("eval", "--theta", "1,1,0.01,0,1", "--what", "quantile",
         "--at", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"),
    ], ids=["sample", "eval-quantile"])
    def test_nonconvergence_is_exit_4(self, argv, tmp_path):
        if argv[0] == "sample":
            argv = (*argv, "--out", str(tmp_path / "d.csv"))
        code, _, err = run_cli(*argv)
        assert code == 4
        assert err.startswith(f"gkw {argv[0]}: numerical failure: ")

    def test_sampler_overflow_is_exit_4_with_warnings_as_errors(self, tmp_path):
        # the F2 law: the Newton density overflows before the iteration
        # gives up, and that overflow must not escape as a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli("sample", "--theta", "2,3,0.001,4,1", "--n", "100",
                                   "--seed", "1", "--out", str(tmp_path / "d.csv"))
        assert code == 4
        assert err.startswith("gkw sample: numerical failure: ")

    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    def test_arithmetic_error_is_exit_4(self, error, monkeypatch):
        def fail(*args):
            raise error("float trouble")

        # `gkw props` runs the moments sweep on its shared tables
        monkeypatch.setattr(series, "_moments", fail)
        code, _, err = run_cli("props", "--theta", "2,3,1.5,0.5,2", "--moments", "2")
        assert code == 4
        assert err == "gkw props: numerical failure: float trouble\n"


class TestGoldenReports:
    # Reports of `gkw fit` with the default models and no --seed, frozen
    # from a version that fitted Mc and BP separately and ran every
    # start, duplicates included.  The data are 300 draws from
    # GKw(2, 3, 1.5, 0.5, 2) (seed 3001) and Mc(1, 1, 1, 4, 2) (seed 3002).
    @pytest.mark.parametrize("name", ["workhorse-300", "mc-300"])
    def test_default_fit_report_is_byte_identical(self, name, tmp_path, monkeypatch):
        monkeypatch.chdir(DATA_DIR)
        out = tmp_path / "report.json"
        code, _, _ = run_cli("fit", "--data", f"{name}.csv", "--out", str(out), "--quiet")
        assert code == 0
        assert out.read_bytes() == (DATA_DIR / f"{name}.json").read_bytes()

    # `gkw props` output frozen from a version in which every moment and
    # every order-statistic moment built its own tables (workhorse, kwkw,
    # bathtub), and the rest of the test grid frozen from the version just
    # before one per-call table object decided and built them all.  The
    # shapes take every route: the general- and integer-delta moment
    # sweeps, the finite double sum, v-table and quadrature L-moments and
    # mean deviations, and the series and quadrature entropy.  With
    # --series-max-terms 7 the sweeps and the v-table sums fall back to
    # quadrature (workhorse: general delta; bathtub: integer delta).  The
    # -entropy2 reports hold the Renyi entropy at rho = 2 alone, for the
    # two laws whose rho (gamma lambda - 1) equals lambda (kwkw, ekw).
    @pytest.mark.parametrize("name, theta", [
        (name, ",".join(f"{v:g}" for v in theta.as_tuple()))
        for name, theta in GRID12 + [("workhorse-t7", WORKHORSE), ("bathtub-t7", BATHTUB),
                                     ("kwkw-entropy2", KWKW), ("ekw-entropy2", EKW)]
    ])
    def test_props_output_is_byte_identical(self, name, theta):
        if name.endswith("-entropy2"):
            args = ("--entropy", "2")
        else:
            args = ("--moments", "4", "--lmoments", "--entropy", "0.5", "--deviations")
        if name.endswith("-t7"):
            args += ("--series-max-terms", "7")
        code, out, _ = run_cli("props", "--theta", theta, *args, "--quiet")
        assert code == 0
        assert out == (DATA_DIR / f"props-{name}.json").read_text()
