"""Command-line behavior: exit codes, config merging, report files."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import breglab
from breglab import (
    DiscreteModel,
    negative_log,
    resolve_estimator,
    verify_decompositions,
    verify_rb_inequality,
)
from breglab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDivergenceCommand:
    def test_value_and_transport(self, capsys):
        code, out, _ = run(capsys, "divergence", "--gen", "sqeuclid", "--x", "1", "--y", "0")
        assert code == 0
        assert "bregman_divergence = 0.5" in out
        assert "dual_transport = 0.5" in out

    def test_vector_points(self, capsys):
        code, out, _ = run(
            capsys, "divergence", "--gen", "sqeuclid", "--x", "1,2", "--y", "0,0"
        )
        assert code == 0
        assert "bregman_divergence = 2.5" in out

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "divergence", "--gen", "neglog", "--x", "2", "--y", "-1")
        assert code == 2
        assert "y[0] = -1.0" in err

    def test_unknown_generator_exit_2(self, capsys):
        code, _, err = run(capsys, "divergence", "--gen", "nope", "--x", "1", "--y", "2")
        assert code == 2 and "error:" in err

    def test_mismatched_points_exit_2(self, capsys):
        code, _, _ = run(capsys, "divergence", "--gen", "sqeuclid", "--x", "1,2", "--y", "0")
        assert code == 2

    def test_missing_required_exit_2(self, capsys):
        code, _, _ = run(capsys, "divergence", "--gen", "sqeuclid", "--x", "1")
        assert code == 2

    def test_bad_subcommand_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_matrix_file(self, capsys, tmp_path):
        mat = tmp_path / "spd.mat"
        mat.write_text("2\n2.0 0.5\n0.5 1.0\n")
        code, out, _ = run(
            capsys, "divergence", "--gen", f"mahalanobis:{mat}", "--x", "1,0", "--y", "0,0"
        )
        assert code == 0
        assert "bregman_divergence = 1.0" in out


class TestRiskCommand:
    ARGS = (
        "risk", "--model", "exp", "--gen", "neglog", "--estimator", "type1",
        "--theta", "2.0", "--n", "5", "-M", "2000", "--seed", "7",
    )

    def test_runs_and_reports(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        assert "risk = " in out and "bias = " in out

    def test_out_file_json(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, _, _ = run(capsys, *self.ARGS, "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["version"]
        assert doc["config"]["theta"] == 2.0
        (report,) = doc["reports"]
        assert report["estimator_id"] == "type1"
        assert report["replicates"] == 2000

    def test_out_header_version_is_package_version(self, capsys, tmp_path):
        jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
        run(capsys, *self.ARGS, "--out", str(jpath))
        run(capsys, *self.ARGS, "--format", "csv", "--out", str(cpath))
        assert json.loads(jpath.read_text())["version"] == breglab.__version__
        header = json.loads(cpath.read_text().splitlines()[0][2:])
        assert header["version"] == breglab.__version__

    def test_out_file_reruns_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, *self.ARGS, "--out", str(a))
        run(capsys, *self.ARGS, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_out_file_csv(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        code, _, _ = run(capsys, *self.ARGS, "--format", "csv", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        json.loads(lines[0][2:])  # header comment is the config record
        rows = list(csv.DictReader(lines[1:]))
        assert len(rows) == 1 and rows[0]["estimator_id"] == "type1"

    def test_replicates_floor_exit_2(self, capsys):
        code, _, err = run(
            capsys, "risk", "--model", "exp", "--gen", "neglog", "--estimator", "classical",
            "--theta", "2.0", "--n", "5", "-M", "10",
        )
        assert code == 2 and "1000" in err

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run(capsys, *self.ARGS, "--workers", workers)
        assert code == 2 and "workers" in err
        assert "config:" not in out


def test_workers_below_one_rejected_on_every_subcommand(capsys):
    code, _, err = run(
        capsys, "divergence", "--gen", "sqeuclid", "--x", "1", "--y", "0", "--workers", "0"
    )
    assert code == 2 and "workers" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is most of the import time and resident floor the package
    # would otherwise carry; nothing on the CLI path may pull it in
    src = os.path.dirname(os.path.dirname(os.path.abspath(breglab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, breglab.cli; sys.exit(3 if 'scipy.stats' in sys.modules else 0)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0


_PROBE = """
import json, sys


def loaded():
    return sorted(m for m in sys.modules if m.startswith({prefixes!r}))


import breglab
imported = loaded()
from breglab.cli import main

before = loaded()
result = {call}
print(json.dumps([result, before, loaded()]))
"""


def fresh(call: str, prefixes=("scipy",)):
    """(value, modules after the import, modules at the end) of call in a new interpreter.

    call is a Python expression; the probe has imported breglab and
    breglab.cli.main before it runs, and ``imported`` holds the modules that
    ``import breglab`` alone loaded.  Only modules whose names start with one
    of prefixes are reported.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(breglab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(call=call, prefixes=tuple(prefixes))],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    value, before, after = json.loads(proc.stdout.splitlines()[-1])
    return value, set(before), set(after)


class TestStartUpFootprint:
    """Start-up loads only what the command runs: numpy and the package's own modules."""

    PREFIXES = ("numpy", "breglab")
    CLI = {"breglab", "breglab.cli", "breglab.errors"}

    def test_import_breglab_loads_only_the_package(self):
        imported, before, _ = fresh("imported", self.PREFIXES)
        assert imported == ["breglab"]
        assert before == self.CLI

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["risk", "--model", "exp"],
        ["risk", "--orientation", "up"],
        ["oracle", "--n", "2", "--gen", "sqeuclid", "--estimator", "mean", "--theta", "1",
         "--workers", "0"],
        ["divergence", "--gen", "sqeuclid", "--x", "-1e-3", "--y", "-1,-2", "-q"],
    ], ids=["help", "missing-option", "bad-choice", "option-table-value", "negative-values"])
    def test_help_and_usage_errors_load_no_numpy(self, argv):
        code, _, after = fresh(f"main({argv!r})", self.PREFIXES)
        assert code == (0 if argv == ["--help"] else 2)
        assert after == self.CLI

    ORACLE = ["oracle", "--m", "3", "--n", "3", "--gen", "negentropy", "--estimator", "first-k:1",
              "--theta", "0.5,1.0"]
    RISK = ["risk", "--model", "exp", "--gen", "neglog", "--estimator", "classical",
            "--theta", "2.0", "--n", "3", "-M", "2000"]

    @pytest.mark.parametrize("argv, out, unloaded", [
        (["divergence", "--gen", "neglog", "--x", "2", "--y", "1"], False,
         {"risk_lab", "models", "estimators", "discrete_oracle", "reporting"}),
        (ORACLE, True, {"risk_lab", "models"}),
        ([*ORACLE, "--format", "csv"], True, {"risk_lab", "models"}),
        (RISK, True, {"discrete_oracle"}),
    ], ids=["divergence", "oracle-out", "oracle-out-csv", "risk-out"])
    def test_commands_load_only_their_modules(self, tmp_path, argv, out, unloaded):
        argv = [*argv, "--out", str(tmp_path / "out")] if out else argv
        code, _, after = fresh(f"main({argv!r})", self.PREFIXES)
        assert code == 0 and "numpy" in after
        assert ("breglab.reporting" in after) == out
        assert not {f"breglab.{m}" for m in unloaded} & after


class TestImportFootprint:
    """Which commands load scipy at all: only normal and lognormal draws need it."""

    RISK = ("--estimator", "classical", "--theta", "2.0", "--n", "3", "-M", "2000")

    def test_import_and_help_load_no_scipy(self):
        code, before, after = fresh("main(['--help'])")
        assert code == 0
        assert before == set() and after == set()

    @pytest.mark.parametrize("argv", [
        ["divergence", "--gen", "neglog", "--x", "2", "--y", "1"],
        ["divergence", "--gen", "mahalanobis:{mat2}", "--x", "1,0", "--y", "0,0"],
        ["risk", "--model", "exp", "--gen", "neglog", *RISK],
        ["oracle", "--m", "3", "--n", "3", "--gen", "negentropy", "--estimator", "first-k:1",
         "--theta", "0.5,1.0"],
        ["oracle", "--m", "3", "--n", "2", "--gen", "mahalanobis:{mat1}", "--estimator", "mean",
         "--theta", "1"],
    ], ids=["divergence", "divergence-mahalanobis", "risk-exp", "oracle", "oracle-mahalanobis"])
    def test_scipy_free_commands_load_no_scipy(self, tmp_path, argv):
        mats = {"mat1": tmp_path / "a1.mat", "mat2": tmp_path / "a2.mat"}
        mats["mat1"].write_text("1\n1.5\n")
        mats["mat2"].write_text("2\n2.0 0.5\n0.5 1.0\n")
        argv = [tok.format(**mats) for tok in argv]
        code, _, after = fresh(f"main({argv!r})")
        assert code == 0 and after == set()

    @pytest.mark.parametrize("model, gen", [("normal", "sqeuclid"), ("lognormal", "negentropy")])
    def test_gaussian_draws_load_scipy_special_only(self, model, gen):
        code, before, after = fresh(f"main({['risk', '--model', model, '--gen', gen, *self.RISK]!r})")
        assert code == 0
        assert "scipy.special" not in before and "scipy.special" in after
        assert "scipy.linalg" not in after

    def test_mahalanobis_loads_no_scipy(self):
        x, before, after = fresh("float(breglab.mahalanobis([[1.5]]).invert_gradient(3.0))")
        assert x == pytest.approx(2.0, rel=1e-15)
        assert before == set() and after == set()

    def test_first_draw_inside_worker_pool_is_worker_invariant(self, capsys, tmp_path):
        # the lognormal transform's first scipy.special import happens on the
        # pool's threads at once; the report must not depend on who won
        argv = ["risk", "--model", "lognormal", "--gen", "negentropy", "--estimator", "type1",
                "--theta", "2.0", "--n", "3", "-M", "200000", "--seed", "7"]
        pooled, ref = tmp_path / "w2.json", tmp_path / "w1.json"
        code, before, _ = fresh(f"main({[*argv, '--workers', '2', '--out', str(pooled)]!r})")
        assert code == 0 and "scipy.special" not in before
        code, _, _ = run(capsys, *argv, "--workers", "1", "--out", str(ref))
        assert code == 0
        assert pooled.read_bytes() == ref.read_bytes()


class TestConfigFiles:
    def test_config_file_supplies_missing_flags(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "model": "exp", "gen": "neglog", "estimator": "classical",
            "theta": 2.0, "n": 5, "replicates": 2000,
        }))
        code, out, _ = run(capsys, "risk", "--config", str(cfgfile))
        assert code == 0
        assert '"replicates": 2000' in out

    def test_flags_override_config_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "model": "exp", "gen": "neglog", "estimator": "classical",
            "theta": 2.0, "n": 5, "replicates": 2000, "seed": 1,
        }))
        code, out, _ = run(capsys, "risk", "--config", str(cfgfile), "--seed", "99")
        assert code == 0
        assert '"seed": 99' in out

    def test_malformed_config_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "risk", "--config", str(bad))
        assert code == 2
        code, _, _ = run(capsys, "risk", "--config", str(tmp_path / "missing.json"))
        assert code == 2


class TestNegativeValues:
    """A float option takes a negative value in any form, as a separate token or after '='."""

    def test_scientific_notation_theta(self, capsys):
        argv = ["risk", "--model", "normal", "--gen", "sqeuclid", "--estimator", "mean",
                "--n", "3", "-M", "1000"]
        code, out, _ = run(capsys, *argv, "--theta", "-1e-3")
        assert code == 0 and '"theta": -0.001' in out
        assert out == run(capsys, *argv, "--theta=-1e-3")[1]

    def test_list_with_negatives(self, capsys):
        argv = ["check", "--kind", "type2", "--model", "normal", "--estimator", "mean",
                "--n", "3", "-M", "1000"]
        code, out, _ = run(capsys, *argv, "--theta", "-0.5,-1")
        assert code == 0 and '"theta": "-0.5,-1"' in out and out.count("-> PASS") == 2
        assert out == run(capsys, *argv, "--theta=-0.5,-1")[1]

    def test_negative_point(self, capsys):
        code, out, _ = run(capsys, "divergence", "--gen", "sqeuclid", "--x", "-1e0,1",
                           "--y", "-1e2,1")
        assert code == 0 and "bregman_divergence = 4900.5" in out

    def test_huge_negative_point_is_parsed(self, capsys):
        # parsed as a value; the generator then overflows in phi(y)
        with np.errstate(over="ignore"):
            code, _, err = run(capsys, "divergence", "--gen", "sqeuclid", "--x", "1",
                               "--y", "-1e200")
        assert code == 1 and "numeric failure" in err

    def test_config_file_negative_list(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "kind": "type2", "model": "normal", "estimator": "mean", "theta": "-0.5,-1",
            "n": 3, "replicates": 1000,
        }))
        code, out, _ = run(capsys, "check", "--config", str(cfgfile))
        assert code == 0 and '"theta": "-0.5,-1"' in out and out.count("-> PASS") == 2

    @pytest.mark.parametrize("argv", [
        ["divergence", "--gen", "sqeuclid", "--x", "1", "--y", "2", "-q"],
        ["divergence", "--gen", "sqeuclid", "--x", "-q", "--y", "2"],
        ["divergence", "--gen", "sqeuclid", "--x", "1", "--y", "-1,-"],
    ], ids=["unknown-option", "option-as-value", "not-a-float-list"])
    def test_other_dash_tokens_stay_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "usage:" in err


class TestCheckCommand:
    def test_type1_pass(self, capsys):
        code, out, _ = run(
            capsys, "check", "--kind", "type1", "--model", "exp", "--gen", "neglog",
            "--estimator", "type1", "--theta", "2.0", "--n", "5", "-M", "20000", "--seed", "7",
        )
        assert code == 0 and "-> PASS" in out

    def test_type2_classical_passes_on_grid(self, capsys):
        code, out, _ = run(
            capsys, "check", "--kind", "type2", "--model", "exp",
            "--estimator", "classical", "--theta", "1.0,2.0", "--n", "5", "-M", "20000",
        )
        assert code == 0 and out.count("-> PASS") == 2

    def test_lehmann(self, capsys):
        code, out, _ = run(
            capsys, "check", "--kind", "lehmann", "--model", "exp", "--gen", "neglog",
            "--estimator", "type1", "--theta", "2.0", "--grid", "1.0,1.5,2.0,2.5,3.0",
            "--n", "5", "-M", "20000", "--seed", "7",
        )
        assert code == 0 and "argmin at theta" in out

    def test_lehmann_requires_grid(self, capsys):
        code, _, _ = run(
            capsys, "check", "--kind", "lehmann", "--model", "exp", "--gen", "neglog",
            "--estimator", "type1", "--theta", "2.0", "--n", "5", "-M", "2000",
        )
        assert code == 2

    def test_type1_requires_generator(self, capsys):
        code, _, _ = run(
            capsys, "check", "--kind", "type1", "--model", "exp",
            "--estimator", "classical", "--theta", "2.0", "--n", "5", "-M", "2000",
        )
        assert code == 2

    # the mean of two normal draws at theta = 0.3 is negative a third of the
    # time, outside neglog's domain: far more than the 0.1 percent drop budget
    INVALID = ("--model", "normal", "--gen", "neglog", "--estimator", "classical",
               "--theta", "0.3", "--n", "2", "-M", "2000")

    @pytest.mark.parametrize("kind", [("--kind", "type1"), ("--kind", "lehmann", "--grid", "0.3,0.5")],
                             ids=["type1", "lehmann"])
    def test_invalid_report_exit_1_after_out(self, capsys, tmp_path, kind):
        path = tmp_path / "chk.json"
        code, out, err = run(capsys, "check", *kind, *self.INVALID, "--out", str(path))
        assert code == 1 and "report INVALID" in err
        (report,) = json.loads(path.read_text())["reports"]
        assert report["valid"] is False and report["dropped"] > 2
        # stdout gives no verdict on an invalid report
        if kind[1] == "lehmann":
            assert "(INVALID)" in out and "argmin at" not in out and "argmin off" not in out
        else:
            assert "-> INVALID" in out and "PASS" not in out and "FAIL" not in out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_zero_se_writes_strict_json(self, capsys, tmp_path, fmt):
        # a constant estimate has se 0, so its z is -inf: JSON has no token for that
        path = tmp_path / f"c.{fmt}"
        code, out, _ = run(
            capsys, "check", "--kind", "type2", "--model", "exp", "--estimator", "const:1",
            "--theta", "2", "--n", "3", "-M", "2000", "--format", fmt, "--out", str(path),
        )
        assert code == 0 and "z = -inf -> FAIL" in out

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        if fmt == "json":
            (report,) = json.loads(path.read_text(), parse_constant=refuse)["reports"]
            assert report["se"] == 0.0 and report["z"] == "-inf"
        else:
            header, *lines = path.read_text().splitlines()
            json.loads(header[2:], parse_constant=refuse)
            (row,) = csv.DictReader(lines)
            assert row["se"] == "0.0" and row["z"] == "-inf"


def test_non_finite_floats_render_as_csv_tokens():
    from breglab.reporting import render, render_json

    report = {"a": float("inf"), "b": -np.inf, "c": np.float32("nan"), "d": [np.float64(-np.inf)]}
    (rec,) = json.loads(render([report], "json"))["reports"]
    assert rec == {"a": "inf", "b": "-inf", "c": "nan", "d": ["-inf"]}
    # a non-finite value that bypasses the report flattening is refused, not written
    with pytest.raises(ValueError):
        render_json([], {"theta": float("inf")})


class TestCompareCommand:
    def test_paired_comparison(self, capsys, tmp_path):
        path = tmp_path / "cmp.json"
        code, out, _ = run(
            capsys, "compare", "--model", "exp", "--gen", "neglog", "--e1", "type1",
            "--e2", "first-k:3", "--theta", "2.0", "--n", "5", "-M", "20000",
            "--seed", "7", "--out", str(path),
        )
        assert code == 0
        (report,) = json.loads(path.read_text())["reports"]
        assert report["risk_diff"] < 0.0

    def test_invalid_report_exit_1_after_out(self, capsys, tmp_path):
        path = tmp_path / "cmp.json"
        code, _, err = run(
            capsys, "compare", "--model", "normal", "--gen", "neglog", "--e1", "classical",
            "--e2", "first-k:1", "--theta", "0.3", "--n", "2", "-M", "2000", "--out", str(path),
        )
        assert code == 1 and "report INVALID" in err
        (report,) = json.loads(path.read_text())["reports"]
        assert report["valid"] is False and report["dropped"] > 2

    def test_same_spec_in_both_arms_ties_exactly(self, capsys, tmp_path):
        path = tmp_path / "cmp.json"
        code, _, _ = run(
            capsys, "compare", "--model", "exp", "--gen", "neglog", "--e1", "type1",
            "--e2", "type1", "--theta", "2", "--n", "5", "-M", "2000", "--out", str(path),
        )
        assert code == 0
        (report,) = json.loads(path.read_text())["reports"]
        assert report["risk_diff"] == 0.0 and report["se_diff"] == 0.0

    def test_constants_equal_to_six_digits_keep_distinct_ids(self, capsys, tmp_path):
        path = tmp_path / "cmp.json"
        code, _, err = run(
            capsys, "compare", "--model", "exp", "--gen", "neglog", "--e1", "const:0.1234567",
            "--e2", "const:0.1234568", "--theta", "2", "--n", "3", "-M", "2000",
            "--out", str(path),
        )
        assert code == 0, err
        (report,) = json.loads(path.read_text())["reports"]
        assert (report["estimator_id_1"], report["estimator_id_2"]) == (
            "const:0.1234567", "const:0.1234568",
        )
        assert report["risk_diff"] != 0.0


class TestOracleCommand:
    def test_pass_run(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--m", "3", "--n", "4", "--gen", "neglog",
            "--estimator", "first-k:1", "--theta", "0.5,1.0,2.0",
        )
        assert code == 0
        assert out.count("theta = ") == 3
        assert "PASS max_residual = " in out

    def test_out_rows_are_the_one_theta_checks(self, capsys, tmp_path):
        path = tmp_path / "o.json"
        grid = (0.5, 1.0, 2.0)
        code, _, _ = run(
            capsys, "oracle", "--m", "3", "--n", "4", "--gen", "neglog",
            "--estimator", "first-k:2", "--theta", ",".join(map(str, grid)), "--out", str(path),
        )
        assert code == 0
        dm, g = DiscreteModel((1.0, 2.0, 3.0), 4), negative_log(1)
        e = resolve_estimator("first-k:2", dm, g)
        rb = verify_rb_inequality(dm, g, e, grid)
        rows = json.loads(path.read_text())["reports"]
        assert len(rows) == len(grid)
        for row, rb_row, theta in zip(rows, rb.rows, grid):
            chk = verify_decompositions(dm, g, e, theta)
            assert (row["theta"], row["risk_estimator"], row["risk_rb"]) == (
                theta, rb_row.risk_estimator, rb_row.risk_rb
            )
            assert (row["residual_left"], row["residual_right"]) == (
                chk.residual_left, chk.residual_right
            )

    def test_explicit_support(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--support", "0.5,1.5,2.5", "--n", "3", "--gen", "sqeuclid",
            "--estimator", "mean", "--theta", "1.0",
        )
        assert code == 0 and "PASS" in out

    def test_large_n_within_outcome_budget(self, capsys):
        # 3^10 = 59049 outcomes: n alone no longer limits the exact oracle
        code, out, _ = run(
            capsys, "oracle", "--m", "3", "--n", "10", "--gen", "neglog",
            "--estimator", "first-k:1", "--theta", "0.5,1.0,2.0",
        )
        assert code == 0
        assert out.count("theta = ") == 3
        assert "PASS max_residual = " in out

    def test_budget_exit_2(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--m", "10", "--n", "8", "--gen", "neglog",
            "--estimator", "mean", "--theta", "1.0",
        )
        assert code == 2 and "budget" in err

    def test_needs_support_or_m(self, capsys):
        code, _, _ = run(
            capsys, "oracle", "--n", "3", "--gen", "neglog", "--estimator", "mean",
            "--theta", "1.0",
        )
        assert code == 2


class TestReproduceCommand:
    def test_exp_example_reduced(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--example", "exp", "-M", "20000", "--seed", "7")
        assert code == 0
        assert "UNEXPECTED" not in out
        assert out.count("PASS") >= 2 and out.count("FAIL") >= 2
        assert "improves by > 5 se" in out

    def test_lognormal_example_reduced(self, capsys):
        code, out, _ = run(
            capsys, "reproduce", "--example", "lognormal", "-M", "20000", "--seed", "7"
        )
        assert code == 0 and "UNEXPECTED" not in out

    def test_tiny_replicates_exit_2(self, capsys):
        code, _, _ = run(capsys, "reproduce", "--example", "exp", "-M", "100")
        assert code == 2

    def test_zero_replicates_exit_2(self, capsys):
        # -M 0 is a bad value, not a request for the example's default
        code, _, err = run(capsys, "reproduce", "--example", "exp", "-M", "0")
        assert code == 2 and "replicates" in err

    def test_bad_example_from_config_exit_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"example": "bogus"}))
        code, _, _ = run(capsys, "reproduce", "--config", str(cfgfile))
        assert code == 2


class TestDeterminismAcrossWorkers:
    def test_risk_out_file_worker_invariant(self, capsys, tmp_path):
        paths = []
        for i, workers in enumerate((1, 2, 8)):
            path = tmp_path / f"w{i}.json"
            code, _, _ = run(
                capsys, "risk", "--model", "lognormal", "--gen", "negentropy",
                "--estimator", "type1", "--theta", str(np.e), "--n", "10",
                "-M", "20000", "--seed", "7", "--workers", str(workers),
                "--out", str(path),
            )
            assert code == 0
            paths.append(path.read_bytes())
        assert paths[0] == paths[1] == paths[2]


RISK_FLAGS = {
    "model": "exp", "gen": "neglog", "estimator": "classical",
    "theta": 2.0, "n": 5, "replicates": 2000,
}


def run_config(capsys, tmp_path, command, values, *argv):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(values))
    return run(capsys, command, "--config", str(cfgfile), *argv)


class TestMalformedValues:
    """A malformed option value exits 2 naming the option, before anything runs."""

    def test_bad_float_flag(self, capsys):
        code, out, err = run(
            capsys, "risk", "--model", "exp", "--gen", "neglog", "--estimator", "classical",
            "--theta", "abc", "--n", "5", "-M", "2000",
        )
        assert code == 2 and "error:" in err and "--theta" in err
        assert "config:" not in out

    @pytest.mark.parametrize(
        "key, value",
        [("n", "five"), ("theta", [1, 2]), ("seed", 1.7), ("format", "xml"), ("workers", True)],
    )
    def test_bad_config_value(self, capsys, tmp_path, key, value):
        code, out, err = run_config(capsys, tmp_path, "risk", {**RISK_FLAGS, key: value})
        assert code == 2 and "error:" in err and f"--{key}" in err
        assert "config:" not in out

    def test_bad_grid_text_in_config(self, capsys, tmp_path):
        values = {
            "kind": "type2", "model": "exp", "estimator": "classical",
            "theta": [1, 2], "n": 5, "replicates": 2000,
        }
        code, out, err = run_config(capsys, tmp_path, "check", values)
        assert code == 2 and "--theta" in err
        assert "config:" not in out

    @pytest.mark.parametrize("argv", [
        ("oracle", "--m", "3", "--n", "2", "--gen", "neglog", "--estimator", "mean",
         "--theta", ""),
        ("check", "--kind", "type1", "--model", "exp", "--gen", "neglog", "--estimator",
         "type1", "--theta", ",", "--n", "5", "-M", "2000"),
    ], ids=["oracle", "check"])
    def test_empty_theta_grid_exit_2(self, capsys, argv):
        # the oracle crashed on an empty grid and check ran nothing and exited 0
        code, out, err = run(capsys, *argv)
        assert code == 2 and "--theta" in err
        assert "config:" not in out

    def test_integral_float_is_an_int(self, capsys, tmp_path):
        code, out, _ = run_config(capsys, tmp_path, "risk", {**RISK_FLAGS, "seed": 3.0})
        assert code == 0 and '"seed": 3' in out

    def test_unknown_config_key_exit_2(self, capsys, tmp_path):
        # a typo would otherwise run silently with the default seed
        code, out, err = run_config(capsys, tmp_path, "risk", {**RISK_FLAGS, "sead": 5})
        assert code == 2 and "sead" in err
        assert "config:" not in out

    def test_keys_of_other_subcommands_allowed(self, capsys, tmp_path):
        shared = {**RISK_FLAGS, "kind": "type2", "example": "exp", "m": 3, "e1": "type1"}
        code, out, _ = run_config(capsys, tmp_path, "risk", shared)
        assert code == 0 and "config:" in out
        assert '"kind"' not in out and '"example"' not in out


def test_oracle_first_k_beyond_n_exit_2(capsys):
    # the Monte Carlo commands reject it too; a mean of fewer than k values is not first-k
    code, _, err = run(
        capsys, "oracle", "--m", "3", "--n", "2", "--gen", "neglog", "--estimator", "first-k:3",
        "--theta", "1.0",
    )
    assert code == 2 and "needs n >= 3" in err


def test_oracle_m_zero_reports_the_empty_support(capsys):
    code, _, err = run(
        capsys, "oracle", "--m", "0", "--n", "3", "--gen", "neglog", "--estimator", "mean",
        "--theta", "1.0",
    )
    assert code == 2 and "support must be non-empty" in err


# Each subcommand once from flags only and once from a config file only.  Flag
# values are text; the config file gives the same values as JSON.
PARITY_RUNS = {
    "divergence": {"gen": "neglog", "x": "2", "y": "1"},
    "risk": RISK_FLAGS,
    "check": {
        "kind": "type1", "model": "exp", "gen": "neglog", "estimator": "type1",
        "theta": "1,2", "n": 5, "replicates": 2000, "seed": 3,
    },
    "compare": {
        "model": "exp", "gen": "neglog", "e1": "type1", "e2": "classical",
        "theta": 2.0, "n": 5, "replicates": 2000, "orientation": "right", "format": "csv",
    },
    "oracle": {
        "m": 3, "n": 3, "gen": "negentropy", "estimator": "first-k:2", "theta": "0.5,1",
        "workers": 2,
    },
    "reproduce": {"example": "exp", "replicates": 20000, "seed": 7},
}


@pytest.mark.parametrize("command", sorted(PARITY_RUNS))
def test_config_file_and_flags_echo_the_same_config(capsys, tmp_path, command):
    values = PARITY_RUNS[command]
    flags = []
    for key, value in values.items():
        flags += [f"--{key}", str(value)]
    code_flags, out_flags, _ = run(capsys, command, *flags)
    code_file, out_file, _ = run_config(capsys, tmp_path, command, values)
    assert code_flags == code_file == 0
    echoed = [line for line in out_flags.splitlines() if line.startswith("config:")]
    assert len(echoed) == 1
    assert echoed == [line for line in out_file.splitlines() if line.startswith("config:")]


def test_oracle_rejects_a_two_dimensional_generator(capsys, tmp_path):
    mat = tmp_path / "spd.mat"
    mat.write_text("2\n2.0 0.5\n0.5 1.0\n")
    code, out, err = run(
        capsys, "oracle", "--m", "3", "--n", "2", "--gen", f"mahalanobis:{mat}",
        "--estimator", "mean", "--theta", "1",
    )
    assert code == 2 and out == ""
    assert "has dimension 2" in err and "have 1" in err


def test_numeric_failure_exit_1_with_nothing_on_stdout(capsys):
    # a constant outside neglog's domain drops every replicate
    code, out, err = run(
        capsys, "risk", "--model", "exp", "--gen", "neglog", "--estimator", "const:-1",
        "--theta", "2", "--n", "3", "-M", "1000",
    )
    assert code == 1 and out == ""
    assert err.startswith("numeric failure: fewer than two replicates survived")


# Runs whose values overflow double precision: a chunk merge that overflows,
# and an se that overflows in a single chunk, where z would read 0 and PASS
OVERFLOWING_RUNS = {
    "merge-sqeuclid": ["risk", "--model", "exp", "--gen", "sqeuclid", "--estimator", "classical",
                       "--theta", "1e150", "--n", "5", "-M", "100000"],
    "merge-negentropy-right": ["risk", "--model", "exp", "--gen", "negentropy",
                               "--estimator", "classical", "--theta", "1e300", "--n", "5",
                               "-M", "100000", "--orientation", "right"],
    "type1-se": ["check", "--kind", "type1", "--model", "exp", "--gen", "neglog",
                 "--estimator", "mean", "--theta", "1,1e-300", "--n", "5", "-M", "60000"],
    "type1-merge": ["check", "--kind", "type1", "--model", "exp", "--gen", "neglog",
                    "--estimator", "mean", "--theta", "1,1e-300", "--n", "5", "-M", "100000"],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_RUNS))
def test_overflowing_statistics_are_a_numeric_failure(capsys, name):
    code, out, err = run(capsys, *OVERFLOWING_RUNS[name])
    assert code == 1 and out == ""
    assert err.startswith("numeric failure: mean ") and "is not finite" in err


def test_overflowing_kurtosis_is_a_numeric_failure(capsys, tmp_path):
    # losses near 1e99 keep a finite mean and se, but their fourth powers overflow
    out_file = tmp_path / "k.json"
    code, out, err = run(
        capsys, "risk", "--model", "normal:1e100", "--gen", "sqeuclid", "--estimator", "mean",
        "--theta", "0", "--n", "5", "-M", "1000", "--out", str(out_file),
    )
    assert code == 1 and out == "" and not out_file.exists()
    assert err.startswith("numeric failure: ") and "kurtosis" in err


@pytest.mark.parametrize("argv", [
    ["divergence", "--gen", "sqeuclid", "--x", "1", "--y", "-1e200"],
    # three chunks on two pool threads, each overflowing phi of its estimates
    ["risk", "--model", "exp", "--gen", "sqeuclid", "--estimator", "classical",
     "--theta", "1e200", "--n", "5", "-M", "140000", "--workers", "2"],
], ids=["divergence", "risk-workers-2"])
def test_numeric_failure_stderr_is_the_one_message(argv):
    # numpy's overflow warnings, and the source lines they quote, stay off stderr
    src = os.path.dirname(os.path.dirname(os.path.abspath(breglab.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "breglab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "numeric failure: value is not finite (overflow or invalid operand)\n"


# Usage errors, each with the text its message must contain.  Files named in
# an argument are written into the working directory first.
USAGE_ERRORS = {
    "config-list": (
        ["check", "--config", "list.json"], "config file must contain a JSON object",
    ),
    "lehmann-two-thetas": (
        ["check", "--kind", "lehmann", "--model", "normal", "--gen", "sqeuclid",
         "--estimator", "classical", "--theta", "1,2", "--grid", "1,2", "--n", "3", "-M", "1000"],
        "takes a single --theta",
    ),
    "mahalanobis-no-path": (
        ["divergence", "--gen", "mahalanobis:", "--x", "1", "--y", "2"],
        "needs a matrix file path",
    ),
    "matrix-empty": (
        ["divergence", "--gen", "mahalanobis:empty.mat", "--x", "1", "--y", "2"], "is empty",
    ),
    "matrix-malformed": (
        ["divergence", "--gen", "mahalanobis:bad.mat", "--x", "1,2", "--y", "2,3"],
        "is malformed",
    ),
    "normal-negative-variance": (
        ["risk", "--model", "normal:-1", "--gen", "sqeuclid", "--estimator", "mean",
         "--theta", "1", "--n", "3", "-M", "1000"],
        "sigma2 must be positive",
    ),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "empty.mat").write_text("")
    (tmp_path / "bad.mat").write_text("2\n1 x\n0 1\n")
    argv, message = USAGE_ERRORS[name]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
