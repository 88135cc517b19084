import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from periodic_gfa import algebra, cli, series, weights

TWO_PI = 2 * math.pi


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestWeightsCommand:
    def test_gauge_values(self, capsys):
        code, rep = run(capsys, ["weights", "--gevrey", "1", "--t", "10,1"])
        assert code == 0
        assert rep["M"]["10.0"] == pytest.approx(7.9214, abs=1e-3)
        assert rep["M"]["1.0"] == 0.0
        assert rep["doubling_bound"]["passed"]

    def test_malformed_table_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "table", "logM": [0, 1, 0.5, 2, 9, 9.5, 10, 11, 12]}))
        code = cli.main(["weights", "--table", str(bad)])
        assert code == 2

    def test_missing_file_exits_2(self, capsys):
        assert cli.main(["weights", "--table", "/nonexistent.json"]) == 2

    def test_deterministic(self, capsys):
        cli.main(["weights", "--gevrey", "2", "--t", "3,7"])
        first = capsys.readouterr().out
        cli.main(["weights", "--gevrey", "2", "--t", "3,7"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, _ = run(capsys, ["weights", "--gevrey", "1", "--csv", str(target)])
        assert code == 0 and target.exists()
        assert target.read_text().startswith("t,")


class TestClassifyCommand:
    def test_dirichlet_moderate(self, capsys):
        code, rep = run(
            capsys,
            ["classify", "--net", "dirichlet", "--weights", "gevrey:1",
             "--class", "roumieu", "--mode", "moderate", "--nmax", "16", "--assert"],
        )
        assert code == 0 and rep["bounded"] and rep["desk_scale"]

    def test_assert_failure_exits_1(self, capsys):
        code, rep = run(
            capsys,
            ["classify", "--net", "dirichlet", "--weights", "gevrey:1",
             "--mode", "negligible", "--nmax", "16", "--assert"],
        )
        assert code == 1 and not rep["bounded"]

    def test_scaled_net_negligible(self, capsys):
        code, rep = run(
            capsys,
            ["classify", "--net", "scaled:sin:1", "--mode", "negligible", "--nmax", "16"],
        )
        assert code == 0 and rep["bounded"]

    def test_product_descriptor(self, capsys):
        code, rep = run(
            capsys,
            ["classify", "--net", "embed:sin:dirichlet*embed:delta:dirichlet",
             "--mode", "negligible", "--nmax", "16"],
        )
        assert code == 0 and not rep["bounded"]

    def test_supnorm_method(self, capsys):
        code, rep = run(
            capsys,
            ["classify", "--net", "scaled:sin:1", "--mode", "negligible",
             "--method", "sup_norm", "--nmax", "16"],
        )
        assert code == 0 and rep["bounded"] and rep["method"] == "sup_norm"

    def test_unknown_descriptor_exits_2(self, capsys):
        assert cli.main(["classify", "--net", "mystery", "--mode", "moderate"]) == 2

    def test_coefficient_method(self, capsys):
        argv = ["classify", "--net", "dirichlet", "--mode", "moderate", "--nmax", "16"]
        code, rep = run(capsys, argv + ["--method", "coefficient", "--assert"])
        assert code == 0 and rep["bounded"] and rep["method"] == "coefficient"
        net = algebra.make_net(series.TrigPoly.dirichlet, 16)
        want = algebra.coef_classify(net, weights.gevrey(1.0, 2048), "roumieu", "moderate")
        assert rep["margin"] == want.margin

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--mode", "negligible", "--hgrid", "inf"], "grids must be nonempty"),
            (["--mode", "negligible", "--lgrid", "1,inf"], "grids must be nonempty"),
            (["--mode", "moderate", "--tau", "nan"], "tau must be finite"),
            (["--mode", "moderate", "--tau", "inf"], "tau must be finite"),
        ],
        ids=["hgrid-inf", "lgrid-inf", "tau-nan", "tau-inf"],
    )
    def test_non_finite_input_exits_2(self, capsys, extra, message):
        # before, these printed a verdict (margin "nan" for h = inf) and exited 0
        code = cli.main(["classify", "--net", "dirichlet", "--nmax", "16", *extra])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    def test_supnorm_method_decides_negligibility_only(self, capsys):
        code = cli.main(["classify", "--net", "dirichlet", "--mode", "moderate",
                         "--method", "sup_norm", "--nmax", "16"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and "negligibility" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--weights", "mystery"],
        ["embed", "--dist", "mystery"],
        ["factorize", "--dist", "cot_reg", "--class", "roumieu", "--r", "mystery"],
        ["embed", "--dist", "delta", "--mollifier", "mystery"],
        ["apply", "--dist", "delta", "--op", "mystery"],
    ],
    ids=["weights", "distribution", "rsequence", "mollifier", "operator"],
)
def test_unknown_descriptor_exits_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: unknown") and "'mystery'" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["embed", "--dist", "exp_decay:nan", "--mollifier", "dirichlet", "--nmax", "8"], "mu must be finite"),
        (["embed", "--dist", "exp_growth:inf", "--nmax", "8"], "lambda must be finite"),
        (["classify", "--net", "scaled:sin:inf", "--mode", "negligible", "--nmax", "16"], "scaled rate must be finite"),
        (["classify", "--net", "scaled:dirichlet:nan", "--mode", "moderate", "--nmax", "16"], "scaled rate must be finite"),
        (["weights", "--gevrey", "1", "--t", "1,inf"], "--t, --t-lo and --t-hi must be finite"),
        (["weights", "--gevrey", "1", "--t-hi", "nan"], "--t, --t-lo and --t-hi must be finite"),
        (["weights", "--gevrey", "inf"], "gevrey exponent must be finite"),
        (["classify", "--net", "dirichlet", "--mode", "moderate", "--weights", "gevrey:nan"], "gevrey exponent must be finite"),
    ],
    ids=["exp_decay-nan", "exp_growth-inf", "scaled-inf", "scaled-nan", "t-inf", "t_hi-nan", "gevrey-inf", "weights-nan"],
)
def test_non_finite_descriptor_exits_2(capsys, argv, message):
    # before, most of these printed a report with "nan" entries after a RuntimeWarning and exited 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("method", ["full_norm", "coefficient"])
def test_non_finite_coefficient_file_exits_2(capsys, tmp_path, method):
    table = tmp_path / "dist.json"
    table.write_text(json.dumps([{"k": 1, "re": math.nan}, {"k": 0, "re": 1.0}]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["classify", "--net", f"embed:file:{table}:dirichlet", "--mode", "moderate",
                         "--nmax", "8", "--method", method])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err


class TestEmbedCommand:
    def test_delta_rows(self, capsys):
        code, rep = run(capsys, ["embed", "--dist", "delta", "--nmax", "8"])
        assert code == 0
        assert len(rep["rows"]) == 9
        for row in rep["rows"]:
            n = row["n"]
            assert len(row["coef"]) == 2 * n + 1
            assert all(c["re"] == pytest.approx(1 / TWO_PI) for c in row["coef"])

    def test_file_distribution(self, capsys, tmp_path):
        table = tmp_path / "dist.json"
        table.write_text(json.dumps([{"k": -2, "re": 0.0, "im": 2.0}, {"k": 0, "re": 0.0, "im": 1.0}]))
        code, rep = run(capsys, ["embed", "--dist", f"file:{table}", "--nmax", "8"])
        assert code == 0
        row = rep["rows"][4]
        by_k = {c["k"]: c for c in row["coef"]}
        assert by_k[-2]["im"] == pytest.approx(2.0)
        assert by_k[0]["im"] == pytest.approx(1.0)

    def test_mollifier_file(self, capsys, tmp_path):
        rows = [
            {"n": n, "coef": [{"k": k, "re": 1 / TWO_PI, "im": 0.0} for k in range(-n, n + 1)]}
            for n in range(1, 9)
        ]
        spec = tmp_path / "mol.json"
        spec.write_text(json.dumps({"C": 1 / TWO_PI, "R": 2, "r": 1, "rows": rows}))
        code, rep = run(capsys, ["embed", "--dist", "delta",
                                 "--mollifier", f"file:{spec}", "--nmax", "8"])
        assert code == 0 and len(rep["rows"][8]["coef"]) == 17

    def test_trapezoid_mollifier(self, capsys):
        code, rep = run(capsys, ["embed", "--dist", "delta", "--mollifier", "cutoff:trapezoid:r=1:R=3",
                                 "--nmax", "8"])
        assert code == 0 and rep["mollifier"] == "cutoff:trapezoid:r=1:R=3"
        # iota(delta)_8 has coefficients psi(k/8): 1/(2 pi) up to |k| = 8, ramping to 0 at 24
        by_k = {c["k"]: c["re"] for c in rep["rows"][8]["coef"]}
        assert sorted(by_k) == list(range(-23, 24))
        assert by_k[8] == pytest.approx(1 / TWO_PI) and by_k[-16] == pytest.approx(0.5 / TWO_PI)

    def test_constant_one(self, capsys):
        code, rep = run(capsys, ["embed", "--dist", "one", "--nmax", "8"])
        assert code == 0 and rep["distribution"] == "one"
        assert [row["coef"] for row in rep["rows"]] == [[{"k": 0, "re": 1.0, "im": 0.0}]] * 9

    def test_weight_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "weights.json"
        spec.write_text(json.dumps({"kind": "gevrey", "s": 1.0, "p_max": 2000}))
        code, rep = run(capsys, ["weights", "--weights", f"file:{spec}", "--t", "10"])
        assert code == 0 and rep["M"]["10.0"] == pytest.approx(7.9214, abs=1e-3)


def test_reader_closing_early_leaves_stderr_empty(tmp_path):
    """`pgfa embed ... | head -1`: no traceback, the command's exit code, and --out written in full."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "report.json"
    argv = ["embed", "--dist", "delta", "--mollifier", "cutoff:trapezoid:r=1:R=3", "--nmax", "64"]
    proc = subprocess.Popen(  # the report, about 1.2 MB, overflows the pipe
        [sys.executable, "-m", "periodic_gfa.cli", *argv, "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (0, b"")
    assert len(json.loads(out.read_text())["rows"]) == 65


class TestProductCommand:
    def test_band_limited(self, capsys):
        code, rep = run(
            capsys,
            ["product", "--f", "sin", "--g", "cos", "--nmax", "16", "--assert"],
        )
        assert code == 0 and rep["negligible"]
        assert rep["exact_zero_from"] is not None and rep["exact_zero_from"] <= 2


class TestApplyCommand:
    def test_square_on_delta(self, capsys):
        code, rep = run(capsys, ["apply", "--op", "poly:0,0,1", "--dist", "delta",
                                 "--kwindow", "3", "--assert"])
        assert code == 0 and rep["multiplier_residual"] == 0.0
        by_k = {c["k"]: c["re"] for c in rep["coef"]}
        assert by_k[3] == pytest.approx(9 / TWO_PI)

    def test_operator_file(self, capsys, tmp_path):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps({"a": [{"n": 0, "re": 1.0, "im": 0.0},
                                          {"n": 2, "re": 1.0, "im": 0.0}],
                                    "class": "beurling", "L": 1, "C": 2}))
        code, rep = run(capsys, ["apply", "--op", f"file:{spec}", "--dist", "delta",
                                 "--kwindow", "2"])
        assert code == 0
        by_k = {c["k"]: c["re"] for c in rep["coef"]}
        assert by_k[2] == pytest.approx(5 / TWO_PI)

    @pytest.mark.parametrize(
        "named, form",
        [
            ("structure_roumieu", {"form": "structure_roumieu"}),
            ("structure_beurling:2", {"form": "structure_beurling", "lambda": 2}),
        ],
    )
    def test_structure_form_file_matches_named(self, capsys, tmp_path, named, form):
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps(form))
        argv = ["apply", "--dist", "delta", "--kwindow", "3"]
        code, rep = run(capsys, argv + ["--op", named])
        assert code == 0 and rep["multiplier_residual"] == 0.0
        assert run(capsys, argv + ["--op", f"file:{spec}"]) == (0, rep)

    @pytest.mark.parametrize("lam", [None, "two", [2], 0, -1.5, True, "missing"])
    def test_structure_beurling_bad_lambda_exits_2(self, capsys, tmp_path, lam):
        form = {"form": "structure_beurling"} | ({} if lam == "missing" else {"lambda": lam})
        spec = tmp_path / "op.json"
        spec.write_text(json.dumps(form))
        code = cli.main(["apply", "--op", f"file:{spec}", "--dist", "delta", "--kwindow", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "lambda" in captured.err


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["weights", "--weights"], [1, 2]),
        (["weights", "--weights"], {"kind": "table", "logM": []}),
        (["weights", "--weights"], {"kind": "table", "logM": 0.0}),
        (["apply", "--dist", "delta", "--op"], [1, 2]),
        (["apply", "--dist", "delta", "--op"], {"a": 3}),
        (["embed", "--dist"], {"coef": 5}),
        (["embed", "--dist"], [1, 2]),
        (["embed", "--dist", "delta", "--mollifier"], [1, 2]),
        (["factorize", "--dist", "cot_reg", "--r"], [1, 2]),
    ],
    ids=["weights-list", "weights-logM-empty", "weights-logM-scalar", "op-list", "op-a-int",
         "dist-coef-int", "dist-list", "mollifier-list", "rsequence-list"],
)
def test_malformed_file_payload_exits_2(capsys, tmp_path, argv, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = cli.main(argv + [f"file:{path}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:")


class TestFactorizeCommand:
    def test_beurling_gauge_growth(self, capsys):
        code, rep = run(
            capsys,
            ["factorize", "--dist", "exp_growth:1", "--weights", "gevrey:2",
             "--class", "beurling", "--lambda", "1", "--assert"],
        )
        assert code == 0 and rep["passed"]
        assert rep["reconstruction_residual"] <= 1e-12

    def test_roumieu_growth_rejected(self, capsys):
        code = cli.main(
            ["factorize", "--dist", "exp_growth:1", "--weights", "gevrey:2",
             "--class", "roumieu", "--lambda", "1"]
        )
        assert code == 2

    def test_beurling_past_double_range(self, capsys):
        # at k = 200, log P(k) = 799 lies past the range of exp in double precision
        code, rep = run(
            capsys,
            ["factorize", "--dist", "exp_growth:0.5", "--weights", "gevrey:1",
             "--class", "beurling", "--kmax", "200", "--assert"],
        )
        assert code == 0 and rep["passed"] and rep["reconstruction_residual"] <= 1e-12

    def test_roumieu_with_linear_rsequence(self, capsys):
        argv = ["factorize", "--dist", "cot_reg", "--weights", "gevrey:1", "--class", "roumieu",
                "--kmax", "128", "--assert"]
        code, rep = run(capsys, argv + ["--r", "linear", "--k", "linear"])
        assert code == 0 and rep["passed"]
        assert rep["g_inclass"]["grid"]["k_sequence"] == "j+1"

    def test_roumieu_with_rsequence_file(self, capsys, tmp_path):
        rfile = tmp_path / "r.json"
        rfile.write_text(json.dumps({"r": list(range(1, 1026))}))
        code, rep = run(
            capsys,
            ["factorize", "--dist", "cot_reg", "--weights", "gevrey:1",
             "--class", "roumieu", "--r", f"file:{rfile}", "--k", f"file:{rfile}",
             "--kmax", "128", "--assert"],
        )
        assert code == 0 and rep["passed"]


class TestRegularityCommand:
    def test_exp_decay(self, capsys):
        code, rep = run(
            capsys,
            ["regularity", "--dist", "exp_decay:1", "--mollifier", "dirichlet",
             "--weights", "gevrey:1", "--class", "roumieu", "--nmax", "16", "--assert"],
        )
        assert code == 0 and rep["consistent"] and rep["net_regular"]


class TestDemoCommand:
    def test_small_run(self, capsys):
        code, rep = run(capsys, ["demo", "--nmax", "16", "--assert"])
        assert code == 0
        assert rep["sup_norm_limit"]["tail_within_window"]
        assert not rep["u_negligible"]["bounded"]
        assert not rep["v_minus_w_negligible"]["bounded"]
        assert not rep["w_minus_iota_delta_negligible"]["bounded"]
        assert rep["iota_of_cos_delta_vs_iota_delta_max_gap"] == 0.0
        assert rep["chain_conclusion"]["chain_breaks_in_algebra"]

    def test_csv_lists_the_reported_sups(self, capsys, tmp_path):
        target = tmp_path / "sups.csv"
        code, rep = run(capsys, ["demo", "--nmax", "16", "--csv", str(target)])
        with open(target, newline="") as fh:
            rows = list(csv.reader(fh))
        assert code == 0 and rows[0] == ["n", "sup_norm_u"]
        assert [int(n) for n, _ in rows[1:]] == list(range(17))
        assert [float(s) for _, s in rows[1:]] == rep["sup_norms_u"]

    def test_report_evaluates_row_zero_once_per_index(self, capsys, monkeypatch):
        rows, zeros = [], []
        inner = series._log_sup_rows

        def counting(coef, ps, *args):
            rows.append(len(ps))
            zeros.append(np.count_nonzero(ps == 0))
            return inner(coef, ps, *args)

        monkeypatch.setattr(series, "_log_sup_rows", counting)
        assert cli.main(["demo", "--nmax", "64"]) == 0
        capsys.readouterr()
        # row 0 once for each n = 1..64 of u, v - w and w - iota(delta); the report's
        # sups of u refine the rows u's verdict reads
        assert (sum(rows), sum(zeros)) == (2459, 192)

    def test_second_report_stays_small(self, capsys):
        # the D^p row weights are set up per run of at most 2^14 entries; set up for a whole
        # read at once they took the traced peak from 3.35 MB to 11.4 MB
        assert cli.main(["demo", "--nmax", "64"]) == 0
        tracemalloc.start()
        try:
            assert cli.main(["demo", "--nmax", "64"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak <= 5e6

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main(["demo", "--nmax", "16", "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert target.read_text() == out
