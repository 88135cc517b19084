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

    @pytest.mark.parametrize("argv,desc", [
        (["--gevrey", "1.5", "--pmax", "100"], "gevrey:1.5"),
        (["--table", "t.json"], "file:t.json"),
        (["--weights", "gevrey:2"], "gevrey:2"),
    ])
    def test_every_scale_through_parse_weights(self, capsys, monkeypatch, argv, desc):
        seen = []

        def spy(d, p_max=None):
            seen.append((d, p_max))
            return weights.gevrey(1.0, 64)

        monkeypatch.setattr(cli, "parse_weights", spy)
        assert cli.main(["weights", *argv]) == 0
        capsys.readouterr()
        assert seen == [(desc, 100 if "--pmax" in argv else None)]

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

    @pytest.mark.parametrize(
        "desc, nets",
        [
            ("dirichlet", 1),
            ("dirichlet*dirichlet", 3),
            ("embed:cot_reg:dirichlet", 1),
            ("scaled:sin:1*dirichlet*", 4),
        ],
    )
    def test_parsed_nets_are_built_directly(self, capsys, monkeypatch, desc, nets):
        built = []
        init = algebra.Net.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(algebra.Net, "__init__", spy)
        code, rep = run(capsys, ["classify", "--net", desc, "--mode", "moderate", "--nmax", "16"])
        assert code == 0 and rep["net"] == desc
        assert len(built) == nets  # the atoms and products, no relabelling wrapper

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
        (["classify", "--net", "dirichlet", "--mode", "moderate", "--nmax", "16", "--hgrid", "3e8"], "h is too large"),
        (["classify", "--net", "dirichlet", "--mode", "moderate", "--nmax", "16", "--hgrid", "1e18"], "h is too large"),
        (["weights", "--gevrey", "1", "--t", "1e19"], "t = 1e+19 is too large"),
        (["weights", "--gevrey", "1", "--t-lo", "0"], "--t-lo and --t-hi must be positive"),
        (["weights", "--gevrey", "1", "--t-hi", "-5"], "--t-lo and --t-hi must be positive"),
        (["weights", "--gevrey", "1", "--t-points", "0"], "--t-points must be at least 1"),
        (["weights", "--gevrey", "1", "--t-points", "-3"], "--t-points must be at least 1"),
    ],
    ids=["exp_decay-nan", "exp_growth-inf", "scaled-inf", "scaled-nan", "t-inf", "t_hi-nan", "gevrey-inf", "weights-nan",
         "h-past-row-key", "h-past-int64", "t-past-int64", "t_lo-zero", "t_hi-negative", "t_points-zero",
         "t_points-negative"],
)
def test_non_finite_descriptor_exits_2(capsys, argv, message):
    # before, most of these printed a report with "nan" entries, or wrong values for the last two, after
    # a RuntimeWarning and exited 0; --hgrid 3e8 ended in an IndexError traceback; --t-lo 0 printed
    # numpy's "Geometric sequence cannot include zero" and --t-points 0 its empty-argmax message
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--net", "", "--mode", "moderate", "--nmax", "8"], "net descriptor '' names no net"),
        (["classify", "--net", "*", "--mode", "moderate", "--nmax", "8"], "net descriptor '*' names no net"),
        (["embed", "--dist", "delta", "--mollifier", "cutoff:trapezoidal:r=1:R=3", "--nmax", "8"],
         "unknown mollifier descriptor 'cutoff:trapezoidal:r=1:R=3'"),
        (["embed", "--dist", "delta", "--mollifier", "cutoff:trapezoid:r=1:R=3:q=9", "--nmax", "8"],
         "cutoff:trapezoid takes only r= and R=, not 'q=9'"),
        (["classify", "--net", "embed:delta:cutoff:trapezoid:s=1", "--mode", "moderate", "--nmax", "8"],
         "cutoff:trapezoid takes only r= and R=, not 's=1'"),
    ],
    ids=["net-empty", "net-star", "cutoff-head", "cutoff-key", "embed-atom-cutoff-key"],
)
def test_malformed_descriptor_exits_2(capsys, argv, message):
    # an empty net descriptor ended in an IndexError traceback; a cutoff head or key outside the
    # grammar was read as cutoff:trapezoid with the keys it knew, and the report exited 0
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


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
    def test_rows_equal_the_per_k_reference(self):
        polys = [series.TrigPoly(np.array([0.5, -0.0, 0.0, 1j, -2 + 0.25j]), 2), series.TrigPoly.zero(3)]
        polys += [series.TrigPoly.sine(), series.TrigPoly.dirichlet(4)]
        for poly in polys:
            want = []
            for k in poly.support():
                v = poly.coefficient(int(k))
                if v != 0:
                    want.append({"k": int(k), "re": float(v.real), "im": float(v.imag)})
            assert repr(cli._coef_rows(poly)) == repr(want)

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

    def test_trapezoid_defaults(self, capsys):
        code, rep = run(capsys, ["embed", "--dist", "delta", "--mollifier", "cutoff:trapezoid", "--nmax", "8"])
        assert code == 0 and rep["mollifier"] == "cutoff:trapezoid:r=1:R=2"

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

    def test_builds_its_nets_without_rewrapping(self, capsys, monkeypatch):
        wrapped = []
        inner = algebra.make_net

        def counting(gen, n_max, label="net"):
            wrapped.append(label)
            return inner(gen, n_max, label)

        monkeypatch.setattr(algebra, "make_net", counting)
        assert cli.main(["demo", "--nmax", "16"]) == 0
        capsys.readouterr()
        assert wrapped == []

    def test_reads_the_cos_delta_gap_from_the_mollifier_table(self, capsys, monkeypatch):
        built = []
        init = algebra.Net.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("label"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(algebra.Net, "__init__", spy)
        code, rep = run(capsys, ["demo", "--nmax", "16"])
        assert code == 0 and rep["iota_of_cos_delta_vs_iota_delta_max_gap"] == 0.0
        assert {"iota(delta)", "iota(sin)", "iota(cot_reg)", "iota(cos)"} <= set(built)
        assert "iota(cos*delta)" not in built

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

    def test_report_sends_few_rows_through_the_bracket(self, capsys, monkeypatch):
        rows = []
        inner = series.DerivativeRows._bracket

        def counting(self, ns, ps):
            rows.append(len(ps))
            return inner(self, ns, ps)

        monkeypatch.setattr(series.DerivativeRows, "_bracket", counting)
        assert cli.main(["demo", "--nmax", "64"]) == 0
        capsys.readouterr()
        # the chord between knots leaves 4,747 rows for the bracket, its knots included;
        # without the chord, all 34,860 rows left by the cheap bound went through it
        assert 0 < sum(rows) <= 6000

    def test_report_tests_few_rows_by_the_chord(self, capsys, monkeypatch):
        bracketed = []
        inner = series.DerivativeRows._bracket

        def bracket(self, ns, ps):
            bracketed.append(len(ps))
            return inner(self, ns, ps)

        monkeypatch.setattr(series.DerivativeRows, "_bracket", bracket)
        assert cli.main(["demo", "--nmax", "64"]) == 0
        capsys.readouterr()
        # each log_ud_norms call brackets its knots, then the rows its chord intervals hold:
        # 2,571 of them; testing every row that passed the cheap bound took 34,860 of the
        # 116,912 rows up to the members' ends
        assert 0 < sum(bracketed[1::2]) <= 3000
        assert 0 < sum(bracketed) <= 4747  # the knots of the kept segments and the rows the chord passes

    def test_report_refines_the_sups_of_u_once_per_run(self, capsys, monkeypatch):
        calls, refined = [], []
        inner, inner_refined = series._newton_max_rows, series.DerivativeRows.refined

        def spying(ts, *args):
            calls.append(len(ts))
            return inner(ts, *args)

        def refining(self, ns, ps):
            refined.append((self, np.ravel(ns)))
            return inner_refined(self, ns, ps)

        monkeypatch.setattr(series, "_newton_max_rows", spying)
        monkeypatch.setattr(series.DerivativeRows, "refined", refining)
        assert cli.main(["demo", "--nmax", "64"]) == 0
        capsys.readouterr()
        # the sups of u.at(1..64) in one call (u.at(0) has degree 0), Newton once per run of
        # their rows; one call per n made 64 Newton calls
        ((table, ns),) = refined
        assert ns.tolist() == list(range(1, 65))
        assert 0 < len(calls) <= len(list(table._runs(ns))) < 64

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


def test_apply_past_double_range_exits_2(capsys):
    # log P(k) passes 706 from |k| = 177, so P(k) reads inf there; before, inf * (x + 0j) put a NaN
    # in the residual, three RuntimeWarnings went to stderr, and --assert passed on "nan"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["apply", "--op", "structure_beurling:1", "--dist", "delta",
                         "--kwindow", "200", "--assert"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: P(k) c_k is not finite") and captured.err.count("\n") == 1
    assert "|k| = 177;" in captured.err
    code, rep = run(capsys, ["apply", "--op", "structure_beurling:1", "--dist", "delta",
                             "--kwindow", "176", "--assert"])
    assert code == 0 and rep["multiplier_residual"] == 0.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["factorize", "--dist", "cot_reg", "--kmax", "-3"], "k_max must be at least 0"),
        (["factorize", "--dist", "delta", "--class", "beurling", "--kmax", "-1"], "k_max must be at least 0"),
        (["apply", "--op", "poly:0,0,1", "--dist", "delta", "--kwindow", "-1"], "--kwindow must be at least 0"),
    ],
    ids=["kmax-roumieu", "kmax-beurling", "kwindow"],
)
def test_negative_window_exits_2(capsys, argv, message):
    # before, numpy's "zero-size array to reduction operation maximum which has no identity"
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, key",
    [
        (["factorize", "--dist", "cot_reg", "--kmax", "0"], "reconstruction_residual"),
        (["apply", "--op", "poly:0,0,1", "--dist", "delta", "--kwindow", "0"], "multiplier_residual"),
    ],
    ids=["kmax", "kwindow"],
)
def test_zero_window_reports(capsys, argv, key):
    code, rep = run(capsys, argv)
    assert code == 0 and rep[key] == 0.0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["weights", "--gevrey", "1"], ["--class", "beurling"]),
        (["weights", "--gevrey", "1"], ["--nmax", "16"]),
        (["weights", "--gevrey", "1"], ["--tau", "1"]),
        (["embed", "--dist", "delta"], ["--tau", "1"]),
        (["embed", "--dist", "delta"], ["--assert"]),
        (["apply", "--op", "poly:0,0,1", "--dist", "delta"], ["--nmax", "16"]),
        (["apply", "--op", "poly:0,0,1", "--dist", "delta"], ["--tau", "1"]),
        (["factorize", "--dist", "cot_reg"], ["--nmax", "16"]),
    ],
    ids=["weights-class", "weights-nmax", "weights-tau", "embed-tau", "embed-assert", "apply-nmax",
         "apply-tau", "factorize-nmax"],
)
def test_flag_the_command_does_not_read_exits_2(capsys, argv, flag):
    # each of these was parsed and then ignored, so e.g. `pgfa embed --assert` exited 0 whatever it computed
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + flag)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["classify", "--net", "const:file:{}", "--mode", "negligible", "--nmax", "16"],
     ["factorize", "--dist", "file:{}", "--kmax", "16"]],
    ids=["classify-const", "factorize"],
)
def test_nan_coefficient_exits_2(capsys, tmp_path, argv):
    # json reads NaN; the classify report said bounded with margin -inf, and the factorization
    # reported a "nan" reconstruction residual with g in class, each with exit 0
    table = tmp_path / "nan.json"
    table.write_text('{"coef": [{"k": 0, "re": NaN}, {"k": 1, "re": 1.0}]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main([a.format(table) for a in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: a coefficient is not finite\n"
