import json
import math

import numpy as np
import pytest

from periodic_gfa import cli

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

    def test_weight_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "weights.json"
        spec.write_text(json.dumps({"kind": "gevrey", "s": 1.0, "p_max": 2000}))
        code, rep = run(capsys, ["weights", "--weights", f"file:{spec}", "--t", "10"])
        assert code == 0 and rep["M"]["10.0"] == pytest.approx(7.9214, abs=1e-3)


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

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main(["demo", "--nmax", "16", "--out", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert target.read_text() == out
