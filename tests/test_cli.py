import json
import os

import numpy as np
import pytest

from sospcheck.checker import CheckConfig, sosp_check
from sospcheck.cli import main
from sospcheck.harness import dataset_from_dict, load_json, params_from_dict
from sospcheck.second_order import sign_rows


@pytest.fixture
def fixture_files(tmp_path):
    params = tmp_path / "params.json"
    data = tmp_path / "data.json"
    code = main(
        [
            "synth",
            "--dx", "3", "--dh", "2", "--dy", "1",
            "--mode", "interior",
            "--seed", "3",
            "--out-params", str(params),
            "--out-data", str(data),
        ]
    )
    assert code == 0
    return params, data


class TestCheck:
    def test_check_constructed_fixture(self, fixture_files, tmp_path):
        params, data = fixture_files
        out = tmp_path / "report.json"
        code = main(
            ["check", "--params", str(params), "--data", str(data), "--out", str(out)]
        )
        assert code == 0
        report = load_json(out)
        assert report["kind"] in ("local_minimum", "sosp", "descent")
        assert report["schema_version"] == "1"
        assert report["diagnostics"]["M"] == 1
        json.dumps(report)  # fully serializable

    def test_report_config_reproduces_the_verdict(self, fixture_files, tmp_path):
        params, data = fixture_files
        out = tmp_path / "report.json"
        argv = ["check", "--params", str(params), "--data", str(data), "--out", str(out)]
        assert main(argv + ["--boundary-tol", "1e-6"]) == 0
        report = load_json(out)
        config = report["diagnostics"]["config"]
        assert config["boundary_tol"] == 1e-6
        verdict = sosp_check(
            params_from_dict(load_json(params)),
            dataset_from_dict(load_json(data)),
            config=CheckConfig(**config),
        )
        assert (verdict.kind, verdict.stage) == (report["kind"], report["stage"])
        assert main(argv + ["--seed", "0"]) == 1  # check takes no seed

    def test_check_perturbed_labels_descent(self, fixture_files, tmp_path):
        params, data = fixture_files
        obj = load_json(data)
        obj["labels"] = [[v + 0.75 for v in row] for row in obj["labels"]]
        data2 = tmp_path / "data2.json"
        data2.write_text(json.dumps(obj))
        out = tmp_path / "report2.json"
        code = main(
            ["check", "--params", str(params), "--data", str(data2), "--out", str(out)]
        )
        assert code == 0
        assert load_json(out)["kind"] == "descent"

    def test_missing_input_file(self, tmp_path):
        code = main(
            ["check", "--params", str(tmp_path / "nope.json"), "--data", str(tmp_path / "d.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_invalid_boundary_tol(self, fixture_files, capsys, value):
        params, data = fixture_files
        argv = ["check", "--params", str(params), "--data", str(data), "--boundary-tol", value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "boundary_tol" in err

    def test_library_error_is_an_input_error(self, fixture_files, tmp_path, capsys):
        # inputs of another width than the network's: a ShapeMismatchError
        params, data = fixture_files
        obj = load_json(data)
        obj["inputs"] = [row + [0.0] for row in obj["inputs"]]
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(obj))
        assert main(["check", "--params", str(params), "--data", str(wide)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not match" in err


class TestReportJson:
    @pytest.mark.parametrize(
        "mode, flat_sets, k, l",
        [("orthogonal", [[-1, 1]], 1, 1), ("edge", [[1]], 0, 1), ("interior", [[0]], 0, 0)],
    )
    def test_flat_boundary_report_loads(self, tmp_path, mode, flat_sets, k, l):
        params, data, out = (tmp_path / name for name in ("p.json", "d.json", "r.json"))
        synth = ["synth", "--dx", "3", "--dh", "2", "--dy", "1", "--mode", mode, "--seed", "3"]
        assert main(synth + ["--out-params", str(params), "--out-data", str(data)]) == 0
        argv = ["check", "--params", str(params), "--data", str(data), "--out", str(out)]
        assert main(argv) == 0
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        diag = report["diagnostics"]
        assert (diag["K"], diag["L"]) == (k, l)
        assert type(diag["K"]) is int and type(diag["L"]) is int
        increasing = [e for e in diag["trace"] if e["stage"] == "increasing"]
        assert [e["flat_sets"] for e in increasing] == [flat_sets]
        icqps = [e for e in diag["trace"] if e["stage"] == "icqp"]
        assert len(icqps) == (1 if l else 0)
        assert diag["n_icqp"] == (2**k if l else 0)
        for entry in icqps:
            assert len(entry["verdict"]) == diag["n_icqp"]
            assert all(type(sign) is int for sign in entry["pinned"])
            assert all(type(flag) is bool for flag in entry["free"])
            for n in range(diag["n_icqp"]):
                row = sign_rows(np.array(entry["pinned"]), np.array(entry["free"]), n, n + 1)[0]
                assert all(type(sign) is int for sign in row.tolist())

    def test_explain_prints_each_decision_from_the_report(self, tmp_path, capsys):
        from sospcheck.cli import explain
        from sospcheck.harness import (
            construct_boundary_fosp,
            dataset_to_dict,
            params_to_dict,
            save_json,
        )

        # K = 3: eight patterns, four of them with a flat witness
        point = construct_boundary_fosp(
            5, 2, 1, seed=10, n_boundary=3, units=[0, 0, 1], mode="orthogonal"
        )
        params, data, out = (tmp_path / name for name in ("p.json", "d.json", "r.json"))
        save_json(params, params_to_dict(point.params))
        save_json(data, dataset_to_dict(point.data))
        argv = ["check", "--params", str(params), "--data", str(data), "--out", str(out)]
        assert main(argv + ["--explain"]) == 0
        printed = capsys.readouterr().out.splitlines()
        with open(out, encoding="utf-8") as fh:
            report = json.load(fh)
        lines = explain(report)
        assert printed == ["verdict: sosp", *lines]
        assert [line.split(":")[0] for line in lines[:4]] == [
            "outer_layer", "subdiff_qp unit 0", "subdiff_qp unit 1", "ecqp"]
        assert all(" <= tol " in line for line in lines[:3])
        (record,) = [e for e in report["diagnostics"]["trace"] if e["stage"] == "icqp"]
        counts = [line for line in lines if " x T" in line]
        assert sum(int(line.split(" x ")[0]) for line in counts) == 8
        patterns = [line for line in lines if "lambda_min(S)" in line]
        witnesses = [line for line in lines if "witness" in line]
        assert len(patterns) == 5 and len(witnesses) == len(record["witness"]) == 4
        gaps = [min(abs(lam - tol), abs(lam + tol)) / tol
                for lam, tol in zip(record["lam_min_s"], record["tol"])]
        printed_order = [int(line.split()[1]) for line in patterns]
        assert printed_order == sorted(range(8), key=lambda n: (gaps[n], n))[:5]
        nearest = printed_order[0]
        row = sign_rows(np.array(record["pinned"]), np.array(record["free"]), nearest, nearest + 1)
        assert f"[{' '.join(f'{s:+d}' for s in row[0].tolist())}]" in patterns[0]


class TestTrainAndStats:
    def test_train_then_check_pipeline(self, tmp_path):
        params = tmp_path / "trained.json"
        data = tmp_path / "data.json"
        code = main(
            [
                "train",
                "--dx", "2", "--dh", "1", "--m", "30",
                "--iters", "300", "--decay-every", "100",
                "--seed", "3",
                "--out", str(params),
                "--save-data", str(data),
            ]
        )
        assert code == 0
        code = main(["check", "--params", str(params), "--data", str(data)])
        assert code == 0

    def test_train_on_unreadable_data(self, tmp_path, capsys):
        out = tmp_path / "trained.json"
        argv = ["train", "--data", str(tmp_path / "nope.json"), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: could not load data")
        assert not out.exists()

    def test_stats_table(self, tmp_path, capsys):
        out = tmp_path / "agg.json"
        code = main(
            [
                "stats",
                "--dx", "3", "--dh", "1", "--m", "40",
                "--runs", "2", "--iters", "200", "--decay-every", "100",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Sum M" in printed and "Sum L" in printed and "Sum K" in printed
        agg = load_json(out)
        assert agg["runs"] == 2
        assert agg["sum_k"] <= agg["sum_l"] <= agg["sum_m"]


class TestInvalidTrainingSettings:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["train", "--decay-every", "0"], "decay_every"),
            (["train", "--iters", "0"], "iters"),
            (["train", "--iters", "-3"], "iters"),
            (["train", "--lr", "-1"], "lr"),
            (["stats", "--runs", "0"], "runs"),
            (["stats", "--iters", "0"], "iters"),
        ],
    )
    def test_rejected_with_input_error(self, tmp_path, capsys, argv, field):
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()


class TestSynth:
    def test_smooth_fixture_certifies(self, tmp_path):
        params, data, out = (tmp_path / name for name in ("p.json", "d.json", "r.json"))
        synth = ["synth", "--dx", "3", "--dh", "2", "--dy", "1", "--boundary", "0", "--seed", "0"]
        assert main(synth + ["--out-params", str(params), "--out-data", str(data)]) == 0
        point = params_from_dict(load_json(params))
        inputs = dataset_from_dict(load_json(data)).inputs
        assert (inputs @ point.W1.T + point.b1 != 0.0).all()
        argv = ["check", "--params", str(params), "--data", str(data), "--out", str(out)]
        assert main(argv) == 0
        report = load_json(out)
        assert report["kind"] in ("local_minimum", "sosp")
        assert report["diagnostics"]["M"] == 0


    def test_indefinite_fixture_descends_at_the_ecqp(self, tmp_path):
        params, data, out = (tmp_path / name for name in ("p.json", "d.json", "r.json"))
        synth = ["synth", "--dx", "3", "--dh", "2", "--dy", "2", "--mode", "indefinite"]
        assert main(synth + ["--out-params", str(params), "--out-data", str(data)]) == 0
        argv = ["check", "--params", str(params), "--data", str(data), "--out", str(out)]
        assert main(argv) == 0
        report = load_json(out)
        assert (report["kind"], report["stage"]) == ("descent", "ecqp")


class TestMisc:
    def test_internal_inconsistency_exit_code(self, tmp_path):
        # gradient just above the stationarity tolerance but decrease below the
        # line-search margin: the claimed descent cannot validate, exit code 3
        params = {
            "schema_version": "1", "d_x": 1, "d_h": 1, "d_y": 1,
            "s_plus": 1.0, "s_minus": 0.0,
            "W1": [[1.0]], "b1": [0.0], "W2": [[1.0]], "b2": [0.0],
        }
        data = {"schema_version": "1", "inputs": [[1.0]], "labels": [[1.0 + 3e-8]]}
        p = tmp_path / "p.json"
        d = tmp_path / "d.json"
        p.write_text(json.dumps(params))
        d.write_text(json.dumps(data))
        assert main(["check", "--params", str(p), "--data", str(d)]) == 3

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert main(["check", "--bogus"]) == 1

    def test_selftest_passes(self):
        assert main(["selftest"]) == 0


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize takes most of a cold import; only the solvers that use
    # it import it, so a CLI start-up that solves nothing does not pay it
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, sospcheck; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
