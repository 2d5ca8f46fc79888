import json
import os

import pytest

from sospcheck.checker import CheckConfig, sosp_check
from sospcheck.cli import main
from sospcheck.harness import dataset_from_dict, load_json, params_from_dict


def run_cli(argv, monkeypatch=None, env_seed=None):
    if env_seed is not None:
        os.environ["SOSP_SEED"] = str(env_seed)
    else:
        os.environ.pop("SOSP_SEED", None)
    try:
        return main(argv)
    finally:
        os.environ.pop("SOSP_SEED", None)


@pytest.fixture
def fixture_files(tmp_path):
    params = tmp_path / "params.json"
    data = tmp_path / "data.json"
    code = run_cli(
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
        code = run_cli(
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
        assert run_cli(argv + ["--boundary-tol", "1e-6"]) == 0
        report = load_json(out)
        config = report["diagnostics"]["config"]
        assert config["boundary_tol"] == 1e-6
        verdict = sosp_check(
            params_from_dict(load_json(params)),
            dataset_from_dict(load_json(data)),
            config=CheckConfig(**config),
        )
        assert (verdict.kind, verdict.stage) == (report["kind"], report["stage"])
        assert run_cli(argv + ["--seed", "0"]) == 1  # check takes no seed

    def test_check_perturbed_labels_descent(self, fixture_files, tmp_path):
        params, data = fixture_files
        obj = load_json(data)
        obj["labels"] = [[v + 0.75 for v in row] for row in obj["labels"]]
        data2 = tmp_path / "data2.json"
        data2.write_text(json.dumps(obj))
        out = tmp_path / "report2.json"
        code = run_cli(
            ["check", "--params", str(params), "--data", str(data2), "--out", str(out)]
        )
        assert code == 0
        assert load_json(out)["kind"] == "descent"

    def test_missing_input_file(self, tmp_path):
        code = run_cli(
            ["check", "--params", str(tmp_path / "nope.json"), "--data", str(tmp_path / "d.json")]
        )
        assert code == 2


class TestTrainAndStats:
    def test_train_then_check_pipeline(self, tmp_path):
        params = tmp_path / "trained.json"
        data = tmp_path / "data.json"
        code = run_cli(
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
        code = run_cli(["check", "--params", str(params), "--data", str(data)])
        assert code == 0

    def test_stats_table(self, tmp_path, capsys):
        out = tmp_path / "agg.json"
        code = run_cli(
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


class TestSynth:
    def test_env_seed_override(self, tmp_path):
        files = []
        for j, seed in enumerate((1, 99)):
            p = tmp_path / f"p{j}.json"
            d = tmp_path / f"d{j}.json"
            code = run_cli(
                [
                    "synth", "--dx", "3", "--dh", "1",
                    "--seed", str(seed),
                    "--out-params", str(p), "--out-data", str(d),
                ],
                env_seed=42,
            )
            assert code == 0
            files.append(load_json(p))
        assert files[0] == files[1]  # SOSP_SEED overrode both --seed values


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
        assert run_cli(["check", "--params", str(p), "--data", str(d)]) == 3

    def test_no_command_is_usage_error(self):
        assert run_cli([]) == 1

    def test_unknown_flag_is_usage_error(self):
        assert run_cli(["check", "--bogus"]) == 1

    def test_selftest_passes(self):
        assert run_cli(["selftest"]) == 0


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
