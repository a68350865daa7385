import json
import os
import subprocess
import sys

import numpy as np
import pytest

from bayesmlp import cli
from bayesmlp.chainio import save_chain
from bayesmlp.samplers import Chain


def run(args):
    return cli.main([str(a) for a in args])


@pytest.fixture
def xor_config(tmp_path):
    doc = {
        "dataset": {"name": "noisy-xor", "seed": 0, "train_per_corner": 10, "test_per_corner": 5},
        "architecture": {"layer_widths": [2, 2, 1]},
        "sampler": {"kind": "MH", "proposal_variance": 0.05},
        "num_chains": 2,
        "iterations": 400,
        "burnin": 100,
        "tail": 100,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestGenerateData:
    def test_default_counts(self, tmp_path):
        assert run(["generate-data", "--out-dir", tmp_path]) == 0
        train = (tmp_path / "noisy_xor_train.csv").read_text().strip().splitlines()
        test = (tmp_path / "noisy_xor_test.csv").read_text().strip().splitlines()
        assert len(train) == 501  # header + 500 rows
        assert len(test) == 121

    def test_custom_counts_and_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([
                "generate-data", "--out-dir", out, "--train-per-corner", 7,
                "--test-per-corner", 2, "--seed", 9,
            ]) == 0
        assert (a / "noisy_xor_train.csv").read_bytes() == (b / "noisy_xor_train.csv").read_bytes()
        assert len((a / "noisy_xor_train.csv").read_text().strip().splitlines()) == 29


class TestSample:
    def test_chain_files_shape(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
        rows = (out / "chain_00.csv").read_text().strip().splitlines()
        assert len(rows) == 400
        assert len(rows[0].split(",")) == 9
        meta = json.loads((out / "chain_00.json").read_text())
        assert meta["sampler"] == "MH"
        assert meta["burnin"] == 100
        assert sorted(os.listdir(out)) == [
            "chain_00.csv", "chain_00.json", "chain_01.csv", "chain_01.json", "experiment.json",
        ]

    def test_rerun_is_byte_identical(self, tmp_path, xor_config):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
        for name in ("chain_00.csv", "chain_01.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path, xor_config):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert run(["sample", "--config", xor_config, "--out-dir", serial]) == 0
        assert run(["sample", "--config", xor_config, "--out-dir", parallel, "--jobs", 2]) == 0
        for name in ("chain_00.csv", "chain_01.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    def test_hawks_chain_width(self, tmp_path):
        out = tmp_path / "hawks"
        assert run([
            "sample", "--dataset", "hawks", "--arch", "6,2,2,3",
            "--num-chains", 1, "--iterations", 30, "--burnin", 5, "--tail", 5,
            "--seed", 1, "--out-dir", out,
        ]) == 0
        rows = (out / "chain_00.csv").read_text().strip().splitlines()
        assert len(rows[0].split(",")) == 29

    def test_flag_overrides_config(self, tmp_path, xor_config):
        out = tmp_path / "o"
        assert run([
            "sample", "--config", xor_config, "--out-dir", out, "--iterations", 150,
        ]) == 0
        assert len((out / "chain_00.csv").read_text().strip().splitlines()) == 150


    def test_file_dataset_may_carry_a_name(self, tmp_path, xor_config):
        """A name that is no known dataset labels a train/test file section."""
        data_dir = tmp_path / "data"
        assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 5, "--test-per-corner", 2]) == 0
        doc = json.loads(xor_config.read_text())
        doc["dataset"] = {
            "name": "my-xor",
            "train": str(data_dir / "noisy_xor_train.csv"),
            "test": str(data_dir / "noisy_xor_test.csv"),
            "manifest": str(data_dir / "noisy_xor_manifest.json"),
        }
        xor_config.write_text(json.dumps(doc))
        assert run(["sample", "--config", xor_config, "--iterations", 150, "--out-dir", tmp_path / "o"]) == 0

    def test_file_flags_replace_named_dataset(self, tmp_path, xor_config):
        data_dir = tmp_path / "data"
        assert run(["generate-data", "--out-dir", data_dir, "--train-per-corner", 5, "--test-per-corner", 2]) == 0
        out = tmp_path / "o"
        assert run([
            "sample", "--config", xor_config, "--out-dir", out,
            "--train", data_dir / "noisy_xor_train.csv", "--test", data_dir / "noisy_xor_test.csv",
            "--manifest", data_dir / "noisy_xor_manifest.json",
        ]) == 0
        assert json.loads((out / "experiment.json").read_text())["dataset"] == {
            "train": str(data_dir / "noisy_xor_train.csv"),
            "test": str(data_dir / "noisy_xor_test.csv"),
            "manifest": str(data_dir / "noisy_xor_manifest.json"),
        }


class TestDiagnose:
    def test_identical_copies_below_one(self, tmp_path, rng):
        chain = Chain(rng.normal(size=(500, 3)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        paths = []
        for i in range(3):
            path = tmp_path / f"c{i}.csv"
            save_chain(chain, path, path.with_suffix(".json"))
            paths.append(path)
        report_path = tmp_path / "report.json"
        assert run(["diagnose", "--chains", *paths, "--burnin", 0, "--out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert report["psrf"] < 1.0
        assert report["m"] == 3

    def test_table_rows_per_sampler(self, tmp_path, rng, capsys):
        paths = []
        for tag in ("MH", "HMC"):
            for i in range(2):
                chain = Chain(
                    rng.normal(size=(300, 2)), burnin=0, seed=i, accepted=1, sampler_tag=tag
                )
                path = tmp_path / f"{tag}_{i}.csv"
                save_chain(chain, path, path.with_suffix(".json"))
                paths.append(path)
        assert run(["diagnose", "--chains", *paths, "--burnin", 0]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["Sampler", "PSRF", "ESS"]
        assert {line.split()[0] for line in lines[1:]} == {"MH", "HMC"}


class TestPredict:
    def test_accuracy_summary(self, tmp_path, xor_config, capsys):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        pred = tmp_path / "pred"
        assert run([
            "predict", "--config", xor_config, "--chains",
            out / "chain_00.csv", out / "chain_01.csv", "--out-dir", pred,
        ]) == 0
        summary = json.loads((pred / "accuracy_summary.json").read_text())
        assert len(summary["per_chain_accuracy"]) == 2
        assert "mean accuracy" in capsys.readouterr().out
        header = (pred / "predictions_chain_00.csv").read_text().splitlines()[0]
        assert header == "index,true_label,predicted_label,prob_predicted,prob_true"

    def test_perfect_synthetic_tail(self, tmp_path, capsys):
        """A tail that classifies everything correctly reports 100.00."""
        theta = np.zeros(9)
        theta[:8] = [12.0, -12.0, -12.0, 12.0, -6.0, -6.0, 14.0, 14.0]
        theta[8] = -7.0  # hand-built XOR solution
        chain = Chain(np.tile(theta, (50, 1)), burnin=0, seed=0, accepted=1, sampler_tag="MH")
        path = tmp_path / "perfect.csv"
        save_chain(chain, path, path.with_suffix(".json"))
        assert run([
            "predict", "--dataset", "noisy-xor", "--arch", "2,2,1",
            "--tail", 50, "--chains", path, "--out-dir", tmp_path / "pred",
        ]) == 0
        assert "mean accuracy 100.00" in capsys.readouterr().out

    def test_prior_baseline_routing(self, tmp_path, xor_config, capsys):
        pred = tmp_path / "prior"
        assert run([
            "predict", "--config", xor_config, "--prior-baseline",
            "--num-draws", 200, "--out-dir", pred,
        ]) == 0
        assert "prior baseline accuracy" in capsys.readouterr().out
        assert (pred / "prior_baseline.json").exists()


class TestGrid:
    def test_grid_files(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        grid_dir = tmp_path / "grid"
        assert run([
            "grid", "--config", xor_config, "--chain", out / "chain_00.csv",
            "--out-dir", grid_dir,
        ]) == 0
        grid = np.loadtxt(grid_dir / "grid.csv", delimiter=",")
        truth = np.loadtxt(grid_dir / "grid_truth.csv", delimiter=",")
        assert grid.shape == truth.shape == (22, 22)
        assert ((grid >= 0) & (grid <= 1)).all()
        assert set(np.unique(truth)) <= {0.0, 1.0}

    def test_truth_quadrant_value(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        grid_dir = tmp_path / "grid"
        run([
            "grid", "--config", xor_config, "--chain", out / "chain_00.csv",
            "--out-dir", grid_dir, "--bounds", 0, 1, "--resolution", 2,
        ])
        truth = np.loadtxt(grid_dir / "grid_truth.csv", delimiter=",")
        np.testing.assert_array_equal(truth, [[0, 1], [1, 0]])


class TestTracesAndBoxplot:
    def test_traces_columns_and_marker(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        trace_dir = tmp_path / "traces"
        assert run([
            "traces", "--chains", out / "chain_00.csv", out / "chain_01.csv",
            "--coords", 8, "--out-dir", trace_dir,
        ]) == 0
        lines = (trace_dir / "traces.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,burnin,chain0_coord8,chain1_coord8"
        assert len(lines) == 401
        markers = [int(line.split(",")[1]) for line in lines[1:]]
        assert sum(markers) == 100  # burn-in from metadata
        assert markers[:100] == [1] * 100

    def test_traces_coordinate_bounds(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        code = run(["traces", "--chains", out / "chain_00.csv", "--coords", 9,
                    "--out-dir", tmp_path])
        assert code == 4

    def test_boxplot_accuracy_list(self, tmp_path, xor_config):
        out = tmp_path / "chains"
        run(["sample", "--config", xor_config, "--out-dir", out])
        box_dir = tmp_path / "box"
        assert run([
            "boxplot-data", "--config", xor_config, "--chains",
            out / "chain_00.csv", out / "chain_01.csv", "--out-dir", box_dir,
        ]) == 0
        lines = (box_dir / "boxplot_accuracies.csv").read_text().strip().splitlines()
        assert lines[0] == "chain,accuracy"
        assert len(lines) == 3


class TestSgdCommand:
    def test_small_ensemble(self, tmp_path, capsys):
        out = tmp_path / "sgd"
        assert run([
            "sgd-ensemble", "--dataset", "noisy-xor", "--arch", "2,2,1",
            "--epochs", 40, "--batch-size", 50, "--learning-rate", 0.05,
            "--accept-threshold", 0.6, "--ensemble-size", 2, "--max-sessions", 20,
            "--seed", 2, "--out-dir", out,
        ]) == 0
        solutions = np.loadtxt(out / "sgd_solutions.csv", delimiter=",")
        assert solutions.shape == (2, 9)


class TestErrors:
    def test_unknown_config_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bogus": 1}))
        assert run(["sample", "--config", path, "--out-dir", tmp_path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    @pytest.mark.parametrize("section,patch", [
        ("sampler", {"kind": "MH", "proposal_varaince": 0.5}),
        ("sampler", {"kind": "HMC", "leapfrog_steps": 5, "step_size": 0.1, "proposal_variance": 0.5}),
        ("sampler", {"kind": "PP", "temperatures": [0.5, 1.0], "leapfrog_steps": 5}),
        ("sampler", {"kind": "NUTS"}),
        ("sampler", {"kind": 3}),
        ("sampler", {"kind": "MH", "proposal_variance": None}),
        ("dataset", {"name": "noisy-xor", "seed": 0, "train_per_corne": 10}),
        ("dataset", {"name": "hawks", "seed": 0}),
        ("dataset", {"train": "a.csv", "test": "b.csv", "labels": "y"}),
        ("architecture", {"layer_widths": [2, 2, 1], "activation": "tanh"}),
        ("architecture", {"layer_widths": [2, 2, 1], "hidden_activation": "swish"}),
    ])
    def test_bad_section_is_config_error(self, tmp_path, xor_config, capsys, section, patch):
        doc = json.loads(xor_config.read_text())
        doc[section] = patch
        xor_config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run(["sample", "--config", xor_config, "--out-dir", out]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("iterations", "100"),
        ("iterations", 100.0),
        ("num_chains", True),
        ("burnin", None),
        ("tail", [10]),
        ("seed", -1),
        ("seed", "3"),
        ("prior_variance", "10"),
        ("sampler", "MH"),
        ("dataset", ["noisy-xor"]),
        ("architecture", [2, 2, 1]),
    ])
    def test_bad_field_type_is_config_error(self, tmp_path, xor_config, capsys, field, value):
        doc = json.loads(xor_config.read_text())
        doc[field] = value
        xor_config.write_text(json.dumps(doc))
        assert run(["sample", "--config", xor_config, "--out-dir", tmp_path / "out"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"

    def test_sampler_flag_of_another_kind_starts_a_fresh_section(self, tmp_path, xor_config):
        """--sampler HMC on a config with an MH sampler section drops the MH
        keys; the same kind keeps the section."""
        out = tmp_path / "hmc"
        assert run([
            "sample", "--config", xor_config, "--sampler", "HMC", "--leapfrog-steps", 2,
            "--iterations", 150, "--out-dir", out,
        ]) == 0
        assert json.loads((out / "experiment.json").read_text())["sampler"] == {
            "kind": "HMC", "leapfrog_steps": 2,
        }
        assert json.loads((out / "chain_00.json").read_text())["sampler"] == "HMC"
        out = tmp_path / "mh"
        assert run(["sample", "--config", xor_config, "--sampler", "MH", "--iterations", 150, "--out-dir", out]) == 0
        assert json.loads((out / "experiment.json").read_text())["sampler"] == {
            "kind": "MH", "proposal_variance": 0.05,
        }

    def test_sampler_flags_without_config(self, tmp_path):
        """The built-in MH section gives way to --sampler HMC and its flags."""
        out = tmp_path / "out"
        assert run([
            "sample", "--dataset", "noisy-xor", "--sampler", "HMC", "--leapfrog-steps", 2,
            "--step-size", 0.1, "--num-chains", 1, "--iterations", 20, "--burnin", 5, "--tail", 10,
            "--out-dir", out,
        ]) == 0
        assert np.loadtxt(out / "chain_00.csv", delimiter=",").shape == (20, 9)

    def test_truncated_chain_is_io_error(self, tmp_path, xor_config, capsys):
        out = tmp_path / "chains"
        assert run(["sample", "--config", xor_config, "--out-dir", out]) == 0
        csv_path = out / "chain_01.csv"
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:300]))
        assert run(["diagnose", "--chains", out / "chain_00.csv", csv_path]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and "300 rows" in err["message"]

    def test_missing_chain_file(self, tmp_path, capsys):
        assert run(["diagnose", "--chains", tmp_path / "nope.csv"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_invalid_burnin(self, tmp_path, xor_config, capsys):
        assert run([
            "sample", "--config", xor_config, "--burnin", 400, "--out-dir", tmp_path,
        ]) == 2

    def test_predict_without_chains(self, tmp_path, xor_config, capsys):
        """An empty chain set is a config error, not a NaN accuracy."""
        pred = tmp_path / "pred"
        assert run(["predict", "--config", xor_config, "--out-dir", pred]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not (pred / "accuracy_summary.json").exists()

    def test_json_output_rejects_nan(self):
        with pytest.raises(ValueError):
            cli._json_text({"mean_accuracy": float("nan")})

    def test_output_dir_env(self, tmp_path, xor_config, monkeypatch):
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(env_dir))
        assert run(["generate-data", "--train-per-corner", 2, "--test-per-corner", 1]) == 0
        assert (env_dir / "noisy_xor_train.csv").exists()


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, bayesmlp.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
