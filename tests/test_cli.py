"""Command-line interface: artifacts, manifests, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nnadc.cli import (EXIT_CONFIG, EXIT_INPUT, EXIT_MODEL_REF,
                       EXIT_TRAINING, main)
from nnadc.config import split_seed


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("NNADC_OUT", str(out))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "seed": 1,
        "family_size": 10,
        "train": {"batch_size": 64, "total_iters": 64,
                  "projection_period": 16, "refine_passes": 0},
        "stimulus_n": 256,
        "stimulus_bin": 17,
        "mc_runs": 2,
        "cost_table": {
            "1": {"power": 2e-3, "rate": 1e9, "area": 1e-3},
            "2": {"power": 5e-3, "rate": 8e8, "area": 3e-3},
            "3": {"power": 9e-3, "rate": 6e8, "area": 6e-3}},
    }))
    return {"cfg": cfg, "out": out, "tmp": tmp_path}


def train_one(runner, workdir, extra=()):
    res = runner.invoke(main, ["train-stage", "--config",
                               str(workdir["cfg"]), *extra])
    assert res.exit_code == 0, res.output
    manifest = json.loads(
        (workdir["out"] / "manifest_train-stage.json").read_text())
    return Path(manifest["outputs"][0])


class TestTrainStage:
    def test_writes_model_and_manifest(self, runner, workdir):
        path = train_one(runner, workdir)
        assert path.exists()
        manifest = json.loads(
            (workdir["out"] / "manifest_train-stage.json").read_text())
        assert manifest["command"] == "train-stage"
        assert manifest["config_hash"]
        assert (workdir["out"] / "stage_metrics.csv").exists()

    def test_seed_override_reproducible(self, runner, workdir):
        a = train_one(runner, workdir, ["--seed", "7"])
        text_a = a.read_text()
        b = train_one(runner, workdir, ["--seed", "7"])
        assert b.read_text() == text_a

    def test_precision_override(self, runner, workdir):
        path = train_one(runner, workdir, ["--ar", "2"])
        assert "_ar2_" in path.name
        assert json.loads(path.read_text())["grid"]["precision_bits"] == 2

    def test_non_finite_loss_exit_code(self, runner, workdir, monkeypatch):
        monkeypatch.setattr("nnadc.trainer.backprop",
                            lambda *args, **kwargs: (np.nan, {}))
        res = runner.invoke(main, ["train-stage", "--config",
                                   str(workdir["cfg"])])
        assert res.exit_code == EXIT_TRAINING, res.output
        seed = split_seed(1, "train-n1")  # the workdir config's seed is 1
        assert (f"error: subadc loss became non-finite (seed {seed}, "
                "iteration 0)") in res.output
        assert not (workdir["out"] / "stage_metrics.csv").exists()

    def test_bad_config_exit_code(self, runner, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        res = runner.invoke(main, ["train-stage", "--config", str(bad)])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("field, value", [
        ("vdd", "1"), ("stimulus_n", 1000), ("v_m_std_ratio", -0.01),
        ("s_rel_std", -0.1), ("s_rel_std", float("nan")),
        ("stimulus_bin", 3001), ("stimulus_bin", -1),
        ("encoding", {"v_max": 2.0}), ("family_size", -5), ("mc_runs", 0),
        ("mc_sigma", -1)])
    def test_bad_field_exit_code(self, runner, workdir, field, value):
        cfg = json.loads(workdir["cfg"].read_text())
        cfg[field] = value
        workdir["cfg"].write_text(json.dumps(cfg))
        res = runner.invoke(main, ["train-stage", "--config",
                                   str(workdir["cfg"])])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert res.exception is None or isinstance(res.exception,
                                                    SystemExit)
        assert f"error: {field}" in res.output

    @pytest.mark.parametrize("train, args, message", [
        ({"batch_size": 16.5}, [], "batch_size: expected int, got float"),
        ({"total_iters": 4.5}, [], "total_iters: expected int"),
        ({"refine_passes": 0.5}, [], "refine_passes: expected int"),
        ({"projection_period": 2.5}, [], "projection_period: expected int"),
        ({"refine_hops": 1.5}, [], "refine_hops: expected int"),
        ({"batch_size": True}, [], "batch_size: expected int, got bool"),
        ({"seed": 1.5}, [], "seed: expected int, got float"),
        ({"seed": -1}, [], "seed: -1 is negative"),
        ({}, ["--seed", "-1"], "seed: -1 is negative"),
        ({"lr_start": True}, [],
         "lr_start: expected a real number, got bool True"),
        ({"lr_end": True}, [], "lr_end: expected a real number, got bool")],
        ids=["batch-float", "iters-float", "passes-float", "period-float",
             "hops-float", "batch-bool", "seed-float", "train-seed",
             "seed-flag", "lr-start-bool", "lr-end-bool"])
    def test_bad_train_count_exit_code(self, runner, workdir, train, args,
                                       message):
        cfg = json.loads(workdir["cfg"].read_text())
        cfg["train"].update(train)
        workdir["cfg"].write_text(json.dumps(cfg))
        res = runner.invoke(main, ["train-stage", "--config",
                                   str(workdir["cfg"]), *args])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert isinstance(res.exception, SystemExit)
        assert message in res.output
        assert not (workdir["out"] / "stage_metrics.csv").exists()

    @pytest.mark.parametrize("extra, message", [
        ({"mc_run": 5}, "unknown config key(s): mc_run"),
        ({"grid": {"g_off": 2e-5}}, "grid: DeviceError"),
        ({"cost_table": {"1": {"power": 1}}}, "cost_table: KeyError"),
        ({"train": {"beta1": 0.5}}, "train: TypeError"),
        ({"grid": {"g_on": float("inf")}},
         "grid: DeviceError: need 0 < g_off < g_on < inf"),
        ({"grid": {"g_off": float("nan")}}, "grid: DeviceError"),
        ({"train": {"lr_start": float("nan")}},
         "train: ConfigError: learning rates must be positive and finite"),
        ({"train": {"lr_end": float("inf")}}, "train: ConfigError"),
        ({"grid": {"precision_bits": 2.5}},
         "grid: DeviceError: precision_bits: expected int, got float 2.5"),
        ({"grid": {"precision_bits": True}},
         "grid: DeviceError: precision_bits: expected int, got bool True"),
        ({"grid": {"g_off": True, "g_on": 2.0}},
         "grid: DeviceError: g_off: expected a real number, got bool True"),
        ({"grid": {"g_on": True}},
         "grid: DeviceError: g_on: expected a real number, got bool True")])
    def test_bad_key_or_block_exit_code(self, runner, workdir, extra,
                                        message):
        cfg = {**json.loads(workdir["cfg"].read_text()), **extra}
        workdir["cfg"].write_text(json.dumps(cfg))
        res = runner.invoke(main, ["train-stage", "--config",
                                   str(workdir["cfg"])])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"error: {message}" in res.output


class TestPipelineCommands:
    def test_build_simulate_mc(self, runner, workdir):
        stage = train_one(runner, workdir)
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", f"{stage},{stage}"])
        assert res.exit_code == 0, res.output
        pipe = workdir["out"] / "pipeline.json"
        assert pipe.exists()

        res = runner.invoke(main, [
            "simulate", "--config", str(workdir["cfg"]),
            "--pipeline", str(pipe), "--mode", "ideal"])
        assert res.exit_code == 0, res.output
        assert "ENOB" in res.output
        trace = (workdir["out"] / "trace.csv").read_text().splitlines()
        assert trace[0] == "input_v,code,reconstructed_v"
        assert len(trace) == 257

        res = runner.invoke(main, [
            "mc-eval", "--config", str(workdir["cfg"]),
            "--pipeline", str(pipe), "--runs", "2", "--sigma", "0.05"])
        assert res.exit_code == 0, res.output
        mc = (workdir["out"] / "mc_eval.csv").read_text().splitlines()
        assert len(mc) == 3

        res = runner.invoke(main, [
            "export", "--config", str(workdir["cfg"]),
            "--pipeline", str(pipe), "--mode", "ideal"])
        assert res.exit_code == 0, res.output
        assert (workdir["out"] / "spectrum.csv").exists()

    @pytest.mark.parametrize("sigma", ["nan", "-0.1"])
    def test_bad_mc_sigma_exit_code(self, runner, workdir, sigma):
        stage = train_one(runner, workdir)
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [
            "mc-eval", "--config", str(workdir["cfg"]),
            "--pipeline", str(workdir["out"] / "pipeline.json"),
            "--sigma", sigma])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "error: Monte Carlo sigma" in res.output
        assert not (workdir["out"] / "mc_eval.csv").exists()

    def test_overflowing_mc_sigma_exit_code(self, runner, workdir):
        """A sigma that drives a conductance to 0 or infinity ends in one
        error line naming it, with no numpy warning."""
        stage = train_one(runner, workdir)
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [
            "mc-eval", "--config", str(workdir["cfg"]),
            "--pipeline", str(workdir["out"] / "pipeline.json"),
            "--sigma", "1000"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.splitlines() == [
            "error: sigma 1000.0 drives a conductance to 0 or infinity"]
        assert not (workdir["out"] / "mc_eval.csv").exists()

    def test_other_nnadc_error_exit_code(self, runner, workdir):
        stage = train_one(runner, workdir)
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == 0, res.output
        pipe = workdir["out"] / "pipeline.json"
        # bin 16 shares a factor with the 256-point record: CoherenceError
        cfg = json.loads(workdir["cfg"].read_text())
        cfg["stimulus_bin"] = 16
        other = workdir["tmp"] / "even_bin.json"
        other.write_text(json.dumps(cfg))
        res = runner.invoke(main, [
            "simulate", "--config", str(other), "--pipeline", str(pipe),
            "--mode", "ideal", "--force"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert "error: J = 16" in res.output

    def test_off_grid_stage_weight_exit_code(self, runner, workdir):
        stage = train_one(runner, workdir)
        data = json.loads(stage.read_text())
        data["subadc"]["w1"][0][0] *= 0.99
        stage.write_text(json.dumps(data))
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"error: {stage}: subadc network: weight at (0, 0)" \
            in res.output
        assert not (workdir["out"] / "pipeline.json").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_stage_weight_exit_code(self, runner, workdir, bad):
        stage = train_one(runner, workdir)
        data = json.loads(stage.read_text())
        data["residue"]["b2"][0] = float(bad)
        stage.write_text(json.dumps(data))
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == EXIT_INPUT, res.output
        assert (f"error: {stage}: residue network: weight at (5, 0) = {bad} "
                "is not on the 3-bit grid") in res.output

    @pytest.mark.parametrize("block, key, value, code, message", [
        ("nominal", "s", "nan", EXIT_CONFIG, "transition scale"),
        ("nominal", "v_high", "inf", EXIT_CONFIG, "need finite rails"),
        ("spec", "vdd", "inf", EXIT_CONFIG, "vdd must be positive"),
        ("encoding", "v_max", "nan", EXIT_CONFIG, "need a finite range"),
        ("grid", "g_on", "inf", EXIT_INPUT, "need 0 < g_off < g_on < inf")])
    def test_non_finite_stage_field_exit_code(self, runner, workdir, block,
                                              key, value, code, message):
        """A stage file's non-finite curve, vdd, range or grid is refused
        when it is loaded, in a message that names the file."""
        stage = train_one(runner, workdir)
        data = json.loads(stage.read_text())
        data[block][key] = float(value)
        stage.write_text(json.dumps(data))
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == code, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"error: {stage}: {message}" in res.output
        assert not (workdir["out"] / "pipeline.json").exists()

    def test_terminal_stage_before_last_exit_code(self, runner, workdir):
        stage = train_one(runner, workdir, ["--terminal"])
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", f"{stage},{stage}"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert "error: residue requested from a residue-less" in res.output
        assert not (workdir["out"] / "pipeline.json").exists()

    def test_missing_stage_ref_exit_code(self, runner, workdir):
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", "no_such_stage.json"])
        assert res.exit_code == EXIT_MODEL_REF
        assert not (workdir["out"] / "pipeline.json").exists()

    def test_relative_output_folder(self, runner, workdir, monkeypatch):
        # train-stage reports its model under a relative NNADC_OUT as a
        # path relative to the working directory; build-pipeline takes
        # that path as it is
        monkeypatch.chdir(workdir["tmp"])
        monkeypatch.setenv("NNADC_OUT", "out2")
        res = runner.invoke(main, ["train-stage", "--config",
                                   str(workdir["cfg"])])
        assert res.exit_code == 0, res.output
        manifest = json.loads(Path("out2/manifest_train-stage.json")
                              .read_text())
        stage = manifest["outputs"][0]
        assert not Path(stage).is_absolute()
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", f"{stage},{stage}"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, [
            "simulate", "--config", str(workdir["cfg"]),
            "--pipeline", "out2/pipeline.json"])
        assert res.exit_code == 0, res.output
        assert "ENOB" in res.output

    @pytest.mark.parametrize("command, content", [
        ("simulate", "{broken"), ("simulate", None),
        ("build-pipeline", "{broken")],
        ids=["simulate-bad-json", "simulate-missing", "build-bad-json"])
    def test_unreadable_model_file_exit_code(self, runner, workdir, command,
                                             content):
        path = workdir["tmp"] / "model.json"
        if content is not None:
            path.write_text(content)
        flag = "--pipeline" if command == "simulate" else "--stages"
        res = runner.invoke(main, [command, "--config", str(workdir["cfg"]),
                                   flag, str(path)])
        assert res.exit_code == EXIT_MODEL_REF, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"model file {path}: " in res.output
        assert not (workdir["out"] / "pipeline.json").exists()

    def test_foreign_model_rejected_without_force(self, runner, workdir,
                                                  tmp_path):
        stage = train_one(runner, workdir)
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", str(stage)])
        assert res.exit_code == 0
        pipe = workdir["out"] / "pipeline.json"
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"seed": 999}))
        res = runner.invoke(main, [
            "simulate", "--config", str(other), "--pipeline", str(pipe)])
        assert res.exit_code == EXIT_MODEL_REF
        res = runner.invoke(main, [
            "simulate", "--config", str(other), "--pipeline", str(pipe),
            "--force"])
        assert res.exit_code == 0, res.output


class TestDse:
    def test_ranked_csv(self, runner, workdir):
        res = runner.invoke(main, ["dse", "--config", str(workdir["cfg"]),
                                   "--reso", "6"])
        assert res.exit_code == 0, res.output
        rows = (workdir["out"] / "dse_ranked.csv").read_text().splitlines()
        assert rows[0].startswith("rank,composition")
        assert len(rows) == 25  # tribonacci(6) compositions + header

    def test_missing_table(self, runner, workdir, tmp_path):
        cfg = tmp_path / "no_table.json"
        cfg.write_text(json.dumps({"seed": 1}))
        res = runner.invoke(main, ["dse", "--config", str(cfg),
                                   "--reso", "4"])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("table, message", [
        (None, "FileNotFoundError"),
        ("{broken", "JSONDecodeError"),
        (json.dumps({"1": {"power": 2e-3, "area": 1e-3}}), "KeyError"),
        (json.dumps({"1": {"power": float("nan"), "rate": 1e9, "area": 1}}),
         "ConfigError: cost entries must be positive and finite")],
        ids=["missing", "bad-json", "no-rate", "nan-power"])
    def test_bad_table_file_exit_code(self, runner, workdir, table, message):
        path = workdir["tmp"] / "table.json"
        if table is not None:
            path.write_text(table)
        res = runner.invoke(main, ["dse", "--config", str(workdir["cfg"]),
                                   "--reso", "4", "--table", str(path)])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert isinstance(res.exception, SystemExit)
        assert f"error: cost table {path}: {message}" in res.output

    @pytest.mark.parametrize("field, value", [
        ("power", "nan"), ("rate", "inf"), ("area", "nan")])
    def test_non_finite_cost_exit_code(self, runner, workdir, field, value):
        cfg = json.loads(workdir["cfg"].read_text())
        cfg["cost_table"]["2"][field] = float(value)
        workdir["cfg"].write_text(json.dumps(cfg))
        res = runner.invoke(main, ["dse", "--config", str(workdir["cfg"]),
                                   "--reso", "4"])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert isinstance(res.exception, SystemExit)
        assert ("error: cost_table: ConfigError: cost entries must be "
                "positive and finite") in res.output
        assert not (workdir["out"] / "dse_ranked.csv").exists()


class TestSweep:
    @pytest.mark.parametrize("ar_list", ["2,3", "2..3"])
    def test_small_sweep_csv(self, runner, workdir, ar_list):
        res = runner.invoke(main, [
            "sweep-precision", "--config", str(workdir["cfg"]),
            "--n", "1", "--ar", ar_list, "--runs", "2", "--sigma", "0.05"])
        assert res.exit_code == 0, res.output
        rows = (workdir["out"] / "sweep_precision.csv").read_text().splitlines()
        assert rows[0] == "n,ar,median_subadc_enob,median_residue_mse"
        assert len(rows) == 3
        ars = [int(r.split(",")[1]) for r in rows[1:]]
        assert ars == [2, 3]

    @pytest.mark.parametrize("sigma", ["nan", "-0.1"])
    def test_bad_sigma_exit_code(self, runner, workdir, monkeypatch, sigma):
        def no_training(*args, **kwargs):
            raise AssertionError("a bad sigma must be refused before training")
        monkeypatch.setattr("nnadc.trainer.train_stage", no_training)
        res = runner.invoke(main, [
            "sweep-precision", "--config", str(workdir["cfg"]),
            "--n", "1", "--ar", "2", "--runs", "2", "--sigma", sigma])
        assert res.exit_code == EXIT_CONFIG, res.output
        assert "error: Monte Carlo sigma" in res.output
        assert not (workdir["out"] / "sweep_precision.csv").exists()

    @pytest.mark.parametrize("option, value, code, message", [
        ("--ar", "x", EXIT_CONFIG, "not a list of integers"),
        ("--ar", "2..", EXIT_CONFIG, "not a list of integers"),
        ("--ar", "3..1", EXIT_CONFIG, "not a list of integers"),
        ("--n", "", EXIT_CONFIG, "not a list of integers"),
        ("--runs", "0", EXIT_CONFIG, "need at least one Monte Carlo run"),
        ("--n", "1,4", EXIT_CONFIG, "stage resolution must be 1..3"),
        ("--ar", "3,9", EXIT_INPUT, "precision_bits must be 1..7")],
        ids=["ar-text", "ar-open-range", "ar-empty-range", "n-empty",
             "runs-0", "n-4", "ar-9"])
    def test_bad_point_or_runs_exit_code(self, runner, workdir, monkeypatch,
                                         option, value, code, message):
        def no_training(*args, **kwargs):
            raise AssertionError("a bad argument must be refused before "
                                 "training")
        monkeypatch.setattr("nnadc.trainer.train_stage", no_training)
        args = {"--n": "1", "--ar": "2", "--runs": "2", "--sigma": "0.05",
                option: value}
        res = runner.invoke(main, ["sweep-precision", "--config",
                                   str(workdir["cfg"]),
                                   *(x for kv in args.items() for x in kv)])
        assert res.exit_code == code, res.output
        assert f"error: {message}" in res.output
        assert not (workdir["out"] / "sweep_precision.csv").exists()
