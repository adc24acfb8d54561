"""Command-line interface: artifacts, manifests, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nnadc.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_MODEL_REF, main


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

    def test_bad_config_exit_code(self, runner, workdir, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        res = runner.invoke(main, ["train-stage", "--config", str(bad)])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("field, value", [("vdd", "1"),
                                              ("stimulus_n", 1000)])
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

    @pytest.mark.parametrize("extra, message", [
        ({"mc_run": 5}, "unknown config key(s): mc_run"),
        ({"grid": {"g_off": 2e-5}}, "grid: DeviceError"),
        ({"cost_table": {"1": {"power": 1}}}, "cost_table: KeyError")])
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

    def test_missing_stage_ref_exit_code(self, runner, workdir):
        res = runner.invoke(main, [
            "build-pipeline", "--config", str(workdir["cfg"]),
            "--stages", "no_such_stage.json"])
        assert res.exit_code == EXIT_MODEL_REF

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


class TestSweep:
    def test_small_sweep_csv(self, runner, workdir):
        res = runner.invoke(main, [
            "sweep-precision", "--config", str(workdir["cfg"]),
            "--n", "1", "--ar", "2,3", "--runs", "2", "--sigma", "0.05"])
        assert res.exit_code == 0, res.output
        rows = (workdir["out"] / "sweep_precision.csv").read_text().splitlines()
        assert rows[0] == "n,ar,median_subadc_enob,median_residue_mse"
        assert len(rows) == 3
        ars = [int(r.split(",")[1]) for r in rows[1:]]
        assert ars == [2, 3]
