"""Experiment configuration files and seed splitting."""

import json

import pytest

from nnadc.config import ExperimentConfig, split_seed
from nnadc.errors import ConfigError


class TestSeedSplitting:
    def test_deterministic(self):
        assert split_seed(7, "train") == split_seed(7, "train")

    def test_distinct_per_component(self):
        assert split_seed(7, "train") != split_seed(7, "mc-eval")

    def test_distinct_per_master(self):
        assert split_seed(7, "train") != split_seed(8, "train")


class TestFromDict:
    def test_defaults(self):
        cfg = ExperimentConfig.from_dict({})
        assert cfg.vdd == 1.0
        assert cfg.grid.precision_bits == 3
        assert cfg.train.total_iters == 20_000

    def test_nested_overrides(self):
        cfg = ExperimentConfig.from_dict({
            "vdd": 1.2,
            "grid": {"g_off": 1e-6, "g_on": 8e-6, "precision_bits": 4},
            "train": {"total_iters": 10, "batch_size": 8,
                      "projection_period": 2},
            "encoding": {"kind": "logarithmic"},
            "seed": 42})
        assert cfg.grid.precision_bits == 4
        assert cfg.train.total_iters == 10
        assert cfg.encoding.kind == "logarithmic"

    @pytest.mark.parametrize("data, key", [
        ({"mc_run": 5}, "mc_run"),
        ({"seed": 1, "composition": [1, 1, 2]}, "composition"),
        ({"train": {"precision_bits": 3}}, "precision_bits")])
    def test_rejects_unknown_key(self, data, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("data, key", [
        ({"grid": {"g_off": 2e-5}}, "grid"),
        ({"grid": 3}, "grid"),
        ({"encoding": {"kind": "cubic"}}, "encoding"),
        ({"cost_table": {"1": {"power": 1}}}, "cost_table"),
        ({"cost_table": [1]}, "cost_table")])
    def test_bad_block_is_config_error(self, data, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig.from_dict(data)

    def test_rejects_bad_field(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"train": {"no_such_field": 1}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"vdd": -1.0})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"schema_version": 99})

    @pytest.mark.parametrize("field, value", [
        ("vdd", "1"), ("vdd", True), ("vdd", None), ("family_size", 2.5),
        ("stimulus_n", "4096"), ("stimulus_bin", 12.0), ("mc_runs", [2]),
        ("mc_sigma", "0.05"), ("output_dir", 3), ("seed", False)])
    def test_rejects_wrong_scalar_type(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig.from_dict({field: value})

    def test_accepts_int_for_float_fields(self):
        cfg = ExperimentConfig.from_dict({"vdd": 1, "mc_sigma": 0})
        assert cfg.vdd == 1 and cfg.mc_sigma == 0

    @pytest.mark.parametrize("n", [1000, 0, -4, 1, 4095])
    def test_rejects_stimulus_n_not_power_of_two(self, n):
        with pytest.raises(ConfigError, match="stimulus_n"):
            ExperimentConfig.from_dict({"stimulus_n": n})

    def test_rejects_non_object(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict([1, 2])

    def test_from_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(bad)


class TestDerived:
    def test_family_reproducible(self):
        cfg = ExperimentConfig.from_dict({"seed": 9, "family_size": 20})
        a, b = cfg.family(), cfg.family()
        assert a.members == b.members
        assert len(a) == 20
        cfg2 = ExperimentConfig.from_dict({"seed": 10, "family_size": 20})
        assert cfg2.family().members != a.members

    def test_run_hash_depends_on_content(self):
        a = ExperimentConfig.from_dict({"seed": 1})
        b = ExperimentConfig.from_dict({"seed": 2})
        assert a.run_hash() != b.run_hash()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNADC_OUT", str(tmp_path / "alt"))
        cfg = ExperimentConfig.from_dict({})
        assert cfg.out_dir() == tmp_path / "alt"
        assert (tmp_path / "alt").is_dir()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"vdd": 0.9, "seed": 3}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.vdd == 0.9
        assert cfg.raw == {"vdd": 0.9, "seed": 3}
