"""Experiment configuration files and seed splitting."""

import json

import numpy as np
import pytest

from nnadc.config import ExperimentConfig, split_seed
from nnadc.crossbar import DeviceGrid, PerturbationSpec
from nnadc.dse import StageCost
from nnadc.errors import ConfigError, DeviceError, NnadcError
from nnadc.pipeline import IdealStage, McEvalSpec, PipelineConfig, convert
from nnadc.signal_core import (EncodingScheme, StageSpec, ideal_adc,
                               sine_stimulus)
from nnadc.trainer import TrainConfig
from nnadc.vtc import VariationSpec, VtcFamily, VtcParams


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
        # the encoding range follows vdd
        assert (cfg.encoding.v_min, cfg.encoding.v_max) == (0.0, 1.2)

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
        ({"cost_table": [1]}, "cost_table"),
        # an encoding range other than [0, vdd]
        ({"vdd": 2.0, "encoding": {"v_max": 1.0}}, "encoding"),
        ({"encoding": {"v_min": 0.5}}, "encoding")])
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

    @pytest.mark.parametrize("data, key", [
        ({"v_m_std_ratio": -0.01}, "v_m_std_ratio"),
        ({"s_rel_std": -0.1}, "s_rel_std"),
        ({"s_rel_std": float("nan")}, "s_rel_std"),
        ({"v_m_std_ratio": float("inf")}, "v_m_std_ratio"),
        ({"stimulus_bin": 3001}, "stimulus_bin"),
        ({"stimulus_bin": -1}, "stimulus_bin"),
        ({"stimulus_bin": 0}, "stimulus_bin"),
        ({"stimulus_n": 64, "stimulus_bin": 32}, "stimulus_bin"),
        ({"vdd": -1, "encoding": {"kind": "logarithmic"}}, "vdd"),
        ({"vdd": float("nan"), "encoding": {}}, "vdd"),
        ({"family_size": -5}, "family_size"),
        ({"family_size": 0}, "family_size"),
        ({"mc_runs": 0}, "mc_runs"),
        ({"mc_sigma": -1}, "mc_sigma"),
        ({"mc_sigma": float("nan")}, "mc_sigma"),
        ({"mc_sigma": float("inf")}, "mc_sigma")])
    def test_rejects_out_of_range_value(self, data, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig.from_dict(data)
        with pytest.raises(ConfigError, match=f"^{key}: "):
            ExperimentConfig(**data)

    def test_accepts_range_edges(self):
        cfg = ExperimentConfig.from_dict({
            "vdd": 2, "v_m_std_ratio": 0, "s_rel_std": 0.0, "stimulus_n": 64,
            "stimulus_bin": 31, "encoding": {"v_min": 0, "v_max": 2}})
        assert cfg.encoding == EncodingScheme(v_min=0.0, v_max=2.0)
        assert cfg.stimulus_bin == 31

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
        np.testing.assert_array_equal(a.v_m, b.v_m)
        np.testing.assert_array_equal(a.s, b.s)
        assert len(a) == 20
        cfg2 = ExperimentConfig.from_dict({"seed": 10, "family_size": 20})
        c = cfg2.family()
        assert not np.array_equal(c.v_m, a.v_m)
        assert not np.array_equal(c.s, a.s)

    def test_encoding_spans_vdd(self):
        """An ideal 8-stage conversion at vdd 2 uses the whole code range
        and agrees with the flat quantizer."""
        cfg = ExperimentConfig.from_dict({"vdd": 2.0})
        stage = IdealStage(StageSpec(resolution_bits=1, vdd=2.0), cfg.encoding)
        p = PipelineConfig(stages=(stage,) * 8, enc=cfg.encoding)
        stim = sine_stimulus(cfg.stimulus_n, cfg.stimulus_bin, 0.4999,
                             cfg.encoding, cfg.vdd)
        codes = convert(p, stim.samples, "ideal")
        np.testing.assert_array_equal(codes, ideal_adc(stim.samples, 8,
                                                       cfg.encoding))
        assert (codes.min(), codes.max()) == (0, 255)

    def test_encoding_follows_vdd_in_code(self):
        """A config built in code spans [0, vdd] as a config file does,
        and refuses an explicit encoding with another range."""
        assert ExperimentConfig(vdd=2.0).encoding.v_max == 2.0
        log = EncodingScheme(kind="logarithmic", v_max=2.0)
        assert ExperimentConfig(vdd=2.0, encoding=log).encoding == log
        with pytest.raises(ConfigError, match="^encoding: "):
            ExperimentConfig(vdd=2.0, encoding=EncodingScheme())

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


VTC = {"v_m": 0.5, "s": 1.0 / 30.0, "v_high": 2.5}
FAMILY = {"v_m": [0.5], "s": [0.03], "nominal": VtcParams(**VTC)}
COST = {"power": 1e-3, "rate": 1e9, "area": 1e-3}
# (constructor, valid keyword arguments, numeric fields, typed error) of
# every spec a config, a stage file or a caller sets
SPECS = [
    (DeviceGrid, {}, ("g_off", "g_on"), DeviceError),
    (StageSpec, {"resolution_bits": 1}, ("vdd",), ConfigError),
    (VtcParams, VTC, ("v_m", "s", "v_high", "v_low"), ConfigError),
    (VtcFamily, FAMILY, ("v_m", "s"), ConfigError),
    (EncodingScheme, {}, ("v_min", "v_max"), ConfigError),
    (TrainConfig, {}, ("lr_start", "lr_end"), ConfigError),
    (StageCost, COST, ("power", "rate", "area"), ConfigError),
    (VariationSpec, {}, ("v_m_std", "s_rel_std"), ConfigError),
    (McEvalSpec, {}, ("sigma",), ConfigError),
    (PerturbationSpec, {}, ("sigma",), DeviceError),
]
NUMERIC_FIELDS = [(build, valid, name, error)
                  for build, valid, names, error in SPECS for name in names]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build, valid, name, error", NUMERIC_FIELDS,
    ids=[f"{b.__name__}.{name}" for b, _, name, _ in NUMERIC_FIELDS])
def test_non_finite_field_refused(build, valid, name, error, bad):
    build(**valid)  # the valid arguments are accepted
    value = [bad] if build is VtcFamily else bad
    with pytest.raises(NnadcError) as exc:
        build(**{**valid, name: value})
    assert exc.type is error


@pytest.mark.parametrize("build, error", [
    (TrainConfig, ConfigError), (McEvalSpec, ConfigError),
    (PerturbationSpec, DeviceError)], ids=lambda b: b.__name__)
def test_negative_seed_refused(build, error):
    """A seed reaches ``SeedSequence``: a negative, float or bool one is
    refused with the spec's typed error, and a numpy integer passes."""
    build(seed=0)
    build(seed=np.int64(3))
    for bad in (-1, 1.5, np.float64(2.0), True):
        with pytest.raises(NnadcError, match="seed") as exc:
            build(seed=bad)
        assert exc.type is error
