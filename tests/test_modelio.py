"""Model files: save/load round trips, hash checks, CSV export."""

import json
from pathlib import Path

import numpy as np
import pytest

from nnadc.dse import CostTable
from nnadc.errors import ConfigError, ModelRefError
from nnadc.modelio import (
    canonical_json,
    config_hash,
    load_cost_table,
    load_pipeline,
    load_stage,
    save_pipeline,
    save_stage,
    write_csv,
)
from nnadc.crossbar import DeviceGrid
from nnadc.pipeline import PipelineConfig, convert
from nnadc.signal_core import StageSpec
from nnadc.trainer import TrainConfig, train_stage


class TestHashing:
    def test_canonical_json_key_order(self):
        assert canonical_json({"b": 1, "a": 2}) == \
            canonical_json({"a": 2, "b": 1})

    def test_hash_changes_with_content(self):
        assert config_hash({"seed": 1}) != config_hash({"seed": 2})
        assert len(config_hash({})) == 16


class TestStageRoundTrip:
    def test_exact_round_trip(self, tiny_stage, tmp_path):
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path, run_hash="abc123")
        loaded = load_stage(path)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(loaded.subadc, name),
                                          getattr(tiny_stage.subadc, name))
        for a, b in zip(loaded.residue_layers, tiny_stage.residue_layers):
            np.testing.assert_array_equal(a.g_u, b.g_u)
            np.testing.assert_array_equal(a.g_l, b.g_l)
        assert loaded.family.members == tiny_stage.family.members
        assert loaded.bias_drive == tiny_stage.bias_drive
        assert loaded.spec == tiny_stage.spec

    def test_conductances_survive_as_decimal_text(self, tiny_stage, tmp_path):
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path)
        raw = json.loads(path.read_text())
        g = raw["subadc_layers"][0]["g_u_siemens"]
        assert isinstance(g[0][0], str)

    def test_rejects_wrong_kind(self, tiny_stage, tmp_path):
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path)
        data = json.loads(path.read_text())
        data["kind"] = "pipeline"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_stage(path)

    def test_rejects_wrong_schema_version(self, tiny_stage, tmp_path):
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path)
        data = json.loads(path.read_text())
        data["schema_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError):
            load_stage(path)

    @pytest.mark.parametrize("field, value, error", [
        ("subadc", None, "KeyError"), ("grid", [1], "TypeError")])
    def test_malformed_field_is_model_ref_error(self, tiny_stage, tmp_path,
                                                field, value, error):
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path)
        data = json.loads(path.read_text())
        if value is None:
            del data[field]
        else:
            data[field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ModelRefError,
                           match=f"stage model file {path}: {error}"):
            load_stage(path)

    def test_code_table_round_trip(self, tiny_stage, tmp_path):
        """A stage with its own smooth-code table decodes with it after
        loading; 1 bit over 3 wires has no built-in table."""
        spec = StageSpec(resolution_bits=1, smooth_width=3,
                         code_table=((0, 0, 0), (1, 1, 1)))
        cfg = TrainConfig(batch_size=64, total_iters=8, projection_period=4,
                          refine_passes=0, seed=5)
        stage = train_stage(spec, tiny_stage.enc, tiny_stage.family,
                            DeviceGrid(), cfg)
        path = tmp_path / "stage.json"
        save_stage(stage, path)
        loaded = load_stage(path)
        assert loaded.spec == spec
        hash(loaded.spec)  # the frozen spec stays hashable
        assert loaded.spec.codes() == spec.codes()
        v = np.linspace(0, 1, 64)

        def conv(st):
            return convert(PipelineConfig(stages=(st, st), enc=st.enc), v)
        np.testing.assert_array_equal(conv(loaded), conv(stage))


class TestPipelineFiles:
    def test_round_trip_and_identical_conversion(self, tiny_stage, tmp_path):
        sp = tmp_path / "s.json"
        save_stage(tiny_stage, sp, run_hash="h1")
        pp = tmp_path / "p.json"
        save_pipeline(pp, [sp, sp], tiny_stage.enc, run_hash="h1")
        p = load_pipeline(pp)
        assert p.reso == 2
        v = np.linspace(0, 1, 32)
        direct = PipelineConfig(stages=(tiny_stage, tiny_stage),
                                enc=tiny_stage.enc)
        np.testing.assert_array_equal(convert(p, v), convert(direct, v))

    def test_relative_stage_refs(self, tiny_stage, tmp_path, monkeypatch):
        # stage paths relative to the working directory are stored
        # relative to the pipeline file's folder
        monkeypatch.chdir(tmp_path)
        Path("out2").mkdir()
        save_stage(tiny_stage, "out2/s.json")
        pp = Path("out2/p.json")
        save_pipeline(pp, ["out2/s.json"], tiny_stage.enc)
        assert json.loads(pp.read_text())["stages"] == ["s.json"]
        assert load_pipeline(pp).reso == 1
        moved = Path("moved")
        Path("out2").rename(moved)
        assert load_pipeline(moved / "p.json").reso == 1

    def test_missing_stage_ref(self, tiny_stage, tmp_path):
        pp = tmp_path / "p.json"
        save_pipeline(pp, [tmp_path / "nope.json"], tiny_stage.enc)
        with pytest.raises(ModelRefError):
            load_pipeline(pp)

    def test_hash_mismatch_detected(self, tiny_stage, tmp_path):
        sp = tmp_path / "s.json"
        save_stage(tiny_stage, sp, run_hash="old")
        pp = tmp_path / "p.json"
        save_pipeline(pp, [sp], tiny_stage.enc, run_hash="new")
        with pytest.raises(ModelRefError):
            load_pipeline(pp, check_hash="new")
        assert load_pipeline(pp, check_hash=None).reso == 1


class TestTables:
    def test_cost_table_file(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({
            "1": {"power": 1e-3, "rate": 1e9, "area": 2e-3},
            "2": {"power": 3e-3, "rate": 5e8, "area": 4e-3}}))
        table = load_cost_table(path)
        assert isinstance(table, CostTable)
        assert table.entries[2].rate == pytest.approx(5e8)

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "3,4"
