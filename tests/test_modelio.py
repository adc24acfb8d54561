"""Model files: save/load round trips, hash checks, CSV export."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnadc.dse import CostTable
from nnadc.errors import (ConfigError, ModelRefError, NnadcError,
                          PrecisionError)
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
from nnadc.signal_core import EncodingScheme, StageSpec
from nnadc.trainer import (MlpParams, TrainConfig, TrainedStage,
                           instantiate_net, train_stage)
from nnadc.vtc import nominal_vtc


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_stage(got, want):
    """Every field equal; weights and conductances bit for bit."""
    for f in dataclasses.fields(TrainedStage):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in ("subadc", "residue") and b is not None:
            for name in ("w1", "b1", "w2", "b2", "vtc_assignment"):
                assert_same_array(getattr(a, name), getattr(b, name))
        elif f.name.endswith("_layers") and b is not None:
            assert len(a) == len(b) == 2
            for la, lb in zip(a, b):
                assert_same_array(la.g_u, lb.g_u)
                assert_same_array(la.g_l, lb.g_l)
                assert (la.grid, la.bias_voltage) == (lb.grid,
                                                      lb.bias_voltage)
        else:
            assert a == b, f.name


def _net(draw, grid, bias_drive, f_in, hidden, f_out):
    """An on-grid network from random level indices, biases scaled by the
    bias drive as ``trainer.project`` places them."""
    def idx(shape):
        return draw(hnp.arrays(np.int64, shape,
                               elements=st.integers(0, grid.n_levels - 1)))
    lev1 = grid.weight_levels(f_in + 1)
    lev2 = grid.weight_levels(hidden + 1)
    return MlpParams(w1=lev1[idx((f_in, hidden))],
                     b1=lev1[idx(hidden)] * bias_drive,
                     w2=lev2[idx((hidden, f_out))],
                     b2=lev2[idx(f_out)] * bias_drive,
                     vtc_assignment=draw(hnp.arrays(
                         np.int64, hidden, elements=st.integers(0, 99))))


@st.composite
def stages(draw):
    """A stage as training leaves it, without the training: 1-3 bits,
    A_R 1-7, an optional residue network and an optional code table."""
    n = draw(st.integers(1, 3))
    width, table = 0, ()
    if draw(st.booleans()):
        width = draw(st.integers(n + 1, n + 3))
        bit = st.sampled_from([0, 1, 0.5])
        table = tuple(tuple(draw(st.lists(bit, min_size=width,
                                          max_size=width)))
                      for _ in range(1 << n))
    spec = StageSpec(resolution_bits=n, smooth_width=width,
                     subadc_hidden=draw(st.integers(1, 6)),
                     residue_hidden=draw(st.integers(1, 8)),
                     vdd=draw(st.sampled_from([1.0, 0.9, 1.2])),
                     code_table=table)
    grid = DeviceGrid(precision_bits=draw(st.integers(1, 7)))
    nominal = nominal_vtc(spec.vdd)
    bd = nominal.v_high
    subadc = _net(draw, grid, bd, 1, spec.subadc_hidden, spec.smooth_width)
    residue = (_net(draw, grid, bd, 1 + spec.smooth_width,
                    spec.residue_hidden, 1) if draw(st.booleans()) else None)
    metric = st.floats(allow_nan=False)
    metrics = {"subadc_enob": draw(metric)}
    if residue is not None:
        metrics["residue_mse"] = draw(metric)
    return TrainedStage(
        spec=spec, enc=draw(encodings()), nominal=nominal, grid=grid,
        bias_drive=bd, subadc=subadc,
        subadc_layers=instantiate_net(subadc, grid, bd), residue=residue,
        residue_layers=(instantiate_net(residue, grid, bd)
                        if residue is not None else None),
        train_metrics=metrics)


def encodings():
    return st.builds(EncodingScheme,
                     kind=st.sampled_from(["linear", "logarithmic"]),
                     v_min=st.sampled_from([0.0, 0.1]),
                     v_max=st.sampled_from([1.0, 1.3]))


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
        assert_same_stage(load_stage(path), tiny_stage)

    @settings(deadline=None)
    @given(stages())
    def test_any_stage_round_trips(self, stage):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stage.json"
            save_stage(stage, path)
            assert_same_stage(load_stage(path), stage)

    def test_stores_each_network_once(self, tiny_stage, tmp_path):
        """Weights and the nominal curve only: no VTC family members and
        no conductance arrays."""
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path)
        raw = json.loads(path.read_text())
        assert set(raw) == {"schema_version", "kind", "config_hash", "spec",
                            "encoding", "nominal", "grid", "bias_drive",
                            "subadc", "residue", "metrics"}
        assert set(raw["nominal"]) == {"v_m", "s", "v_high", "v_low"}
        for net in ("subadc", "residue"):
            assert set(raw[net]) == {"w1", "b1", "w2", "b2",
                                     "vtc_assignment"}

    @pytest.mark.parametrize("net, name, index", [("subadc", "w1", (0, 0)),
                                                  ("residue", "b2", (0,))],
                             ids=["subadc-w1", "residue-b2"])
    def test_rejects_off_grid_weight(self, tiny_stage, tmp_path, net, name,
                                     index):
        path = tmp_path / "stage.json"
        save_stage(tiny_stage, path)
        data = json.loads(path.read_text())
        arr = np.array(data[net][name])
        arr[index] *= 0.99
        data[net][name] = arr.tolist()
        path.write_text(json.dumps(data))
        with pytest.raises(PrecisionError, match="not on the 3-bit grid") \
                as err:
            load_stage(path)
        assert str(err.value).startswith(f"{path}: {net} network: weight at")

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
        for version in (1, 99):
            data["schema_version"] = version
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

    def test_code_table_round_trip(self, tiny_stage, tiny_family, tmp_path):
        """A stage with its own smooth-code table decodes with it after
        loading; 1 bit over 3 wires has no built-in table."""
        spec = StageSpec(resolution_bits=1, smooth_width=3,
                         code_table=((0, 0, 0), (1, 1, 1)))
        cfg = TrainConfig(batch_size=64, total_iters=8, projection_period=4,
                          refine_passes=0, seed=5)
        stage = train_stage(spec, tiny_stage.enc, tiny_family,
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
    @settings(deadline=None, max_examples=30)
    @given(st.lists(stages(), min_size=1, max_size=3), encodings(),
           st.data())
    def test_any_pipeline_round_trips(self, stage_list, enc, data):
        """Stage paths in and below other folders, possibly repeated; a
        residue-less stage before the last is refused on load."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            paths = [tmp / data.draw(st.sampled_from(["", "a", "a/b"]))
                     / f"s{i}.json" for i in range(len(stage_list))]
            for stage, path in zip(stage_list, paths):
                path.parent.mkdir(parents=True, exist_ok=True)
                save_stage(stage, path)
            order = data.draw(st.lists(st.integers(0, len(paths) - 1),
                                       min_size=1, max_size=4))
            pp = tmp / data.draw(st.sampled_from(["", "a", "p"])) / "p.json"
            pp.parent.mkdir(parents=True, exist_ok=True)
            save_pipeline(pp, [paths[i] for i in order], enc)
            refs = json.loads(pp.read_text())["stages"]
            assert [(pp.parent / r).resolve() for r in refs] == \
                [paths[i].resolve() for i in order]
            if not all(stage_list[i].has_residue for i in order[:-1]):
                with pytest.raises(NnadcError, match="residue-less"):
                    load_pipeline(pp)
                return
            p = load_pipeline(pp)
            assert p.enc == enc
            assert len(p.stages) == len(order)
            for got, i in zip(p.stages, order):
                assert_same_stage(got, stage_list[i])

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
