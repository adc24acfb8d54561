"""Model, pipeline and table files: versioned JSON on disk.

Model files are human-readable JSON.  Conductances are stored as decimal
text (``repr`` of the float) so they round-trip bit-exactly; numpy
arrays become nested lists.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .crossbar import CrossbarLayer, DeviceGrid
from .dse import CostTable
from .errors import ConfigError, ModelRefError
from .pipeline import PipelineConfig
from .signal_core import EncodingScheme, StageSpec
from .trainer import MlpParams, TrainedStage
from .vtc import VariationSpec, VtcFamily, VtcParams

# Version of the model and manifest file format.
SCHEMA_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def _read_model(path, kind: str, build):
    """``build(data)`` of a ``kind`` model file's JSON, header checked.

    A wrong schema version or kind is a ``ConfigError``.  A file that
    cannot be read, is not JSON or lacks a field or has one of the wrong
    type is a ``ModelRefError`` that names the path.
    """
    try:
        data = json.loads(Path(path).read_text())
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"{path}: unsupported schema version "
                              f"{data.get('schema_version')!r}")
        if data.get("kind") != kind:
            raise ConfigError(f"{path}: expected a {kind} file, "
                              f"got {data.get('kind')!r}")
        return build(data)
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ModelRefError(f"{kind} model file {path}: "
                            f"{type(exc).__name__}: {exc}") from exc


def _floats_to_text(arr: np.ndarray):
    return [[repr(float(x)) for x in row] for row in np.atleast_2d(arr)]


def _text_to_floats(rows) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in rows])


def _spec_dict(spec: StageSpec) -> dict:
    d = {"resolution_bits": spec.resolution_bits,
         "smooth_width": spec.smooth_width,
         "subadc_hidden": spec.subadc_hidden,
         "residue_hidden": spec.residue_hidden,
         "vdd": spec.vdd}
    if spec.code_table:
        d["code_table"] = [list(code) for code in spec.code_table]
    return d


def _spec_from_dict(d: dict) -> StageSpec:
    return StageSpec(**d)


def _enc_dict(enc: EncodingScheme) -> dict:
    return {"kind": enc.kind, "v_min": enc.v_min, "v_max": enc.v_max}


def _grid_dict(grid: DeviceGrid) -> dict:
    return {"g_off": grid.g_off, "g_on": grid.g_on,
            "precision_bits": grid.precision_bits}


def _family_dict(family: VtcFamily) -> dict:
    nom = family.nominal
    return {
        "seed": family.seed,
        "variation": {"v_m_std": family.variation.v_m_std,
                      "s_rel_std": family.variation.s_rel_std},
        "nominal": {"v_m": nom.v_m, "s": nom.s, "v_high": nom.v_high,
                    "v_low": nom.v_low},
        "members": [[p.v_m, p.s, p.v_high, p.v_low] for p in family.members],
    }


def _family_from_dict(d: dict) -> VtcFamily:
    nom = VtcParams(**d["nominal"])
    members = tuple(VtcParams(v_m=m[0], s=m[1], v_high=m[2], v_low=m[3])
                    for m in d["members"])
    return VtcFamily(members=members, nominal=nom, seed=d["seed"],
                     variation=VariationSpec(**d["variation"]))


def _params_dict(p: MlpParams) -> dict:
    return {"w1": p.w1.tolist(), "b1": p.b1.tolist(),
            "w2": p.w2.tolist(), "b2": p.b2.tolist(),
            "vtc_assignment": p.vtc_assignment.tolist()}


def _params_from_dict(d: dict) -> MlpParams:
    return MlpParams(w1=np.array(d["w1"]), b1=np.array(d["b1"]),
                     w2=np.array(d["w2"]), b2=np.array(d["b2"]),
                     vtc_assignment=np.array(d["vtc_assignment"], dtype=int))


def _layer_dict(layer: CrossbarLayer) -> dict:
    return {"g_u_siemens": _floats_to_text(layer.g_u),
            "g_l_siemens": _floats_to_text(layer.g_l),
            "grid": _grid_dict(layer.grid),
            "bias_voltage": layer.bias_voltage}


def _layer_from_dict(d: dict) -> CrossbarLayer:
    return CrossbarLayer(g_u=_text_to_floats(d["g_u_siemens"]),
                         g_l=_text_to_floats(d["g_l_siemens"]),
                         grid=DeviceGrid(**d["grid"]),
                         bias_voltage=d["bias_voltage"])


def save_stage(stage: TrainedStage, path, run_hash: str = "",
               extra: dict | None = None) -> None:
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "stage",
        "config_hash": run_hash,
        "spec": _spec_dict(stage.spec),
        "encoding": _enc_dict(stage.enc),
        "grid": _grid_dict(stage.grid),
        "bias_drive": stage.bias_drive,
        "family": _family_dict(stage.family),
        "subadc": _params_dict(stage.subadc),
        "subadc_layers": [_layer_dict(l) for l in stage.subadc_layers],
        "residue": _params_dict(stage.residue) if stage.residue else None,
        "residue_layers": ([_layer_dict(l) for l in stage.residue_layers]
                           if stage.residue_layers else None),
        "metrics": stage.train_metrics,
    }
    if extra:
        data.update(extra)
    Path(path).write_text(json.dumps(data, indent=1))


def load_stage(path, check_hash: str | None = None) -> TrainedStage:
    """Stage model file, refused unless built from config ``check_hash``."""
    def build(data):
        if check_hash not in (None, data.get("config_hash", "")):
            raise ModelRefError(f"stage model {path} was built from a "
                                "different configuration")
        residue = data["residue"]
        return TrainedStage(
            spec=_spec_from_dict(data["spec"]),
            enc=EncodingScheme(**data["encoding"]),
            family=_family_from_dict(data["family"]),
            grid=DeviceGrid(**data["grid"]),
            bias_drive=data["bias_drive"],
            subadc=_params_from_dict(data["subadc"]),
            subadc_layers=tuple(_layer_from_dict(l)
                                for l in data["subadc_layers"]),
            residue=_params_from_dict(residue) if residue else None,
            residue_layers=(tuple(_layer_from_dict(l)
                                  for l in data["residue_layers"])
                            if data["residue_layers"] else None),
            train_metrics=data.get("metrics", {}),
        )
    return _read_model(path, "stage", build)


def save_pipeline(path, stage_paths, enc: EncodingScheme,
                  run_hash: str = "") -> None:
    """Pipeline file at ``path``; each stage path, absolute or relative to
    the working directory, is stored relative to ``path``'s folder."""
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "pipeline",
        "config_hash": run_hash,
        "encoding": _enc_dict(enc),
        "stages": [os.path.relpath(p, Path(path).parent)
                   for p in stage_paths],
    }
    Path(path).write_text(json.dumps(data, indent=1))


def load_pipeline(path, check_hash: str | None = None) -> PipelineConfig:
    path = Path(path)

    def build(data):
        # relative stage references are relative to the pipeline file
        stages = tuple(load_stage(path.parent / ref, check_hash)
                       for ref in data["stages"])
        return PipelineConfig(stages=stages,
                              enc=EncodingScheme(**data["encoding"]))
    return _read_model(path, "pipeline", build)


def load_cost_table(path) -> CostTable:
    """A cost table file, or the ``cost_table`` block of a config file."""
    try:
        data = json.loads(Path(path).read_text())
        if "cost_table" in data:
            data = data["cost_table"]
        return CostTable.from_dict(data)
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cost table {path}: {type(exc).__name__}: "
                          f"{exc}") from exc


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
