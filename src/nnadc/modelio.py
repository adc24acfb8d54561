"""Model, pipeline and table files: versioned JSON on disk.

Model files are human-readable JSON; numpy arrays become nested lists.
A stage file stores each network once, as its on-grid weights, and the
nominal inverter curve.  Loading rebuilds the crossbar conductances from
the weights with the function training uses, so they come back bit for
bit; an off-grid weight is a ``PrecisionError``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .crossbar import DeviceGrid
from .dse import CostTable
from .errors import ConfigError, ModelRefError, NnadcError
from .pipeline import PipelineConfig
from .signal_core import EncodingScheme, StageSpec
from .trainer import MlpParams, TrainedStage, instantiate_net
from .vtc import VtcParams

# Version of the model and manifest file format.
SCHEMA_VERSION = 2


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


def _params_dict(p: MlpParams) -> dict:
    return {"w1": p.w1.tolist(), "b1": p.b1.tolist(),
            "w2": p.w2.tolist(), "b2": p.b2.tolist(),
            "vtc_assignment": p.vtc_assignment.tolist()}


def _params_from_dict(d: dict) -> MlpParams:
    return MlpParams(w1=np.array(d["w1"]), b1=np.array(d["b1"]),
                     w2=np.array(d["w2"]), b2=np.array(d["b2"]),
                     vtc_assignment=np.array(d["vtc_assignment"], dtype=int))


def save_stage(stage: TrainedStage, path, run_hash: str = "") -> None:
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "stage",
        "config_hash": run_hash,
        "spec": asdict(stage.spec),
        "encoding": asdict(stage.enc),
        "nominal": asdict(stage.nominal),
        "grid": asdict(stage.grid),
        "bias_drive": stage.bias_drive,
        "subadc": _params_dict(stage.subadc),
        "residue": _params_dict(stage.residue) if stage.residue else None,
        "metrics": stage.train_metrics,
    }
    Path(path).write_text(json.dumps(data, indent=1))


def load_stage(path, check_hash: str | None = None) -> TrainedStage:
    """Stage model file, refused unless built from config ``check_hash``.

    Both networks' crossbars are rebuilt from their stored weights.  Any
    value refused names the file, and a weight also names its network.
    """
    def build(data):
        if check_hash not in (None, data.get("config_hash", "")):
            raise ModelRefError(f"stage model {path} was built from a "
                                "different configuration")
        try:
            grid = DeviceGrid(**data["grid"])
            bias_drive = data["bias_drive"]
            nets = {net: _params_from_dict(data[net])
                    for net in ("subadc", "residue") if data[net] is not None}
            layers = {}
            for net, params in nets.items():
                try:
                    layers[net] = instantiate_net(params, grid, bias_drive)
                except NnadcError as exc:
                    raise type(exc)(f"{net} network: {exc}") from exc
            return TrainedStage(
                spec=StageSpec(**data["spec"]),
                enc=EncodingScheme(**data["encoding"]),
                nominal=VtcParams(**data["nominal"]),
                grid=grid, bias_drive=bias_drive, subadc=nets["subadc"],
                subadc_layers=layers["subadc"], residue=nets.get("residue"),
                residue_layers=layers.get("residue"),
                train_metrics=data.get("metrics", {}),
            )
        except NnadcError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
    return _read_model(path, "stage", build)


def save_pipeline(path, stage_paths, enc: EncodingScheme,
                  run_hash: str = "") -> None:
    """Pipeline file at ``path``; each stage path, absolute or relative to
    the working directory, is stored relative to ``path``'s folder."""
    data = {
        "schema_version": SCHEMA_VERSION,
        "kind": "pipeline",
        "config_hash": run_hash,
        "encoding": asdict(enc),
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
    except (NnadcError, OSError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"cost table {path}: {type(exc).__name__}: "
                          f"{exc}") from exc


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
