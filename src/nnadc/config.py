"""Experiment configuration: one JSON file determines a whole run.

The master seed fans out to per-component seeds through a fixed hash
splitting scheme, so sub-experiments (training, perturbation, stimuli)
are independently reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .crossbar import DeviceGrid
from .dse import CostTable
from .errors import ConfigError
from .signal_core import EncodingScheme
from .trainer import TrainConfig
from .vtc import VariationSpec, VtcFamily, nominal_vtc, sample_family

# Version of the experiment-config JSON format.  Model and manifest files
# carry their own version, modelio.SCHEMA_VERSION.
CONFIG_SCHEMA_VERSION = 1


def split_seed(master: int, name: str) -> int:
    """Deterministic per-component seed derived from the master seed."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class ExperimentConfig:
    vdd: float = 1.0
    grid: DeviceGrid = field(default_factory=DeviceGrid)
    family_size: int = 100
    v_m_std_ratio: float = 0.02   # of vdd
    s_rel_std: float = 0.10
    train: TrainConfig = field(default_factory=TrainConfig)
    encoding: EncodingScheme = field(default_factory=EncodingScheme)
    composition: tuple = ()
    stimulus_n: int = 4096
    stimulus_bin: int = 127
    mc_runs: int = 100
    mc_sigma: float = 0.05
    cost_table: CostTable | None = None
    output_dir: str = "out"
    seed: int = 0
    raw: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if (data.get("schema_version", CONFIG_SCHEMA_VERSION)
                != CONFIG_SCHEMA_VERSION):
            raise ConfigError("schema_version: unsupported config schema")
        cfg = cls(raw=data)
        try:
            for key in ("vdd", "family_size", "v_m_std_ratio",
                        "s_rel_std", "stimulus_n", "stimulus_bin", "mc_runs",
                        "mc_sigma", "output_dir", "seed"):
                if key in data:
                    setattr(cfg, key, data[key])
            if "grid" in data:
                cfg.grid = DeviceGrid(**data["grid"])
            if "train" in data:
                cfg.train = TrainConfig(**data["train"])
            if "encoding" in data:
                cfg.encoding = EncodingScheme(**data["encoding"])
            if "composition" in data:
                cfg.composition = tuple(data["composition"])
            if "cost_table" in data:
                cfg.cost_table = CostTable.from_dict(data["cost_table"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config field: {exc}") from exc
        if cfg.vdd <= 0:
            raise ConfigError("vdd: must be positive")
        return cfg

    def family(self) -> VtcFamily:
        nom = nominal_vtc(self.vdd)
        var = VariationSpec(v_m_std=self.v_m_std_ratio * self.vdd,
                            s_rel_std=self.s_rel_std)
        return sample_family(self.family_size, var,
                             split_seed(self.seed, "vtc-family"), nom)

    def out_dir(self) -> Path:
        path = Path(os.environ.get("NNADC_OUT", self.output_dir))
        path.mkdir(parents=True, exist_ok=True)
        return path

    def run_hash(self) -> str:
        from .modelio import config_hash
        return config_hash({"config": self.raw, "seed": self.seed})
