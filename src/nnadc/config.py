"""Experiment configuration: one JSON file determines a whole run.

The master seed fans out to per-component seeds through a fixed hash
splitting scheme, so sub-experiments (training, perturbation, stimuli)
are independently reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .crossbar import DeviceGrid
from .dse import CostTable
from .errors import ConfigError, NnadcError
from .signal_core import TONE_BIN, TONE_N, EncodingScheme
from .trainer import TrainConfig
from .vtc import VariationSpec, VtcFamily, nominal_vtc, sample_family

# Version of the experiment-config JSON format.  Model and manifest files
# carry their own version, modelio.SCHEMA_VERSION.
CONFIG_SCHEMA_VERSION = 1

# Scalar fields a config file may set, with the JSON types each accepts.
_SCALAR_TYPES = {
    "vdd": (int, float),
    "family_size": (int,),
    "v_m_std_ratio": (int, float),
    "s_rel_std": (int, float),
    "stimulus_n": (int,),
    "stimulus_bin": (int,),
    "mc_runs": (int,),
    "mc_sigma": (int, float),
    "output_dir": (str,),
    "seed": (int,),
}
# Nested blocks a config file may set, with the constructor of each.
_BLOCKS = {
    "grid": lambda d: DeviceGrid(**d),
    "train": lambda d: TrainConfig(**d),
    "encoding": lambda d: EncodingScheme(**d),
    "cost_table": CostTable.from_dict,
}
_KEYS = {"schema_version", *_SCALAR_TYPES, *_BLOCKS}


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
    stimulus_n: int = TONE_N
    stimulus_bin: int = TONE_BIN
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
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        if (data.get("schema_version", CONFIG_SCHEMA_VERSION)
                != CONFIG_SCHEMA_VERSION):
            raise ConfigError("schema_version: unsupported config schema")
        unknown = sorted(set(data) - _KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        cfg = cls(raw=data)
        for key, types in _SCALAR_TYPES.items():
            if key in data:
                value = data[key]
                # bool is an int subclass, but true/false is no number
                if isinstance(value, bool) or not isinstance(value, types):
                    wanted = " or ".join(t.__name__ for t in types)
                    raise ConfigError(f"{key}: expected {wanted}, got "
                                      f"{type(value).__name__} {value!r}")
                setattr(cfg, key, value)
        for key, build in _BLOCKS.items():
            if key in data:
                try:
                    setattr(cfg, key, build(data[key]))
                except (NnadcError, AttributeError, KeyError, TypeError,
                        ValueError) as exc:
                    raise ConfigError(
                        f"{key}: {type(exc).__name__}: {exc}") from exc
        if not (math.isfinite(cfg.vdd) and cfg.vdd > 0):
            raise ConfigError("vdd: must be positive and finite")
        n = cfg.stimulus_n
        if n < 2 or n & (n - 1):
            raise ConfigError(f"stimulus_n: {n} is not a power of two")
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
