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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .crossbar import DeviceGrid
from .dse import CostTable
from .errors import ConfigError, NnadcError
from .signal_core import TONE_BIN, TONE_N, EncodingScheme
from .trainer import TrainConfig
from .vtc import (FAMILY_SIZE, S_REL_STD, V_M_STD_RATIO, VariationSpec,
                  VtcFamily, nominal_vtc, sample_family)

# Version of the experiment-config JSON format.  Model and manifest files
# carry their own version, modelio.SCHEMA_VERSION.
CONFIG_SCHEMA_VERSION = 1

# Nested blocks a config file may set, with the constructor of each.
_BLOCKS = {
    "grid": lambda d: DeviceGrid(**d),
    "train": lambda d: TrainConfig(**d),
    "encoding": lambda d: EncodingScheme(**d),
    "cost_table": CostTable.from_dict,
}


def split_seed(master: int, name: str) -> int:
    """Deterministic per-component seed derived from the master seed."""
    digest = hashlib.sha256(f"{master}:{name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class ExperimentConfig:
    vdd: float = 1.0
    grid: DeviceGrid = field(default_factory=DeviceGrid)
    family_size: int = FAMILY_SIZE
    v_m_std_ratio: float = V_M_STD_RATIO   # of vdd
    s_rel_std: float = S_REL_STD
    train: TrainConfig = field(default_factory=TrainConfig)
    encoding: EncodingScheme | None = None  # None: linear on [0, vdd]
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
        values = {}
        for key, types in _SCALAR_TYPES.items():
            if key in data:
                value = data[key]
                # bool is an int subclass, but true/false is no number
                if isinstance(value, bool) or not isinstance(value, types):
                    wanted = " or ".join(t.__name__ for t in types)
                    raise ConfigError(f"{key}: expected {wanted}, got "
                                      f"{type(value).__name__} {value!r}")
                values[key] = value
        for key, build in _BLOCKS.items():
            if key in data:
                block = data[key]
                vdd = values.get("vdd", cls.vdd)
                # a block that sets no range spans [0, vdd]; a bad vdd is
                # left to __post_init__, which refuses it first
                if (key == "encoding" and isinstance(block, dict)
                        and 0 < vdd < math.inf):
                    block = {"v_min": 0, "v_max": vdd, **block}
                try:
                    values[key] = build(block)
                except (NnadcError, AttributeError, KeyError, TypeError,
                        ValueError) as exc:
                    raise ConfigError(
                        f"{key}: {type(exc).__name__}: {exc}") from exc
        return cls(raw=data, **values)

    def __post_init__(self):
        if not (math.isfinite(self.vdd) and self.vdd > 0):
            raise ConfigError("vdd: must be positive and finite")
        for key in ("v_m_std_ratio", "s_rel_std", "mc_sigma"):
            if not 0 <= getattr(self, key) < math.inf:  # NaN fails too
                raise ConfigError(f"{key}: must be non-negative and finite")
        for key in ("family_size", "mc_runs"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key}: must be at least 1")
        n = self.stimulus_n
        if n < 2 or n & (n - 1):
            raise ConfigError(f"stimulus_n: {n} is not a power of two")
        if not 0 < self.stimulus_bin < n // 2:
            raise ConfigError(f"stimulus_bin: {self.stimulus_bin} is outside "
                              f"1..{n // 2 - 1}")
        # the encoding range is the signal range [0, vdd]
        if self.encoding is None:
            self.encoding = EncodingScheme()
        elif (self.encoding.v_min, self.encoding.v_max) != (0, self.vdd):
            raise ConfigError("encoding: the range must be [0, vdd]")
        self.encoding = replace(self.encoding, v_min=0.0,
                                v_max=float(self.vdd))

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


# Scalar fields a config file may set, with the JSON types each accepts:
# every field but the blocks and ``raw``; a float field takes an int too.
_SCALAR_TYPES = {
    f.name: (int, float) if type(f.default) is float else (type(f.default),)
    for f in fields(ExperimentConfig) if f.name not in (*_BLOCKS, "raw")}
_KEYS = {"schema_version", *_SCALAR_TYPES, *_BLOCKS}
