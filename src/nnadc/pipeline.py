"""Pipeline assembly and conversion.

Stages are chained: each resolves its level and hands a residue to the
next; the digital combiner concatenates the per-stage levels MSB first.
Behavioral stages evaluate through their instantiated crossbar layers,
so Monte Carlo resistance perturbation flows into the conversion.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

import numpy as np

from . import metrics as _metrics
from .crossbar import PerturbationSpec, perturb_resistances, vmm
from .dse import MAX_RESO
from .errors import ConfigError, NnadcError
from .signal_core import DigitalCode, EncodingScheme, SineStimulus, StageSpec
from .trainer import TrainedStage, residue_targets, stage_level_targets
from .vtc import vtc_eval


@dataclass(frozen=True)
class IdealStage:
    """Oracle-backed stage used for ideal-mode pipelines."""

    spec: StageSpec
    enc: EncodingScheme

    @property
    def has_residue(self) -> bool:
        return True


@dataclass(frozen=True)
class McEvalSpec:
    runs: int = 100
    sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("need at least one Monte Carlo run")


@dataclass(frozen=True)
class PipelineConfig:
    """Ordered stage chain plus the input encoding."""

    stages: tuple
    enc: EncodingScheme

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("pipeline needs at least one stage")
        if self.reso > MAX_RESO:
            raise ConfigError(f"total resolution {self.reso} exceeds "
                              f"{MAX_RESO} bits")

    @property
    def reso(self) -> int:
        return sum(s.spec.resolution_bits for s in self.stages)

    @property
    def vdd(self) -> float:
        return self.stages[0].spec.vdd


def _layers_forward(layers, x, family, kind, vdd):
    l1, l2 = layers
    pre1 = vmm(l1, x)
    h = vtc_eval(family.nominal, pre1)
    pre2 = vmm(l2, h)
    if kind == "subadc":
        return family.nominal.v_high * (pre2 > vdd / 2.0).astype(float)
    return pre2


def _stage_levels(stage, v: np.ndarray, mode: str, need_residue: bool):
    """Vectorized single-stage conversion: (levels, residues or None)."""
    spec, enc = stage.spec, stage.enc
    if mode == "ideal":
        lvl = stage_level_targets(v, spec, enc)
        res = residue_targets(v, lvl, spec, enc) if need_residue else None
        return lvl, res
    if mode != "behavioral":
        raise ConfigError(f"unknown simulation mode {mode!r}")
    if not isinstance(stage, TrainedStage):
        raise ConfigError("behavioral mode needs a trained stage")
    from .signal_core import smooth_decode_array

    bits = _layers_forward(stage.subadc_layers, v[:, None], stage.family,
                           "subadc", spec.vdd)
    lvl = smooth_decode_array(bits / stage.family.nominal.v_high, spec)
    res = None
    if need_residue:
        if not stage.has_residue:
            raise NnadcError("residue requested from a residue-less "
                             "terminal stage")
        out = _layers_forward(stage.residue_layers,
                              np.hstack([v[:, None], bits]), stage.family,
                              "residue", spec.vdd)
        res = np.clip(out[:, 0], 0.0, spec.vdd)
    return lvl, res


def simulate_stage(stage, v: float, mode: str = "behavioral",
                   need_residue: bool = True):
    """(level, residue) of one stage for a scalar input voltage."""
    arr = np.asarray([v], dtype=float)
    lvl, res = _stage_levels(stage, arr, mode, need_residue)
    return int(lvl[0]), (float(res[0]) if res is not None else None)


def convert(p: PipelineConfig, v, mode: str = "behavioral") -> np.ndarray:
    """Vectorized pipeline conversion to integer codes."""
    x = np.atleast_1d(np.asarray(v, dtype=float))
    codes = np.zeros(x.size, dtype=np.int64)
    r = x
    last = len(p.stages) - 1
    for i, stage in enumerate(p.stages):
        lvl, res = _stage_levels(stage, r, mode, need_residue=i < last)
        codes = (codes << stage.spec.resolution_bits) + lvl
        if res is not None:
            r = res
    return codes


def simulate_pipeline(p: PipelineConfig, v: float,
                      mode: str = "behavioral") -> DigitalCode:
    """Full conversion of one input voltage to a digital code."""
    value = int(convert(p, v, mode)[0])
    return DigitalCode.from_value(value, p.reso)


def reconstruct(code, enc: EncodingScheme, width: int | None = None):
    """Midpoint reconstruction of a code back to a voltage."""
    if isinstance(code, DigitalCode):
        value, width = code.value, code.width
    else:
        value = code
        if width is None:
            raise ConfigError("width required for integer codes")
    t = (np.asarray(value, dtype=float) + 0.5) / (1 << width)
    out = enc.denormalize(t)
    return float(out) if np.isscalar(value) or isinstance(value, int) else out


def perturbed_pipeline(p: PipelineConfig, sigma: float,
                       seed: int) -> PipelineConfig:
    """Copy of the pipeline with every crossbar's resistances perturbed."""
    if sigma == 0:
        return p
    rng = np.random.default_rng(seed)
    stages = []
    for stage in p.stages:
        def _perturb(layers):
            if layers is None:
                return None
            return tuple(
                perturb_resistances(l, PerturbationSpec(
                    sigma=sigma, seed=int(rng.integers(2 ** 31))))
                for l in layers)

        stages.append(replace(stage, subadc_layers=_perturb(stage.subadc_layers),
                              residue_layers=_perturb(stage.residue_layers)))
    return PipelineConfig(stages=tuple(stages), enc=p.enc)


@dataclass(frozen=True)
class McSummary:
    median_enob: float
    enobs: tuple


def monte_carlo_eval(p: PipelineConfig, mc: McEvalSpec,
                     stimulus: SineStimulus) -> McSummary:
    """Median ENOB over independently perturbed copies of the pipeline.

    The input pipeline is never mutated; every run perturbs a fresh copy
    with its own sub-seed.
    """
    enobs = []
    for run in range(mc.runs):
        pr = perturbed_pipeline(p, mc.sigma, seed=mc.seed + run)
        codes = convert(pr, stimulus.samples, mode="behavioral")
        _, enob = _metrics.enob_of_codes(codes, p.reso, stimulus.f_s,
                                         stimulus.f_in)
        enobs.append(enob)
    return McSummary(median_enob=float(statistics.median(enobs)),
                     enobs=tuple(enobs))


def pipeline_enob(p: PipelineConfig, stimulus: SineStimulus,
                  mode: str = "behavioral") -> float:
    """ENOB of the pipeline on a coherent sine stimulus."""
    codes = convert(p, stimulus.samples, mode)
    _, enob = _metrics.enob_of_codes(codes, p.reso, stimulus.f_s,
                                     stimulus.f_in)
    return enob
