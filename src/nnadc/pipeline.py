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
from . import signal_core
from .crossbar import PerturbationSpec, perturb_resistances, vmm
from .dse import MAX_RESO
from .errors import ConfigError, NnadcError, ShapeError
from .signal_core import (
    DigitalCode,
    EncodingScheme,
    SineStimulus,
    StageSpec,
    residue_targets,
    stage_level_targets,
)
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


def _work(bufs: dict, key: str, shape: tuple) -> np.ndarray:
    """Work buffer ``key`` of ``shape`` from a per-call pool.

    Stages of one conversion share the pool; every buffer's contents are
    dead before the next stage, or the next network, writes it again.
    """
    buf = bufs.get((key, shape))
    if buf is None:
        buf = bufs[key, shape] = np.empty(shape)
    return buf


def _stage_input(bufs: dict, stage, n: int) -> np.ndarray:
    """(n, 1 + S) input buffer of a stage: voltages, then its S bits."""
    return _work(bufs, "in", (n, 1 + stage.spec.smooth_width))


def _net(layers, x: np.ndarray, nominal, bufs: dict) -> np.ndarray:
    """Output-column voltages of one two-crossbar network."""
    l1, l2 = layers
    n = x.shape[0]
    h = vmm(l1, x, out=_work(bufs, "hidden", (n, l1.cols)))
    vtc_eval(nominal, h, out=h)
    return vmm(l2, h, out=_work(bufs, "out", (n, l2.cols)))


def stage_forward(stage, inp: np.ndarray, res_out, bufs: dict) -> np.ndarray:
    """One behavioral stage on work buffers; returns the decoded levels.

    ``inp`` is a ``_stage_input`` buffer whose column 0 holds the input
    voltages.  The comparators write their rail-valued bits into the
    columns after it, where the residue network reads them.  If
    ``res_out`` is given, the clipped residue is written into it; it may
    be ``inp[:, 0]``.
    """
    if isinstance(stage, IdealStage):
        raise ConfigError("behavioral mode needs a trained stage")
    spec, nominal = stage.spec, stage.family.nominal
    pre2 = _net(stage.subadc_layers, inp[:, :1], nominal, bufs)
    unit_bits = np.greater(pre2, spec.vdd / 2.0, out=pre2)
    lvl = signal_core.smooth_decode_array(unit_bits, spec)
    np.multiply(unit_bits, nominal.v_high, out=inp[:, 1:])
    if res_out is not None:
        if not stage.has_residue:
            raise NnadcError("residue requested from a residue-less "
                             "terminal stage")
        out = _net(stage.residue_layers, inp, nominal, bufs)
        np.clip(out[:, 0], 0.0, spec.vdd, out=res_out)
    return lvl


def _check_mode(mode: str) -> None:
    if mode not in ("ideal", "behavioral"):
        raise ConfigError(f"unknown simulation mode {mode!r}")


def stage_levels(stage, v: np.ndarray, mode: str = "behavioral",
                 need_residue: bool = False):
    """Vectorized single-stage conversion: (levels, residues or None)."""
    _check_mode(mode)
    if mode == "ideal":
        spec, enc = stage.spec, stage.enc
        lvl = stage_level_targets(v, spec, enc)
        res = residue_targets(v, lvl, spec, enc) if need_residue else None
        return lvl, res
    bufs = {}
    inp = _stage_input(bufs, stage, v.shape[0])
    inp[:, 0] = v
    res = np.empty(v.shape[0]) if need_residue else None
    return stage_forward(stage, inp, res, bufs), res


def simulate_stage(stage, v: float, mode: str = "behavioral",
                   need_residue: bool = True):
    """(level, residue) of one stage for a scalar input voltage."""
    arr = np.asarray([v], dtype=float)
    lvl, res = stage_levels(stage, arr, mode, need_residue)
    return int(lvl[0]), (float(res[0]) if res is not None else None)


def convert(p: PipelineConfig, v, mode: str = "behavioral") -> np.ndarray:
    """Vectorized pipeline conversion to integer codes.

    A behavioral conversion allocates its work buffers once and hands
    them to every stage; each stage writes its residue straight into the
    next stage's input buffer.
    """
    _check_mode(mode)
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D array of input voltages, got "
                         f"shape {x.shape}")
    n = x.size
    codes = np.zeros(n, dtype=np.int64)
    last = len(p.stages) - 1
    if mode == "ideal":
        r = x
        for i, stage in enumerate(p.stages):
            lvl, res = stage_levels(stage, r, mode, need_residue=i < last)
            codes <<= stage.spec.resolution_bits
            codes += lvl
            r = res
        return codes
    bufs = {}
    inp = _stage_input(bufs, p.stages[0], n)
    inp[:, 0] = x
    for i, stage in enumerate(p.stages):
        nxt = _stage_input(bufs, p.stages[i + 1], n) if i < last else None
        lvl = stage_forward(stage, inp, None if nxt is None else nxt[:, 0],
                            bufs)
        codes <<= stage.spec.resolution_bits
        codes += lvl
        inp = nxt
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


def perturbed_stage(stage, sigma: float, rng: np.random.Generator):
    """Copy of a trained stage with its crossbar resistances perturbed.

    Each layer draws its own sub-seed from ``rng``, sub-ADC layers first.
    """
    if sigma == 0:
        return stage

    def _perturb(layers):
        if layers is None:
            return None
        return tuple(
            perturb_resistances(l, PerturbationSpec(
                sigma=sigma, seed=int(rng.integers(2 ** 31))))
            for l in layers)

    return replace(stage, subadc_layers=_perturb(stage.subadc_layers),
                   residue_layers=_perturb(stage.residue_layers))


def perturbed_pipeline(p: PipelineConfig, sigma: float,
                       seed: int) -> PipelineConfig:
    """Copy of the pipeline with every crossbar's resistances perturbed."""
    if sigma == 0:
        return p
    rng = np.random.default_rng(seed)
    return PipelineConfig(
        stages=tuple(perturbed_stage(s, sigma, rng) for s in p.stages),
        enc=p.enc)


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
