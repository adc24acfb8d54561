"""Pipeline assembly and conversion.

Stages are chained: each resolves its level and hands a residue to the
next; the digital combiner concatenates the per-stage levels MSB first.
Behavioral stages evaluate through their instantiated crossbar layers,
so Monte Carlo resistance perturbation flows into the conversion; ideal
mode runs the same chain on each stage's oracles.

Work buffers are column-major, so each voltage, neuron and comparator-bit
column is contiguous over the samples, except the hidden buffer of a
one-column output layer: numpy runs that product as a gemv, whose
summation order follows its input's memory order.  ``crossbar.vmm`` adds
the bias row of that row-major buffer on wide rows, ``vtc_eval`` takes
one exp per hidden element, and each perturbed crossbar is one stacked
copy of its two conductance arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np

from . import metrics as _metrics
from . import signal_core
from .crossbar import PerturbationSpec, perturb_resistances, vmm
from .dse import MAX_RESO
from .errors import ConfigError, NnadcError, ShapeError, check_fields
from .signal_core import (
    EncodingScheme,
    SineStimulus,
    StageSpec,
    residue_targets,
    stage_level_targets,
)
from .vtc import vtc_eval

_NO_RESIDUE = "residue requested from a residue-less terminal stage"


@dataclass(frozen=True)
class IdealStage:
    """Oracle-backed stage used for ideal-mode pipelines."""

    spec: StageSpec
    enc: EncodingScheme


@dataclass(frozen=True)
class McEvalSpec:
    runs: int = 100
    sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("need at least one Monte Carlo run")
        check_fields(self, ("seed",), Integral, ConfigError)
        if self.seed < 0:
            raise ConfigError("Monte Carlo seed must be non-negative")
        if not 0 <= self.sigma < np.inf:  # NaN fails both comparisons
            raise ConfigError("Monte Carlo sigma must be non-negative and "
                              "finite")


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
        # every stage but the last feeds a residue on; an IdealStage's
        # comes from the oracles
        if not all(getattr(s, "has_residue", True) for s in self.stages[:-1]):
            raise NnadcError(_NO_RESIDUE)

    @property
    def reso(self) -> int:
        return sum(s.spec.resolution_bits for s in self.stages)


def _work(bufs: dict, key: str, shape: tuple, order: str = "F") -> np.ndarray:
    """Work buffer ``key`` of ``shape`` and ``order`` from a per-call pool.

    Stages of one conversion share the pool; every buffer's contents are
    dead before the next stage, or the next network, writes it again.
    Only a gemv's input is row-major ("C"), as the module docstring says.
    """
    buf = bufs.get((key, shape, order))
    if buf is None:
        buf = bufs[key, shape, order] = np.empty(shape, order=order)
    return buf


def _net(layers, x: np.ndarray, nominal, bufs: dict) -> np.ndarray:
    """Output-column voltages of one two-crossbar network."""
    l1, l2 = layers
    n = x.shape[0]
    order = "C" if l2.cols == 1 else "F"
    h = vmm(l1, x, out=_work(bufs, "hidden", (n, l1.cols), order))
    vtc_eval(nominal, h, out=h)
    return vmm(l2, h, out=_work(bufs, "out", (n, l2.cols)))


def stage_forward(stage, inp: np.ndarray, res_out, bufs: dict) -> np.ndarray:
    """One stage on work buffers; returns its levels.

    ``inp`` is an (n, 1 + S) buffer whose column 0 holds the input
    voltages.  An ``IdealStage`` takes its level and residue from the
    oracles.  A trained stage's comparators write their rail-valued bits
    into the columns after column 0, where its residue network reads
    them.  If ``res_out`` is given, the clipped residue is written into
    it; it may be ``inp[:, 0]``.
    """
    spec = stage.spec
    if isinstance(stage, IdealStage):
        v = inp[:, 0]
        lvl = stage_level_targets(v, spec, stage.enc)
        if res_out is not None:
            res_out[:] = residue_targets(v, lvl, spec, stage.enc)
        return lvl
    nominal = stage.nominal
    pre2 = _net(stage.subadc_layers, inp[:, :1], nominal, bufs)
    unit_bits = np.greater(pre2, spec.vdd / 2.0, out=pre2)
    lvl = signal_core.smooth_decode_array(unit_bits, spec)
    np.multiply(unit_bits, nominal.v_high, out=inp[:, 1:])
    if res_out is not None:
        if not stage.has_residue:
            raise NnadcError(_NO_RESIDUE)
        out = _net(stage.residue_layers, inp, nominal, bufs)
        np.clip(out[:, 0], 0.0, spec.vdd, out=res_out)
    return lvl


def _chain(stages, v, mode: str, need_residue: bool = False):
    """(codes, last residue or None) of voltages ``v`` through ``stages``.

    The codes concatenate the stages' levels MSB first.  Ideal mode runs
    each stage's oracles in its place.  The work buffers are allocated
    once and shared by every stage; each stage writes its residue
    straight into the next stage's input buffer.
    """
    if mode == "ideal":
        stages = [IdealStage(s.spec, s.enc) for s in stages]
    elif mode != "behavioral":
        raise ConfigError(f"unknown simulation mode {mode!r}")
    elif any(isinstance(s, IdealStage) for s in stages):
        raise ConfigError("behavioral mode needs a trained stage")
    x = np.atleast_1d(np.asarray(v, dtype=float))
    if x.ndim != 1:
        raise ShapeError(f"expected a 1-D array of input voltages, got "
                         f"shape {x.shape}")
    n, bufs = x.size, {}
    ins = [_work(bufs, "in", (n, 1 + s.spec.smooth_width)) for s in stages]
    outs = [b[:, 0] for b in ins[1:]]
    outs.append(np.empty(n) if need_residue else None)
    ins[0][:, 0] = x
    codes = np.zeros(n, dtype=np.int64)
    for stage, inp, out in zip(stages, ins, outs):
        codes <<= stage.spec.resolution_bits
        codes += stage_forward(stage, inp, out, bufs)
    return codes, outs[-1]


def stage_levels(stage, v: np.ndarray, mode: str = "behavioral",
                 need_residue: bool = False):
    """Vectorized single-stage conversion: (levels, residues or None)."""
    return _chain((stage,), v, mode, need_residue)


def simulate_stage(stage, v: float, mode: str = "behavioral",
                   need_residue: bool = True):
    """(level, residue) of one stage for a scalar input voltage."""
    lvl, res = stage_levels(stage, v, mode, need_residue)
    return int(lvl[0]), (float(res[0]) if res is not None else None)


def convert(p: PipelineConfig, v, mode: str = "behavioral") -> np.ndarray:
    """Vectorized pipeline conversion to integer codes."""
    return _chain(p.stages, v, mode)[0]


def reconstruct(code, enc: EncodingScheme, width: int):
    """Midpoint reconstruction of integer codes ``width`` bits wide."""
    return enc.denormalize(_metrics.code_midpoints(code, width))


def perturbed_stage(stage, sigma: float, rng: np.random.Generator):
    """Copy of a trained stage with its crossbar resistances perturbed.

    Each layer draws its own sub-seed from ``rng``, sub-ADC layers first.
    """
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
    return McSummary(median_enob=float(_metrics.median(enobs)),
                     enobs=tuple(enobs))
