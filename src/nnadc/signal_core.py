"""Ideal quantization, residue, smooth-code and stimulus oracles.

Everything here is exact arithmetic on ideal converters.  These functions
serve both as training targets and as the reference implementations that
the behavioral models are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .errors import ConfigError, ContractViolation, DomainError, ShapeError

# Default (hidden-layer, residue-hidden) sizes per stage resolution.
_DEFAULT_TOPOLOGY = {1: (3, 5), 2: (4, 7), 3: (6, 9)}
# Default smooth-code width per stage resolution.
_DEFAULT_SMOOTH_WIDTH = {1: 2, 2: 3, 3: 4}

# Code tables: level -> bit tuple (MSB first).  Adjacent levels differ in
# one bit for N=2,3; the 1-bit table duplicates its thermometer bit.
_CODE_TABLES = {
    (1, 2): ((0, 0), (1, 1)),
    (2, 3): ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)),
    # Ring-counter style: shift ones in from the right, then shift zeros in.
    (3, 4): ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1),
             (1, 1, 1, 1), (1, 1, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0)),
}

LOG_THRESHOLD = math.sqrt(2.0) - 1.0  # input where log2(1+v) crosses 1/2

# The standard coherent test tone: FFT bin 127 of a 4,096-point record.
TONE_N = 4096
TONE_BIN = 127


@dataclass(frozen=True)
class StageSpec:
    """Static description of one pipeline stage."""

    resolution_bits: int
    smooth_width: int = 0            # 0 -> default for the resolution
    subadc_hidden: int = 0           # 0 -> default for the resolution
    residue_hidden: int = 0          # 0 -> default for the resolution
    vdd: float = 1.0
    code_table: tuple = ()           # override for the smooth-code table

    def __post_init__(self):
        if self.resolution_bits not in (1, 2, 3):
            raise ConfigError(f"stage resolution must be 1..3, got "
                              f"{self.resolution_bits}")
        if self.vdd <= 0:
            raise ConfigError("vdd must be positive")
        n = self.resolution_bits
        if self.smooth_width == 0:
            object.__setattr__(self, "smooth_width", _DEFAULT_SMOOTH_WIDTH[n])
        hf, hr = _DEFAULT_TOPOLOGY[n]
        if self.subadc_hidden == 0:
            object.__setattr__(self, "subadc_hidden", hf)
        if self.residue_hidden == 0:
            object.__setattr__(self, "residue_hidden", hr)
        if self.smooth_width <= n:
            raise ConfigError("smooth width must exceed the resolution")
        if self.code_table and (
                len(self.code_table) != self.n_levels
                or any(len(code) != self.smooth_width
                       for code in self.code_table)):
            raise ConfigError(f"code_table must have {self.n_levels} codes "
                              f"of {self.smooth_width} bits")

    @property
    def n_levels(self) -> int:
        return 1 << self.resolution_bits

    def codes(self) -> tuple:
        """Smooth-code table for this stage, level -> bit tuple."""
        if self.code_table:
            return self.code_table
        key = (self.resolution_bits, self.smooth_width)
        try:
            return _CODE_TABLES[key]
        except KeyError:
            raise ConfigError(f"no built-in smooth code for N={key[0]}, "
                              f"S={key[1]}; supply code_table") from None


@dataclass(frozen=True)
class EncodingScheme:
    """Input mapping of the converter: linear or logarithmic."""

    kind: Literal["linear", "logarithmic"] = "linear"
    v_min: float = 0.0
    v_max: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "logarithmic"):
            raise ConfigError(f"unknown encoding kind {self.kind!r}")
        if not self.v_min < self.v_max:
            raise ConfigError("v_min must be below v_max")

    def normalize(self, v):
        """Map voltage onto the unit interval before quantization."""
        a = (np.asarray(v, dtype=float) - self.v_min) / (self.v_max - self.v_min)
        if self.kind == "logarithmic":
            return np.log2(a + 1.0)
        return a

    def denormalize(self, t):
        """Inverse of :meth:`normalize`."""
        t = np.asarray(t, dtype=float)
        a = np.exp2(t) - 1.0 if self.kind == "logarithmic" else t
        return self.v_min + a * (self.v_max - self.v_min)


@dataclass(frozen=True)
class DigitalCode:
    """An M-bit output word, MSB first."""

    bits: tuple
    width: int = 0

    def __post_init__(self):
        if self.width == 0:
            object.__setattr__(self, "width", len(self.bits))
        if len(self.bits) != self.width:
            raise ConfigError("bit count does not match width")
        if any(b not in (0, 1) for b in self.bits):
            raise ConfigError("bits must be 0 or 1")

    @classmethod
    def from_value(cls, value: int, width: int) -> "DigitalCode":
        if not 0 <= value < (1 << width):
            raise DomainError(f"value {value} not representable in {width} bits")
        bits = tuple((value >> (width - 1 - i)) & 1 for i in range(width))
        return cls(bits, width)

    @property
    def value(self) -> int:
        v = 0
        for b in self.bits:
            v = (v << 1) | b
        return v

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


def ideal_stage_level(v, spec: StageSpec):
    """Level resolved by an ideal N-bit stage (floor convention, clamped)."""
    arr = np.asarray(v, dtype=float)
    if np.any(arr < 0) or np.any(arr > spec.vdd):
        raise DomainError("input outside [0, vdd]")
    lvl = np.minimum(np.floor(arr * spec.n_levels / spec.vdd),
                     spec.n_levels - 1).astype(int)
    return int(lvl) if np.isscalar(v) else lvl


def residue_arithmetic(v, level, spec: StageSpec):
    """Residue (v - REF(level)) * 2^N for an arbitrary level, unclamped."""
    arr = np.asarray(v, dtype=float)
    lvl = np.asarray(level)
    return (arr - lvl * spec.vdd / spec.n_levels) * spec.n_levels


def ideal_residue(v, level, spec: StageSpec):
    """Residue of an ideal stage; ``level`` must match the ideal level."""
    expected = ideal_stage_level(v, spec)
    if np.any(np.asarray(level) != np.asarray(expected)):
        raise ContractViolation("level does not match ideal_stage_level(v)")
    r = residue_arithmetic(v, level, spec)
    return float(r) if np.isscalar(v) else r


def ideal_adc(v, m: int, enc: EncodingScheme):
    """End-to-end ideal conversion to an M-bit code."""
    if m < 1:
        raise ConfigError("resolution must be at least 1 bit")
    arr = np.asarray(v, dtype=float)
    if np.any(arr < enc.v_min) or np.any(arr > enc.v_max):
        raise DomainError("input outside the encoding range")
    t = enc.normalize(arr)
    value = np.minimum(np.floor(t * (1 << m)), (1 << m) - 1).astype(np.int64)
    if np.isscalar(v):
        return DigitalCode.from_value(int(value), m)
    return value


def smooth_encode(level: int, spec: StageSpec) -> tuple:
    """Smooth codeword for a stage level."""
    codes = spec.codes()
    if not 0 <= level < spec.n_levels:
        raise DomainError(f"level {level} out of range for "
                          f"{spec.resolution_bits}-bit stage")
    return codes[level]


def smooth_decode(bits: Sequence[int], spec: StageSpec) -> int:
    """Nearest-codeword (Hamming) decode; ties go to the lower level."""
    codes = spec.codes()
    if len(bits) != spec.smooth_width:
        raise DomainError("bit width does not match the stage's smooth width")
    dists = [sum(b != c for b, c in zip(bits, code)) for code in codes]
    return int(np.argmin(dists))


def smooth_decode_array(bits: np.ndarray, spec: StageSpec) -> np.ndarray:
    """Vectorized :func:`smooth_decode` for a (batch, S) bit array.

    Soft bits decode to the level at the least L1 distance.  Each
    level's distance is summed column by column, left to right, which is
    numpy's own summation order below 8 terms; a custom code table 8 or
    more bits wide may therefore resolve exact-arithmetic ties
    differently from a numpy ``sum``.  A running strict ``<`` minimum
    sends ties to the lower level, as ``argmin`` does.
    """
    bits = np.asarray(bits)
    if bits.ndim != 2 or bits.shape[1] != spec.smooth_width:
        raise ShapeError(f"expected a (batch, {spec.smooth_width}) bit "
                         f"array, got shape {bits.shape}")
    cols = list(bits.T)
    level = np.zeros(bits.shape[0], dtype=np.intp)
    best = None
    for lv, code in enumerate(spec.codes()):
        dist = np.abs(cols[0] - code[0])
        for col, c in zip(cols[1:], code[1:]):
            dist += np.abs(col - c)
        if best is None:
            best = dist
        else:
            level[dist < best] = lv
            np.minimum(best, dist, out=best)
    return level


def log_stage_level(v_norm):
    """Bit resolved by a 1-bit stage operating on a log-encoded signal."""
    arr = np.asarray(v_norm, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise DomainError("normalized input outside [0, 1]")
    bit = (np.log2(1.0 + arr) >= 0.5).astype(int)
    return int(bit) if np.isscalar(v_norm) else bit


def log_stage_residue(v_norm, bit):
    """Residue recurrence that extracts one bit of log2(1+v) per stage."""
    arr = np.asarray(v_norm, dtype=float)
    b = np.asarray(bit)
    return (1.0 + arr) ** 2 / np.exp2(b) - 1.0


def log_stage_oracle(v_norm):
    """One ideal logarithmic 1-bit stage: (bit, residue)."""
    bit = log_stage_level(v_norm)
    r = log_stage_residue(v_norm, bit)
    return (bit, float(r)) if np.isscalar(v_norm) else (bit, r)


def stage_level_targets(v: np.ndarray, spec: StageSpec,
                        enc: EncodingScheme) -> np.ndarray:
    """Ideal level of this stage for its encoding."""
    if enc.kind == "linear":
        return ideal_stage_level(v, spec)
    if spec.resolution_bits != 1:
        raise ConfigError("logarithmic stages must be 1-bit")
    return log_stage_level(v / spec.vdd)


def residue_targets(v: np.ndarray, level: np.ndarray, spec: StageSpec,
                    enc: EncodingScheme) -> np.ndarray:
    """Ground-truth residue for the stage's (possibly imperfect) level."""
    if enc.kind == "linear":
        r = residue_arithmetic(v, level, spec)
    else:
        r = log_stage_residue(v / spec.vdd, level) * spec.vdd
    return np.clip(r, 0.0, spec.vdd)


@dataclass(frozen=True)
class SineStimulus:
    samples: np.ndarray = field(repr=False)
    f_in: float = 0.0
    f_s: float = 1.0


def sine_stimulus(n: int, tone_bin: int, amplitude: float,
                  enc: EncodingScheme, vdd: float) -> SineStimulus:
    """Tone on FFT bin ``tone_bin`` of an n-point record (f_s = 1).

    The sine swings ``amplitude`` about mid-scale in the encoding's
    normalized domain; the voltages are clipped to [0, vdd].  Coherence
    is checked where the record is measured, by ``metrics.sndr_enob``.
    """
    k = np.arange(n)
    t = 0.5 + amplitude * np.sin(2.0 * np.pi * tone_bin * k / n)
    v = np.clip(enc.denormalize(t), 0.0, vdd)
    return SineStimulus(samples=v, f_in=tone_bin / n, f_s=1.0)
