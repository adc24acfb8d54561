"""Spectral accuracy metrics: power spectrum, SNDR and ENOB.

Measurements follow standard Nyquist-ADC practice: coherent sampling
(tone on an exact FFT bin), rectangular window, and every non-signal,
non-DC bin counted as noise plus distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoherenceError, ShapeError
from .signal_core import (TONE_BIN, TONE_N, EncodingScheme, StageSpec,
                          ideal_adc, ideal_stage_level, residue_arithmetic,
                          sine_stimulus)

ENOB_OFFSET_DB = 1.76
ENOB_SLOPE_DB = 6.02


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectrum; bin powers sum to the mean-square power."""

    power: np.ndarray = field(repr=False)
    f_s: float
    n: int

    def bin_freqs(self) -> np.ndarray:
        return np.arange(self.power.size) * self.f_s / self.n


def spectrum(samples: np.ndarray, f_s: float) -> SpectrumResult:
    """Normalized one-sided power spectrum of a power-of-two record."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2 or (n & (n - 1)) != 0:
        raise ShapeError("record length must be a power of two")
    spec = np.fft.rfft(x) / n
    p = np.abs(spec) ** 2
    p[1:-1] *= 2.0  # fold negative frequencies; DC and Nyquist are unique
    return SpectrumResult(power=p, f_s=f_s, n=n)


def sndr_enob(samples: np.ndarray, f_s: float, f_in: float):
    """(SNDR in dB, ENOB in bits) of a coherently sampled sine record."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    j = f_in * n / f_s
    if abs(j - round(j)) > 1e-9:
        raise CoherenceError(f"tone at {f_in} Hz is not on an FFT bin "
                             f"(J = {j:.6f})")
    j = int(round(j))
    if not 0 < j < n // 2:
        raise CoherenceError(f"J = {j} is outside bins 1..{n // 2 - 1}")
    if math.gcd(j, n) != 1:
        raise CoherenceError(f"J = {j} shares a factor with n = {n}")
    res = spectrum(x, f_s)
    p_sig = res.power[j]
    p_noise = res.power[1:].sum() - p_sig
    # A dead record (no tone power) or a noiseless one would divide by
    # zero; map them to the limits so callers can still rank results.
    if p_sig <= 0.0:
        sndr = -math.inf
    elif p_noise <= 0.0:
        sndr = math.inf
    else:
        sndr = 10.0 * math.log10(p_sig / p_noise)
    return float(sndr), float((sndr - ENOB_OFFSET_DB) / ENOB_SLOPE_DB)


def mse_to_enob_sensitivity(pipeline_reso: int, injected_mse: float,
                            n: int = TONE_N, tone_bin: int = TONE_BIN,
                            seed: int = 0) -> float:
    """ENOB of an ideal pipeline whose first-stage residue carries noise.

    The first stage resolves one bit; its residue is corrupted by
    zero-mean Gaussian error of the requested mean-square value before
    the remaining bits are resolved ideally.  Used to calibrate how much
    per-stage residue error a target ENOB tolerates.
    """
    if injected_mse < 0:
        raise ShapeError("injected MSE must be non-negative")
    enc, first = EncodingScheme(), StageSpec(resolution_bits=1)
    stim = sine_stimulus(n, tone_bin, 0.5 - 0.5 / (1 << pipeline_reso), enc,
                         1.0)
    level = ideal_stage_level(stim.samples, first)
    r1 = residue_arithmetic(stim.samples, level, first)
    if injected_mse > 0:
        rng = np.random.default_rng(seed)
        r1 = r1 + rng.normal(0.0, math.sqrt(injected_mse), size=n)
    rest_bits = pipeline_reso - 1
    code = level << rest_bits
    if rest_bits:  # ideal_adc resolves at least one bit
        code += ideal_adc(np.clip(r1, 0.0, 1.0), rest_bits, enc)
    return enob_of_codes(code, pipeline_reso, stim.f_s, stim.f_in)[1]


def code_midpoints(codes, reso: int):
    """Midpoints, normalized to [0, 1), of integer codes ``reso`` bits wide."""
    return (np.asarray(codes, dtype=float) + 0.5) / (1 << reso)


def enob_of_codes(codes: np.ndarray, reso: int, f_s: float, f_in: float):
    """SNDR/ENOB of a code sequence via midpoint reconstruction."""
    return sndr_enob(code_midpoints(codes, reso), f_s, f_in)


def median(values):
    """Median of a non-empty iterable, as ``statistics.median`` computes
    it: the middle sorted value, or the mean of the middle two."""
    data = sorted(values)
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def spectrum_csv_rows(res: SpectrumResult):
    """(frequency, power in dB) rows for export."""
    freqs = res.bin_freqs()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(res.power)
    return list(zip(freqs.tolist(), db.tolist()))
