"""Spectral accuracy metrics: power spectrum, SNDR, ENOB, residue MSE.

Measurements follow standard Nyquist-ADC practice: coherent sampling
(tone on an exact FFT bin), rectangular window, and every non-signal,
non-DC bin counted as noise plus distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoherenceError, ShapeError
from .signal_core import TONE_BIN, TONE_N, EncodingScheme, sine_stimulus

ENOB_OFFSET_DB = 1.76
ENOB_SLOPE_DB = 6.02


@dataclass(frozen=True)
class SpectrumResult:
    """One-sided power spectrum; bin powers sum to the mean-square power."""

    power: np.ndarray = field(repr=False)
    signal_bin: int
    f_s: float
    n: int

    def bin_freqs(self) -> np.ndarray:
        return np.arange(self.power.size) * self.f_s / self.n


def spectrum(samples: np.ndarray, f_s: float, signal_bin: int = 0) -> SpectrumResult:
    """Normalized one-sided power spectrum of a power-of-two record."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2 or (n & (n - 1)) != 0:
        raise ShapeError("record length must be a power of two")
    spec = np.fft.rfft(x) / n
    p = np.abs(spec) ** 2
    p[1:-1] *= 2.0  # fold negative frequencies; DC and Nyquist are unique
    return SpectrumResult(power=p, signal_bin=signal_bin, f_s=f_s, n=n)


def sndr_enob(samples: np.ndarray, f_s: float, f_in: float):
    """(SNDR in dB, ENOB in bits) of a coherently sampled sine record."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    j = f_in * n / f_s
    if abs(j - round(j)) > 1e-9:
        raise CoherenceError(f"tone at {f_in} Hz is not on an FFT bin "
                             f"(J = {j:.6f})")
    j = int(round(j))
    if math.gcd(j, n) != 1:
        raise CoherenceError(f"J = {j} shares a factor with n = {n}")
    res = spectrum(x, f_s, signal_bin=j)
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


def residue_mse(predicted, ideal, vdd: float, n_points: int = 2048) -> float:
    """Mean squared difference over a uniform grid on [0, vdd)."""
    grid = np.arange(n_points) / n_points * vdd
    p = np.asarray(predicted(grid), dtype=float)
    q = np.asarray(ideal(grid), dtype=float)
    if p.shape != grid.shape or q.shape != grid.shape:
        raise ShapeError("residue functions must be vectorized over the grid")
    return float(((p - q) ** 2).mean())


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
    lsb = 1.0 / (1 << pipeline_reso)
    stim = sine_stimulus(n, tone_bin, 0.5 - lsb / 2.0, EncodingScheme(), 1.0)
    v = stim.samples
    level1 = np.minimum(np.floor(v * 2.0), 1.0)
    r1 = (v - level1 / 2.0) * 2.0
    if injected_mse > 0:
        rng = np.random.default_rng(seed)
        r1 = r1 + rng.normal(0.0, math.sqrt(injected_mse), size=n)
    r1 = np.clip(r1, 0.0, 1.0)
    rest_bits = pipeline_reso - 1
    rest = np.minimum(np.floor(r1 * (1 << rest_bits)), (1 << rest_bits) - 1)
    code = level1 * (1 << rest_bits) + rest
    rec = (code + 0.5) * lsb
    _, enob = sndr_enob(rec, stim.f_s, stim.f_in)
    return enob


def enob_of_codes(codes: np.ndarray, reso: int, f_s: float, f_in: float):
    """SNDR/ENOB of a code sequence via midpoint reconstruction."""
    rec = (np.asarray(codes, dtype=float) + 0.5) / (1 << reso)
    return sndr_enob(rec, f_s, f_in)


def spectrum_csv_rows(res: SpectrumResult):
    """(frequency, power in dB) rows for export."""
    freqs = res.bin_freqs()
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(res.power)
    return list(zip(freqs.tolist(), db.tolist()))
