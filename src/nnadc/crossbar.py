"""Differential RRAM crossbar model.

Weights are realized by complementary conductance pairs (g_u + g_l is the
same for every pair), which makes the per-column normalization
input-independent and bounds every column's absolute weight sum below 1.
The pairing also fixes the set of representable differential weights:
2^A_R evenly spaced levels, which is the quantization grid used at
training time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DeviceError, PrecisionError, ShapeError

# Relative tolerance when checking that a weight sits on the device grid.
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class DeviceGrid:
    """Programmable conductance range with 2^A_R evenly spaced levels."""

    g_off: float = 0.1e-6
    g_on: float = 10e-6
    precision_bits: int = 3

    def __post_init__(self):
        if self.g_off <= 0 or self.g_on <= self.g_off:
            raise DeviceError("need 0 < g_off < g_on")
        if not 1 <= self.precision_bits <= 7:
            raise DeviceError("precision_bits must be 1..7")

    @property
    def n_levels(self) -> int:
        return 1 << self.precision_bits

    def level(self, a) -> np.ndarray:
        """Conductance of grid index ``a`` (0 -> g_off, max -> g_on)."""
        step = (self.g_on - self.g_off) / (self.n_levels - 1)
        return self.g_off + np.asarray(a) * step

    def w_max(self, fan_in: int) -> float:
        """Largest representable weight magnitude for a fan_in-row column."""
        return (self.g_on - self.g_off) / (fan_in * (self.g_on + self.g_off))

    def weight_levels(self, fan_in: int) -> np.ndarray:
        """All 2^A_R representable differential weights, ascending."""
        q = self.n_levels
        a = np.arange(q)
        return (2 * a - (q - 1)) / (q - 1) * self.w_max(fan_in)


@dataclass(frozen=True)
class PerturbationSpec:
    """Lognormal resistance perturbation: R <- R * exp(theta)."""

    sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise DeviceError("sigma must be non-negative")


@dataclass(frozen=True)
class CrossbarLayer:
    """One crossbar: H input rows (last row is the bias row) by M columns."""

    g_u: np.ndarray
    g_l: np.ndarray
    grid: DeviceGrid
    bias_voltage: float = 0.0  # constant drive on the bias row; 0 -> no bias

    def __post_init__(self):
        gu = np.asarray(self.g_u, dtype=float)
        gl = np.asarray(self.g_l, dtype=float)
        if gu.shape != gl.shape or gu.ndim != 2:
            raise ShapeError("g_u and g_l must be equal-shape 2-D arrays")
        if np.any(gu <= 0) or np.any(gl <= 0):
            raise DeviceError("conductances must be positive")
        # private read-only copies: ``weights`` is computed from them once
        for name, g in (("g_u", gu), ("g_l", gl)):
            g = g.copy()
            g.flags.writeable = False
            object.__setattr__(self, name, g)

    @property
    def rows(self) -> int:
        return self.g_u.shape[0]

    @property
    def cols(self) -> int:
        return self.g_u.shape[1]

    @cached_property
    def weights(self) -> np.ndarray:
        """Effective weight matrix (bias row last), computed on first use.

        A perturbed copy is a new layer and computes its own.
        """
        w = weights_from_conductances(self)
        w.flags.writeable = False
        return w


def weights_from_conductances(layer: CrossbarLayer) -> np.ndarray:
    """Effective rows-by-cols weight matrix of a crossbar, bias row last."""
    sums = (layer.g_u + layer.g_l).sum(axis=0)  # per-column normalization
    return (layer.g_u - layer.g_l) / sums


def vmm(layer: CrossbarLayer, v_in: np.ndarray, v_bias: float | None = None,
        out: np.ndarray | None = None):
    """Analog vector-matrix multiply through the crossbar.

    ``v_in`` carries the signal rows (rows-1 entries, or a batch of them);
    the bias row is driven at ``v_bias`` (defaults to the layer's own
    bias voltage).  ``out``, if given, receives the result (cols entries,
    or a batch of them) and is returned.
    """
    w = layer.weights
    v = np.asarray(v_in, dtype=float)
    if v.ndim not in (1, 2):
        raise ShapeError(f"expected 1-D or 2-D input voltages, got "
                         f"{v.ndim}-D")
    batched = v.ndim == 2
    if not batched:
        v = v[None, :]
        if out is not None:
            out = out[None, :]
    if v.shape[1] != layer.rows - 1:
        raise ShapeError(f"expected {layer.rows - 1} input voltages, "
                         f"got {v.shape[1]}")
    if v_bias is None:
        v_bias = layer.bias_voltage
    out = np.matmul(v, w[:-1], out=out)
    out += v_bias * w[-1]
    return out if batched else out[0]


def quantize_weight(w, grid: DeviceGrid, fan_in: int):
    """Clip to the representable range and round to the nearest grid level.

    The grid is symmetric with an even number of levels, so there is no
    zero level; exact midpoints round toward the positive side.
    """
    q = grid.n_levels
    wm = grid.w_max(fan_in)
    arr = np.clip(np.asarray(w, dtype=float), -wm, wm)
    # index on the differential grid; floor(x+0.5) rounds ties upward
    a = np.floor((arr / wm * (q - 1) + (q - 1)) / 2.0 + 0.5)
    a = np.clip(a, 0, q - 1)
    out = (2 * a - (q - 1)) / (q - 1) * wm
    return float(out) if np.isscalar(w) else out


def instantiate_conductances(weights, grid: DeviceGrid,
                             bias_voltage: float = 0.0) -> CrossbarLayer:
    """Complementary conductance pairs realizing an on-grid weight matrix.

    ``weights`` is the full rows-by-cols matrix (bias row last when
    ``bias_voltage`` is nonzero).  Every entry must already sit on the
    differential grid for its column's fan-in.
    """
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    h = w.shape[0]
    q = grid.n_levels
    wm = grid.w_max(h)
    idx = (w / wm * (q - 1) + (q - 1)) / 2.0
    a = np.round(idx)
    if np.any(np.abs(idx - a) > _GRID_RTOL * (q - 1)) or np.any(a < 0) or np.any(a > q - 1):
        bad = np.unravel_index(np.argmax(np.abs(idx - np.round(idx))), w.shape)
        raise PrecisionError(f"weight at {bad} = {w[bad]!r} is not on the "
                             f"{grid.precision_bits}-bit grid for fan-in {h}")
    g_u = grid.level(a)
    g_l = grid.level(q - 1 - a)
    return CrossbarLayer(g_u=g_u, g_l=g_l, grid=grid, bias_voltage=bias_voltage)


def perturb_resistances(layer: CrossbarLayer,
                        spec: PerturbationSpec) -> CrossbarLayer:
    """Fresh lognormal perturbation of every device resistance."""
    if spec.sigma == 0:
        return layer
    rng = np.random.default_rng(spec.seed)
    theta_u = rng.normal(0.0, spec.sigma, size=layer.g_u.shape)
    theta_l = rng.normal(0.0, spec.sigma, size=layer.g_l.shape)
    # resistance scales by e^theta, hence conductance by e^-theta
    return replace(layer, g_u=layer.g_u * np.exp(-theta_u),
                   g_l=layer.g_l * np.exp(-theta_l))
