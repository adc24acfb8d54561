"""Differential RRAM crossbar model.

Weights are realized by complementary conductance pairs (g_u + g_l is the
same for every pair), which makes the per-column normalization
input-independent and bounds every column's absolute weight sum below 1.
The pairing also fixes the set of representable differential weights:
2^A_R evenly spaced levels, which is the quantization grid used at
training time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import DeviceError, PrecisionError, ShapeError, check_fields

# Relative tolerance when checking that a weight sits on the device grid.
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class DeviceGrid:
    """Programmable conductance range with 2^A_R evenly spaced levels."""

    g_off: float = 0.1e-6
    g_on: float = 10e-6
    precision_bits: int = 3

    def __post_init__(self):
        check_fields(self, ("g_off", "g_on"), Real, DeviceError)
        check_fields(self, ("precision_bits",), Integral, DeviceError)
        if not 0 < self.g_off < self.g_on < np.inf:  # NaN fails too
            raise DeviceError("need 0 < g_off < g_on < inf")
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
        if not 0 <= self.sigma < np.inf:  # NaN fails both comparisons
            raise DeviceError("sigma must be non-negative and finite")
        check_fields(self, ("seed",), Integral, DeviceError)
        if self.seed < 0:
            raise DeviceError("perturbation seed must be non-negative")


@dataclass(frozen=True)
class CrossbarLayer:
    """One crossbar: H input rows (last row is the bias row) by M columns."""

    g_u: np.ndarray
    g_l: np.ndarray
    grid: DeviceGrid
    bias_voltage: float = 0.0  # constant drive on the bias row; 0 -> no bias

    def __post_init__(self):
        shape = np.shape(self.g_u)
        if shape != np.shape(self.g_l) or len(shape) != 2:
            raise ShapeError("g_u and g_l must be equal-shape 2-D arrays")
        # one private read-only copy of both arrays, stacked: ``weights``
        # is computed from them once
        g = np.array((self.g_u, self.g_l), dtype=float)
        # a NaN makes min() and max() NaN, failing both tests
        if g.size and not (0 < g.min() and g.max() < np.inf):
            raise DeviceError("conductances must be positive and finite")
        g.flags.writeable = False
        object.__setattr__(self, "g_u", g[0])
        object.__setattr__(self, "g_l", g[1])

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


def _wide_rows(a: np.ndarray, *vectors: np.ndarray) -> tuple:
    """C-order (n, m) ``a`` viewed as (n / k, m · k) rows, k = gcd(n, 64),
    and each (m,) vector tiled k times to match.

    numpy runs a (n, m) ⊕ (m,) step one m-element row at a time; on the
    view it runs n / k rows of m · k elements.  Every element still meets
    its own vector entry, so an elementwise step on the view writes into
    ``a`` the same bits.  An odd n gives k = 1, ``a``'s own rows.
    """
    n, m = a.shape
    k = math.gcd(n, 64)
    # np.tile(stacked, k), by the repeat it runs, without its Python steps
    tiled = np.array(vectors).repeat(k, axis=0).reshape(len(vectors), m * k)
    return (a.reshape(n // k, m * k), *tiled)


def vmm(layer: CrossbarLayer, v_in: np.ndarray,
        out: np.ndarray | None = None) -> np.ndarray:
    """Analog vector-matrix multiply through the crossbar.

    ``v_in`` is a batch of signal-row voltages, one row of rows-1 entries
    per sample; the bias row is driven at the layer's own bias voltage.
    ``out``, if given, receives the batch-by-cols result and is returned.
    A layer with one signal row is an outer product; its ``+ 0.0`` turns
    a -0.0 product into +0.0, as matmul's ``0 + v*w`` does.  A row-major
    output of several columns takes the bias row on wide rows.
    """
    w = layer.weights
    v = np.asarray(v_in, dtype=float)
    if v.ndim != 2 or v.shape[1] != layer.rows - 1:
        raise ShapeError(f"expected a batch of {layer.rows - 1} input "
                         f"voltages, got shape {v.shape}")
    if v.shape[1] == 1:
        out = np.multiply(v, w[0], out=out)
        out += 0.0
    else:
        out = np.matmul(v, w[:-1], out=out)
    bias = layer.bias_voltage * w[-1]
    if out.flags.c_contiguous and out.shape[1] > 1:
        rows, bias = _wide_rows(out, bias)
        rows += bias
    else:
        out += bias
    return out


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
    return (2 * a - (q - 1)) / (q - 1) * wm


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
    finite = np.isfinite(w)
    idx = (np.where(finite, w, 0.0) / wm * (q - 1) + (q - 1)) / 2.0
    a = np.round(idx)
    off = ((np.abs(idx - a) > _GRID_RTOL * (q - 1)) | (a < 0) | (a > q - 1)
           | ~finite)
    if off.any():
        bad = tuple(map(int, np.argwhere(off)[0]))
        raise PrecisionError(f"weight at {bad} = {float(w[bad])!r} is not on "
                             f"the {grid.precision_bits}-bit grid for fan-in "
                             f"{h}")
    g_u = grid.level(a)
    g_l = grid.level(q - 1 - a)
    return CrossbarLayer(g_u=g_u, g_l=g_l, grid=grid, bias_voltage=bias_voltage)


def perturb_resistances(layer: CrossbarLayer,
                        spec: PerturbationSpec) -> CrossbarLayer:
    """Fresh lognormal perturbation of every device resistance.

    A draw that drives a conductance to 0 or infinity (a sigma of
    hundreds) raises ``DeviceError``.
    """
    if spec.sigma == 0:
        return layer
    rng = np.random.default_rng(spec.seed)
    # theta_u then theta_l, from one draw: the same stream as two draws
    g = rng.normal(0.0, spec.sigma, size=(2, *layer.g_u.shape))
    # resistance scales by e^theta, hence conductance by e^-theta
    np.negative(g, out=g)
    with np.errstate(over="ignore"):  # refused below, with its sigma
        np.exp(g, out=g)
    g[0] *= layer.g_u
    g[1] *= layer.g_l
    try:
        return CrossbarLayer(g[0], g[1], layer.grid, layer.bias_voltage)
    except DeviceError:
        raise DeviceError(f"sigma {spec.sigma} drives a conductance to 0 or "
                          f"infinity") from None
