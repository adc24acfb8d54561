"""Behavioral inverter voltage-transfer characteristic (VTC).

A logistic-shaped, strictly decreasing transfer curve stands in for the
transistor-level inverter: midpoint v_m, transition scale s, output
rails.  Monte Carlo families model process variation of v_m and s.

The supply rail sits above the converter's signal full-scale vdd, and
the switching midpoint is skewed down to vdd/2 (transistor sizing).
Both are needed by the passive crossbars: the output layer's summed
weight magnitude stays below one, so the hidden swing must exceed the
residue swing, and the first layer can only pull a column up to a
fraction of its drive voltages, so the midpoint must stay reachable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Supply rail relative to the signal full-scale vdd.
SUPPLY_RATIO = 2.5
# Nominal transition scale relative to vdd (peak inverter gain 15).
TRANSITION_RATIO = 1.0 / 30.0
# The standard Monte Carlo family: its size, the spread of v_m relative
# to vdd and the relative spread of s.
FAMILY_SIZE = 100
V_M_STD_RATIO = 0.02
S_REL_STD = 0.10


@dataclass(frozen=True)
class VtcParams:
    """One inverter transfer curve."""

    v_m: float
    s: float
    v_high: float
    v_low: float = 0.0

    def __post_init__(self):
        if not -np.inf < self.v_m < np.inf:  # NaN fails too
            raise ConfigError("v_m must be finite")
        if not 0 < self.s < np.inf:
            raise ConfigError("transition scale must be positive and finite")
        if not -np.inf < self.v_low < self.v_high < np.inf:
            raise ConfigError("need finite rails, v_low < v_high")


@dataclass(frozen=True)
class VariationSpec:
    """Process spread of the VTC parameters."""

    v_m_std: float = 0.0   # absolute, volts
    s_rel_std: float = 0.0  # relative to the nominal transition scale

    def __post_init__(self):
        if not all(0 <= x < np.inf for x in (self.v_m_std, self.s_rel_std)):
            raise ConfigError("VTC spreads must be non-negative and finite")


@dataclass(frozen=True, eq=False)
class VtcFamily:
    """Monte Carlo population of inverter curves: read-only arrays of
    each curve's ``v_m`` and ``s``, and the ``nominal`` rails they share."""

    v_m: np.ndarray
    s: np.ndarray
    nominal: VtcParams

    def __post_init__(self):
        v_m, s = (np.array(a, dtype=float) for a in (self.v_m, self.s))
        if v_m.ndim != 1 or v_m.shape != s.shape or not v_m.size:
            raise ConfigError("family size must be at least 1, with 1-D "
                              "v_m and s of one length")
        # a NaN fails every comparison
        if not ((np.abs(v_m) < np.inf) & (0 < s) & (s < np.inf)).all():
            raise ConfigError("a family needs finite v_m, positive and "
                              "finite s")
        for name, a in (("v_m", v_m), ("s", s)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.v_m.size


def nominal_vtc(vdd: float) -> VtcParams:
    """Nominal inverter: midpoint vdd/2, scale vdd/30, rails (0, supply)."""
    return VtcParams(v_m=vdd / 2.0, s=TRANSITION_RATIO * vdd,
                     v_high=SUPPLY_RATIO * vdd, v_low=0.0)


def _logistic(z, out=None):
    """Overflow-safe logistic, ``exp(min(z, 0)) / (1 + exp(-|z|))``.

    This is ``1/(1+exp(-z))`` for z >= 0 and ``exp(z)/(1+exp(z))``
    otherwise, in one branch-free pass with one temporary and one exp.
    The numerator is ``maximum(exp(-|z|), z >= 0)``, which is exact:
    exp(min(z, 0)) is exactly 1 for z >= 0, where exp(-|z|) <= 1, and is
    exp(-|z|) itself for z < 0, where the comparison gives 0.
    ``minimum(z, -z)`` is -|z| but keeps the sign of a NaN input, so NaNs
    come out as from ``exp(z)``.  ``out`` may be ``z`` itself.
    """
    z = np.asarray(z, dtype=float)
    e = np.negative(z, out=np.empty_like(z))
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    if out is None:
        out = np.empty_like(z)
    np.greater_equal(z, 0.0, out=out)
    np.maximum(e, out, out=out)
    e += 1.0
    out /= e
    return out


def vtc_eval(p: VtcParams, v, out=None):
    """Inverter output voltage; strictly decreasing in the input.

    ``out``, if given, receives the result and may be ``v`` itself.
    """
    arr = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty_like(arr)
    np.subtract(p.v_m, arr, out=out)
    out /= p.s
    _logistic(out, out=out)
    out *= p.v_high - p.v_low
    if p.v_low:  # the scaled logistic is +0 or more, or NaN: 0 V adds nothing
        out += p.v_low
    return out


def sample_family(n: int, variation: VariationSpec, seed: int,
                  nominal: VtcParams) -> VtcFamily:
    """Gaussian parameter spread around the nominal curve, seed-determined."""
    rng = np.random.default_rng(seed)
    v_m, s = [], []
    for _ in range(n):
        v_m.append(rng.normal(nominal.v_m, variation.v_m_std)
                   if variation.v_m_std else nominal.v_m)
        si = nominal.s
        if variation.s_rel_std:
            si = rng.normal(nominal.s, variation.s_rel_std * nominal.s)
            while si <= 0:  # truncate to positive scales
                si = rng.normal(nominal.s, variation.s_rel_std * nominal.s)
        s.append(si)
    return VtcFamily(v_m=v_m, s=s, nominal=nominal)


def default_family(vdd: float, n: int = FAMILY_SIZE,
                   seed: int = 0) -> VtcFamily:
    """The standard family: 100 curves, 2% of vdd on v_m, 10% on s."""
    nom = nominal_vtc(vdd)
    var = VariationSpec(v_m_std=V_M_STD_RATIO * vdd, s_rel_std=S_REL_STD)
    return sample_family(n, var, seed, nom)
