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
from functools import cached_property

import numpy as np

from .errors import ConfigError

# Supply rail relative to the signal full-scale vdd.
SUPPLY_RATIO = 2.5
# Nominal transition scale relative to vdd (peak inverter gain 15).
TRANSITION_RATIO = 1.0 / 30.0


@dataclass(frozen=True)
class VtcParams:
    """One inverter transfer curve."""

    v_m: float
    s: float
    v_high: float
    v_low: float = 0.0

    def __post_init__(self):
        if self.s <= 0:
            raise ConfigError("transition scale must be positive")
        if not self.v_low < self.v_high:
            raise ConfigError("need v_low < v_high")


@dataclass(frozen=True)
class VariationSpec:
    """Process spread of the VTC parameters."""

    v_m_std: float = 0.0   # absolute, volts
    s_rel_std: float = 0.0  # relative to the nominal transition scale


@dataclass(frozen=True)
class VtcFamily:
    """Monte Carlo population of inverter curves."""

    members: tuple
    nominal: VtcParams
    seed: int = 0
    variation: VariationSpec = VariationSpec()

    def __post_init__(self):
        if len(self.members) < 1:
            raise ConfigError("family must have at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def as_arrays(self):
        """(v_m, s, v_high, v_low) arrays over the members, read-only."""
        return self._arrays

    @cached_property
    def _arrays(self):
        arrays = tuple(np.array([getattr(p, name) for p in self.members])
                       for name in ("v_m", "s", "v_high", "v_low"))
        for a in arrays:
            a.flags.writeable = False
        return arrays


def nominal_vtc(vdd: float, supply_ratio: float = SUPPLY_RATIO) -> VtcParams:
    """Nominal inverter: midpoint vdd/2, scale vdd/30, rails (0, supply)."""
    return VtcParams(v_m=vdd / 2.0, s=TRANSITION_RATIO * vdd,
                     v_high=supply_ratio * vdd, v_low=0.0)


def _logistic(z, out=None):
    """Overflow-safe logistic, ``exp(min(z, 0)) / (1 + exp(-|z|))``.

    This is ``1/(1+exp(-z))`` for z >= 0 and ``exp(z)/(1+exp(z))``
    otherwise, in one branch-free pass with one temporary.
    ``minimum(z, -z)`` is -|z| but keeps the sign of a NaN input, so NaNs
    come out as from ``exp(z)``.  ``out`` may be ``z`` itself.
    """
    z = np.asarray(z, dtype=float)
    e = np.negative(z, out=np.empty_like(z))
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    e += 1.0
    if out is None:
        out = np.empty_like(z)
    np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
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
    out += p.v_low
    return float(out) if np.isscalar(v) else out


def sample_family(n: int, variation: VariationSpec, seed: int,
                  nominal: VtcParams) -> VtcFamily:
    """Gaussian parameter spread around the nominal curve, seed-determined."""
    if n < 1:
        raise ConfigError("family size must be at least 1")
    rng = np.random.default_rng(seed)
    members = []
    for _ in range(n):
        vm = rng.normal(nominal.v_m, variation.v_m_std) if variation.v_m_std else nominal.v_m
        s = nominal.s
        if variation.s_rel_std:
            s = rng.normal(nominal.s, variation.s_rel_std * nominal.s)
            while s <= 0:  # truncate to positive scales
                s = rng.normal(nominal.s, variation.s_rel_std * nominal.s)
        members.append(VtcParams(v_m=vm, s=s, v_high=nominal.v_high,
                                 v_low=nominal.v_low))
    return VtcFamily(members=tuple(members), nominal=nominal, seed=seed,
                     variation=variation)


def default_family(vdd: float, n: int = 100, seed: int = 0) -> VtcFamily:
    """The standard 100-member family: 2% of vdd on v_m, 10% on s."""
    nom = nominal_vtc(vdd)
    var = VariationSpec(v_m_std=0.02 * vdd, s_rel_std=0.10)
    return sample_family(n, var, seed, nom)
