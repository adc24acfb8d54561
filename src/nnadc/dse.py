"""Design-space exploration over pipeline stage compositions.

Candidate pipelines are ordered compositions of the target resolution
into 1/2/3-bit stages.  Power, rate and area come from a user-supplied
cost table; candidates are ranked by the Walden figure of merit first
and die area second.  The space is small enough (tribonacci growth,
10609 compositions at 16 bits) that exhaustive search is used.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError

# Largest total resolution, in bits, of a pipeline or a search target.
MAX_RESO = 16


@dataclass(frozen=True)
class StageCost:
    power: float       # watts
    rate: float        # samples/s the stage sustains
    area: float        # mm^2

    def __post_init__(self):
        if min(self.power, self.rate, self.area) <= 0:
            raise ConfigError("cost entries must be positive")


@dataclass(frozen=True)
class CostTable:
    """Per-resolution stage costs, indexed by stage bits (1..3)."""

    entries: dict

    def __post_init__(self):
        for n in self.entries:
            if n not in (1, 2, 3):
                raise ConfigError(f"cost table key {n} outside 1..3")

    def cost(self, bits: int) -> StageCost:
        try:
            return self.entries[bits]
        except KeyError:
            raise ConfigError(f"no cost entry for a {bits}-bit stage") from None

    @classmethod
    def from_dict(cls, data: dict) -> "CostTable":
        entries = {}
        for key, row in data.items():
            entries[int(key)] = StageCost(power=float(row["power"]),
                                          rate=float(row["rate"]),
                                          area=float(row["area"]))
        return cls(entries=entries)


@dataclass(frozen=True)
class DseResult:
    composition: tuple
    power: float
    rate: float
    area: float
    enob: float
    fom_w: float       # joules per conversion step

    def sort_key(self):
        return (self.fom_w, self.area, len(self.composition), self.composition)


def enumerate_compositions(reso: int):
    """All ordered compositions of ``reso`` into parts from {1, 2, 3}."""
    if not 1 <= reso <= MAX_RESO:
        raise ConfigError(f"resolution must be 1..{MAX_RESO}")
    table = {0: [()]}
    for n in range(1, reso + 1):
        out = []
        for part in (1, 2, 3):
            if n - part >= 0:
                out.extend(c + (part,) for c in table[n - part])
        table[n] = out
    return table[reso]


def composition_count(reso: int) -> int:
    """Tribonacci recurrence c(n) = c(n-1) + c(n-2) + c(n-3)."""
    c = {0: 1, -1: 0, -2: 0}
    for n in range(1, reso + 1):
        c[n] = c[n - 1] + c[n - 2] + c[n - 3]
    return c[reso]


def walden_fom(power: float, enob: float, rate: float) -> float:
    return power / (2.0 ** enob * rate)


def evaluate_candidate(comp, table: CostTable,
                       enob: float | None = None) -> DseResult:
    """Cost roll-up of one composition.

    ENOB defaults to the nominal resolution (sum of stage bits); pass a
    measured value to rank by measured accuracy.
    """
    comp = tuple(comp)
    if not comp:
        raise ConfigError("empty composition")
    costs = [table.cost(n) for n in comp]
    power = sum(c.power for c in costs)
    rate = min(c.rate for c in costs)
    area = sum(c.area for c in costs)
    if enob is None:
        enob = float(sum(comp))
    return DseResult(composition=comp, power=power, rate=rate, area=area,
                     enob=enob, fom_w=walden_fom(power, enob, rate))


def optimize(reso: int, table: CostTable):
    """Exhaustively evaluate and rank every composition.

    Sort order: figure of merit, then area, then fewer stages, then the
    composition itself, so the ranking is fully deterministic.
    """
    results = [evaluate_candidate(c, table)
               for c in enumerate_compositions(reso)]
    results.sort(key=DseResult.sort_key)
    return results
