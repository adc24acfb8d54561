"""Precision sweeps: trained-stage accuracy vs RRAM weight precision.

For each (stage resolution, weight precision) pair a stage is trained,
then evaluated under repeated resistance perturbation; the median
sub-ADC ENOB and residue MSE over the runs are reported.  Perturbation
seeds are shared across precisions so the trend is not masked by Monte
Carlo noise.
"""

from __future__ import annotations

import dataclasses
import statistics

import numpy as np

from .config import ExperimentConfig, split_seed
from .crossbar import PerturbationSpec, perturb_resistances
from .pipeline import stage_levels
# perfbench/tracing.py patches this name, so it stays importable here
from .signal_core import smooth_decode_array  # noqa: F401
from .trainer import TrainedStage, residue_targets, stage_level_targets
from . import metrics as _metrics


def _perturbed(layers, sigma, rng):
    if sigma == 0:
        return layers
    return tuple(perturb_resistances(
        l, PerturbationSpec(sigma=sigma, seed=int(rng.integers(2 ** 31))))
        for l in layers)


def stage_metrics_from_layers(stage: TrainedStage, subadc_layers,
                              residue_layers, n: int = 4096,
                              tone_bin: int = 127) -> dict:
    """Sub-ADC ENOB and residue MSE evaluated through given crossbars."""
    spec, enc = stage.spec, stage.enc
    stage = dataclasses.replace(stage, subadc_layers=subadc_layers,
                                residue_layers=residue_layers)
    vdd = spec.vdd
    lsb = 1.0 / spec.n_levels
    k = np.arange(n)
    t = 0.5 + (0.5 - lsb / 2.0) * np.sin(2.0 * np.pi * tone_bin * k / n)
    v = np.clip(enc.denormalize(t), 0.0, vdd)
    lvl, _ = stage_levels(stage, v)
    _, enob = _metrics.sndr_enob((lvl + 0.5) * lsb, 1.0, tone_bin / n)
    out = {"subadc_enob": enob}
    if residue_layers is not None:
        grid_points = np.arange(2048) / 2048.0 * vdd
        _, pred = stage_levels(stage, grid_points, need_residue=True)
        ideal = residue_targets(grid_points,
                                stage_level_targets(grid_points, spec, enc),
                                spec, enc)
        out["residue_mse"] = float(((pred - ideal) ** 2).mean())
    return out


def perturbed_stage_metrics(stage: TrainedStage, sigma: float,
                            seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sub = _perturbed(stage.subadc_layers, sigma, rng)
    res = (_perturbed(stage.residue_layers, sigma, rng)
           if stage.residue_layers else None)
    return stage_metrics_from_layers(stage, sub, res)


def median_perturbed_metrics(stage: TrainedStage, runs: int, sigma: float,
                             seed: int) -> dict:
    """Median metrics over ``runs`` independent perturbations."""
    samples = [perturbed_stage_metrics(stage, sigma, seed + r)
               for r in range(runs)]
    out = {"subadc_enob": statistics.median(s["subadc_enob"] for s in samples)}
    if "residue_mse" in samples[0]:
        out["residue_mse"] = statistics.median(s["residue_mse"]
                                               for s in samples)
    return out


def precision_sweep(cfg: ExperimentConfig, resolutions, precisions,
                    runs: int, sigma: float, train_residue: bool = True,
                    seeds_per_point: int = 1):
    """Rows of (N, A_R, median ENOB, median residue MSE or '').

    ``seeds_per_point`` trains each (N, A_R) point with several seeds
    and keeps the stage with the best *perturbed* validation score
    (training itself never sees resistance perturbation); this damps
    training-seed noise and fragile weight configurations that would
    otherwise mask the precision trend.  Validation perturbation seeds
    are disjoint from the reporting seeds.
    """
    from .signal_core import StageSpec
    from .trainer import train_stage

    family = cfg.family()
    rows = []
    for n_bits in resolutions:
        spec = StageSpec(resolution_bits=n_bits, vdd=cfg.vdd)
        for ar in precisions:
            grid = dataclasses.replace(cfg.grid, precision_bits=ar)
            base_seed = split_seed(cfg.seed, f"sweep-n{n_bits}-ar{ar}")
            val_seed = split_seed(cfg.seed, f"val-n{n_bits}")
            stage = None
            stage_score = None
            for k in range(seeds_per_point):
                train_cfg = dataclasses.replace(
                    cfg.train, precision_bits=ar, seed=base_seed + k)
                cand = train_stage(spec, cfg.encoding, family, grid,
                                   train_cfg, train_residue=train_residue)
                enobs = [perturbed_stage_metrics(cand, sigma,
                                                 val_seed + r)["subadc_enob"]
                         for r in range(9)]
                # disqualify candidates so fragile that dead draws would
                # dominate a median; otherwise rank by the median itself
                dead = sum(1 for e in enobs if not np.isfinite(e))
                score = (dead >= 5, -statistics.median(enobs))
                if stage is None or score < stage_score:
                    stage, stage_score = cand, score
            med = median_perturbed_metrics(
                stage, runs, sigma, seed=split_seed(cfg.seed, f"mc-n{n_bits}"))
            rows.append((n_bits, ar, med["subadc_enob"],
                         med.get("residue_mse", "")))
    return rows
