"""Precision sweeps: trained-stage accuracy vs RRAM weight precision.

For each (stage resolution, weight precision) pair a stage is trained,
then evaluated under repeated resistance perturbation; the median
sub-ADC ENOB and residue MSE over the runs are reported.  Perturbation
seeds are shared across precisions so the trend is not masked by Monte
Carlo noise.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .config import ExperimentConfig, split_seed
# perfbench/tracing.py patches these names, so they stay importable here
from .crossbar import perturb_resistances  # noqa: F401
from .metrics import median
from .pipeline import McEvalSpec, perturbed_stage
from .signal_core import smooth_decode_array  # noqa: F401
from .trainer import TrainedStage, evaluate_stage


def perturbed_stage_metrics(stage: TrainedStage, sigma: float,
                            seed: int) -> dict:
    """``evaluate_stage`` of a copy perturbed with sub-seeds from ``seed``."""
    return evaluate_stage(perturbed_stage(stage, sigma,
                                          np.random.default_rng(seed)))


def median_perturbed_metrics(stage: TrainedStage, runs: int, sigma: float,
                             seed: int) -> dict:
    """Median metrics over ``runs`` independent perturbations."""
    samples = [perturbed_stage_metrics(stage, sigma, seed + r)
               for r in range(runs)]
    return {key: median(s[key] for s in samples)
            for key in samples[0]}


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

    # bad arguments are refused before any training: runs and sigma as
    # mc-eval does, each point's N and A_R by building its spec and grid
    McEvalSpec(runs=runs, sigma=sigma)
    points = [(StageSpec(resolution_bits=n, vdd=cfg.vdd),
               dataclasses.replace(cfg.grid, precision_bits=ar))
              for n in resolutions for ar in precisions]
    family = cfg.family()
    rows = []
    for spec, grid in points:
        n_bits, ar = spec.resolution_bits, grid.precision_bits
        base_seed = split_seed(cfg.seed, f"sweep-n{n_bits}-ar{ar}")
        val_seed = split_seed(cfg.seed, f"val-n{n_bits}")
        stage = None
        stage_score = None
        for k in range(seeds_per_point):
            train_cfg = dataclasses.replace(cfg.train, seed=base_seed + k)
            cand = train_stage(spec, cfg.encoding, family, grid, train_cfg,
                               train_residue=train_residue)
            enobs = [perturbed_stage_metrics(cand, sigma,
                                             val_seed + r)["subadc_enob"]
                     for r in range(9)]
            # disqualify candidates so fragile that dead draws would
            # dominate a median; otherwise rank by the median itself
            dead = sum(1 for e in enobs if not np.isfinite(e))
            score = (dead >= 5, -median(enobs))
            if stage is None or score < stage_score:
                stage, stage_score = cand, score
        med = median_perturbed_metrics(
            stage, runs, sigma, seed=split_seed(cfg.seed, f"mc-n{n_bits}"))
        rows.append((n_bits, ar, med["subadc_enob"],
                     med.get("residue_mse", "")))
    return rows
