"""Precision sweep: perturbed metrics and the trend machinery."""

import numpy as np
import pytest

from nnadc.config import ExperimentConfig
from nnadc.sweep import (
    median_perturbed_metrics,
    perturbed_stage_metrics,
    precision_sweep,
)


class TestPerturbedMetrics:
    def test_sigma_zero_matches_training_metrics(self, tiny_stage):
        m = perturbed_stage_metrics(tiny_stage, 0.0, seed=0)
        assert repr(m) == repr(tiny_stage.train_metrics)

    def test_deterministic_per_seed(self, tiny_stage):
        a = perturbed_stage_metrics(tiny_stage, 0.05, seed=4)
        b = perturbed_stage_metrics(tiny_stage, 0.05, seed=4)
        assert repr(a) == repr(b)

    def test_median_over_runs(self, tiny_stage):
        med = median_perturbed_metrics(tiny_stage, runs=3, sigma=0.05, seed=1)
        singles = [perturbed_stage_metrics(tiny_stage, 0.05, seed=1 + r)
                   ["residue_mse"] for r in range(3)]
        assert med["residue_mse"] == pytest.approx(sorted(singles)[1])


class TestPrecisionSweep:
    def test_rows_cover_grid(self):
        cfg = ExperimentConfig.from_dict({
            "seed": 2, "family_size": 10,
            "train": {"batch_size": 32, "total_iters": 32,
                      "projection_period": 8, "refine_passes": 0}})
        rows = precision_sweep(cfg, [1], [2, 3], runs=2, sigma=0.05)
        assert [(r[0], r[1]) for r in rows] == [(1, 2), (1, 3)]
        for r in rows:
            assert isinstance(r[2], float)
            assert isinstance(r[3], float)

    def test_shared_perturbation_seeds_across_precisions(self, monkeypatch):
        # the Monte Carlo seed must depend on N only, not on A_R
        import nnadc.sweep as sweep_mod
        seen = []
        orig = sweep_mod.median_perturbed_metrics

        def spy(stage, runs, sigma, seed):
            seen.append(seed)
            return orig(stage, runs, sigma, seed)

        monkeypatch.setattr(sweep_mod, "median_perturbed_metrics", spy)
        cfg = ExperimentConfig.from_dict({
            "seed": 3, "family_size": 10,
            "train": {"batch_size": 32, "total_iters": 32,
                      "projection_period": 8, "refine_passes": 0}})
        sweep_mod.precision_sweep(cfg, [1], [1, 2], runs=1, sigma=0.05)
        assert seen[0] == seen[1]
