"""The benchmark workloads: stage training and pipeline inference.

Each workload has three parts:

- ``prepare`` makes the run's inputs once: it trains the small stage the
  operations work on and runs ``smoke``.  It is not timed as set-up; the
  ``train_stage`` call is reported on its own.
- ``setup`` builds the state the operations use from those inputs and
  makes the first call of each operation.  The runner repeats it and
  reports it as ``setup_s``.
- a round is one ``main`` operation (``op_ms``) followed by
  ``quick_per_round`` calls of ``quick`` (``quick_op_ms``).  The runner
  repeats rounds in a closed loop (one client; the next call starts when
  the previous one returns) until the run's time is up.

Every timed operation takes tens of milliseconds or less: on a shared
host the fastest of many short calls is steady from run to run, while
any call of a second or more is slowed by however much of it fell into
the host's slow phases.

All inputs derive from the workload variant (``seed % VARIANTS``); the
library only receives the generated inputs.  Every operation's output
is checked, and each check is one attempted operation in the result.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from nnadc import (config, dse, metrics, modelio, pipeline, signal_core,
                   sweep, trainer)
from nnadc.crossbar import DeviceGrid
from nnadc.dse import CostTable, StageCost
from nnadc.signal_core import EncodingScheme, SineStimulus, StageSpec

# Seeds map onto this many input variants, each with recorded fingerprints.
VARIANTS = 10
TONE_N = 4096
TONE_BIN = 127
TONE_AMPLITUDE = 0.4999   # of full scale, as the CLI's stimulus
PIPELINE_STAGES = 8
# Monte Carlo runs per main inference operation: short operations let the
# fastest of many samples escape the host's slow phases
MC_RUNS = 2
# Evaluation grid of the stage_train refinement: half of train_stage's own
# 2,048 points, so that one refinement takes about 35 ms
EVAL_POINTS = 1024
# Spread of the random move from the trained sub-ADC to the point the
# refinement starts from, as a share of each weight layer's largest magnitude
REFINE_START_SPREAD = 0.3
# Residue training batch of the stage_train quick operation: the
# TrainConfig default batch size, as in every training iteration
BACKPROP_BATCH = 4096
# Fixed 3-entry cost table for the design-space exploration in set-up.
COST_TABLE = CostTable({
    1: StageCost(power=1.0e-3, rate=1.0e9, area=2.0e-3),
    2: StageCost(power=2.6e-3, rate=8.0e8, area=4.5e-3),
    3: StageCost(power=7.0e-3, rate=6.0e8, area=1.1e-2),
})
FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


class Recorder:
    """Timing samples plus the attempted/failed operation tally."""

    def __init__(self):
        self.samples = {"op": [], "quick": []}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def load_fingerprints() -> dict:
    return (json.loads(FINGERPRINTS.read_text())
            if FINGERPRINTS.is_file() else {})


def close(a, b) -> bool:
    """Fingerprint equality, allowing only last-digit float noise."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def tone(enc: EncodingScheme, vdd: float) -> SineStimulus:
    """Coherent near-full-scale tone in the encoding's normalized domain."""
    k = np.arange(TONE_N)
    t = 0.5 + TONE_AMPLITUDE * np.sin(2.0 * np.pi * TONE_BIN * k / TONE_N)
    v = np.clip(enc.denormalize(t), 0.0, vdd)
    return SineStimulus(samples=v, f_in=TONE_BIN / TONE_N, f_s=1.0)


def codes_in_range(codes, reso: int) -> bool:
    codes = np.asarray(codes)
    return bool(codes.size and codes.min() >= 0 and codes.max() < (1 << reso))


def smoke(family, variant: int, workdir: Path, rec: Recorder) -> None:
    """Warm-up pass that calls every nnadc layer with small inputs.

    It pays first-call costs (lazy imports, allocator growth) outside
    the timed operations, so that every layer shows in a traced run of
    every workload, including the 16-bit design-space exploration and a
    one-point precision sweep.  It also runs the output checks that need
    no trained model: an ideal pipeline must match the flat ideal ADC,
    and a sigma = 0 Monte Carlo must give identical ENOBs.
    """
    spec, enc = StageSpec(resolution_bits=1), EncodingScheme()
    tiny_cfg = trainer.TrainConfig(batch_size=64, total_iters=8,
                                   projection_period=4, refine_passes=0,
                                   refine_hops=0, seed=variant)
    tiny = trainer.train_stage(spec, enc, family, DeviceGrid(), tiny_cfg)
    path = workdir / "smoke_stage.json"
    modelio.save_stage(tiny, path)
    tiny = modelio.load_stage(path)
    stim = tone(enc, spec.vdd)
    reso = PIPELINE_STAGES
    p = pipeline.PipelineConfig(stages=(tiny,) * reso, enc=enc)
    rec.check("smoke conversion codes in range",
              codes_in_range(pipeline.convert(p, stim.samples), reso))
    ideal = pipeline.PipelineConfig(
        stages=(pipeline.IdealStage(spec, enc),) * reso, enc=enc)
    rec.check("ideal-mode convert matches signal_core.ideal_adc",
              np.array_equal(pipeline.convert(ideal, stim.samples, "ideal"),
                             signal_core.ideal_adc(stim.samples, reso, enc)))
    still = pipeline.monte_carlo_eval(
        p, pipeline.McEvalSpec(runs=3, sigma=0.0, seed=variant), stim)
    rec.check("sigma = 0 Monte Carlo ENOBs identical",
              len(set(np.asarray(still.enobs).tolist())) == 1)
    pipeline.monte_carlo_eval(
        p, pipeline.McEvalSpec(runs=2, sigma=0.05, seed=variant), stim)
    tiny_sweep = config.ExperimentConfig.from_dict(
        {"seed": variant, "train": dataclasses.asdict(tiny_cfg)})
    rows = sweep.precision_sweep(tiny_sweep, [1], [3], runs=1, sigma=0.05,
                                 train_residue=False)
    rec.check("smoke sweep returns one row", len(rows) == 1)
    rec.check("DSE ranks every 16-bit composition",
              len(dse.optimize(16, COST_TABLE))
              == dse.composition_count(16))


def untimed(series, fn, *args, **kwargs):
    """Stand-in for the runner's timer: calls ``fn`` and records nothing."""
    return fn(*args, **kwargs)


class Workload:
    """Shared plumbing: variant, recorded fingerprints, result checks."""

    name = ""
    op_name = ""          # what one main operation is, for the report
    quick_name = ""       # what one quick operation is, for the report
    quick_per_round = 0

    def __init__(self, variant: int, workdir: Path, record: bool):
        self.variant = variant
        self.workdir = workdir
        self.record = record
        self.fingerprints = {}
        self.refine_counts = {}
        self.expected = load_fingerprints().get(self.name, {}).get(
            str(variant), {})

    def fingerprint(self, rec: Recorder, name: str, value: float) -> None:
        """Keep a result value and check it against the recorded one."""
        value = float(value)
        if name in self.fingerprints:
            ok = close(value, self.fingerprints[name])
        else:
            self.fingerprints[name] = value
            want = self.expected.get("fingerprints", {}).get(name)
            ok = self.record or (want is not None and close(value, want))
        rec.check(f"{name} finite and as recorded",
                  bool(np.isfinite(value)) and ok)

    def check_refine_counts(self, rec: Recorder, phase: str,
                            counts: dict) -> None:
        """Refinement counters of each phase must repeat exactly."""
        if phase not in self.refine_counts:
            self.refine_counts[phase] = counts
            want = self.expected.get("refine_counts", {}).get(phase)
            ok = self.record or want == counts
        else:
            ok = counts == self.refine_counts[phase]
        rec.check(f"{phase} refinement counters repeat exactly", ok)

    def save_record(self) -> None:
        stored = load_fingerprints()
        entry = stored.setdefault(self.name, {}).setdefault(
            str(self.variant), {})
        entry["fingerprints"] = self.fingerprints
        if self.refine_counts:
            entry["refine_counts"] = self.refine_counts
        tmp = FINGERPRINTS.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        tmp.replace(FINGERPRINTS)

    def family(self):
        return config.ExperimentConfig(seed=self.variant).family()

    def train_input_stage(self, rec: Recorder, timed):
        """The small trained stage both workloads operate on."""
        family = self.family()
        smoke(family, self.variant, self.workdir, rec)
        stage = timed("train_stage", trainer.train_stage,
                      StageSpec(resolution_bits=1), EncodingScheme(), family,
                      DeviceGrid(), small_stage_config(self.variant))
        for key in ("subadc_enob", "residue_mse"):
            self.fingerprint(rec, key, stage.train_metrics[key])
        return stage


def small_stage_config(variant: int) -> trainer.TrainConfig:
    """Training budget of the stage both workloads operate on.

    One refinement pass and no hops fix the number of refinement
    candidates, so every variant does the same work; residue refinement
    still takes most of the time, as at larger budgets.
    """
    return trainer.TrainConfig(total_iters=500, refine_passes=1,
                               refine_hops=0, seed=variant)


def same_params(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("w1", "b1", "w2", "b2", "vtc_assignment"))


class StageTrain(Workload):
    """The steps stage training repeats, on a trained 1-bit linear stage.

    The main operation is one ``refine_discrete`` pass over the sub-ADC
    network, from a random move away from the trained one, with
    ``train_stage``'s score on an evenly spaced evaluation grid: the
    discrete refinement that dominates training, at a size that runs in
    tens of milliseconds.  The quick operation is one residue-network
    ``backprop`` on a training batch, the step every training iteration
    takes once per network.
    """

    name = "stage_train"
    op_name = "refine_subadc_ms"
    quick_name = "backprop_ms"
    # a main operation takes about as long as 35 quick ones, so the
    # backprop calls take a third of a round
    quick_per_round = 20

    def prepare(self, rec: Recorder, timed) -> dict:
        return {"stage": self.train_input_stage(rec, timed)}

    def setup(self, prep: dict, rec: Recorder) -> dict:
        stage = prep["stage"]
        family = self.family()
        spec, enc = StageSpec(resolution_bits=1), EncodingScheme()
        s = {"family": family, "spec": spec, "enc": enc, "stage": stage,
             "batch": self.residue_batch(stage, family, spec, enc),
             **self.refine_inputs(stage, family, spec, enc)}
        self.main(s, rec, untimed)
        self.quick(s, rec, untimed)
        return s

    def refine_inputs(self, stage, family, spec, enc) -> dict:
        """Start point, evaluation grid and score of the sub-ADC
        refinement, built as ``train_stage`` builds its own."""
        rail = family.nominal.v_high
        grid = np.arange(EVAL_POINTS) / EVAL_POINTS * spec.vdd
        ideal_lvl = trainer.stage_level_targets(grid, spec, enc)

        def score(out):
            lvl = signal_core.smooth_decode_array(out / rail, spec)
            return float(np.abs(lvl - ideal_lvl).mean())

        rng = np.random.default_rng(config.split_seed(self.variant,
                                                      "refine-start"))
        start = stage.subadc.copy()
        for attr in ("w1", "b1", "w2", "b2"):
            w = getattr(start, attr)
            w += rng.normal(0.0, REFINE_START_SPREAD * np.abs(w).max(),
                            size=w.shape)
        return {"refine_start": start, "eval_x": grid[:, None],
                "score": score}

    def residue_batch(self, stage, family, spec, enc) -> tuple:
        """Residue inputs (voltage plus the trained sub-ADC's hard bits)
        and targets, built as ``train_stage`` builds its batches."""
        rng = np.random.default_rng(config.split_seed(self.variant,
                                                      "backprop-batch"))
        v = rng.uniform(0.0, spec.vdd, size=(BACKPROP_BATCH, 1))
        bits = trainer.subadc_hard_bits(stage.subadc, v[:, 0], spec, family)
        lvl = signal_core.smooth_decode_array(
            bits / family.nominal.v_high, spec)
        target = trainer.residue_targets(v[:, 0], lvl, spec, enc)
        return np.hstack([v, bits]), target[:, None]

    def main(self, s, rec: Recorder, timed) -> None:
        family, vdd = s["family"], s["spec"].vdd
        refined = timed("op", trainer.refine_discrete, s["refine_start"],
                        DeviceGrid(), family.nominal.v_high, family,
                        "subadc", vdd, s["eval_x"], s["score"], passes=1)
        first = s.setdefault("refined", refined)
        out = trainer.forward_stage(refined, s["eval_x"], family, "infer",
                                    "subadc", vdd)
        self.fingerprint(rec, "refined_subadc_mae", s["score"](out))
        rec.check("refined sub-ADC repeatable", same_params(refined, first))

    def quick(self, s, rec: Recorder, timed) -> None:
        x, target = s["batch"]
        loss, grads = timed("quick", trainer.backprop, s["stage"].residue, x,
                            target, s["family"], "residue", s["spec"].vdd)
        digest = (loss, *(float(np.sum(g)) for _, g in sorted(grads.items())))
        first = s.setdefault("backprop", digest)
        rec.check("backprop loss and gradients finite and repeatable",
                  bool(np.all(np.isfinite(digest))) and digest == first)


class Inference(Workload):
    """An 8-stage behavioral pipeline of one small trained stage, loaded
    with ``modelio`` as the CLI loads it: Monte Carlo evaluation as the
    main operation, conversion as the quick one."""

    name = "inference"
    op_name = "mc_eval_ms"
    quick_name = "convert_ms"
    # a main operation takes about as long as two conversions
    quick_per_round = 2

    def prepare(self, rec: Recorder, timed) -> dict:
        path = self.workdir / f"inference-stage-{self.variant}.json"
        modelio.save_stage(self.train_input_stage(rec, timed), path)
        return {"path": path}

    def setup(self, prep: dict, rec: Recorder) -> dict:
        stage = modelio.load_stage(prep["path"])
        spec, enc = stage.spec, stage.enc
        p = pipeline.PipelineConfig(stages=(stage,) * PIPELINE_STAGES,
                                    enc=enc)
        stim = tone(enc, spec.vdd)
        codes = pipeline.convert(p, stim.samples)
        rec.check("conversion codes in range", codes_in_range(codes, p.reso))
        enob = metrics.enob_of_codes(codes, p.reso, stim.f_s, stim.f_in)[1]
        self.fingerprint(rec, "pipeline_enob", enob)
        mc = pipeline.McEvalSpec(runs=MC_RUNS, sigma=0.05,
                                 seed=config.split_seed(self.variant,
                                                        "mc-eval"))
        s = {"p": p, "stim": stim, "codes": codes, "mc": mc}
        self.main(s, rec, untimed)
        return s

    def main(self, s, rec: Recorder, timed) -> None:
        summary = timed("op", pipeline.monte_carlo_eval, s["p"], s["mc"],
                        s["stim"])
        self.fingerprint(rec, "mc_median_enob", summary.median_enob)

    def quick(self, s, rec: Recorder, timed) -> None:
        codes = timed("quick", pipeline.convert, s["p"], s["stim"].samples)
        rec.check("conversion codes in range and repeatable",
                  codes_in_range(codes, s["p"].reso)
                  and np.array_equal(codes, s["codes"]))


WORKLOADS = {w.name: w for w in (StageTrain, Inference)}
