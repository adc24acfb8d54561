"""Acceptance suite: one test per release criterion.

Every test prints a single ``[CRITERION n] PASS/FAIL`` line with the
measured numbers, then asserts the criterion at its stated tolerance.
Criteria whose thresholds the discrete-weight hardware model cannot
reach are asserted unchanged and left failing; the printed line carries
the measured value so the gap is visible, not hidden.

Set ``NNADC_ACCEPTANCE=full`` for the full-budget precision sweep
(criterion 5); the default run uses the subsampled variant.
"""

import math
import os
import time

import numpy as np
import pytest

from nnadc.config import ExperimentConfig
from nnadc.crossbar import DeviceGrid
from nnadc.dse import (
    CostTable,
    StageCost,
    composition_count,
    enumerate_compositions,
    evaluate_candidate,
    optimize,
)
from nnadc.metrics import enob_of_codes, spectrum
from nnadc.pipeline import (
    IdealStage,
    McEvalSpec,
    PipelineConfig,
    convert,
    monte_carlo_eval,
    simulate_stage,
)
from nnadc.signal_core import (
    EncodingScheme,
    SineStimulus,
    StageSpec,
    ideal_adc,
    log_stage_oracle,
)
from nnadc.sweep import precision_sweep
from nnadc.trainer import (
    MlpParams,
    TrainConfig,
    backprop,
    evaluate_stage,
    train_stage,
)
from nnadc.vtc import default_family

VDD = 1.0
FULL = os.environ.get("NNADC_ACCEPTANCE", "") == "full"


# collected by conftest's terminal-summary hook so every criterion line
# is visible even when pytest captures the output of passing tests
CRITERION_LINES: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[CRITERION {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    CRITERION_LINES.append(line)
    assert ok, line


def _ideal_pipeline(composition) -> PipelineConfig:
    enc = EncodingScheme("linear", 0.0, VDD)
    stages = tuple(IdealStage(StageSpec(resolution_bits=n, vdd=VDD), enc)
                   for n in composition)
    return PipelineConfig(stages=stages, enc=enc)


def _guarded_uniform(rng, n, reso, guard=1e-9):
    """Uniform samples on [0, vdd] away from every ideal code boundary."""
    v = rng.uniform(0.0, VDD, size=n)
    step = VDD / (1 << reso)
    dist = np.abs(v / step - np.round(v / step)) * step
    return v[dist > guard * VDD]


def _tone_stimulus(reso: int, enc: EncodingScheme, n: int = 4096,
                   tone_bin: int = 127) -> SineStimulus:
    """Full-scale-minus-half-LSB coherent tone in the normalized domain."""
    lsb = 1.0 / (1 << reso)
    k = np.arange(n)
    t = 0.5 + (0.5 - lsb / 2.0) * np.sin(2.0 * np.pi * tone_bin * k / n)
    v = np.clip(enc.denormalize(t), 0.0, VDD)
    return SineStimulus(samples=v, f_in=tone_bin / n, f_s=1.0)


def _db_to_bits(sndr_db: float) -> float:
    return (sndr_db - 1.76) / 6.02


def _staircase_enob(m: int) -> float:
    """Analytic sine-test ENOB of an ideal M-bit quantizer on the
    ``_tone_stimulus`` tone (amplitude 0.5 - LSB/2 about mid-scale).

    Over one period the sine's phase is uniform, so its value follows
    the arcsine law.  Each threshold tau_k (taken from mid-scale)
    contributes a step of one LSB q whose fundamental has amplitude
    q * (2/pi) * sqrt(1 - (tau_k/A)^2); the AC power of the output comes
    from the level probabilities.  The
    6.02*M + 1.76 dB rule assumes white quantization error and only
    holds once there are enough levels; at M = 1 this gives
    10*log10(8/(pi^2 - 8)) dB, the SNDR of a 50 % square wave.
    """
    q = 1.0 / (1 << m)
    amp = 0.5 - q / 2.0
    u = (np.arange(1, 1 << m) * q - 0.5) / amp
    b1 = np.sum(q * (2.0 / np.pi) * np.sqrt(1.0 - u ** 2))
    cdf = np.concatenate(([0.0], 0.5 + np.arcsin(u) / np.pi, [1.0]))
    prob = np.diff(cdf)
    level = (np.arange(1 << m) + 0.5) * q
    ac_power = np.sum(prob * level ** 2) - np.sum(prob * level) ** 2
    p_sig = b1 ** 2 / 2.0
    return _db_to_bits(10.0 * math.log10(p_sig / (ac_power - p_sig)))


@pytest.fixture(scope="module")
def linear_stage():
    """Fully trained 1-bit linear stage (timed for criterion 4)."""
    family = default_family(VDD, n=100, seed=0)
    t0 = time.perf_counter()
    stage = train_stage(StageSpec(resolution_bits=1, vdd=VDD),
                        EncodingScheme("linear", 0.0, VDD), family,
                        DeviceGrid(), TrainConfig(seed=0))
    return stage, time.perf_counter() - t0


@pytest.fixture(scope="module")
def log_stage():
    """Fully trained 1-bit logarithmic stage (criterion 7)."""
    family = default_family(VDD, n=100, seed=0)
    stage = train_stage(StageSpec(resolution_bits=1, vdd=VDD),
                        EncodingScheme("logarithmic", 0.0, VDD), family,
                        DeviceGrid(), TrainConfig(seed=3))
    return stage


def test_criterion_01_ideal_pipeline_equivalence():
    compositions = [(1,) * 4, (1,) * 8, (2, 2, 2, 2), (3, 3, 2),
                    (1,) * 9 + (2, 3)]
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    mismatches = 0
    for comp in compositions:
        p = _ideal_pipeline(comp)
        v = _guarded_uniform(rng, 100_000, p.reso)
        got = convert(p, v, mode="ideal")
        want = ideal_adc(v, p.reso, p.enc)
        mismatches += int(np.count_nonzero(got != want))
    secs = time.perf_counter() - t0
    ok = mismatches == 0 and secs < 5.0
    _report(1, "ideal-pipeline oracle equivalence",
            ok, f"{mismatches} mismatches over 5 compositions, {secs:.2f}s")


def test_criterion_02_golden_vector():
    enc = EncodingScheme("linear", 0.0, VDD)
    stage = IdealStage(StageSpec(resolution_bits=1, vdd=VDD), enc)
    v, bits, residues = 0.7, [], []
    for _ in range(4):
        lvl, res = simulate_stage(stage, v, mode="ideal")
        bits.append(lvl)
        residues.append(res)
        v = res
    code = "".join(str(b) for b in bits)
    errs = [abs(r - e) for r, e in zip(residues[:3], (0.4, 0.8, 0.6))]
    ok = code == "1011" and max(errs) < 1e-12
    _report(2, "four-stage golden vector",
            ok, f"code {code}, residue errors {max(errs):.2e}")


def test_criterion_03_gradient_correctness():
    family = default_family(VDD, n=10, seed=3)
    grid = DeviceGrid()
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(500 + case)
        kind = ("subadc", "residue")[case % 2]
        f_in = int(rng.integers(1, 5))
        hidden = int(rng.integers(2, 8))
        f_out = int(rng.integers(1, 4))
        wm1, wm2 = grid.w_max(f_in + 1), grid.w_max(hidden + 1)
        bd = family.nominal.v_high
        params = MlpParams(
            w1=rng.uniform(-wm1, wm1, size=(f_in, hidden)),
            b1=rng.uniform(-wm1 * bd, wm1 * bd, size=hidden),
            w2=rng.uniform(-wm2, wm2, size=(hidden, f_out)),
            b2=rng.uniform(-wm2 * bd, wm2 * bd, size=f_out),
            vtc_assignment=rng.integers(len(family), size=hidden))
        x = rng.uniform(0.0, VDD, size=(6, f_in))
        targets = rng.uniform(0.0, 1.0, size=(6, f_out))
        _, grads = backprop(params, x, targets, family, kind, VDD,
                            surrogate_ratio=0.1)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(params, name)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = backprop(params, x, targets, family, kind, VDD,
                                 surrogate_ratio=0.1)
                arr[idx] = orig - eps
                lm, _ = backprop(params, x, targets, family, kind, VDD,
                                 surrogate_ratio=0.1)
                arr[idx] = orig
                fd = (lp - lm) / (2.0 * eps)
                rel = abs(grads[name][idx] - fd) / max(abs(fd), 1e-3)
                worst = max(worst, rel)
    secs = time.perf_counter() - t0
    ok = worst < 1e-4 and secs < 10.0
    _report(3, "analytic gradients vs finite differences",
            ok, f"worst relative error {worst:.2e}, {secs:.1f}s")


def test_criterion_04_trained_stage_quality(linear_stage):
    stage, secs = linear_stage
    m = evaluate_stage(stage)
    # evaluate_stage drives the sub-ADC with the _tone_stimulus tone
    ideal = _staircase_enob(stage.spec.resolution_bits)
    ok = (m["subadc_enob"] >= ideal - 0.05 and m["residue_mse"] <= 1e-3
          and secs < 180.0)
    _report(4, "trained 1-bit stage",
            ok, f"sub-ADC ENOB {m['subadc_enob']:.3f} (>= ideal {ideal:.3f}"
                f" - 0.05), residue MSE {m['residue_mse']:.2e} (<=1e-3), "
                f"{secs:.0f}s")


def test_criterion_05_precision_sweep_trend():
    if FULL:
        precisions, runs, train = list(range(1, 8)), 20, {}
    else:
        precisions, runs = [1, 2, 3, 7], 20
        train = {"total_iters": 3000, "refine_passes": 2, "refine_hops": 6}
    cfg = ExperimentConfig.from_dict(
        {"seed": 21, "family_size": 100, "train": train})
    t0 = time.perf_counter()
    rows = precision_sweep(cfg, [1, 2], precisions, runs=runs, sigma=0.05,
                           train_residue=False, seeds_per_point=3)
    secs = time.perf_counter() - t0
    details, ok = [], True
    for n_bits in (1, 2):
        enobs = [r[2] for r in rows if r[0] == n_bits]
        monotone = all(b >= a - 1e-12 for a, b in zip(enobs, enobs[1:]))
        plateau = enobs[-1]
        at_np1 = enobs[precisions.index(n_bits + 1)]
        near = plateau - at_np1 <= 0.1
        ok = ok and monotone and near
        details.append(f"N={n_bits}: {['%.3f' % e for e in enobs]} "
                       f"(monotone {monotone}, plateau gap "
                       f"{plateau - at_np1:+.3f})")
    budget = 7200.0 if FULL else 600.0
    ok = ok and secs < budget
    _report(5, "precision-sweep trend", ok,
            "; ".join(details) + f"; {secs:.0f}s")


def test_criterion_06_behavioral_pipeline(linear_stage):
    stage, _ = linear_stage
    p = PipelineConfig(stages=(stage,) * 8, enc=stage.enc)
    enob = None
    t0 = time.perf_counter()
    stim = _tone_stimulus(8, stage.enc)
    codes = convert(p, stim.samples, mode="behavioral")
    _, enob = enob_of_codes(codes, 8, stim.f_s, stim.f_in)
    secs = time.perf_counter() - t0
    ok = enob >= 7.0 and secs < 1800.0
    _report(6, "8-bit behavioral pipeline",
            ok, f"ENOB {enob:.2f} (>=7.0), {secs:.0f}s excl. training")


def test_criterion_07_logarithmic_adc(log_stage):
    enc = EncodingScheme("logarithmic", 0.0, VDD)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, VDD, size=100_000)
    t = enc.normalize(v)
    dist = np.abs(t * 1024 - np.round(t * 1024)) / 1024
    v = v[dist > 1e-9]
    r, code = v.copy(), np.zeros(v.size, dtype=np.int64)
    for _ in range(10):
        bit, r = log_stage_oracle(r)
        code = (code << 1) + bit
    mismatches = int(np.count_nonzero(code != ideal_adc(v, 10, enc)))

    p = PipelineConfig(stages=(log_stage,) * 10, enc=enc)
    stim = _tone_stimulus(10, enc)
    codes = convert(p, stim.samples, mode="behavioral")
    _, enob = enob_of_codes(codes, 10, stim.f_s, stim.f_in)
    ok = mismatches == 0 and enob >= 8.0
    _report(7, "logarithmic ADC",
            ok, f"oracle-chain mismatches {mismatches}, trained ten-stage "
                f"ENOB {enob:.2f} (>=8.0)")


def test_criterion_08_fom_arithmetic():
    table = [  # (power W, ENOB, rate S/s, expected J/conversion-step)
        (25e-3, 8.0, 1e9, 97.7e-15),
        (67.5e-3, 12.5, 1e9, 11.6e-15),
        (31.3e-3, 9.1, 1e9, 57e-15),
    ]
    worst = 0.0
    for power, enob, rate, expected in table:
        ct = CostTable({1: StageCost(power=power, rate=rate, area=1.0)})
        got = evaluate_candidate((1,), ct, enob=enob).fom_w
        worst = max(worst, abs(got - expected) / expected)
    ok = worst < 0.005
    _report(8, "figure-of-merit arithmetic",
            ok, f"worst relative deviation {worst:.2%} (<0.5%)")


def test_criterion_09_dse_optimality():
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(50):
        table = CostTable({n: StageCost(power=float(rng.uniform(1e-3, 1e-1)),
                                        rate=float(rng.uniform(1e8, 2e9)),
                                        area=float(rng.uniform(1e-3, 1e-1)))
                           for n in (1, 2, 3)})
        for reso in (4, 8, 14):
            winner = optimize(reso, table)[0]
            # independent re-scan with plain-python cost arithmetic
            best_key = None
            for comp in enumerate_compositions(reso):
                power = sum(table.entries[n].power for n in comp)
                rate = min(table.entries[n].rate for n in comp)
                area = sum(table.entries[n].area for n in comp)
                fom = power / (2.0 ** sum(comp) * rate)
                key = (fom, area, len(comp), comp)
                if best_key is None or key < best_key:
                    best_key = key
            got_key = (winner.fom_w, winner.area, len(winner.composition),
                       winner.composition)
            if not all(math.isclose(a, b, rel_tol=1e-12) if isinstance(a, float)
                       else a == b for a, b in zip(got_key, best_key)):
                bad += 1
    trib = {0: 1, -1: 0, -2: 0}
    counts_ok = True
    for n in range(1, 17):
        trib[n] = trib[n - 1] + trib[n - 2] + trib[n - 3]
        counts_ok = counts_ok and composition_count(n) == trib[n] \
            and len(enumerate_compositions(n)) == trib[n]
    secs = time.perf_counter() - t0
    ok = bad == 0 and counts_ok and secs < 60.0
    _report(9, "design-space search optimality",
            ok, f"{bad} winner mismatches, counts_ok {counts_ok}, {secs:.1f}s")


def test_criterion_10_metrics_self_consistency(linear_stage):
    enc = EncodingScheme("linear", 0.0, VDD)
    ref_err, rule_err = {}, {}
    for m in range(1, 15):
        stim = _tone_stimulus(m, enc)
        codes = ideal_adc(stim.samples, m, enc)
        _, enob = enob_of_codes(codes, m, stim.f_s, stim.f_in)
        ref_err[m] = enob - _staircase_enob(m)
        if m >= 3:
            rule_err[m] = enob - m
    ref_m = max(ref_err, key=lambda m: abs(ref_err[m]))
    rule_m = max(rule_err, key=lambda m: abs(rule_err[m]))
    one_bit = _db_to_bits(10.0 * math.log10(8.0 / (math.pi ** 2 - 8.0)))
    closed_form = abs(_staircase_enob(1) - one_bit)
    enob_ok = (abs(ref_err[ref_m]) <= 0.05 and abs(rule_err[rule_m]) <= 0.1
               and closed_form <= 1e-6)

    rng = np.random.default_rng(5)
    x = rng.normal(size=1024)
    res = spectrum(x, 1.0)
    parseval = abs(res.power.sum() - np.mean(x ** 2))
    parseval_ok = parseval < 1e-9

    stage, _ = linear_stage
    p = PipelineConfig(stages=(stage, stage), enc=stage.enc)
    stim = _tone_stimulus(2, stage.enc, n=1024, tone_bin=31)
    summary = monte_carlo_eval(p, McEvalSpec(runs=3, sigma=0.0, seed=0), stim)
    mc_ok = len(set(summary.enobs)) == 1

    ok = enob_ok and parseval_ok and mc_ok
    _report(10, "metrics self-consistency",
            ok, f"worst quantizer ENOB vs staircase reference "
                f"{ref_err[ref_m]:+.3f} at M={ref_m} (|err|<=0.05), worst "
                f"ENOB - M {rule_err[rule_m]:+.3f} at M={rule_m} over M>=3 "
                f"(|err|<=0.1), 1-bit reference vs closed form "
                f"{closed_form:.1e}, Parseval residual {parseval:.1e}, "
                f"sigma=0 deterministic {mc_ok}")
