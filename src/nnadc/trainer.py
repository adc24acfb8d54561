"""Hardware-aware training of the per-stage sub-ADC and residue networks.

Each network is a three-layer MLP whose linear layers map onto crossbar
columns and whose hidden nonlinearity is an inverter VTC.  Training is
plain numpy: analytic backprop through the VTC, Adam updates, and a
periodic clip+quantize projection onto the device grid.  Per-neuron VTC
curves are re-drawn from the Monte Carlo family every mini-batch so the
learned weights tolerate inverter variation.

The residue ground truth follows the stage's *actual* digital output
(the decoded hard comparator bits), so a slightly shifted sub-ADC
threshold stays consistent along the pipeline instead of corrupting a
whole conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from . import metrics as _metrics
from .crossbar import (DeviceGrid, _wide_rows, instantiate_conductances,
                       quantize_weight)
from .errors import ConfigError, ShapeError, TrainingError, check_fields
from .pipeline import stage_levels
# the stage-target oracles live in signal_core; perfbench calls them here
from .signal_core import (
    TONE_BIN,
    TONE_N,
    EncodingScheme,
    StageSpec,
    residue_targets,
    sine_stimulus,
    smooth_decode_array,
    stage_eval_targets,
    stage_level_targets,
)
from .vtc import VtcFamily, VtcParams, vtc_eval

# Comparator training surrogate: logistic of this width (fraction of vdd).
COMPARATOR_WIDTH_RATIO = 0.01
# The surrogate anneals from this width down to COMPARATOR_WIDTH_RATIO so
# early gradients are not killed by comparator saturation.
COMPARATOR_WIDTH_START = 0.2
# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# ±1-level steps in one basin-hopping kick.
HOP_MOVES = 3


@dataclass
class TrainConfig:
    batch_size: int = 4096
    total_iters: int = 20_000
    projection_period: int = 256
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    seed: int = 0
    refine_passes: int = 4  # discrete post-training refinement sweeps
    refine_hops: int = 20   # random-restart hops around the refined point

    def __post_init__(self):
        check_fields(self, ("batch_size", "total_iters", "projection_period",
                            "seed", "refine_passes", "refine_hops"),
                     Integral, ConfigError)
        check_fields(self, ("lr_start", "lr_end"), Real, ConfigError)
        if min(self.batch_size, self.total_iters, self.projection_period) < 1:
            raise ConfigError("batch size, iterations and projection period "
                              "must be positive")
        if not all(0 < lr < np.inf for lr in (self.lr_start, self.lr_end)):
            raise ConfigError("learning rates must be positive and finite")
        if self.seed < 0:
            raise ConfigError(f"seed: {self.seed} is negative")
        if self.refine_passes < 0 or self.refine_hops < 0:
            raise ConfigError("refinement counts must be non-negative")

    def lr_at(self, iteration: int) -> float:
        """Geometric decay from lr_start to lr_end across the run."""
        frac = min(iteration / max(self.total_iters - 1, 1), 1.0)
        return self.lr_start * (self.lr_end / self.lr_start) ** frac


@dataclass
class MlpParams:
    """Parameters of one three-layer network plus its VTC assignment."""

    w1: np.ndarray  # (f_in, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, f_out)
    b2: np.ndarray  # (f_out,)
    vtc_assignment: np.ndarray  # (hidden,) indices into the family

    def copy(self) -> "MlpParams":
        return MlpParams(self.w1.copy(), self.b1.copy(), self.w2.copy(),
                         self.b2.copy(), self.vtc_assignment.copy())

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]


def _check_batch(params: MlpParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ShapeError("input batch does not match the network fan-in")


def _hidden(nominal: VtcParams, x: np.ndarray, w1: np.ndarray,
            b1: np.ndarray) -> np.ndarray:
    """Nominal-VTC hidden layer: one column per column of ``w1``, the
    bias added on wide rows."""
    pre1 = x @ w1
    rows, b1 = _wide_rows(pre1, b1)
    rows += b1
    return vtc_eval(nominal, pre1, out=pre1)


def _decision(kind: str, nominal: VtcParams, vdd: float):
    """Inference output as a function of the output pre-activations.

    Sub-ADC outputs are hard comparators at vdd/2 that drive the nominal
    rail, written into the pre-activation array itself: 1.0 or 0.0 times
    the rail, the bits of ``v_high * (pre2 > vdd / 2).astype(float)``.
    Residue outputs are the pre-activations themselves.
    """
    if kind == "subadc":
        half, rail = vdd / 2.0, nominal.v_high

        def compare(pre2):
            np.greater(pre2, half, out=pre2)
            pre2 *= rail
            return pre2
        return compare
    if kind == "residue":
        return lambda pre2: pre2
    raise ConfigError(f"unknown network kind {kind!r}")


def _train_logistic(center, z: np.ndarray, scale) -> np.ndarray:
    """``1 / (1 + exp(-(center - z) / scale))``, computed over ``z`` in
    place.  ``y / -scale`` is ``-y / scale`` exactly, and ``center - z``
    is ``-(z - center)`` but for the sign of a zero, which exp drops."""
    np.subtract(center, z, out=z)
    z /= -scale
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def backprop(params: MlpParams, x: np.ndarray, targets: np.ndarray,
             family: VtcFamily, kind: str, vdd: float,
             surrogate_ratio: float = COMPARATOR_WIDTH_RATIO):
    """Loss and analytic gradients of the train-mode pass over one batch.

    Each hidden neuron uses its assigned family member's v_m and s and
    the family's shared rails; the sub-ADC outputs pass through a steep
    logistic comparator surrogate.  The steps that combine the (batch,
    hidden) array with a per-neuron vector (b1, v_m, s) run on
    ``_wide_rows``' view, with ``s`` tiled to its rows.  The backward
    pass runs in place on the two (batch, hidden) arrays: ``h`` becomes
    d h / d pre1, ``sig_h`` 1 - sig_h and then d loss / d pre1.  Every
    step keeps the formula's operands, order and memory layout, so each
    value, and each matmul and ``sum(axis=0)``'s summation order, is bit
    for bit the formula's.  The rail swing v_h - v_l and v_l are scalars.
    """
    _check_batch(params, x)
    if np.any(params.vtc_assignment >= len(family)):
        raise ConfigError("VTC assignment index outside the family")
    a = params.vtc_assignment
    nom = family.nominal
    pre1 = x @ params.w1
    rows, b1, vm, s = _wide_rows(pre1, params.b1, family.v_m[a], family.s[a])
    rows += b1
    _train_logistic(vm, rows, s)  # pre1 is now sig_h
    sig_h, swing = pre1, nom.v_high - nom.v_low
    h = np.multiply(swing, sig_h)
    h += nom.v_low
    pre2 = h @ params.w2
    pre2 += params.b2
    if kind == "subadc":
        ws = surrogate_ratio * vdd
        sig_o = _train_logistic(vdd / 2.0, pre2, -ws)
        out = nom.v_high * sig_o
        # rail * sig_o * (1 - sig_o) / ws, rail * sig_o being out
        dout = np.multiply(out, np.subtract(1.0, sig_o, out=sig_o), out=sig_o)
        dout /= ws
    elif kind == "residue":
        out, dout = pre2, 1.0
    else:
        raise ConfigError(f"unknown network kind {kind!r}")
    loss = mse_loss(out, targets)
    d2 = 2.0 * (out - targets) / len(x) * dout    # dC/dpre2
    gw2 = h.T @ d2
    gb2 = d2.sum(axis=0)
    np.multiply(-swing / s, sig_h.reshape(-1, s.size),
                out=h.reshape(-1, s.size))
    dvtc = h  # d h / d pre1
    dvtc *= np.subtract(1.0, sig_h, out=sig_h)
    d1 = np.matmul(d2, params.w2.T, out=sig_h)  # dC/dh, then dC/dpre1
    d1 *= dvtc
    return loss, {"w1": x.T @ d1, "b1": d1.sum(axis=0), "w2": gw2, "b2": gb2}


def forward_stage(params: MlpParams, inputs: np.ndarray, family: VtcFamily,
                  mode: str, kind: str, vdd: float) -> np.ndarray:
    """Inference output voltages for a batch of input voltages.

    ``mode`` must be ``"infer"``: the nominal VTC and, for sub-ADC
    outputs, hard comparators at vdd/2, as refinement scores them.
    ``backprop`` runs the train pass.
    """
    if mode != "infer":
        raise ConfigError(f"unknown forward mode {mode!r}")
    x = np.atleast_2d(inputs)
    _check_batch(params, x)
    decide = _decision(kind, family.nominal, vdd)
    h = _hidden(family.nominal, x, params.w1, params.b1)
    return decide(h @ params.w2 + params.b2)


def mse_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Squared error summed over outputs, averaged over the batch."""
    if outputs.shape != targets.shape:
        raise ShapeError("outputs and targets must have the same shape")
    return float(((targets - outputs) ** 2).sum(axis=-1).mean())


def adam_step(params: MlpParams, grads: dict, moments: dict,
              iteration: int, config: TrainConfig) -> None:
    """In-place Adam update with bias correction and the lr schedule.

    ``moments`` maps each parameter name to its ``(m, v)`` moments and is
    updated too; a name it does not hold yet has zero moments.  The step
    count is ``iteration + 1``.
    """
    t = iteration + 1
    lr = config.lr_at(iteration)
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for k, g in grads.items():
        m, v = moments.get(k, (0.0, 0.0))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        moments[k] = m, v
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        arr = getattr(params, k)
        arr -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _slots(params: MlpParams, bias_drive: float) -> tuple:
    """``(name, fan-in, scale)`` of each parameter array.

    Biases are realized by one more crossbar row driven at
    ``bias_drive``, so a bias b is the weight b / bias_drive on the grid
    of its layer, and that row counts in the layer's fan-in.
    """
    f1, f2 = params.w1.shape[0] + 1, params.hidden + 1
    return (("w1", f1, 1.0), ("b1", f1, bias_drive),
            ("w2", f2, 1.0), ("b2", f2, bias_drive))


def clip_params(params: MlpParams, grid: DeviceGrid,
                bias_drive: float) -> None:
    """In-place clip of all parameters to the realizable weight range."""
    for name, fan_in, scale in _slots(params, bias_drive):
        arr = getattr(params, name)
        bound = grid.w_max(fan_in) * scale
        np.clip(arr, -bound, bound, out=arr)


def project(params: MlpParams, grid: DeviceGrid, bias_drive: float) -> MlpParams:
    """Clip and quantize all parameters onto the device grid."""
    return MlpParams(
        **{name: quantize_weight(getattr(params, name) / scale, grid,
                                 fan_in) * scale
           for name, fan_in, scale in _slots(params, bias_drive)},
        vtc_assignment=params.vtc_assignment.copy())


def refine_discrete(params: MlpParams, grid: DeviceGrid, bias_drive: float,
                    family: VtcFamily, kind: str, vdd: float,
                    x: np.ndarray, score, passes: int) -> MlpParams:
    """Greedy discrete search around a projected network.

    Gradient descent followed by rounding loses a lot at 3-bit weight
    precision because a bias step shifts a hidden transition by a large
    fraction of the input range.  This repairs that: each hidden
    neuron's input weights and bias are re-chosen *jointly* over the
    full level grid (their effect on the transition placement is
    coupled), then the output layer is refined one weight or bias at a
    time.  Moves are accepted only if the true inference-mode score
    improves.

    The outputs of a lattice line of candidates (the levels of one
    coordinate) are computed at once, then scored in order.  That is
    exact: a hidden column's candidates all add to the same ``base``, an
    accepted output move changes only output ``o``, which the entry's
    later candidates overwrite, and a stacked matmul runs one gemv per
    candidate, equal to its ``x @ w`` bit for bit (a gemm is not).  On a
    bias line (its weight rows all equal: every line of a joint lattice,
    and the bias column of a single-coordinate one) that gemv is the
    same for every candidate, so it runs once and the bias drives are
    added to it; addition commutes, so the sums keep their bits.  A
    sub-ADC's comparators overwrite the ``outs`` buffer, which each line
    and each output move refills before deciding it.

    ``score`` maps the (points, outputs) batch for inputs ``x`` to a float.
    """
    p = project(params, grid, bias_drive)
    n_in = p.w1.shape[0]
    lev1 = grid.weight_levels(n_in + 1)
    lev2 = grid.weight_levels(p.hidden + 1)
    nom = family.nominal
    out_of = _decision(kind, nom, vdd)
    h = _hidden(nom, x, p.w1, p.b1)
    start = h @ p.w2 + p.b2
    # point-last layouts: a line's outputs are (candidate, output, point)
    h, pre2 = h.T.copy(), start.T.copy()
    best = score(out_of(start))  # a sub-ADC decides in place
    outs = np.empty((len(lev1), *pre2.shape))
    bias_hs = np.empty((len(lev1), x.shape[0]))  # a bias line's outputs
    # Joint column enumeration is what repairs coarse lattices, but it
    # grows as 2^(A_R·(n_in+1)); past a few thousand combinations the
    # lattice is fine enough for single-coordinate moves.
    joint = len(lev1) ** (n_in + 1) <= 4096
    if joint:
        col_combos = np.stack(np.meshgrid(*([lev1] * (n_in + 1)),
                                          indexing="ij"),
                              -1).reshape(-1, n_in + 1)
    for _ in range(passes):
        improved = False
        for j in range(p.hidden):
            w2j = p.w2[j][:, None]
            base = pre2 - w2j * h[j]
            cur = [*p.w1[:, j].tolist(), p.b1[j] / bias_drive]
            if joint:
                combos = col_combos
            else:
                # every level of one coordinate at a time, the others
                # held at the column's start
                combos = np.tile(cur, ((n_in + 1) * len(lev1), 1))
                for c in range(n_in + 1):
                    combos[c * len(lev1):(c + 1) * len(lev1), c] = lev1
            for block in np.split(combos, len(combos) // len(lev1)):
                ws = block[:, :-1]
                if (ws == ws[0]).all():  # a bias line
                    hs = np.add(x @ ws[0], block[:, -1:] * bias_drive,
                                out=bias_hs)
                else:
                    hs = np.matmul(x[None], ws[..., None])[..., 0]
                    hs += block[:, -1:] * bias_drive
                vtc_eval(nom, hs, out=hs)
                np.multiply(w2j, hs[:, None], out=outs)
                outs += base
                for combo, hj, out in zip(block.tolist(), hs, out_of(outs)):
                    if combo == cur:
                        continue
                    s = score(out.T)
                    if s < best:
                        best, cur, improved = s, combo, True
                        p.w1[:, j] = combo[:-1]
                        p.b1[j] = combo[-1] * bias_drive
                        h[j] = hj
            pre2 = base + w2j * h[j]
        # output layer, one entry at a time: (array, index, input, levels);
        # a bias is an entry whose input is 1 and whose levels are scaled
        # by the bias drive
        moves = [(p.w2, (j, o), h[j], lev2)
                 for j in range(p.hidden) for o in range(p.w2.shape[1])]
        moves += [(p.b2, (o,), 1.0, lev2 * bias_drive)
                  for o in range(p.b2.size)]
        for arr, idx, inp, levels in moves:
            o = idx[-1]
            base = pre2[o] - inp * arr[idx]
            outs[:] = pre2
            outs[:, o] = base + levels[:, None] * inp
            for lv, out in zip(levels.tolist(), out_of(outs)):
                if lv == arr[idx]:
                    continue
                s = score(out.T)
                if s < best:
                    best, improved = s, True
                    arr[idx] = lv
                    pre2[o] = base + inp * lv
        if not improved:
            break
    return p


def _bump_levels(params: MlpParams, grid: DeviceGrid, bias_drive: float,
                 rng: np.random.Generator) -> MlpParams:
    """Random neighbor on the level lattice: a few ±1-level steps."""
    p = params.copy()
    slots = _slots(p, bias_drive)
    for _ in range(HOP_MOVES):
        name, fan_in, scale = slots[int(rng.integers(len(slots)))]
        lev = grid.weight_levels(fan_in)
        arr = getattr(p, name)
        idx = tuple(int(rng.integers(d)) for d in arr.shape)
        i = int(np.argmin(np.abs(lev * scale - arr[idx])))
        i = int(np.clip(i + rng.choice((-1, 1)), 0, lev.size - 1))
        arr[idx] = lev[i] * scale
    return p


@dataclass
class TrainedStage:
    """One trained pipeline stage with its instantiated crossbars.

    ``residue`` / ``residue_layers`` are None for a terminal stage, which
    only needs its sub-ADC.
    """

    spec: StageSpec
    enc: EncodingScheme
    nominal: VtcParams
    grid: DeviceGrid
    bias_drive: float
    subadc: MlpParams
    subadc_layers: tuple
    residue: MlpParams | None = None
    residue_layers: tuple | None = None
    train_metrics: dict = field(default_factory=dict)

    @property
    def has_residue(self) -> bool:
        return self.residue is not None


def instantiate_net(params: MlpParams, grid: DeviceGrid,
                    bias_drive: float) -> tuple:
    """Both crossbar layers of an on-grid network (else ``PrecisionError``)."""
    w_full1 = np.vstack([params.w1, params.b1[None, :] / bias_drive])
    w_full2 = np.vstack([params.w2, params.b2[None, :] / bias_drive])
    return (instantiate_conductances(w_full1, grid, bias_voltage=bias_drive),
            instantiate_conductances(w_full2, grid, bias_voltage=bias_drive))


def _init_params(f_in: int, hidden: int, f_out: int, grid: DeviceGrid,
                 bias_drive: float, vdd: float, v_m: float,
                 rng: np.random.Generator) -> MlpParams:
    """Random init that spreads the hidden VTC transitions over [0, vdd].

    The analog input always drives row 0 at near-maximal weight; biases
    are chosen so each neuron's transition lands inside the input range,
    otherwise all neurons start saturated and gradients vanish.
    """
    wm1 = grid.w_max(f_in + 1)
    wm2 = grid.w_max(hidden + 1)
    w1 = rng.uniform(-0.3 * wm1, 0.3 * wm1, size=(f_in, hidden))
    w1[0] = rng.uniform(0.7, 1.0, size=hidden) * wm1
    centers = (np.arange(hidden) + rng.uniform(0.2, 0.8, size=hidden)) \
        / hidden * vdd
    b1 = v_m - w1[0] * centers - w1[1:].sum(axis=0) * bias_drive / 2.0
    b1 = np.clip(b1, -wm1 * bias_drive, wm1 * bias_drive)
    return MlpParams(
        w1=w1,
        b1=b1,
        w2=rng.uniform(-wm2, wm2, size=(hidden, f_out)),
        b2=rng.uniform(0.0, 0.5 * wm2 * bias_drive, size=f_out),
        vtc_assignment=np.zeros(hidden, dtype=int),
    )


def _train_net(kind: str, data, hidden: int, family: VtcFamily,
               grid: DeviceGrid, config: TrainConfig, vdd: float,
               rng: np.random.Generator, eval_v: np.ndarray, out_score,
               passes: int, restarts: int,
               rng_hop: np.random.Generator) -> MlpParams:
    """One network's whole recipe: Adam, discrete refinement, basin hops.

    ``data(v)`` maps input voltages to the network's ``(inputs, targets)``:
    of uniform draws on [0, vdd] for each Adam batch, of ``eval_v`` for
    the evaluation inputs, whose widths give the fan-in and fan-out.
    Biases are driven at the nominal rail.  Adam runs with a periodic
    clip+quantize projection; each projected snapshot is scored by
    ``out_score`` of its inference output for the evaluation inputs.  The
    best snapshot, the final continuous parameters and ``restarts`` fresh
    inits (drawn from ``rng_hop``; they give the refiner basins the
    gradient run may have abandoned) are each refined with ``passes``
    sweeps, and the best of them is kept.  Greedy refinement gets stuck
    when no single column or weight move improves the score, so
    ``config.refine_hops`` random ±1-level kicks, each re-refined, then
    replace it whenever they score better.
    """
    eval_x, eval_targets = data(eval_v)
    f_in, f_out = eval_x.shape[1], eval_targets.shape[1]
    bias_drive = family.nominal.v_high

    def param_score(p):
        return out_score(forward_stage(p, eval_x, family, "infer", kind, vdd))

    def refined(start):
        return refine_discrete(start, grid, bias_drive, family, kind, vdd,
                               eval_x, out_score, passes=passes)

    params = _init_params(f_in, hidden, f_out, grid, bias_drive, vdd,
                          family.nominal.v_m, rng)
    # iteration 0 redraws this assignment; the draw keeps its place in
    # the seeded stream
    params.vtc_assignment = rng.integers(len(family), size=hidden)
    moments = {}
    snapshots = []
    decay = COMPARATOR_WIDTH_RATIO / COMPARATOR_WIDTH_START
    for it in range(config.total_iters):
        params.vtc_assignment = rng.integers(len(family), size=hidden)
        x, targets = data(rng.uniform(0.0, vdd, size=config.batch_size))
        frac = it / max(config.total_iters - 1, 1)
        ratio = COMPARATOR_WIDTH_START * decay ** frac
        loss, grads = backprop(params, x, targets, family, kind, vdd,
                               surrogate_ratio=ratio)
        if not np.isfinite(loss):
            raise TrainingError(f"{kind} loss became non-finite",
                                seed=config.seed, iteration=it)
        adam_step(params, grads, moments, it, config)
        clip_params(params, grid, bias_drive)
        if (it + 1) % config.projection_period == 0 or it + 1 == config.total_iters:
            snapshots.append(project(params, grid, bias_drive))
    starts = [min(snapshots, key=param_score), params, *(
        _init_params(f_in, hidden, f_out, grid, bias_drive, vdd,
                     family.nominal.v_m, rng_hop) for _ in range(restarts))]
    best = min(map(refined, starts), key=param_score)
    if passes == 0:
        return best
    best_score = param_score(best)
    for _ in range(config.refine_hops):
        cand = refined(_bump_levels(best, grid, bias_drive, rng_hop))
        score = param_score(cand)
        if score < best_score:
            best, best_score = cand, score
    return best


def subadc_hard_bits(params: MlpParams, v: np.ndarray, spec: StageSpec,
                     family: VtcFamily) -> np.ndarray:
    """Hard comparator output bits (as rail voltages) for inputs ``v``."""
    return forward_stage(params, np.atleast_2d(v.reshape(-1, 1)), family,
                         "infer", "subadc", spec.vdd)


def train_stage(spec: StageSpec, enc: EncodingScheme, family: VtcFamily,
                grid: DeviceGrid, config: TrainConfig,
                train_residue: bool = True) -> TrainedStage:
    """Collaborative training of one stage: sub-ADC first, then residue.

    The residue network is trained on the *trained* sub-ADC's hard
    digital outputs, never on the ideal code.
    """
    vdd = spec.vdd
    rail = family.nominal.v_high
    ss = np.random.SeedSequence(config.seed)
    rng_sub, rng_res, rng_hop = (np.random.default_rng(s)
                                 for s in ss.spawn(3))
    codes = np.asarray(spec.codes(), dtype=float)
    eval_v, ideal_lvl, ideal_res = stage_eval_targets(spec, enc)

    def subadc_data(v):
        return v[:, None], codes[stage_level_targets(v, spec, enc)] * rail

    def sub_out_score(out):
        lvl = smooth_decode_array(out / rail, spec)
        return float(np.abs(lvl - ideal_lvl).mean())

    subadc = _train_net(
        "subadc", subadc_data, spec.subadc_hidden, family, grid, config, vdd,
        rng_sub, eval_v, sub_out_score, passes=min(config.refine_passes, 2),
        restarts=2, rng_hop=rng_hop)

    residue = residue_layers = None
    if train_residue:
        def residue_data(v):
            bits = subadc_hard_bits(subadc, v, spec, family)
            lvl = smooth_decode_array(bits / rail, spec)
            target = residue_targets(v, lvl, spec, enc)
            return np.hstack([v[:, None], bits]), target[:, None]

        def res_out_score(out):
            pred = np.clip(out[:, 0], 0.0, vdd)
            return float(((pred - ideal_res) ** 2).mean())

        residue = _train_net(
            "residue", residue_data, spec.residue_hidden, family, grid,
            config, vdd, rng_res, eval_v, res_out_score,
            passes=config.refine_passes, restarts=0, rng_hop=rng_hop)
        residue_layers = instantiate_net(residue, grid, rail)

    stage = TrainedStage(
        spec=spec, enc=enc, nominal=family.nominal, grid=grid,
        bias_drive=rail, subadc=subadc,
        subadc_layers=instantiate_net(subadc, grid, rail),
        residue=residue, residue_layers=residue_layers)
    stage.train_metrics = evaluate_stage(stage)
    return stage


def evaluate_stage(stage: TrainedStage) -> dict:
    """Sub-ADC ENOB (coherent sine test) and residue MSE vs the ideal on
    the grid training scores on (``stage_eval_targets``).

    The stage is measured through its crossbars, by the stage forward a
    conversion runs, so a perturbed copy of the stage is measured as a
    pipeline would convert with it.
    """
    spec, enc = stage.spec, stage.enc
    stim = sine_stimulus(TONE_N, TONE_BIN, 0.5 - 0.5 / spec.n_levels, enc,
                         spec.vdd)
    lvl, _ = stage_levels(stage, stim.samples)
    _, enob = _metrics.enob_of_codes(lvl, spec.resolution_bits, stim.f_s,
                                     stim.f_in)
    out = {"subadc_enob": enob}
    if stage.has_residue:
        v, _, ideal = stage_eval_targets(spec, enc)
        residue = stage_levels(stage, v, need_residue=True)[1]
        out["residue_mse"] = float(((residue - ideal) ** 2).mean())
    return out
