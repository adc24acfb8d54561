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

import numpy as np

from . import metrics as _metrics
from .crossbar import CrossbarLayer, DeviceGrid, instantiate_conductances, quantize_weight
from .errors import ConfigError, ShapeError, TrainingError
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
    stage_level_targets,
)
from .vtc import VtcFamily, vtc_eval

# Comparator training surrogate: logistic of this width (fraction of vdd).
COMPARATOR_WIDTH_RATIO = 0.01
# The surrogate anneals from this width down to COMPARATOR_WIDTH_RATIO so
# early gradients are not killed by comparator saturation.
COMPARATOR_WIDTH_START = 0.2


@dataclass
class TrainConfig:
    batch_size: int = 4096
    total_iters: int = 20_000
    projection_period: int = 256
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    redraw_vtc: bool = True
    refine_passes: int = 4  # discrete post-training refinement sweeps
    refine_hops: int = 20   # random-restart hops around the refined point

    def __post_init__(self):
        if min(self.batch_size, self.total_iters, self.projection_period) < 1:
            raise ConfigError("batch size, iterations and projection period "
                              "must be positive")
        if self.lr_start <= 0 or self.lr_end <= 0:
            raise ConfigError("learning rates must be positive")
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


def _hidden_arrays(params: MlpParams, family: VtcFamily, mode: str):
    """Per-neuron (v_m, s, v_high, v_low) rows for the forward pass."""
    if mode == "train":
        if np.any(params.vtc_assignment >= len(family)):
            raise ConfigError("VTC assignment index outside the family")
        vm, s, vh, vl = family.as_arrays()
        a = params.vtc_assignment
        return vm[a], s[a], vh[a], vl[a]
    nom = family.nominal
    h = params.hidden
    return (np.full(h, nom.v_m), np.full(h, nom.s),
            np.full(h, nom.v_high), np.full(h, nom.v_low))


def _forward(params: MlpParams, x: np.ndarray, family: VtcFamily,
             mode: str, kind: str, vdd: float,
             surrogate_ratio: float = COMPARATOR_WIDTH_RATIO):
    """Forward pass with intermediate cache for backprop."""
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ShapeError("input batch does not match the network fan-in")
    vm, s, vh, vl = _hidden_arrays(params, family, mode)
    rail = family.nominal.v_high
    pre1 = x @ params.w1 + params.b1
    sig_h = 1.0 / (1.0 + np.exp(-(vm - pre1) / s))
    h = vl + (vh - vl) * sig_h
    pre2 = h @ params.w2 + params.b2
    if kind == "subadc":
        if mode == "infer":
            out = rail * (pre2 > vdd / 2.0).astype(float)
            dout = None
        else:
            ws = surrogate_ratio * vdd
            sig_o = 1.0 / (1.0 + np.exp(-(pre2 - vdd / 2.0) / ws))
            out = rail * sig_o
            dout = rail * sig_o * (1.0 - sig_o) / ws
    elif kind == "residue":
        out = pre2
        dout = np.ones_like(pre2)
    else:
        raise ConfigError(f"unknown network kind {kind!r}")
    cache = (x, pre1, sig_h, h, dout, (vm, s, vh, vl))
    return out, cache


def forward_stage(params: MlpParams, inputs: np.ndarray, family: VtcFamily,
                  mode: str, kind: str, vdd: float) -> np.ndarray:
    """Network output voltages for a batch of input voltages.

    ``mode="train"`` uses the per-neuron VTC assignment and, for sub-ADC
    outputs, a steep logistic comparator surrogate; ``mode="infer"`` uses
    the nominal VTC and hard comparators at vdd/2.
    """
    out, _ = _forward(params, np.atleast_2d(inputs), family, mode, kind, vdd)
    return out


def mse_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Squared error summed over outputs, averaged over the batch."""
    if outputs.shape != targets.shape:
        raise ShapeError("outputs and targets must have the same shape")
    return float(((targets - outputs) ** 2).sum(axis=-1).mean())


def backprop(params: MlpParams, x: np.ndarray, targets: np.ndarray,
             family: VtcFamily, kind: str, vdd: float,
             surrogate_ratio: float = COMPARATOR_WIDTH_RATIO):
    """Loss and analytic gradients for one train-mode batch."""
    out, cache = _forward(params, x, family, "train", kind, vdd,
                          surrogate_ratio)
    xb, pre1, sig_h, h, dout, (vm, s, vh, vl) = cache
    n = x.shape[0]
    loss = mse_loss(out, targets)
    d2 = 2.0 * (out - targets) / n * dout          # dC/dpre2
    gw2 = h.T @ d2
    gb2 = d2.sum(axis=0)
    dh = d2 @ params.w2.T
    dvtc = -(vh - vl) / s * sig_h * (1.0 - sig_h)  # d h / d pre1
    d1 = dh * dvtc
    gw1 = xb.T @ d1
    gb1 = d1.sum(axis=0)
    return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params: MlpParams, grads: dict, state: AdamState,
              iteration: int, config: TrainConfig) -> None:
    """In-place Adam update with bias correction and the lr schedule."""
    if not state.m:
        for k, g in grads.items():
            state.m[k] = np.zeros_like(g)
            state.v[k] = np.zeros_like(g)
    state.t += 1
    lr = config.lr_at(iteration)
    b1, b2 = config.beta1, config.beta2
    for k, g in grads.items():
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / (1 - b1 ** state.t)
        v_hat = state.v[k] / (1 - b2 ** state.t)
        arr = getattr(params, k)
        arr -= lr * m_hat / (np.sqrt(v_hat) + config.eps)


def clip_params(params: MlpParams, grid: DeviceGrid,
                bias_drive: float) -> None:
    """In-place clip of all parameters to the realizable weight range."""
    wm1 = grid.w_max(params.w1.shape[0] + 1)
    wm2 = grid.w_max(params.hidden + 1)
    np.clip(params.w1, -wm1, wm1, out=params.w1)
    np.clip(params.b1, -wm1 * bias_drive, wm1 * bias_drive, out=params.b1)
    np.clip(params.w2, -wm2, wm2, out=params.w2)
    np.clip(params.b2, -wm2 * bias_drive, wm2 * bias_drive, out=params.b2)


def project(params: MlpParams, grid: DeviceGrid, bias_drive: float) -> MlpParams:
    """Clip and quantize all parameters onto the device grid.

    Biases are realized by a crossbar row driven at ``bias_drive``, so
    they quantize as bias-weight = b / bias_drive on the same grid.
    """
    f1 = params.w1.shape[0] + 1
    f2 = params.hidden + 1
    return MlpParams(
        w1=quantize_weight(params.w1, grid, f1),
        b1=quantize_weight(params.b1 / bias_drive, grid, f1) * bias_drive,
        w2=quantize_weight(params.w2, grid, f2),
        b2=quantize_weight(params.b2 / bias_drive, grid, f2) * bias_drive,
        vtc_assignment=params.vtc_assignment.copy(),
    )


def refine_discrete(params: MlpParams, grid: DeviceGrid, bias_drive: float,
                    family: VtcFamily, kind: str, vdd: float,
                    x: np.ndarray, score, passes: int = 4) -> MlpParams:
    """Greedy discrete search around a projected network.

    Gradient descent followed by rounding loses a lot at 3-bit weight
    precision because a bias step shifts a hidden transition by a large
    fraction of the input range.  This repairs that: each hidden
    neuron's input weights and bias are re-chosen *jointly* over the
    full level grid (their effect on the transition placement is
    coupled), then the output layer is refined one weight at a time.
    Moves are accepted only if the true inference-mode score improves.

    ``score`` maps the network output batch for inputs ``x`` to a float.
    """
    p = project(params, grid, bias_drive)
    f1 = p.w1.shape[0] + 1
    f2 = p.hidden + 1
    lev1 = grid.weight_levels(f1)
    lev2 = grid.weight_levels(f2)
    nom = family.nominal

    def hidden_of(w1, b1):
        pre1 = x @ w1 + b1
        return vtc_eval(nom, pre1, out=pre1)

    def out_of(pre2):
        if kind == "subadc":
            return nom.v_high * (pre2 > vdd / 2.0).astype(float)
        return pre2

    h = hidden_of(p.w1, p.b1)
    pre2 = h @ p.w2 + p.b2
    best = score(out_of(pre2))
    n_in = p.w1.shape[0]
    # Joint column enumeration is what repairs coarse lattices, but it
    # grows as 2^(A_R·(n_in+1)); past a few thousand combinations the
    # lattice is fine enough for single-coordinate moves.
    if len(lev1) ** (n_in + 1) <= 4096:
        col_combos = np.stack(np.meshgrid(*([lev1] * (n_in + 1)),
                                          indexing="ij"),
                              -1).reshape(-1, n_in + 1)
    else:
        col_combos = None
    for _ in range(passes):
        improved = False
        for j in range(p.hidden):
            base = pre2 - h[:, j:j + 1] * p.w2[j]
            cur = np.concatenate([p.w1[:, j], [p.b1[j] / bias_drive]])
            if col_combos is not None:
                combos = col_combos
            else:
                combos = [cur.copy() for _ in range((n_in + 1) * len(lev1))]
                k = 0
                for c in range(n_in + 1):
                    for lv in lev1:
                        combos[k][c] = lv
                        k += 1
            for combo in combos:
                if np.array_equal(combo, cur):
                    continue
                pre1 = x @ combo[:-1] + combo[-1] * bias_drive
                hj = vtc_eval(nom, pre1, out=pre1)
                s = score(out_of(base + hj[:, None] * p.w2[j]))
                if s < best:
                    best, cur, improved = s, combo.copy(), True
                    p.w1[:, j] = combo[:-1]
                    p.b1[j] = combo[-1] * bias_drive
                    h[:, j] = hj
            pre2 = base + h[:, j:j + 1] * p.w2[j]
        for j in range(p.hidden):
            for o in range(p.w2.shape[1]):
                base = pre2[:, o] - h[:, j] * p.w2[j, o]
                for lv in lev2:
                    if lv == p.w2[j, o]:
                        continue
                    col = pre2.copy()
                    col[:, o] = base + h[:, j] * lv
                    s = score(out_of(col))
                    if s < best:
                        best, improved = s, True
                        p.w2[j, o] = lv
                        pre2 = col
        for o in range(p.b2.size):
            base = pre2[:, o] - p.b2[o]
            for lv in lev2:
                if lv * bias_drive == p.b2[o]:
                    continue
                col = pre2.copy()
                col[:, o] = base + lv * bias_drive
                s = score(out_of(col))
                if s < best:
                    best, improved = s, True
                    p.b2[o] = lv * bias_drive
                    pre2 = col
        if not improved:
            break
    return p


def _bump_levels(params: MlpParams, grid: DeviceGrid, bias_drive: float,
                 rng: np.random.Generator, n_moves: int = 3) -> MlpParams:
    """Random neighbor on the level lattice: a few ±1-level steps."""
    p = params.copy()
    lev1 = grid.weight_levels(p.w1.shape[0] + 1)
    lev2 = grid.weight_levels(p.hidden + 1)
    slots = (("w1", lev1, 1.0), ("b1", lev1, bias_drive),
             ("w2", lev2, 1.0), ("b2", lev2, bias_drive))
    for _ in range(n_moves):
        name, lev, scale = slots[int(rng.integers(len(slots)))]
        arr = getattr(p, name)
        idx = tuple(int(rng.integers(d)) for d in arr.shape)
        i = int(np.argmin(np.abs(lev * scale - arr[idx])))
        i = int(np.clip(i + rng.choice((-1, 1)), 0, lev.size - 1))
        arr[idx] = lev[i] * scale
    return p


def _params_score(params: MlpParams, x: np.ndarray, out_score,
                  family: VtcFamily, kind: str, vdd: float) -> float:
    """``out_score`` of the network's inference-mode output for ``x``."""
    return out_score(forward_stage(params, x, family, "infer", kind, vdd))


def _refine_with_hops(candidates, grid: DeviceGrid, bias_drive: float,
                      family: VtcFamily, kind: str, vdd: float,
                      x: np.ndarray, out_score, passes: int, hops: int,
                      rng: np.random.Generator) -> MlpParams:
    """Greedy refinement of every candidate plus basin-hopping restarts.

    Greedy coordinate refinement gets stuck when no single column or
    weight move improves the score; random ±1-level kicks followed by
    re-refinement escape such basins cheaply.
    """
    def param_score(p):
        return _params_score(p, x, out_score, family, kind, vdd)

    best = min((refine_discrete(c, grid, bias_drive, family, kind, vdd, x,
                                out_score, passes=passes)
                for c in candidates), key=param_score)
    if passes == 0:
        return best
    best_score = param_score(best)
    for _ in range(hops):
        cand = refine_discrete(
            _bump_levels(best, grid, bias_drive, rng), grid, bias_drive,
            family, kind, vdd, x, out_score, passes=passes)
        score = param_score(cand)
        if score < best_score:
            best, best_score = cand, score
    return best


@dataclass
class TrainedStage:
    """One trained pipeline stage with its instantiated crossbars.

    ``residue`` / ``residue_layers`` are None for a terminal stage, which
    only needs its sub-ADC.
    """

    spec: StageSpec
    enc: EncodingScheme
    family: VtcFamily
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


def _instantiate_net(params: MlpParams, grid: DeviceGrid,
                     bias_drive: float) -> tuple:
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


def _train_net(kind: str, make_batch, f_in: int, hidden: int, f_out: int,
               family: VtcFamily, grid: DeviceGrid, config: TrainConfig,
               bias_drive: float, vdd: float, rng: np.random.Generator,
               eval_x: np.ndarray, out_score):
    """Adam + periodic projection.

    Each projected snapshot is scored by ``out_score`` of its
    inference-mode output for ``eval_x``.  Returns ``(best_projected,
    final_continuous)``: the best projected snapshot seen during the run
    and the final unprojected parameters (a second candidate starting
    point for discrete refinement).
    """
    params = _init_params(f_in, hidden, f_out, grid, bias_drive, vdd,
                          family.nominal.v_m, rng)
    params.vtc_assignment = rng.integers(len(family), size=hidden)
    state = AdamState()
    best: MlpParams | None = None
    best_score = np.inf
    decay = COMPARATOR_WIDTH_RATIO / COMPARATOR_WIDTH_START
    for it in range(config.total_iters):
        if config.redraw_vtc:
            params.vtc_assignment = rng.integers(len(family), size=hidden)
        x, targets = make_batch(config.batch_size, rng)
        frac = it / max(config.total_iters - 1, 1)
        ratio = COMPARATOR_WIDTH_START * decay ** frac
        loss, grads = backprop(params, x, targets, family, kind, vdd,
                               surrogate_ratio=ratio)
        if not np.isfinite(loss):
            raise TrainingError(f"{kind} loss became non-finite",
                                seed=config.seed, iteration=it)
        adam_step(params, grads, state, it, config)
        clip_params(params, grid, bias_drive)
        if (it + 1) % config.projection_period == 0 or it + 1 == config.total_iters:
            projected = project(params, grid, bias_drive)
            score = _params_score(projected, eval_x, out_score, family,
                                  kind, vdd)
            if score < best_score:
                best_score = score
                best = projected.copy()
    assert best is not None
    return best, params


def subadc_hard_bits(params: MlpParams, v: np.ndarray, spec: StageSpec,
                     family: VtcFamily) -> np.ndarray:
    """Hard comparator output bits (as rail voltages) for inputs ``v``."""
    return forward_stage(params, np.atleast_2d(v.reshape(-1, 1)), family,
                         "infer", "subadc", spec.vdd)


def train_stage(spec: StageSpec, enc: EncodingScheme, family: VtcFamily,
                grid: DeviceGrid, config: TrainConfig,
                train_residue: bool = True,
                residue_input_hook=None) -> TrainedStage:
    """Collaborative training of one stage: sub-ADC first, then residue.

    The residue network is trained on the *trained* sub-ADC's hard
    digital outputs, never on the ideal code.  ``residue_input_hook``
    (used by tests) observes every (input, digital-bits) residue batch.
    """
    vdd = spec.vdd
    rail = family.nominal.v_high
    bias_drive = rail
    ss = np.random.SeedSequence(config.seed)
    rng_sub, rng_res, rng_hop = (np.random.default_rng(s)
                                 for s in ss.spawn(3))
    codes = np.asarray(spec.codes(), dtype=float)
    eval_grid = np.arange(2048) / 2048.0 * vdd

    def subadc_batch(n, rng):
        r = rng.uniform(0.0, vdd, size=(n, 1))
        lvl = stage_level_targets(r[:, 0], spec, enc)
        return r, codes[lvl] * rail

    ideal_lvl = stage_level_targets(eval_grid, spec, enc)

    def sub_out_score(out):
        lvl = smooth_decode_array(out / rail, spec)
        return float(np.abs(lvl - ideal_lvl).mean())

    sub_snap, sub_final = _train_net(
        "subadc", subadc_batch, 1, spec.subadc_hidden, spec.smooth_width,
        family, grid, config, bias_drive, vdd, rng_sub, eval_grid[:, None],
        sub_out_score)

    # Fresh transition-aware inits give the refiner starting basins the
    # gradient run may have abandoned; they cost almost nothing here.
    sub_restarts = [_init_params(1, spec.subadc_hidden, spec.smooth_width,
                                 grid, bias_drive, vdd, family.nominal.v_m,
                                 rng_hop) for _ in range(2)]
    subadc = _refine_with_hops(
        [sub_snap, sub_final, *sub_restarts], grid, bias_drive, family,
        "subadc", vdd, eval_grid[:, None], sub_out_score,
        passes=min(config.refine_passes, 2), hops=config.refine_hops,
        rng=rng_hop)

    residue = None
    residue_layers = None
    if train_residue:
        ideal_res = residue_targets(eval_grid,
                                    stage_level_targets(eval_grid, spec, enc),
                                    spec, enc)

        def residue_batch(n, rng):
            r = rng.uniform(0.0, vdd, size=(n, 1))
            bits = subadc_hard_bits(subadc, r[:, 0], spec, family)
            if residue_input_hook is not None:
                residue_input_hook(r[:, 0], bits)
            lvl = smooth_decode_array(bits / rail, spec)
            target = residue_targets(r[:, 0], lvl, spec, enc)
            return np.hstack([r, bits]), target[:, None]

        eval_bits = subadc_hard_bits(subadc, eval_grid, spec, family)
        eval_x = np.hstack([eval_grid[:, None], eval_bits])

        def res_out_score(out):
            pred = np.clip(out[:, 0], 0.0, vdd)
            return float(((pred - ideal_res) ** 2).mean())

        res_snap, res_final = _train_net(
            "residue", residue_batch, 1 + spec.smooth_width,
            spec.residue_hidden, 1, family, grid, config, bias_drive, vdd,
            rng_res, eval_x, res_out_score)
        residue = _refine_with_hops(
            [res_snap, res_final], grid, bias_drive, family, "residue",
            vdd, eval_x, res_out_score,
            passes=config.refine_passes, hops=config.refine_hops,
            rng=rng_hop)
        residue_layers = _instantiate_net(residue, grid, bias_drive)

    stage = TrainedStage(
        spec=spec, enc=enc, family=family, grid=grid, bias_drive=bias_drive,
        subadc=subadc, subadc_layers=_instantiate_net(subadc, grid, bias_drive),
        residue=residue, residue_layers=residue_layers)
    stage.train_metrics = evaluate_stage(stage)
    return stage


def evaluate_stage(stage: TrainedStage) -> dict:
    """Sub-ADC ENOB (coherent sine test) and residue MSE vs the ideal.

    The stage is measured through its crossbars, by the stage forward a
    conversion runs, so a perturbed copy of the stage is measured as a
    pipeline would convert with it.
    """
    spec, enc = stage.spec, stage.enc
    lsb = 1.0 / spec.n_levels
    stim = sine_stimulus(TONE_N, TONE_BIN, 0.5 - lsb / 2.0, enc, spec.vdd)
    lvl, _ = stage_levels(stage, stim.samples)
    _, enob = _metrics.sndr_enob((lvl + 0.5) * lsb, stim.f_s, stim.f_in)
    out = {"subadc_enob": enob}
    if stage.has_residue:
        out["residue_mse"] = _metrics.residue_mse(
            lambda v: stage_levels(stage, v, need_residue=True)[1],
            lambda v: residue_targets(v, stage_level_targets(v, spec, enc),
                                      spec, enc),
            spec.vdd)
    return out
