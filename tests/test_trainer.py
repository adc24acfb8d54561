"""Training: gradients, Adam, projection, refinement, stage training."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnadc import trainer as trainer_module
from nnadc.crossbar import DeviceGrid, quantize_weight, vmm
from nnadc.errors import ConfigError, ShapeError, TrainingError
from nnadc.signal_core import EncodingScheme, StageSpec, smooth_decode_array
from nnadc.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    COMPARATOR_WIDTH_RATIO,
    COMPARATOR_WIDTH_START,
    MlpParams,
    TrainConfig,
    adam_step,
    backprop,
    clip_params,
    evaluate_stage,
    forward_stage,
    instantiate_net,
    mse_loss,
    project,
    refine_discrete,
    residue_targets,
    stage_level_targets,
    subadc_hard_bits,
    train_stage,
)
from nnadc.vtc import VtcFamily, default_family, vtc_eval

VDD = 1.0
GRID = DeviceGrid()
FAMILY = default_family(VDD, n=10, seed=3)
TINY = TrainConfig(batch_size=64, total_iters=64, projection_period=16,
                   refine_passes=0, seed=5)


def random_params(f_in, hidden, f_out, rng, grid=GRID, bias_drive=None):
    bd = bias_drive if bias_drive is not None else FAMILY.nominal.v_high
    wm1 = grid.w_max(f_in + 1)
    wm2 = grid.w_max(hidden + 1)
    return MlpParams(
        w1=rng.uniform(-wm1, wm1, size=(f_in, hidden)),
        b1=rng.uniform(-wm1 * bd, wm1 * bd, size=hidden),
        w2=rng.uniform(-wm2, wm2, size=(hidden, f_out)),
        b2=rng.uniform(-wm2 * bd, wm2 * bd, size=f_out),
        vtc_assignment=rng.integers(len(FAMILY), size=hidden),
    )


# (id, resolution bits, encoding, weight precision bits, sub-ADC level
# indices, residue level indices or None for a terminal stage,
# train_metrics), recorded with ``test_restarts_and_hops_pinned``'s config
PINNED_STAGES = [
    ("1bit-linear", 1, "linear", 3,
     {"w1": [[6, 6, 7]], "b1": [5, 4, 4],
      "w2": [[1, 3], [6, 3], [1, 1]], "b2": [4, 5]},
     {"w1": [[1, 6, 7, 7, 0], [0, 0, 0, 2, 0], [0, 0, 0, 3, 0]],
      "b1": [7, 7, 6, 6, 6], "w2": [[6], [0], [2], [3], [7]], "b2": [4]},
     {"subadc_enob": -np.inf, "residue_mse": 0.06432000720429001}),
    ("2bit-linear", 2, "linear", 3,
     {"w1": [[0, 1, 0, 0]], "b1": [6, 5, 5, 0],
      "w2": [[1, 7, 7], [4, 2, 6], [0, 4, 6], [1, 7, 1]], "b2": [5, 4, 5]},
     {"w1": [[6, 7, 6, 6, 5, 1, 6], [3, 2, 3, 2, 3, 3, 3],
             [4, 3, 3, 0, 0, 5, 7], [5, 0, 3, 6, 4, 2, 4]],
      "b1": [5, 6, 7, 6, 6, 7, 6],
      "w2": [[2], [3], [2], [5], [6], [6], [6]], "b2": [5]},
     {"subadc_enob": 1.2630720582960264, "residue_mse": 0.06845330315311446}),
    ("1bit-log", 1, "logarithmic", 3,
     {"w1": [[6, 6, 7]], "b1": [5, 4, 4],
      "w2": [[1, 3], [6, 3], [1, 1]], "b2": [4, 5]},
     {"w1": [[2, 6, 0, 7, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]],
      "b1": [7, 6, 6, 7, 6], "w2": [[7], [1], [4], [0], [7]], "b2": [4]},
     {"subadc_enob": -np.inf, "residue_mse": 0.06311740025892794}),
    ("3bit-terminal", 3, "linear", 3,
     {"w1": [[5, 5, 0, 3, 0, 2]], "b1": [5, 5, 5, 5, 6, 5],
      "w2": [[0, 3, 3, 7], [0, 2, 4, 5], [5, 4, 5, 6], [6, 5, 5, 6],
             [2, 1, 1, 0], [6, 7, 5, 5]], "b2": [4, 5, 4, 4]},
     None,
     {"subadc_enob": 1.8474362456887035}),
    ("1bit-ar4", 1, "linear", 4,
     {"w1": [[0, 13, 0]], "b1": [13, 9, 0],
      "w2": [[13, 15], [8, 2], [15, 12]], "b2": [9, 14]},
     {"w1": [[3, 13, 3, 15, 3], [10, 7, 6, 7, 5], [7, 6, 11, 7, 12]],
      "b1": [13, 14, 13, 13, 12], "w2": [[15], [0], [11], [2], [15]],
      "b2": [10]},
     {"subadc_enob": 0.7557925188983035, "residue_mse": 0.019374327124880637}),
]

class TestGradients:
    @pytest.mark.parametrize("case", range(20))
    def test_matches_finite_differences(self, case):
        rng = np.random.default_rng(100 + case)
        kind = ("subadc", "residue")[case % 2]
        f_in = int(rng.integers(1, 5))
        hidden = int(rng.integers(2, 8))
        f_out = int(rng.integers(1, 4))
        params = random_params(f_in, hidden, f_out, rng)
        x = rng.uniform(0.0, VDD, size=(6, f_in))
        targets = rng.uniform(0.0, 1.0, size=(6, f_out))
        ratio = 0.1  # wide surrogate keeps the FD quotient well-conditioned
        loss, grads = backprop(params, x, targets, FAMILY, kind, VDD,
                               surrogate_ratio=ratio)
        eps = 1e-6
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(params, name)
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                lp, _ = backprop(params, x, targets, FAMILY, kind, VDD,
                                 surrogate_ratio=ratio)
                arr[idx] = orig - eps
                lm, _ = backprop(params, x, targets, FAMILY, kind, VDD,
                                 surrogate_ratio=ratio)
                arr[idx] = orig
                fd[idx] = (lp - lm) / (2.0 * eps)
            np.testing.assert_allclose(grads[name], fd, rtol=1e-4, atol=1e-7)


def formula_forward(params, x, family, kind, vdd, surrogate_ratio):
    """The train forward as plain formulas, one fresh array per step: each
    neuron's member v_m and s, and the nominal rails."""
    a = params.vtc_assignment
    vm, s = family.v_m[a], family.s[a]
    vh, vl = family.nominal.v_high, family.nominal.v_low
    rail = family.nominal.v_high
    pre1 = x @ params.w1 + params.b1
    sig_h = 1.0 / (1.0 + np.exp(-(vm - pre1) / s))
    h = vl + (vh - vl) * sig_h
    pre2 = h @ params.w2 + params.b2
    if kind == "subadc":
        ws = surrogate_ratio * vdd
        sig_o = 1.0 / (1.0 + np.exp(-(pre2 - vdd / 2.0) / ws))
        out = rail * sig_o
        dout = rail * sig_o * (1.0 - sig_o) / ws
    else:
        out = pre2
        dout = np.ones_like(pre2)
    return out, (x, pre1, sig_h, h, dout, (vm, s, vh, vl))


def formula_backprop(params, x, targets, family, kind, vdd, surrogate_ratio):
    """``backprop`` as plain formulas: the oracle of the in-place one."""
    out, cache = formula_forward(params, x, family, kind, vdd,
                                 surrogate_ratio)
    xb, pre1, sig_h, h, dout, (vm, s, vh, vl) = cache
    n = x.shape[0]
    loss = mse_loss(out, targets)
    d2 = 2.0 * (out - targets) / n * dout
    gw2 = h.T @ d2
    gb2 = d2.sum(axis=0)
    dh = d2 @ params.w2.T
    dvtc = -(vh - vl) / s * sig_h * (1.0 - sig_h)
    d1 = dh * dvtc
    gw1 = xb.T @ d1
    gb1 = d1.sum(axis=0)
    return loss, {"w1": gw1, "b1": gb1, "w2": gw2, "b2": gb2}


# FAMILY with a raised nominal low rail, so that the hidden layer's
# ``+ v_low`` adds something
FAMILY_LOW_RAIL = VtcFamily(
    v_m=FAMILY.v_m, s=FAMILY.s,
    nominal=dataclasses.replace(FAMILY.nominal, v_low=0.1))


class TestBackpropInPlace:
    @settings(deadline=None, max_examples=300)
    @given(kind=st.sampled_from(("subadc", "residue")),
           f_in=st.integers(1, 4), hidden=st.integers(1, 9),
           f_out=st.integers(1, 3), batch=st.integers(1, 256),
           assignment=st.lists(st.integers(0, len(FAMILY) - 1),
                               min_size=9, max_size=9),
           ratio=st.floats(COMPARATOR_WIDTH_RATIO / 2,
                           2 * COMPARATOR_WIDTH_START),
           scale=st.sampled_from((0.1, 1.0, 10.0)),
           low_rail=st.booleans(), seed=st.integers(0, 2**32 - 1))
    # the training shapes, at each row width of ``_wide_rows``: k = 64
    # (4096, and 4160 in 65 rows), k = 32 (96 in 3 rows) and k = 1 (4095)
    @example(kind="residue", f_in=3, hidden=5, f_out=1, batch=4096,
             assignment=list(range(9)), ratio=COMPARATOR_WIDTH_RATIO,
             scale=1.0, low_rail=False, seed=0)
    @example(kind="residue", f_in=3, hidden=5, f_out=1, batch=4095,
             assignment=list(range(9)), ratio=COMPARATOR_WIDTH_RATIO,
             scale=1.0, low_rail=True, seed=1)
    @example(kind="residue", f_in=3, hidden=5, f_out=1, batch=96,
             assignment=list(range(9)), ratio=COMPARATOR_WIDTH_RATIO,
             scale=1.0, low_rail=False, seed=2)
    @example(kind="residue", f_in=3, hidden=5, f_out=1, batch=4160,
             assignment=list(range(9)), ratio=COMPARATOR_WIDTH_RATIO,
             scale=1.0, low_rail=True, seed=3)
    @example(kind="subadc", f_in=1, hidden=3, f_out=2, batch=4096,
             assignment=list(range(9)), ratio=COMPARATOR_WIDTH_START,
             scale=1.0, low_rail=False, seed=4)
    def test_matches_the_formulas(self, kind, f_in, hidden, f_out, batch,
                                  assignment, ratio, scale, low_rail, seed):
        """Loss and gradients equal the plain formulas bit for bit, and a
        later call leaves an earlier call's gradients as they were."""
        rng = np.random.default_rng(seed)
        family = FAMILY_LOW_RAIL if low_rail else FAMILY
        params = random_params(f_in, hidden, f_out, rng)
        for name in ("w1", "b1", "w2", "b2"):
            getattr(params, name)[...] *= scale
        params.vtc_assignment = np.array(assignment[:hidden])
        x = rng.uniform(0.0, family.nominal.v_high, size=(batch, f_in))
        targets = rng.uniform(0.0, VDD, size=(batch, f_out))
        with np.errstate(over="ignore"):
            want_loss, want = formula_backprop(params, x, targets, family,
                                               kind, VDD, ratio)
            loss, grads = backprop(params, x, targets, family, kind, VDD,
                                   surrogate_ratio=ratio)
            kept = {k: g.copy() for k, g in grads.items()}
            backprop(params, x[::-1].copy(), targets, family, kind, VDD,
                     surrogate_ratio=ratio)
        assert loss == want_loss
        assert grads.keys() == want.keys()
        for name, g in want.items():
            assert np.array_equal(grads[name], g), name
            assert np.array_equal(grads[name], kept[name]), name

    def test_residue_call_allocates_under_four_hidden_buffers(self):
        """A warm residue call at the training batch size peaks below four
        (batch, hidden) float64 arrays of traced memory."""
        n, f_in, hidden = 4096, 3, 5
        rng = np.random.default_rng(7)
        params = random_params(f_in, hidden, 1, rng)
        x = rng.uniform(0.0, VDD, size=(n, f_in))
        targets = rng.uniform(0.0, VDD, size=(n, 1))
        backprop(params, x, targets, FAMILY, "residue", VDD)
        tracemalloc.start()
        try:
            backprop(params, x, targets, FAMILY, "residue", VDD)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * hidden * 8


class TestAdam:
    def test_scalar_quadratic_converges(self):
        cfg = TrainConfig(lr_start=0.05, lr_end=0.05, total_iters=2000)
        params = MlpParams(w1=np.zeros((1, 1)), b1=np.zeros(1),
                           w2=np.zeros((1, 1)), b2=np.zeros(1),
                           vtc_assignment=np.zeros(1, dtype=int))
        moments = {}
        for it in range(2000):
            grads = {"w2": 2.0 * (params.w2 - 3.0)}
            adam_step(params, grads, moments, it, cfg)
        assert params.w2[0, 0] == pytest.approx(3.0, abs=0.05)

    def test_matches_the_formula(self):
        """Each step is plain Adam bit for bit: the moments start at zero
        and the bias correction counts t = iteration + 1."""
        cfg = TrainConfig(lr_start=1e-2, lr_end=1e-3, total_iters=8)
        rng = np.random.default_rng(11)
        params = random_params(2, 3, 2, rng)
        names = ("w1", "b1", "w2", "b2")
        want = {k: getattr(params, k).copy() for k in names}
        m = {k: np.zeros_like(a) for k, a in want.items()}
        v = {k: np.zeros_like(a) for k, a in want.items()}
        moments = {}
        for it in range(cfg.total_iters):
            grads = {k: rng.normal(size=a.shape) for k, a in want.items()}
            adam_step(params, grads, moments, it, cfg)
            t = it + 1
            for k, g in grads.items():
                m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
                v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g * g
                m_hat = m[k] / (1 - ADAM_BETA1 ** t)
                v_hat = v[k] / (1 - ADAM_BETA2 ** t)
                want[k] = want[k] - cfg.lr_at(it) * m_hat / (
                    np.sqrt(v_hat) + ADAM_EPS)
            for k in names:
                assert np.array_equal(getattr(params, k), want[k]), (it, k)

    def test_lr_schedule_geometric(self):
        cfg = TrainConfig(lr_start=1e-3, lr_end=1e-4, total_iters=101)
        assert cfg.lr_at(0) == pytest.approx(1e-3)
        assert cfg.lr_at(100) == pytest.approx(1e-4)
        assert cfg.lr_at(50) == pytest.approx(np.sqrt(1e-3 * 1e-4), rel=1e-6)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr_start=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(refine_passes=-1)


class TestClipProject:
    def test_clip_bounds(self):
        rng = np.random.default_rng(0)
        params = random_params(3, 5, 1, rng)
        bd = 2.0
        params.w1 *= 100.0
        params.b1 *= 100.0
        clip_params(params, GRID, bd)
        assert np.abs(params.w1).max() <= GRID.w_max(4) + 1e-15
        assert np.abs(params.b1).max() <= GRID.w_max(4) * bd + 1e-12

    def test_project_on_grid_and_idempotent(self):
        rng = np.random.default_rng(1)
        params = random_params(3, 5, 2, rng)
        bd = 2.0
        q = project(params, GRID, bd)
        q2 = project(q, GRID, bd)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(q, name), getattr(q2, name))
        levels = GRID.weight_levels(4)
        assert np.all(np.isclose(q.w1[..., None], levels, atol=1e-15)
                      .any(axis=-1))
        np.testing.assert_array_equal(q.vtc_assignment, params.vtc_assignment)


class TestForward:
    def test_subadc_infer_hard_bits(self):
        rng = np.random.default_rng(2)
        params = random_params(1, 3, 2, rng)
        out = forward_stage(params, rng.uniform(0, 1, size=(50, 1)), FAMILY,
                            "infer", "subadc", VDD)
        rail = FAMILY.nominal.v_high
        assert set(np.unique(out)) <= {0.0, rail}

    def test_surrogate_approaches_hard_bits(self):
        rng = np.random.default_rng(3)
        params = random_params(1, 3, 2, rng)
        x = rng.uniform(0, 1, size=(200, 1))
        hard = forward_stage(params, x, FAMILY, "infer", "subadc", VDD)
        # backprop's train pass, which ``test_matches_the_formulas`` ties
        # to this one bit for bit
        soft, _ = formula_forward(params, x, FAMILY, "subadc", VDD,
                                  COMPARATOR_WIDTH_RATIO)
        # the train pass uses family members; compare only decision agreement
        agree = np.mean((soft > FAMILY.nominal.v_high / 2) == (hard > 0))
        assert agree > 0.9

    def test_shape_check(self):
        rng = np.random.default_rng(4)
        params = random_params(2, 3, 1, rng)
        with pytest.raises(ShapeError):
            forward_stage(params, np.zeros((5, 3)), FAMILY, "infer",
                          "residue", VDD)

    def test_unknown_kind(self):
        rng = np.random.default_rng(5)
        params = random_params(1, 3, 1, rng)
        with pytest.raises(ConfigError):
            forward_stage(params, np.zeros((1, 1)), FAMILY, "infer", "huh",
                          VDD)

    def test_unknown_mode(self):
        """Only inference is a forward mode; ``backprop`` runs the train
        pass."""
        params = random_params(1, 3, 1, np.random.default_rng(5))
        for mode in ("spice", "train"):
            with pytest.raises(ConfigError, match="forward mode"):
                forward_stage(params, np.zeros((1, 1)), FAMILY, mode,
                              "residue", VDD)

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_infer_is_the_refinement_forward(self, data):
        """Snapshot scoring, hops and hard bits see what refinement sees:
        the nominal ``vtc_eval`` hidden layer, bit for bit, at every row
        width of ``_wide_rows`` (the training batches 2048, 4095 and 4160
        among them)."""
        kind = data.draw(st.sampled_from(("subadc", "residue")))
        f_in, hidden, f_out = (data.draw(st.integers(1, hi))
                               for hi in (4, 7, 3))
        n = data.draw(st.integers(0, 256)
                      | st.sampled_from((2048, 4095, 4160)))

        def array(shape, bound):
            return data.draw(hnp.arrays(np.float64, shape, elements=st.floats(
                -bound, bound, allow_subnormal=False)))

        bd = FAMILY.nominal.v_high
        params = MlpParams(
            w1=array((f_in, hidden), 1.0), b1=array((hidden,), bd),
            w2=array((hidden, f_out), 1.0), b2=array((f_out,), bd),
            vtc_assignment=np.zeros(hidden, dtype=int))
        x = array((n, f_in), VDD)
        nom = FAMILY.nominal
        pre2 = vtc_eval(nom, x @ params.w1 + params.b1) @ params.w2 \
            + params.b2
        want = (nom.v_high * (pre2 > VDD / 2.0).astype(float)
                if kind == "subadc" else pre2)
        got = forward_stage(params, x, FAMILY, "infer", kind, VDD)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_subadc_decision_in_place(self, order):
        """The sub-ADC comparators written into their argument give the
        bits of ``v_high * (pre2 > vdd / 2).astype(float)``: NaN, ±inf,
        ±0 and exactly vdd / 2 among random pre-activations."""
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, VDD / 2.0,
                   np.nextafter(VDD / 2.0, 0.0), np.nextafter(VDD / 2.0, 1.0)]
        rng = np.random.default_rng(7)
        pre2 = rng.uniform(-1.0, 2.0, size=(64, 3))
        pre2.flat[:len(special)] = special
        pre2 = np.asarray(pre2, order=order)
        nom = FAMILY.nominal
        want = nom.v_high * (pre2 > VDD / 2.0).astype(float)
        got = trainer_module._decision("subadc", nom, VDD)(pre2)
        assert got is pre2
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_mse_loss_shape(self):
        with pytest.raises(ShapeError):
            mse_loss(np.zeros((2, 1)), np.zeros((2, 2)))
        assert mse_loss(np.ones((4, 2)), np.zeros((4, 2))) == pytest.approx(2.0)


class TestRefineDiscrete:
    def test_never_worsens_and_on_grid(self):
        rng = np.random.default_rng(6)
        bd = FAMILY.nominal.v_high
        params = random_params(1, 3, 1, rng)
        x = np.linspace(0, 1, 256)[:, None]
        target = 0.3 + 0.2 * x[:, 0]

        def score(out):
            return float(((out[:, 0] - target) ** 2).mean())

        start = project(params, GRID, bd)
        s0 = score(forward_stage(start, x, FAMILY, "infer", "residue", VDD))
        ref = refine_discrete(params, GRID, bd, FAMILY, "residue", VDD, x,
                              score, passes=2)
        s1 = score(forward_stage(ref, x, FAMILY, "infer", "residue", VDD))
        assert s1 <= s0 + 1e-12
        np.testing.assert_array_equal(ref.w1, project(ref, GRID, bd).w1)

    def test_zero_passes_is_projection(self):
        rng = np.random.default_rng(7)
        params = random_params(1, 3, 1, rng)
        bd = 1.5
        ref = refine_discrete(params, GRID, bd, FAMILY, "residue", VDD,
                              np.linspace(0, 1, 32)[:, None],
                              lambda out: float((out ** 2).mean()), passes=0)
        q = project(params, GRID, bd)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(ref, name),
                                          getattr(q, name))


class TestRefineCandidateSequence:
    """Pins the order and number of the candidates ``refine_discrete``
    scores on the shared tiny stage, and where one pass ends.

    The benchmark's recorded refinement counters depend on exactly this
    sequence; a faster kernel must leave every count and weight as is.
    Weights are given as indices into the layer's level grid (biases
    scaled by the bias drive).
    """

    @staticmethod
    def refine(stage, family, kind, start, x, score, grid=None):
        scores = []

        def counting(out):
            scores.append(score(out))
            return scores[-1]

        p = refine_discrete(start, grid or stage.grid, stage.bias_drive,
                            family, kind, stage.spec.vdd, x, counting,
                            passes=1)
        running = np.minimum.accumulate(scores)
        accepted = int(np.sum(running[1:] < running[:-1]))
        return p, len(scores), accepted, running[-1]

    @staticmethod
    def level_indices(stage, p, grid=None):
        grid = grid or stage.grid
        lev1 = grid.weight_levels(p.w1.shape[0] + 1)
        lev2 = grid.weight_levels(p.hidden + 1)
        out = {}
        for name, lev, scale in (("w1", lev1, 1.0),
                                 ("b1", lev1, stage.bias_drive),
                                 ("w2", lev2, 1.0),
                                 ("b2", lev2, stage.bias_drive)):
            w = getattr(p, name)
            idx = np.abs(lev * scale - w[..., None]).argmin(axis=-1)
            np.testing.assert_array_equal(lev[idx] * scale, w)
            out[name] = idx.tolist()
        return out

    @staticmethod
    def subadc_case(stage):
        """The start of one of ``train_stage``'s refinement restarts, its
        2,048-point evaluation grid and its score."""
        spec, enc, nom = stage.spec, stage.enc, stage.nominal
        grid = np.arange(2048) / 2048.0 * spec.vdd
        ideal = stage_level_targets(grid, spec, enc)

        def score(out):
            lvl = smooth_decode_array(out / nom.v_high, spec)
            return float(np.abs(lvl - ideal).mean())

        start = trainer_module._init_params(
            1, spec.subadc_hidden, spec.smooth_width, stage.grid,
            stage.bias_drive, spec.vdd, nom.v_m,
            np.random.default_rng(0))
        return start, grid[:, None], score

    @staticmethod
    def residue_case(stage, family):
        """The trained residue network, a 256-point grid with the
        sub-ADC's hard bits, and the residue score."""
        spec, enc = stage.spec, stage.enc
        grid = np.arange(256) / 256.0 * spec.vdd
        ideal = residue_targets(grid, stage_level_targets(grid, spec, enc),
                                spec, enc)
        x = np.hstack([grid[:, None],
                       subadc_hard_bits(stage.subadc, grid, spec,
                                        family)])

        def score(out):
            return float(((np.clip(out[:, 0], 0.0, spec.vdd) - ideal) ** 2)
                         .mean())

        return stage.residue, x, score

    def test_subadc_pass(self, tiny_stage, tiny_family):
        start, x, score = self.subadc_case(tiny_stage)
        p, calls, accepted, best = self.refine(tiny_stage, tiny_family,
                                               "subadc", start, x, score)
        assert (calls, accepted, best) == (248, 4, 0.083984375)
        assert self.level_indices(tiny_stage, p) == {
            "w1": [[0, 0, 7]], "b1": [0, 7, 4],
            "w2": [[7, 6], [0, 6], [2, 5]], "b2": [4, 5]}

    def test_residue_pass(self, tiny_stage, tiny_family):
        start, x, score = self.residue_case(tiny_stage, tiny_family)
        p, calls, accepted, best = self.refine(tiny_stage, tiny_family,
                                               "residue", start, x, score)
        assert (calls, accepted, best) == (20522, 21, 0.06399872093869513)
        assert self.level_indices(tiny_stage, p) == {
            "w1": [[3, 7, 2, 5, 0], [0, 3, 0, 0, 0], [0, 3, 0, 0, 0]],
            "b1": [6, 6, 7, 6, 6],
            "w2": [[5], [0], [5], [3], [7]], "b2": [4]}

    def test_residue_single_coordinate_pass(self, tiny_stage, tiny_family):
        # at 4 bits a residue column has 16^4 > 4,096 level combinations,
        # so refinement moves one coordinate of a column at a time
        grid = DeviceGrid(precision_bits=4)
        start, x, score = self.residue_case(tiny_stage, tiny_family)
        p, calls, accepted, best = self.refine(tiny_stage, tiny_family,
                                               "residue", start, x, score,
                                               grid=grid)
        assert (calls, accepted, best) == (404, 14, 0.06535489219054771)
        assert self.level_indices(tiny_stage, p, grid) == {
            "w1": [[7, 13, 13, 15, 0], [9, 6, 6, 6, 6], [6, 6, 6, 6, 9]],
            "b1": [13, 13, 15, 13, 11],
            "w2": [[11], [0], [0], [6], [15]], "b2": [9]}

    @pytest.mark.parametrize("kind", ["subadc", "residue"])
    def test_score_sees_the_inference_output(self, tiny_stage, tiny_family,
                                             kind):
        """``score`` receives a (points, outputs) batch, and the batch of
        the last accepted move is the refined network's inference output.

        Refinement updates the output pre-activations one column or entry
        at a time, so residue outputs agree with a fresh forward pass to
        rounding; the sub-ADC's comparator outputs agree exactly.
        """
        start, x, score = (self.subadc_case(tiny_stage) if kind == "subadc"
                           else self.residue_case(tiny_stage, tiny_family))
        seen, best = [], [np.inf]

        def recording(out):
            s = score(out)
            assert out.shape == (x.shape[0], start.w2.shape[1])
            if s < best[0]:
                best[0] = s
                seen.append(np.array(out))
            return s

        p = refine_discrete(start, tiny_stage.grid, tiny_stage.bias_drive,
                            tiny_family, kind, tiny_stage.spec.vdd, x,
                            recording, passes=1)
        assert len(seen) > 1
        want = forward_stage(p, x, tiny_family, "infer", kind,
                             tiny_stage.spec.vdd)
        if kind == "subadc":
            np.testing.assert_array_equal(seen[-1], want)
        else:
            np.testing.assert_allclose(seen[-1], want, rtol=0, atol=1e-14)


class TestInstantiationEquivalence:
    def test_crossbar_forward_matches_params(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            f_in, hidden = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            bd = FAMILY.nominal.v_high
            params = project(random_params(f_in, hidden, 1, rng), GRID, bd)
            l1, l2 = instantiate_net(params, GRID, bd)
            x = rng.uniform(0, 1, size=(20, f_in))
            pre1 = vmm(l1, x)
            h = vtc_eval(FAMILY.nominal, pre1)
            got = vmm(l2, h)
            want = forward_stage(params, x, FAMILY, "infer", "residue", VDD)
            np.testing.assert_allclose(got, want, atol=1e-9)


class TestStageTargets:
    def test_log_stage_requires_one_bit(self):
        with pytest.raises(ConfigError):
            stage_level_targets(np.array([0.3]),
                                StageSpec(resolution_bits=2, vdd=VDD),
                                EncodingScheme(kind="logarithmic"))

    def test_residue_clipped_to_range(self):
        spec = StageSpec(resolution_bits=1, vdd=VDD)
        enc = EncodingScheme()
        v = np.linspace(0, VDD, 64, endpoint=False)
        wrong_level = np.ones(64, dtype=int)  # claims MSB=1 everywhere
        r = residue_targets(v, wrong_level, spec, enc)
        assert r.min() >= 0.0 and r.max() <= VDD


class TestTrainStage:
    def test_returns_complete_stage(self):
        spec = StageSpec(resolution_bits=1, vdd=VDD)
        stage = train_stage(spec, EncodingScheme(), FAMILY, GRID, TINY)
        assert stage.has_residue
        assert len(stage.subadc_layers) == 2
        assert len(stage.residue_layers) == 2
        assert "subadc_enob" in stage.train_metrics
        assert "residue_mse" in stage.train_metrics

    def test_terminal_stage_has_no_residue(self):
        spec = StageSpec(resolution_bits=1, vdd=VDD)
        stage = train_stage(spec, EncodingScheme(), FAMILY, GRID, TINY,
                            train_residue=False)
        assert not stage.has_residue
        assert stage.residue_layers is None
        assert "residue_mse" not in stage.train_metrics

    def test_residue_sees_trained_subadc_bits(self, monkeypatch):
        spec = StageSpec(resolution_bits=1, vdd=VDD)
        seen = []

        def spy(params, x, targets, family, kind, *args, **kwargs):
            if kind == "residue":
                seen.append(x.copy())
            return backprop(params, x, targets, family, kind, *args, **kwargs)

        monkeypatch.setattr(trainer_module, "backprop", spy)
        stage = train_stage(spec, EncodingScheme(), FAMILY, GRID, TINY)
        assert len(seen) == TINY.total_iters
        rail = stage.nominal.v_high
        for x in seen:
            # the residue network trains on the trained sub-ADC's own
            # hard outputs, never on the ideal code
            bits = subadc_hard_bits(stage.subadc, x[:, 0], spec, FAMILY)
            np.testing.assert_array_equal(x[:, 1:], bits)
            assert set(np.unique(bits)) <= {0.0, rail}

    def test_non_finite_loss(self, monkeypatch):
        monkeypatch.setattr(trainer_module, "backprop",
                            lambda *args, **kwargs: (np.nan, {}))
        with pytest.raises(TrainingError, match=(
                rf"subadc loss became non-finite \(seed {TINY.seed}, "
                r"iteration 0\)")) as info:
            train_stage(StageSpec(resolution_bits=1, vdd=VDD),
                        EncodingScheme(), FAMILY, GRID, TINY)
        assert (info.value.seed, info.value.iteration) == (TINY.seed, 0)

    def test_weights_on_grid(self):
        spec = StageSpec(resolution_bits=1, vdd=VDD)
        stage = train_stage(spec, EncodingScheme(), FAMILY, GRID, TINY)
        for params, fan in ((stage.subadc, 2), (stage.residue, 4)):
            levels = GRID.weight_levels(fan)
            assert np.all(np.isclose(params.w1[..., None], levels,
                                     atol=1e-12).any(axis=-1))

    @pytest.mark.parametrize("case", PINNED_STAGES, ids=lambda c: c[0])
    def test_restarts_and_hops_pinned(self, case):
        """The whole per-network recipe on a tiny budget: sub-ADC restarts,
        refinement of every start and basin hops of both networks, in the
        order they draw from the shared hop generator.  Weights are level
        indices, as in ``TestRefineCandidateSequence``."""
        _, bits, kind, precision, sub, res, metrics = case
        cfg = dataclasses.replace(TINY, refine_passes=1, refine_hops=2)
        stage = train_stage(StageSpec(resolution_bits=bits, vdd=VDD),
                            EncodingScheme(kind), FAMILY,
                            DeviceGrid(precision_bits=precision), cfg,
                            train_residue=res is not None)
        indices = TestRefineCandidateSequence.level_indices
        assert indices(stage, stage.subadc) == sub
        if res is not None:
            assert indices(stage, stage.residue) == res
        assert stage.train_metrics == metrics

    def test_evaluate_stage_deterministic(self):
        spec = StageSpec(resolution_bits=1, vdd=VDD)
        stage = train_stage(spec, EncodingScheme(), FAMILY, GRID, TINY)
        a = evaluate_stage(stage)
        b = evaluate_stage(stage)
        assert repr(a) == repr(b)  # NaN-tolerant equality
