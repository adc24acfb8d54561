"""Bit-exactness of the work-buffer behavioral stage forward.

``pipeline.convert`` runs every stage on buffers it allocates once per
call, with in-place crossbar products and VTC evaluations and crossbar
weights computed once per layer.  The reference kept below is the
allocating chain it replaced: ``hstack`` of voltages and comparator bits,
the ``where`` logistic, and ``a @ w + b`` products with the weights
recomputed on every call.  Codes and metrics must match it bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnadc import crossbar
from nnadc.crossbar import (
    CrossbarLayer,
    DeviceGrid,
    PerturbationSpec,
    instantiate_conductances,
    perturb_resistances,
    vmm,
    weights_from_conductances,
)
from nnadc.errors import NnadcError, ShapeError
from nnadc.pipeline import (
    PipelineConfig,
    convert,
    perturbed_pipeline,
    simulate_stage,
    stage_levels,
)
from nnadc.signal_core import EncodingScheme, StageSpec, smooth_decode_array
from nnadc.trainer import (
    TrainConfig,
    evaluate_stage,
    residue_targets,
    stage_level_targets,
    train_stage,
)
from nnadc import metrics
from nnadc.vtc import VtcParams, default_family, vtc_eval

from test_kernels import SPECIAL, assert_same_bits


def ref_logistic(z):
    z = np.asarray(z, dtype=float)
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def ref_vtc(p, v):
    z = (p.v_m - np.asarray(v, dtype=float)) / p.s
    out = p.v_low + (p.v_high - p.v_low) * ref_logistic(z)
    return float(out) if np.isscalar(v) else out


def ref_vmm(layer, v):
    w = weights_from_conductances(layer)
    return v @ w[:-1] + layer.bias_voltage * w[-1]


def ref_net(layers, x, nominal, kind, vdd):
    l1, l2 = layers
    pre2 = ref_vmm(l2, ref_vtc(nominal, ref_vmm(l1, x)))
    if kind == "subadc":
        return nominal.v_high * (pre2 > vdd / 2.0).astype(float)
    return pre2


def ref_stage(stage, v, need_residue):
    spec, nom = stage.spec, stage.nominal
    bits = ref_net(stage.subadc_layers, v[:, None], nom, "subadc", spec.vdd)
    lvl = smooth_decode_array(bits / nom.v_high, spec)
    res = None
    if need_residue:
        out = ref_net(stage.residue_layers, np.hstack([v[:, None], bits]),
                      nom, "residue", spec.vdd)
        res = np.clip(out[:, 0], 0.0, spec.vdd)
    return lvl, res


def ref_convert(p, v):
    r = np.atleast_1d(np.asarray(v, dtype=float))
    codes = np.zeros(r.size, dtype=np.int64)
    last = len(p.stages) - 1
    for i, stage in enumerate(p.stages):
        lvl, res = ref_stage(stage, r, i < last)
        codes = (codes << stage.spec.resolution_bits) + lvl
        r = res
    return codes


def ref_stage_metrics(stage, sub_layers, res_layers, n=4096, tone_bin=127):
    spec, enc, nom = stage.spec, stage.enc, stage.nominal
    vdd = spec.vdd
    lsb = 1.0 / spec.n_levels
    k = np.arange(n)
    t = 0.5 + (0.5 - lsb / 2.0) * np.sin(2.0 * np.pi * tone_bin * k / n)
    v = np.clip(enc.denormalize(t), 0.0, vdd)
    bits = ref_net(sub_layers, v[:, None], nom, "subadc", vdd)
    lvl = smooth_decode_array(bits / nom.v_high, spec)
    _, enob = metrics.sndr_enob((lvl + 0.5) * lsb, 1.0, tone_bin / n)
    out = {"subadc_enob": enob}
    grid = np.arange(2048) / 2048.0 * vdd
    gbits = ref_net(sub_layers, grid[:, None], nom, "subadc", vdd)
    pred = ref_net(res_layers, np.hstack([grid[:, None], gbits]), nom,
                   "residue", vdd)
    pred = np.clip(pred[:, 0], 0.0, vdd)
    ideal = residue_targets(grid, stage_level_targets(grid, spec, enc),
                            spec, enc)
    out["residue_mse"] = float(((pred - ideal) ** 2).mean())
    return out


TINY = TrainConfig(batch_size=64, total_iters=64, projection_period=16,
                   refine_passes=0, seed=5)


@pytest.fixture(scope="module")
def mixed_pipeline(tiny_stage):
    """1-, 2- and 1-bit stages and a terminal sub-ADC: three buffer shapes."""
    family = default_family(1.0, n=10, seed=3)
    two_bit = train_stage(StageSpec(resolution_bits=2), EncodingScheme(),
                          family, DeviceGrid(), TINY)
    terminal = train_stage(StageSpec(resolution_bits=1), EncodingScheme(),
                           family, DeviceGrid(), TINY, train_residue=False)
    return PipelineConfig(stages=(tiny_stage, two_bit, tiny_stage, terminal),
                          enc=EncodingScheme())


@pytest.fixture(scope="module")
def three_bit_stage():
    """A tiny 3-bit stage: a 1->6->4 sub-ADC and a 5->9->1 residue net."""
    stage = train_stage(StageSpec(resolution_bits=3), EncodingScheme(),
                        default_family(1.0, n=10, seed=3), DeviceGrid(),
                        TINY)
    assert [(l.rows - 1, l.cols) for l in stage.subadc_layers] == [(1, 6),
                                                                   (6, 4)]
    assert [(l.rows - 1, l.cols) for l in stage.residue_layers] == [(5, 9),
                                                                    (9, 1)]
    return stage


SPECIAL_V = [np.nan, np.inf, -np.inf, -1e300, 1e300, -0.0, 5e-324]


@st.composite
def voltages(draw):
    """Voltages beyond [0, vdd], as a contiguous array or a strided view."""
    n = draw(st.integers(1, 5000))
    step = draw(st.sampled_from([1, 2, 3, -1, -2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = rng.uniform(-0.25, 1.25, size=n * abs(step))
    for value in draw(st.lists(st.sampled_from(SPECIAL_V), max_size=4)):
        base[int(rng.integers(base.size))] = value
    return base[::step][:n]


class TestConvertMatchesReference:
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(v=voltages(), sigma=st.sampled_from([0.0, 0.05, 0.2]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_tiny_stage_pipeline(self, tiny_stage, v, sigma, seed):
        p = perturbed_pipeline(
            PipelineConfig(stages=(tiny_stage,) * 8, enc=EncodingScheme()),
            sigma, seed)
        np.testing.assert_array_equal(convert(p, v), ref_convert(p, v))

    @settings(deadline=None, max_examples=15,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(v=voltages(), sigma=st.sampled_from([0.0, 0.2]),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_mixed_resolution_pipeline(self, mixed_pipeline, v, sigma, seed):
        p = perturbed_pipeline(mixed_pipeline, sigma, seed)
        np.testing.assert_array_equal(convert(p, v), ref_convert(p, v))

    @pytest.mark.parametrize("signs", [(1, 1, 1, 1, 1, 1),
                                       (1, -1, -1, -1, -1, 1)])
    def test_residue_clipped_at_both_rails(self, tiny_stage, signs):
        # extreme output weights drive the residue beyond vdd or below 0
        l1, l2 = tiny_stage.residue_layers
        top = tiny_stage.grid.weight_levels(l2.rows)[-1]
        l2 = instantiate_conductances(np.array(signs)[:, None] * top,
                                      tiny_stage.grid,
                                      bias_voltage=tiny_stage.bias_drive)
        stage = dataclasses.replace(tiny_stage, residue_layers=(l1, l2))
        v = np.linspace(-0.5, 1.5, 4001)
        nom, vdd = stage.nominal, stage.spec.vdd
        bits = ref_net(stage.subadc_layers, v[:, None], nom, "subadc", vdd)
        raw = ref_net(stage.residue_layers, np.hstack([v[:, None], bits]),
                      nom, "residue", vdd)
        assert np.any((raw < 0) | (raw > vdd))
        lvl, res = stage_levels(stage, v, need_residue=True)
        want_lvl, want_res = ref_stage(stage, v, True)
        np.testing.assert_array_equal(lvl, want_lvl)
        assert_same_bits(res, want_res)
        p = PipelineConfig(stages=(stage,) * 4, enc=EncodingScheme())
        np.testing.assert_array_equal(convert(p, v), ref_convert(p, v))

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
    def test_three_bit_stage(self, three_bit_stage, sigma):
        p = perturbed_pipeline(PipelineConfig(stages=(three_bit_stage,) * 4,
                                              enc=EncodingScheme()),
                               sigma, seed=11)
        v = np.random.default_rng(4).uniform(-0.25, 1.25, 4097)
        v[:len(SPECIAL_V)] = SPECIAL_V
        np.testing.assert_array_equal(convert(p, v), ref_convert(p, v))
        stage = p.stages[0]
        lvl, res = stage_levels(stage, v, need_residue=True)
        want_lvl, want_res = ref_stage(stage, v, True)
        np.testing.assert_array_equal(lvl, want_lvl)
        assert_same_bits(res, want_res)
        assert repr(evaluate_stage(stage)) == repr(ref_stage_metrics(
            stage, stage.subadc_layers, stage.residue_layers))

    def test_scalar_and_empty_inputs(self, mixed_pipeline):
        for v in (0.3, np.float64(0.7), np.array(0.1), np.empty(0)):
            np.testing.assert_array_equal(convert(mixed_pipeline, v),
                                          ref_convert(mixed_pipeline, v))

    def test_rejects_2d_input(self, tiny_stage):
        p = PipelineConfig(stages=(tiny_stage,), enc=EncodingScheme())
        with pytest.raises(ShapeError):
            convert(p, np.zeros((4, 2)))

    def test_terminal_stage_before_last(self, mixed_pipeline):
        terminal = mixed_pipeline.stages[-1]
        with pytest.raises(NnadcError, match="residue-less terminal stage"):
            PipelineConfig(stages=(terminal, terminal), enc=EncodingScheme())
        v = np.linspace(0.0, 1.0, 9)
        with pytest.raises(NnadcError, match="residue-less terminal stage"):
            stage_levels(terminal, v, need_residue=True)
        np.testing.assert_array_equal(stage_levels(terminal, v)[0],
                                      ref_stage(terminal, v, False)[0])

    def test_consecutive_calls_do_not_alias(self, tiny_stage):
        p = PipelineConfig(stages=(tiny_stage,) * 8, enc=EncodingScheme())
        v = np.linspace(0.0, 1.0, 257)
        a = convert(p, v)
        kept = a.copy()
        b = convert(p, v)
        assert not np.shares_memory(a, b)
        b[:] = -1
        np.testing.assert_array_equal(a, kept)

    def test_simulate_stage(self, mixed_pipeline):
        for stage in mixed_pipeline.stages[:3]:
            for v in (0.0, 0.31, 0.5, 0.99, -0.2, 1.7):
                lvl, res = ref_stage(stage, np.array([v]), True)
                assert simulate_stage(stage, v) == (int(lvl[0]),
                                                    float(res[0]))

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2])
    def test_stage_metrics_from_layers(self, tiny_stage, sigma):
        sub = tuple(perturb_resistances(l, PerturbationSpec(sigma, seed=i))
                    for i, l in enumerate(tiny_stage.subadc_layers))
        res = tuple(perturb_resistances(l, PerturbationSpec(sigma, seed=9 + i))
                    for i, l in enumerate(tiny_stage.residue_layers))
        stage = dataclasses.replace(tiny_stage, subadc_layers=sub,
                                    residue_layers=res)
        got = evaluate_stage(stage)
        assert repr(got) == repr(ref_stage_metrics(tiny_stage, sub, res))


def random_layer(rng, rows, cols, bias_voltage):
    return CrossbarLayer(g_u=rng.uniform(1e-7, 1e-5, size=(rows, cols)),
                         g_l=rng.uniform(1e-7, 1e-5, size=(rows, cols)),
                         grid=DeviceGrid(), bias_voltage=bias_voltage)


class TestInPlaceKernels:
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_vmm_out_matches_allocating(self, data):
        """Small batches, and batches at each row width of the wide-row
        bias add of a row-major output: k = gcd(n, 64) = 1, 32 and 64."""
        rows = data.draw(st.integers(2, 7))
        cols = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        layer = random_layer(rng, rows, cols,
                             data.draw(st.sampled_from([0.0, 1.7, 2.5])))
        n = data.draw(st.integers(0, 40) | st.sampled_from((4095, 96, 4160)))
        shape = (n, rows - 1)
        v = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.floats(-2.0, 2.0), st.sampled_from(SPECIAL))))
        want = ref_vmm(layer, v)
        assert_same_bits(vmm(layer, v), want)
        out = np.full(want.shape, np.nan)
        assert vmm(layer, v, out=out) is out
        assert_same_bits(out, want)
        # the column-major batches of ``pipeline.convert``, against the
        # allocating product of the same batch
        v = np.asfortranarray(v)
        want = ref_vmm(layer, v)
        out = np.full(want.shape, np.nan,
                      order=data.draw(st.sampled_from("CF")))
        assert vmm(layer, v, out=out) is out
        assert_same_bits(out, want)

    @pytest.mark.parametrize("order", "CF")
    def test_vmm_one_signal_row(self, order):
        """The outer-product path: signed zeros, infinities and NaN through
        weights of both signs and a 0 V bias row, as ``v @ w`` gives them."""
        g = np.array([[1e-5, 1e-7, 5e-6], [1e-7, 1e-5, 5e-6]])
        layer = CrossbarLayer(g_u=g, g_l=g[::-1], grid=DeviceGrid(),
                              bias_voltage=0.0)
        assert (np.sign(layer.weights) == [[1, -1, 0], [-1, 1, 0]]).all()
        v = np.array([[-0.0], [0.0], [np.inf], [-np.inf], [np.nan], [0.4]])
        out = np.full((6, 3), 7.0, order=order)
        with np.errstate(invalid="ignore"):
            want = ref_vmm(layer, v)
            assert not np.signbit(want[:2]).any()  # matmul's 0 + v*w is +0
            assert vmm(layer, v, out=out) is out
            assert_same_bits(out, want)
            assert_same_bits(vmm(layer, v), want)

    def test_vmm_rejects_0d(self):
        """Only a 2-D batch is an input: 0-D and 1-D are refused."""
        layer = random_layer(np.random.default_rng(0), 2, 3, 0.0)
        for v in (np.array(0.5), np.array([0.5])):
            for out in (None, np.empty(3)):
                with pytest.raises(ShapeError):
                    vmm(layer, v, out=out)

    @settings(deadline=None, max_examples=300)
    @given(hnp.arrays(
        np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=32),
        elements=st.one_of(st.floats(), st.sampled_from(SPECIAL))),
        st.sampled_from([VtcParams(v_m=0.5, s=1.0 / 30.0, v_high=2.5),
                         VtcParams(v_m=0.43, s=0.07, v_high=1.9,
                                   v_low=0.2)]))
    @example(np.array(SPECIAL), VtcParams(v_m=0.5, s=1.0 / 30, v_high=2.5))
    @np.errstate(all="ignore")
    def test_vtc_eval_out_matches_allocating(self, v, p):
        want = ref_vtc(p, v)
        assert_same_bits(vtc_eval(p, v), want)
        out = np.empty_like(v)
        assert vtc_eval(p, v, out=out) is out
        assert_same_bits(out, want)
        in_place = v.copy()
        vtc_eval(p, in_place, out=in_place)
        assert_same_bits(in_place, want)


class TestLayerWeights:
    def test_computed_once_per_layer(self, monkeypatch):
        calls = []
        real = crossbar.weights_from_conductances

        def counting(layer):
            calls.append(layer)
            return real(layer)

        monkeypatch.setattr(crossbar, "weights_from_conductances", counting)
        layer = random_layer(np.random.default_rng(1), 3, 2, 2.5)
        v = np.full((5, 2), 0.4)
        first = vmm(layer, v)
        assert_same_bits(vmm(layer, v), first)
        assert layer.weights is layer.weights
        assert calls == [layer]
        np.testing.assert_array_equal(layer.weights, real(layer))

    def test_perturbed_layer_has_its_own_weights(self):
        layer = random_layer(np.random.default_rng(2), 4, 3, 2.5)
        parent = layer.weights
        child = perturb_resistances(layer, PerturbationSpec(0.2, seed=3))
        assert child.weights is not parent
        assert not np.array_equal(child.weights, parent)
        np.testing.assert_array_equal(child.weights,
                                      weights_from_conductances(child))
        np.testing.assert_array_equal(layer.weights,
                                      weights_from_conductances(layer))

    def test_conductances_and_weights_read_only(self):
        g = np.full((3, 2), 2e-6)
        layer = CrossbarLayer(g_u=g, g_l=g * 2, grid=DeviceGrid())
        assert g.flags.writeable  # the caller's array is copied, not frozen
        for arr in (layer.g_u, layer.g_l, layer.weights):
            with pytest.raises(ValueError):
                arr[0, 0] = 1e-6
