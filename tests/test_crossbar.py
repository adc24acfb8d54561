"""Differential crossbar model: weights, quantization, instantiation."""

import numpy as np
import pytest

from nnadc.crossbar import (
    CrossbarLayer,
    DeviceGrid,
    PerturbationSpec,
    instantiate_conductances,
    perturb_resistances,
    quantize_weight,
    vmm,
    weights_from_conductances,
)
from nnadc.errors import DeviceError, PrecisionError, ShapeError

SPEC_GRID = DeviceGrid(g_off=1e-6, g_on=8e-6, precision_bits=3)


class TestDeviceGrid:
    def test_level_endpoints(self):
        assert SPEC_GRID.level(0) == pytest.approx(1e-6)
        assert SPEC_GRID.level(7) == pytest.approx(8e-6)

    def test_evenly_spaced(self):
        lv = SPEC_GRID.level(np.arange(8))
        assert np.diff(lv) == pytest.approx(np.full(7, 1e-6))

    def test_w_max(self):
        assert SPEC_GRID.w_max(3) == pytest.approx(7.0 / 27.0)

    def test_weight_levels_symmetric_no_zero(self):
        lv = SPEC_GRID.weight_levels(3)
        assert lv.size == 8
        assert lv == pytest.approx(-lv[::-1])
        assert np.abs(lv).min() > 0

    def test_validation(self):
        with pytest.raises(DeviceError):
            DeviceGrid(g_off=0.0, g_on=1e-6)
        with pytest.raises(DeviceError):
            DeviceGrid(g_off=2e-6, g_on=1e-6)
        with pytest.raises(DeviceError):
            DeviceGrid(precision_bits=8)


class TestWeightsFromConductances:
    def test_symmetric_pairs_give_zero(self):
        g = np.full((3, 2), 5e-6)
        layer = CrossbarLayer(g_u=g, g_l=g, grid=SPEC_GRID)
        w = weights_from_conductances(layer)
        assert w == pytest.approx(np.zeros((3, 2)))

    def test_direct_arithmetic(self):
        g_u = np.array([[200e-6], [100e-6]])
        g_l = np.array([[100e-6], [100e-6]])
        layer = CrossbarLayer(g_u=g_u, g_l=g_l, grid=SPEC_GRID)
        w = weights_from_conductances(layer)
        assert w[:, 0] == pytest.approx([0.2, 0.0])

    def test_column_sum_below_one(self):
        # worst case: every complementary pair at an extreme level
        g_u = np.full((3, 1), SPEC_GRID.g_on)
        g_l = np.full((3, 1), SPEC_GRID.g_off)
        layer = CrossbarLayer(g_u=g_u, g_l=g_l, grid=SPEC_GRID)
        w = weights_from_conductances(layer)
        assert np.abs(w).sum() == pytest.approx(21.0 / 27.0)
        assert np.abs(w).sum() < 1.0

    def test_rejects_non_positive(self):
        with pytest.raises(DeviceError):
            CrossbarLayer(g_u=np.zeros((2, 1)), g_l=np.ones((2, 1)) * 1e-6,
                          grid=SPEC_GRID)


class TestVmm:
    def test_dot_product(self):
        g_u = np.array([[200e-6], [100e-6], [100e-6]])
        g_l = np.array([[100e-6], [100e-6], [100e-6]])
        layer = CrossbarLayer(g_u=g_u, g_l=g_l, grid=SPEC_GRID)
        sums = (g_u + g_l).sum()
        w0 = 100e-6 / sums
        out = vmm(layer, np.array([1.0, 0.7]))
        assert out == pytest.approx([w0])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(5)
        g_u = rng.uniform(1e-6, 8e-6, size=(6, 4))
        g_l = rng.uniform(1e-6, 8e-6, size=(6, 4))
        layer = CrossbarLayer(g_u=g_u, g_l=g_l, grid=SPEC_GRID,
                              bias_voltage=1.2)
        v = rng.uniform(0.0, 1.0, size=5)
        w = weights_from_conductances(layer)
        want = [sum(w[k, j] * v[k] for k in range(5)) + w[5, j] * 1.2
                for j in range(4)]
        assert vmm(layer, v) == pytest.approx(want, abs=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(6)
        g_u = rng.uniform(1e-6, 8e-6, size=(4, 3))
        g_l = rng.uniform(1e-6, 8e-6, size=(4, 3))
        layer = CrossbarLayer(g_u=g_u, g_l=g_l, grid=SPEC_GRID)
        x = rng.uniform(0.0, 1.0, size=3)
        y = rng.uniform(0.0, 1.0, size=3)
        lhs = vmm(layer, 0.3 * x + 0.6 * y, v_bias=0.0)
        rhs = 0.3 * vmm(layer, x, v_bias=0.0) + 0.6 * vmm(layer, y, v_bias=0.0)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_batched(self):
        rng = np.random.default_rng(7)
        g_u = rng.uniform(1e-6, 8e-6, size=(4, 2))
        g_l = rng.uniform(1e-6, 8e-6, size=(4, 2))
        layer = CrossbarLayer(g_u=g_u, g_l=g_l, grid=SPEC_GRID)
        batch = rng.uniform(0.0, 1.0, size=(10, 3))
        out = vmm(layer, batch)
        assert out.shape == (10, 2)
        assert out[3] == pytest.approx(vmm(layer, batch[3]))

    def test_shape_check(self):
        layer = CrossbarLayer(g_u=np.full((3, 1), 2e-6),
                              g_l=np.full((3, 1), 2e-6), grid=SPEC_GRID)
        with pytest.raises(ShapeError):
            vmm(layer, np.array([1.0, 0.5, 0.2]))


class TestQuantizeWeight:
    def test_zero_rounds_to_smallest_positive(self):
        wm = SPEC_GRID.w_max(3)
        assert quantize_weight(0.0, SPEC_GRID, 3) == pytest.approx(wm / 7.0)

    def test_known_value(self):
        assert quantize_weight(0.2, SPEC_GRID, 3) == pytest.approx(5.0 / 27.0)

    def test_clips_to_extreme(self):
        wm = SPEC_GRID.w_max(3)
        assert quantize_weight(10.0 * wm, SPEC_GRID, 3) == pytest.approx(wm)
        assert quantize_weight(-10.0 * wm, SPEC_GRID, 3) == pytest.approx(-wm)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(-1.0, 1.0, size=100)
        q1 = quantize_weight(w, SPEC_GRID, 4)
        assert quantize_weight(q1, SPEC_GRID, 4) == pytest.approx(q1, abs=0)

    def test_output_on_level_set(self):
        rng = np.random.default_rng(9)
        for ar in range(1, 8):
            grid = DeviceGrid(g_off=1e-6, g_on=8e-6, precision_bits=ar)
            q = quantize_weight(rng.uniform(-1, 1, size=50), grid, 3)
            levels = grid.weight_levels(3)
            assert np.all(np.isclose(q[:, None], levels[None, :],
                                     atol=1e-15).any(axis=1))


class TestInstantiateConductances:
    def test_extreme_weight_pair(self):
        wm = SPEC_GRID.w_max(1)
        layer = instantiate_conductances(np.array([[wm]]), SPEC_GRID)
        assert layer.g_u[0, 0] == pytest.approx(SPEC_GRID.g_on)
        assert layer.g_l[0, 0] == pytest.approx(SPEC_GRID.g_off)

    def test_near_zero_weight_pair(self):
        wm = SPEC_GRID.w_max(3)
        w = np.full((3, 1), wm / 7.0)
        layer = instantiate_conductances(w, SPEC_GRID)
        assert layer.g_u[0, 0] == pytest.approx(5e-6)
        assert layer.g_l[0, 0] == pytest.approx(4e-6)

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            h = int(rng.integers(2, 7))
            m = int(rng.integers(1, 5))
            w = quantize_weight(rng.uniform(-1, 1, size=(h, m)), SPEC_GRID, h)
            layer = instantiate_conductances(w, SPEC_GRID)
            got = weights_from_conductances(layer)
            assert got == pytest.approx(w, rel=1e-12, abs=1e-15)

    def test_complementary_invariant(self):
        w = quantize_weight(np.random.default_rng(11).uniform(-1, 1, (4, 2)),
                            SPEC_GRID, 4)
        layer = instantiate_conductances(w, SPEC_GRID)
        total = SPEC_GRID.g_on + SPEC_GRID.g_off
        assert layer.g_u + layer.g_l == pytest.approx(np.full((4, 2), total))

    def test_rejects_off_grid(self):
        with pytest.raises(PrecisionError):
            instantiate_conductances(np.array([[0.123]]), SPEC_GRID)

    def test_column_sum_constraint_exhaustive(self):
        # every extreme-level assignment at small H stays below Σ|W| = 1
        for ar in (1, 2, 3):
            grid = DeviceGrid(g_off=1e-6, g_on=8e-6, precision_bits=ar)
            levels = grid.weight_levels(2)
            for a in levels:
                for b in levels:
                    layer = instantiate_conductances(
                        np.array([[a], [b]]), grid)
                    w = weights_from_conductances(layer)
                    assert np.abs(w).sum() < 1.0


class TestPerturbResistances:
    def test_sigma_zero_identity(self):
        layer = instantiate_conductances(
            quantize_weight(np.array([[0.1], [0.05]]), SPEC_GRID, 2),
            SPEC_GRID)
        assert perturb_resistances(layer, PerturbationSpec(0.0, 1)) is layer

    def test_known_resistance_scaling(self):
        # R = 10 kOhm with theta = 0.05 becomes 10.513 kOhm
        assert 10e3 * np.exp(0.05) == pytest.approx(10513.0, abs=1.0)

    def test_statistics(self):
        g = np.full((200, 500), 5e-6)
        layer = CrossbarLayer(g_u=g, g_l=g, grid=SPEC_GRID)
        pert = perturb_resistances(layer, PerturbationSpec(0.05, 42))
        log_ratio = np.log((1.0 / pert.g_u) / (1.0 / layer.g_u))
        assert log_ratio.std() == pytest.approx(0.05, abs=0.002)
        assert log_ratio.mean() == pytest.approx(0.0, abs=0.001)

    def test_seed_reproducible(self):
        g = np.full((3, 3), 5e-6)
        layer = CrossbarLayer(g_u=g, g_l=g, grid=SPEC_GRID)
        a = perturb_resistances(layer, PerturbationSpec(0.1, 7))
        b = perturb_resistances(layer, PerturbationSpec(0.1, 7))
        assert np.array_equal(a.g_u, b.g_u)
        assert np.array_equal(a.g_l, b.g_l)

    def test_independent_per_device(self):
        g = np.full((50, 50), 5e-6)
        layer = CrossbarLayer(g_u=g, g_l=g, grid=SPEC_GRID)
        pert = perturb_resistances(layer, PerturbationSpec(0.1, 8))
        assert np.unique(pert.g_u).size > 2000
