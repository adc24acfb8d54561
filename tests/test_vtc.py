"""Inverter transfer-curve model and Monte Carlo families."""

import numpy as np
import pytest

from nnadc.errors import ConfigError
from nnadc.vtc import (
    VariationSpec,
    VtcParams,
    default_family,
    nominal_vtc,
    sample_family,
    vtc_eval,
)


class TestVtcEval:
    def test_midpoint(self):
        p = VtcParams(v_m=0.75, s=0.05, v_high=1.5, v_low=0.0)
        assert vtc_eval(p, 0.75) == pytest.approx(0.75, abs=1e-12)

    def test_one_scale_offsets(self):
        # logistic(+-1) arithmetic at v_m +- s
        p = VtcParams(v_m=0.75, s=0.05, v_high=1.5, v_low=0.0)
        assert vtc_eval(p, 0.70) == pytest.approx(0.75 + 0.3465, abs=5e-4)
        assert vtc_eval(p, 0.80) == pytest.approx(0.75 - 0.3465, abs=5e-4)

    def test_rail_saturation(self):
        p = VtcParams(v_m=0.5, s=0.02, v_high=1.0, v_low=0.1)
        assert vtc_eval(p, -100.0) == pytest.approx(1.0, abs=1e-9)
        assert vtc_eval(p, 100.0) == pytest.approx(0.1, abs=1e-9)

    def test_monotone_decreasing_random_params(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = VtcParams(v_m=rng.uniform(0.2, 1.0), s=rng.uniform(0.01, 0.2),
                          v_high=rng.uniform(1.0, 2.0), v_low=0.0)
            v = np.linspace(-1.0, 3.0, 2000)
            out = vtc_eval(p, v)
            assert np.all(np.diff(out) <= 0)
            # strict within the transition region (rails saturate in floats)
            trans = np.linspace(p.v_m - 10 * p.s, p.v_m + 10 * p.s, 500)
            assert np.all(np.diff(vtc_eval(p, trans)) < 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            VtcParams(v_m=0.5, s=0.0, v_high=1.0)
        with pytest.raises(ConfigError):
            VtcParams(v_m=0.5, s=0.1, v_high=0.0, v_low=0.5)


class TestFamilies:
    def test_nominal_parameters(self):
        nom = nominal_vtc(1.0)
        assert nom.v_m == pytest.approx(0.5)
        assert nom.s == pytest.approx(1.0 / 30.0)
        assert nom.v_low == 0.0
        assert nom.v_high > 1.0  # rail above the signal full-scale

    def test_sample_std(self):
        nom = nominal_vtc(1.0)
        fam = sample_family(100, VariationSpec(v_m_std=0.03, s_rel_std=0.0),
                            seed=3, nominal=nom)
        vm = np.array([p.v_m for p in fam.members])
        assert 0.03 * 0.8 < vm.std() < 0.03 * 1.2

    def test_deterministic_per_seed(self):
        nom = nominal_vtc(1.0)
        var = VariationSpec(v_m_std=0.02, s_rel_std=0.1)
        a = sample_family(10, var, seed=5, nominal=nom)
        b = sample_family(10, var, seed=5, nominal=nom)
        assert a.members == b.members
        c = sample_family(10, var, seed=6, nominal=nom)
        assert a.members != c.members

    def test_scales_positive(self):
        nom = nominal_vtc(1.0)
        fam = sample_family(500, VariationSpec(v_m_std=0.0, s_rel_std=0.9),
                            seed=7, nominal=nom)
        assert all(p.s > 0 for p in fam.members)

    def test_default_family_size_and_spread(self):
        fam = default_family(1.0, n=100, seed=11)
        assert len(fam) == 100
        vm = np.array([p.v_m for p in fam.members])
        assert 0.02 * 0.7 < vm.std() < 0.02 * 1.3

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigError):
            sample_family(0, VariationSpec(), 0, nominal_vtc(1.0))

    def test_as_arrays(self):
        fam = default_family(1.0, n=7, seed=1)
        arrays = fam.as_arrays()
        assert all(a.shape == (7,) for a in arrays)
        # built once per family, and shared, so nobody may write to them
        assert fam.as_arrays() is arrays
        for arr, name in zip(arrays, ("v_m", "s", "v_high", "v_low")):
            np.testing.assert_array_equal(
                arr, [getattr(p, name) for p in fam.members])
            with pytest.raises(ValueError):
                arr[0] = 0.0
