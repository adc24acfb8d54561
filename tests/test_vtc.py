"""Inverter transfer-curve model and Monte Carlo families."""

import dataclasses

import numpy as np
import pytest

from nnadc.errors import ConfigError
from nnadc.vtc import (
    VariationSpec,
    VtcFamily,
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
        assert 0.03 * 0.8 < fam.v_m.std() < 0.03 * 1.2

    def test_deterministic_per_seed(self):
        nom = nominal_vtc(1.0)
        var = VariationSpec(v_m_std=0.02, s_rel_std=0.1)
        a = sample_family(10, var, seed=5, nominal=nom)
        b = sample_family(10, var, seed=5, nominal=nom)
        np.testing.assert_array_equal(a.v_m, b.v_m)
        np.testing.assert_array_equal(a.s, b.s)
        c = sample_family(10, var, seed=6, nominal=nom)
        assert not np.array_equal(a.v_m, c.v_m)
        assert not np.array_equal(a.s, c.s)

    def test_scales_positive(self):
        nom = nominal_vtc(1.0)
        fam = sample_family(500, VariationSpec(v_m_std=0.0, s_rel_std=0.9),
                            seed=7, nominal=nom)
        assert (fam.s > 0).all()

    def test_default_family_size_and_spread(self):
        fam = default_family(1.0, n=100, seed=11)
        assert len(fam) == 100
        assert 0.02 * 0.7 < fam.v_m.std() < 0.02 * 1.3

    @pytest.mark.parametrize("spread", [
        {"v_m_std": -0.01}, {"s_rel_std": -0.1}, {"v_m_std": np.nan},
        {"s_rel_std": np.inf}])
    def test_bad_spread_rejected(self, spread):
        with pytest.raises(ConfigError, match="spreads"):
            VariationSpec(**spread)

    def test_empty_family_rejected(self):
        with pytest.raises(ConfigError):
            sample_family(0, VariationSpec(), 0, nominal_vtc(1.0))

    @pytest.mark.parametrize("v_m, s", [
        ([0.5, 0.5], [0.03]), ([], []), ([[0.5]], [[0.03]])])
    def test_unequal_or_empty_rejected(self, v_m, s):
        with pytest.raises(ConfigError, match="family size must be at least 1"):
            VtcFamily(v_m=v_m, s=s, nominal=nominal_vtc(1.0))

    def test_arrays_read_only(self):
        """The family is its two arrays, each a read-only copy; every
        member shares the nominal rails."""
        v_m, s = [0.5, 0.48, 0.52], [0.03, 0.04, 0.035]
        fam = VtcFamily(v_m=v_m, s=s, nominal=nominal_vtc(1.0))
        assert len(fam) == 3
        assert [f.name for f in dataclasses.fields(fam)] == [
            "v_m", "s", "nominal"]
        for arr, want in ((fam.v_m, v_m), (fam.s, s)):
            np.testing.assert_array_equal(arr, want)
            assert arr.dtype == float
            with pytest.raises(ValueError):
                arr[0] = 0.0
        src = np.array(v_m)
        fam = VtcFamily(v_m=src, s=s, nominal=nominal_vtc(1.0))
        src[0] = 9.0
        assert fam.v_m[0] == 0.5
