"""Pipeline chaining: golden vectors, oracle equivalence, Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nnadc.crossbar import PerturbationSpec, perturb_resistances
from nnadc.dse import MAX_RESO
from nnadc.errors import ConfigError
from nnadc.metrics import enob_of_codes
from nnadc.pipeline import (
    IdealStage,
    McEvalSpec,
    PipelineConfig,
    convert,
    monte_carlo_eval,
    perturbed_pipeline,
    perturbed_stage,
    reconstruct,
    simulate_stage,
    stage_levels,
)
from nnadc.signal_core import (
    EncodingScheme,
    StageSpec,
    ideal_adc,
    sine_stimulus,
)

VDD = 1.0
ENC = EncodingScheme()


def sine_enob(p, stim, mode):
    codes = convert(p, stim.samples, mode)
    return enob_of_codes(codes, p.reso, stim.f_s, stim.f_in)[1]


def ideal_pipeline(composition, enc=ENC, vdd=VDD):
    return PipelineConfig(
        stages=tuple(IdealStage(StageSpec(resolution_bits=n, vdd=vdd), enc)
                     for n in composition),
        enc=enc)


class TestGoldenVector:
    def test_four_one_bit_stages(self):
        p = ideal_pipeline((1, 1, 1, 1))
        assert convert(p, 0.7, mode="ideal").tolist() == [0b1011]

    def test_intermediate_residues(self):
        residues = []
        v = 0.7
        stage = IdealStage(StageSpec(resolution_bits=1, vdd=VDD), ENC)
        for _ in range(3):
            _, v = simulate_stage(stage, v, mode="ideal")
            residues.append(v)
        assert residues == pytest.approx([0.4, 0.8, 0.6], abs=1e-12)


class TestIdealEquivalence:
    @pytest.mark.parametrize("comp", [(1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 2),
                                      "trained"])
    def test_matches_flat_quantizer(self, comp, request):
        if comp == "trained":  # ideal mode swaps in each stage's oracles
            p = PipelineConfig(
                stages=(request.getfixturevalue("tiny_stage"),) * 4, enc=ENC)
        else:
            p = ideal_pipeline(comp)
        reso = p.reso
        rng = np.random.default_rng(0)
        v = rng.uniform(0.0, VDD, size=20_000)
        # keep clear of code-boundary float ties
        guard = 1e-9 * VDD
        edges = np.round(v * (1 << reso)) / (1 << reso)
        v = v[np.abs(v - edges) > guard]
        got = convert(p, v, mode="ideal")
        want = ideal_adc(v, reso, ENC)
        np.testing.assert_array_equal(got, want)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=8)
           .filter(lambda comp: sum(comp) <= MAX_RESO),
           hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(0.0, VDD)))
    def test_any_composition_matches_flat_quantizer(self, comp, v):
        reso = sum(comp)
        # drop float near-ties at a code boundary; the boundaries
        # themselves are exact and stay
        edges = np.round(v * (1 << reso)) / (1 << reso)
        v = v[(v == edges) | (np.abs(v - edges) > 1e-9 * VDD)]
        np.testing.assert_array_equal(convert(ideal_pipeline(comp), v,
                                              mode="ideal"),
                                      ideal_adc(v, reso, ENC))

    def test_mixed_with_terminal_subadc(self):
        p = ideal_pipeline((1, 2, 3))
        v = (np.arange(997) + 0.5) / 997.0
        np.testing.assert_array_equal(convert(p, v, mode="ideal"),
                                      ideal_adc(v, 6, ENC))

    def test_logarithmic_chain(self):
        enc = EncodingScheme(kind="logarithmic")
        p = ideal_pipeline((1,) * 10, enc=enc)
        v = (np.arange(4097) + 0.5) / 4098.0
        np.testing.assert_array_equal(convert(p, v, mode="ideal"),
                                      ideal_adc(v, 10, enc))


class TestPipelineConfig:
    def test_reso_sums_stages(self):
        assert ideal_pipeline((1, 2, 3)).reso == 6

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            PipelineConfig(stages=(), enc=ENC)

    def test_rejects_over_max_reso(self):
        with pytest.raises(ConfigError):
            ideal_pipeline((3,) * 6)

    def test_unknown_mode(self):
        p = ideal_pipeline((1, 1))
        with pytest.raises(ConfigError, match="unknown simulation mode"):
            convert(p, np.array([0.5]), mode="spice")
        with pytest.raises(ConfigError, match="unknown simulation mode"):
            stage_levels(p.stages[0], np.array([0.5]), mode="spice")


class TestReconstruct:
    def test_midpoint_linear(self):
        assert reconstruct(0b1011, ENC, width=4) == pytest.approx(11.5 / 16)
        assert reconstruct(5, ENC, width=4) == pytest.approx(5.5 / 16)

    def test_round_trip_within_lsb(self):
        p = ideal_pipeline((2, 2))
        rng = np.random.default_rng(1)
        v = rng.uniform(0, 1, size=50)
        rec = reconstruct(convert(p, v, mode="ideal"), ENC, width=4)
        assert np.all(np.abs(rec - v) <= 1.0 / 16)


class TestIdealEnob:
    def test_eight_bit_sine(self):
        p = ideal_pipeline((1,) * 8)
        lsb = 1.0 / 256
        stim = sine_stimulus(4096, 127, 0.5 - lsb / 2, ENC, VDD)
        assert sine_enob(p, stim, "ideal") == pytest.approx(8.012, abs=0.01)


@pytest.fixture()
def tiny_trained_pipeline(tiny_stage):
    return PipelineConfig(stages=(tiny_stage,) * 2, enc=ENC)


class TestBehavioral:
    def test_behavioral_runs_and_codes_in_range(self, tiny_trained_pipeline):
        codes = convert(tiny_trained_pipeline, np.linspace(0, 1, 64),
                        mode="behavioral")
        assert codes.min() >= 0 and codes.max() < 4

    def test_behavioral_rejects_ideal_stage(self):
        p = ideal_pipeline((1, 1))
        with pytest.raises(ConfigError, match="trained stage"):
            convert(p, np.array([0.3]), mode="behavioral")
        with pytest.raises(ConfigError, match="trained stage"):
            stage_levels(p.stages[0], np.array([0.3]), need_residue=True)

    def test_perturbation_sigma_zero_identity(self, tiny_trained_pipeline):
        p = tiny_trained_pipeline
        assert perturbed_pipeline(p, 0.0, seed=1) is p

    def test_one_sub_seed_per_layer(self, tiny_trained_pipeline):
        # stage by stage, sub-ADC layers first, one draw from the run's rng
        p = tiny_trained_pipeline
        rng = np.random.default_rng(9)
        want = [perturb_resistances(l, PerturbationSpec(
                    sigma=0.05, seed=int(rng.integers(2 ** 31))))
                for s in p.stages
                for l in (*s.subadc_layers, *s.residue_layers)]
        rng = np.random.default_rng(9)
        for got in (perturbed_pipeline(p, 0.05, seed=9).stages,
                    [perturbed_stage(s, 0.05, rng) for s in p.stages]):
            layers = [l for s in got
                      for l in (*s.subadc_layers, *s.residue_layers)]
            for a, b in zip(layers, want, strict=True):
                np.testing.assert_array_equal(a.g_u, b.g_u)
                np.testing.assert_array_equal(a.g_l, b.g_l)

    def test_perturbation_deterministic_and_pure(self, tiny_trained_pipeline):
        p = tiny_trained_pipeline
        g_before = p.stages[0].subadc_layers[0].g_u.copy()
        a = perturbed_pipeline(p, 0.05, seed=9)
        b = perturbed_pipeline(p, 0.05, seed=9)
        c = perturbed_pipeline(p, 0.05, seed=10)
        np.testing.assert_array_equal(a.stages[0].subadc_layers[0].g_u,
                                      b.stages[0].subadc_layers[0].g_u)
        assert not np.array_equal(a.stages[0].subadc_layers[0].g_u,
                                  c.stages[0].subadc_layers[0].g_u)
        np.testing.assert_array_equal(p.stages[0].subadc_layers[0].g_u,
                                      g_before)

    def test_monte_carlo_sigma_zero_deterministic(self,
                                                  tiny_trained_pipeline):
        p = tiny_trained_pipeline
        stim = sine_stimulus(256, 17, 0.49, ENC, VDD)
        mc = McEvalSpec(runs=3, sigma=0.0, seed=0)
        summary = monte_carlo_eval(p, mc, stim)
        ref = sine_enob(p, stim, "behavioral")
        for e in summary.enobs:
            assert e == ref or (np.isnan(e) and np.isnan(ref))

    def test_mc_spec_validation(self):
        with pytest.raises(ConfigError):
            McEvalSpec(runs=0)
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ConfigError):
                McEvalSpec(sigma=sigma)
