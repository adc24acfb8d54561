"""Oracle tests for ideal quantization, residues, smooth codes and stimuli."""

import math

import numpy as np
import pytest

from nnadc.errors import (CoherenceError, ConfigError, ContractViolation,
                          DomainError, ShapeError)
from nnadc.metrics import sndr_enob
from nnadc.signal_core import (
    DigitalCode,
    EncodingScheme,
    LOG_THRESHOLD,
    StageSpec,
    ideal_adc,
    ideal_residue,
    ideal_stage_level,
    log_stage_level,
    log_stage_oracle,
    log_stage_residue,
    sine_stimulus,
    smooth_decode,
    smooth_decode_array,
    smooth_encode,
)


class TestStageSpec:
    def test_defaults_per_resolution(self):
        s1 = StageSpec(resolution_bits=1)
        assert (s1.smooth_width, s1.subadc_hidden, s1.residue_hidden) == (2, 3, 5)
        s2 = StageSpec(resolution_bits=2)
        assert (s2.smooth_width, s2.subadc_hidden, s2.residue_hidden) == (3, 4, 7)
        s3 = StageSpec(resolution_bits=3)
        assert (s3.smooth_width, s3.subadc_hidden, s3.residue_hidden) == (4, 6, 9)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ConfigError):
            StageSpec(resolution_bits=4)
        with pytest.raises(ConfigError):
            StageSpec(resolution_bits=0)

    def test_rejects_narrow_smooth_width(self):
        with pytest.raises(ConfigError):
            StageSpec(resolution_bits=2, smooth_width=2)

    def test_rejects_mismatched_code_table(self):
        with pytest.raises(ConfigError):      # codes narrower than S
            StageSpec(resolution_bits=1, smooth_width=3,
                      code_table=((0, 0), (1, 1)))
        with pytest.raises(ConfigError):      # one code per level
            StageSpec(resolution_bits=2, smooth_width=3,
                      code_table=((0, 0, 0), (1, 1, 1)))
        spec = StageSpec(resolution_bits=1, smooth_width=3,
                         code_table=((0, 0, 0), (1, 1, 1)))
        assert spec.codes() == ((0, 0, 0), (1, 1, 1))

    def test_code_table_adjacent_levels_differ_in_one_bit(self):
        for n in (2, 3):
            codes = StageSpec(resolution_bits=n).codes()
            assert len(codes) == 1 << n
            for a, b in zip(codes, codes[1:]):
                assert sum(x != y for x, y in zip(a, b)) == 1


class TestIdealStageLevel:
    def test_floor_convention(self):
        spec = StageSpec(resolution_bits=1)
        assert ideal_stage_level(0.49, spec) == 0
        assert ideal_stage_level(0.5, spec) == 1
        assert ideal_stage_level(1.0, spec) == 1  # clamped at full scale

    def test_monotone(self):
        spec = StageSpec(resolution_bits=3)
        v = np.linspace(0.0, 1.0, 5001)
        lvl = ideal_stage_level(v, spec)
        assert np.all(np.diff(lvl) >= 0)

    def test_domain_check(self):
        spec = StageSpec(resolution_bits=1)
        with pytest.raises(DomainError):
            ideal_stage_level(-0.1, spec)
        with pytest.raises(DomainError):
            ideal_stage_level(1.1, spec)


class TestIdealResidue:
    def test_golden_values(self):
        spec = StageSpec(resolution_bits=1)
        assert ideal_residue(0.7, 1, spec) == pytest.approx(0.4, abs=1e-12)
        assert ideal_residue(0.8, 1, spec) == pytest.approx(0.6, abs=1e-12)
        assert ideal_residue(0.0, 0, spec) == 0.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            spec = StageSpec(resolution_bits=n)
            v = rng.uniform(0.0, np.nextafter(1.0, 0.0), size=10_000)
            r = ideal_residue(v, ideal_stage_level(v, spec), spec)
            assert np.all(r >= 0.0) and np.all(r < 1.0)

    def test_rejects_mismatched_level(self):
        spec = StageSpec(resolution_bits=1)
        with pytest.raises(ContractViolation):
            ideal_residue(0.7, 0, spec)


class TestIdealAdc:
    def test_boundaries(self):
        enc = EncodingScheme()
        assert str(ideal_adc(0.0, 4, enc)) == "0000"
        assert str(ideal_adc(np.nextafter(1.0, 0.0), 4, enc)) == "1111"

    def test_matches_stage_composition(self):
        enc = EncodingScheme()
        spec = StageSpec(resolution_bits=1)
        rng = np.random.default_rng(1)
        v = rng.uniform(0.0, 1.0, size=1000)
        codes = np.zeros(v.size, dtype=int)
        r = v.copy()
        for _ in range(4):
            lvl = ideal_stage_level(r, spec)
            codes = codes * 2 + lvl
            r = np.clip(ideal_residue(r, lvl, spec), 0.0,
                        np.nextafter(1.0, 0.0))
        assert np.array_equal(codes, ideal_adc(v, 4, enc))

    def test_domain_check(self):
        with pytest.raises(DomainError):
            ideal_adc(1.5, 4, EncodingScheme())


class TestEncodingScheme:
    def test_linear_round_trip(self):
        enc = EncodingScheme("linear", 0.2, 1.4)
        t = enc.normalize(0.8)
        assert enc.denormalize(t) == pytest.approx(0.8, abs=1e-12)

    def test_logarithmic_round_trip(self):
        enc = EncodingScheme("logarithmic", 0.0, 1.0)
        v = np.linspace(0.0, 1.0, 101)
        assert enc.denormalize(enc.normalize(v)) == pytest.approx(v, abs=1e-12)

    def test_log_midpoint(self):
        enc = EncodingScheme("logarithmic", 0.0, 1.0)
        assert enc.normalize(LOG_THRESHOLD) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_range(self):
        with pytest.raises(ConfigError):
            EncodingScheme("linear", 1.0, 1.0)
        with pytest.raises(ConfigError):
            EncodingScheme("cubic", 0.0, 1.0)


class TestDigitalCode:
    def test_round_trip(self):
        for value in (0, 5, 11, 15):
            code = DigitalCode.from_value(value, 4)
            assert code.value == value
            assert len(code.bits) == 4

    def test_str(self):
        assert str(DigitalCode.from_value(11, 4)) == "1011"

    def test_rejects_overflow(self):
        with pytest.raises(DomainError):
            DigitalCode.from_value(16, 4)


class TestSmoothCodes:
    def test_known_words(self):
        assert smooth_encode(1, StageSpec(resolution_bits=1)) == (1, 1)
        assert smooth_encode(2, StageSpec(resolution_bits=2)) == (0, 1, 1)
        assert smooth_encode(0, StageSpec(resolution_bits=3)) == (0, 0, 0, 0)

    def test_round_trip_all_levels(self):
        for n in (1, 2, 3):
            spec = StageSpec(resolution_bits=n)
            for level in range(spec.n_levels):
                assert smooth_decode(smooth_encode(level, spec), spec) == level

    def test_tie_breaks_to_lower_level(self):
        spec = StageSpec(resolution_bits=2)
        # 010 is Hamming distance 1 from both 000 (level 0) and 011 (level 2)
        assert smooth_decode((0, 1, 0), spec) == 0

    def test_level_out_of_range(self):
        with pytest.raises(DomainError):
            smooth_encode(4, StageSpec(resolution_bits=2))

    def test_width_mismatch(self):
        with pytest.raises(DomainError):
            smooth_decode((0, 1), StageSpec(resolution_bits=2))

    def test_array_decode_matches_scalar(self):
        spec = StageSpec(resolution_bits=3)
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, size=(64, spec.smooth_width)).astype(float)
        got = smooth_decode_array(bits, spec)
        want = [smooth_decode(tuple(row.astype(int)), spec) for row in bits]
        assert np.array_equal(got, want)

    def test_array_decode_rejects_bad_shapes(self):
        spec = StageSpec(resolution_bits=2)
        with pytest.raises(ShapeError):
            smooth_decode_array(np.zeros(3), spec)          # 1-D
        with pytest.raises(ShapeError):
            smooth_decode_array(np.zeros((5, 2)), spec)     # too narrow
        with pytest.raises(ShapeError):
            smooth_decode_array(np.zeros((5, 4)), spec)     # too wide


class TestLogStages:
    def test_threshold_location(self):
        assert log_stage_level(LOG_THRESHOLD - 1e-12) == 0
        assert log_stage_level(LOG_THRESHOLD + 1e-12) == 1
        assert LOG_THRESHOLD == pytest.approx(math.sqrt(2.0) - 1.0)

    def test_residue_recurrence(self):
        # bit b extracted from t = log2(1+v): next t' = 2t - b
        rng = np.random.default_rng(3)
        v = rng.uniform(0.0, 1.0, size=1000)
        bit, r = log_stage_oracle(v)
        t = np.log2(1.0 + v)
        assert np.log2(1.0 + r) == pytest.approx(2.0 * t - bit, abs=1e-9)

    def test_ten_stages_equal_log_adc(self):
        enc = EncodingScheme("logarithmic", 0.0, 1.0)
        rng = np.random.default_rng(4)
        v = rng.uniform(0.0, 1.0, size=100_000)
        codes = np.zeros(v.size, dtype=np.int64)
        r = v.copy()
        for _ in range(10):
            bit = log_stage_level(r)
            codes = codes * 2 + bit
            r = np.clip(log_stage_residue(r, bit), 0.0, 1.0)
        want = ideal_adc(v, 10, enc)
        # exclude a guard band around every code boundary
        t = enc.normalize(v)
        frac = t * 1024 - np.floor(t * 1024)
        ok = (frac > 1e-9) & (frac < 1.0 - 1e-9)
        assert np.array_equal(codes[ok], want[ok])

    def test_domain_check(self):
        with pytest.raises(DomainError):
            log_stage_level(1.5)


class TestSineStimulus:
    # the builder does no validation: the record is judged where it is
    # measured, by metrics.sndr_enob
    def test_coherent_flag(self):
        def measure(tone_bin):
            stim = sine_stimulus(4096, tone_bin, 0.5, EncodingScheme(), 1.0)
            return sndr_enob(stim.samples, stim.f_s, stim.f_in)

        measure(127)
        for tone_bin in (128, 0.031 * 4096):
            with pytest.raises(CoherenceError):
                measure(tone_bin)

    def test_power_of_two_required(self):
        stim = sine_stimulus(1000, 31, 0.5, EncodingScheme(), 1.0)
        with pytest.raises(ShapeError):
            sndr_enob(stim.samples, stim.f_s, stim.f_in)

    def test_tone_on_bin(self):
        stim = sine_stimulus(64, 7, 0.25, EncodingScheme(), 1.0)
        k = np.arange(64)
        np.testing.assert_array_equal(
            stim.samples, 0.5 + 0.25 * np.sin(2.0 * np.pi * 7 * k / 64))
        assert (stim.f_in, stim.f_s) == (7 / 64, 1.0)

    def test_denormalized_through_encoding(self):
        enc = EncodingScheme(kind="logarithmic", v_min=0.1, v_max=0.9)
        stim = sine_stimulus(256, 17, 0.4, enc, 1.0)
        want = sine_stimulus(256, 17, 0.4, EncodingScheme(), 1.0).samples
        np.testing.assert_array_equal(stim.samples, enc.denormalize(want))

    def test_clipping(self):
        enc = EncodingScheme(v_min=-0.5, v_max=1.5)
        stim = sine_stimulus(64, 7, 0.5, enc, 1.0)
        assert stim.samples.min() == 0.0 and stim.samples.max() == 1.0
