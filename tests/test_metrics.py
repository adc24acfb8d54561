"""Spectral metrics: Parseval, SNDR/ENOB, sensitivity oracle; the median."""

import statistics

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nnadc.errors import CoherenceError, ShapeError
from nnadc.metrics import (
    enob_of_codes,
    median,
    mse_to_enob_sensitivity,
    sndr_enob,
    spectrum,
    spectrum_csv_rows,
)
from nnadc.signal_core import EncodingScheme, ideal_adc

# Sine-test ENOB of an ideal M-bit quantizer (computed once with an
# independent quadrature routine; low resolutions sit below M because
# quantization error is not white there).
IDEAL_ENOB = {1: 0.756, 2: 1.859, 3: 2.945, 4: 3.988, 6: 6.012, 8: 8.012,
              10: 10.008, 12: 12.008, 14: 13.974}


def quantized_sine(m, n=4096, j=127):
    enc = EncodingScheme()
    lsb = 1.0 / (1 << m)
    k = np.arange(n)
    v = 0.5 + (0.5 - lsb / 2.0) * np.sin(2.0 * np.pi * j * k / n)
    return ideal_adc(v, m, enc)


class TestSpectrum:
    def test_parseval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4096)
        res = spectrum(x, 1.0)
        assert res.power.sum() == pytest.approx((x ** 2).mean(), abs=1e-9)

    def test_single_tone_power(self):
        n, j, a = 1024, 17, 0.4
        x = a * np.sin(2.0 * np.pi * j * np.arange(n) / n)
        res = spectrum(x, 1.0)
        assert res.power[j] == pytest.approx(a ** 2 / 2.0, abs=1e-12)
        assert res.power.sum() == pytest.approx(a ** 2 / 2.0, abs=1e-12)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ShapeError):
            spectrum(np.zeros(1000), 1.0)

    def test_bin_freqs(self):
        res = spectrum(np.zeros(256), 2.0)
        assert res.bin_freqs()[1] == pytest.approx(2.0 / 256)

    def test_csv_rows(self):
        x = np.sin(2.0 * np.pi * 3 * np.arange(64) / 64)
        rows = spectrum_csv_rows(spectrum(x, 1.0))
        assert len(rows) == 33
        assert rows[3][1] == pytest.approx(10 * np.log10(0.5), abs=1e-9)


class TestSndrEnob:
    @pytest.mark.parametrize("m", sorted(IDEAL_ENOB))
    def test_ideal_quantizer_enob(self, m):
        codes = quantized_sine(m)
        _, enob = enob_of_codes(codes, m, 1.0, 127.0 / 4096)
        assert enob == pytest.approx(IDEAL_ENOB[m], abs=0.01)

    def test_pure_tone_has_huge_sndr(self):
        n, j = 4096, 127
        x = 0.5 + 0.49 * np.sin(2.0 * np.pi * j * np.arange(n) / n)
        sndr, _ = sndr_enob(x, 1.0, j / n)
        assert sndr > 250.0

    def test_rejects_off_bin_tone(self):
        with pytest.raises(CoherenceError):
            sndr_enob(np.zeros(4096), 1.0, 0.03)

    def test_rejects_shared_factor(self):
        with pytest.raises(CoherenceError):
            sndr_enob(np.zeros(4096), 1.0, 128.0 / 4096)


class TestMseSensitivity:
    def test_zero_noise_matches_ideal(self):
        enob0 = mse_to_enob_sensitivity(8, 0.0)
        assert enob0 == pytest.approx(IDEAL_ENOB[8], abs=0.01)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_noise_low_resolution(self, m):
        enob = mse_to_enob_sensitivity(m, 0.0)
        assert enob == pytest.approx(IDEAL_ENOB[m], abs=0.01)

    def test_one_bit_ignores_residue_noise(self):
        # no stage after the first one reads its residue
        assert (mse_to_enob_sensitivity(1, 1e-2, seed=3)
                == mse_to_enob_sensitivity(1, 0.0))

    def test_monotone_in_injected_mse(self):
        enobs = [mse_to_enob_sensitivity(8, m, seed=1)
                 for m in (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)]
        assert all(a >= b - 1e-9 for a, b in zip(enobs, enobs[1:]))

    def test_large_noise_destroys_resolution(self):
        assert mse_to_enob_sensitivity(8, 1e-2, seed=2) < 5.0

    def test_rejects_negative(self):
        with pytest.raises(ShapeError):
            mse_to_enob_sensitivity(8, -1.0)


class TestMedian:
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=9))
    @example([np.inf, -np.inf])
    @example([-np.inf, 0.5, np.inf, 2.0])
    @example([1e308, 1e308])
    def test_is_statistics_median(self, values):
        """The median of 1 to 9 floats, infinities included, is
        ``statistics.median``'s, bit for bit."""
        got, want = np.float64(median(values)), np.float64(
            statistics.median(values))
        assert got.view(np.int64) == want.view(np.int64)
