import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddcap import (
    DimensionMismatchError,
    PeriodicSignal,
    canonicalize_phase,
    evaluate_field,
    intensity_grid,
    phase_distance,
    random_signal,
    resample_real_periodic,
    samples_to_spectrum,
    spectrum_to_samples,
)
from ddcap.signals import SpectralPoly

from conftest import random_coeff_signal, signal_from_coeffs


def dft_direct(samples):
    """Direct summation F_k = (1/M) sum_n E_n exp(+2 pi i k n / M)."""
    M = len(samples)
    k = np.arange(M)[:, None]
    n = np.arange(M)[None, :]
    return (np.exp(2j * np.pi * k * n / M) @ samples) / M


class TestSpectrumPair:
    def test_constant_signal_is_dc_only(self):
        sig = PeriodicSignal(M=2, B=1.0, samples=[1, 1])
        spec = samples_to_spectrum(sig)
        assert np.allclose(spec.coeffs, [1, 0], atol=1e-15)

    def test_impulse_spreads_uniformly(self):
        sig = PeriodicSignal(M=4, B=1.0, samples=[1, 0, 0, 0])
        spec = samples_to_spectrum(sig)
        assert np.allclose(spec.coeffs, [0.25] * 4, atol=1e-15)

    def test_single_tone_against_direct_summation(self):
        M, B = 4, 1.0
        omega = 2 * np.pi * B / M
        t = np.arange(M) / B
        sig = PeriodicSignal(M=M, B=B, samples=np.exp(-1j * omega * t))
        spec = samples_to_spectrum(sig)
        assert np.allclose(spec.coeffs, [0, 1, 0, 0], atol=1e-14)
        assert np.allclose(spec.coeffs, dft_direct(sig.samples), atol=1e-14)

    def test_constant_coefficient_gives_constant_samples(self):
        c = 0.7 - 0.2j
        sig = signal_from_coeffs([c, 0, 0])
        assert np.allclose(sig.samples, c)

    def test_tone_coefficient_gives_complex_exponential(self):
        sig = signal_from_coeffs([0, 1, 0, 0])
        assert np.allclose(sig.samples, np.exp(-2j * np.pi * np.arange(4) / 4))

    def test_roundtrip_on_random_signals(self, rng):
        for _ in range(100):
            M = int(rng.integers(1, 40))
            sig = random_coeff_signal(rng, M)
            back = spectrum_to_samples(samples_to_spectrum(sig))
            scale = np.max(np.abs(sig.samples))
            assert np.max(np.abs(back.samples - sig.samples)) < 1e-12 * scale


class TestEvaluateField:
    def test_matches_samples_on_grid(self, rng):
        sig = random_coeff_signal(rng, 9, B=2.5)
        spec = samples_to_spectrum(sig)
        t = np.arange(9) / 2.5
        assert np.max(np.abs(evaluate_field(spec, t) - sig.samples)) < 1e-12

    def test_periodicity(self, rng):
        sig = random_coeff_signal(rng, 6, B=0.5)
        spec = samples_to_spectrum(sig)
        t = rng.uniform(0, sig.period, size=32)
        assert np.max(np.abs(evaluate_field(spec, t) - evaluate_field(spec, t + sig.period))) < 1e-12

    def test_constant(self):
        spec = samples_to_spectrum(signal_from_coeffs([3.0 + 1j, 0, 0, 0, 0]))
        assert abs(evaluate_field(spec, 0.7231) - (3.0 + 1j)) < 1e-12

    def test_agrees_with_explicit_polynomial(self, rng):
        sig = random_coeff_signal(rng, 7)
        spec = samples_to_spectrum(sig)
        t = rng.uniform(-3, 3, size=16)
        z = np.exp(-1j * spec.omega * t)
        explicit = sum(spec.coeffs[k] * z**k for k in range(7))
        assert np.max(np.abs(evaluate_field(spec, t) - explicit)) < 1e-12


class TestIntensityGrid:
    def test_constant(self):
        grid = intensity_grid(signal_from_coeffs([2j, 0, 0]), oversample=4)
        assert np.allclose(grid.values, 4.0)
        assert grid.rate == 4.0

    def test_even_indices_are_sample_intensities(self, rng):
        sig = random_coeff_signal(rng, 4)
        grid = intensity_grid(sig, oversample=2)
        assert np.allclose(grid.values[::2], np.abs(sig.samples) ** 2, atol=1e-14)

    def test_rejects_sub_nyquist(self, rng):
        with pytest.raises(ValueError, match="oversample"):
            intensity_grid(random_coeff_signal(rng, 4), oversample=1)

    def test_rate_2B_grid_determines_the_waveform(self, rng):
        # reconstructing the rate-8B grid from the rate-2B samples by
        # trigonometric interpolation must match direct evaluation
        sig = random_coeff_signal(rng, 5)
        coarse = intensity_grid(sig, oversample=2)
        fine = intensity_grid(sig, oversample=8)
        recon = resample_real_periodic(coarse.values, 4 * len(coarse.values))
        assert np.max(np.abs(recon - fine.values)) < 1e-10 * fine.values.max()

    def test_intensity_band_limited_to_2B(self, rng):
        # harmonics of the rate-4B intensity grid outside -M..M are numerical noise
        M = 7
        sig = random_coeff_signal(rng, M)
        vals = intensity_grid(sig, oversample=4).values
        harm = np.fft.ifft(vals)
        inband = np.zeros(len(harm), dtype=bool)
        inband[: M + 1] = True
        inband[-M:] = True
        assert np.max(np.abs(harm[~inband])) < 1e-10 * np.max(np.abs(harm))


class TestParseval:
    @pytest.mark.parametrize("M", [2, 3, 8, 37, 128, 256])
    def test_period_average_power_equals_coefficient_energy(self, rng, M):
        sig = random_coeff_signal(rng, M)
        spec = samples_to_spectrum(sig)
        assert abs(sig.power() - spec.power()) < 1e-12 * max(sig.power(), 1.0)


class TestPhaseDistance:
    def test_global_phase_is_invisible(self, rng):
        sig = random_coeff_signal(rng, 6)
        rotated = PeriodicSignal(M=6, B=1.0, samples=sig.samples * np.exp(1.234j))
        assert phase_distance(sig, rotated) < 1e-13 * sig.power()

    def test_scaling_example(self):
        # unit-power signal vs its double: 1 + 4 - 2*2 = 1
        sig = signal_from_coeffs([1.0, 0, 0])
        double = signal_from_coeffs([2.0, 0, 0])
        assert abs(phase_distance(sig, double) - 1.0) < 1e-14

    def test_orthogonal_tones(self):
        a = signal_from_coeffs([1, 0, 0, 0])
        b = signal_from_coeffs([0, 1, 0, 0])
        assert abs(phase_distance(a, b) - 2.0) < 1e-14

    def test_symmetry(self, rng):
        a, b = random_coeff_signal(rng, 5), random_coeff_signal(rng, 5)
        assert phase_distance(a, b) == pytest.approx(phase_distance(b, a), abs=1e-14)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            phase_distance(random_coeff_signal(rng, 4), random_coeff_signal(rng, 5))

    def test_triangle_inequality_on_random_triples(self, rng):
        # phase_distance is a squared energy (its examples fix that scale), so
        # the pseudometric proper is its square root; test that, 1e-9 slack
        for _ in range(200):
            a, b, c = (random_coeff_signal(rng, 6) for _ in range(3))
            d = lambda x, y: np.sqrt(phase_distance(x, y))
            assert d(a, c) <= d(a, b) + d(b, c) + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
    def test_sqrt_is_a_metric_at_any_scale(self, seed, sa, sc):
        # the quotient metric proper is the square root of phase_distance;
        # it obeys the triangle inequality for arbitrary relative scalings
        g = np.random.default_rng(seed)
        a, b, c = (random_coeff_signal(g, 4) for _ in range(3))
        a = PeriodicSignal(M=4, B=1.0, samples=a.samples * sa)
        c = PeriodicSignal(M=4, B=1.0, samples=c.samples * sc)
        d = lambda x, y: np.sqrt(phase_distance(x, y))
        assert d(a, c) <= d(a, b) + d(b, c) + 1e-9


class TestCanonicalizePhase:
    def test_already_canonical_is_unchanged(self, rng):
        sig = canonicalize_phase(random_coeff_signal(rng, 5))
        again = canonicalize_phase(sig)
        assert np.max(np.abs(again.samples - sig.samples)) < 1e-14

    def test_rotation_is_removed(self, rng):
        sig = canonicalize_phase(random_coeff_signal(rng, 5))
        rotated = PeriodicSignal(M=5, B=1.0, samples=sig.samples * np.exp(1.3j))
        assert np.max(np.abs(canonicalize_phase(rotated).samples - sig.samples)) < 1e-13

    def test_idempotent(self, rng):
        for _ in range(20):
            sig = random_coeff_signal(rng, int(rng.integers(1, 12)))
            once = canonicalize_phase(sig)
            twice = canonicalize_phase(once)
            assert np.max(np.abs(twice.samples - once.samples)) < 1e-14
        assert phase_distance(sig, once) < 1e-12

    def test_rejects_zero_signal(self):
        with pytest.raises(ValueError, match="zero"):
            canonicalize_phase(PeriodicSignal(M=3, B=1.0, samples=[0, 0, 0]))


class TestValidation:
    def test_nonfinite_samples_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PeriodicSignal(M=2, B=1.0, samples=[np.nan, 1.0])

    def test_eff_degree(self):
        spec = SpectralPoly(coeffs=[1.0, 0.5, 1e-14, 0], M=4, B=1.0)
        assert spec.eff_degree == 1
        assert SpectralPoly(coeffs=[0, 0], M=2, B=1.0).eff_degree == -1

    def test_random_signal_seeding(self):
        a = random_signal(6, seed=9)
        b = random_signal(6, seed=9)
        assert np.array_equal(a.samples, b.samples)
