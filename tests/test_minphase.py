import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddcap import (
    IntensityNotRealizableError,
    evaluate_field,
    find_zeros,
    intensity_grid,
    min_phase_from_intensity,
    min_phase_member,
    periodic_hilbert,
    phase_distance,
    random_signal,
    samples_to_spectrum,
    signal_from_zeros,
    spectrum_to_samples,
)
from ddcap import minphase
from ddcap.signals import SampledIntensity, SpectralPoly

from conftest import random_coeff_signal, signal_from_coeffs


def outside_zeros(rng, count, r_min=1.5, r_max=3.0):
    radii = rng.uniform(r_min, r_max, size=count)
    return radii * np.exp(2j * np.pi * rng.uniform(size=count))


class TestPeriodicHilbert:
    def test_constant_maps_to_zero(self):
        assert np.allclose(periodic_hilbert(np.full(16, 2.7)), 0.0, atol=1e-14)

    def test_cos_maps_to_sin(self):
        theta = 2 * np.pi * np.arange(64) / 64
        out = periodic_hilbert(np.cos(theta))
        assert np.max(np.abs(out - np.sin(theta))) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 16, 50, 128]))
    def test_involution(self, seed, n):
        # the multiplier annihilates DC and the Nyquist bin, so those must be
        # removed from the input before comparing with the negation
        x = np.random.default_rng(seed).standard_normal(n)
        spectrum = np.fft.rfft(x)
        spectrum[0] = 0.0
        spectrum[-1] = 0.0
        x_band = np.fft.irfft(spectrum, n=n)
        twice = periodic_hilbert(periodic_hilbert(x))
        assert np.max(np.abs(twice + x_band)) < 1e-10 * max(1.0, np.abs(x).max())

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            periodic_hilbert(np.zeros(15))


class TestMinPhaseFromIntensity:
    def test_recovers_all_outside_signal(self, rng):
        sig = signal_from_zeros(outside_zeros(rng, 7), M=8)
        result = min_phase_from_intensity(intensity_grid(sig, 8), M=8)
        assert phase_distance(sig, result.signal) < 1e-6 * sig.power()
        assert not result.regularized
        assert result.residual < result.tolerance

    def test_constant_intensity(self):
        sig = signal_from_coeffs([1.3, 0, 0, 0])
        result = min_phase_from_intensity(intensity_grid(sig, 8), M=4)
        assert np.max(np.abs(result.signal.samples - 1.3)) < 1e-8

    def test_agrees_with_zero_reflection(self, rng):
        # signal with zeros on both sides of the circle: the Hilbert route must
        # land on the reflected member
        zeros = np.concatenate([0.5 * np.exp(2j * np.pi * rng.uniform(size=3)), outside_zeros(rng, 3)])
        sig = signal_from_zeros(zeros, M=8)
        reflected = min_phase_member(sig)
        result = min_phase_from_intensity(intensity_grid(sig, 8), M=8)
        assert phase_distance(reflected, result.signal) < 1e-6 * sig.power()

    def test_agreement_invariant_random_ensemble(self, rng):
        # the two independent reconstructions coincide whenever no zero hugs
        # the circle ( min | |Z|-1 | > 0.05 )
        done = 0
        while done < 25:
            M = int(rng.integers(2, 17))
            sig = random_coeff_signal(rng, M)
            zs = find_zeros(samples_to_spectrum(sig))
            if len(zs.zeros) and np.min(np.abs(np.abs(zs.zeros) - 1.0)) <= 0.05:
                continue
            reflected = min_phase_member(sig)
            result = min_phase_from_intensity(intensity_grid(sig, 8), M=M)
            assert phase_distance(reflected, result.signal) < 1e-5 * sig.power()
            done += 1

    def test_uniqueness_probe(self, rng):
        # any non-constant band-limited phase perturbation of norm 1e-3 moves
        # the intensity detectably once projected back into the band
        M = 8
        sig = signal_from_zeros(outside_zeros(rng, M - 1), M=M)
        result = min_phase_from_intensity(intensity_grid(sig, 8), M=M)
        base = intensity_grid(result.signal, 8).values
        spec = samples_to_spectrum(result.signal)
        t = np.arange(8 * M) / (8 * sig.B)
        for harmonic in (1, 3, M - 1):
            perturbation = 1e-3 * np.cos(harmonic * spec.omega * t + 0.37)
            bent = spec.coeffs.copy()
            raw = evaluate_field(spec, t) * np.exp(1j * perturbation)
            bent = np.fft.ifft(raw)[:M]
            bent_sig = spectrum_to_samples(SpectralPoly(coeffs=bent, M=M, B=sig.B))
            moved = intensity_grid(bent_sig, 8).values
            assert np.max(np.abs(moved - base)) > 1e-7 * base.max()

    def test_spectral_causality_signature(self, rng):
        # log of the reconstruction has (almost) no negative harmonics
        sig = signal_from_zeros(outside_zeros(rng, 5), M=6)
        result = min_phase_from_intensity(intensity_grid(sig, 8), M=6)
        spec = samples_to_spectrum(result.signal)
        n = 64 * 6
        t = np.arange(n) / (64 * sig.B)
        field = evaluate_field(spec, t)
        log_field = np.log(np.abs(field)) + 1j * np.unwrap(np.angle(field))
        harmonics = np.fft.ifft(log_field)
        negative = harmonics[n // 2 :]
        assert np.linalg.norm(negative) < 1e-4 * np.linalg.norm(harmonics)

    def test_regularized_flag_on_intensity_nulls(self):
        # an on-circle zero makes the intensity vanish exactly somewhere
        zeros = [np.exp(-2j * np.pi * 0.25 / 4), 2.0 + 1.0j, -3.0]
        sig = signal_from_zeros(zeros, M=4)
        grid = intensity_grid(sig, 16)
        assert grid.values.min() < 1e-12 * grid.values.max()
        result = min_phase_from_intensity(grid, M=4)
        assert result.regularized
        assert np.isfinite(result.residual)

    def test_grid_stops_doubling_at_the_cap(self, monkeypatch):
        # at tol=1e-10 the on-circle zero needs 4096 points to bring the
        # residual within a tenth of the tolerance; under a cap of 3000 the
        # grid stops at 2048, since the next doubling would pass it
        zeros = [np.exp(-2j * np.pi * 0.25 / 4), 2.0 + 1.0j, -3.0]
        grid = intensity_grid(signal_from_zeros(zeros, M=4), 16)
        assert min_phase_from_intensity(grid, M=4, tol=1e-10).grid_size == 4096
        monkeypatch.setattr(minphase, "_MAX_GRID", 3000)
        result = min_phase_from_intensity(grid, M=4, tol=1e-10)
        assert result.grid_size == 2048
        assert result.regularized
        assert result.residual > 0.1 * result.tolerance

    def test_unrealizable_intensity_refused_within_the_grid_cap(self, monkeypatch):
        # M + 1 random coefficients on the 8M grid of an M=192 waveform: no
        # grid gets the residual within the tolerance, and the doubling from
        # 1536 points stops below the cap instead of passing it
        grids = []
        hilbert = minphase.periodic_hilbert

        def recording_hilbert(series):
            grids.append(len(series))
            return hilbert(series)

        monkeypatch.setattr(minphase, "periodic_hilbert", recording_hilbert)
        M = 192
        for seed in range(4):
            rng = np.random.default_rng(seed)
            coeffs = (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1)) / np.sqrt(2 * M)
            grid = SampledIntensity(rate=8.0, values=np.abs(np.fft.fft(coeffs, n=8 * M)) ** 2)
            with pytest.raises(IntensityNotRealizableError, match="residual"):
                min_phase_from_intensity(grid, M=M)
        assert max(grids) <= minphase._MAX_GRID

    def test_returned_waveform_meets_its_tolerance(self):
        # M + 1 coefficients whose last is small: each intensity is either
        # refused or answered by a waveform within the tolerance, never by one
        # that misses it
        M = 4
        outcomes = []
        for seed in range(5):
            for scale in (1e-3, 1e-4, 1e-5):
                rng = np.random.default_rng(seed)
                coeffs = (rng.standard_normal(M + 1) + 1j * rng.standard_normal(M + 1)) / np.sqrt(2 * M)
                coeffs[M] *= scale
                grid = SampledIntensity(rate=8.0, values=np.abs(np.fft.fft(coeffs, n=8 * M)) ** 2)
                try:
                    result = min_phase_from_intensity(grid, M=M)
                except IntensityNotRealizableError:
                    outcomes.append("refused")
                    continue
                assert result.residual <= result.tolerance
                outcomes.append("returned")
        assert {"refused", "returned"} <= set(outcomes)

    @pytest.mark.parametrize("M", [192, 256])
    def test_unconstrained_random_signals_round_trip(self, M):
        # zeros of these waveforms crowd the circle; the projected waveform
        # meets the tolerance although the leak before projection is 1e-4 to 1e-3
        for seed in range(1000, 1006):
            sig = random_signal(M, seed=seed)
            result = min_phase_from_intensity(intensity_grid(sig, 8), M=M)
            assert result.residual <= 0.1 * result.tolerance
            reference = min_phase_member(sig)
            assert phase_distance(reference, result.signal) <= 1e-6 * reference.power()

    def test_unrealizable_intensity_rejected(self, rng):
        # intensity of an M=16 waveform cannot come from an M=4 waveform
        sig = random_coeff_signal(rng, 16)
        grid = intensity_grid(sig, 2)  # 32 = 8 * 4 samples
        with pytest.raises(IntensityNotRealizableError):
            min_phase_from_intensity(grid, M=4)

    def test_grid_must_be_multiple_of_m(self, rng):
        sig = random_coeff_signal(rng, 4)
        grid = intensity_grid(sig, 8)
        with pytest.raises(ValueError, match="q \\* ?M|q\\*M"):
            min_phase_from_intensity(grid, M=3)
