import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from ddcap import (
    EnumerationCapError,
    OnCircleFlipError,
    PeriodicSignal,
    canonicalize_phase,
    embed_finite_support,
    enumerate_family,
    evaluate_field,
    find_zeros,
    flip_zeros,
    intensity_grid,
    min_phase_member,
    phase_distance,
    random_signal,
    samples_to_spectrum,
    signal_from_zeros,
    spectrum_to_samples,
)
from ddcap.signals import SpectralPoly
from ddcap.zeros import ZERO_MERGE_TOL, ZeroSet, _flip_groups

from conftest import random_coeff_signal, signal_from_coeffs


def spec_of(coeffs, B=1.0):
    return SpectralPoly(coeffs=np.asarray(coeffs, dtype=complex), M=len(coeffs), B=B)


class TestFindZeros:
    def test_zero_on_circle_with_vanishing_time(self):
        # A(Z) = Z - 1: zero at 1, on the circle, field vanishes at t = 0
        zs = find_zeros(spec_of([-1.0, 1.0]))
        assert len(zs.zeros) == 1
        assert zs.on_circle[0]
        assert abs(zs.zeros[0] - 1.0) < 1e-12
        assert abs(zs.on_circle_times[0] - 0.0) < 1e-9

    def test_zero_outside(self):
        zs = find_zeros(spec_of([-2.0, 1.0]))
        assert not zs.on_circle[0] and not zs.inside[0]
        assert abs(zs.zeros[0] - 2.0) < 1e-12

    def test_vieta_identities_degree_7(self, rng):
        coeffs = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        zs = find_zeros(spec_of(coeffs))
        assert len(zs.zeros) == 7
        assert np.prod(-zs.zeros) * coeffs[7] == pytest.approx(coeffs[0], rel=1e-8)
        assert np.sum(zs.zeros) * coeffs[7] == pytest.approx(-coeffs[6], rel=1e-8)

    def test_matches_numpy_roots(self, rng):
        for deg in (2, 5, 11, 23):
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            zs = find_zeros(spec_of(coeffs))
            reference = np.roots(coeffs[::-1])
            dist = np.abs(zs.zeros[:, None] - reference[None, :])
            assert dist.min(axis=1).max() < 1e-8

    def test_reconstruction_invariant(self, rng):
        coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        zs = find_zeros(spec_of(coeffs))
        rebuilt = npoly.polyfromroots(zs.zeros) * coeffs[-1]
        assert np.max(np.abs(rebuilt - coeffs)) < 1e-8 * np.max(np.abs(coeffs))

    def test_field_vanishes_at_on_circle_times(self, rng):
        on = np.exp(1j * np.array([0.3, 2.2, -1.7]))
        off = np.array([0.5 + 0.1j, 1.8 - 0.6j])
        spec = samples_to_spectrum(signal_from_zeros(np.concatenate([on, off]), M=8))
        zs = find_zeros(spec)
        assert zs.on_circle.sum() == 3
        scale = np.max(np.abs(spec.coeffs))
        for t in zs.on_circle_times:
            assert abs(evaluate_field(spec, float(t))) < 1e-9 * scale

    def test_roots_at_origin(self):
        zs = find_zeros(spec_of([0.0, 0.0, 1.0, 1.0]))
        assert np.sum(np.abs(zs.zeros) < 1e-14) == 2
        assert zs.inside.sum() == 2  # origin zeros count as inside

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            find_zeros(spec_of([0.0, 0.0]))


class TestFlipZeros:
    def test_empty_mask_is_identity(self, rng):
        spec = samples_to_spectrum(random_coeff_signal(rng, 6))
        flipped = flip_zeros(spec, 0)
        assert np.max(np.abs(flipped.coeffs - spec.coeffs)) < 1e-12

    def test_single_zero_reflection_preserves_circle_modulus(self):
        spec = samples_to_spectrum(signal_from_zeros([2.0 + 0j], M=2))
        zs = find_zeros(spec)
        flipped = flip_zeros(spec, 1, zeroset=zs)
        new_zs = find_zeros(flipped)
        assert abs(new_zs.zeros[0] - 0.5) < 1e-10
        theta = 2 * np.pi * np.arange(64) / 64
        z = np.exp(1j * theta)
        a_old = spec.coeffs[0] + spec.coeffs[1] * z
        a_new = flipped.coeffs[0] + flipped.coeffs[1] * z
        assert np.max(np.abs(np.abs(a_new) - np.abs(a_old))) < 1e-10 * np.max(np.abs(a_old))

    def test_modulus_preserved_on_dense_grid(self, rng):
        sig = random_coeff_signal(rng, 8)
        spec = samples_to_spectrum(sig)
        zs = find_zeros(spec)
        mask = sum(1 << i for i in range(len(zs.zeros)) if not zs.on_circle[i] and i % 2 == 0)
        flipped = flip_zeros(spec, mask, zeroset=zs)
        theta_grid = np.arange(8 * spec.M) / (8 * spec.B)
        before = np.abs(evaluate_field(spec, theta_grid))
        after = np.abs(evaluate_field(flipped, theta_grid))
        assert np.max(np.abs(after - before)) < 1e-8 * before.max()

    def test_flip_all_twice_is_identity(self, rng):
        spec = samples_to_spectrum(random_coeff_signal(rng, 7))
        zs = find_zeros(spec)
        mask = sum(1 << i for i in range(len(zs.zeros)) if not zs.on_circle[i])
        once = flip_zeros(spec, mask, zeroset=zs)
        twice = flip_zeros(once, mask, zeroset=find_zeros(once))
        assert np.max(np.abs(twice.coeffs - spec.coeffs)) < 1e-8 * np.max(np.abs(spec.coeffs))

    def test_on_circle_flip_rejected(self):
        spec = samples_to_spectrum(signal_from_zeros([np.exp(0.4j), 2.0], M=4))
        zs = find_zeros(spec)
        on_bit = int(np.nonzero(zs.on_circle)[0][0])
        with pytest.raises(OnCircleFlipError):
            flip_zeros(spec, 1 << on_bit, zeroset=zs)

    def test_degree_preserved(self, rng):
        spec = samples_to_spectrum(random_coeff_signal(rng, 6))
        zs = find_zeros(spec)
        mask = (1 << len(zs.zeros)) - 1 if not zs.on_circle.any() else 0
        assert flip_zeros(spec, mask, zeroset=zs).eff_degree == spec.eff_degree


class TestEnumerateFamily:
    def test_m4_generic_has_8_members(self, rng):
        fam = enumerate_family(random_coeff_signal(rng, 4))
        assert len(fam) == 8

    def test_constant_signal_single_member(self):
        fam = enumerate_family(signal_from_coeffs([1.5 + 0.5j]))
        assert len(fam) == 1

    def test_one_on_circle_zero_gives_4_members(self):
        zeros = [np.exp(1.1j), 0.4 - 0.3j, 1.7 + 0.9j]
        fam = enumerate_family(signal_from_zeros(zeros, M=4))
        assert len(fam) == 4
        assert fam.zeroset.on_circle.sum() == 1
        # members pairwise distinct under the phase quotient
        for i in range(4):
            for j in range(i + 1, 4):
                assert phase_distance(fam.signals[i], fam.signals[j]) > 1e-6 * fam.base.power()

    def test_intensity_and_bandwidth_preserved(self, rng):
        # the headline invariant: 200 random signals, every member shares the
        # base intensity and the base effective degree
        for _ in range(200):
            M = int(rng.integers(2, 11))
            sig = random_coeff_signal(rng, M)
            fam = enumerate_family(sig)
            base_grid = intensity_grid(sig, 4).values
            base_deg = samples_to_spectrum(sig).eff_degree
            assert len(fam) == 2**fam.zeroset.n_off_circle
            for member in fam.signals:
                grid = intensity_grid(member, 4).values
                assert np.max(np.abs(grid - base_grid)) < 1e-8 * base_grid.max()
                spec = samples_to_spectrum(member)
                assert spec.eff_degree == base_deg
                tail = np.abs(spec.coeffs[base_deg + 1 :])
                if tail.size:
                    assert tail.max() < 1e-8 * np.max(np.abs(spec.coeffs))

    def test_pairwise_distinguishable_when_zeros_simple(self, rng):
        sig = random_coeff_signal(rng, 6)
        fam = enumerate_family(sig)
        if fam.zeroset.on_circle.any():
            pytest.skip("random draw put a zero on the circle")
        sigs = fam.signals
        floor = 1e-6 * sig.power()
        for i in range(len(sigs)):
            for j in range(i + 1, len(sigs)):
                assert phase_distance(sigs[i], sigs[j]) > floor

    def test_members_canonicalized_and_stable_order(self, rng):
        sig = random_coeff_signal(rng, 5)
        fam = enumerate_family(sig)
        masks = list(fam.masks)
        assert masks == sorted(masks)
        assert masks[0] == 0
        for member in fam.signals:
            again = canonicalize_phase(member)
            assert np.max(np.abs(again.samples - member.samples)) < 1e-12

    def test_enumeration_cap(self, rng):
        sig = random_coeff_signal(rng, 8)
        with pytest.raises(EnumerationCapError, match="max_flips"):
            enumerate_family(sig, max_flips=3)
        with pytest.raises(ValueError, match="max_flips must be at least 0"):
            enumerate_family(sig, max_flips=-1)

    def test_degenerate_all_zeros_on_circle(self):
        # field vanishing at M-1 distinct in-period times: family of size 1
        M = 5
        times = np.array([0.3, 1.1, 2.0, 3.7])
        zeros = np.exp(-1j * 2 * np.pi * times / M)
        fam = enumerate_family(signal_from_zeros(zeros, M=M))
        assert fam.zeroset.on_circle.sum() == M - 1
        assert len(fam) == 1

    def test_merged_double_zero_flips_jointly(self):
        w = 0.6 + 0.2j
        fam = enumerate_family(signal_from_zeros([w, w + 1e-9, 2.0 - 1.0j], M=4))
        # the two near-identical zeros act as one flip bit: 2^2 members
        assert len(fam) == 4

    def test_chain_of_near_zeros_merges_transitively(self):
        # zeros 0-4 and 4-3 are within the merge tolerance, 0-3 are not; the
        # groups come in order of their lowest zero index
        a, b = 0.6 + 0.2j, 2.0 - 1.0j
        tol = ZERO_MERGE_TOL
        zeros = np.array([a, b, b + 0.5 * tol, a + 1.6 * tol, a + 0.8 * tol, 0.3j])
        assert abs(zeros[3] - zeros[0]) > tol
        zs = ZeroSet(zeros=zeros, on_circle=np.zeros(6, dtype=bool),
                     inside=np.abs(zeros) < 1.0, on_circle_times=np.zeros(0))
        assert _flip_groups(zs) == [0b011001, 0b000110, 0b100000]

    @staticmethod
    def _per_mask(sig):
        """The member-by-member construction: one flip_zeros per flip pattern."""
        spec = samples_to_spectrum(sig)
        zs = find_zeros(spec)
        groups = _flip_groups(zs)
        masks = [sum(g for bit, g in enumerate(groups) if (pattern >> bit) & 1)
                 for pattern in range(1 << len(groups))]
        samples = [canonicalize_phase(spectrum_to_samples(flip_zeros(spec, m, zeroset=zs))).samples
                   for m in masks]
        return masks, np.array(samples)

    def test_batched_build_matches_per_mask_flips(self, rng):
        w = 0.6 + 0.2j
        signals = [random_coeff_signal(rng, int(M)) for M in rng.integers(2, 11, size=40)]
        signals += [
            signal_from_zeros([w, w + 1e-9, 2.0 - 1.0j], M=4),  # merged near-coincident pair
            signal_from_zeros([np.exp(1.1j), 0.4 - 0.3j, 1.7 + 0.9j], M=4),  # one on-circle zero
            embed_finite_support(rng.standard_normal(3) + 1j * rng.standard_normal(3), M_prime=24),
        ]
        for sig in signals:
            fam = enumerate_family(sig)
            masks, reference = self._per_mask(sig)
            assert list(fam.masks) == masks
            assert fam.samples.shape == reference.shape
            assert np.max(np.abs(fam.samples - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_samples_array_is_read_only(self, rng):
        sig = random_coeff_signal(rng, 6)
        fam = enumerate_family(sig)
        assert fam.samples.shape == (2**fam.zeroset.n_off_circle, 6)
        assert not fam.samples.flags.writeable
        assert all(np.array_equal(s.samples, row) for s, row in zip(fam.signals, fam.samples))

    @pytest.mark.parametrize("exponent", [-960, -600, -1, 3, 600, 1020])
    def test_scaling_by_a_power_of_two_scales_the_members_exactly(self, rng, exponent):
        # the zeros do not depend on the scale, so the members keep their bits
        sig = random_coeff_signal(rng, 6)
        fam = enumerate_family(sig)
        scaled = enumerate_family(PeriodicSignal(sig.M, sig.B, sig.samples * 2.0**exponent))
        assert scaled.masks == fam.masks
        assert np.array_equal(scaled.samples, fam.samples * 2.0**exponent)
        assert np.array_equal(scaled.zeroset.zeros, fam.zeroset.zeros)

    def test_subnormal_samples_are_refused_naming_their_scale(self):
        sig = PeriodicSignal(3, 1.0, [5e-324, -5e-324j, 5e-324 + 5e-324j])
        with pytest.raises(ValueError, match="samples peak at 4.94e-324, below the smallest normal"):
            enumerate_family(sig)

    def test_zero_at_origin_flips_to_a_constant_phase(self):
        # F_0 = 0 puts a zero at the origin; its reflection lies at infinity,
        # so the flipped member drops the factor Z and keeps the intensity
        signals = [signal_from_coeffs([0.0, 1.0, 0.5 + 0.2j])]
        for seed, M in enumerate((2, 3, 5, 8)):
            # random_signal's draws, with c0 = 0
            rng = np.random.default_rng(seed)
            coeffs = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0 * M)
            coeffs[0] = 0.0
            signals.append(signal_from_coeffs(coeffs))
        for sig in signals:
            fam = enumerate_family(sig)
            assert len(fam) == 2**fam.zeroset.n_off_circle
            intensities = np.abs(np.fft.fft(np.fft.ifft(fam.samples, axis=1), n=8 * sig.M, axis=1)) ** 2
            assert np.max(np.abs(intensities - intensities[0])) <= 1e-8 * np.max(intensities[0])
            masks, reference = self._per_mask(sig)
            assert list(fam.masks) == masks
            assert np.max(np.abs(fam.samples - reference)) <= 1e-12 * np.max(np.abs(reference))

    # oracles that do not share the all-pass construction of the members

    def test_member_0_is_the_canonical_base(self, rng):
        w = 0.6 + 0.2j
        signals = [random_coeff_signal(rng, int(M)) for M in rng.integers(1, 11, size=40)]
        signals += [
            signal_from_zeros([w, w + 1e-9, 2.0 - 1.0j], M=4),
            signal_from_zeros([np.exp(1.1j), 0.4 - 0.3j, 1.7 + 0.9j], M=4),
            embed_finite_support(rng.standard_normal(3) + 1j * rng.standard_normal(3), M_prime=24),
        ]
        for sig in signals:
            assert np.array_equal(enumerate_family(sig).samples[0], canonicalize_phase(sig).samples)

    def test_members_keep_the_sample_moduli(self, rng):
        # each flip multiplies the samples by factors of modulus 1
        eps = np.finfo(np.float64).eps
        for M in rng.integers(2, 11, size=100):
            sig = random_coeff_signal(rng, int(M))
            fam = enumerate_family(sig)
            moduli = np.abs(sig.samples)
            assert np.max(np.abs(np.abs(fam.samples) - moduli)) <= 16 * eps * moduli.max()

    @staticmethod
    def _from_known_zeros(zeros, flipped, M):
        """Canonical samples of prod(Z - zeros) with the ``flipped`` zeros
        reflected to 1/conj(Z) and rescaled by |Z|, expanded from the zeros."""
        zeros = np.array(zeros, dtype=complex)
        scale = np.prod(np.abs(zeros[flipped]))
        zeros[flipped] = 1.0 / np.conj(zeros[flipped])
        coeffs = npoly.polyfromroots(zeros) * scale
        return canonicalize_phase(signal_from_coeffs(np.pad(coeffs, (0, M - len(coeffs))))).samples

    @pytest.mark.parametrize(
        "zeros, M",
        [
            ([2.0 + 0j], 2),
            ([0.5 + 0.2j, 1.8 - 0.6j, -0.7j], 4),
            ([np.exp(1.1j), 0.4 - 0.3j, 1.7 + 0.9j], 4),
            ([0.3 + 0.4j, -1.5 + 0.2j, 0.6j], 6),
            (list(np.array([0.5, 1.6, 0.7, 2.1, 0.4, 1.3, 0.8]) * np.exp(2j * np.pi * np.arange(7) / 7 + 0.3j)), 8),
        ],
    )
    def test_members_match_the_expansion_of_the_known_zeros(self, zeros, M):
        fam = enumerate_family(signal_from_zeros(zeros, M=M))
        found = fam.zeroset.zeros
        # the known zero each found zero approximates
        known = np.abs(found[:, None] - np.array(zeros)[None, :]).argmin(axis=1)
        assert sorted(known.tolist()) == list(range(len(zeros)))
        for mask, member in zip(fam.masks, fam.samples):
            flipped = [int(known[i]) for i in range(len(found)) if (mask >> i) & 1]
            reference = self._from_known_zeros(zeros, flipped, M)
            assert np.max(np.abs(member - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_zero_at_infinity_keeps_the_intensity(self, rng):
        # a top coefficient below DEGREE_EPS is dropped from the zero search, so
        # the zero near infinity it carries is never flipped, and the members
        # keep the samples' small contribution from it as it is
        for _ in range(200):
            M = int(rng.integers(3, 11))
            coeffs = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            coeffs[-1] *= 10 ** rng.uniform(-16, -10.3) * np.abs(coeffs[:-1]).max() / abs(coeffs[-1])
            sig = signal_from_coeffs(coeffs)
            assert samples_to_spectrum(sig).eff_degree < M - 1
            fam = enumerate_family(sig)
            intensities = np.abs(np.fft.fft(np.fft.ifft(fam.samples, axis=1), n=4 * M, axis=1)) ** 2
            assert np.max(np.abs(intensities - intensities[0])) <= 1e-8 * np.max(intensities[0])


class TestMinPhaseMember:
    def test_already_minimum_phase(self):
        sig = signal_from_zeros([1.6 + 0.3j, -2.2 + 0.5j, 0.1 + 1.9j], M=4)
        result = min_phase_member(sig)
        assert phase_distance(sig, result) < 1e-10 * sig.power()

    def test_all_inside_zeros_are_reflected(self):
        zeros = 0.5 * np.exp(1j * np.array([0.4, 1.9, 3.3]))
        sig = signal_from_zeros(zeros, M=4)
        result = min_phase_member(sig)
        zs = find_zeros(samples_to_spectrum(result))
        assert np.all(np.abs(np.abs(zs.zeros) - 2.0) < 1e-8)
        base_grid = intensity_grid(sig, 4).values
        got = intensity_grid(result, 4).values
        assert np.max(np.abs(got - base_grid)) < 1e-8 * base_grid.max()

    def test_constant_signal(self):
        sig = signal_from_coeffs([0.8 - 0.1j])
        result = min_phase_member(sig)
        assert phase_distance(sig, result) < 1e-14

    @pytest.mark.filterwarnings("error")
    def test_subnormal_samples_are_refused_naming_their_scale(self):
        sig = PeriodicSignal(3, 1.0, [5e-324, -5e-324j, 5e-324 + 5e-324j])
        with pytest.raises(ValueError, match="samples peak at 4.94e-324, below the smallest normal"):
            min_phase_member(sig)

    @pytest.mark.filterwarnings("error")
    def test_huge_samples_scale_the_member_exactly(self):
        samples = np.array([1e308, -1e308j, 5e307 + 5e307j])
        result = min_phase_member(PeriodicSignal(3, 1.0, samples))
        reference = min_phase_member(PeriodicSignal(3, 1.0, samples * 2.0**-1000))
        assert np.array_equal(result.samples, reference.samples * 2.0**1000)
        assert not find_zeros(samples_to_spectrum(reference)).inside.any()

    # bits of the minimum-phase member, fixed so that the scaling around the
    # zero search changes none of them; re-pinned when the member came to be
    # built as the samples times all-pass factors (last-place changes)
    @pytest.mark.parametrize(
        "M, seed, bits",
        [
            (3, 1, "0x1.64f79da4aab2bp-2 0x1.015fd00e288b0p-1 0x1.ec8602a73c132p-1 "
                   "-0x1.a7b8347c97843p-3 0x1.3bd65958f2cd6p-1 -0x1.2ee385de0553cp-2"),
            (4, 2, "0x1.62261bfca0950p+0 0x1.c89571693611ep-1 0x1.55c2f72464e58p-3 "
                   "-0x1.3cc3eadad9ef3p-2 0x1.e9749a1d2102cp-1 -0x1.c6d71c37adc8fp-3 "
                   "0x1.62d01c876e7dbp+0 -0x1.70fb69dbbb501p-2"),
            (5, 3, "0x1.6a83e77f83b70p-5 -0x1.66e3b4ba934dcp-2 0x1.297d7930fe00ep+0 "
                   "0x1.632036054fdb6p-1 0x1.15bdb93bdc916p-2 0x1.2bd79cf23daefp-4 "
                   "0x1.50027c085713ep+1 -0x1.1a605248a071cp+0 0x1.c0999d3d08a3cp+0 "
                   "0x1.5f97554af2f92p-1"),
        ],
    )
    def test_random_signal_bits_are_pinned(self, M, seed, bits):
        result = min_phase_member(random_signal(M, seed=seed))
        assert " ".join(float(x).hex() for x in result.samples.view(np.float64)) == bits

    @pytest.mark.parametrize("M", [64, 128, 192, 256])
    def test_large_M_keeps_the_intensity_and_leaves_no_inside_zero(self, M):
        for seed in range(1000, 1006):
            sig = random_signal(M, seed=seed)
            result = min_phase_member(sig)
            base_grid = intensity_grid(sig, 4).values
            got = intensity_grid(result, 4).values
            assert np.max(np.abs(got - base_grid)) <= 1e-12 * base_grid.max()
            assert not find_zeros(samples_to_spectrum(result)).inside.any()


class TestEmbedFiniteSupport:
    def test_single_sample_payload(self):
        sig = embed_finite_support([1.0], M_prime=8)
        assert sig.M == 8
        assert np.count_nonzero(sig.samples) == 1

    def test_on_circle_zero_count_and_family_bound(self, rng):
        payload = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sig = embed_finite_support(payload, M_prime=24)
        zs = find_zeros(samples_to_spectrum(sig))
        assert zs.on_circle.sum() >= 24 - 3
        fam = enumerate_family(sig)
        assert len(fam) <= 2 ** (3 - 1)

    @pytest.mark.parametrize("M_prime", [64, 128, 256, 512])
    def test_embedded_qpsk_family_keeps_the_intensity(self, M_prime):
        payload = np.array([1j, -1, 1, -1j, -1j, 1, 1, 1j])
        fam = enumerate_family(embed_finite_support(payload, M_prime))
        assert len(fam) == 128
        base_grid = intensity_grid(fam.base, 4).values
        for member in fam.signals:
            got = intensity_grid(member, 4).values
            assert np.max(np.abs(got - base_grid)) <= 1e-12 * base_grid.max()

    def test_guard_band_required(self, rng):
        with pytest.raises(ValueError, match="M_prime"):
            embed_finite_support(rng.standard_normal(4), M_prime=12)


class TestCompleteness:
    """Brute-force check that the enumerated family exhausts the equal-intensity set.

    Multistart least-squares inversion of the intensity map over the full
    coefficient space; every converged equal-intensity waveform must fall in
    the family (the global-phase gauge aside), and every member must be found.
    """

    @staticmethod
    def _search(base, n_starts, seed):
        from scipy.optimize import least_squares

        M = base.M
        target = intensity_grid(base, 4).values
        scale = np.sqrt(base.power())
        rng = np.random.default_rng(seed)

        def residual(x):
            coeffs = x[:M] + 1j * x[M:]
            sig = spectrum_to_samples(spec_of(coeffs))
            return (intensity_grid(sig, 4).values - target) / target.max()

        found = []
        for _ in range(n_starts):
            x0 = rng.normal(scale=scale, size=2 * M)
            sol = least_squares(residual, x0, xtol=1e-14, ftol=1e-14, gtol=1e-14)
            if np.max(np.abs(sol.fun)) > 1e-4:
                continue
            cand = canonicalize_phase(spectrum_to_samples(spec_of(sol.x[:M] + 1j * sol.x[M:])))
            if all(phase_distance(cand, f) > 1e-8 * base.power() for f in found):
                found.append(cand)
        return found

    @pytest.mark.parametrize("M,n_starts", [(2, 120), (3, 500)])
    def test_grid_search_finds_only_family_members(self, M, n_starts):
        base = spectrum_to_samples(
            spec_of(np.exp(2j * np.pi * np.linspace(0.05, 0.6, M)) * np.linspace(1.0, 0.6, M))
        )
        fam = enumerate_family(base)
        assert len(fam) == 2 ** (M - 1)
        found = self._search(base, n_starts, seed=11 + M)
        # every equal-intensity waveform discovered lies in the family...
        for cand in found:
            dists = [phase_distance(cand, member) for member in fam.signals]
            assert min(dists) < 1e-5 * base.power()
        # ...and the search has enough power to discover every member
        for member in fam.signals:
            dists = [phase_distance(cand, member) for cand in found]
            assert min(dists) < 1e-5 * base.power()
