"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from ddcap import (
    NoiseSpec,
    chain_bound_check,
    embed_finite_support,
    enumerate_family,
    evaluate_field,
    find_zeros,
    half_sample_intensity_oracle,
    intensity_grid,
    mc_mi,
    min_phase_from_intensity,
    min_phase_member,
    phase_distance,
    psk,
    samples_to_spectrum,
    signal_from_zeros,
    spectrum_to_samples,
)
from ddcap.signals import PeriodicSignal, SpectralPoly
from ddcap.zeros import UC_EPS


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


def off_circle_zeros(rng, count, min_gap=0.05):
    inside = rng.uniform(0.2, 1.0 - min_gap - 1e-6, size=count)
    outside = rng.uniform(1.0 + min_gap + 1e-6, 3.0, size=count)
    radii = np.where(rng.random(count) < 0.5, inside, outside)
    return radii * np.exp(2j * np.pi * rng.random(count))


def test_criterion_1_figure2_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(71)
    while True:
        sig = PeriodicSignal(M=4, B=1.0, samples=rng.standard_normal(4) + 1j * rng.standard_normal(4))
        zs = find_zeros(samples_to_spectrum(sig))
        if not zs.on_circle.any():
            break
    fam = enumerate_family(sig)
    assert len(fam) == 8
    base_grid = intensity_grid(sig, 4).values
    for member in fam.signals:
        grid = intensity_grid(member, 4).values
        assert np.max(np.abs(grid - base_grid)) <= 1e-8 * base_grid.max()
    floor = 1e-6 * sig.power()
    for i in range(8):
        for j in range(i + 1, 8):
            assert phase_distance(fam.signals[i], fam.signals[j]) > floor
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"8 members, shared intensity to 1e-8, pairwise distinct, {elapsed:.3f}s")


def test_criterion_2_multiplicity_law():
    rng = np.random.default_rng(72)
    # 100 random signals: member count == 2^(off-circle zero count)
    for _ in range(100):
        M = int(rng.integers(2, 11))
        sig = PeriodicSignal(M=M, B=1.0, samples=rng.standard_normal(M) + 1j * rng.standard_normal(M))
        fam = enumerate_family(sig)
        assert len(fam) == 2 ** fam.zeroset.n_off_circle
    # constructed signals with k on-circle zeros: count == 2^(M-1-k)
    for M in (3, 4, 5, 6):
        for k in range(M):
            angles = 2 * np.pi * (np.arange(k) + rng.random(k) * 0.5) / max(k, 1)
            zeros = np.concatenate([np.exp(1j * angles), off_circle_zeros(rng, M - 1 - k)])
            fam = enumerate_family(signal_from_zeros(zeros, M=M))
            assert int(fam.zeroset.on_circle.sum()) == k
            assert len(fam) == 2 ** (M - 1 - k)
    report(2, "member count = 2^N0 on 100 random signals and 2^(M-1-k) with k forced on-circle zeros")


def test_criterion_3_min_phase_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(73)
    for trial in range(100):
        M = int(rng.integers(2, 17))
        zeros = off_circle_zeros(rng, M - 1, min_gap=0.05)
        sig = signal_from_zeros(zeros, M=M)
        zs = find_zeros(samples_to_spectrum(sig))
        assert np.min(np.abs(np.abs(zs.zeros) - 1.0)) > 0.05
        reflected = min_phase_member(sig)
        result = min_phase_from_intensity(intensity_grid(sig, 8), M=M)
        assert phase_distance(reflected, result.signal) < 1e-5 * sig.power()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"Hilbert route == zero-reflection route on 100 signals (M<=16), {elapsed:.2f}s")


def test_criterion_4_finite_support_embedding():
    rng = np.random.default_rng(74)
    payload = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    sig = embed_finite_support(payload, M_prime=24)
    zs = find_zeros(samples_to_spectrum(sig))
    n_on = int(np.sum(np.abs(np.abs(zs.zeros) - 1.0) <= UC_EPS))
    assert n_on >= 24 - 3
    fam = enumerate_family(sig)
    assert len(fam) <= 2 ** (3 - 1)
    report(4, f"M'=24 embedding: {n_on} on-circle zeros (>=21), family size {len(fam)} (<=4)")


def test_criterion_5_sandwich_inequality():
    rng = np.random.default_rng(75)
    import itertools

    constellations = {
        "bpsk": np.array([1.0 + 0j, -1.0 + 0j]),
        "ternary": np.array([1.0 + 0j, 1.0j, -0.7 + 0.2j]),
        "qpsk": psk(4),
    }
    checked = 0
    for name, points in constellations.items():
        for M in (1, 2, 3):
            inputs = [
                PeriodicSignal(M=M, B=1.0, samples=np.array(tup))
                for tup in itertools.product(points, repeat=M)
            ]
            priors = [None, rng.dirichlet(np.ones(len(inputs))), rng.dirichlet(np.full(len(inputs), 0.3))]
            for prior in priors:
                rep = chain_bound_check(inputs, prior=prior)
                assert rep.gap >= -1e-9
                assert rep.gap <= rep.bound + 1e-9
                checked += 1
    # the equal-intensity family achieves the gap exactly
    while True:
        sig = PeriodicSignal(M=3, B=1.0, samples=rng.standard_normal(3) + 1j * rng.standard_normal(3))
        fam = enumerate_family(sig)
        if len(fam) == 4:
            break
    rep = chain_bound_check(fam.signals)
    assert rep.mi_direct == pytest.approx(0.0, abs=1e-12)
    assert rep.gap == pytest.approx(rep.bound, abs=1e-9)
    report(5, f"sandwich held on {checked} exhaustive channels; family channel gap == (M-1)/M")


def test_criterion_6_m1_equality():
    rng = np.random.default_rng(76)
    constellations = [
        psk(4),
        psk(8),
        rng.standard_normal(5) + 1j * rng.standard_normal(5),
    ]
    for points in constellations:
        inputs = [PeriodicSignal(M=1, B=1.0, samples=[c]) for c in points]
        rep = chain_bound_check(inputs)
        assert rep.gap == 0.0
    report(6, "noiseless MI gap exactly 0 for M=1 PSK and random constellations")


def test_criterion_7_coherent_benchmark():
    start = time.perf_counter()
    for snr in (3.0, 10.0):
        rep = mc_mi("coherent", "gaussian", NoiseSpec(snr=snr, seed=77), 100_000)
        closed = np.log2(1.0 + snr)
        assert rep.estimate.bits_per_dof == pytest.approx(closed, rel=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"MC coherent MI within 2% of log2(1+SNR) at SNR 3 and 10, {elapsed:.2f}s")


def test_criterion_8_intensity_high_snr_slope():
    lo = mc_mi("intensity", "gaussian", NoiseSpec(snr=2.0**12, seed=78), 100_000)
    hi = mc_mi("intensity", "gaussian", NoiseSpec(snr=2.0**14, seed=79), 100_000)
    slope = hi.estimate.bits_per_dof - lo.estimate.bits_per_dof
    assert slope == pytest.approx(1.0, abs=0.2)
    lo_c = mc_mi("coherent", "gaussian", NoiseSpec(snr=2.0**12, seed=80), 100_000)
    hi_c = mc_mi("coherent", "gaussian", NoiseSpec(snr=2.0**14, seed=81), 100_000)
    slope_c = hi_c.estimate.bits_per_dof - lo_c.estimate.bits_per_dof
    assert slope_c == pytest.approx(2.0, abs=0.2)
    report(8, f"two-octave MI growth: intensity {slope:.3f} bits (vs 1.0), coherent {slope_c:.3f} (vs 2.0)")


def test_criterion_9_half_sample_oracle_convergence():
    rng = np.random.default_rng(79)
    M = 6
    coeffs = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    coeffs[0] = 0.0  # keep the critically-sampled band edge empty
    spec = SpectralPoly(coeffs=coeffs, M=M, B=1.0)
    sig = spectrum_to_samples(spec)
    n0 = 2
    truth = abs(evaluate_field(spec, n0 + 0.5)) ** 2
    errors = {}
    for window in (1_000, 10_000):
        total = 2 * window + M
        copy = np.tile(sig.samples, total // M + 1)[:total]
        center = (total // (2 * M)) * M + n0
        value = half_sample_intensity_oracle(copy, n=center, window=window)
        errors[window] = abs(value - truth) / truth
        assert errors[window] < 20.0 / window  # documented O(1/window) bound
    assert errors[10_000] < errors[1_000]
    report(
        9,
        f"oracle error {errors[1_000]:.2e} @1e3 -> {errors[10_000]:.2e} @1e4, within 20/window",
    )
