import dataclasses
import functools
import itertools
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ddcap import channel
from ddcap import (
    ClusteringAmbiguityError,
    DensityUnavailableError,
    DiscreteChannel,
    NoiseSpec,
    PeriodicSignal,
    apply_noise,
    capacity_prior_search,
    chain_bound_check,
    counting_entropy,
    detect_coherent,
    detect_intensity_channel,
    embed_finite_support,
    enumerate_family,
    exact_mi,
    half_sample_intensity_oracle,
    inband_noise_coefficients,
    intensity_grid,
    mc_mi,
    named_constellation,
    psk,
)

from conftest import random_coeff_signal


def constant(c, B=1.0):
    return PeriodicSignal(M=1, B=B, samples=[c])


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def direct_memory_bound(points, M, rows, workers):
    """Bytes the direct receiver's mc_mi may hold at once: per worker, one
    block's density table and per-symbol sums plus the fixed scratch, and
    once, the alphabet's fields, keys and gather map.

    The table has a row per distinct (output, |x|^2) and the per-symbol sums
    a row per alphabet entry, each with a column per waveform of the block.
    The scratch is at most seven float rows of a piece, and the block's draws,
    noise, fields and outputs, 64 bytes per (waveform, output).
    """
    samples = np.array(list(itertools.product(points, repeat=M)))
    fields = np.fft.fft(np.fft.ifft(samples, axis=1), n=2 * M, axis=1)
    distinct = sum(len(np.unique(np.abs(column) ** 2)) for column in fields.T)
    block = 8 * rows * (distinct + len(samples))
    scratch = 8 * 7 * channel._PIECE_ENTRIES + 64 * rows * 2 * M
    return workers * (block + scratch) + 96 * len(samples) * 2 * M


class TestNoise:
    def test_snr_must_be_positive(self):
        with pytest.raises(ValueError, match="snr"):
            NoiseSpec(snr=0.0)

    def test_infinite_snr_is_noiseless(self, rng):
        sig = random_coeff_signal(rng, 6)
        out = apply_noise(sig, NoiseSpec(snr=np.inf, seed=3))
        assert np.array_equal(out.samples, sig.samples)

    def test_deterministic_given_seed(self, rng):
        sig = random_coeff_signal(rng, 6)
        a = apply_noise(sig, NoiseSpec(snr=5.0, seed=42))
        b = apply_noise(sig, NoiseSpec(snr=5.0, seed=42))
        assert np.array_equal(a.samples, b.samples)
        c = apply_noise(sig, NoiseSpec(snr=5.0, seed=43))
        assert not np.array_equal(a.samples, c.samples)

    def test_output_stays_in_band(self, rng):
        sig = random_coeff_signal(rng, 4)
        out = apply_noise(sig, NoiseSpec(snr=2.0, seed=1))
        assert out.M == sig.M and out.B == sig.B

    def test_empirical_variance_matches_snr(self):
        # 1e5 independent draws of the in-band noise field
        rng = np.random.default_rng(0)
        m, power, snr = 8, 1.7, 4.0
        draws = inband_noise_coefficients(m, power / snr, rng, size=100_000)
        per_draw_power = np.sum(np.abs(draws) ** 2, axis=1)
        assert np.mean(per_draw_power) == pytest.approx(power / snr, rel=0.02)


class TestDetectors:
    def test_coherent_is_identity(self, rng):
        sig = random_coeff_signal(rng, 5)
        assert np.array_equal(detect_coherent(sig), sig.samples)

    def test_direct_constant(self):
        out = intensity_grid(constant(2.0 - 1.0j), 2).values
        assert np.allclose(out, 5.0)
        assert len(out) == 2

    def test_direct_even_entries_are_sample_intensities(self, rng):
        sig = random_coeff_signal(rng, 6)
        out = intensity_grid(sig, 2).values
        assert len(out) == 12
        assert np.allclose(out[::2], np.abs(sig.samples) ** 2, atol=1e-13)

    def test_direct_odd_entries_match_sinc_oracle(self, rng):
        # embed the payload in a long period: the periodic field approaches the
        # finite-support interpolation, so the truncated Eq-style double sum
        # must reproduce the half-sample intensities
        payload = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m_prime = 16_384
        sig = embed_finite_support(payload, M_prime=m_prime)
        out = intensity_grid(sig, 2).values
        offset = (m_prime - 4) // 2
        scale = np.max(out)
        for n_local in range(-1, 4):
            value = half_sample_intensity_oracle(payload, n=n_local, window=10_000)
            direct = out[2 * (offset + n_local) + 1]
            assert abs(value - direct) < 1e-3 * scale

    def test_intensity_channel_drops_half_samples(self, rng):
        sig = random_coeff_signal(rng, 5)
        out = detect_intensity_channel(sig)
        assert np.allclose(out, intensity_grid(sig, 2).values[::2], atol=1e-13)
        assert np.allclose(detect_intensity_channel(constant(1.5j)), 2.25)

    def test_intensity_channel_confuses_family_members(self, rng):
        sig = random_coeff_signal(rng, 4)
        fam = enumerate_family(sig)
        outputs = [detect_intensity_channel(s) for s in fam.signals]
        for out in outputs[1:]:
            assert np.max(np.abs(out - outputs[0])) < 1e-8 * outputs[0].max()


class TestExactMI:
    def test_noiseless_identity_channel(self):
        ch = DiscreteChannel(prior=np.full(4, 0.25), conditional=np.eye(4), M=1)
        est = exact_mi(ch)
        assert est.bits_per_dof == pytest.approx(2.0, abs=1e-12)
        assert est.method == "exact" and est.std_error == 0.0

    def test_output_independent_of_input(self):
        cond = np.tile([0.3, 0.7], (3, 1))
        ch = DiscreteChannel(prior=np.full(3, 1 / 3), conditional=cond, M=1)
        assert exact_mi(ch).bits_per_dof == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_channel(self):
        p = 0.11
        cond = np.array([[1 - p, p], [p, 1 - p]])
        ch = DiscreteChannel(prior=np.array([0.5, 0.5]), conditional=cond, M=1)
        assert exact_mi(ch).bits_per_dof == pytest.approx(1 - binary_entropy(p), abs=1e-12)

    def test_recomputation_is_bit_identical(self):
        cond = np.array([[0.9, 0.1], [0.2, 0.8]])
        ch = DiscreteChannel(prior=np.array([0.4, 0.6]), conditional=cond, M=2)
        assert exact_mi(ch).bits_per_dof == exact_mi(ch).bits_per_dof

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pmf_rejected(self, bad):
        # a NaN row sums to NaN, which no comparison with 1 rejects
        with pytest.raises(ValueError, match="finite"):
            DiscreteChannel(prior=np.array([0.5, 0.5]),
                            conditional=np.array([[bad, 0.5], [0.5, 0.5]]), M=1)
        with pytest.raises(ValueError, match="finite"):
            DiscreteChannel(prior=np.array([bad, 0.5]), conditional=np.eye(2), M=1)

    def test_invalid_pmf_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteChannel(prior=np.array([0.5, 0.4]), conditional=np.eye(2), M=1)
        with pytest.raises(ValueError, match="rows"):
            DiscreteChannel(prior=np.array([0.5, 0.5]),
                            conditional=np.array([[0.5, 0.4], [1.0, 0.0]]), M=1)


def qpsk_waveforms(M):
    import itertools

    points = psk(4)
    return [
        PeriodicSignal(M=M, B=1.0, samples=np.array(tup))
        for tup in itertools.product(points, repeat=M)
    ]


class TestChainBound:
    def test_qpsk_squared_noiseless(self):
        report = chain_bound_check(qpsk_waveforms(2))
        assert report.method == "exact_noiseless"
        assert report.mi_coherent == pytest.approx(1.0, abs=1e-12)
        assert report.mi_direct == pytest.approx(0.75, abs=1e-12)
        assert 0.0 <= report.gap <= 0.5 + 1e-12

    def test_m1_gap_is_zero_for_any_constellation(self, rng):
        for points in (psk(4), psk(8), rng.standard_normal(5) + 1j * rng.standard_normal(5)):
            inputs = [constant(c) for c in points]
            report = chain_bound_check(inputs)
            assert report.gap == pytest.approx(0.0, abs=1e-12)
            assert report.bound == 0.0

    def test_equal_intensity_family_achieves_the_bound(self, rng):
        fam = enumerate_family(random_coeff_signal(rng, 4))
        assert len(fam) == 8
        report = chain_bound_check(fam.signals)
        assert report.mi_direct == pytest.approx(0.0, abs=1e-12)
        assert report.mi_coherent == pytest.approx(3 / 4, abs=1e-12)
        assert report.gap == pytest.approx(report.bound, abs=1e-12)

    def test_noisy_m1_gap_exactly_zero(self):
        inputs = [constant(a) for a in (0.5, 1.0, 1.5)]
        report = chain_bound_check(inputs, noise=NoiseSpec(snr=20.0))
        assert report.method == "exact_quantized"
        assert report.mi_coherent > 0.5  # informative channel
        assert report.gap == 0.0

    # amplitudes, SNR, bin width factor and the float.hex of mi_coherent
    # (= mi_direct; gap 0.0).  The on-off rows change in the last bits if
    # amplitude 0 takes chndtr(x, 2, 0) in place of chdtr(2, x)
    EXACT = [
        ((0.0, 1.0), 1e-3, 0.5, "0x1.64bbd2f200000p-21"),
        ((0.0, 1.0), 1e7, 0.1, "0x1.0000000000000p+0"),
        ((0.5, 1.0, 1.5), 20.0, 0.25, "0x1.3b1d1389d1ca0p+0"),
        ((0.0, 0.3, 1.0, 1.0 + 1e-9), 1e5, 0.1, "0x1.80000000000a0p+0"),
        ((1.0, 2.0, 3.0, 4.0), 8.0, 0.5, "0x1.b5d4a2b8784f0p-1"),
    ]

    @pytest.mark.parametrize("amps, snr, width, bits", EXACT)
    def test_noisy_exact_values(self, amps, snr, width, bits):
        report = chain_bound_check([constant(a) for a in amps], noise=NoiseSpec(snr=snr),
                                   bin_width_factor=width)
        assert report.mi_coherent.hex() == report.mi_direct.hex() == bits
        assert report.gap == 0.0

    def test_noisy_snr_above_the_limit_is_refused_before_any_bin(self, monkeypatch):
        # at 110 dB the on-off table held NaN rows and reported 0.5 bits, not 1
        from scipy import special

        def no_cdf(*_, **__):
            raise AssertionError("bins were built for a refused SNR")

        monkeypatch.setattr(special, "chndtr", no_cdf)
        monkeypatch.setattr(special, "chdtr", no_cdf)
        inputs = [constant(0.0), constant(1.0)]
        with pytest.raises(ValueError, match="above 1e\\+10"):
            chain_bound_check(inputs, noise=NoiseSpec(snr=channel.MC_SQUARE_LAW_MAX_SNR * 10))

    def test_noisy_table_above_the_cap_is_refused_before_any_bin(self):
        # the bin width follows the prior-weighted power and the range the
        # amplitude 1: this table would need 4e8 bins, about 3 GiB a row
        inputs = [constant(0.0), constant(1.0)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2 inputs x 4e\\+08 amplitude bins exceed"):
                chain_bound_check(inputs, prior=[1 - 1e-6, 1e-6], noise=NoiseSpec(snr=1e10))
            with pytest.raises(ValueError, match="2 inputs x inf amplitude bins exceed"):
                chain_bound_check(inputs, noise=NoiseSpec(snr=10.0), bin_width_factor=1e-320)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("width", [0.0, -0.1, np.nan])
    def test_noisy_bins_must_have_a_width(self, width):
        # 0 divided by zero and -0.1 built a table with no bins
        with pytest.raises(ValueError, match="bin_width_factor must be positive"):
            chain_bound_check([constant(0.0), constant(1.0)], noise=NoiseSpec(snr=10.0), bin_width_factor=width)

    def test_fine_bins_where_the_cdf_is_flat_to_rounding(self):
        # one chndtr difference among these 2261 bins is -1.1e-16, once
        # refused as a negative probability
        inputs = [constant(a) for a in (0.0, 0.3, 1.0)]
        fine = chain_bound_check(inputs, noise=NoiseSpec(snr=100.0), bin_width_factor=0.01)
        coarse = chain_bound_check(inputs, noise=NoiseSpec(snr=100.0), bin_width_factor=0.02)
        assert fine.gap == 0.0
        assert abs(fine.mi_coherent - coarse.mi_coherent) < 1e-3

    def test_noisy_requires_m1(self, rng):
        with pytest.raises(DensityUnavailableError):
            chain_bound_check(qpsk_waveforms(2), noise=NoiseSpec(snr=10.0))

    def test_discretization_insensitive_to_bin_halving(self):
        inputs = [constant(a) for a in (0.4, 1.0, 1.6)]
        coarse = chain_bound_check(inputs, noise=NoiseSpec(snr=8.0), bin_width_factor=0.25)
        fine = chain_bound_check(inputs, noise=NoiseSpec(snr=8.0), bin_width_factor=0.125)
        assert abs(coarse.mi_coherent - fine.mi_coherent) < 0.01

    @pytest.mark.parametrize("M", [1, 3, 4])
    def test_on_off_keying_with_the_zero_waveform(self, rng, M):
        # every 0/1 word, the all-zero one included, is its own field class
        inputs = [PeriodicSignal(M=M, B=1.0, samples=np.array(word, dtype=float))
                  for word in itertools.product((0, 1), repeat=M)]
        prior = rng.dirichlet(np.ones(len(inputs)))
        report = chain_bound_check(inputs, prior=prior)
        assert report.mi_coherent == pytest.approx(-np.sum(prior * np.log2(prior)) / M, abs=1e-12)
        assert 0.0 <= report.gap <= report.bound + 1e-12

    def test_data_processing_on_random_channels(self, rng):
        # gap >= 0 (Y is a function of Y') on assorted alphabets and priors
        for M, order in [(1, 3), (2, 2), (2, 4), (3, 2)]:
            import itertools

            points = psk(order)
            inputs = [
                PeriodicSignal(M=M, B=1.0, samples=np.array(tup))
                for tup in itertools.product(points, repeat=M)
            ]
            prior = rng.dirichlet(np.ones(len(inputs)))
            report = chain_bound_check(inputs, prior=prior)
            assert report.gap >= -1e-12
            assert report.gap <= report.bound + 1e-9


class TestCounting:
    def test_8psk_m1_collapses_to_one_waveform(self):
        report = counting_entropy(psk(8), M=1)
        assert report.n_distinct == 1
        assert report.h_coherent == 0.0 and report.h_direct == 0.0
        assert report.max_fiber == 1

    def test_qpsk_squared_fiber_multiplicity(self):
        report = counting_entropy(psk(4), M=2)
        assert report.n_distinct == 4
        assert report.max_fiber == 2
        assert report.max_fiber <= report.fiber_bound == 2
        assert report.gap_bits <= 1.0 + 1e-12

    def test_bpsk_cubed_gap_bound(self):
        report = counting_entropy(np.array([1.0, -1.0]), M=3)
        assert report.n_waveforms == 8
        assert report.gap_bits <= 2.0 + 1e-12
        assert report.max_fiber <= report.fiber_bound == 4

    def test_clustering_guard(self):
        points = np.array([1.0, 1.0 + 3e-8])
        with pytest.raises(ClusteringAmbiguityError):
            counting_entropy(points, M=1)

    def test_enumeration_cap(self, monkeypatch):
        # 8^5 = 32768 waveforms: refused before any tuple or array is built
        def no_product(*_, **__):
            raise AssertionError("the alphabet was enumerated before the cap check")

        monkeypatch.setattr(itertools, "product", no_product)
        points = psk(8)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="32768 waveforms exceed the enumeration cap 16384"):
                counting_entropy(points, M=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("points, M, n_distinct", [(psk(4), 7, 4096), (np.array([1.0, -1.0]), 12, 2048)])
    def test_alphabets_beyond_the_old_clustering_cap(self, points, M, n_distinct):
        # 16384 and 4096 waveforms; the dense O(n^2) clustering stopped at 4096
        tracemalloc.start()
        try:
            report = counting_entropy(points, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.n_waveforms == len(points) ** M
        assert report.n_distinct == n_distinct
        assert 0.0 <= report.gap_bits <= report.gap_bound + 1e-9
        assert report.max_fiber <= report.fiber_bound
        assert peak < 64 * 2**20


def _reference_cluster(flat, tol):
    """The dense O(n^2) clustering: rms distances, BFS labels, then the guard band."""
    dim = flat.shape[1]
    dist = np.array([np.sqrt(np.sum(np.abs(flat - row) ** 2, axis=1) / dim) for row in flat])
    labels = np.full(len(flat), -1)
    current = 0
    for i in range(len(flat)):
        if labels[i] != -1:
            continue
        labels[i] = current
        stack = [i]
        while stack:
            (fresh,) = np.nonzero((labels == -1) & (dist[stack.pop()] <= tol))
            labels[fresh] = current
            stack.extend(fresh)
        current += 1
    bad = (labels[:, None] != labels[None, :]) & (dist < 10.0 * tol)
    return labels, [tuple(pair) for pair in np.argwhere(np.triu(bad, 1))]


def _kdtree_cluster(flat, tol):
    """The k-d-tree clustering: pairs within the padded guard band in a fixed
    orthonormal 3-d projection, their exact rms distances, scipy's components."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    flat = np.ascontiguousarray(flat, dtype=complex)
    n, dim = flat.shape
    real = flat.view(float)
    width = real.shape[1]
    projection = np.linalg.qr(np.random.default_rng(0).standard_normal((width, min(3, width))))[0]
    pairs = cKDTree(real @ projection).query_pairs(10.1 * tol * np.sqrt(dim), output_type="ndarray")
    i, j = pairs.T
    dist = np.sqrt(np.sum(np.abs(flat[i] - flat[j]) ** 2, axis=1) / dim)
    near = dist <= tol
    _, label = connected_components(coo_array((np.ones(near.sum()), (i[near], j[near])), shape=(n, n)))
    _, first = np.unique(label, return_index=True)  # number the components by first appearance
    rank = np.empty(len(first), dtype=int)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[label]


def _pair_set(pairs):
    return sorted(zip(*(np.concatenate(side).tolist() for side in zip(*pairs))))


def _counting_rows(points, M):
    """The (rows, tol) of each clustering that counting_entropy runs."""
    calls = []
    cluster = channel._cluster

    def record(vectors, tol):
        calls.append((np.asarray(vectors), tol))
        return cluster(vectors, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channel, "_cluster", record)
        counting_entropy(points, M)
    return calls


# counting alphabets from a field of 2 rows to 16384: the benchmark's mix and the cap
COUNTING_ALPHABETS = [("bpsk", 1), ("bpsk", 6), ("bpsk", 9), ("bpsk", 14), ("qpsk", 3), ("qpsk", 4),
                      ("qpsk", 7), ("8psk", 2), ("8psk", 3), ("8psk", 4)]


class TestCluster:
    TOL = 1e-6

    def _clustered_points(self, rng, n_centres, dim, dtype):
        """Shuffled clusters: each centre once, plus draws of it repeated
        exactly or moved by an rms distance below tol; some centres stay alone."""
        centres = rng.standard_normal((n_centres, dim)).astype(dtype)
        if dtype is complex:
            centres += 1j * rng.standard_normal((n_centres, dim))
        which = np.concatenate([np.arange(n_centres), rng.integers(0, n_centres, size=2 * n_centres)])
        nudge = rng.standard_normal((len(which), dim))
        nudge *= 0.9 * self.TOL * rng.random((len(which), 1)) / np.sqrt(np.mean(nudge**2, axis=1, keepdims=True))
        nudge[:n_centres] = 0.0
        nudge[rng.random(len(which)) < 0.5] = 0.0
        points = centres[which] + nudge
        return points[rng.permutation(len(points))]

    @pytest.mark.parametrize("n_centres, dim, dtype", [
        (1, 3, complex), (17, 1, float), (133, 4, complex), (666, 8, float), (666, 6, complex),
    ])
    def test_labels_match_dense_reference(self, rng, n_centres, dim, dtype):
        points = self._clustered_points(rng, n_centres, dim, dtype)
        reference, bad = _reference_cluster(points.astype(complex), self.TOL)
        assert bad == [] and reference.max() + 1 == n_centres
        assert list(channel._cluster(points, self.TOL)) == list(reference)

    @pytest.mark.parametrize("n_centres, dim, dtype", [(133, 4, complex), (666, 8, float), (2000, 2, complex)])
    def test_labels_and_candidates_match_a_kd_tree(self, rng, n_centres, dim, dtype):
        points = self._clustered_points(rng, n_centres, dim, dtype).astype(complex)
        assert list(channel._cluster(points, self.TOL)) == list(_kdtree_cluster(points, self.TOL))
        self._assert_candidates_match_a_kd_tree(np.unique(points, axis=0), self.TOL)

    @pytest.mark.parametrize("name, M", COUNTING_ALPHABETS)
    def test_counting_alphabets_match_a_kd_tree(self, name, M):
        for rows, tol in _counting_rows(named_constellation(name), M):
            assert np.array_equal(channel._cluster(rows, tol), _kdtree_cluster(rows, tol))
            self._assert_candidates_match_a_kd_tree(np.unique(rows, axis=0), tol)

    @staticmethod
    def _assert_candidates_match_a_kd_tree(flat, tol):
        """The sweep's candidates are the key pairs a 1-d k-d tree finds, and
        they hold every pair inside the guard band."""
        from scipy.spatial import cKDTree

        dim = flat.shape[1]
        real = flat.view(float)
        radius = 10.1 * tol * np.sqrt(dim)
        candidates = _pair_set(channel._candidate_pairs(real, radius, 97))
        key = real @ channel._sort_axis(real.shape[1])
        assert candidates == sorted(map(tuple, cKDTree(key[:, None]).query_pairs(radius)))
        guarded = cKDTree(real).query_pairs(10.0 * tol * np.sqrt(dim))
        assert guarded <= set(candidates)

    def test_rows_sharing_the_sort_key_cost_time_not_memory(self, monkeypatch):
        # 4096 distinct rows whose key (the real part) is 0: all n(n-1)/2
        # pairs are candidates, expanded a bounded block at a time.  Rows 2m
        # and 2m+1 are tol/2 apart, and every other pair is much farther
        monkeypatch.setattr(channel, "_sort_axis", lambda width: np.eye(width)[0])
        n = 4096
        points = 1j * (np.arange(n) // 2 + np.arange(n) % 2 * 0.5 * self.TOL)[:, None]
        reference, bad = _reference_cluster(points, self.TOL)
        assert bad == [] and reference.max() + 1 == n // 2
        blocks = list(channel._candidate_pairs(points.view(float), self.TOL, 1 << 16))
        assert sum(len(i) for i, _ in blocks) == n * (n - 1) // 2
        del blocks
        tracemalloc.start()
        try:
            labels = channel._cluster(points, self.TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(labels, reference)
        assert peak < 16 * 2**20  # the 8.4 million candidates alone would take 128 MiB

    def test_guard_band_names_the_smallest_pair(self, rng):
        points = rng.standard_normal((1000, 4))
        points[700] = points[123] + 3.0 * self.TOL  # rms distance 3 tol: inside (tol, 10 tol)
        points[950] = points[400] - 2.0 * self.TOL
        assert _reference_cluster(points.astype(complex), self.TOL)[1] == [(123, 700), (400, 950)]
        dist = np.sqrt(np.sum((points[123] - points[700]) ** 2) / 4)
        with pytest.raises(ClusteringAmbiguityError) as err:
            channel._cluster(points, self.TOL)
        assert str(err.value) == (
            f"outputs 123 and 700 are {dist:.3e} apart, inside the guard band (tol {self.TOL:.3e})"
        )

    def test_exact_copies_cost_no_pairs(self):
        # thousands of copies of one waveform are one output, in memory O(n)
        sig = random_coeff_signal(np.random.default_rng(5), 4)
        tracemalloc.start()
        try:
            report = chain_bound_check([sig] * 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.mi_coherent == report.mi_direct == 0.0
        assert peak < 64 * 2**20


class TestCapacitySearch:
    def test_bsc_capacity_at_uniform_prior(self):
        p = 0.11
        cond = np.array([[1 - p, p], [p, 1 - p]])
        capacity, prior = capacity_prior_search(cond, M=1)
        assert capacity == pytest.approx(1 - binary_entropy(p), abs=1e-9)
        assert np.allclose(prior, [0.5, 0.5])

    def test_maximizing_prior_transfer_on_family_channel(self, rng):
        # the C_c-achieving prior, pushed through the direct channel, lands in
        # [C_c - (M-1)/M, C_c]
        fam = enumerate_family(random_coeff_signal(rng, 3))
        assert len(fam) == 4
        capacity, prior = capacity_prior_search(np.eye(4), M=3)
        assert capacity == pytest.approx(2 / 3, abs=1e-9)
        report = chain_bound_check(fam.signals, prior=prior)
        assert capacity - report.bound - 1e-9 <= report.mi_direct <= capacity + 1e-9

    def test_noiseless_alphabet_of_eight(self):
        capacity, prior = capacity_prior_search(np.eye(8), M=2)
        assert capacity == pytest.approx(np.log2(8) / 2, abs=1e-12)
        assert np.allclose(prior, 1 / 8)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_z_channel_closed_form(self, p):
        # input 0 is received intact; input 1 turns into 0 with probability p
        cond = np.array([[1.0, 0.0], [p, 1 - p]])
        capacity, prior = capacity_prior_search(cond, M=1)
        assert capacity == pytest.approx(np.log2(1 + (1 - p) * p ** (p / (1 - p))), abs=1e-9)
        assert prior.sum() == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(channel, "BA_MAX_ITER", 3)
        with pytest.raises(FloatingPointError, match="did not meet in 3 iterations"):
            capacity_prior_search(np.array([[1.0, 0.0], [0.3, 0.7]]), M=1)


class TestI0e:
    """The square-law densities' exp(-z) I0(z), against scipy's Cephes i0e."""

    EDGES = [0.0, 5e-324, 1e-300, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0), 1e300, np.inf]

    @staticmethod
    def assert_bitwise_scipy(z):
        from scipy import special

        expected = special.i0e(z).view(np.int64)
        kept, out, work = z.copy(), np.empty_like(z), np.empty((5, z.size))
        assert channel._i0e(z, out, work) is out
        np.testing.assert_array_equal(out.view(np.int64), expected)
        np.testing.assert_array_equal(z, kept)
        # in place, as the densities call it
        assert channel._i0e(z, z, work) is z
        np.testing.assert_array_equal(z.view(np.int64), expected)

    def test_edges(self):
        self.assert_bitwise_scipy(np.array(self.EDGES))
        for z in self.EDGES:  # each on its own, so that every branch runs whole
            self.assert_bitwise_scipy(np.array([z]))

    @pytest.mark.parametrize("low, high", [(0.0, 8.0), (8.0, 1e3), (0.0, 40.0)])
    def test_random_draws_in_each_branch(self, low, high):
        rng = np.random.default_rng(int(high))
        self.assert_bitwise_scipy(rng.uniform(low, high, 100_000))

    def test_random_magnitudes(self):
        rng = np.random.default_rng(0)
        self.assert_bitwise_scipy(np.exp(rng.uniform(-745.0, 709.0, 100_000)).reshape(10, 100, 100))


class TestMonteCarloBlocks:
    """The Monte-Carlo blocks' statistics, pooled in block order."""

    @pytest.mark.parametrize("n", [*range(1, 10), 15, 16, 17, 24, 127, 128, 129, 212, 256, 300])
    def test_pooled_statistics_match_the_whole_sample(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_cauchy(n) * np.exp(rng.normal(0.0, 3.0, n))
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, 5), replace=False))
        parts = [(len(p), p.mean(), np.sum((p - p.mean()) ** 2)) for p in np.split(values, cuts)]
        count, mean, squares = functools.reduce(channel._pooled, parts)
        assert count == n
        assert mean == pytest.approx(values.mean(), rel=1e-12, abs=1e-12 * np.abs(values).max())
        assert squares == pytest.approx(np.sum((values - values.mean()) ** 2), rel=1e-10)


class TestMonteCarlo:
    def test_coherent_gaussian_matches_closed_form(self):
        report = mc_mi("coherent", "gaussian", NoiseSpec(snr=10.0, seed=1), 40_000)
        est = report.estimate
        assert report.closed_form_bits_per_dof == pytest.approx(np.log2(11.0), abs=1e-12)
        assert est.bits_per_dof == pytest.approx(np.log2(11.0), rel=0.02)
        assert est.method == "monte_carlo" and est.bound_direction == "exact"

    def test_vanishing_snr_gives_zero_bits(self):
        report = mc_mi("coherent", "gaussian", NoiseSpec(snr=1e-6, seed=2), 20_000)
        assert abs(report.estimate.bits_per_dof) < 1e-3

    def test_deterministic_given_seed(self):
        a = mc_mi("intensity", "gaussian", NoiseSpec(snr=50.0, seed=7), 5_000)
        b = mc_mi("intensity", "gaussian", NoiseSpec(snr=50.0, seed=7), 5_000)
        assert a.estimate.bits_per_dof == b.estimate.bits_per_dof

    def test_intensity_high_snr_slope_half_bit_per_octave(self):
        lo = mc_mi("intensity", "gaussian", NoiseSpec(snr=2.0**12, seed=3), 50_000)
        hi = mc_mi("intensity", "gaussian", NoiseSpec(snr=2.0**14, seed=4), 50_000)
        diff = hi.estimate.bits_per_dof - lo.estimate.bits_per_dof
        assert diff == pytest.approx(1.0, abs=0.2)

    def test_standard_error_scales_like_inverse_sqrt_n(self):
        sizes = (10_000, 40_000, 160_000)
        ses = [
            mc_mi("intensity", "gaussian", NoiseSpec(snr=10.0, seed=5), n).estimate.std_error
            for n in sizes
        ]
        for a, b in ((0, 1), (1, 2)):
            ratio = ses[a] / ses[b]
            assert 2.0 / 1.5 < ratio < 2.0 * 1.5

    def test_coherent_finite_saturates_at_log2_alphabet(self):
        report = mc_mi("coherent", psk(4), NoiseSpec(snr=1e6, seed=6), 20_000)
        assert report.estimate.bits_per_dof == pytest.approx(2.0, abs=0.01)

    def test_intensity_finite_below_coherent(self):
        noise = NoiseSpec(snr=100.0, seed=8)
        coherent = mc_mi("coherent", psk(4), noise, 30_000)
        intensity = mc_mi("intensity", psk(4), noise, 30_000)
        assert (
            intensity.estimate.bits_per_dof
            < coherent.estimate.bits_per_dof + 3 * coherent.estimate.std_error
        )

    def test_direct_finite_is_flagged_lower_bound(self):
        noise = NoiseSpec(snr=10_000.0, seed=9)
        report = mc_mi("direct", psk(4), noise, 4_000, M=2)
        est = report.estimate
        assert est.bound_direction == "lower"
        coherent = mc_mi("coherent", psk(4), noise, 20_000, M=2)
        assert est.bits_per_dof <= coherent.estimate.bits_per_dof + 3 * est.std_error
        assert est.bits_per_dof > 0.5  # informative at high SNR

    def test_direct_gaussian_names_the_gap(self):
        with pytest.raises(DensityUnavailableError, match="direct"):
            mc_mi("direct", "gaussian", NoiseSpec(snr=10.0, seed=0), 1_000)

    def test_unknown_receiver_and_model(self):
        with pytest.raises(ValueError, match="receiver"):
            mc_mi("homodyne", "gaussian", NoiseSpec(snr=1.0, seed=0), 100)
        with pytest.raises(ValueError, match="input model"):
            mc_mi("coherent", "laplace", NoiseSpec(snr=1.0, seed=0), 100)

    # float.hex of (bits_per_dof, std_error): seed 7, SNR 10, n 3001, M 2.
    # Re-pinned once when each block got its own random stream; every row
    # lies within 2 combined standard errors of the one before.
    EXACT = [
        ("coherent", "gaussian", "0x1.ba9da973d725ap+1", "0x1.9d64ccc1d3df4p-6"),
        ("intensity", "gaussian", "0x1.255c78ebabb37p+0", "0x1.0c0211f8bec81p-6"),
        ("coherent", "qpsk", "0x1.fe6f798f0ab7ap+0", "0x1.71f9c784bc2bfp-10"),
        ("intensity", "qpsk", "0x0.0p+0", "0x0.0p+0"),
        ("intensity", "two-ring", "0x1.cad0de7b80373p-1", "0x1.c90a8ee24b814p-8"),
        ("direct", "qpsk", "0x1.67604d54bed32p-1", "0x1.8f26f59c407a0p-8"),
        # output columns that repeat alphabet values, whose densities are
        # evaluated once per distinct (output, value) and gathered
        ("direct", "qpsk M=4", "0x1.aa04deeb5a18fp-1", "0x1.cc392af78e33ep-8"),
        ("direct", "bpsk M=4", "0x1.3ee7e62f2117fp-1", "0x1.146d8ecbceeabp-8"),
        ("direct", "8psk", "0x1.731d853510459p-1", "0x1.2d8ba4ab34f78p-7"),
        # |x|^2 over 8PSK is 1.0 or 1.0000000000000004: distinct values
        ("intensity", "8psk", "-0x1.4335b813499f1p-52", "0x1.858cf905e7a2bp-56"),
    ]

    # a budget of 4096 terms cuts these cases into smaller blocks, which draw
    # other streams; the rest keep their blocks and their bits
    SMALL_BUDGET = {
        ("direct", "qpsk"): ("0x1.65b6ad1c0d8c3p-1", "0x1.b5efb177164bap-8"),
        ("direct", "qpsk M=4"): ("0x1.aadadfb6aa05ap-1", "0x1.ce4d647bb1016p-8"),
        ("direct", "bpsk M=4"): ("0x1.3d4def1230942p-1", "0x1.2be89b5aa6682p-8"),
        ("direct", "8psk"): ("0x1.6f821ef12489ap-1", "0x1.3049f6c6ee00dp-7"),
        ("intensity", "8psk"): ("-0x1.1526ba8d10ff9p-52", "0x1.71cc7c2029209p-56"),
    }

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [channel.MC_BLOCK_ELEMENTS, 4096])
    @pytest.mark.parametrize("receiver, model, bits, se", EXACT)
    def test_exact_values_across_blocks(self, monkeypatch, block, workers, receiver, model, bits, se):
        # every case spans eight blocks or more
        monkeypatch.setattr(channel, "MC_BLOCK_ELEMENTS", block)
        monkeypatch.setattr(channel, "MC_WORKERS", workers)
        if block == 4096:
            bits, se = self.SMALL_BUDGET.get((receiver, model), (bits, se))
        self.assert_exact(receiver, model, bits, se)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("piece", [257, 4099])
    @pytest.mark.parametrize("receiver, model, bits, se", EXACT)
    def test_exact_values_across_pieces(self, monkeypatch, piece, workers, receiver, model, bits, se):
        # 257 entries cut every table into several pieces, and rows wider than
        # that into runs of columns; 4099 makes pieces of whole rows.  Neither
        # size is a multiple of a vector width, so pieces end mid-vector
        monkeypatch.setattr(channel, "_PIECE_ENTRIES", piece)
        monkeypatch.setattr(channel, "MC_WORKERS", workers)
        self.assert_exact(receiver, model, bits, se)

    @staticmethod
    def assert_exact(receiver, model, bits, se):
        name, _, M = model.partition(" M=")
        inputs = {"gaussian": "gaussian", "two-ring": np.array([0.5, 0.5j, -1.5, -1.5j])}
        points = inputs[name] if name in inputs else named_constellation(name)
        report = mc_mi(receiver, points, NoiseSpec(snr=10.0, seed=7), 3001, M=int(M or 2))
        assert report.estimate.bits_per_dof.hex() == bits
        assert report.estimate.std_error.hex() == se

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # a block drawing from another's stream, or statistics pooled out of
        # order, would change the bits
        monkeypatch.setattr(channel, "MC_WORKERS", 2 * (os.cpu_count() or 1) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = mc_mi("direct", psk(4), NoiseSpec(snr=10.0, seed=7), 3001, M=2)
        finally:
            sys.setswitchinterval(interval)
        assert report.estimate.bits_per_dof.hex() == "0x1.67604d54bed32p-1"
        assert report.estimate.std_error.hex() == "0x1.8f26f59c407a0p-8"

    def test_block_exception_reaches_the_caller(self, monkeypatch):
        # the third block's densities fail while other blocks are in flight
        # (each block's table here is one piece, so one density call)
        error = FloatingPointError("density failed")
        calls = itertools.count()
        density = channel._log_intensity_density

        def failing(*args):
            if next(calls) == 2:
                raise error
            return density(*args)

        direct = dataclasses.replace(channel._RECEIVERS["direct"], log_density=failing)
        monkeypatch.setitem(channel._RECEIVERS, "direct", direct)
        monkeypatch.setattr(channel, "MC_WORKERS", 2)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError) as err:
            mc_mi("direct", psk(4), NoiseSpec(snr=10.0, seed=1), 3001, M=2)
        assert err.value is error
        assert threading.active_count() == threads

    def test_failed_gather_reaches_the_caller(self, monkeypatch):
        # a density that gathers past the end of its table piece fails in
        # every block; the error must reach the caller, and no block may be
        # left waiting on another
        direct = dataclasses.replace(
            channel._RECEIVERS["direct"], log_density=lambda y, key, v, out, work: out[[len(out)]]
        )
        monkeypatch.setitem(channel._RECEIVERS, "direct", direct)
        monkeypatch.setattr(channel, "MC_WORKERS", 2)
        threads = threading.active_count()
        errors = []

        def run():
            try:
                mc_mi("direct", psk(4), NoiseSpec(snr=10.0, seed=1), 3001, M=2)
            except IndexError as exc:
                errors.append(exc)

        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "mc_mi hung after a failed gather"
        assert len(errors) == 1
        assert threading.active_count() == threads

    def test_many_workers_share_the_block_budget(self, monkeypatch):
        # direct BPSK M=12: one row is 4096 waveforms x 24 outputs = 98304
        # entries, a block holds 16 rows and the budget 64, so the budget
        # admits four workers of the 96 asked for; 96 workers of a block each
        # would hold 24 budgets of density terms between them
        monkeypatch.setattr(channel, "MC_BLOCK_ELEMENTS", 64 * 98304)
        monkeypatch.setattr(channel, "MC_WORKERS", 96)
        workers = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                workers.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(channel, "ThreadPoolExecutor", RecordingPool)
        threads = threading.active_count()
        tracemalloc.start()
        try:
            mc_mi("direct", psk(2), NoiseSpec(snr=10.0, seed=1), 200, M=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert workers == [4]
        # the workers and their scratch end with the call
        assert threading.active_count() == threads
        assert peak < direct_memory_bound(psk(2), 12, rows=16, workers=4)

    def test_wide_table_memory_is_bounded(self, monkeypatch):
        # direct BPSK M=10: 1024 waveforms of 20 outputs have 5442 distinct
        # (output, |x|^2) rows, so a 64-waveform block's table holds 348k
        # densities.  Evaluated whole, its temporaries held several times
        # that; in pieces, the table and a fixed scratch are all
        monkeypatch.setattr(channel, "MC_WORKERS", 1)
        mc_mi("direct", psk(2), NoiseSpec(snr=10.0, seed=1), 100, M=10)
        tracemalloc.start()
        try:
            mc_mi("direct", psk(2), NoiseSpec(snr=10.0, seed=1), 1000, M=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < direct_memory_bound(psk(2), 10, rows=64, workers=1)

    def test_densities_evaluated_once_per_distinct_value(self, monkeypatch):
        # direct QPSK M=4: 256 waveforms x 8 outputs, but only 212 distinct
        # (output, |x|^2) pairs; a full evaluation would cost 2048 per sample
        calls = []
        i0e = channel._i0e
        monkeypatch.setattr(channel, "_i0e", lambda z, *args: calls.append(np.size(z)) or i0e(z, *args))
        n = 4_000
        mc_mi("direct", psk(4), NoiseSpec(snr=30.0, seed=1), n, M=4)
        assert 0 < sum(calls) <= n * (212 + 8)

    def test_direct_memory_does_not_grow_with_n(self, monkeypatch):
        # direct QPSK M=4 has 256 waveforms of 8 outputs, so evaluated at once
        # its density terms alone cost 16 KiB per sample.  Its blocks hold 256
        # rows and draw their own symbols and noise, so ten times the samples
        # means more blocks, not larger ones.  One worker, so that no two
        # blocks' temporaries coincide at random; an untraced first call keeps
        # one-time set-up out of the peaks
        monkeypatch.setattr(channel, "MC_WORKERS", 1)
        mc_mi("direct", psk(4), NoiseSpec(snr=30.0, seed=1), 100, M=4)
        peaks = {}
        for n in (4_000, 40_000):
            tracemalloc.start()
            try:
                mc_mi("direct", psk(4), NoiseSpec(snr=30.0, seed=1), n, M=4)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4_000] < direct_memory_bound(psk(4), 4, rows=256, workers=1)
        assert abs(peaks[40_000] - peaks[4_000]) < 64 * 1024

    @pytest.mark.parametrize("kwargs, match", [
        ({"M": 0}, "M must"),
        ({"M": -1}, "M must"),
        ({"noise": NoiseSpec(snr=np.inf)}, "snr must be finite"),
        ({"n_samples": 1}, "n_samples"),
    ])
    def test_rejects_degenerate_arguments(self, kwargs, match):
        args = {"noise": NoiseSpec(snr=10.0), "n_samples": 100, **kwargs}
        with pytest.raises(ValueError, match=match):
            mc_mi("coherent", psk(4), **args)

    def test_direct_alphabet_cap(self):
        with pytest.raises(ValueError, match="cap"):
            mc_mi("direct", psk(8), NoiseSpec(snr=10.0), 100, M=5)

    def test_named_constellations(self):
        assert len(named_constellation("qpsk")) == 4
        assert len(named_constellation("BPSK")) == 2
        with pytest.raises(ValueError, match="unknown"):
            named_constellation("512apsk")
