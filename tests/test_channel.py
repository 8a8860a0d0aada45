import dataclasses
import functools
import itertools
import math
import os
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddcap import channel
from ddcap import (
    ClusteringAmbiguityError,
    DensityUnavailableError,
    NoiseSpec,
    PeriodicSignal,
    apply_noise,
    chain_bound_check,
    counting_entropy,
    embed_finite_support,
    enumerate_family,
    half_sample_intensity_oracle,
    intensity_grid,
    mc_mi,
    named_constellation,
    psk,
    random_signal,
)
from ddcap.signals import canonical_rotation, field_grid, field_intensity

from conftest import random_coeff_signal


#: Input scales at which float64 squares and distances of the raw inputs
#: overflow or underflow; the noiseless accounting must not see them.
EXTREME_SCALES = [1e-300, 1e-170, 1e-160, 1e90, 1e150, 1e154, 1e200, 1e290]


def constant(c, B=1.0):
    return PeriodicSignal(M=1, B=B, samples=[c])


def direct_memory_bound(points, M, rows, workers):
    """Bytes the direct receiver's mc_mi may hold at once: per worker, one
    block's density table and per-symbol sums plus the other buffers the
    block allocates, and once, the alphabet's fields, keys and gather map.

    The table has at most a row per distinct (output, |x|^2) and the
    per-symbol sums at most a row per alphabet entry (one per noiseless
    output), each with a column per waveform of the block.
    The block's other buffers are at most seven float rows of a piece for
    its densities' scratch, and its draws, noise, fields and outputs, 64
    bytes per (waveform, output).
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
        draws = channel._inband_noise(m, power / snr, rng, np.empty((100_000, m), dtype=complex),
                                      np.empty((2, 100_000 * m)))
        per_draw_power = np.sum(np.abs(draws) ** 2, axis=1)
        assert np.mean(per_draw_power) == pytest.approx(power / snr, rel=0.02)


class TestDetectors:
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
        out = field_intensity(sig.samples)
        assert np.allclose(out, intensity_grid(sig, 2).values[::2], atol=1e-13)
        assert np.allclose(field_intensity(constant(1.5j).samples), 2.25)

    def test_intensity_channel_confuses_family_members(self, rng):
        sig = random_coeff_signal(rng, 4)
        fam = enumerate_family(sig)
        outputs = [field_intensity(s.samples) for s in fam.signals]
        for out in outputs[1:]:
            assert np.max(np.abs(out - outputs[0])) < 1e-8 * outputs[0].max()


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

    def test_nan_prior_is_refused(self):
        # the NaN entry once dropped out of the entropies: 0.75 and 0.5 bits
        prior = np.full(16, 1 / 16)
        prior[0] = np.nan
        with pytest.raises(ValueError, match="probability vector"):
            chain_bound_check(qpsk_waveforms(2), prior=prior)

    @pytest.mark.parametrize("prior", [
        np.r_[np.inf, np.full(15, 1 / 16)],
        np.r_[-1 / 16, 3 / 16, np.full(14, 1 / 16)],
        np.full(16, 1 / 15),
        np.full(15, 1 / 15),
    ], ids=["inf", "negative", "unnormalized", "short"])
    def test_invalid_prior_is_refused(self, prior):
        with pytest.raises(ValueError, match="probability vector"):
            chain_bound_check(qpsk_waveforms(2), prior=prior)

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("M", [3, 4, 5])
    def test_report_does_not_depend_on_scale(self, M, scale):
        fam = enumerate_family(random_signal(M, seed=3)).signals
        scaled = [PeriodicSignal(M=s.M, B=s.B, samples=s.samples * scale) for s in fam]
        assert chain_bound_check(scaled) == chain_bound_check(fam)

    def test_report_repr_is_stable(self):
        # the counting benchmark ops hash this repr and compare the digests
        # between the passes of one run; the phase-quotient flag is every
        # report's, as the README promises
        assert repr(chain_bound_check(qpsk_waveforms(2))) == (
            "ChainBoundReport(mi_coherent=1.0, mi_direct=0.75, gap=0.25, bound=0.5, M=2, "
            "phase_quotient=True)"
        )

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
        # == cannot tell 0.0 from -0.0: a point mass's entropy has no sign
        assert math.copysign(1.0, report.h_direct) == 1.0
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

    # 8^5 = 32768 waveforms, and beyond 64 samples a count named as a power:
    # refused before any tuple or array is built
    @pytest.mark.parametrize("points, M, count", [
        (psk(8), 5, "32768"),
        (np.array([1.0, -1.0]), 65, "2^65"),
        (np.array([1.0, -1.0]), 10**6, "2^1000000"),
    ])
    def test_enumeration_cap(self, monkeypatch, points, M, count):
        def no_indices(*_, **__):
            raise AssertionError("the alphabet was enumerated before the cap check")

        monkeypatch.setattr(np, "indices", no_indices)
        message = f"{count} waveforms exceed the enumeration cap 16384"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                counting_entropy(points, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    @pytest.mark.parametrize("name, M", [("bpsk", 5), ("qpsk", 3), ("8psk", 2)])
    def test_report_does_not_depend_on_scale(self, name, M, scale):
        points = named_constellation(name)
        assert counting_entropy(points * scale, M) == counting_entropy(points, M)

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


def _all_rows_labels(samples):
    """The noiseless labels with every row's intensity clustered, then checked
    to be a function of the field label: the accounting before the
    intensities were clustered once per field cluster."""
    field = np.array(samples, dtype=np.complex128, order="C")
    real = field.view(np.float64)
    np.ldexp(real, -np.frexp(max(real.max(), -real.min()))[1], out=real)
    coeffs = np.fft.ifft(field, axis=1)
    rotation = np.ones((len(field), 1), dtype=np.complex128)
    live = field.any(axis=1)
    rotation[live] = canonical_rotation(coeffs[live])
    scale = np.sqrt(max(np.mean(np.abs(field) ** 2, axis=1).max(), 1e-300))
    intensities = np.abs(field_grid(coeffs, 2)) ** 2
    field *= rotation
    labels_field = channel._cluster(field, channel.CLUSTER_TOL * scale)
    labels_int = channel._cluster(intensities, channel.CLUSTER_TOL * scale**2)
    running = np.maximum.accumulate(labels_field)
    first = running.searchsorted(np.arange(running[-1] + 1))
    if np.any(labels_int != labels_int[first][labels_field]):
        raise ValueError("discretization makes Y ambiguous given Y' (distinct "
                         "intensity clusters inside one field cluster)")
    return labels_field, labels_int, first


def _impulse(M, raised):
    samples = np.zeros(M)
    samples[0] = 1.0 + raised
    return PeriodicSignal(M=M, B=1.0, samples=samples)


def _moved_member():
    fam = enumerate_family(random_signal(4, seed=3)).signals
    return [fam[0], fam[0], PeriodicSignal(4, 1.0, fam[1].samples * (1 + 1e-8)), fam[2]]


class TestNoiselessParity:
    """Clustering Y once per field cluster labels every alphabet and family as
    clustering every row's Y did, and refuses with the same exceptions."""

    @staticmethod
    def _assert_same(monkeypatch, run, samples):
        new = channel._noiseless_labels(samples)
        old = _all_rows_labels(samples)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(a, b)
        report = repr(run())
        monkeypatch.setattr(channel, "_noiseless_labels", _all_rows_labels)
        assert report == repr(run())

    @pytest.mark.parametrize("name, M", [("bpsk", M) for M in range(1, 15)] + [("qpsk", M) for M in range(1, 8)]
                             + [("8psk", M) for M in range(1, 5)])
    def test_counting_alphabets(self, monkeypatch, name, M):
        points = named_constellation(name)
        samples = np.array(list(itertools.product(points, repeat=M)))
        self._assert_same(monkeypatch, lambda: counting_entropy(points, M), samples)

    @pytest.mark.parametrize("inputs", [
        *(qpsk_waveforms(M) for M in (1, 2)),
        *([PeriodicSignal(M=M, B=1.0, samples=np.array(t)) for t in itertools.product([1.0, -1.0], repeat=M)]
          for M in (1, 2, 3)),
        [constant(c) for c in psk(8)],
        enumerate_family(random_signal(4, seed=7)).signals,
        *(enumerate_family(random_signal(M, seed=seed)).signals for M in range(4, 9) for seed in (0, 1)),
        [random_signal(5, seed=2)] * 7 + [random_signal(5, seed=3)],
    ], ids=["qpsk1", "qpsk2", "bpsk1", "bpsk2", "bpsk3", "8psk1", "family4-seed7",
            *(f"family{M}-seed{seed}" for M in range(4, 9) for seed in (0, 1)), "copies"])
    def test_chain_bound_inputs(self, monkeypatch, inputs):
        self._assert_same(monkeypatch, lambda: chain_bound_check(inputs),
                          np.stack([s.samples for s in inputs]))

    @pytest.mark.parametrize("inputs, error, message", [
        # two fields within the field tolerance whose intensities are not
        ([_impulse(64, 0.0), _impulse(64, 4e-9)], ClusteringAmbiguityError,
         "outputs 0 and 1 are 2.041e-10 apart, inside the guard band (tol 3.906e-11)"),
        ([_impulse(64, 0.0), _impulse(64, 9.5e-9)], ValueError,
         "discretization makes Y ambiguous given Y' (distinct intensity clusters inside one field cluster)"),
        # a family member scaled by 1 + 1e-8 after a copied field: the error
        # names input rows 0 and 2, not positions 0 and 1 among the first rows
        (_moved_member(), ClusteringAmbiguityError,
         "outputs 0 and 2 are 2.981e-09 apart, inside the guard band (tol 1.217e-09)"),
    ], ids=["guard-band", "beyond-guard-band", "between-fields"])
    def test_refusals(self, monkeypatch, inputs, error, message):
        for labels in (channel._noiseless_labels, _all_rows_labels):
            monkeypatch.setattr(channel, "_noiseless_labels", labels)
            with pytest.raises(ValueError) as err:
                chain_bound_check(inputs)
            assert (type(err.value), str(err.value)) == (error, message)


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
        candidates = _pair_set(channel._sweep(*channel._sorted_keys(real), radius, 97))
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
        blocks = list(channel._sweep(*channel._sorted_keys(points.view(float)), self.TOL, 1 << 16))
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

    # coordinates that put rows at distance 0 (signed zeros), inside tol,
    # inside the guard band or beyond it
    _COORDINATES = [0.0, -0.0, 1.0, -1.0, 0.4 * TOL, 3.0 * TOL, 1.0 + 0.3 * TOL, 1.0 + 4.0 * TOL, 20.0 * TOL]

    @settings(max_examples=300, deadline=None)
    @given(
        dim=st.integers(1, 3),
        distinct=st.lists(st.lists(st.sampled_from(_COORDINATES), min_size=6, max_size=6), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=40),
        shared_key=st.booleans(),
    )
    def test_sweep_matches_dense_reference(self, dim, distinct, picks, shared_key):
        # rows repeat in runs of exact copies; with the real part of the first
        # entry as the key, copies are split by other rows with the same key
        rows = np.array(distinct)[:, : 2 * dim].copy().view(complex)
        points = rows[[k % len(rows) for k in picks]]
        reference, bad = _reference_cluster(points, self.TOL)
        with pytest.MonkeyPatch.context() as patch:
            if shared_key:
                patch.setattr(channel, "_sort_axis", lambda width: np.eye(width)[0])
            if not bad:
                assert list(channel._cluster(points, self.TOL)) == list(reference)
                return
            a, b = bad[0]
            dist = np.sqrt(np.sum(np.abs(points[a] - points[b]) ** 2) / dim)
            with pytest.raises(ClusteringAmbiguityError) as err:
                channel._cluster(points, self.TOL)
        assert str(err.value) == (
            f"outputs {a} and {b} are {dist:.3e} apart, inside the guard band (tol {self.TOL:.3e})"
        )

    def test_guard_band_names_the_first_exact_copy(self, rng):
        points = rng.standard_normal((1000, 4))
        points[700] = points[123] + 3.0 * self.TOL
        points[950] = points[400] - 2.0 * self.TOL
        points[50] = points[123]
        assert _reference_cluster(points.astype(complex), self.TOL)[1][:2] == [(50, 700), (123, 700)]
        dist = np.sqrt(np.sum((points[123] - points[700]) ** 2) / 4)
        with pytest.raises(ClusteringAmbiguityError) as err:
            channel._cluster(points, self.TOL)
        assert str(err.value) == (
            f"outputs 50 and 700 are {dist:.3e} apart, inside the guard band (tol {self.TOL:.3e})"
        )

    def test_bit_identical_rows_are_one_label_without_pairs(self, monkeypatch):
        # 16384 copies of one row: the copies are found as key-order
        # neighbours, so the sweep sees one row, where n(n-1)/2 = 134 million
        # pairs would be candidates if each copy entered it
        n = 16384
        points = np.tile(np.random.default_rng(3).standard_normal(14).view(complex), (n, 1))
        swept = []
        sweep = channel._sweep

        def counted(key, order, radius, block):
            swept.append(len(key))
            yield from sweep(key, order, radius, block)

        monkeypatch.setattr(channel, "_sweep", counted)
        tracemalloc.start()
        try:
            labels = channel._cluster(points, self.TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert swept == [1]
        assert not labels.any() and len(labels) == n
        assert peak < 8 * points.nbytes  # the rows take 1.75 MiB


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

    # (waveforms, mixture entries per waveform): eight blocks; fewer than
    # eight waveforms, one block each; one waveform per block where one holds
    # more than a block's entries; 31 full blocks and a short last one
    @pytest.mark.parametrize("n, entries", [(3001, 8), (100, 1), (7, 4096), (20, 65537), (1_000_003, 2)])
    def test_driver_pools_each_blocks_own_stream(self, monkeypatch, n, entries):
        # a stub values kernel that returns its stream's standard normals: the
        # driver's moments are numpy's on the blocks' draws, concatenated in
        # block order under the documented partition, at any worker count
        rows = max(1, min(channel._BLOCK_ENTRIES // entries, -(-n // 8)))
        blocks = -(-n // rows)
        assert blocks >= min(n, 8)
        draws = np.concatenate([
            np.random.default_rng(np.random.SeedSequence(5, spawn_key=(b,))).standard_normal(min(rows, n - b * rows))
            for b in range(blocks)
        ])
        results = []
        for workers in (1, 3):
            counts = []
            monkeypatch.setattr(channel, "MC_WORKERS", workers)
            moments = channel._block_moments(lambda rng, count: counts.append(count) or rng.standard_normal(count),
                                             n, 5, entries, entries)
            assert sorted(counts, reverse=True) == [rows] * (blocks - 1) + [n - (blocks - 1) * rows]
            results.append(moments)
        (count, mean, squares), other = results
        assert (count, mean.hex(), squares.hex()) == (other[0], other[1].hex(), other[2].hex())
        assert count == n
        for value, expected in ((mean, draws.mean()), (squares, np.sum((draws - draws.mean()) ** 2))):
            assert abs(value - expected) <= 8 * np.spacing(abs(expected))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_driver_raises_on_overflow_in_its_threads(self, monkeypatch, workers):
        # pool threads start with numpy's default error state, which warns;
        # the driver must raise there as the caller's estimator does
        monkeypatch.setattr(channel, "MC_WORKERS", workers)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            channel._block_moments(lambda rng, count: np.full(count, 1e308) * 10.0, 100, 1, 1, 1)

    # (MC_WORKERS, density terms per waveform, threads): 13 waveforms per
    # block at 100 waveforms of 8 entries; a budget of 26 rows of terms holds
    # two blocks, and one too small for a block still runs one
    @pytest.mark.parametrize("workers, terms, threads", [(1, 8, 1), (3, 8, 3), (3, channel.MC_BLOCK_ELEMENTS // 26, 2),
                                                         (3, channel.MC_BLOCK_ELEMENTS, 1)])
    def test_driver_threads_and_blocks_ahead(self, monkeypatch, workers, terms, threads):
        monkeypatch.setattr(channel, "MC_WORKERS", workers)
        pools, ahead = [], []
        state = {"submitted": 0, "returned": 0, "most": 0}

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, *args):
                state["submitted"] += 1
                state["most"] = max(state["most"], state["submitted"] - state["returned"])
                return super().submit(fn, *args)

        bounded_map = channel._bounded_map

        def recording_map(pool, fn, n, limit):
            ahead.append(limit)
            for result in bounded_map(pool, fn, n, limit):
                state["returned"] += 1
                yield result

        monkeypatch.setattr(channel, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(channel, "_bounded_map", recording_map)
        count, _, _ = channel._block_moments(lambda rng, count: rng.standard_normal(count), 100, 2, 8, terms)
        assert count == 100
        assert (pools, ahead) == ([threads], [2 * threads])
        assert state["submitted"] == state["returned"] == 8
        assert 1 <= state["most"] <= 2 * threads

    # (receiver, input, M): both kernels at every receiver that has them
    KERNELS = [
        ("coherent", "gaussian", 3),
        ("intensity", "gaussian", 4),
        ("coherent", psk(4), 2),
        ("intensity", np.array([0.5, 1.0, -1.5, 2.0j]), 3),
        ("direct", psk(4), 2),
    ]

    @pytest.mark.parametrize("receiver, model, M", KERNELS, ids=[f"{rx}-{M}" for rx, _, M in KERNELS])
    def test_kernel_values_depend_on_their_stream_and_count_alone(self, monkeypatch, receiver, model, M):
        # every block's values, recomputed out of order from a fresh stream of
        # the block's seed, are the estimator's, bit for bit: a kernel keeps
        # nothing from one block to the next
        monkeypatch.setattr(channel, "MC_WORKERS", 1)
        driver, calls = channel._block_moments, []

        def recording_driver(values, n_samples, seed, entries, terms):
            blocks = []

            def recording(rng, count):
                bits = values(rng, count)
                blocks.append((count, bits.copy()))
                return bits

            calls.append((values, seed, blocks))
            return driver(recording, n_samples, seed, entries, terms)

        monkeypatch.setattr(channel, "_block_moments", recording_driver)
        report = mc_mi(receiver, model, NoiseSpec(snr=10.0, seed=4), 1001, M=M)
        [(values, seed, blocks)] = calls
        assert len(blocks) >= 8 and sum(count for count, _ in blocks) == 1001
        for b in reversed(range(len(blocks))):
            count, bits = blocks[b]
            again = values(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))), count)
            assert again.shape == (count,)
            np.testing.assert_array_equal(again.view(np.int64), bits.view(np.int64))
        everything = np.concatenate([bits for _, bits in blocks])
        assert report.estimate.bits_per_dof == pytest.approx(everything.mean(), rel=1e-13, abs=1e-15)


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

    # amplitudes, SNR, bin width (in noise standard deviations) and the
    # float.hex of the exact MI of the M=1 channel whose output is the bin
    # of |y| that holds it.  The intensity |y|^2 determines that bin, so by
    # data processing each pin is a lower bound on the intensity MI.  The
    # alphabets hold a zero point and two near-equal |x|^2 keys
    QUANTIZED_M1 = [
        ((0.0, 1.0), 1e-3, 0.5, "0x1.64bbd2f200000p-21"),
        ((0.0, 1.0), 1e7, 0.1, "0x1.0000000000000p+0"),
        ((0.5, 1.0, 1.5), 20.0, 0.25, "0x1.3b1d1389d1ca0p+0"),
        ((0.0, 0.3, 1.0, 1.0 + 1e-9), 1e5, 0.1, "0x1.80000000000a0p+0"),
        ((1.0, 2.0, 3.0, 4.0), 8.0, 0.5, "0x1.b5d4a2b8784f0p-1"),
    ]

    @pytest.mark.parametrize("amps, snr, width, pin", QUANTIZED_M1)
    def test_intensity_m1_is_above_its_quantized_channel(self, amps, snr, width, pin):
        est = mc_mi("intensity", np.array(amps, complex), NoiseSpec(snr, seed=0), 20_000, M=1).estimate
        bits, se = est.bits_per_dof, est.std_error
        assert float.fromhex(pin) <= bits + 4 * se + 1e-12
        assert bits <= np.log2(len(amps)) + 4 * se

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

    @pytest.mark.parametrize("receiver, model, M", [
        ("coherent", "gaussian", 1), ("intensity", "gaussian", 1), ("direct", psk(4), 2), ("coherent", psk(2), 3),
    ])
    def test_overflowing_noise_variance_names_the_snr(self, receiver, model, M):
        # 1/snr, or mean|x|^2 / snr, is beyond the float range
        with pytest.raises(ValueError, match=r"^snr 1e-310 is so small that the noise variance overflows$"):
            mc_mi(receiver, model, NoiseSpec(snr=1e-310, seed=0), 300, M=M)

    # float.hex of (bits_per_dof, std_error): seed 7, SNR 10, n 3001, M 2.
    # Re-pinned once when each block got its own random stream; every row
    # lies within 2 combined standard errors of the one before.  Re-pinned
    # again when the mixture came to run over distinct noiseless outputs: each
    # row moved by at most 2 ulps, and intensity 8PSK to exactly 0.
    EXACT = [
        ("coherent", "gaussian", "0x1.ba9da973d725ap+1", "0x1.9d64ccc1d3df4p-6"),
        ("intensity", "gaussian", "0x1.255c78ebabb37p+0", "0x1.0c0211f8bec81p-6"),
        ("coherent", "qpsk", "0x1.fe6f798f0ab7ap+0", "0x1.71f9c784bc2bdp-10"),
        ("intensity", "qpsk", "0x0.0p+0", "0x0.0p+0"),
        ("intensity", "two-ring", "0x1.cad0de7b80372p-1", "0x1.c90a8ee24b814p-8"),
        ("direct", "qpsk", "0x1.67604d54bed32p-1", "0x1.8f26f59c407a0p-8"),
        # output columns that repeat alphabet values, whose densities are
        # evaluated once per distinct (output, value) and gathered
        ("direct", "qpsk M=4", "0x1.aa04deeb5a18ep-1", "0x1.cc392af78e33cp-8"),
        ("direct", "bpsk M=4", "0x1.3ee7e62f2117ep-1", "0x1.146d8ecbceeabp-8"),
        ("direct", "8psk", "0x1.731d853510459p-1", "0x1.2d8ba4ab34f78p-7"),
        # |x|^2 over 8PSK is 1.0 or 1.0000000000000004, one key: a single
        # noiseless output, whose mixture is its own density
        ("intensity", "8psk", "0x0.0p+0", "0x0.0p+0"),
    ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("block", [channel.MC_BLOCK_ELEMENTS, 4096])
    @pytest.mark.parametrize("receiver, model, bits, se", EXACT)
    def test_exact_values_across_blocks(self, monkeypatch, block, workers, receiver, model, bits, se):
        # every case spans eight blocks or more.  A budget of 4096 terms holds
        # fewer blocks, so fewer threads evaluate them, but the partition and
        # every bit stay those of the full budget
        monkeypatch.setattr(channel, "MC_BLOCK_ELEMENTS", block)
        monkeypatch.setattr(channel, "MC_WORKERS", workers)
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
        # direct QPSK M=4: 256 waveforms x 8 outputs, but only 64 distinct
        # (output, |x|^2) pairs once the keys that FFT rounding splits by an
        # ulp or two are joined (212 without); a full evaluation would cost
        # 2048 per sample
        calls = []
        i0e = channel._i0e
        monkeypatch.setattr(channel, "_i0e", lambda z, *args: calls.append(np.size(z)) or i0e(z, *args))
        n = 4_000
        mc_mi("direct", psk(4), NoiseSpec(snr=30.0, seed=1), n, M=4)
        assert 0 < sum(calls) <= n * (64 + 8)

    @pytest.mark.parametrize("name, M, components", [
        ("bpsk", 2, 1), ("bpsk", 3, 4), ("bpsk", 4, 7), ("qpsk", 2, 3), ("qpsk", 3, 16), ("qpsk", 4, 29),
        ("8psk", 2, 5), ("8psk", 3, 64),
    ])
    def test_direct_mixture_components_are_the_intensity_fibers(self, name, M, components):
        # the direct mixture's components are the noiseless outputs that
        # counting clusters, each weighted by its number of alphabet entries
        samples = np.array(list(itertools.product(named_constellation(name), repeat=M)))
        columns = np.fft.fft(np.fft.ifft(samples, axis=1), n=2 * M, axis=1).T
        keys, col_of, gather, output_of, mass = channel._mixture_tables(columns, square_law=True)
        labels = channel._noiseless_labels(samples)[1]
        assert len(mass) == labels.max() + 1 == components
        # one component per fiber and one fiber per component
        assert len(set(zip(output_of.tolist(), labels.tolist()))) == components
        np.testing.assert_array_equal(mass[output_of], np.bincount(labels)[labels])
        assert gather.shape == (2 * M, components)
        np.testing.assert_array_equal(col_of[gather], np.broadcast_to(np.arange(2 * M)[:, None], gather.shape))

    @pytest.mark.parametrize("order", [4, 8, 16])
    def test_equal_power_psk_gives_exactly_zero_at_the_intensity_receiver(self, order):
        # every point has |x|^2 = 1 up to rounding: one noiseless output
        est = mc_mi("intensity", psk(order), NoiseSpec(snr=10.0, seed=3), 3001, M=2).estimate
        assert (est.bits_per_dof, est.std_error) == (0.0, 0.0)
        assert math.copysign(1.0, est.bits_per_dof) == 1.0

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

    @pytest.mark.parametrize("points, M, count", [
        (psk(8), 5, "32768"), (psk(4), 7, "16384"), (np.array([1.0, -1.0]), 65, "2^65"),
    ])
    def test_direct_alphabet_cap(self, monkeypatch, points, M, count):
        # refused before the alphabet is enumerated
        def no_indices(*_, **__):
            raise AssertionError("the alphabet was enumerated before the cap check")

        monkeypatch.setattr(np, "indices", no_indices)
        message = f"the estimator enumerates the symbol alphabet; {count} symbols exceed the cap 4096"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_mi("direct", points, NoiseSpec(snr=10.0), 100, M=M)

    def test_named_constellations(self):
        assert len(named_constellation("qpsk")) == 4
        assert len(named_constellation("BPSK")) == 2
        with pytest.raises(ValueError, match="unknown"):
            named_constellation("512apsk")


class TestSingleOutputAlphabets:
    """Alphabets whose entries all give the receiver one noiseless output.

    Every draw's log q(y|x) is its log p(y), so the estimate is exactly 0 and
    is made without drawing; every refusal still comes first.
    """

    # (receiver, points, M, density terms per waveform)
    CASES = [
        *(("intensity", psk(q), M, q * M) for q in (4, 8, 16) for M in (1, 2, 3)),
        ("direct", psk(2), 2, 16),
        *(("coherent", np.array([1 + 0j]), M, M) for M in (1, 2, 3)),
    ]
    IDS = [f"{rx}-{len(points)}pt-M{M}" for rx, points, M, _ in CASES]

    @staticmethod
    def forbid_draws(monkeypatch):
        def fail(*_, **__):
            raise AssertionError("a single-output alphabet was drawn")

        monkeypatch.setattr(channel.np.random, "default_rng", fail)
        monkeypatch.setattr(channel, "_circular_normal", fail)
        monkeypatch.setattr(channel, "ThreadPoolExecutor", fail)

    @pytest.mark.parametrize("receiver, points, M, width", CASES, ids=IDS)
    def test_exact_zero_without_drawing(self, monkeypatch, receiver, points, M, width):
        self.forbid_draws(monkeypatch)
        threads = threading.active_count()
        report = mc_mi(receiver, points, NoiseSpec(snr=10.0, seed=3), channel.MC_MAX_SAMPLES, M=M)
        est = report.estimate
        assert (est.bits_per_dof, est.std_error) == (0.0, 0.0)
        # == cannot tell 0.0 from -0.0
        assert math.copysign(1.0, est.bits_per_dof) == math.copysign(1.0, est.std_error) == 1.0
        assert est.method == "monte_carlo"
        assert est.bound_direction == ("lower" if receiver == "direct" else "exact")
        assert (report.input_model, report.n_samples, report.M) == ("constellation", channel.MC_MAX_SAMPLES, M)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("receiver, points, M, width", CASES, ids=IDS)
    def test_refusals_come_first(self, monkeypatch, receiver, points, M, width):
        self.forbid_draws(monkeypatch)
        beyond = channel.MC_MAX_SAMPLES + 1
        refusals = [
            (NoiseSpec(snr=10.0), 1, "n_samples must be at least 2"),
            (NoiseSpec(snr=10.0), beyond,
             f"n_samples={beyond} waveforms of {width} density terms each are beyond the estimator's "
             f"limits of 1e+10 waveforms and {channel.MC_BLOCK_ELEMENTS} terms per waveform"),
            (NoiseSpec(snr=1e-310), 300, "snr 1e-310 is so small that the noise variance overflows"),
            # the noise variance is finite, but the squared noisy outputs would overflow
            (NoiseSpec(snr=1e-308), 300,
             f"snr 1e-308 is so small that the {receiver} receiver's noisy intensities overflow float64"),
        ]
        if receiver != "coherent":
            refusals.append((NoiseSpec(snr=1e11), 300,
                             f"snr 1e+11 is above 1e+10 (100 dB), where the {receiver} receiver's "
                             "float64 densities no longer hold"))
        for noise, n_samples, message in refusals:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                mc_mi(receiver, points, noise, n_samples, M=M)

    def test_row_width_refusal_comes_first(self, monkeypatch):
        # 262145 x 16 density terms is beyond the row-width limit of 2^22
        self.forbid_draws(monkeypatch)
        message = ("n_samples=2 waveforms of 4194320 density terms each are beyond the estimator's "
                   "limits of 1e+10 waveforms and 4194304 terms per waveform")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            mc_mi("intensity", psk(16), NoiseSpec(snr=10.0), 2, M=262_145)

    @pytest.mark.parametrize("M", [1, 64, 65, 200])
    def test_one_point_constellation_at_any_length(self, monkeypatch, M):
        # one tuple, which needs no index array and exceeds no cap
        point = np.array([1 + 0j])
        report = counting_entropy(point, M)
        assert (report.n_waveforms, report.n_distinct, report.max_fiber) == (1, 1, 1)
        assert (report.h_coherent, report.h_direct, report.gap_bits) == (0.0, 0.0, 0.0)
        self.forbid_draws(monkeypatch)
        for receiver in ("coherent", "intensity", "direct"):
            est = mc_mi(receiver, point, NoiseSpec(snr=10.0), 100, M=M).estimate
            assert (est.bits_per_dof, est.std_error) == (0.0, 0.0)
