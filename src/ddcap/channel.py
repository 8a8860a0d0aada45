"""Receivers, in-band noise, and the information accounting between them.

Three receptions of the same band-limited waveform are modelled:

* coherent  -- the M complex rate-B samples (the full field),
* direct    -- the 2M intensity samples at rate 2B (square-law detection),
* intensity -- the M intensity samples at rate B (the legacy lossy channel).

Noise is circular complex Gaussian, white across the M in-band Fourier
coefficients (the ideal square band-pass filter is implicit in generating
only in-band noise).  SNR is the ratio of average signal power to the total
noise variance summed over both quadratures.

Exact entropies and mutual informations are computed on finite channels
(noiseless waveform alphabets, or quantized outputs for M=1); one Monte-Carlo
estimator with exact or auxiliary conditional densities covers the rest.
Waveform alphabets are phase-canonicalized before transmission, since a
global phase is unobservable; reports flag this gauge choice.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# scipy is imported only inside the one kernel that uses it, the noisy
# quantized channel (scipy.special's chi-square CDFs): loading it costs a
# process about a third of a second and 23 MiB at start-up

# canonicalize_phase and intensity_grid stay bound here: call sites
# perfbench/spans.py wraps
from .signals import (
    PeriodicSignal,
    canonical_rotation,
    canonicalize_phase,
    component_roots,
    intensity_grid,
)

#: Largest waveform alphabet for which exact noiseless channels are built.
COUNTING_CAP = 1 << 14

#: Largest number of entries (inputs x amplitude bins) in the noisy quantized
#: ``chain_bound_check`` table: 32 MiB of float64.
QUANTIZED_TABLE_CAP = 1 << 22

#: Noiseless outputs closer than this rms distance, relative to the largest
#: input's rms amplitude (its square for intensities), are one output.
CLUSTER_TOL = 1e-8

#: Largest symbol alphabet the Monte-Carlo estimator enumerates (the
#: |constellation|^M waveforms of the direct receiver).
DIRECT_ALPHABET_CAP = 4096

_LOG2E = float(np.log2(np.e))


class ClusteringAmbiguityError(ValueError):
    """Two outputs are neither identical nor separated: clustering is unsafe."""


class InvariantViolation(RuntimeError):
    """A bound the counting argument proves failed numerically: a defect, not bad input."""


class DensityUnavailableError(NotImplementedError):
    """No exact or auxiliary conditional density is implemented for this case."""


# ---------------------------------------------------------------------------
# noise and receivers


@dataclass(frozen=True)
class NoiseSpec:
    """Additive in-band noise level and the seed that makes it reproducible."""

    snr: float
    seed: int = 0

    def __post_init__(self):
        if not (self.snr > 0):
            raise ValueError(f"snr must be positive (use math.inf for noiseless), got {self.snr}")


def inband_noise_coefficients(M: int, total_variance: float, rng, size=None) -> np.ndarray:
    """Circular Gaussian coefficients, iid across the M in-band harmonics.

    The per-coefficient complex variance is total_variance / M, so the period
    average of the noise field power equals ``total_variance``.
    """
    shape = (M,) if size is None else (size, M)
    coeffs = np.empty(shape, dtype=np.complex128)
    return _inband_noise(M, total_variance, rng, coeffs, np.empty((2, coeffs.size)))


def _circular_normal(rng, out, work):
    """a + 1j b into the complex array out, where a and then b are drawn as
    standard normals in out's shape into the first two rows of the float
    array work."""
    a, b = (row[: out.size].reshape(out.shape) for row in work[:2])
    rng.standard_normal(out=a)
    rng.standard_normal(out=b)
    np.multiply(1j, b, out=out)
    return np.add(a, out, out=out)


def _inband_noise(M, total_variance, rng, out, work):
    """inband_noise_coefficients into the complex array out of shape (..., M),
    with work as _circular_normal's scratch."""
    return np.multiply(np.sqrt(total_variance / (2.0 * M)), _circular_normal(rng, out, work), out=out)


def apply_noise(sig: PeriodicSignal, noise: NoiseSpec) -> PeriodicSignal:
    """Add white in-band noise scaled to the signal's own power."""
    power = sig.power()
    if power == 0.0:
        raise ValueError("signal power is zero, SNR scaling is undefined")
    if np.isinf(noise.snr):
        return sig
    variance = power / noise.snr
    if not np.isfinite(variance):
        raise ValueError(f"snr {noise.snr:.3g} is so small that the noise variance overflows")
    rng = np.random.default_rng(noise.seed)
    coeffs = np.fft.ifft(sig.samples) + inband_noise_coefficients(sig.M, variance, rng)
    return PeriodicSignal(M=sig.M, B=sig.B, samples=np.fft.fft(coeffs))


def detect_coherent(sig: PeriodicSignal) -> np.ndarray:
    """The M complex rate-B samples: a lossless representation of the field."""
    return sig.samples.copy()


def detect_intensity_channel(sig: PeriodicSignal) -> np.ndarray:
    """The M intensity samples at rate B only: phase information is gone."""
    return np.abs(sig.samples) ** 2


# ---------------------------------------------------------------------------
# exact discrete channels


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@dataclass(frozen=True)
class DiscreteChannel:
    """Finite-alphabet channel: input prior and conditional pmf table.

    ``conditional[i, j] = P(Y = j | X = i)``; ``M`` is the number of complex
    degrees of freedom used to normalize information to bits per dof.
    """

    prior: np.ndarray
    conditional: np.ndarray
    M: int

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=np.float64)
        cond = np.asarray(self.conditional, dtype=np.float64)
        if prior.ndim != 1 or cond.ndim != 2 or cond.shape[0] != len(prior):
            raise ValueError("prior and conditional shapes are inconsistent")
        if not (np.all(np.isfinite(prior)) and np.all(np.isfinite(cond))):
            raise ValueError("probabilities must be finite")
        if np.any(prior < 0) or np.any(cond < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(prior.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior sums to {prior.sum()}, not 1")
        rows = cond.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError("conditional rows must each sum to 1")
        if self.M < 1:
            raise ValueError("M must be positive")
        prior.setflags(write=False)
        cond.setflags(write=False)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "conditional", cond)


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information in bits per complex degree of freedom."""

    bits_per_dof: float
    std_error: float
    method: str  # exact | monte_carlo | counting
    bound_direction: str = "exact"  # exact | lower | upper


def exact_mi(ch: DiscreteChannel) -> MIEstimate:
    """I(X;Y) = [H(Y) - H(Y|X)] / M, exactly from the pmf tables."""
    p_y = ch.prior @ ch.conditional
    h_y = _entropy(p_y)
    h_y_given_x = float(
        np.sum(ch.prior * np.array([_entropy(row) for row in ch.conditional]))
    )
    bits = (h_y - h_y_given_x) / ch.M
    cap = np.log2(len(ch.prior)) / ch.M
    if bits < -1e-12 or bits > cap + 1e-9:
        raise FloatingPointError(f"mutual information {bits} outside [0, {cap}]")
    return MIEstimate(bits_per_dof=max(bits, 0.0) + 0.0, std_error=0.0, method="exact")


# ---------------------------------------------------------------------------
# clustering of noiseless outputs


@functools.lru_cache(maxsize=None)
def _sort_axis(width: int) -> np.ndarray:
    """The fixed unit vector of length width whose projection orders rows in the pair search."""
    u = np.random.default_rng(0).standard_normal(width)
    u /= np.linalg.norm(u)
    u.setflags(write=False)
    return u


def _candidate_pairs(points, radius: float, block: int):
    """Every pair of rows of a real (n, width) array whose projections on
    ``_sort_axis(width)`` lie at most ``radius`` apart, as index arrays (i, j)
    with i < j, at most ``block`` pairs at a time.

    The rows are sorted on their projection, and each row's partners are the
    run after it within ``radius``.  The pairs are numbered row by row in that
    order, and each block expands one range of those numbers, so memory stays
    O(n + block) even when every row shares one key.
    """
    key = points @ _sort_axis(points.shape[1])
    order = np.argsort(key)
    key = key[order]
    count = np.searchsorted(key, key + radius, side="right") - np.arange(1, len(key) + 1)
    first = np.cumsum(count) - count  # the number of each sorted row's first pair
    total = int(count.sum())
    for lo in range(0, total, block):
        k = np.arange(lo, min(lo + block, total))
        p = np.searchsorted(first, k, side="right") - 1
        a, b = order[p], order[p + 1 + k - first[p]]
        yield np.minimum(a, b), np.maximum(a, b)


def _cluster(vectors, tol: float) -> np.ndarray:
    """Group the rows of an (n, d) array whose rms distance is <= tol.

    Returns one label per row, numbered in order of first appearance.  Raises
    :class:`ClusteringAmbiguityError` when two rows from different groups are
    closer than 10 * tol: outputs that close but not identical make entropy
    counting unreliable.
    """
    flat = np.array(vectors, dtype=np.complex128, order="C").reshape(len(vectors), -1)
    # exact duplicates share a label: only the first copy of each row enters
    # the pair search, so repeats cost no pairs.  Kept rows stay in input
    # order, so numbering by first appearance and the smallest offending pair
    # come out as over all rows
    _, first_copy, copy_of = np.unique(
        flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1])))[:, 0],
        return_index=True,
        return_inverse=True,
    )
    kept = np.sort(first_copy)
    flat = flat[kept]
    n, dim = flat.shape
    # candidate pairs within the guard band come from a sweep along one fixed
    # direction (a projection lengthens no difference, so it loses no pair;
    # the radius is padded against rounding).  Their exact distances decide,
    # a bounded block of candidates at a time, and only pairs inside the
    # guard band are kept.  Exact differences, because the Gram-matrix
    # shortcut would lose sqrt(eps) of precision to cancellation, which is
    # exactly the scale the guard band watches
    none = np.empty(0, dtype=np.intp)
    found = [(none, none, np.empty(0))]
    radius, block = 10.1 * tol * np.sqrt(dim), max(1, (1 << 16) // dim)
    for a, b in _candidate_pairs(flat.view(np.float64), radius, block):
        d = np.sqrt(np.sum(np.abs(flat[a] - flat[b]) ** 2, axis=1) / dim)
        close = d <= 10.0 * tol
        found.append((a[close], b[close], d[close]))
    i, j, dist = map(np.concatenate, zip(*found))
    near = dist <= tol
    # a component's lowest row is its first: numbering roots in order numbers
    # labels by first appearance
    _, labels = np.unique(component_roots(n, i[near], j[near]), return_inverse=True)
    (bad,) = np.nonzero((labels[i] != labels[j]) & (dist < 10.0 * tol))
    if len(bad):
        k = bad[np.lexsort((j[bad], i[bad]))[0]]
        raise ClusteringAmbiguityError(
            f"outputs {kept[i[k]]} and {kept[j[k]]} are {dist[k]:.3e} apart, inside the "
            f"guard band (tol {tol:.3e})"
        )
    return labels[np.searchsorted(kept, first_copy)[copy_of]]


def _noiseless_labels(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y' labels, y labels) for noiseless reception of the (n, M) input rows.

    Y' is the phase-canonical field and Y the 2M direct-detection intensities.
    """
    coeffs = np.fft.ifft(samples, axis=1)
    rotation = np.ones((len(samples), 1), dtype=np.complex128)
    live = samples.any(axis=1)  # the zero waveform has no phase to fix
    rotation[live] = canonical_rotation(coeffs[live])
    scale = np.sqrt(max(np.mean(np.abs(samples) ** 2, axis=1).max(), 1e-300))
    intensities = np.abs(np.fft.fft(coeffs, n=2 * samples.shape[1], axis=1)) ** 2
    labels_field = _cluster(samples * rotation, CLUSTER_TOL * scale)
    labels_int = _cluster(intensities, CLUSTER_TOL * scale**2)
    return labels_field, labels_int


def _noiseless_mi(prior: np.ndarray, labels: np.ndarray, M: int) -> float:
    """I(X;Y) = H(Y) bits, per dof, of the deterministic channel x -> labels[x]."""
    return _entropy(np.bincount(labels, weights=prior)) / M + 0.0


@dataclass(frozen=True)
class ChainBoundReport:
    """Both receivers' exact mutual information and the chain-rule gap."""

    mi_coherent: float
    mi_direct: float
    gap: float
    bound: float
    M: int
    method: str
    phase_quotient: bool = True


def chain_bound_check(
    inputs,
    prior=None,
    noise: NoiseSpec | None = None,
    bin_width_factor: float = 0.25,
    range_sigmas: float = 6.0,
) -> ChainBoundReport:
    """Exact I(X;Y') and I(X;Y) with the chain-rule sandwich asserted.

    Y' is the coherent output and Y the direct-detection output, both after
    the global-phase quotient (inputs are canonicalized; a noisy coherent
    output is reduced to its canonical form).  Under a shared discretization Y
    is a deterministic function of Y', so
    ``0 <= I(X;Y') - I(X;Y) <= (M-1)/M`` bits per dof must hold; a violation
    raises :class:`InvariantViolation`.

    Noiseless channels are supported for any enumerable input list.  Noisy
    quantized channels are implemented for M=1 only, where the canonical
    coherent output is the scalar field magnitude: amplitude bins of width
    ``bin_width_factor * noise_std`` spanning ``range_sigmas`` deviations, and
    the intensity output is the image of the same bins under squaring.  They
    refuse an SNR above ``MC_SQUARE_LAW_MAX_SNR``, and a table of more than
    ``QUANTIZED_TABLE_CAP`` entries, with ``ValueError``.
    """
    inputs = list(inputs)
    if not inputs:
        raise ValueError("need at least one input waveform")
    M = inputs[0].M
    if any(s.M != M or s.B != inputs[0].B for s in inputs):
        raise ValueError("all inputs must share the same (M, B) grid")
    if prior is None:
        prior = np.full(len(inputs), 1.0 / len(inputs))
    prior = np.asarray(prior, dtype=np.float64)
    if prior.shape != (len(inputs),) or np.any(prior < 0) or abs(prior.sum() - 1.0) > 1e-12:
        raise ValueError("prior must be a probability vector with one entry per input")

    if noise is None or np.isinf(noise.snr):
        labels_field, labels_int = _noiseless_labels(np.stack([s.samples for s in inputs]))
        # Y must be a function of Y': members of one field cluster must share
        # an intensity cluster.
        _, first = np.unique(labels_field, return_index=True)
        if np.any(labels_int != labels_int[first][labels_field]):
            raise ValueError(
                "discretization makes Y ambiguous given Y' (distinct "
                "intensity clusters inside one field cluster)"
            )
        mi_c = _noiseless_mi(prior, labels_field, M)
        mi_d = _noiseless_mi(prior, labels_int, M)
        method = "exact_noiseless"
    else:
        if M != 1:
            raise DensityUnavailableError(
                "noisy quantized chain bound is implemented for M=1 only; "
                "use the Monte-Carlo estimator for larger M"
            )
        # squaring maps the amplitude partition bijectively onto the
        # intensity partition, so both receivers see the same channel table
        ch = _quantized_scalar_channel(inputs, prior, noise.snr, bin_width_factor, range_sigmas)
        mi_c = mi_d = exact_mi(ch).bits_per_dof
        method = "exact_quantized"

    gap = mi_c - mi_d
    bound = (M - 1) / M
    if gap < -1e-9 or gap > bound + 1e-9:
        raise InvariantViolation(f"chain-rule sandwich violated: gap {gap} outside [0, {bound}]")
    return ChainBoundReport(
        mi_coherent=mi_c, mi_direct=mi_d, gap=gap, bound=bound, M=M, method=method
    )


def _quantized_scalar_channel(inputs, prior, snr, bin_width_factor, range_sigmas):
    """Exact quantized-output channel for M=1 constant waveforms.

    The canonical coherent output is |c + noise|; its square is the intensity
    output.  Both use the same amplitude partition, so intensity bins are the
    squared images of the coherent bins, Y is a function of Y' by
    construction, and one table serves both receivers.
    """
    if snr > MC_SQUARE_LAW_MAX_SNR:
        raise ValueError(
            f"snr {snr:.3g} is above {MC_SQUARE_LAW_MAX_SNR:.0e} (100 dB), where the "
            f"quantized channel's chi-square CDF no longer holds"
        )
    if not bin_width_factor > 0:
        raise ValueError(f"bin_width_factor must be positive, got {bin_width_factor}")
    amps = np.array([abs(s.samples[0]) for s in inputs])
    power = float(np.sum(prior * amps**2))
    if power == 0.0:
        raise ValueError("input ensemble has zero power, SNR scaling undefined")
    sigma2 = power / snr  # total complex noise variance
    sigma = np.sqrt(sigma2)
    width = bin_width_factor * sigma
    top = amps.max() + range_sigmas * sigma
    # the bin width follows the prior-weighted power, the range the largest
    # amplitude: a rare strong input asks for many bins
    with np.errstate(over="ignore"):  # inf bins, refused below
        bins = np.ceil((top + width) / width)  # the length of np.arange below
    if not len(amps) * bins <= QUANTIZED_TABLE_CAP:
        raise ValueError(
            f"{len(amps)} inputs x {bins:.3g} amplitude bins exceed the quantized "
            f"channel's table cap {QUANTIZED_TABLE_CAP}"
        )
    from scipy import special

    edges = np.arange(0.0, top + width, width)
    edges = np.append(edges, np.inf)
    v = sigma2 / 2.0  # per-quadrature variance
    cond = np.zeros((len(inputs), len(edges) - 1))
    x = edges**2 / v
    for i, a in enumerate(amps):
        # the noncentral chi-square CDF with 2 degrees of freedom, central at a = 0
        with np.errstate(over="ignore"):
            cdf = special.chndtr(x, 2, a**2 / v) if a else special.chdtr(2, x)
        # where the CDF is flat to rounding, its differences can dip below 0
        cond[i] = np.maximum(np.diff(cdf), 0.0)
        cond[i, -1] += max(0.0, 1.0 - cond[i].sum())
    return DiscreteChannel(prior=prior, conditional=cond, M=1)


# ---------------------------------------------------------------------------
# counting entropies over constellation alphabets


def psk(order: int) -> np.ndarray:
    """Unit-power PSK constellation."""
    if order < 2:
        raise ValueError("order must be >= 2")
    return np.exp(2j * np.pi * np.arange(order) / order)


NAMED_CONSTELLATIONS = {
    "bpsk": lambda: np.array([1.0 + 0j, -1.0 + 0j]),
    "qpsk": lambda: psk(4),
    "8psk": lambda: psk(8),
}


def named_constellation(name: str) -> np.ndarray:
    try:
        return NAMED_CONSTELLATIONS[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown constellation {name!r}; known: {sorted(NAMED_CONSTELLATIONS)}"
        ) from None


@dataclass(frozen=True)
class CountingReport:
    """Noiseless entropy accounting over a constellation^M waveform alphabet."""

    n_waveforms: int
    n_distinct: int
    h_coherent: float
    h_direct: float
    gap_bits: float
    max_fiber: int
    M: int
    phase_quotient: bool = True

    @property
    def gap_bound(self) -> float:
        return float(self.M - 1)

    @property
    def fiber_bound(self) -> int:
        return 2 ** (self.M - 1)


def counting_entropy(constellation, M: int) -> CountingReport:
    """Noiseless H(Y') and H(Y) under the uniform prior over distinct inputs.

    Enumerates the constellation^M sample tuples (at most ``COUNTING_CAP``),
    canonicalizes the waveforms, and clusters both the fields and the
    direct-detection outputs.  Asserts the counting bounds H(Y') - H(Y) <=
    M - 1 bits and max intensity-fiber multiplicity <= 2^(M-1).
    """
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    points = np.asarray(constellation, dtype=np.complex128)
    # beyond 64 axes no index array exists, and |X|^M would be a huge integer
    n_wave = len(points) ** M if M <= 64 else np.inf
    if n_wave > COUNTING_CAP:
        raise ValueError(f"{n_wave} waveforms exceed the enumeration cap {COUNTING_CAP}")
    # row r is the r-th tuple of itertools.product(points, repeat=M)
    samples = points[np.indices((len(points),) * M).reshape(M, -1).T]
    labels_field, labels_int = _noiseless_labels(samples)

    # uniform prior over distinct canonical inputs: one representative each,
    # fibers counted in order of first appearance
    _, first = np.unique(labels_field, return_index=True)
    n_distinct = len(first)
    _, fiber_first, fiber_counts = np.unique(labels_int[first], return_index=True, return_counts=True)
    fiber_counts = fiber_counts[np.argsort(fiber_first)]
    h_coherent = float(np.log2(n_distinct))
    h_direct = _entropy(fiber_counts / n_distinct)
    gap = h_coherent - h_direct
    max_fiber = int(fiber_counts.max())
    if gap > (M - 1) + 1e-9:
        raise InvariantViolation(f"counting bound violated: gap {gap} > {M - 1} bits")
    if max_fiber > 2 ** (M - 1):
        raise InvariantViolation(f"fiber multiplicity {max_fiber} exceeds 2^(M-1) = {2 ** (M - 1)}")
    return CountingReport(
        n_waveforms=n_wave,
        n_distinct=n_distinct,
        h_coherent=h_coherent,
        h_direct=h_direct,
        gap_bits=gap,
        max_fiber=max_fiber,
        M=M,
    )


# ---------------------------------------------------------------------------
# capacity by Blahut-Arimoto

#: Blahut-Arimoto stops once its capacity bounds are this close (bits).
BA_GAP_BITS = 1e-12

#: Blahut-Arimoto iterations before giving up.
BA_MAX_ITER = 100_000


def capacity_prior_search(conditional, M: int):
    """Capacity of a finite channel by Blahut-Arimoto (Blahut 1972; Arimoto 1972).

    Iterates p(x) <- p(x) 2^D(x) / Z with D(x) = D(W(.|x) || p_Y).  Every
    iterate satisfies I(p) <= C <= max_x D(x), so the loop stops once that
    gap is below ``BA_GAP_BITS``; it raises ``FloatingPointError`` after
    ``BA_MAX_ITER`` iterations.  Returns (capacity_bits_per_dof, prior), the
    capacity being the lower bound I(p).
    """
    n_in = np.shape(conditional)[0]
    prior = np.full(n_in, 1.0 / n_in)
    cond = DiscreteChannel(prior=prior, conditional=conditional, M=M).conditional
    log_w = np.log2(cond, out=np.zeros_like(cond), where=cond > 0)
    for _ in range(BA_MAX_ITER):
        p_y = prior @ cond
        log_q = np.log2(p_y, out=np.zeros_like(p_y), where=p_y > 0)
        divergence = np.sum(cond * (log_w - log_q), axis=1)
        mi = float(prior @ divergence)
        if divergence.max() - mi < BA_GAP_BITS:
            return mi / M, prior
        prior = prior * np.exp2(divergence - divergence.max())
        prior /= prior.sum()
    raise FloatingPointError(f"Blahut-Arimoto bounds {mi} <= C <= {divergence.max()} bits "
                             f"did not meet in {BA_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Monte-Carlo estimator

#: Largest number of Monte-Carlo density terms, one per (row, symbol,
#: alphabet entry, output), in the evaluation blocks in flight at once: it
#: caps a block's rows and the threads that evaluate blocks together.  A
#: waveform with more terms than this is refused.  A block holds far fewer
#: than its terms: one density per distinct (output, value), its per-symbol
#: sums, and its thread's fixed scratch.
MC_BLOCK_ELEMENTS = 1 << 22

#: Threads that evaluate Monte-Carlo blocks: one per CPU this process may run on.
MC_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Largest number of waveforms the Monte-Carlo estimator draws.  Its memory
#: does not grow with the count, but its run time does: on two cores 10^10
#: waveforms take about a quarter of an hour with the cheapest case,
#: coherent Gaussian input at M=1 (about 80 ns a waveform), and over a day
#: with direct QPSK at M=4 (about 12 us).
MC_MAX_SAMPLES = 10**10

#: Largest SNR at which the square-law receivers' Monte-Carlo estimate is
#: made (100 dB).  Their noncentral chi-square log density adds terms of
#: order SNR that cancel: against its 60 dB value, direct QPSK at M=2 moves
#: by 5e-9 bits at 100 dB, 4e-6 at 120 dB and 5e-4 at 140 dB, and collapses
#: at 160 dB.  A higher SNR raises ValueError; the coherent receiver has no
#: such cancellation.  The noisy ``chain_bound_check`` holds to the same
#: limit: its chi-square CDF returns NaN for some bins at 110 dB, and its
#: table grows as sqrt(SNR).
MC_SQUARE_LAW_MAX_SNR = 1e10


@dataclass(frozen=True)
class MonteCarloReport:
    """Monte-Carlo MI estimate plus the configuration that produced it."""

    estimate: MIEstimate
    receiver: str
    input_model: str
    snr: float
    seed: int
    n_samples: int
    M: int
    phase_quotient: bool = False
    closed_form_bits_per_dof: float | None = None


def _log_field_density(y, x, v, out, work):
    """log density of x + nu at y into out, nu circular with E|nu|^2 = v.

    y is overwritten; work is unused (the square-law density's scratch).
    """
    # -|y - x|^2 / v - log(pi v), in that order
    np.square(np.abs(np.subtract(y, x, out=y), out=out), out=out)
    np.negative(out, out=out)
    out /= v
    out -= np.log(np.pi * v)
    return out


#: Chebyshev coefficients of exp(-z) I0(z), from the Cephes Math Library's
#: i0.c (S. L. Moshier), whose i0e scipy.special wraps: A in z/2 - 2 on
#: [0, 8], B in 32/z - 2 on (8, inf), where the series is divided by sqrt(z).
_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chbevl(x, coeffs, out, work):
    """Cephes' chbevl(x, coeffs, len(coeffs)) into out, which may be x, with
    the three arrays of ``work``, each shaped like x, as scratch.

    Clenshaw's recurrence b0 <- x*b1 - b2 + c from b0 = coeffs[0] and b1 = 0,
    returning (b0 - b2)/2, in Cephes' operations and order, so the result is
    Cephes' bit for bit.  The first two steps have a scalar b1 or b2 (x*c0 -
    0 is x*c0 exactly); after them the three arrays rotate, the oldest
    taking each new b0.
    """
    prev, cur, new = work
    np.multiply(x, coeffs[0], out=prev)
    prev += coeffs[1]
    np.multiply(x, prev, out=cur)
    cur -= coeffs[0]
    cur += coeffs[2]
    for c in coeffs[3:]:
        np.multiply(x, cur, out=new)
        new -= prev
        new += c
        prev, cur, new = cur, new, prev
    # cur holds the last b0 and new that step's b2
    np.subtract(cur, new, out=out)
    out *= 0.5
    return out


def _i0e_near(z, out, work):
    """Cephes' i0e on z <= 8 into out, which may be z."""
    x = np.divide(z, 2.0, out=out)
    x -= 2.0
    return _chbevl(x, _I0E_A, out, work[:3])


def _i0e_far(z, out, work):
    """Cephes' i0e on z > 8 (or nan) into out, which may be z."""
    x = np.divide(32.0, z, out=work[3])
    x -= 2.0
    _chbevl(x, _I0E_B, x, work[:3])
    return np.divide(x, np.sqrt(z, out=out), out=out)


def _i0e(z, out, work):
    """exp(-z) I0(z) for z >= 0 into out, which may be z: scipy.special.i0e
    bit for bit, without loading scipy.

    z and out are C-contiguous.  work is a float array of five rows of at
    least z.size entries: three Clenshaw rows, the far branch's argument and
    a branch's part.  A table in one branch is evaluated whole; a mixed one
    is gathered into its two branches and scattered back, by index: boolean
    masks cost several times more here.  Nothing the table's size is
    allocated but its branch mask and indices, so a caller that evaluates a
    wide table in pieces through one reused ``work`` keeps its memory to the
    piece's size: scratch freed and allocated on every call has its pages
    returned and faulted in again.
    """
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)  # views: both are contiguous
    n = flat_z.size
    near = flat_z <= 8.0
    if near.all():
        _i0e_near(flat_z, flat_out, work[:4, :n])
    elif not near.any():
        _i0e_far(flat_z, flat_out, work[:4, :n])
    else:
        for index, branch in ((np.flatnonzero(near), _i0e_near), (np.flatnonzero(~near), _i0e_far)):
            # mode="clip": with out=, take's default mode buffers a copy of out
            part = np.take(flat_z, index, out=work[4, : len(index)], mode="clip")
            np.put(flat_out, index, branch(part, part, work[:4, : len(index)]), mode="clip")
    return out


def _log_intensity_density(y, s, sigma2, out, work):
    """log density of |x + nu|^2 at y (noncentral chi-square) into out, for
    s = |x|^2 and nu circular with E|nu|^2 = sigma2.

    work is a float array of six rows of at least y.size entries: z, then
    _i0e's five; s may be the first row, shaped like y.
    """
    v = sigma2 / 2.0
    z = work[0, : y.size].reshape(y.shape)
    # -log(2v) - (y + s)/(2v) + z + log(i0e(z)), z = sqrt(max(y s, 0))/v, in
    # that order, in place; the first terms are formed before z, which may
    # overwrite s
    np.add(y, s, out=out)
    out /= 2.0 * v
    np.subtract(-np.log(2.0 * v), out, out=out)
    np.multiply(y, s, out=z)
    np.maximum(z, 0.0, out=z)
    np.sqrt(z, out=z)
    z /= v
    out += z
    # log I0(z) = z + log(i0e(z)), overflow-safe
    out += np.log(_i0e(z, z, work[1:]), out=z)
    return out


def _field_gaussian_bits(y, x, v, out, work):
    """log2 q(y|x)/p(y) for unit-power Gaussian x into out: y is circular
    Gaussian with variance 1 + v.  y is overwritten, and work's first row
    is scratch."""
    # (-|y - x|^2 / v + |y|^2 / (1 + v)) log2(e) + log2((1 + v) / v)
    p = work[0, : y.size].reshape(y.shape)
    np.square(np.abs(y, out=p), out=p)
    p /= 1.0 + v
    np.square(np.abs(np.subtract(y, x, out=y), out=out), out=out)
    np.negative(out, out=out)
    out /= v
    out += p
    out *= _LOG2E
    out += np.log2((1.0 + v) / v)
    return out


def _intensity_gaussian_bits(y, x, v, out, work):
    """log2 q(y|x)/p(y) for unit-power Gaussian x into out: y is exponential
    with mean 1 + v.  work is _log_intensity_density's."""
    s = work[0, : y.size].reshape(y.shape)
    np.square(np.abs(x, out=s), out=s)
    _log_intensity_density(y, s, v, out, work)
    # (log q(y|x) - (-log(1 + v) - y / (1 + v))) log2(e)
    log_p = np.divide(y, 1.0 + v, out=s)
    np.subtract(-np.log(1.0 + v), log_p, out=log_p)
    out -= log_p
    out *= _LOG2E
    return out


def _pooled(a, b):
    """(count, mean, sum of squared deviations) of two samples together, from
    each one's (Chan, Golub & LeVeque, 1979)."""
    count = a[0] + b[0]
    delta = b[1] - a[1]
    return count, a[1] + delta * (b[0] / count), a[2] + b[2] + delta**2 * (a[0] * b[0] / count)


def _bounded_map(pool, fn, n, ahead):
    """fn(0), ..., fn(n-1) on the pool, returned in order, with at most
    ``ahead`` calls submitted whose results have not been returned."""
    pending = collections.deque()
    for i in range(n):
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, i))
    while pending:
        yield pending.popleft().result()


def _fields(coeffs, oversample):
    """Rows of L Fourier coefficients -> the field at oversample * L points per period."""
    if oversample == 1:  # receivers at rate B see one-sample symbols: the coefficient is the sample
        return coeffs
    return np.fft.fft(coeffs, n=oversample * coeffs.shape[-1], axis=-1)


def _view(buffer, shape):
    """The first entries of a 1-d buffer, as a C-contiguous view of the given shape."""
    return buffer[: math.prod(shape)].reshape(shape)


def _pieces(rows, width, size):
    """A (rows, width) table as rectangles (r0, r1, c0, c1) of at most
    ``size`` entries each, as few as fit and of nearly equal size: runs of
    whole rows where a row fits, else one row cut into runs of columns."""
    if width <= size:
        step = -(-rows // -(-rows // (size // width)))
        for r0 in range(0, rows, step):
            yield r0, min(r0 + step, rows), 0, width
    else:
        step = -(-width // -(-width // size))
        for r0 in range(rows):
            for c0 in range(0, width, step):
                yield r0, r0 + 1, c0, min(c0 + step, width)


@dataclass(frozen=True)
class _Receiver:
    """One receiver as the Monte-Carlo estimator sees it."""

    oversample: int  # output samples per rate-B sample
    square_law: bool  # detects |field|^2 rather than the field
    # log q(y | key, noise variance v) per output sample into out, with work as
    # scratch; the key of a noiseless field x is |x|^2 at a square-law
    # receiver and x itself at the coherent one
    log_density: Callable
    gaussian_bits: Callable | None  # closed-form log2 q(y|x)/p(y) under Gaussian input, into out
    bound_direction: str


_RECEIVERS = {
    "coherent": _Receiver(1, False, _log_field_density, _field_gaussian_bits, "exact"),
    "intensity": _Receiver(1, True, _log_intensity_density, _intensity_gaussian_bits, "exact"),
    "direct": _Receiver(2, True, _log_intensity_density, None, "lower"),
}


#: Mixture entries, one per (row, symbol, alphabet entry), in one
#: Monte-Carlo block: the rows whose draws, densities and sums are made at
#: once, small enough to stay in cache.
_BLOCK_ENTRIES = 1 << 16

#: Density-table entries evaluated at once: a block's table is cut into
#: pieces of this many, so each worker's scratch is fixed whatever the table's
#: width.  Smaller pieces cost more ufunc calls per table, each of which takes
#: the GIL back.
_PIECE_ENTRIES = _BLOCK_ENTRIES // 2


#: At an SNR so extreme that the float64 densities overflow, the estimator
#: raises FloatingPointError instead of warning and returning inf or nan.
_RAISE_ON_OVERFLOW = np.errstate(divide="raise", over="raise", invalid="raise")


@_RAISE_ON_OVERFLOW
def mc_mi(
    receiver: str,
    input_model,
    noise: NoiseSpec,
    n_samples: int,
    M: int = 1,
) -> MonteCarloReport:
    """Monte-Carlo mutual information in bits per complex degree of freedom.

    Parameters
    ----------
    receiver : {"coherent", "direct", "intensity"}
    input_model : "gaussian" or a complex constellation array
        Gaussian means iid circular coefficients; a constellation is used iid
        per rate-B sample (uniform prior).
    noise : NoiseSpec
        Its SNR must be finite.
    n_samples : int
        Number of transmitted waveforms (>= 10^4 for quotable numbers).
    M : int
        Degrees of freedom per waveform, at least 1.

    One estimator serves every receiver.  It averages log2 q(y|x) -
    log2 p(y) per waveform, with p(y) in closed form for Gaussian input and
    a mixture over the symbol alphabet for a constellation.  A symbol is one
    rate-B sample, except at the direct receiver, whose 2M outputs mix
    neighbouring samples: there it is the whole waveform, and
    ``DIRECT_ALPHABET_CAP`` on the symbol alphabet is the only limit on
    |constellation|^M.  The mixture's densities depend on a symbol only
    through one value per output (|x|^2 at a square-law receiver, x at the
    coherent one), so they are evaluated once per distinct (output, value)
    and gathered: 212 evaluations per direct QPSK M=4 waveform instead of
    256 x 8.

    The waveforms are cut into blocks of at most ``_BLOCK_ENTRIES`` mixture
    entries and at most ``MC_BLOCK_ELEMENTS`` density terms, and into at
    least eight blocks where there are eight waveforms.  Block b draws its
    symbols and noise from its own stream, seeded by
    ``SeedSequence(noise.seed, spawn_key=(b,))``, and returns the count,
    mean and sum of squared deviations of its waveforms' values, which are
    pooled in block order.  So the partition, every draw and the estimate
    depend on the request alone, bit for bit, and not on the number of
    cores.  A block is laid out outputs-major: each (output, value),
    alphabet entry and symbol is one vector over the block's waveforms, so
    the sums over them add whole vectors, and no (waveform, symbol,
    alphabet, output) tensor is built.

    A block allocates afresh only its density table and its per-symbol
    sums (and, at the direct receiver, its noise's fields).  Its draws,
    noise, outputs and every density temporary go through ``out=`` into a
    scratch that each thread allocates at its first block of the call and
    reuses for the rest, and the table is evaluated in pieces of at most
    ``_PIECE_ENTRIES`` entries, so the scratch does not grow with the
    table's width.  The densities are elementwise, so neither the pieces nor
    the reuse changes a bit of the estimate.

    Blocks run on a pool of one thread per CPU in the process's affinity
    mask (``MC_WORKERS``), but no more than ``MC_BLOCK_ELEMENTS`` holds
    blocks, and at most two blocks per thread are handed to the pool at
    once, so memory is bounded whatever ``n_samples`` is.  More than
    ``MC_MAX_SAMPLES`` waveforms, a waveform of more than
    ``MC_BLOCK_ELEMENTS`` density terms, or an SNR above
    ``MC_SQUARE_LAW_MAX_SNR`` at a square-law receiver raise ``ValueError``
    before anything is drawn, and an SNR so extreme that the float64
    densities overflow raises ``FloatingPointError``.

    The direct receiver's metric treats its correlated outputs as
    independent, so it reports the auxiliary-channel lower bound of Arnold,
    Loeliger, Vontobel, Kavcic & Zeng (IEEE Trans. IT, 2006),
    ``bound_direction="lower"``; the other densities are exact.  The
    coherent/Gaussian case carries its closed form log2(1 + SNR) in the
    report for cross-checking.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    snr = noise.snr
    if not np.isfinite(snr):
        raise ValueError(f"snr must be finite for a Monte-Carlo estimate, got {snr}")
    gaussian = isinstance(input_model, str) and input_model == "gaussian"
    if isinstance(input_model, str) and not gaussian:
        raise ValueError(f"unknown input model {input_model!r}")
    if receiver not in _RECEIVERS:
        raise ValueError(f"unknown receiver {receiver!r}")
    rx = _RECEIVERS[receiver]
    if gaussian and rx.gaussian_bits is None:
        raise DensityUnavailableError(
            "direct receiver with Gaussian input: the joint density of the 2M "
            "correlated intensity samples is not implemented; use a finite "
            "constellation (auxiliary lower bound) or the intensity receiver"
        )
    if rx.square_law and snr > MC_SQUARE_LAW_MAX_SNR:
        raise ValueError(
            f"snr {snr:.3g} is above {MC_SQUARE_LAW_MAX_SNR:.0e} (100 dB), where the "
            f"{receiver} receiver's float64 densities no longer hold"
        )
    length = M if rx.oversample > 1 else 1  # rate-B samples per symbol
    n_alpha = 1
    if not gaussian:
        points = np.asarray(input_model)
        # beyond 64 samples |X|^length would be a huge integer
        n_alpha = len(points) ** length if length <= 64 else np.inf
        if n_alpha > DIRECT_ALPHABET_CAP:
            raise ValueError(
                f"the estimator enumerates the symbol alphabet; {n_alpha} symbols "
                f"exceed the cap {DIRECT_ALPHABET_CAP}"
            )
    row_width = M * rx.oversample * n_alpha  # a waveform's density terms
    if n_samples > MC_MAX_SAMPLES or row_width > MC_BLOCK_ELEMENTS:
        raise ValueError(
            f"n_samples={n_samples} waveforms of {row_width} density terms each are beyond "
            f"the estimator's limits of {MC_MAX_SAMPLES:.0e} waveforms and "
            f"{MC_BLOCK_ELEMENTS} terms per waveform"
        )

    symbols = M // length  # per waveform
    if gaussian:
        v = 1.0 / snr
    else:
        samples = np.array(list(itertools.product(points, repeat=length)))
        v = float(np.mean(np.abs(samples) ** 2)) / snr
        # each output's noiseless field over the alphabet, outputs-major as
        # a block reads it
        columns = np.ascontiguousarray(_fields(np.fft.ifft(samples, axis=1), rx.oversample).T)
        # the density sees an alphabet entry only through its key, |x|^2 at a
        # square-law receiver: one table row per distinct (output, key), and
        # gather[m] maps the alphabet to output m's rows
        key = np.abs(columns) ** 2 if rx.square_law else columns
        col_of, keys, gather = [], [], np.empty(columns.shape, dtype=np.intp)
        for m, column in enumerate(key):
            _, first, inverse = np.unique(column, return_index=True, return_inverse=True)
            gather[m] = len(keys) + inverse
            keys.extend(column[first])
            col_of.extend([m] * len(first))
        keys, col_of = np.array(keys), np.array(col_of)
        log_prior = -np.log(n_alpha)

    # the partition depends on the request alone; at least eight blocks, so
    # that a small run still uses several cores
    rows = max(1, min(_BLOCK_ENTRIES // (symbols * n_alpha), MC_BLOCK_ELEMENTS // row_width,
                      -(-n_samples // 8)))
    threads = max(1, min(MC_WORKERS, MC_BLOCK_ELEMENTS // (rows * row_width)))

    outputs = length * rx.oversample  # per symbol
    y_type = np.float64 if rx.square_law else np.complex128
    # the largest piece of a full block's table; a narrower last block is cut
    # into pieces no larger
    piece = max((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in
                _pieces(1 if gaussian else len(keys), symbols * rows, _PIECE_ENTRIES))
    local = threading.local()

    def scratch():
        """This thread's buffers: allocated for its first block of the call,
        and reused by the rest, so a block allocates afresh only its density
        table and its per-symbol sums."""
        if not hasattr(local, "work"):
            drawn, received = rows * symbols * length, rows * symbols * outputs
            # only the square-law density needs six rows; the draws are spent
            # before the densities' scratch is used, so they share it
            work_rows = 6 if rx.square_law else 1
            floats = np.empty(max(2 * drawn, work_rows * piece))
            local.draws = floats[: 2 * drawn].reshape(2, drawn)
            local.work = floats[: work_rows * piece].reshape(work_rows, piece)
            local.noise = np.empty(drawn, dtype=np.complex128)
            local.x = np.empty(rows * symbols, dtype=np.complex128)
            # a Gaussian block's coherent output is its noise buffer
            local.y = np.empty(0 if gaussian and not rx.square_law else received, dtype=y_type)
            # the square-law density takes its gathered outputs in work's first
            # row, and builds z over them; complex outputs need their own
            complex_gather = not (gaussian or rx.square_law)
            local.gathered = np.empty(piece, dtype=np.complex128) if complex_gather else local.work[0]
        return local

    @_RAISE_ON_OVERFLOW  # pool threads do not inherit the caller's error state
    def evaluate(block):
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(block,)))
        count = min(rows, n_samples - block * rows)
        buf = scratch()
        shape = (count, symbols, outputs)
        if gaussian:  # unit-power circular symbols
            x = _circular_normal(rng, _view(buf.x, shape), buf.draws)
            x /= np.sqrt(2.0)
        else:
            sent = rng.integers(0, n_alpha, size=(count, symbols))
        coeffs = _inband_noise(length, v, rng, _view(buf.noise, (count * symbols, length)), buf.draws)
        fields = _fields(coeffs, rx.oversample).reshape(shape)
        if gaussian:
            y = np.add(x, fields, out=fields)
            if rx.square_law:
                y = np.abs(y, out=_view(buf.y, shape))
                np.square(y, out=y)
            table = np.empty(shape)
            ys, xs, out = (a.reshape(-1) for a in (y, x, table))
            for _, _, c0, c1 in _pieces(1, table.size, piece):
                rx.gaussian_bits(ys[c0:c1], xs[c0:c1], v, out[c0:c1], buf.work)
            bits = table[..., 0].T
        else:
            # outputs-major: a table row is one (output, key) over (symbols,
            # rows), so every sum below adds whole row vectors
            y, x = _view(buf.y, shape[::-1]), _view(buf.x, shape[:2])
            for m in range(outputs):  # x is output m's noiseless field
                # mode="clip" (the indices are valid): with out=, take's
                # default mode buffers a copy of out
                np.take(columns[m], sent, out=x, mode="clip")
                if rx.square_law:
                    np.abs(np.add(fields[..., m], x, out=x), out=y[m].T)
                else:
                    np.add(fields[..., m], x, out=y[m].T)
            if rx.square_law:
                np.square(y, out=y)
            width = symbols * count
            y = y.reshape(outputs, width)
            table = np.empty((len(keys), width))
            for r0, r1, c0, c1 in _pieces(len(keys), width, piece):
                gathered = _view(buf.gathered, (r1 - r0, c1 - c0))
                np.take(y[:, c0:c1], col_of[r0:r1], axis=0, out=gathered, mode="clip")
                rx.log_density(gathered, keys[r0:r1, None], v, table[r0:r1, c0:c1], buf.work)
            per_symbol = table[gather[0]]
            for a0, a1, c0, c1 in _pieces(n_alpha, width, piece):
                part, term = per_symbol[a0:a1, c0:c1], _view(buf.work[0], (a1 - a0, c1 - c0))
                for m in range(1, outputs):
                    part += np.take(table[:, c0:c1], gather[m, a0:a1], axis=0, out=term, mode="clip")
            per_symbol = per_symbol.reshape(n_alpha, symbols, count)
            log_q = np.take_along_axis(per_symbol, sent.T[None], axis=0)[0]
            # logsumexp over the alphabet, in place: per_symbol is not read again
            peak = per_symbol.max(axis=0)
            terms = np.subtract(per_symbol, peak, out=per_symbol)
            terms += log_prior
            np.exp(terms, out=terms)
            bits = (log_q - (peak + np.log(terms.sum(axis=0)))) * _LOG2E
        values = bits.sum(axis=0) / M
        mean = values.mean()
        return count, mean, np.sum((values - mean) ** 2)

    blocks = -(-n_samples // rows)
    with ThreadPoolExecutor(threads) as pool:
        count, mean, squares = functools.reduce(_pooled, _bounded_map(pool, evaluate, blocks, 2 * threads))

    estimate = MIEstimate(
        bits_per_dof=float(mean),
        std_error=float(np.sqrt(squares / (count - 1)) / np.sqrt(count)),
        method="monte_carlo",
        bound_direction=rx.bound_direction,
    )
    return MonteCarloReport(
        estimate=estimate,
        receiver=receiver,
        input_model="gaussian" if gaussian else "constellation",
        snr=snr,
        seed=noise.seed,
        n_samples=n_samples,
        M=M,
        closed_form_bits_per_dof=np.log2(1.0 + snr) if gaussian and receiver == "coherent" else None,
    )
