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
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# scipy is imported inside the two kernels that use it (the quantized
# channel and the intensity density, both for scipy.special): loading it
# costs a process about half a second and 40 MiB at start-up

# canonicalize_phase stays bound here: a call site perfbench/spans.py wraps
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
    return np.sqrt(total_variance / (2.0 * M)) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


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


def detect_direct(sig: PeriodicSignal) -> np.ndarray:
    """The 2M intensity samples at rate 2B.

    Even entries are |E_n|^2; odd entries are the half-sample intensities that
    carry the phase-difference information.
    """
    return intensity_grid(sig, oversample=2).values


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
#: alphabet entry, output), in the evaluation blocks in flight at once.  A
#: waveform with more terms than this is refused.
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


def _log_field_density(y, x, v):
    """log density of x + nu at y, nu circular with E|nu|^2 = v."""
    return -np.abs(y - x) ** 2 / v - np.log(np.pi * v)


def _log_intensity_density(y, x, sigma2):
    """log density of |x + nu|^2 at y (noncentral chi-square), nu circular with E|nu|^2 = sigma2."""
    from scipy import special

    s = np.abs(x) ** 2
    v = sigma2 / 2.0
    z = np.sqrt(np.maximum(y * s, 0.0)) / v
    # log I0(z) = z + log(i0e(z)), overflow-safe
    return -np.log(2.0 * v) - (y + s) / (2.0 * v) + z + np.log(special.i0e(z))


def _field_gaussian_bits(y, x, v):
    """log2 q(y|x)/p(y) for unit-power Gaussian x: y is circular Gaussian with variance 1 + v."""
    return (-np.abs(y - x) ** 2 / v + np.abs(y) ** 2 / (1.0 + v)) * _LOG2E + np.log2((1.0 + v) / v)


def _intensity_gaussian_bits(y, x, v):
    """log2 q(y|x)/p(y) for unit-power Gaussian x: y is exponential with mean 1 + v."""
    return (_log_intensity_density(y, x, v) - (-np.log(1.0 + v) - y / (1.0 + v))) * _LOG2E


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


@dataclass(frozen=True)
class _Receiver:
    """One receiver as the Monte-Carlo estimator sees it."""

    oversample: int  # output samples per rate-B sample
    square_law: bool  # detects |field|^2 rather than the field
    log_density: Callable  # log q(y | noiseless field x, noise variance v) per output sample
    gaussian_bits: Callable | None  # closed-form log2 q(y|x)/p(y) under Gaussian input
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
    least eight blocks where there are eight waveforms.  Block b draws its symbols and noise from its own stream,
    seeded by ``SeedSequence(noise.seed, spawn_key=(b,))``, and returns the
    count, mean and sum of squared deviations of its waveforms' values,
    which are pooled in block order.  So the partition, every draw and the
    estimate depend on the request alone, bit for bit, and not on the number
    of cores.  A block is laid out outputs-major: each (output, value),
    alphabet entry and symbol is one vector over the block's waveforms, so
    the sums over them add whole vectors, and no (waveform, symbol,
    alphabet, output) tensor is built.

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
        alphabet = _fields(np.fft.ifft(samples, axis=1), rx.oversample)
        # the density sees an alphabet entry only through its key, |x|^2 at a
        # square-law receiver: one table row per distinct (output, key),
        # its first entry as representative, so |rep|^2 is the key bit for bit
        key = np.abs(alphabet) ** 2 if rx.square_law else alphabet
        col_of, rep, gather = [], [], np.empty(alphabet.shape, dtype=np.intp)
        for m in range(alphabet.shape[1]):
            _, first, inverse = np.unique(key[:, m], return_index=True, return_inverse=True)
            gather[:, m] = len(rep) + inverse
            rep.extend(alphabet[first, m])
            col_of.extend([m] * len(first))
        rep, col_of = np.array(rep), np.array(col_of)
        log_prior = -np.log(n_alpha)

    # the partition depends on the request alone; at least eight blocks, so
    # that a small run still uses several cores
    rows = max(1, min(_BLOCK_ENTRIES // (symbols * n_alpha), MC_BLOCK_ELEMENTS // row_width,
                      -(-n_samples // 8)))
    threads = max(1, min(MC_WORKERS, MC_BLOCK_ELEMENTS // (rows * row_width)))

    @_RAISE_ON_OVERFLOW  # pool threads do not inherit the caller's error state
    def evaluate(block):
        rng = np.random.default_rng(np.random.SeedSequence(noise.seed, spawn_key=(block,)))
        count = min(rows, n_samples - block * rows)
        if gaussian:  # unit-power circular symbols
            x = (rng.standard_normal((count, symbols, 1)) + 1j * rng.standard_normal((count, symbols, 1)))
            x /= np.sqrt(2.0)
        else:
            sent = rng.integers(0, n_alpha, size=(count, symbols))
            x = alphabet[sent]
        noise_coeffs = inband_noise_coefficients(length, v, rng, size=count * symbols)
        y = x + _fields(noise_coeffs, rx.oversample).reshape(x.shape)
        if rx.square_law:
            y = np.abs(y) ** 2
        if gaussian:
            bits = rx.gaussian_bits(y, x, v)[..., 0].T
        else:
            # outputs-major: a table row is one (output, key) over (symbols,
            # rows), so every sum below adds whole row vectors
            table = rx.log_density(y.T[col_of], rep[:, None, None], v)
            per_symbol = table[gather[:, 0]]
            for m in range(1, gather.shape[1]):
                per_symbol += table[gather[:, m]]
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
