"""Receivers, in-band noise, and the information accounting between them.

Three receptions of the same band-limited waveform are modelled:

* coherent  -- the M complex rate-B samples (the full field),
* direct    -- the 2M intensity samples at rate 2B (square-law detection),
* intensity -- the M intensity samples at rate B (the legacy lossy channel).

Each is one ``_RECEIVERS`` entry, which :func:`mc_mi` estimates.  A single
waveform's outputs come from the signal layer: the coherent output is the
signal's own samples, the direct one ``signals.intensity_grid(sig, 2)`` and
the intensity one ``signals.field_intensity(sig.samples)``.

Noise is circular complex Gaussian, white across the M in-band Fourier
coefficients (the ideal square band-pass filter is implicit in generating
only in-band noise).  SNR is the ratio of average signal power to the total
noise variance summed over both quadratures.

Exact entropies and mutual informations are computed on noiseless waveform
alphabets; one Monte-Carlo estimator with exact or auxiliary conditional
densities covers noisy reception.
Waveform alphabets are phase-canonicalized before transmission, since a
global phase is unobservable; reports flag this gauge choice.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# canonicalize_phase and intensity_grid stay bound here: call sites
# perfbench/spans.py wraps
from .signals import (
    PeriodicSignal,
    canonical_rotation,
    canonicalize_phase,
    component_roots,
    field_grid,
    intensity_grid,
)

#: Largest waveform alphabet for which exact noiseless channels are built.
COUNTING_CAP = 1 << 14

#: Noiseless outputs closer than this rms distance, relative to the largest
#: input's rms amplitude (its square for intensities), are one output.
CLUSTER_TOL = 1e-8

#: Largest symbol alphabet the Monte-Carlo estimator enumerates (the
#: |constellation|^M waveforms of the direct receiver).
DIRECT_ALPHABET_CAP = 4096

_LOG2E = float(np.log2(np.e))


class ClusteringAmbiguityError(ValueError):
    """Outputs ``pair``, ``dist`` apart, are neither identical nor separated: clustering is unsafe."""

    def __init__(self, i, j, dist: float, tol: float):
        self.pair, self.dist = (int(i), int(j)), float(dist)
        super().__init__(f"outputs {i} and {j} are {dist:.3e} apart, inside the guard band (tol {tol:.3e})")


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _circular_normal(rng, out, work):
    """a + 1j b into the complex array out, where a and then b are drawn as
    standard normals in out's shape through the C-contiguous float array
    work, of at least out.size entries, into out's real and imaginary
    parts."""
    draw = work.reshape(-1)[: out.size].reshape(out.shape)
    out.real = rng.standard_normal(out=draw)
    out.imag = rng.standard_normal(out=draw)
    return out


def _inband_noise(M, total_variance, rng, out, work):
    """Circular Gaussian coefficients, iid across the M in-band harmonics, into
    the C-contiguous complex array out of shape (..., M), with work as
    _circular_normal's scratch.

    The per-coefficient complex variance is total_variance / M, so the period
    average of the noise field power equals ``total_variance``.  The real
    factor scales out's float view: the bits of a complex product by
    (factor + 0j).
    """
    _circular_normal(rng, out, work).view(np.float64)[...] *= np.sqrt(total_variance / (2.0 * M))
    return out


def _noise_variance(power, snr):
    """power / snr, the noise variance at ``snr`` for a signal of mean power
    ``power``; refused when it overflows float64."""
    with np.errstate(over="ignore"):  # an overflow is refused below, without a warning
        variance = power / snr
    if not np.isfinite(variance):
        raise ValueError(f"snr {snr:.3g} is so small that the noise variance overflows")
    return variance


def apply_noise(sig: PeriodicSignal, noise: NoiseSpec) -> PeriodicSignal:
    """Add white in-band noise scaled to the signal's own power."""
    with np.errstate(over="ignore"):  # an overflow is refused below, without a warning
        power = sig.power()
    if power == 0.0:
        raise ValueError("signal power is zero, SNR scaling is undefined")
    if not power < math.inf:
        raise ValueError("the signal power, the mean of |sample|^2, overflows float64")
    if np.isinf(noise.snr):
        return sig
    variance = _noise_variance(power, noise.snr)
    rng = np.random.default_rng(noise.seed)
    noise = _inband_noise(sig.M, variance, rng, np.empty(sig.M, dtype=np.complex128), np.empty(sig.M))
    coeffs = np.fft.ifft(sig.samples) + noise
    return PeriodicSignal(M=sig.M, B=sig.B, samples=np.fft.fft(coeffs))


# ---------------------------------------------------------------------------
# exact discrete channels


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p))) + 0.0  # a point mass gives 0.0, not -0.0


@dataclass(frozen=True)
class MIEstimate:
    """Mutual information in bits per complex degree of freedom."""

    bits_per_dof: float
    std_error: float
    method: str  # monte_carlo
    bound_direction: str = "exact"  # exact | lower


# ---------------------------------------------------------------------------
# clustering of noiseless outputs


@functools.lru_cache(maxsize=None)
def _sort_axis(width: int) -> np.ndarray:
    """The fixed unit vector of length width whose projection orders rows in the pair search."""
    u = np.random.default_rng(0).standard_normal(width)
    u /= np.linalg.norm(u)
    u.setflags(write=False)
    return u


def _sorted_keys(points):
    """The projections of the rows of a real (n, width) array on
    ``_sort_axis(width)``, sorted, and the stable order that sorts them.

    einsum forms every key by the same loop over its own row, so
    bit-identical rows get equal keys; a BLAS matrix-vector product need not
    give them, since it may round its last rows in another order than the
    rest.
    """
    key = np.einsum("ij,j->i", points, _sort_axis(points.shape[1]))
    order = np.argsort(key, kind="stable")
    return key[order], order


def _sweep(key, order, radius: float, block: int):
    """Every pair of rows ``order[p], order[q]`` (p < q) whose sorted keys
    lie at most ``radius`` apart, as index arrays (i, j) with i < j, at most
    ``block`` pairs at a time.

    Each row's partners are the run after it within ``radius``.  The pairs are
    numbered row by row in key order, and each block expands one range of
    those numbers, so memory stays O(n + block) even when every row shares
    one key.
    """
    count = np.searchsorted(key, key + radius, side="right") - np.arange(1, len(key) + 1)
    first = np.cumsum(count) - count  # the number of each sorted row's first pair
    total = int(count.sum())
    for lo in range(0, total, block):
        k = np.arange(lo, min(lo + block, total))
        p = np.searchsorted(first, k, side="right") - 1
        a, b = order[p], order[p + 1 + k - first[p]]
        yield np.minimum(a, b), np.maximum(a, b)


def _cluster(vectors, tol: float) -> np.ndarray:
    """Group the rows of a real or complex (n, d) array whose rms distance is <= tol.

    Returns one label per row, numbered in order of first appearance.  Raises
    :class:`ClusteringAmbiguityError` when two rows from different groups are
    closer than 10 * tol: outputs that close but not identical make entropy
    counting unreliable.  The error names the smallest such pair of rows.

    One stable sort of the rows on their projection serves two passes.  The
    first finds exact copies among neighbours with equal keys; the second
    sweeps the remaining rows for pairs within the guard band.
    """
    dtype = np.complex128 if np.iscomplexobj(vectors) else np.float64
    flat = np.array(vectors, dtype=dtype, order="C").reshape(len(vectors), -1)
    n, dim = flat.shape
    real = flat.view(np.float64)
    key, order = _sorted_keys(real)
    # a row bit-identical to its predecessor in key order is a copy of it,
    # and only neighbours with equal keys have their bits compared, as
    # uint64.  A run of copies is kept as its first row, which is its lowest
    # (the sort is stable), and the rest enter no pair, so repeats cost no
    # pairs.  Copies split by another row with the same key are each kept,
    # and join as a pair at distance 0
    (p,) = np.nonzero(key[1:] == key[:-1])
    bits = real.view(np.uint64)
    p = p[np.all(bits[order[p]] == bits[order[p + 1]], axis=1)]
    kept = np.ones(n, dtype=bool)
    kept[p + 1] = False
    heads = order[kept]  # the first row of each run, in key order
    first_of_run = np.empty(n, dtype=np.intp)
    first_of_run[order] = heads[np.cumsum(kept) - 1]
    # candidate pairs within the guard band come from a sweep of the kept rows
    # along the sort axis (a projection lengthens no difference, so it loses
    # no pair; the radius is padded against rounding).  Their exact distances
    # decide, a bounded block of candidates at a time, and only pairs inside
    # the guard band are kept.  Exact differences, because the Gram-matrix
    # shortcut would lose sqrt(eps) of precision to cancellation, which is
    # exactly the scale the guard band watches
    none = np.empty(0, dtype=np.intp)
    found = [(none, none, np.empty(0))]
    radius, block = 10.1 * tol * np.sqrt(dim), max(1, (1 << 16) // dim)
    for a, b in _sweep(key[kept], heads, radius, block):
        d = np.sqrt(np.sum(np.abs(flat[a] - flat[b]) ** 2, axis=1) / dim)
        close = d <= 10.0 * tol
        found.append((a[close], b[close], d[close]))
    i, j, dist = map(np.concatenate, zip(*found))
    near = dist <= tol
    # a component's root is its lowest row and a copy takes the root of its
    # run's first row, so the rows that are their own roots are the first
    # appearances: counting them numbers the labels
    root = component_roots(n, i[near], j[near])[first_of_run]
    labels = (np.cumsum(root == np.arange(n)) - 1)[root]
    (bad,) = np.nonzero((labels[i] != labels[j]) & (dist < 10.0 * tol))
    if len(bad):
        # the lowest row of each set of exact copies is kept, so the smallest
        # pair among kept rows is the smallest over all rows
        k = bad[np.lexsort((j[bad], i[bad]))[0]]
        raise ClusteringAmbiguityError(i[k], j[k], dist[k], tol)
    return labels


def _noiseless_labels(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y' labels, y labels, first rows) for noiseless reception of the (n, M) rows.

    Y' is the phase-canonical field and Y, a function of it, the 2M
    direct-detection intensities.  Only the first row of each field cluster
    has its Y clustered; the rest take its label and must lie within the
    tolerance of its intensity, else :class:`ClusteringAmbiguityError` inside
    the 10 * tol guard band and ``ValueError`` beyond.  So two Y clusters are
    judged by their first rows, up to 2 * tol nearer or farther apart than
    their nearest rows (in PSK alphabets a field cluster's rows are equal).

    The labels do not depend on the inputs' scale: the rows are clustered
    scaled by one power of two to a largest component in [0.5, 1), which is
    exact, and at that scale no square or distance overflows or underflows.
    A clustering error names distances at that scale.
    """
    field = np.array(samples, dtype=np.complex128, order="C")
    real = field.view(np.float64)
    np.ldexp(real, -np.frexp(max(real.max(), -real.min()))[1], out=real)
    coeffs = np.fft.ifft(field, axis=1)
    rotation = np.ones((len(field), 1), dtype=np.complex128)
    live = field.any(axis=1)  # the zero waveform has no phase to fix
    rotation[live] = canonical_rotation(coeffs[live])
    scale = np.sqrt(max(np.mean(np.abs(field) ** 2, axis=1).max(), 1e-300))
    intensities = np.abs(field_grid(coeffs, 2)) ** 2
    field *= rotation
    labels_field = _cluster(field, CLUSTER_TOL * scale)
    # label k first appears where the running maximum of the labels reaches k
    first = np.maximum.accumulate(labels_field).searchsorted(np.arange(labels_field.max() + 1))
    tol = CLUSTER_TOL * scale**2
    try:
        labels_int = _cluster(intensities[first], tol)[labels_field]
    except ClusteringAmbiguityError as err:  # name the rows, not their positions among the first rows
        raise ClusteringAmbiguityError(*first[list(err.pair)], err.dist, tol) from None
    rep = first[labels_field]
    dist = np.sqrt(np.sum((intensities - intensities[rep]) ** 2, axis=1) / intensities.shape[1])
    (bad,) = np.nonzero((dist > tol) & (dist < 10.0 * tol))
    if len(bad):
        k = bad[np.lexsort((bad, rep[bad]))[0]]
        raise ClusteringAmbiguityError(rep[k], k, dist[k], tol)
    if np.any(dist > tol):
        raise ValueError("discretization makes Y ambiguous given Y' (distinct "
                         "intensity clusters inside one field cluster)")
    return labels_field, labels_int, first


@dataclass(frozen=True)
class ChainBoundReport:
    """Both receivers' exact mutual information and the chain-rule gap."""

    mi_coherent: float
    mi_direct: float
    gap: float
    bound: float
    M: int
    phase_quotient: bool = True


def chain_bound_check(inputs, prior=None) -> ChainBoundReport:
    """Exact noiseless I(X;Y') and I(X;Y) with the chain-rule sandwich asserted.

    Y' is the coherent output and Y the direct-detection output, both after
    the global-phase quotient (inputs are canonicalized).  Y is a
    deterministic function of Y', clustered once per field cluster, so
    ``0 <= I(X;Y') - I(X;Y) <= (M-1)/M`` bits per dof must hold; a violation
    raises :class:`InvariantViolation`.
    Noisy reception is estimated by :func:`mc_mi`.
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
    # written so that a NaN entry fails it: every comparison with NaN is False
    if prior.shape != (len(inputs),) or not (np.all(prior >= 0) and abs(prior.sum() - 1.0) <= 1e-12):
        raise ValueError("prior must be a probability vector with one entry per input")

    labels = _noiseless_labels(np.stack([s.samples for s in inputs]))[:2]
    # I(X;Y) = H(Y) bits for the deterministic channels x -> labels[x], per dof
    mi_c, mi_d = (_entropy(np.bincount(y, weights=prior)) / M for y in labels)
    gap = mi_c - mi_d
    bound = (M - 1) / M
    if gap < -1e-9 or gap > bound + 1e-9:
        raise InvariantViolation(f"chain-rule sandwich violated: gap {gap} outside [0, {bound}]")
    return ChainBoundReport(mi_coherent=mi_c, mi_direct=mi_d, gap=gap, bound=bound, M=M)


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


def _alphabet(constellation, length: int, cap: int, refusal: str) -> np.ndarray:
    """The tuples of ``itertools.product(constellation, repeat=length)``, in
    that order, as complex rows.  A constellation that is not a non-empty
    1-d array of finite numbers raises ValueError.  More than ``cap`` tuples
    raise ValueError with ``refusal.format(count=..., cap=cap)`` before
    anything is built; above 64 samples, where no index array exists, the
    count is named as a power.  One point makes one tuple at any length,
    which is never refused.
    """
    malformed = "the constellation must be a non-empty 1-d array of finite complex numbers, got {}"
    try:
        points = np.asarray(constellation)
    except ValueError:  # a ragged sequence
        raise ValueError(malformed.format("a ragged sequence")) from None
    if points.dtype.kind not in "biufc" or points.ndim != 1 or len(points) == 0:
        raise ValueError(malformed.format(f"an array of shape {points.shape} and dtype {points.dtype}"))
    points = points.astype(np.complex128)
    if not np.isfinite(points).all():
        raise ValueError(malformed.format(f"the point {points[~np.isfinite(points)][0]}"))
    k = len(points)
    if k == 1:
        return points[np.zeros((1, length), dtype=np.intp)]
    if length > 64 or k**length > cap:
        raise ValueError(refusal.format(count=k**length if length <= 64 else f"{k}^{length}", cap=cap))
    return points[np.indices((k,) * length).reshape(length, -1).T]


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
    canonicalizes the waveforms, and clusters the fields, then the intensities
    of one waveform per field.  Asserts the counting bounds H(Y') - H(Y) <=
    M - 1 bits and max intensity-fiber multiplicity <= 2^(M-1).
    """
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    samples = _alphabet(constellation, M, COUNTING_CAP,
                        "{count} waveforms exceed the enumeration cap {cap}")
    _, labels_int, first = _noiseless_labels(samples)

    # uniform prior over distinct canonical inputs: one representative each.
    # Their fibers are numbered in order of first appearance, the order in
    # which h_direct sums them
    fiber_counts = np.bincount(labels_int[first])
    n_distinct = int(fiber_counts.sum())
    h_coherent = float(np.log2(n_distinct))
    h_direct = _entropy(fiber_counts / n_distinct)
    gap = h_coherent - h_direct
    max_fiber = int(fiber_counts.max())
    if gap > (M - 1) + 1e-9:
        raise InvariantViolation(f"counting bound violated: gap {gap} > {M - 1} bits")
    if max_fiber > 2 ** (M - 1):
        raise InvariantViolation(f"fiber multiplicity {max_fiber} exceeds 2^(M-1) = {2 ** (M - 1)}")
    return CountingReport(
        n_waveforms=len(samples),
        n_distinct=n_distinct,
        h_coherent=h_coherent,
        h_direct=h_direct,
        gap_bits=gap,
        max_fiber=max_fiber,
        M=M,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo estimator

#: Largest number of float64 entries, the unit of ``_BLOCK_ENTRIES`` and
#: ``_PIECE_ENTRIES``, that the Monte-Carlo runs of blocks in flight hold
#: at once: each run's table, sums, draws and scratch, as its kernel counts
#: them.  It caps the threads that evaluate runs together, but one run is
#: evaluated whatever it holds.  A waveform whose kernel's table holds more
#: entries than this is refused.
MC_BLOCK_ELEMENTS = 1 << 22

#: Threads that evaluate Monte-Carlo runs of blocks: one per CPU this process may run on.
MC_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

#: Largest number of waveforms the Monte-Carlo estimator draws.  Its memory
#: does not grow with the count, but its run time does: on two cores 10^10
#: waveforms take about seven minutes with the cheapest case, coherent
#: Gaussian input at M=1 (about 40 ns a waveform), and about nine hours
#: with direct QPSK at M=4 (about 3.3 us).  An alphabet of one noiseless
#: output is answered without drawing, at any count up to this one.
MC_MAX_SAMPLES = 10**10

#: Largest SNR at which the square-law receivers' Monte-Carlo estimate is
#: made (100 dB).  Their noncentral chi-square log density adds terms of
#: order SNR that cancel: against its 60 dB value, direct QPSK at M=2 moves
#: by 5e-9 bits at 100 dB, 4e-6 at 120 dB and 5e-4 at 140 dB, and collapses
#: at 160 dB.  A higher SNR raises ValueError; the coherent receiver has no
#: such cancellation.
MC_SQUARE_LAW_MAX_SNR = 1e10

#: Square-law keys |x|^2 of one output that lie within this fraction of the
#: output's largest key of each other are one key.  FFT rounding splits
#: equal values by 1-2 ulps (the merges are the same from 2 ulps to 1e-8),
#: and a key moved by it moves a log density by about this times sqrt(SNR),
#: 1e-7 nats at ``MC_SQUARE_LAW_MAX_SNR``.
MC_KEY_RTOL = 1e-12


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
    is gathered into its two branches by ``np.take`` on their indices
    (boolean masks cost several times more here), and each branch is
    written back by indexed assignment, which takes under half the time of
    ``np.put`` for the same bits.  Nothing the table's size is
    allocated but its branch mask and indices, so a Monte-Carlo block that
    evaluates a wide table in pieces through the one ``work`` it allocates
    keeps its memory to the piece's size.
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
            flat_out[index] = branch(part, part, work[:4, : len(index)])
    return out


def _log_intensity_density(y, s, sigma2, out, work):
    """log density of |x + nu|^2 at y (noncentral chi-square) into out, for
    s = |x|^2 and nu circular with E|nu|^2 = sigma2.

    work is a float array of six rows of at least y.size entries: z, then
    _i0e's five; y, or s, may be the first row, shaped like y.
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


def _view(buffer, shape):
    """The first entries of a 1-d buffer, as a C-contiguous view of the given shape."""
    return buffer[: math.prod(shape)].reshape(shape)


def _pieces(rows, width, size):
    """A (rows, width) table as rectangles (r0, r1, c0, c1) of at most
    ``size`` entries each, as few as fit and of nearly equal size: runs of
    whole rows where a row fits, else one row cut into runs of columns.
    The first is the largest."""
    if width <= size:
        step = -(-rows // -(-rows // (size // width)))
        for r0 in range(0, rows, step):
            yield r0, min(r0 + step, rows), 0, width
    else:
        step = -(-width // -(-width // size))
        for r0 in range(rows):
            for c0 in range(0, width, step):
                yield r0, r0 + 1, c0, min(c0 + step, width)


def _mixture_tables(columns, square_law: bool):
    """The density table's rows and the mixture's components over an alphabet.

    ``columns[m, a]`` is output m's noiseless field for alphabet entry a.  A
    density sees an entry only through its key at each output, |x|^2 at a
    square-law receiver (sorted keys whose gaps are at most ``MC_KEY_RTOL``
    times the output's largest are joined in runs) and x at the coherent
    one, so entries with the same keys at every output are one noiseless
    output.  Returns (keys, col_of, gather, output_of, mass): table row r is
    the density at output col_of[r] given key keys[r]; component u's row at
    output m is gather[m, u]; entry a is component output_of[a], which
    mass[u] entries share.
    """
    key = np.abs(columns) ** 2 if square_law else columns
    keys, rows = [], np.empty(columns.shape, dtype=np.intp)
    for m, column in enumerate(key):
        distinct, inverse = np.unique(column, return_inverse=True)
        if square_law:  # a gap above the tolerance starts a run
            starts = np.concatenate(([True], np.diff(distinct) > MC_KEY_RTOL * distinct[-1]))
            distinct, inverse = distinct[starts], (np.cumsum(starts) - 1)[inverse]
        rows[m] = sum(map(len, keys)) + inverse
        keys.append(distinct)
    tuples, output_of, mass = np.unique(rows.T, axis=0, return_inverse=True, return_counts=True)
    col_of = np.repeat(np.arange(len(keys)), [len(k) for k in keys])
    return np.concatenate(keys), col_of, np.ascontiguousarray(tuples.T), output_of.reshape(-1), mass


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
#: Monte-Carlo block: the waveforms that draw from one stream.  A pool task
#: evaluates a run of consecutive blocks, as many as fit this many entries
#: of the kernel's own table (per symbol and waveform, its distinct
#: (output, key) densities or its components, whichever are more) and so
#: stay in cache, and no more than a worker's share.  A run draws each of
#: its blocks from the block's own stream, in block order, so it changes no
#: draw.
_BLOCK_ENTRIES = 1 << 16

#: Density-table entries evaluated at once: a run's table is cut into
#: pieces of this many, so the scratch a run allocates is fixed whatever the
#: table's width.  Smaller pieces cost more ufunc calls per table, each of
#: which takes the GIL back.
_PIECE_ENTRIES = _BLOCK_ENTRIES // 2


#: At an SNR so extreme that the float64 densities overflow, the estimator
#: raises FloatingPointError instead of warning and returning inf or nan.
_RAISE_ON_OVERFLOW = np.errstate(divide="raise", over="raise", invalid="raise")

#: Every receiver refuses a noise variance v unless this multiple of M v is
#: finite: the noisy outputs' squares, |x + nu|^2 and |y - x|^2, and their
#: products with the keys then stay in float64 (an output's noise power
#: exceeds 2^10 times its mean with probability e^-1024).
_NOISE_HEADROOM = 2.0**10


def _block_moments(values, width, held, n_samples, seed, entries):
    """(count, mean, sum of squared deviations) of the values of n_samples
    waveforms of ``entries`` mixture entries and ``width`` entries of the
    kernel's table each, ``values(blocks)`` giving the bits per dof of the
    waveforms of a run of consecutive blocks, each a (generator, count)
    pair, in block order, and ``held(count)`` the most float64 entries a
    run of count waveforms holds at once.

    The waveforms are cut into blocks of at most ``_BLOCK_ENTRIES`` mixture
    entries (one waveform where one holds more), and into at least eight
    blocks where there are eight waveforms.  Block b draws from its own
    stream, seeded by ``SeedSequence(seed, spawn_key=(b,))``, and the
    blocks' moments, each from its own slice of its run's values, are
    pooled in block order.  So the partition, every draw and the result
    depend on the request alone, bit for bit, and not on the number of
    cores.

    A pool task takes a run of consecutive blocks, as many as fit
    ``_BLOCK_ENTRIES`` table entries, so that a kernel whose blocks are
    narrow makes fewer, longer ufunc calls, but no more than an equal share
    of the blocks per worker, so that no worker idles while another
    evaluates every block.  The runs depend on the number of cores, but the
    values do not: the densities are elementwise, and a run's sums over a
    waveform's symbols and components add the same terms in the same order
    as its block's.  A block of one waveform is evaluated alone, since
    numpy sums a table of one column in pairwise order and each column of a
    wider table in sequence.  Runs run on a pool of one thread per CPU in
    the process's affinity mask (``MC_WORKERS``), but on no more threads
    than runs whose held entries fit ``MC_BLOCK_ELEMENTS`` (at least one),
    and at most two runs per thread are handed to the pool at once, so
    memory is bounded whatever n_samples is.
    """
    rows = max(1, min(_BLOCK_ENTRIES // entries, -(-n_samples // 8)))
    blocks = -(-n_samples // rows)
    run = max(1, min(_BLOCK_ENTRIES // (rows * width), -(-blocks // MC_WORKERS)))
    threads = max(1, min(MC_WORKERS, MC_BLOCK_ELEMENTS // held(run * rows)))

    @_RAISE_ON_OVERFLOW  # pool threads do not inherit the caller's error state
    def task(r):
        numbers = range(r * run, min((r + 1) * run, blocks))
        counts = [min(rows, n_samples - b * rows) for b in numbers]
        run_blocks = [(np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,))), count)
                      for b, count in zip(numbers, counts)]
        # where blocks hold more than one waveform, only the last block may
        # hold one, so the blocks of several come first
        groups = [[block for block in run_blocks if block[1] > 1]] + [[block] for block in run_blocks if block[1] == 1]
        bits = np.concatenate([values(group) for group in groups if group])
        moments = []
        for part in np.split(bits, np.cumsum(counts[:-1])):
            mean = part.mean()
            moments.append((len(part), mean, np.sum((part - mean) ** 2)))
        return moments

    with ThreadPoolExecutor(threads) as pool:
        runs = _bounded_map(pool, task, -(-blocks // run), 2 * threads)
        return functools.reduce(_pooled, itertools.chain.from_iterable(runs))


def _gaussian_values(rx, v, M):
    """The values kernel of unit-power circular Gaussian symbols, one per
    rate-B sample, through the receiver's closed form ``rx.gaussian_bits``,
    its table's width, M entries per waveform, and what a run holds.

    A run evaluates its blocks one by one: a block already fills a piece or
    more unless the whole request is small.  A block draws its symbols x,
    then its noise.  Its buffers are its own, sized to its count; one float
    buffer holds its draws and then the closed form's scratch for pieces of
    at most ``_PIECE_ENTRIES`` values.  A run is counted as if it held its
    blocks' buffers at once.
    """
    work_rows = 6 if rx.square_law else 1  # only the square-law density needs six
    scale = 1.0 / np.sqrt(2.0)  # numpy divides x by sqrt(2) + 0j as (re + im 0) times this

    def first_piece(size):  # a block's largest piece
        return next(_pieces(1, size, _PIECE_ENTRIES))[3]

    def held(count):
        size, piece = count * M, first_piece(count * M)
        # the float buffer and the density's index and mask temporaries, x
        # and y (complex), the table and the waveforms' sums
        return max(size, work_rows * piece) + 2 * piece + 6 * size + 2 * count

    def block(rng, count):
        size = count * M
        piece = first_piece(size)
        # the draws are spent before the scratch is used, so one buffer holds both
        floats = np.empty(max(size, work_rows * piece))
        x = _circular_normal(rng, np.empty(size, dtype=np.complex128), floats)
        x.view(np.float64)[...] *= scale
        y = _inband_noise(1, v, rng, np.empty(size, dtype=np.complex128), floats)
        np.add(x, y, out=y)
        if rx.square_law:
            y = np.abs(y)
            np.square(y, out=y)
        table, work = np.empty(size), floats[: work_rows * piece].reshape(work_rows, piece)
        for _, _, c0, c1 in _pieces(1, size, piece):
            rx.gaussian_bits(y[c0:c1], x[c0:c1], v, table[c0:c1], work)
        return table.reshape(count, M).T.sum(axis=0) / M

    return (lambda blocks: np.concatenate([block(rng, count) for rng, count in blocks])), M, held


def _mixture_values(rx, samples, v, M):
    """The values kernel of symbols drawn uniformly from an alphabet whose
    entry a has the rate-B samples ``samples[a]``, with p(y) the mixture
    over the alphabet, its table's width per waveform and what a run
    holds; None where the alphabet has one noiseless output, so that every
    value is exactly 0.

    The densities depend on a symbol only through one key per output
    (|x|^2 at a square-law receiver, joined within ``MC_KEY_RTOL``, and x
    at the coherent one), so they are evaluated once per distinct (output,
    key), and the mixture runs over the distinct noiseless outputs, the
    alphabet's distinct key tuples, each weighted by the number of entries
    it holds (:func:`_mixture_tables`).  Per direct QPSK M=4 waveform that
    is 64 evaluations instead of 256 x 8, and 29 components instead of 256:
    the alphabet's intensity fibers.

    A run draws each block's symbols, then its noise, from the block's own
    stream, in block order, and evaluates all its waveforms as one table,
    laid out outputs-major: each (output, key), noiseless output and symbol
    is one vector over the run's waveforms, so the sums over them add whole
    vectors, and no (waveform, symbol, alphabet, output) tensor is built.
    Its buffers are its own, sized to its count: its draws and outputs, its
    density table and its per-symbol sums (a row per noiseless output), and
    one float buffer that holds its draws and then its densities' scratch
    for pieces of the table of at most ``_PIECE_ENTRIES`` entries, so the
    scratch does not grow with the table's width.  The densities are
    elementwise, so the pieces change no bit.  A run counts that buffer,
    and per symbol and waveform its draws and outputs while it draws, and
    its outputs, table and sums while it sums.
    """
    n_alpha, length = samples.shape
    symbols, outputs = M // length, length * rx.oversample  # per waveform, per symbol
    # each output's noiseless field over the alphabet, outputs-major as a
    # run reads it
    columns = np.ascontiguousarray(field_grid(np.fft.ifft(samples, axis=1), rx.oversample).T)
    keys, col_of, gather, output_of, mass = _mixture_tables(columns, rx.square_law)
    n_out = len(mass)
    if n_out == 1:  # every draw's log q(y|x) is its log p(y)
        return None
    log_alpha = np.log(n_alpha)
    mass = mass.astype(np.float64)[:, None, None]
    work_rows = 6 if rx.square_law else 1  # only the square-law density needs six

    def first_piece(width):  # the largest piece of a run's table
        _, r1, _, c1 = next(_pieces(len(keys), width, _PIECE_ENTRIES))
        return r1 * c1

    def held(count):
        width = symbols * count
        piece = first_piece(width)
        # the float buffer, and the density's gathered outputs (coherent) or
        # its index and mask temporaries (square-law)
        scratch = max(width * length, work_rows * piece) + 2 * piece
        # per symbol: sent and y, with either the draws' coefficients, their
        # padded transform and fields, and x, or the table, its sums and the
        # final sums' temporaries
        draws = 2 * length + (4 * outputs if rx.oversample > 1 else 0) + 2
        sums = len(keys) + n_out + 12
        return scratch + width * (1 + outputs * (1 if rx.square_law else 2) + max(draws, sums))

    def values(blocks):
        count = sum(n for _, n in blocks)
        width = symbols * count
        piece = first_piece(width)
        # the draws are spent before the densities' scratch is used, so one
        # buffer holds both
        floats = np.empty(max(width * length, work_rows * piece))
        work = floats[: work_rows * piece].reshape(work_rows, piece)
        sent = np.empty((count, symbols), dtype=np.int64)
        coeffs = np.empty((count, symbols, length), dtype=np.complex128)
        start = 0
        for rng, n in blocks:
            sent[start : start + n] = rng.integers(0, n_alpha, size=(n, symbols))
            _inband_noise(length, v, rng, coeffs[start : start + n], floats)
            start += n
        # a one-sample symbol's coefficient is its sample: no FFT, which would
        # cost time in every run
        fields = coeffs if rx.oversample == 1 else field_grid(coeffs, rx.oversample)
        y = np.empty((outputs, symbols, count), dtype=np.float64 if rx.square_law else np.complex128)
        x = np.empty((count, symbols), dtype=np.complex128)
        for m in range(outputs):  # x is output m's noiseless field
            # mode="clip" (the indices are valid): with out=, take's
            # default mode buffers a copy of out
            np.take(columns[m], sent, out=x, mode="clip")
            if rx.square_law:
                np.abs(np.add(fields[..., m], x, out=x), out=y[m].T)
            else:
                np.add(fields[..., m], x, out=y[m].T)
        del coeffs, fields, x  # spent: the table and its sums may take their memory
        if rx.square_law:
            np.square(y, out=y)
        # a table row is one (output, key) over (symbols, waveforms), so
        # every sum below adds whole row vectors
        y = y.reshape(outputs, width)
        table = np.empty((len(keys), width))
        # the square-law density takes its outputs in work's first row
        gathered = work[0] if rx.square_law else np.empty(piece, dtype=np.complex128)
        for r0, r1, c0, c1 in _pieces(len(keys), width, piece):
            part = _view(gathered, (r1 - r0, c1 - c0))
            np.take(y[:, c0:c1], col_of[r0:r1], axis=0, out=part, mode="clip")
            rx.log_density(part, keys[r0:r1, None], v, table[r0:r1, c0:c1], work)
        # each noiseless output's log density per symbol, summed over outputs
        per_output = table[gather[0]]
        for u0, u1, c0, c1 in _pieces(n_out, width, piece):
            part, term = per_output[u0:u1, c0:c1], _view(work[0], (u1 - u0, c1 - c0))
            for m in range(1, outputs):
                part += np.take(table[:, c0:c1], gather[m, u0:u1], axis=0, out=term, mode="clip")
        # log q: each symbol's own component, one flat gather from per_output
        index = np.take(output_of * width, sent.T)
        index += np.arange(width).reshape(symbols, count)
        log_q = np.take(per_output, index)
        per_output = per_output.reshape(n_out, symbols, count)
        # log p(y) = peak + log(sum_u mass_u exp(row_u - peak) / |X|), in
        # place: per_output is not read again
        peak = per_output.max(axis=0)
        terms = np.exp(np.subtract(per_output, peak, out=per_output), out=per_output)
        terms *= mass
        bits = (log_q - (peak + (np.log(terms.sum(axis=0)) - log_alpha))) * _LOG2E
        return bits.sum(axis=0) / M

    return values, max(len(keys), n_out) * symbols, held


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
    log2 p(y) per waveform: one block driver draws and pools the waveforms
    (:func:`_block_moments`), and one of two value kernels gives their
    values, with p(y) in closed form for Gaussian input
    (:func:`_gaussian_values`) or a mixture over the symbol alphabet for a
    constellation (:func:`_mixture_values`).  A symbol is one rate-B
    sample, except at the direct receiver, whose 2M outputs mix
    neighbouring samples: there it is the whole waveform, and
    ``DIRECT_ALPHABET_CAP`` on the symbol alphabet is the only limit on
    |constellation|^M.  The blocks count alphabet entries, not noiseless
    outputs, so the partition and every draw are those of a mixture over
    the whole alphabet.  An alphabet of one noiseless output,
    such as PSK at the intensity receiver or BPSK at M=2 at the direct one,
    gives exactly 0 bits, and 0 standard error: every draw's value would be
    0, so none is made, and any ``n_samples`` up to ``MC_MAX_SAMPLES`` is
    answered at once, after the refusals below; it holds no table, so no
    table width refuses it.

    More than ``MC_MAX_SAMPLES`` waveforms, a waveform whose kernel's table
    holds more than ``MC_BLOCK_ELEMENTS`` entries, an SNR above
    ``MC_SQUARE_LAW_MAX_SNR`` at a square-law receiver, one so small that
    the noise variance overflows, or, at any receiver, coherent included,
    so small that ``_NOISE_HEADROOM`` times M times the variance overflows
    raise ``ValueError`` before anything is drawn, and an SNR so extreme
    that the float64 densities overflow raises ``FloatingPointError``.

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
    samples = None if gaussian else _alphabet(
        input_model, length, DIRECT_ALPHABET_CAP,
        "the estimator enumerates the symbol alphabet; {count} symbols exceed the cap {cap}")
    n_alpha = 1 if gaussian else len(samples)
    if n_samples > MC_MAX_SAMPLES:
        raise ValueError(f"n_samples={n_samples} is beyond the estimator's limit of {MC_MAX_SAMPLES:.0e} waveforms")
    v = _noise_variance(1.0 if gaussian else float(np.mean(np.abs(samples) ** 2)), snr)
    if not math.isfinite(_NOISE_HEADROOM * M * float(v)):
        raise ValueError(
            f"snr {snr:.3g} is so small that the {receiver} receiver's noisy intensities overflow float64"
        )

    if gaussian:  # the choice of kernel, which also names the input in the report
        kernel, model, closed_form = _gaussian_values(rx, v, M), "gaussian", float(np.log2(1.0 + snr))
    else:
        kernel, model, closed_form = _mixture_values(rx, samples, v, M), "constellation", None
    if kernel is not None and kernel[1] > MC_BLOCK_ELEMENTS:
        raise ValueError(
            f"a waveform of {kernel[1]} table entries is beyond the estimator's limit of "
            f"{MC_BLOCK_ELEMENTS} table entries per waveform"
        )
    # no kernel: every value is exactly 0, pooled without drawing it
    count, mean, squares = (n_samples, 0.0, 0.0) if kernel is None else _block_moments(
        *kernel, n_samples, noise.seed, M // length * n_alpha)

    estimate = MIEstimate(
        bits_per_dof=float(mean),
        std_error=float(np.sqrt(squares / (count - 1)) / np.sqrt(count)),
        method="monte_carlo",
        bound_direction=rx.bound_direction,
    )
    return MonteCarloReport(
        estimate=estimate,
        receiver=receiver,
        input_model=model,
        snr=snr,
        seed=noise.seed,
        n_samples=n_samples,
        M=M,
        closed_form_bits_per_dof=closed_form if receiver == "coherent" else None,
    )
