"""Periodic band-limited complex waveforms and their intensities.

A waveform with one-sided optical bandwidth ``B`` and period ``M/B`` is fully
described by its ``M`` rate-``B`` complex samples, or equivalently by ``M``
Fourier coefficients::

    E(t) = sum_{k=0}^{M-1} F_k exp(-i k Omega t),     Omega = 2 pi B / M.

All period inner products and energies are evaluated through the Fourier
coefficients, which is exact for this signal class (no quadrature tolerance).
Energies are period averages, i.e. ``mean |E|^2 = sum |F_k|^2``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

#: Relative floor below which trailing Fourier coefficients count as noise
#: when detecting the effective polynomial degree.
DEGREE_EPS = 1e-10

#: Negative intensity values above this (relative) floor are clamped to zero;
#: anything more negative indicates a real bug upstream.
NEG_INTENSITY_FLOOR = 1e-14

#: Coefficients within this relative band of the largest magnitude count as
#: tied when picking the canonical phase reference; the smallest tied index
#: wins.  Exact ties (symmetric constellations) land on either side of the
#: float comparison depending on the representative, so a strict argmax would
#: make the canonical form orbit-dependent.
CANON_TIE_REL = 1e-9

#: Most points a field grid may have (64 MiB of complex128).  A larger
#: ``oversample * M`` raises ValueError before anything is allocated:
#: ``simulate --oversample`` takes any integer, and unchecked a large one
#: ends in a MemoryError or an out-of-memory kill.
FIELD_GRID_CAP = 1 << 22


class DimensionMismatchError(ValueError):
    """Two signals do not live on the same (M, B) grid."""


def _as_complex_vector(x, n=None):
    a = np.asarray(x, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {a.shape}")
    if n is not None and len(a) != n:
        raise ValueError(f"expected length {n}, got {len(a)}")
    if not np.all(np.isfinite(a)):
        raise ValueError("samples must be finite")
    return a


@dataclass(frozen=True)
class PeriodicSignal:
    """Band-limited complex waveform of period ``M/B``, stored as M rate-B samples."""

    M: int
    B: float
    samples: np.ndarray

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if not (0 < self.B < np.inf):
            raise ValueError("B must be finite and positive")
        samples = _as_complex_vector(self.samples, self.M)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def period(self) -> float:
        return self.M / self.B

    def power(self) -> float:
        """Period-average of |E(t)|^2 (equals the coefficient energy)."""
        return float(np.mean(np.abs(self.samples) ** 2))


@dataclass(frozen=True)
class SpectralPoly:
    """Fourier coefficients of a periodic signal, read as the polynomial
    ``A(Z) = sum_k F_k Z^k`` so that ``E(t) = A(exp(-i Omega t))``.

    ``eff_degree`` is the largest k whose coefficient exceeds ``DEGREE_EPS``
    relative to the largest coefficient (-1 for the zero spectrum).
    """

    coeffs: np.ndarray
    M: int
    B: float
    eff_degree: int = dataclasses.field(init=False)

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be a positive integer")
        if not (0 < self.B < np.inf):
            raise ValueError("B must be finite and positive")
        coeffs = _as_complex_vector(self.coeffs, self.M)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)
        mags = np.abs(coeffs)
        peak = mags.max()
        if peak == 0.0:
            degree = -1
        else:
            (sig,) = np.nonzero(mags > DEGREE_EPS * peak)
            degree = int(sig[-1]) if len(sig) else -1
        object.__setattr__(self, "eff_degree", degree)

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.B / self.M


@dataclass(frozen=True)
class SampledIntensity:
    """Nonnegative intensity |E(t)|^2 on a uniform grid covering one period."""

    rate: float
    values: np.ndarray

    def __post_init__(self):
        rate = float(self.rate)
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {rate!r}")
        # the intensity CSV holds the times k / rate, and its reader takes the
        # rate back as the inverse of their step
        if not 1.0 / (1.0 / rate) < math.inf:
            raise ValueError(f"rate {rate!r} is so large that its grid step 1/rate does not invert to a finite rate")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values must be a non-empty 1-d sequence")
        if not len(vals) / rate < math.inf:
            raise ValueError(f"the period, {len(vals)} samples at rate {rate!r}, overflows float64")
        if not np.all(np.isfinite(vals)):
            raise ValueError("intensity values must be finite")
        floor = -NEG_INTENSITY_FLOOR * max(vals.max(initial=0.0), 1.0)
        if vals.min() < floor:
            raise ValueError(
                f"intensity has negative values below the numerical floor "
                f"(min {vals.min():.3e})"
            )
        vals = np.maximum(vals, 0.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def samples_to_spectrum(sig: PeriodicSignal) -> SpectralPoly:
    """Fourier coefficients F_k = (1/M) sum_n E_n exp(+i 2 pi k n / M)."""
    return SpectralPoly(coeffs=np.fft.ifft(sig.samples), M=sig.M, B=sig.B)


def spectrum_to_samples(spec: SpectralPoly) -> PeriodicSignal:
    """Inverse of :func:`samples_to_spectrum`: E_n = sum_k F_k exp(-i 2 pi k n / M)."""
    return PeriodicSignal(M=spec.M, B=spec.B, samples=np.fft.fft(spec.coeffs))


def evaluate_field(spec: SpectralPoly, t) -> complex | np.ndarray:
    """Evaluate E(t) = A(exp(-i Omega t)) by Horner recursion on the coefficients.

    Accepts a scalar time or an array of times; times may lie anywhere on the
    real line (the result is M/B-periodic by construction).
    """
    t_arr = np.asarray(t, dtype=np.float64)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("evaluation times must be finite")
    acc = horner(spec.coeffs, np.exp(-1j * spec.omega * t_arr))
    return complex(acc) if np.isscalar(t) else acc


def horner(coeffs, z):
    """sum_k coeffs[k] z^k for ascending coefficients, elementwise over z."""
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def field_grid(coeffs, oversample: int) -> np.ndarray:
    """E(t) on the uniform grid t_j = j / (oversample * B), one period, for
    each row of M Fourier coefficients on the last axis of ``coeffs``.

    Computed by zero-padding the coefficients, so it agrees with
    :func:`evaluate_field` to machine precision.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    M = coeffs.shape[-1]
    n = oversample * M
    if n > FIELD_GRID_CAP:
        raise ValueError(f"a grid of {n} points (oversample {oversample} x M={M}) is above "
                         f"the cap of {FIELD_GRID_CAP} points")
    return np.fft.fft(coeffs, n=n, axis=-1)


def field_intensity(field: np.ndarray) -> np.ndarray:
    """|field|^2, refused (ValueError) before squaring where it would overflow float64."""
    magnitude = np.abs(field)
    peak = float(magnitude.max())
    if not peak * peak < math.inf:  # Python floats: no overflow warning
        raise ValueError(f"the field peaks at {peak:.3g}, so its intensity overflows float64")
    return magnitude**2


def intensity_grid(sig: PeriodicSignal, oversample: int) -> SampledIntensity:
    """|E(t)|^2 on the rate-(oversample*B) grid over one period.

    ``oversample`` must be at least 2: the intensity occupies a two-sided
    bandwidth of 2B, so any slower grid cannot represent it.  The rate-B
    intensity samples, where the information loss is explicit, are
    ``field_intensity(sig.samples)`` (``ddcap simulate --receiver intensity``).
    """
    if oversample < 2:
        raise ValueError(
            "oversample must be >= 2: the intensity waveform occupies a two-sided "
            "bandwidth of 2B; use --receiver intensity (field_intensity) for rate-B sampling"
        )
    grid = field_grid(np.fft.ifft(sig.samples), oversample)
    return SampledIntensity(rate=oversample * sig.B, values=field_intensity(grid))


def resample_real_periodic(values, n: int) -> np.ndarray:
    """Band-limited resampling of a real periodic grid onto n >= len(values) points."""
    values = np.asarray(values, dtype=np.float64)
    if n < len(values):
        raise ValueError("the output grid must not be coarser than the input")
    if n == len(values):
        return values.copy()
    return np.fft.irfft(np.fft.rfft(values), n=n) * (n / len(values))


def half_sample_intensity_oracle(samples, n: int, window: int) -> float:
    """Intensity at the half-sample time t = (n + 1/2)/B from a truncated sinc double sum.

    ``samples`` is a finite-support sequence (sample j sits at t = j/B) read in
    the interpolation basis of a signal whose spectrum occupies [0, B]; sample
    j contributes ``exp(-i pi (Bt - j)) sinc(pi (Bt - j))``.  The intensity at
    the half-sample point is the double sum over index pairs (m, k) of::

        (-1)^(k-m) sinc(pi(n - m + 1/2)) sinc(pi(n - k + 1/2)) conj(E_m) E_k

    truncated to ``|m - n| <= window`` and ``|k - n| <= window``.  The sign
    factor is fixed by requiring convergence to |E((n+1/2)/B)|^2 of the
    band-[0,B] interpolation rather than by the typographic orientation of the
    sinc arguments (sinc is even, so those carry no information).

    Because the truncation region is the Cartesian square, the double sum
    factorises exactly into ``|sum_k w_k E_k|^2``, which is how it is
    evaluated here.  Against the untruncated series the error is O(1/window):
    each discarded sinc tail decays like 1/(pi x) and symmetric truncation
    cancels the leading tails pairwise.

    Parameters
    ----------
    samples : complex sequence
        Finite-support samples; index j of the array is time j/B.
    n : int
        Half-sample index; the evaluation time is (n + 1/2)/B.
    window : int
        Truncation half-width of the double sum.  Once the window covers the
        whole support the sum is exact; a smaller window truncates it with
        the O(1/window) error above.
    """
    s = _as_complex_vector(samples)
    if window < 1:
        raise ValueError("window must be a positive integer")
    lo = max(0, n - window)
    hi = min(len(s), n + window + 1)
    if lo >= hi:
        return 0.0
    j = np.arange(lo, hi)
    x = (n - j) + 0.5
    weights = np.where((n - j) % 2 == 0, 1.0, -1.0) * np.sinc(x)
    return float(np.abs(np.sum(weights * s[j])) ** 2)


def phase_distance(a: PeriodicSignal, b: PeriodicSignal) -> float:
    """min over theta of the period-average energy of a - exp(i theta) b.

    The minimiser is theta = arg <a, b>, giving the closed form
    ``|a|^2 + |b|^2 - 2 |<a, b>|``; zero exactly when the two waveforms agree
    up to a constant phase.  The period-average inner product <a, b> is
    exact via Parseval, as the sum over their Fourier coefficients.
    """
    if a.M != b.M or a.B != b.B:
        raise DimensionMismatchError(
            f"signals live on different grids: (M={a.M}, B={a.B}) vs (M={b.M}, B={b.B})"
        )
    ea = a.power()
    eb = b.power()
    inner = complex(np.sum(np.fft.ifft(a.samples) * np.conj(np.fft.ifft(b.samples))))
    d = ea + eb - 2.0 * abs(inner)
    if d < -1e-12 * max(ea + eb, 1.0):
        raise FloatingPointError(f"phase distance lost positivity: {d}")
    return max(d, 0.0)


def canonicalize_phase(sig: PeriodicSignal) -> PeriodicSignal:
    """Rotate by the unique global phase making the largest Fourier coefficient
    real and nonnegative (ties broken by the smallest index).

    Idempotent; the result is phase_distance-zero from the input.  The global
    phase is unobservable to any receiver considered here, so equality tests
    and entropy counting quotient it out through this normal form.
    """
    rotation = canonical_rotation(np.fft.ifft(sig.samples)[None, :])[0]
    return PeriodicSignal(M=sig.M, B=sig.B, samples=sig.samples * rotation)


def canonical_rotation(coeffs: np.ndarray) -> np.ndarray:
    """The phase factor :func:`canonicalize_phase` applies, for each row of a
    2-d array of Fourier coefficients; shape ``(rows, 1)``."""
    mags = np.abs(coeffs)
    peak = mags.max(axis=1, keepdims=True)
    if not peak.all():
        raise ValueError("cannot canonicalize the all-zero signal")
    k = (mags >= peak * (1.0 - CANON_TIE_REL)).argmax(axis=1)  # smallest tied index
    return np.exp(-1j * np.angle(coeffs[np.arange(len(coeffs)), k]))[:, None]


def random_signal(M: int, B: float = 1.0, seed=None) -> PeriodicSignal:
    """Random waveform with iid circular-Gaussian Fourier coefficients, unit
    expected power."""
    if isinstance(seed, int) and seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0 * M)
    return spectrum_to_samples(SpectralPoly(coeffs=coeffs, M=M, B=B))


def component_roots(n: int, i, j) -> np.ndarray:
    """The lowest node index in each node's connected component.

    The graph has nodes ``0 .. n-1`` and the undirected edges
    ``(i[k], j[k])``.  Each round hooks every root onto the lowest root across
    its edges, then jumps pointers until every node points at a root, so a
    label only falls and always names a node of its own component.  A round
    that finds no edge between two roots ends with each component labelled by
    its lowest node.
    """
    root = np.arange(n)
    while True:
        ri, rj = root[i], root[j]
        if np.array_equal(ri, rj):
            return root
        np.minimum.at(root, ri, rj)
        np.minimum.at(root, rj, ri)
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
