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
        if not (self.B > 0):
            raise ValueError("B must be positive")
        samples = _as_complex_vector(self.samples, self.M)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def period(self) -> float:
        return self.M / self.B

    @property
    def omega(self) -> float:
        return 2.0 * np.pi * self.B / self.M

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
        if not (self.B > 0):
            raise ValueError("B must be positive")
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

    def power(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


@dataclass(frozen=True)
class SampledIntensity:
    """Nonnegative intensity |E(t)|^2 on a uniform grid covering one period."""

    rate: float
    values: np.ndarray

    def __post_init__(self):
        if not (self.rate > 0):
            raise ValueError("rate must be positive")
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("values must be a non-empty 1-d sequence")
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

    @property
    def period(self) -> float:
        return len(self.values) / self.rate


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


def field_grid(spec: SpectralPoly, oversample: int) -> np.ndarray:
    """E(t) on the uniform grid t_j = j / (oversample * B), one period.

    Computed by zero-padding the coefficients, so it agrees with
    :func:`evaluate_field` to machine precision.
    """
    if oversample < 1:
        raise ValueError("oversample must be >= 1")
    n = oversample * spec.M
    padded = np.zeros(n, dtype=np.complex128)
    padded[: spec.M] = spec.coeffs
    return np.fft.fft(padded)


def intensity_grid(sig: PeriodicSignal, oversample: int) -> SampledIntensity:
    """|E(t)|^2 on the rate-(oversample*B) grid over one period.

    ``oversample`` must be at least 2: the intensity occupies a two-sided
    bandwidth of 2B, so any slower grid cannot represent it.  Sub-Nyquist
    intensity sampling is only available through the dedicated rate-B
    intensity-channel detector, where the information loss is explicit.
    """
    if oversample < 2:
        raise ValueError(
            "oversample must be >= 2: the intensity waveform occupies a two-sided "
            "bandwidth of 2B; use the intensity-channel detector for rate-B sampling"
        )
    spec = samples_to_spectrum(sig)
    grid = field_grid(spec, oversample)
    return SampledIntensity(rate=oversample * sig.B, values=np.abs(grid) ** 2)


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


def _check_same_grid(a: PeriodicSignal, b: PeriodicSignal):
    if a.M != b.M or a.B != b.B:
        raise DimensionMismatchError(
            f"signals live on different grids: (M={a.M}, B={a.B}) vs (M={b.M}, B={b.B})"
        )


def inner_product(a: PeriodicSignal, b: PeriodicSignal) -> complex:
    """Period-average inner product <a, b>, exact via Parseval."""
    _check_same_grid(a, b)
    fa = np.fft.ifft(a.samples)
    fb = np.fft.ifft(b.samples)
    return complex(np.sum(fa * np.conj(fb)))


def phase_distance(a: PeriodicSignal, b: PeriodicSignal) -> float:
    """min over theta of the period-average energy of a - exp(i theta) b.

    The minimiser is theta = arg <a, b>, giving the closed form
    ``|a|^2 + |b|^2 - 2 |<a, b>|``; zero exactly when the two waveforms agree
    up to a constant phase.
    """
    _check_same_grid(a, b)
    ea = a.power()
    eb = b.power()
    d = ea + eb - 2.0 * abs(inner_product(a, b))
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
    coeffs = np.fft.ifft(sig.samples)
    mags = np.abs(coeffs)
    peak = mags.max()
    if peak == 0.0:
        raise ValueError("cannot canonicalize the all-zero signal")
    (tied,) = np.nonzero(mags >= peak * (1.0 - CANON_TIE_REL))
    k = int(tied[0])
    rotation = np.exp(-1j * np.angle(coeffs[k]))
    return PeriodicSignal(M=sig.M, B=sig.B, samples=sig.samples * rotation)


def random_signal(M: int, B: float = 1.0, seed=None, dc_free: bool = False) -> PeriodicSignal:
    """Random waveform with iid circular-Gaussian Fourier coefficients, unit
    expected power.  ``dc_free`` zeroes the k=0 coefficient."""
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0 * M)
    if dc_free:
        if M < 2:
            raise ValueError("dc_free requires M >= 2")
        coeffs[0] = 0.0
    return spectrum_to_samples(SpectralPoly(coeffs=coeffs, M=M, B=B))
