"""Minimum-phase reconstruction of a waveform from its intensity alone.

For a band-limited periodic waveform with no zeros strictly inside the unit
circle, ``log E`` has a one-sided harmonic expansion, so the phase is pinned
to the log-magnitude by the circular Hilbert transform::

    phi(t) = -H[ log sqrt(I(t)) ] + c

(the sign follows from the ``E(t) = sum_k F_k e^{-i k Omega t}`` convention
used throughout; the free constant c is fixed by phase canonicalization).
``log sqrt(I)`` is not band-limited, so the transform runs on an oversampled
grid and the result is projected back onto the M in-band coefficients.  The
grid doubles until the projected waveform's intensity matches the input to a
tenth of the tolerance, or until the next grid would pass ``_MAX_GRID``; an
intensity whose projected waveform still misses it by more than the tolerance
is refused as not realizable with M coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import (
    PeriodicSignal,
    SampledIntensity,
    SpectralPoly,
    canonicalize_phase,
    field_grid,
    resample_real_periodic,
    samples_to_spectrum,
    spectrum_to_samples,
)

#: Intensities are clamped below at this fraction of their maximum before the
#: log.  Exact zeros of I sit at on-circle polynomial zeros where the phase is
#: genuinely ambiguous; the clamp keeps the transform finite and the
#: ``regularized`` flag makes the degradation visible.
INTENSITY_FLOOR = 1e-12

#: Default relative tolerance on the reconstructed intensity.
DEFAULT_TOL = 1e-6

_MIN_GRID = 512
#: The grid doubles only up to this many points; a larger input grid is
#: still used as it comes.
_MAX_GRID = 1 << 16


class IntensityNotRealizableError(ValueError):
    """The intensity is not that of any band-limited signal with M coefficients."""


def periodic_hilbert(series: np.ndarray) -> np.ndarray:
    """Circular Hilbert transform, computed spectrally.

    The harmonic at index n is multiplied by -i sgn(n) (zero at DC and at the
    Nyquist bin), which maps cos to sin.  Applying the transform twice negates
    the input minus its DC and Nyquist components (both annihilated by the
    multiplier).  Takes a real array of even length >= 4.
    """
    values = np.asarray(series, dtype=np.float64)
    n = len(values)
    if n < 4 or n % 2 != 0:
        raise ValueError("series length must be even and at least 4")
    spectrum = np.fft.rfft(values)
    spectrum[1:] *= -1j
    spectrum[0] = 0.0
    spectrum[-1] = 0.0  # Nyquist bin
    return np.fft.irfft(spectrum, n=n)


@dataclass(frozen=True)
class MinPhaseResult:
    """Reconstruction output plus the quality bookkeeping.

    ``residual`` is the worst mismatch between the returned waveform's
    intensity and the input on the input grid, relative to the peak: it
    decides both when the grid stops doubling and whether the intensity is
    refused.  ``projection_residual`` is the out-of-band fraction of the raw
    sqrt(I) e^{i phi} waveform before projection, on the final grid; it is
    reported only.  ``regularized`` marks inputs whose intensity had to be
    clamped away from zero; ``grid_size`` is the final grid, and
    ``tolerance`` the effective tolerance.
    """

    signal: PeriodicSignal
    residual: float
    projection_residual: float
    regularized: bool
    grid_size: int
    tolerance: float


def min_phase_from_intensity(
    intensity: SampledIntensity,
    M: int,
    tol: float = DEFAULT_TOL,
) -> MinPhaseResult:
    """Reconstruct the minimum-phase waveform whose intensity is ``intensity``.

    Parameters
    ----------
    intensity : SampledIntensity
        One period of |E(t)|^2, sampled at rate >= 4B on a grid of q*M points
        (q >= 4 an integer).
    M : int
        Number of in-band Fourier coefficients of the sought waveform.
    tol : float
        Base relative tolerance on the reconstructed intensity.  The
        effective tolerance degrades as sqrt(max I / min clamped I), capped at
        1e-2, because accuracy provably degrades near deep nulls.

    Raises
    ------
    IntensityNotRealizableError
        If the intensity was not clamped and the returned waveform's
        intensity residual exceeds the effective tolerance, i.e. no
        band-limited waveform with M coefficients was found to have this
        intensity.
    """
    if M < 1:
        raise ValueError(f"M must be at least 1, got {M}")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    vals = intensity.values
    if len(vals) % M != 0 or len(vals) // M < 4:
        raise ValueError(
            f"intensity grid must hold q*M samples with q >= 4 (got {len(vals)} for M={M})"
        )
    max_i = float(vals.max())
    if max_i == 0.0:
        raise ValueError("cannot reconstruct from an identically-zero intensity")
    floor = INTENSITY_FLOOR * max_i
    regularized = bool(vals.min() < floor)
    tol_eff = min(tol * float(np.sqrt(max_i / max(vals.min(), floor))), 1e-2)

    oversample = len(vals) // M

    def residual_of(in_band):
        return float(np.max(np.abs(np.abs(field_grid(in_band, oversample)) ** 2 - vals)) / max_i)

    n = max(8 * M, _MIN_GRID, len(vals))
    while True:
        dense = np.maximum(resample_real_periodic(vals, n), floor)
        log_mag = 0.5 * np.log(dense)
        phase = -periodic_hilbert(log_mag)
        raw = np.sqrt(dense) * np.exp(1j * phase)
        coeffs = np.fft.ifft(raw)
        if residual_of(coeffs[:M]) <= 0.1 * tol_eff or 2 * n > _MAX_GRID:
            break
        n *= 2
    leak = float(np.linalg.norm(coeffs[M:]) / np.linalg.norm(coeffs))

    spec = SpectralPoly(coeffs=coeffs[:M], M=M, B=M * intensity.rate / len(vals))
    signal = canonicalize_phase(spectrum_to_samples(spec))
    residual = residual_of(samples_to_spectrum(signal).coeffs)

    if residual > tol_eff and not regularized:
        raise IntensityNotRealizableError(
            f"intensity not realizable within bandwidth: the projected waveform's intensity "
            f"residual {residual:.3e} exceeds the tolerance {tol_eff:.3e} (grid of {n} points)"
        )
    return MinPhaseResult(
        signal=signal,
        residual=residual,
        projection_residual=leak,
        regularized=regularized,
        grid_size=n,
        tolerance=tol_eff,
    )
