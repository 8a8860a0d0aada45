"""Zero algebra of the field polynomial.

The field polynomial ``A(Z) = sum_k F_k Z^k`` satisfies ``E(t) = A(e^{-i Omega t})``,
so its modulus on the unit circle is the square root of the intensity.
Replacing a zero ``Z`` by its reflection ``1/conj(Z)`` (with a compensating
rescale by |Z|) preserves that modulus and the polynomial degree, hence
produces a different band-limited waveform with the same intensity.  Zeros
sitting on the circle reflect onto themselves and create no new waveform.
Enumerating all reflection patterns of the off-circle zeros yields every
band-limited waveform sharing the intensity, 2^N0 of them.

The reflection multiplies the field at every point ``w`` of the circle by the
all-pass factor ``b_Z(w) = |Z| (w - 1/conj(Z)) / (w - Z)``, of modulus 1
there.  Members are therefore built as the base samples times the factors at
the sample points ``w_n = exp(-2 pi i n / M)``; no polynomial is expanded
from its zeros, which is ill-conditioned at high degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .signals import (
    PeriodicSignal,
    SpectralPoly,
    canonical_rotation,
    canonicalize_phase,
    component_roots,
    horner,
    samples_to_spectrum,
    spectrum_to_samples,
)

#: A zero counts as on the unit circle when | |Z| - 1 | is below this.
#: Reflecting a zero closer than this to the circle changes the waveform by
#: less than the verification tolerances, so it is treated as degenerate.
UC_EPS = 1e-9

#: Off-circle zeros closer than this to each other flip jointly: reflecting
#: one of two numerically identical zeros yields members indistinguishable at
#: working precision.
ZERO_MERGE_TOL = 1e-7

#: A zero closer than this to the origin counts as at the origin: its
#: reflection lies beyond the band, and flipping it leaves a constant phase.
ORIGIN_EPS = 1e-12

#: Default bound on the number of independent flips (2^20 members).
DEFAULT_FLIP_CAP = 20

_ABERTH_MAX_ITER = 500
_POLISH_ITER = 3
_RESIDUAL_TOL = 1e-10


class RootConvergenceError(RuntimeError):
    """Root iteration did not reach the residual target within the budget."""

    def __init__(self, message, residual):
        super().__init__(f"{message} (worst relative residual {residual:.3e})")
        self.residual = residual


class OnCircleFlipError(ValueError):
    """Reflection of an on-circle zero is a constant phase, not a new waveform."""


class EnumerationCapError(ValueError):
    """The family is larger than the enumeration cap allows."""


@dataclass(frozen=True)
class ZeroSet:
    """Classified zeros of the field polynomial.

    ``zeros`` has length eff_degree.  ``on_circle`` / ``inside`` are boolean
    masks (outside = neither); ``on_circle_times`` are the in-period times at
    which the field vanishes, one per on-circle zero.
    """

    zeros: np.ndarray
    on_circle: np.ndarray
    inside: np.ndarray
    on_circle_times: np.ndarray

    @property
    def n_off_circle(self) -> int:
        return int(len(self.zeros) - self.on_circle.sum())


def _aberth_ehrlich(coeffs: np.ndarray) -> np.ndarray:
    """Simultaneous root iteration for an ascending coefficient vector.

    Starting points sit on a circle of radius |c_0 / c_d|^(1/d) (clipped into
    the Cauchy bound) with a fixed angular offset and a small radial stagger to
    break symmetric configurations.  Corrections use the Ehrlich/Aberth
    third-order update; convergence is declared on the relative residual
    |A(z)| <= tol * max|c| * max(1, |z|)^d, after a few Newton polish steps.

    Beyond the radius where Horner's recursion for A could overflow, A and A'
    are evaluated through the reversed polynomial, A(z) = z^d R(1/z), both
    divided by z^(d-1): the Newton ratio A/A' is unchanged, and iterates that
    never leave that radius keep their bits.  There the residual is
    |R(1/z)| for the same reason.
    """
    d = len(coeffs) - 1
    deriv = coeffs[1:] * np.arange(1, d + 1)
    reverse = coeffs[::-1]
    reverse_deriv = reverse[1:] * np.arange(1, d + 1)
    scale = np.max(np.abs(coeffs))
    # |A(z)| <= (d + 1) * scale * |z|^d, and |A'(z)| <= d times that
    log_headroom = math.log(np.finfo(np.float64).max) - math.log(d * (d + 1) * scale)
    overflow_radius = math.exp(min(log_headroom / d, 700.0))

    def newton_terms(z, radius):
        """A(z) and A'(z), both divided by z^(d-1) beyond ``overflow_radius``."""
        if radius.max() <= overflow_radius:
            return horner(coeffs, z), horner(deriv, z)
        big = radius > overflow_radius
        p, dp = np.empty_like(z), np.empty_like(z)
        p[~big], dp[~big] = horner(coeffs, z[~big]), horner(deriv, z[~big])
        w = 1.0 / z[big]
        r = horner(reverse, w)
        p[big], dp[big] = r / w, d * r - w * horner(reverse_deriv, w)
        return p, dp

    cauchy = 1.0 + float(np.max(np.abs(coeffs[:-1] / coeffs[-1])))
    r0 = abs(coeffs[0] / coeffs[-1]) ** (1.0 / d) if coeffs[0] != 0 else 0.0
    r0 = min(max(r0, 1e-6 * cauchy), cauchy)
    k = np.arange(d)
    z = r0 * (1.0 + 0.02 * (k % 7) / 7.0) * np.exp(1j * (2 * np.pi * (k + 0.5) / d + 0.4))
    radius = np.abs(z)

    for _ in range(_ABERTH_MAX_ITER):
        p, dp = newton_terms(z, radius)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        pair_sum = (1.0 / diff).sum(axis=1)
        nonzero = dp != 0
        ratio = np.where(nonzero, p / np.where(nonzero, dp, 1.0), 0.0)
        denom = 1.0 - ratio * pair_sum
        nonzero = denom != 0
        step = np.where(nonzero, ratio / np.where(nonzero, denom, 1.0), ratio)
        z = z - step
        radius = np.abs(z)
        if np.max(np.abs(step) / (1.0 + radius)) < 1e-14:
            break

    for _ in range(_POLISH_ITER):
        p, dp = newton_terms(z, radius)
        nonzero = dp != 0
        z = z - np.where(nonzero, p / np.where(nonzero, dp, 1.0), 0.0)
        radius = np.abs(z)

    p, _ = newton_terms(z, radius)
    # beyond overflow_radius, p is already A(z) / z^(d-1)
    residual = np.abs(p) / (scale * np.maximum(1.0, radius) ** np.where(radius > overflow_radius, 1, d))
    worst = float(residual.max())
    if not worst <= _RESIDUAL_TOL:  # a NaN residual fails too
        raise RootConvergenceError("root iteration failed to converge", worst)
    return z


def find_zeros(spec: SpectralPoly) -> ZeroSet:
    """Locate and classify the eff_degree zeros of the field polynomial.

    Exact zeros of the low-order coefficients are factored out as roots at the
    origin before the simultaneous iteration runs on the remainder.  The
    returned zeros are sorted by angle then radius for reproducible output.
    """
    d = spec.eff_degree
    if d < 0:
        raise ValueError("cannot factor the identically-zero polynomial")
    coeffs = np.asarray(spec.coeffs[: d + 1])
    if d == 0:
        zeros = np.zeros(0, dtype=np.complex128)
    else:
        n_origin = 0
        while n_origin < d and coeffs[n_origin] == 0:
            n_origin += 1
        trimmed = coeffs[n_origin:]
        if len(trimmed) > 1:
            found = _aberth_ehrlich(trimmed)
        else:
            found = np.zeros(0, dtype=np.complex128)
        zeros = np.concatenate([np.zeros(n_origin, dtype=np.complex128), found])
        order = np.lexsort((np.abs(zeros), np.angle(zeros)))
        zeros = zeros[order]

    on_circle = np.abs(np.abs(zeros) - 1.0) <= UC_EPS
    inside = (~on_circle) & (np.abs(zeros) < 1.0)
    # E(t) = A(e^{-i Omega t}) vanishes where e^{-i Omega t} hits an on-circle
    # zero, i.e. t = (-arg Z mod 2 pi) / Omega.
    times = np.mod(-np.angle(zeros[on_circle]), 2.0 * np.pi) / spec.omega
    return ZeroSet(
        zeros=zeros,
        on_circle=on_circle,
        inside=inside,
        on_circle_times=times,
    )


def signal_from_zeros(zeros, M: int, B: float = 1.0) -> PeriodicSignal:
    """Construct the waveform whose field polynomial has the given zeros and
    leading coefficient 1."""
    coeffs = npoly.polyfromroots(np.asarray(zeros, dtype=np.complex128))
    if len(coeffs) > M:
        raise ValueError(f"degree {len(coeffs) - 1} does not fit in M={M} coefficients")
    return spectrum_to_samples(SpectralPoly(coeffs=np.pad(coeffs, (0, M - len(coeffs))), M=M, B=B))


def _allpass(zeros: np.ndarray, M: int) -> np.ndarray:
    """The product over ``zeros`` of the reflection factors ``b_Z`` at the M
    sample points ``w_n = exp(-2 pi i n / M)``.

    ``b_Z(w) = |Z| (w - 1/conj(Z)) / (w - Z)`` has modulus 1 on the circle.
    A zero within ``ORIGIN_EPS`` of the origin reflects to infinity, so its
    reflected factor is 1: it contributes ``1 / (w - Z)`` and the degree
    drops by one.
    """
    w = np.exp(-2j * np.pi * np.arange(M) / M)
    factor = np.ones(M, dtype=np.complex128)
    for z in zeros:
        r = abs(z)
        factor *= (r * (w - 1.0 / np.conj(z)) if r >= ORIGIN_EPS else 1.0) / (w - z)
    return factor


def flip_zeros(spec: SpectralPoly, mask: int, zeroset: ZeroSet | None = None) -> SpectralPoly:
    """Reflect the masked zeros across the unit circle.

    Bit i of ``mask`` addresses ``zeroset.zeros[i]``.  Each masked zero Z is
    replaced by ``1/conj(Z)`` with a rescale by |Z|: the samples are
    multiplied by the all-pass factors ``b_Z``, which preserves the modulus
    of the polynomial on the unit circle exactly in exact arithmetic and
    makes the flip an exact involution.  (Any other modulus-|Z| rescale
    differs only by a constant phase, which the phase canonicalization
    quotients out anyway.)

    A zero at the origin reflects to infinity: (Z - 1/conj(z)) |z| tends to
    the constant phase -z/|z| as z -> 0, so its flipped factor is 1 and the
    degree drops by one.

    Masking an on-circle zero raises :class:`OnCircleFlipError`: its
    reflection is the zero itself, so the "flip" is a constant phase factor
    and produces no new waveform.
    """
    zs = zeroset if zeroset is not None else find_zeros(spec)
    n = len(zs.zeros)
    if mask < 0 or mask >= (1 << n):
        raise ValueError(f"mask {mask} out of range for {n} zeros")
    flip = np.array([(mask >> i) & 1 == 1 for i in range(n)], dtype=bool)
    if np.any(flip & zs.on_circle):
        raise OnCircleFlipError(
            "mask addresses an on-circle zero; its reflection is a constant "
            "phase and does not produce a new waveform"
        )
    samples = spectrum_to_samples(spec).samples * _allpass(zs.zeros[flip], spec.M)
    return samples_to_spectrum(PeriodicSignal(spec.M, spec.B, samples))


def _flip_groups(zs: ZeroSet) -> list[int]:
    """Independent flip bits: off-circle zeros, with near-coincident ones merged.

    Returns one zero-index bitmask per group, ordered by lowest zero index.
    Merging is transitive: a chain of zeros, each within ``ZERO_MERGE_TOL``
    of the next, is one group.
    """
    idx = np.flatnonzero(~zs.on_circle)
    z = zs.zeros[idx]
    near = np.abs(z[:, None] - z[None, :]) <= ZERO_MERGE_TOL
    # a group's lowest index is its root and the first of its zeros seen, so
    # groups enter the dict in order of their lowest index
    groups = {}
    for i, root in zip(idx.tolist(), component_roots(len(z), *np.nonzero(near)).tolist()):
        groups[root] = groups.get(root, 0) | 1 << i
    return list(groups.values())


@dataclass(frozen=True)
class EqualIntensityFamily:
    """All distinguishable band-limited waveforms sharing one intensity.

    ``samples`` is a read-only ``(2^N0, M)`` array whose row r holds the rate-B
    samples of the member with flip pattern r: bit j of r set means flip
    group j is reflected.  ``masks[r]`` is the same pattern as a bitset over
    the zeros of ``zeroset`` (bits of jointly-flipped groups appear
    together), so rows run in binary counting order of the flip pattern.
    Every member is phase-canonical.  ``signals`` wraps the rows as
    :class:`PeriodicSignal` objects, built on first access.
    """

    base: PeriodicSignal
    zeroset: ZeroSet
    masks: tuple
    samples: np.ndarray

    def __len__(self):
        return len(self.masks)

    @cached_property
    def signals(self) -> tuple[PeriodicSignal, ...]:
        return tuple(PeriodicSignal(M=self.base.M, B=self.base.B, samples=row) for row in self.samples)


def _ldexp(z, exponent: int) -> np.ndarray:
    """Complex z times 2**exponent: exact while the result stays normal, and
    defined where 2**exponent itself is not a float."""
    return np.ldexp(np.ascontiguousarray(z).view(np.float64), exponent).view(np.complex128)


def _unit_zeros(sig: PeriodicSignal) -> tuple[np.ndarray, ZeroSet, int]:
    """The samples of ``sig`` scaled by a power of two to a largest component
    in [0.5, 1), their zeros, and the exponent ``shift`` that scales back.

    The zeros do not depend on the signal's scale, and both scalings are
    exact, so a result built at unit scale and restored by
    ``_ldexp(..., shift)`` has the bits it would have had unscaled wherever
    that did not overflow.  Samples whose largest component is subnormal are
    refused (ValueError): at that scale a result would round to a few bits.
    """
    peak = float(np.max(np.abs([sig.samples.real, sig.samples.imag])))
    if 0.0 < peak < np.finfo(np.float64).tiny:
        raise ValueError(
            f"samples peak at {peak:.3g}, below the smallest normal float64 "
            f"{np.finfo(np.float64).tiny:.3g}: results at that scale would round to a few bits"
        )
    shift = int(np.frexp(peak)[1])
    samples = _ldexp(sig.samples, -shift)
    return samples, find_zeros(samples_to_spectrum(PeriodicSignal(sig.M, sig.B, samples))), shift


# members that leave the float64 range raise FloatingPointError instead of
# warning
@np.errstate(divide="raise", over="raise", invalid="raise")
def enumerate_family(sig: PeriodicSignal, max_flips: int = DEFAULT_FLIP_CAP) -> EqualIntensityFamily:
    """Enumerate the 2^N0 waveforms sharing the intensity of ``sig``.

    N0 is the number of off-circle zeros (merged near-duplicates count once).
    Raises :class:`EnumerationCapError` when N0 exceeds ``max_flips``; the cap
    exists because the member count is exponential, and can be raised
    explicitly by the caller.

    All members are built at once, as the base samples times all-pass
    factors (see :func:`flip_zeros`).  Starting from the base samples, the
    batch of rows doubles once per flip group as ``[rows, rows * b_group]``,
    where ``b_group`` is the product of the group's factors at the sample
    points; this puts the members in binary counting order of the flip
    pattern.  Reflected zeros at the origin contribute ``1 / (w - Z)``, as in
    :func:`flip_zeros`.  Member 0 is the phase-canonical base.

    The zeros are found at unit scale (:func:`_unit_zeros`, which refuses
    subnormal samples) and the members scaled back, so huge samples neither
    overflow the spectrum nor change a bit elsewhere.
    """
    if max_flips < 0:
        raise ValueError(f"max_flips must be at least 0, got {max_flips}")
    samples, zs, shift = _unit_zeros(sig)
    groups = _flip_groups(zs)
    if len(groups) > max_flips:
        raise EnumerationCapError(
            f"family has 2^{len(groups)} members, above the cap 2^{max_flips}; "
            f"pass max_flips={len(groups)} to enumerate anyway"
        )

    rows = samples[None, :]
    masks = [0]
    for group in groups:
        factor = _allpass(zs.zeros[[i for i in range(len(zs.zeros)) if (group >> i) & 1]], sig.M)
        rows = np.concatenate([rows, rows * factor])
        masks += [mask | group for mask in masks]
    samples = _ldexp(rows * canonical_rotation(np.fft.ifft(rows, axis=1)), shift)
    samples.setflags(write=False)
    return EqualIntensityFamily(base=sig, zeroset=zs, masks=tuple(masks), samples=samples)


# as in enumerate_family, a member that leaves the float64 range raises
# FloatingPointError instead of warning
@np.errstate(divide="raise", over="raise", invalid="raise")
def min_phase_member(sig: PeriodicSignal) -> PeriodicSignal:
    """The family member with no zeros strictly inside the unit circle.

    Obtained by reflecting exactly the inside zeros to the outside: the
    samples times the all-pass factors of the inside zeros (see
    :func:`flip_zeros`).  The result is phase-canonical.  It is built at unit
    scale and scaled back, as the members of :func:`enumerate_family` are, so
    subnormal samples are refused (ValueError) and huge ones keep their bits.
    """
    samples, zs, shift = _unit_zeros(sig)
    samples = samples * _allpass(zs.zeros[zs.inside], sig.M)
    member = canonicalize_phase(PeriodicSignal(sig.M, sig.B, samples))
    return PeriodicSignal(sig.M, sig.B, _ldexp(member.samples, shift))


def embed_finite_support(payload, M_prime: int, B: float = 1.0) -> PeriodicSignal:
    """Embed a length-M payload into a period of M'/B with zero guard samples.

    The payload occupies a centred block; all other rate-B samples are zero.
    M' must be at least 4M so the interpolation tails decay across the guard
    band.  The zero samples force at least M' - M zeros of the field
    polynomial onto the unit circle, so the equal-intensity family of the
    embedded waveform has at most 2^(M-1) members regardless of M'.
    """
    payload = np.asarray(payload, dtype=np.complex128)
    if payload.ndim != 1 or len(payload) == 0:
        raise ValueError("payload must be a non-empty 1-d sequence")
    M = len(payload)
    if M_prime < 4 * M:
        raise ValueError(f"M_prime must be >= 4*M = {4 * M}, got {M_prime}")
    samples = np.zeros(M_prime, dtype=np.complex128)
    offset = (M_prime - M) // 2
    samples[offset : offset + M] = payload
    return PeriodicSignal(M=M_prime, B=B, samples=samples)
