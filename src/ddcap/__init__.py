"""ddcap: equal-intensity families of band-limited waveforms and the
information cost of direct (intensity-only) detection."""

from .signals import (
    DimensionMismatchError,
    PeriodicSignal,
    SampledIntensity,
    SpectralPoly,
    canonicalize_phase,
    evaluate_field,
    field_grid,
    half_sample_intensity_oracle,
    inner_product,
    intensity_grid,
    phase_distance,
    random_signal,
    resample_real_periodic,
    samples_to_spectrum,
    spectrum_to_samples,
)
from .zeros import (
    EnumerationCapError,
    EqualIntensityFamily,
    OnCircleFlipError,
    RootConvergenceError,
    ZeroSet,
    embed_finite_support,
    enumerate_family,
    find_zeros,
    flip_zeros,
    min_phase_member,
    signal_from_zeros,
)
from .minphase import (
    IntensityNotRealizableError,
    LogMagnitudeSeries,
    MinPhaseResult,
    log_magnitude_series,
    min_phase_from_intensity,
    periodic_hilbert,
)
from .channel import (
    ChainBoundReport,
    ClusteringAmbiguityError,
    CountingReport,
    DensityUnavailableError,
    DiscreteChannel,
    InvariantViolation,
    MIEstimate,
    MonteCarloReport,
    NoiseSpec,
    apply_noise,
    capacity_prior_search,
    chain_bound_check,
    counting_entropy,
    detect_coherent,
    detect_intensity_channel,
    exact_mi,
    inband_noise_coefficients,
    mc_mi,
    named_constellation,
    psk,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
