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
    MinPhaseResult,
    min_phase_from_intensity,
    periodic_hilbert,
)
from .channel import (
    ChainBoundReport,
    ClusteringAmbiguityError,
    CountingReport,
    DensityUnavailableError,
    InvariantViolation,
    MIEstimate,
    MonteCarloReport,
    NoiseSpec,
    apply_noise,
    chain_bound_check,
    counting_entropy,
    mc_mi,
    named_constellation,
    psk,
)

__version__ = "0.1.0"

# the imports above also bind the submodules channel, minphase, signals and
# zeros here; only the classes and functions are exported
__all__ = sorted(name for name, value in globals().items() if not name.startswith("_") and callable(value))
