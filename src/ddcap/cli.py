"""Batch command-line front end.

Subcommands read and write the signal-JSON / intensity-CSV / family-JSON
contracts and print line-oriented ``key=value`` summaries.  Each command
loads its inputs, runs the library through :func:`_guard` and writes its
outputs, so a run is fixed by its flags alone; identical flags and seed
produce byte-identical output files.

Exit codes: 0 success, 2 input error, 3 domain error, 4 numerical failure.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import __version__
from .channel import (
    ClusteringAmbiguityError,
    DensityUnavailableError,
    InvariantViolation,
    NoiseSpec,
    apply_noise,
    counting_entropy,
    mc_mi,
    named_constellation,
)
from .formats import (
    read_experiment_json,
    read_intensity_csv,
    read_signal_json,
    write_csv,
    write_family_json,
    write_intensity_csv,
    write_report_json,
    write_signal_json,
)
from .minphase import DEFAULT_TOL, IntensityNotRealizableError, min_phase_from_intensity
from .signals import (  # field_grid and samples_to_spectrum: call sites perfbench/spans.py wraps
    PeriodicSignal,
    SampledIntensity,
    field_grid,
    field_intensity,
    intensity_grid,
    random_signal,
    samples_to_spectrum,
)
from .zeros import (
    DEFAULT_FLIP_CAP,
    EnumerationCapError,
    OnCircleFlipError,
    RootConvergenceError,
    enumerate_family,
)

EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERICAL = 4

MI_RECEIVERS = ("coherent", "direct", "intensity")

_DOMAIN_ERRORS = (
    EnumerationCapError,
    OnCircleFlipError,
    ClusteringAmbiguityError,
    DensityUnavailableError,
    IntensityNotRealizableError,
    ValueError,
)
_NUMERICAL_ERRORS = (RootConvergenceError, FloatingPointError, InvariantViolation)


def _snr(snr_db: float | None) -> float:
    """The linear SNR of an ``--snr-db`` value; no value means noiseless."""
    try:
        return math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    except OverflowError:  # beyond the float range: noiseless
        return math.inf


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_signal(path) -> PeriodicSignal:
    try:
        return read_signal_json(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        _fail(EXIT_INPUT, f"cannot read signal JSON {path}: {exc}")


def _load_intensity(path) -> SampledIntensity:
    try:
        return read_intensity_csv(path)
    except (OSError, ValueError) as exc:
        _fail(EXIT_INPUT, f"cannot read intensity CSV {path}: {exc}")


def _guard(fn, *args, **kwargs):
    """Run a library call, mapping exceptions onto the exit-code contract."""
    try:
        return fn(*args, **kwargs)
    except _NUMERICAL_ERRORS as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except _DOMAIN_ERRORS as exc:
        _fail(EXIT_DOMAIN, str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Equal-intensity waveform families and direct-detection information."""


@main.command("enumerate")
@click.option("--input", "input_path", required=True, type=click.Path(), help="signal JSON")
@click.option("--output", "output_path", required=True, type=click.Path(), help="family JSON")
@click.option("--max-flips", default=DEFAULT_FLIP_CAP, show_default=True, help="cap on independent flips")
def cmd_enumerate(input_path, output_path, max_flips):
    """Enumerate all band-limited waveforms sharing the input's intensity."""
    sig = _load_signal(input_path)
    fam = _guard(enumerate_family, sig, max_flips=max_flips)
    write_family_json(output_path, fam)
    n_on = int(fam.zeroset.on_circle.sum())
    click.echo(f"members={len(fam)} zeros_on_circle={n_on}")


@main.command("figure2")
@click.option("--input", "input_path", type=click.Path(), default=None,
              help="signal JSON (M=4); generated from --seed when omitted")
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--B", "bandwidth", default=1.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
def cmd_figure2(input_path, output_path, bandwidth, seed):
    """Dense grid of one shared intensity and the 8 member phases (M=4).

    Emits CSV columns t, intensity, phase_0..phase_7 on 512 points per
    period; all member intensities are checked to agree to 1e-8 relative
    before the single intensity column is written.
    """
    if input_path is not None:
        sig = _load_signal(input_path)
    else:
        sig = _guard(random_signal, 4, bandwidth, seed=seed)
    if sig.M != 4:
        _fail(EXIT_DOMAIN, f"figure2 requires an M=4 signal, got M={sig.M}")
    if not math.isfinite(sig.period):
        _fail(EXIT_DOMAIN, f"figure2 needs a finite bandwidth and period, got B={sig.B!r}")
    fam = _guard(enumerate_family, sig)
    if len(fam) != 8:
        _fail(
            EXIT_DOMAIN,
            f"degenerate input: {len(fam)} members instead of 8 "
            f"(a zero sits on the unit circle); re-seed or supply another signal",
        )
    points = 512
    oversample = points // sig.M
    # oversample is a power of two: dividing by it first changes no bit, and
    # oversample * B could overflow
    times = np.arange(points) / oversample / sig.B
    with np.errstate(over="ignore", invalid="ignore"):  # a grid beyond float64 is refused below
        fields = np.fft.fft(np.fft.ifft(fam.samples, axis=1), n=points, axis=1)  # zero-padded spectra
        intensities = np.abs(fields) ** 2
    if not np.all(np.isfinite(intensities)):
        _fail(EXIT_DOMAIN, f"the member intensities on the {points}-point grid overflow float64")
    spread = np.max(np.abs(intensities - intensities[0])) / np.max(intensities[0])
    if spread > 1e-8:
        _fail(EXIT_NUMERICAL, f"member intensities disagree by {spread:.3e} relative")
    phases = np.unwrap(np.angle(fields), axis=1)
    write_csv(output_path, "t,intensity," + ",".join(f"phase_{j}" for j in range(8)),
              [times, intensities[0], *phases])
    click.echo(f"members=8 points={points} intensity_spread={spread:.3e}")


@main.command("minphase")
@click.option("--input", "input_path", required=True, type=click.Path(), help="intensity CSV")
@click.option("--output", "output_path", required=True, type=click.Path(), help="signal JSON")
@click.option("--M", "m_dof", required=True, type=int)
@click.option("--tol", default=DEFAULT_TOL, show_default=True)
def cmd_minphase(input_path, output_path, m_dof, tol):
    """Reconstruct the minimum-phase waveform from an intensity profile."""
    intensity = _load_intensity(input_path)
    result = _guard(min_phase_from_intensity, intensity, m_dof, tol=tol)
    write_signal_json(output_path, result.signal)
    click.echo(
        f"residual={result.residual:.6e} "
        f"projection_residual={result.projection_residual:.6e} "
        f"regularized={str(result.regularized).lower()} grid={result.grid_size}"
    )


@main.command("mi")
@click.option("--spec", "spec_path", type=click.Path(), default=None,
              help="experiment JSON overriding the flags")
@click.option("--receiver", type=click.Choice(MI_RECEIVERS), default="coherent", show_default=True)
@click.option("--input-model", default="gaussian", show_default=True,
              help="gaussian or a constellation name (bpsk/qpsk/8psk)")
@click.option("--snr-db", default=10.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--n-samples", default=100_000, show_default=True)
@click.option("--M", "m_dof", default=1, show_default=True)
@click.option("--output", "output_path", type=click.Path(), default=None, help="report JSON")
def cmd_mi(spec_path, receiver, input_model, snr_db, seed, n_samples, m_dof, output_path):
    """Monte-Carlo mutual information for one receiver and input model."""
    if spec_path is not None:
        try:
            spec = read_experiment_json(spec_path)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            _fail(EXIT_INPUT, f"cannot read experiment spec {spec_path}: {exc}")
        model = spec["input"]
        if isinstance(model, dict):
            model = model.get("model", "gaussian")
        input_model = _spec_value("input", model, str)
        receiver = _spec_value("receiver", spec["receiver"], str)
        if receiver not in MI_RECEIVERS:
            _fail(EXIT_INPUT, f"spec field 'receiver' must be one of {', '.join(MI_RECEIVERS)}, "
                              f"got {receiver!r}")
        snr_db = float(_spec_value("snr_db", spec["snr_db"], (int, float)))
        seed = _spec_value("seed", spec["seed"], int)
        n_samples = _spec_value("n_samples", spec["n_samples"], int)
        m_dof = _spec_value("M", spec.get("M", m_dof), int)
    model = "gaussian" if input_model == "gaussian" else _guard(named_constellation, input_model)
    noise = _guard(NoiseSpec, snr=_snr(snr_db), seed=seed)
    report = _guard(mc_mi, receiver, model, noise, n_samples, M=m_dof)
    est = report.estimate
    payload = {
        "version": __version__,
        "bits_per_dof": est.bits_per_dof,
        "std_error": est.std_error,
        "method": est.method,
        "bound_direction": est.bound_direction,
        "receiver": report.receiver,
        "input_model": report.input_model,
        "snr_db": snr_db,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "M": report.M,
        "phase_quotient": report.phase_quotient,
        "closed_form_bits_per_dof": report.closed_form_bits_per_dof,
    }
    if output_path:
        write_report_json(output_path, payload)
    click.echo(
        f"bits_per_dof={est.bits_per_dof:.6f} std_error={est.std_error:.6f} "
        f"method={est.method} bound_direction={est.bound_direction}"
    )


def _spec_value(key: str, value, kind):
    """An experiment-spec field, held to the type its command-line flag has."""
    if isinstance(value, bool) or not isinstance(value, kind):
        wanted = {str: "a string", int: "an integer"}.get(kind, "a number")
        _fail(EXIT_INPUT, f"spec field {key!r} must be {wanted}, got {value!r}")
    return value


@main.command("counting")
@click.option("--constellation", default="qpsk", show_default=True)
@click.option("--M", "m_dof", default=2, show_default=True)
@click.option("--output", "output_path", type=click.Path(), default=None, help="report JSON")
def cmd_counting(constellation, m_dof, output_path):
    """Noiseless entropy counting over a constellation^M waveform alphabet."""
    points = _guard(named_constellation, constellation)
    report = _guard(counting_entropy, points, m_dof)
    payload = {
        "version": __version__,
        "constellation": constellation,
        "M": report.M,
        "n_waveforms": report.n_waveforms,
        "n_distinct": report.n_distinct,
        "h_coherent_bits": report.h_coherent,
        "h_direct_bits": report.h_direct,
        "gap_bits": report.gap_bits,
        "gap_bound_bits": report.gap_bound,
        "max_fiber": report.max_fiber,
        "fiber_bound": report.fiber_bound,
        "phase_quotient": report.phase_quotient,
    }
    if output_path:
        write_report_json(output_path, payload)
    click.echo(
        f"n_distinct={report.n_distinct} h_coherent={report.h_coherent:.6f} "
        f"h_direct={report.h_direct:.6f} gap_bits={report.gap_bits:.6f} "
        f"max_fiber={report.max_fiber}"
    )


@main.command("simulate")
@click.option("--input", "input_path", required=True, type=click.Path(), help="signal JSON")
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--receiver", type=click.Choice(["coherent", "direct", "intensity", "grid"]),
              default="coherent", show_default=True)
@click.option("--snr-db", type=float, default=None, help="omit for a noiseless run")
@click.option("--seed", default=0, show_default=True)
@click.option("--oversample", default=8, show_default=True,
              help="grid receiver only: intensity samples per 1/B")
def cmd_simulate(input_path, output_path, receiver, snr_db, seed, oversample):
    """Push a waveform through the noisy channel and one receiver.

    coherent writes signal JSON; direct (rate 2B), intensity (rate B) and
    grid (rate oversample*B) write intensity CSV.
    """
    sig = _load_signal(input_path)
    noise = _guard(NoiseSpec, snr=_snr(snr_db), seed=seed)
    received = _guard(apply_noise, sig, noise)
    if receiver == "coherent":
        write_signal_json(output_path, received)
        click.echo(f"receiver=coherent samples={received.M}")
        return
    if receiver == "intensity":
        intensity = SampledIntensity(rate=received.B, values=_guard(field_intensity, received.samples))
    else:  # direct detection is the grid at oversample 2
        intensity = _guard(intensity_grid, received, 2 if receiver == "direct" else oversample)
    write_intensity_csv(output_path, intensity)
    click.echo(f"receiver={receiver} rows={len(intensity.values)} rate={intensity.rate:.17g}")


if __name__ == "__main__":
    main()
