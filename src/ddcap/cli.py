"""Batch command-line front end.

Subcommands read and write the signal-JSON / intensity-CSV / family-JSON
contracts and print line-oriented ``key=value`` summaries.  Each command
resolves its flags into a :class:`RunConfig` and hands off to a plain
function, so runs are reproducible from the config alone; identical
configuration and seed produce byte-identical output files.

Exit codes: 0 success, 2 input error, 3 domain error, 4 numerical failure.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

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
    detect_coherent,
    detect_direct,
    detect_intensity_channel,
    mc_mi,
    named_constellation,
)
from .formats import (
    read_experiment_json,
    read_intensity_csv,
    read_signal_json,
    write_family_json,
    write_intensity_csv,
    write_report_json,
    write_signal_json,
)
from .minphase import IntensityNotRealizableError, min_phase_from_intensity
from .signals import (  # field_grid and samples_to_spectrum: call sites perfbench/spans.py wraps
    PeriodicSignal,
    SampledIntensity,
    field_grid,
    intensity_grid,
    random_signal,
    samples_to_spectrum,
)
from .zeros import EnumerationCapError, OnCircleFlipError, RootConvergenceError, enumerate_family

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


@dataclass
class RunConfig:
    """Resolved options of one subcommand invocation."""

    subcommand: str
    input_path: str | None = None
    output_path: str | None = None
    M: int = 4
    B: float = 1.0
    seed: int = 0
    snr_db: float | None = None
    oversample: int = 8
    n_samples: int = 100_000
    tol: float = 1e-6
    receiver: str = "coherent"
    input_model: str = "gaussian"
    max_flips: int = 20

    @property
    def snr(self) -> float:
        try:
            return math.inf if self.snr_db is None else 10.0 ** (self.snr_db / 10.0)
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
@click.option("--max-flips", default=20, show_default=True, help="cap on independent flips")
def cmd_enumerate(input_path, output_path, max_flips):
    """Enumerate all band-limited waveforms sharing the input's intensity."""
    cfg = RunConfig("enumerate", input_path=input_path, output_path=output_path, max_flips=max_flips)
    _run_enumerate(cfg)


def _run_enumerate(cfg: RunConfig):
    sig = _load_signal(cfg.input_path)
    fam = _guard(enumerate_family, sig, max_flips=cfg.max_flips)
    write_family_json(cfg.output_path, fam)
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
    cfg = RunConfig("figure2", input_path=input_path, output_path=output_path, B=bandwidth, seed=seed)
    _run_figure2(cfg)


def _run_figure2(cfg: RunConfig):
    if cfg.input_path is not None:
        sig = _load_signal(cfg.input_path)
    else:
        sig = random_signal(4, cfg.B, seed=cfg.seed)
    if sig.M != 4:
        _fail(EXIT_DOMAIN, f"figure2 requires an M=4 signal, got M={sig.M}")
    fam = _guard(enumerate_family, sig)
    if len(fam) != 8:
        _fail(
            EXIT_DOMAIN,
            f"degenerate input: {len(fam)} members instead of 8 "
            f"(a zero sits on the unit circle); re-seed or supply another signal",
        )
    points = 512
    oversample = points // sig.M
    times = np.arange(points) / (oversample * sig.B)
    fields = np.fft.fft(np.fft.ifft(fam.samples, axis=1), n=points, axis=1)  # zero-padded spectra
    intensities = np.abs(fields) ** 2
    spread = np.max(np.abs(intensities - intensities[0])) / np.max(intensities[0])
    if spread > 1e-8:
        _fail(EXIT_NUMERICAL, f"member intensities disagree by {spread:.3e} relative")
    phases = np.unwrap(np.angle(fields), axis=1)
    with open(cfg.output_path, "w") as fh:
        fh.write("t,intensity," + ",".join(f"phase_{j}" for j in range(8)) + "\n")
        for i in range(points):
            row = [f"{times[i]:.17g}", f"{intensities[0][i]:.17g}"]
            row += [f"{p[i]:.17g}" for p in phases]
            fh.write(",".join(row) + "\n")
    click.echo(f"members=8 points={points} intensity_spread={spread:.3e}")


@main.command("minphase")
@click.option("--input", "input_path", required=True, type=click.Path(), help="intensity CSV")
@click.option("--output", "output_path", required=True, type=click.Path(), help="signal JSON")
@click.option("--M", "m_dof", required=True, type=int)
@click.option("--tol", default=1e-6, show_default=True)
def cmd_minphase(input_path, output_path, m_dof, tol):
    """Reconstruct the minimum-phase waveform from an intensity profile."""
    cfg = RunConfig("minphase", input_path=input_path, output_path=output_path, M=m_dof, tol=tol)
    _run_minphase(cfg)


def _run_minphase(cfg: RunConfig):
    intensity = _load_intensity(cfg.input_path)
    result = _guard(min_phase_from_intensity, intensity, cfg.M, tol=cfg.tol)
    write_signal_json(cfg.output_path, result.signal)
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
    cfg = RunConfig("mi", output_path=output_path, M=m_dof, seed=seed, snr_db=snr_db,
                    n_samples=n_samples, receiver=receiver, input_model=input_model)
    _run_mi(cfg)


def _spec_value(key: str, value, kind):
    """An experiment-spec field, held to the type its command-line flag has."""
    if isinstance(value, bool) or not isinstance(value, kind):
        wanted = {str: "a string", int: "an integer"}.get(kind, "a number")
        _fail(EXIT_INPUT, f"spec field {key!r} must be {wanted}, got {value!r}")
    return value


def _run_mi(cfg: RunConfig):
    model = "gaussian" if cfg.input_model == "gaussian" else _guard(named_constellation, cfg.input_model)
    noise = _guard(NoiseSpec, snr=cfg.snr, seed=cfg.seed)
    report = _guard(mc_mi, cfg.receiver, model, noise, cfg.n_samples, M=cfg.M)
    est = report.estimate
    payload = {
        "version": __version__,
        "bits_per_dof": est.bits_per_dof,
        "std_error": est.std_error,
        "method": est.method,
        "bound_direction": est.bound_direction,
        "receiver": report.receiver,
        "input_model": report.input_model,
        "snr_db": cfg.snr_db,
        "seed": report.seed,
        "n_samples": report.n_samples,
        "M": report.M,
        "phase_quotient": report.phase_quotient,
        "closed_form_bits_per_dof": report.closed_form_bits_per_dof,
    }
    if cfg.output_path:
        write_report_json(cfg.output_path, payload)
    click.echo(
        f"bits_per_dof={est.bits_per_dof:.6f} std_error={est.std_error:.6f} "
        f"method={est.method} bound_direction={est.bound_direction}"
    )


@main.command("counting")
@click.option("--constellation", default="qpsk", show_default=True)
@click.option("--M", "m_dof", default=2, show_default=True)
@click.option("--output", "output_path", type=click.Path(), default=None, help="report JSON")
def cmd_counting(constellation, m_dof, output_path):
    """Noiseless entropy counting over a constellation^M waveform alphabet."""
    cfg = RunConfig("counting", output_path=output_path, M=m_dof, input_model=constellation)
    _run_counting(cfg)


def _run_counting(cfg: RunConfig):
    points = _guard(named_constellation, cfg.input_model)
    report = _guard(counting_entropy, points, cfg.M)
    payload = {
        "version": __version__,
        "constellation": cfg.input_model,
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
    if cfg.output_path:
        write_report_json(cfg.output_path, payload)
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
    cfg = RunConfig("simulate", input_path=input_path, output_path=output_path,
                    seed=seed, snr_db=snr_db, oversample=oversample, receiver=receiver)
    _run_simulate(cfg)


def _run_simulate(cfg: RunConfig):
    sig = _load_signal(cfg.input_path)
    noise = _guard(NoiseSpec, snr=cfg.snr, seed=cfg.seed)
    received = _guard(apply_noise, sig, noise)
    if cfg.receiver == "coherent":
        out = PeriodicSignal(M=received.M, B=received.B, samples=detect_coherent(received))
        write_signal_json(cfg.output_path, out)
        click.echo(f"receiver=coherent samples={out.M}")
        return
    if cfg.receiver == "direct":
        intensity = SampledIntensity(rate=2 * received.B, values=detect_direct(received))
    elif cfg.receiver == "intensity":
        intensity = SampledIntensity(rate=received.B, values=detect_intensity_channel(received))
    else:
        intensity = _guard(intensity_grid, received, cfg.oversample)
    write_intensity_csv(cfg.output_path, intensity)
    click.echo(
        f"receiver={cfg.receiver} rows={len(intensity.values)} rate={intensity.rate:.17g}"
    )


if __name__ == "__main__":
    main()
