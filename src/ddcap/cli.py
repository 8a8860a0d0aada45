"""Batch command-line front end.

Subcommands read and write the signal-JSON / intensity-CSV / family-JSON
contracts and print line-oriented ``key=value`` summaries.  Each command
loads its inputs, runs the library through :func:`_guard` and writes its
outputs, so a run is fixed by its flags alone; identical flags and seed
produce byte-identical output files.

Exit codes: 0 success, 2 input error, 3 domain error, 4 numerical failure.
Each failure prints one ``error:`` line on stderr; a usage error (an unknown
or abbreviated option, a missing one, a value of the wrong type) exits 2.
The parser is built once, at import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

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
from .signals import (  # samples_to_spectrum: a call site perfbench/spans.py wraps
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
    """The linear SNR of an ``--snr-db`` value; no value means noiseless.

    A value whose linear SNR is not positive (nan, or below about -3236 dB,
    where it underflows to 0) exits 3 naming the flag.
    """
    try:
        snr = math.inf if snr_db is None else 10.0 ** (snr_db / 10.0)
    except OverflowError:  # beyond the float range: noiseless
        return math.inf
    if math.isnan(snr):
        _fail(EXIT_DOMAIN, f"snr must be positive, but --snr-db {snr_db!r} is not a number")
    if snr == 0.0:
        _fail(EXIT_DOMAIN, f"snr must be positive, but --snr-db {snr_db!r} underflows to 0 "
                           f"(below about -3236 dB)")
    return snr


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one ``error:`` line and exit 2."""

    def error(self, message):
        _fail(EXIT_INPUT, message)


_PARSER = _Parser(prog="ddcap", description="Equal-intensity waveform families and direct-detection information.",
                  add_help=False, allow_abbrev=False)
_PARSER.add_argument("--help", action="help", help="show this message and exit")
_PARSER.add_argument("--version", action="version", version=f"ddcap, version {__version__}")
_COMMANDS = _PARSER.add_subparsers(dest="command", metavar="COMMAND", required=True)
_VALUE_OPTIONS: dict[str, frozenset[str]] = {}  # per command: its options, each of which takes a value
_DEFAULT = " (default: %(default)s)"


def _command(name: str, *options):
    """Register the decorated function as subcommand ``name``.

    Each option is a ``(flag, settings)`` pair for ``add_argument``; the
    function is called with the parsed options as keyword arguments.
    """

    def register(fn):
        sub = _COMMANDS.add_parser(name, help=fn.__doc__.splitlines()[0], description=fn.__doc__,
                                   add_help=False, allow_abbrev=False)
        sub.add_argument("--help", action="help", help="show this message and exit")
        for flag, settings in options:
            sub.add_argument(flag, **settings)
        sub.set_defaults(run=fn)
        _VALUE_OPTIONS[name] = frozenset(flag for flag, _ in options)
        return fn

    return register


def _fused(args: list[str]) -> list[str]:
    """``args`` with each option of the command and the token after it fused
    into one ``--option=value``.

    Every option takes a value, and the token after it is that value even
    when it starts with ``-``: argparse would take ``-1e+300``, ``-inf`` or
    ``--input`` for an option name.
    """
    options = _VALUE_OPTIONS.get(args[0]) if args else None
    if not options:
        return args
    fused, tokens = [args[0]], iter(args[1:])
    for token in tokens:
        if token in options:
            value = next(tokens, None)
            if value is not None:  # else argparse reports the missing value
                token = f"{token}={value}"
        fused.append(token)
    return fused


def main(args=None, prog_name=None):
    """Run one ``ddcap`` command line, ``sys.argv[1:]`` when ``args`` is None.

    A command that succeeds returns None.  ``--help`` and ``--version``
    raise ``SystemExit(0)``, and every failure, a usage error included,
    raises ``SystemExit`` with its exit code after one ``error:`` line.
    ``prog_name`` is accepted for callers that pass one and ignored: the
    program is ``ddcap``.
    """
    options = vars(_PARSER.parse_args(_fused(sys.argv[1:] if args is None else list(args))))
    del options["command"]
    try:
        options.pop("run")(**options)
        # a pipe holds the summary line in its buffer: flush it here, so that
        # a reader that has gone is met below and not at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone: exit 1 without a traceback, and send what
        # is still buffered to devnull, so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


@_command(
    "enumerate",
    ("--input", dict(dest="input_path", required=True, help="signal JSON")),
    ("--output", dict(dest="output_path", required=True, help="family JSON")),
    ("--max-flips", dict(type=int, default=DEFAULT_FLIP_CAP, help="cap on independent flips" + _DEFAULT)),
)
def cmd_enumerate(input_path, output_path, max_flips):
    """Enumerate all band-limited waveforms sharing the input's intensity."""
    sig = _load_signal(input_path)
    fam = _guard(enumerate_family, sig, max_flips=max_flips)
    write_family_json(output_path, fam)
    n_on = int(fam.zeroset.on_circle.sum())
    print(f"members={len(fam)} zeros_on_circle={n_on}")


@_command(
    "figure2",
    ("--input", dict(dest="input_path", help="signal JSON (M=4); generated from --seed when omitted")),
    ("--output", dict(dest="output_path", required=True, help="figure CSV")),
    ("--B", dict(dest="bandwidth", type=float, default=1.0, help="bandwidth" + _DEFAULT)),
    ("--seed", dict(type=int, default=0, help="seed of the generated signal" + _DEFAULT)),
)
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
        fields = field_grid(np.fft.ifft(fam.samples, axis=1), oversample)
        intensities = np.abs(fields) ** 2
    if not np.all(np.isfinite(intensities)):
        _fail(EXIT_DOMAIN, f"the member intensities on the {points}-point grid overflow float64")
    spread = np.max(np.abs(intensities - intensities[0])) / np.max(intensities[0])
    if spread > 1e-8:
        _fail(EXIT_NUMERICAL, f"member intensities disagree by {spread:.3e} relative")
    phases = np.unwrap(np.angle(fields), axis=1)
    write_csv(output_path, "t,intensity," + ",".join(f"phase_{j}" for j in range(8)),
              [times, intensities[0], *phases])
    print(f"members=8 points={points} intensity_spread={spread:.3e}")


@_command(
    "minphase",
    ("--input", dict(dest="input_path", required=True, help="intensity CSV")),
    ("--output", dict(dest="output_path", required=True, help="signal JSON")),
    ("--M", dict(dest="m_dof", required=True, type=int, help="degrees of freedom")),
    ("--tol", dict(type=float, default=DEFAULT_TOL, help="reconstruction tolerance" + _DEFAULT)),
)
def cmd_minphase(input_path, output_path, m_dof, tol):
    """Reconstruct the minimum-phase waveform from an intensity profile."""
    intensity = _load_intensity(input_path)
    result = _guard(min_phase_from_intensity, intensity, m_dof, tol=tol)
    write_signal_json(output_path, result.signal)
    print(
        f"residual={result.residual:.6e} "
        f"projection_residual={result.projection_residual:.6e} "
        f"regularized={str(result.regularized).lower()} grid={result.grid_size}"
    )


@_command(
    "mi",
    ("--spec", dict(dest="spec_path", help="experiment JSON overriding the flags")),
    ("--receiver", dict(choices=MI_RECEIVERS, default="coherent", help="receiver" + _DEFAULT)),
    ("--input-model", dict(default="gaussian",
                           help="gaussian or a constellation name (bpsk/qpsk/8psk)" + _DEFAULT)),
    ("--snr-db", dict(type=float, default=10.0, help="SNR in dB" + _DEFAULT)),
    ("--seed", dict(type=int, default=0, help="seed of the draws" + _DEFAULT)),
    ("--n-samples", dict(type=int, default=100_000, help="waveforms drawn" + _DEFAULT)),
    ("--M", dict(dest="m_dof", type=int, default=1, help="degrees of freedom" + _DEFAULT)),
    ("--output", dict(dest="output_path", help="report JSON")),
)
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
    # names match whatever their case, as constellation names do
    model = "gaussian" if input_model.lower() == "gaussian" else _guard(named_constellation, input_model)
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
    print(
        f"bits_per_dof={est.bits_per_dof:.6f} std_error={est.std_error:.6f} "
        f"method={est.method} bound_direction={est.bound_direction}"
    )


def _spec_value(key: str, value, kind):
    """An experiment-spec field, held to the type its command-line flag has."""
    if isinstance(value, bool) or not isinstance(value, kind):
        wanted = {str: "a string", int: "an integer"}.get(kind, "a number")
        _fail(EXIT_INPUT, f"spec field {key!r} must be {wanted}, got {value!r}")
    return value


@_command(
    "counting",
    ("--constellation", dict(default="qpsk", help="bpsk, qpsk or 8psk" + _DEFAULT)),
    ("--M", dict(dest="m_dof", type=int, default=2, help="degrees of freedom" + _DEFAULT)),
    ("--output", dict(dest="output_path", help="report JSON")),
)
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
    print(
        f"n_distinct={report.n_distinct} h_coherent={report.h_coherent:.6f} "
        f"h_direct={report.h_direct:.6f} gap_bits={report.gap_bits:.6f} "
        f"max_fiber={report.max_fiber}"
    )


@_command(
    "simulate",
    ("--input", dict(dest="input_path", required=True, help="signal JSON")),
    ("--output", dict(dest="output_path", required=True, help="signal JSON or intensity CSV")),
    ("--receiver", dict(choices=("coherent", "direct", "intensity", "grid"), default="coherent",
                        help="receiver" + _DEFAULT)),
    ("--snr-db", dict(type=float, help="SNR in dB; omit for a noiseless run")),
    ("--seed", dict(type=int, default=0, help="seed of the noise" + _DEFAULT)),
    ("--oversample", dict(type=int, default=8,
                          help="grid receiver only: intensity samples per 1/B" + _DEFAULT)),
)
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
        print(f"receiver=coherent samples={received.M}")
        return
    if receiver == "intensity":
        intensity = _guard(SampledIntensity, rate=received.B, values=_guard(field_intensity, received.samples))
    else:  # direct detection is the grid at oversample 2
        intensity = _guard(intensity_grid, received, 2 if receiver == "direct" else oversample)
    write_intensity_csv(output_path, intensity)
    print(f"receiver={receiver} rows={len(intensity.values)} rate={intensity.rate:.17g}")


if __name__ == "__main__":
    main()
