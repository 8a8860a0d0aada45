"""The four benchmark workloads: generated inputs, the ops that run on them, and their checks.

Every op drives a ``ddcap`` subcommand in-process through ``ddcap.cli.main``;
only ``chain_bound_check``, which has no subcommand, is a library call.  The
inputs (signal JSON files and flag values) come from ``--seed`` alone and are
written during set-up, so the program only ever reads generated files.

An op ends in one of three ways:

* ok       -- exit 0 and the output check passes;
* refused  -- exit 3 with a one-line ``error:`` message, the CLI's documented
  answer for an input beyond a known numerical or size limit;
* failed   -- anything else: another exit code, a traceback, or a failed check.

Each check returns the op's work count (members, retrievals, MC samples or
waveforms), read from the verified output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

import ddcap.channel
import ddcap.cli
from ddcap.signals import PeriodicSignal, phase_distance
from ddcap.zeros import ZERO_MERGE_TOL, enumerate_family, min_phase_member

EXIT_REFUSED = 3
FAMILY_INTENSITY_RTOL = 1e-8
MINPHASE_BASE_TOL = 1e-6  # the CLI's default --tol
MINPHASE_FLOOR = 1e-12  # intensity clamp of min_phase_from_intensity
PHASE_RTOL = 1e-6
MC_SIGMAS = 5.0
INVARIANT_SLACK = 1e-9


class CheckError(Exception):
    """An op's output violates one of the invariants the benchmark checks."""


@dataclass
class Outcome:
    code: int  # exit code; -1 for an exception that escaped the CLI
    stdout: str = ""
    stderr: str = ""
    value: object = None  # return value of a library op


@dataclass
class Op:
    name: str
    run: Callable[[object], Outcome]  # timed; takes the tracer
    check: Callable[[Outcome], int]  # untimed; returns the work count or raises CheckError
    outputs: tuple[Path, ...] = ()

    def output_bytes(self, outcome: Outcome) -> bytes:
        """What the byte-determinism check hashes."""
        if not self.outputs:
            return repr(outcome.value).encode()
        return b"".join(p.read_bytes() for p in self.outputs if p.exists())


def classify(outcome: Outcome) -> str:
    if outcome.code == 0:
        return "ok"
    lines = outcome.stderr.strip().splitlines()
    if outcome.code == EXIT_REFUSED and len(lines) == 1 and lines[0].startswith("error: "):
        return "refused"
    return "failed"


def invoke(tracer, args: list[str]) -> Outcome:
    """Run one ``ddcap`` subcommand in this process and capture its result."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), tracer.span(f"cli.{args[0]}"):
        try:
            ddcap.cli.main(args=args, prog_name="ddcap")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is a failed op, not a crash of the benchmark
            traceback.print_exc()
            code = -1
    return Outcome(code, out.getvalue(), err.getvalue())


def _summary(stdout: str) -> dict[str, str]:
    """The ``key=value`` summary line a subcommand prints."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def _random_coeffs(rng, M: int) -> np.ndarray:
    """iid circular-Gaussian Fourier coefficients of unit expected power."""
    return (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2.0 * M)


def _random_samples(rng, M: int) -> np.ndarray:
    """Rate-B samples of a waveform with random coefficients."""
    return np.fft.fft(_random_coeffs(rng, M))


def _margin_samples(rng, M: int, margin: float) -> np.ndarray:
    """Like :func:`_random_samples`, with every zero of the field polynomial at
    least ``margin`` from the unit circle.

    Closer zeros are moved radially out to the margin, on their own side of
    the circle.  The distance of the nearest zero sets the grid that
    min-phase retrieval needs, so the margin makes its cost a function of M.
    """
    coeffs = _random_coeffs(rng, M)
    zeros = npoly.polyroots(coeffs)
    radius = np.abs(zeros)
    moved = np.where(radius < 1.0, np.minimum(radius, 1.0 - margin), np.maximum(radius, 1.0 + margin))
    pushed = npoly.polyfromroots(zeros * (moved / radius)) * coeffs[-1]
    pushed *= np.linalg.norm(coeffs) / np.linalg.norm(pushed)
    return np.fft.fft(pushed)


def _write_signal(path: Path, samples: np.ndarray):
    record = {"B": 1.0, "M": len(samples), "samples": [[float(s.real), float(s.imag)] for s in samples]}
    path.write_text(json.dumps(record, sort_keys=True) + "\n")


def _intensity(samples: np.ndarray, oversample: int) -> np.ndarray:
    """|E(t)|^2 on the rate-(oversample*B) grid; rows of ``samples`` are waveforms."""
    samples = np.atleast_2d(samples)
    M = samples.shape[1]
    padded = np.zeros((samples.shape[0], oversample * M), dtype=np.complex128)
    padded[:, :M] = np.fft.ifft(samples, axis=1)
    return np.abs(np.fft.fft(padded, axis=1)) ** 2


def _samples_of(record: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in record["samples"]])


def _require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


def _rng(seed: int, *key: int):
    return np.random.default_rng([seed, *key])


# ---------------------------------------------------------------------------
# family: enumerate + figure2


def _n_flip_groups(zeros: np.ndarray, on_circle: np.ndarray) -> int:
    """Off-circle zeros, with chains closer than ZERO_MERGE_TOL counted once."""
    off = list(zeros[~on_circle])
    groups = 0
    while off:
        groups += 1
        stack = [off.pop()]
        while stack:
            z = stack.pop()
            stack += [w for w in off if abs(w - z) <= ZERO_MERGE_TOL]
            off = [w for w in off if abs(w - z) > ZERO_MERGE_TOL]
    return groups


def _enumerate_op(workdir: Path, i: int, samples: np.ndarray) -> Op:
    sig, out = workdir / f"sig{i}.json", workdir / f"family{i}.json"
    _write_signal(sig, samples)

    def check(outcome: Outcome) -> int:
        data = json.loads(out.read_text())
        zeros = np.array([complex(re, im) for re, im in data["zeros"]])
        n0 = _n_flip_groups(zeros, np.array(data["on_circle"], dtype=bool))
        members = data["members"]
        _require(len(members) == 2**n0, f"{len(members)} members, expected 2^{n0}")
        _require(int(_summary(outcome.stdout)["members"]) == len(members), "summary disagrees with file")
        _require(np.array_equal(_samples_of(data["base"]), samples), "base is not the input signal")
        _require(len({m["mask"] for m in members}) == len(members), "duplicate flip masks")
        base = _intensity(samples, 8)[0]
        member_int = _intensity(np.array([_samples_of(m["signal"]) for m in members]), 8)
        spread = float(np.max(np.abs(member_int - base)) / base.max())
        _require(spread <= FAMILY_INTENSITY_RTOL, f"member intensities differ by {spread:.3e} relative")
        return len(members)

    return Op(f"enumerate M={len(samples)}", lambda tr: invoke(tr, ["enumerate", "--input", str(sig), "--output", str(out)]),
              check, (out,))


def _figure2_op(workdir: Path, i: int, samples: np.ndarray) -> Op:
    sig, out = workdir / f"sig{i}.json", workdir / f"figure2_{i}.csv"
    _write_signal(sig, samples)

    def check(outcome: Outcome) -> int:
        lines = out.read_text().splitlines()
        _require(lines[0] == "t,intensity," + ",".join(f"phase_{j}" for j in range(8)), "bad header")
        table = np.array([[float(x) for x in row.split(",")] for row in lines[1:]])
        _require(table.shape == (512, 10), f"table shape {table.shape}")
        expected = _intensity(samples, 512 // len(samples))[0]
        spread = float(np.max(np.abs(table[:, 1] - expected)) / expected.max())
        _require(spread <= FAMILY_INTENSITY_RTOL, f"intensity column off by {spread:.3e} relative")
        _require(_summary(outcome.stdout)["members"] == "8", "figure2 did not report 8 members")
        return 8

    return Op("figure2 M=4", lambda tr: invoke(tr, ["figure2", "--input", str(sig), "--output", str(out)]),
              check, (out,))


def family(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    sizes = [4, 5, 6] if tiny else [8, 9, 10, 11, 12]
    ops = [_enumerate_op(workdir, i, _random_samples(_rng(seed, 1, i), M)) for i, M in enumerate(sizes)]
    ops.append(_figure2_op(workdir, len(ops), _random_samples(_rng(seed, 2), 4)))
    return ops


# ---------------------------------------------------------------------------
# retrieve: simulate --receiver grid, then minphase


def _retrieve_op(workdir: Path, i: int, samples: np.ndarray) -> Op:
    M = len(samples)
    sig, csv, rec = workdir / f"sig{i}.json", workdir / f"intensity{i}.csv", workdir / f"recovered{i}.json"
    _write_signal(sig, samples)

    def run(tracer) -> Outcome:
        sim = invoke(tracer, ["simulate", "--input", str(sig), "--output", str(csv),
                              "--receiver", "grid", "--oversample", "8"])
        if sim.code != 0:
            return sim
        return invoke(tracer, ["minphase", "--input", str(csv), "--output", str(rec), "--M", str(M)])

    def check(outcome: Outcome) -> int:
        table = np.loadtxt(csv, delimiter=",", skiprows=1)
        truth = _intensity(samples, 8)[0]
        _require(table.shape == (8 * M, 2), f"intensity CSV shape {table.shape}")
        _require(np.allclose(table[:, 1], truth, rtol=0, atol=1e-13 * truth.max()), "simulated intensity is wrong")
        intensity = table[:, 1]
        peak = intensity.max()
        tolerance = min(MINPHASE_BASE_TOL * math.sqrt(peak / max(intensity.min(), MINPHASE_FLOOR * peak)), 1e-2)
        recovered = _samples_of(json.loads(rec.read_text()))
        residual = float(np.max(np.abs(_intensity(recovered, 8)[0] - intensity)) / peak)
        _require(residual <= tolerance, f"intensity residual {residual:.3e} above tolerance {tolerance:.3e}")
        _require(float(_summary(outcome.stdout)["residual"]) <= tolerance, "reported residual above tolerance")
        ref = min_phase_member(PeriodicSignal(M=M, B=1.0, samples=samples))
        distance = phase_distance(PeriodicSignal(M=M, B=1.0, samples=recovered), ref) / ref.power()
        _require(distance <= PHASE_RTOL, f"phase distance {distance:.3e} to the minimum-phase member")
        return 1

    return Op(f"retrieve M={M}", run, check, (csv, rec))


def retrieve(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    sizes = [8, 16] if tiny else [16, 32, 64, 128] * 5
    return [_retrieve_op(workdir, i, _margin_samples(_rng(seed, 3, i), M, 0.5 / M)) for i, M in enumerate(sizes)]


def retrieve_probes(seed: int, workdir: Path) -> list[Op]:
    """Round trips on unconstrained random signals, run once per traced run, untimed.

    Their zeros crowd the unit circle as M grows.  At these sizes the
    65536-point grid cap refuses many of them, and some reconstructions land
    far from the minimum-phase member, so they are counted (refused or
    wrong) rather than timed.
    """
    sizes = [128, 192, 256] * 4
    return [_retrieve_op(workdir, 1000 + i, _random_samples(_rng(seed, 4, i), M)) for i, M in enumerate(sizes)]


# ---------------------------------------------------------------------------
# mc: ddcap mi


_CONSTELLATION_SIZE = {"bpsk": 2, "qpsk": 4, "8psk": 8}

# (receiver, input model, M, n_samples, SNR in dB).  The SNR is fixed per op
# because the cost of the noncentral chi-square densities depends on it.
# Direct QPSK M=4 is the largest alphabet (256 waveforms); its (n, 256, 8)
# tensors set peak memory.  At n=1e5 they need ~6 GiB and the process is
# OOM-killed instead of exiting, so that case waits until the Monte-Carlo
# core runs in bounded memory.
_MC_MIX = [
    ("coherent", "gaussian", 1, 100_000, 10.0),
    ("coherent", "gaussian", 4, 100_000, 20.0),
    ("intensity", "gaussian", 1, 100_000, 20.0),
    ("intensity", "gaussian", 4, 50_000, 30.0),
    ("coherent", "qpsk", 2, 100_000, 10.0),
    ("intensity", "qpsk", 2, 100_000, 10.0),
    ("direct", "bpsk", 2, 50_000, 20.0),
    ("direct", "bpsk", 4, 20_000, 15.0),
    ("direct", "qpsk", 2, 20_000, 20.0),
    ("direct", "qpsk", 4, 4_000, 15.0),
]


def _mi_op(workdir: Path, i: int, receiver: str, model: str, M: int, n: int, snr_db: float, mc_seed: int) -> Op:
    out = workdir / f"mi{i}.json"
    args = ["mi", "--receiver", receiver, "--input-model", model, "--M", str(M), "--n-samples", str(n),
            "--snr-db", repr(snr_db), "--seed", str(mc_seed), "--output", str(out)]

    def check(outcome: Outcome) -> int:
        rep = json.loads(out.read_text())
        bits, se = rep["bits_per_dof"], rep["std_error"]
        _require((rep["receiver"], rep["n_samples"], rep["M"], rep["seed"]) == (receiver, n, M, mc_seed),
                 "report does not echo the request")
        _require(math.isfinite(bits) and math.isfinite(se) and se >= 0, "non-finite estimate")
        _require(rep["bound_direction"] == ("lower" if receiver == "direct" else "exact"), "wrong bound_direction")
        _require(bits >= -MC_SIGMAS * se, f"estimate {bits} below 0")
        if model != "gaussian":
            cap = math.log2(_CONSTELLATION_SIZE[model])
            _require(bits <= cap + MC_SIGMAS * se, f"estimate {bits} above log2|X| = {cap}")
        if receiver == "coherent" and model == "gaussian":
            closed = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
            _require(abs(bits - closed) <= MC_SIGMAS * se, f"estimate {bits} vs log2(1+SNR) = {closed}")
        return n

    return Op(f"mi {receiver} {model} M={M} n={n}", lambda tr: invoke(tr, args), check, (out,))


def mc(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    ops = []
    for i, (receiver, model, M, n, snr_db) in enumerate(_MC_MIX):
        mc_seed = int(_rng(seed, 5, i).integers(0, 2**31))
        ops.append(_mi_op(workdir, i, receiver, model, min(M, 2) if tiny else M,
                          2_000 if tiny else n, snr_db, mc_seed))
    return ops


# ---------------------------------------------------------------------------
# counting: ddcap counting + chain_bound_check


def _counting_op(workdir: Path, i: int, name: str, M: int) -> Op:
    out = workdir / f"counting{i}.json"
    n_wave = _CONSTELLATION_SIZE[name] ** M

    def check(outcome: Outcome) -> int:
        rep = json.loads(out.read_text())
        _require(rep["n_waveforms"] == n_wave, "wrong alphabet size")
        _require(-INVARIANT_SLACK <= rep["gap_bits"] <= M - 1 + INVARIANT_SLACK, f"gap {rep['gap_bits']} outside [0, M-1]")
        _require(rep["max_fiber"] <= 2 ** (M - 1), f"fiber {rep['max_fiber']} above 2^(M-1)")
        _require(abs(rep["h_coherent_bits"] - math.log2(rep["n_distinct"])) <= INVARIANT_SLACK, "H(Y') != log2 n_distinct")
        return n_wave

    args = ["counting", "--constellation", name, "--M", str(M), "--output", str(out)]
    return Op(f"counting {name} M={M}", lambda tr: invoke(tr, args), check, (out,))


def _chain_bound_op(name: str, signals: list[PeriodicSignal], saturates: bool) -> Op:
    M = signals[0].M

    def run(tracer) -> Outcome:
        try:
            return Outcome(0, value=ddcap.channel.chain_bound_check(signals))
        except Exception:  # a traceback is a failed op, not a crash of the benchmark
            return Outcome(-1, stderr=traceback.format_exc())

    def check(outcome: Outcome) -> int:
        rep = outcome.value
        bound = (M - 1) / M
        _require(-INVARIANT_SLACK <= rep.gap <= bound + INVARIANT_SLACK, f"gap {rep.gap} outside [0, (M-1)/M]")
        if M == 1:
            _require(abs(rep.gap) <= INVARIANT_SLACK, f"gap {rep.gap} is not 0 at M=1")
        if saturates:
            _require(abs(rep.gap - bound) <= INVARIANT_SLACK, f"family gap {rep.gap} does not reach (M-1)/M")
        return len(signals)

    return Op(f"chain_bound {name} M={M}", run, check)


def _alphabet(name: str, M: int) -> list[PeriodicSignal]:
    points = ddcap.channel.named_constellation(name)
    return [PeriodicSignal(M=M, B=1.0, samples=np.array(t)) for t in itertools.product(points, repeat=M)]


def counting(seed: int, workdir: Path, tiny: bool) -> list[Op]:
    if tiny:
        sizes = [("bpsk", 3), ("bpsk", 4), ("qpsk", 2), ("8psk", 2)]
    else:
        sizes = [("bpsk", M) for M in range(6, 10)] + [("qpsk", 3), ("qpsk", 4), ("8psk", 2), ("8psk", 3)]
    ops = [_counting_op(workdir, i, name, M) for i, (name, M) in enumerate(sizes)]
    # the alphabets of scripts/sandwich_table.py, then an equal-intensity family
    for name, M in [("bpsk", 1), ("bpsk", 2), ("bpsk", 3), ("qpsk", 1), ("qpsk", 2), ("8psk", 1)]:
        ops.append(_chain_bound_op(name, _alphabet(name, M), saturates=False))
    base = PeriodicSignal(M=4, B=1.0, samples=_random_samples(_rng(seed, 6), 4))
    ops.append(_chain_bound_op("family", enumerate_family(base).signals, saturates=True))
    return ops


def counting_probes(seed: int, workdir: Path) -> list[Op]:
    """Alphabets of 1024 and more waveforms, run once per traced run, untimed.

    Each takes a second or more, too long to repeat often enough in a run for
    a steady time.  QPSK M=7 (16384 waveforms) is above the 4096-item
    clustering cap and is refused.
    """
    return [_counting_op(workdir, 1000 + i, name, M) for i, (name, M) in enumerate([("bpsk", 10), ("qpsk", 5), ("qpsk", 7)])]


WORKLOADS = {"family": family, "retrieve": retrieve, "mc": mc, "counting": counting}
PROBES = {"retrieve": retrieve_probes, "counting": counting_probes}
