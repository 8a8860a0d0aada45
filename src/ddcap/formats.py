"""File contracts: signal JSON, intensity CSV, family JSON, report JSON.

All writers are deterministic (sorted keys, shortest round-trip floats for
JSON, 17 significant digits for CSV), so identical data produces
byte-identical files.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .signals import PeriodicSignal, SampledIntensity
from .zeros import EqualIntensityFamily


def signal_to_dict(sig: PeriodicSignal) -> dict:
    return {
        "M": sig.M,
        "B": sig.B,
        "samples": np.ascontiguousarray(sig.samples).view(np.float64).reshape(-1, 2).tolist(),
    }


def _sample_pairs(samples) -> np.ndarray:
    """JSON ``samples`` as an (M, 2) float64 array of ``[re, im]`` pairs.

    Numbers only, as ``complex(re, im)`` takes them: ints and bools are
    accepted, strings, nulls and anything that is not a list of pairs raise
    TypeError or ValueError, and an int beyond the float range OverflowError.
    """
    pairs = np.array(samples)
    if pairs.dtype == object:  # ints beyond 64 bits, or values that are no numbers
        numbers = all(isinstance(x, (int, float)) for x in pairs.flat)
    else:
        numbers = pairs.dtype.kind in "biuf"
    if not numbers:
        raise TypeError("samples must be numbers")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("samples must be a list of [re, im] pairs")
    return pairs.astype(np.float64)


def signal_from_dict(data: dict) -> PeriodicSignal:
    try:
        samples = _sample_pairs(data["samples"]).view(np.complex128)[:, 0]
        return PeriodicSignal(M=int(data["M"]), B=float(data["B"]), samples=samples)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed signal record: {exc}") from exc


def _write_json(path, obj):
    """One JSON document and a newline.  ``json.dumps`` runs the C encoder,
    which ``json.dump`` to a file handle does not; the text is the same."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_signal_json(path, sig: PeriodicSignal):
    _write_json(path, signal_to_dict(sig))


def read_signal_json(path) -> PeriodicSignal:
    with open(path) as fh:
        return signal_from_dict(json.load(fh))


#: Rows formatted by one string operation when a CSV is written: formatting
#: row by row costs more than the digits, and a whole 2^22-point grid at once
#: would hold half a GiB of Python floats and text.
_CSV_BLOCK_ROWS = 1 << 12


def write_csv(path, header: str, columns):
    """CSV of equal-length float columns under one header line: a row per
    index, each value to 17 significant digits."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
            block = np.stack([column[start : start + _CSV_BLOCK_ROWS] for column in columns], axis=1)
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_intensity_csv(path, intensity: SampledIntensity):
    """CSV with header ``t,intensity``, one row per grid point, 17 significant digits."""
    times = np.arange(len(intensity.values)) / intensity.rate
    write_csv(path, "t,intensity", [times, intensity.values])


def read_intensity_csv(path) -> SampledIntensity:
    """Intensity CSV: a ``t,intensity`` header, then a time and an intensity
    per line.

    Lines of whitespace are skipped, and fields after the second are
    ignored.  numpy's C parser takes the lines one at a time and keeps only
    the two float64 columns.  A malformed file raises ValueError.
    """
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["t", "intensity"]:
            raise ValueError(f"expected header 't,intensity', got {header!r}")
        lines = (line for line in fh if not line.isspace())
        with warnings.catch_warnings():  # an empty body is refused below, not warned about
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(lines, delimiter=",", usecols=(0, 1), comments=None, ndmin=2)
    if len(rows) < 2:
        raise ValueError("intensity CSV needs at least two rows")
    t, vals = rows[:, 0], rows[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite steps are refused below
        dt = np.diff(t)
    rate = 1.0 / float(dt[0]) if dt[0] > 0 else 0.0  # a Python float: no warning on overflow
    if not 0.0 < rate < np.inf:
        raise ValueError("intensity grid times must increase by a positive, finite step")
    if not np.all(np.abs(dt - dt[0]) <= 1e-9 * dt[0]):
        raise ValueError("intensity grid must be uniform")
    return SampledIntensity(rate=rate, values=vals)


#: Members formatted and written at a time when a family is written: the
#: members' Python floats and text are held for one block, not the family.
_FAMILY_BLOCK_ROWS = 1 << 8


def write_family_json(path, fam: EqualIntensityFamily):
    """Family JSON: keys base, members, on_circle and zeros, as ``_write_json``
    would write them, with a ``{"mask", "signal"}`` record per member.

    The members are streamed a block at a time through one template, whose
    ``%d`` and ``%r`` print ints and finite floats as the JSON encoder does.
    Non-finite samples, which it prints as ``Infinity`` or ``NaN``, are
    refused (ValueError).
    """
    rows = np.ascontiguousarray(fam.samples).view(np.float64)  # (members, 2M): re, im, re, ...
    if not np.isfinite(rows).all():
        raise ValueError("family samples must be finite")
    zs = fam.zeroset
    skeleton = {
        "base": signal_to_dict(fam.base),
        "members": [],
        "on_circle": [bool(b) for b in zs.on_circle],
        "zeros": [[float(z.real), float(z.imag)] for z in zs.zeros],
    }
    head, tail = json.dumps(skeleton, sort_keys=True).split('"members": []')
    B, M = json.dumps(fam.base.B), json.dumps(fam.base.M)
    pairs = ", ".join(["[%r, %r]"] * fam.base.M)
    member = f'{{"mask": %d, "signal": {{"B": {B}, "M": {M}, "samples": [{pairs}]}}}}'
    with open(path, "w") as fh:
        fh.write(head + '"members": [')
        for start in range(0, len(rows), _FAMILY_BLOCK_ROWS):
            block = slice(start, start + _FAMILY_BLOCK_ROWS)
            text = ", ".join(
                [member % (mask, *row) for mask, row in zip(fam.masks[block], rows[block].tolist())]
            )
            fh.write((", " if start else "") + text)
        fh.write("]" + tail + "\n")


def write_report_json(path, report: dict):
    _write_json(path, report)


def read_experiment_json(path) -> dict:
    """Experiment spec: receiver, input, snr_db, seed, n_samples (+ optional M)."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("experiment spec must be a JSON object")
    missing = {"receiver", "input", "snr_db", "seed", "n_samples"} - set(data)
    if missing:
        raise ValueError(f"experiment spec missing fields: {sorted(missing)}")
    return data
