"""File contracts: signal JSON, intensity CSV, family JSON, report JSON.

All writers are deterministic (sorted keys, shortest round-trip floats for
JSON, 17 significant digits for CSV), so identical data produces
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .signals import PeriodicSignal, SampledIntensity
from .zeros import EqualIntensityFamily


def signal_to_dict(sig: PeriodicSignal) -> dict:
    return {
        "M": sig.M,
        "B": sig.B,
        "samples": [[float(s.real), float(s.imag)] for s in sig.samples],
    }


def signal_from_dict(data: dict) -> PeriodicSignal:
    try:
        samples = np.array([complex(re, im) for re, im in data["samples"]])
        return PeriodicSignal(M=int(data["M"]), B=float(data["B"]), samples=samples)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed signal record: {exc}") from exc


def _write_json(path, obj, default=None):
    """One JSON document and a newline.  ``json.dumps`` runs the C encoder,
    which ``json.dump`` to a file handle does not; the text is the same."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, default=default) + "\n")


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
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["t", "intensity"]:
            raise ValueError(f"expected header 't,intensity', got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) < 2:
        raise ValueError("intensity CSV needs at least two rows")
    if any(len(r) < 2 for r in rows):
        raise ValueError("every intensity CSV row needs a time and an intensity")
    t = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
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
    _write_json(path, report, default=_json_default)


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


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
