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


def family_to_dict(fam: EqualIntensityFamily) -> dict:
    zs = fam.zeroset
    M, B = fam.base.M, fam.base.B
    pairs = np.stack([fam.samples.real, fam.samples.imag], axis=-1).tolist()  # (members, M, 2)
    return {
        "base": signal_to_dict(fam.base),
        "zeros": [[float(z.real), float(z.imag)] for z in zs.zeros],
        "on_circle": [bool(b) for b in zs.on_circle],
        "members": [
            {"mask": mask, "signal": {"M": M, "B": B, "samples": samples}}
            for mask, samples in zip(fam.masks, pairs)
        ],
    }


def write_family_json(path, fam: EqualIntensityFamily):
    _write_json(path, family_to_dict(fam))


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
