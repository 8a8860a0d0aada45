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


def write_signal_json(path, sig: PeriodicSignal):
    with open(path, "w") as fh:
        json.dump(signal_to_dict(sig), fh, sort_keys=True)
        fh.write("\n")


def read_signal_json(path) -> PeriodicSignal:
    with open(path) as fh:
        return signal_from_dict(json.load(fh))


def write_intensity_csv(path, intensity: SampledIntensity):
    """CSV with header ``t,intensity``, one row per grid point, 17 significant digits."""
    times = np.arange(len(intensity.values)) / intensity.rate
    with open(path, "w") as fh:
        fh.write("t,intensity\n")
        for t, v in zip(times, intensity.values):
            fh.write(f"{t:.17g},{v:.17g}\n")


def read_intensity_csv(path) -> SampledIntensity:
    with open(path) as fh:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["t", "intensity"]:
            raise ValueError(f"expected header 't,intensity', got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) < 2:
        raise ValueError("intensity CSV needs at least two rows")
    t = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    dt = np.diff(t)
    if np.any(np.abs(dt - dt[0]) > 1e-9 * max(abs(dt[0]), 1e-300)):
        raise ValueError("intensity grid must be uniform")
    return SampledIntensity(rate=1.0 / dt[0], values=vals)


def family_to_dict(fam: EqualIntensityFamily) -> dict:
    zs = fam.zeroset
    return {
        "base": signal_to_dict(fam.base),
        "zeros": [[float(z.real), float(z.imag)] for z in zs.zeros],
        "on_circle": [bool(b) for b in zs.on_circle],
        "members": [
            {"mask": int(mask), "signal": signal_to_dict(sig)}
            for mask, sig in fam.members
        ],
    }


def write_family_json(path, fam: EqualIntensityFamily):
    with open(path, "w") as fh:
        json.dump(family_to_dict(fam), fh, sort_keys=True)
        fh.write("\n")


def write_report_json(path, report: dict):
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, default=_json_default)
        fh.write("\n")


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
