"""One workload in one process: cold set-up, checked warm-up pass, timed passes.

Started by run.py, never by hand.  Set-up time runs from the top of this file
through the cold ``import ddcap.cli``, input generation and one untimed
warm-up pass.  The warm-up outputs are then checked, outside any timing; the
timed passes after it repeat the same ops, and their output hashes must equal
the warm-up's.  With ``--trace 1`` the timed passes alternate between untraced
and traced, and only traced passes carry spans, counters and tracemalloc.
"""

import time

T0 = time.perf_counter()  # before every other import: the cold import is part of set-up

import argparse
import hashlib
import json
import platform
import resource
import sys
import traceback
from pathlib import Path

import ddcap.cli
import numpy
import scipy

import spans
import workloads


UNTRACED = spans.NullTracer()


def run_pass(ops, tracer, first_op_id: int) -> list[dict]:
    """Run every op once; only the op itself is timed."""
    records = []
    for i, op in enumerate(ops):
        for path in op.outputs:
            path.unlink(missing_ok=True)
        tracer.op = first_op_id + i
        start = time.perf_counter()
        with tracer.span("op"):
            outcome = op.run(tracer)
        seconds = time.perf_counter() - start
        status = workloads.classify(outcome)
        digest = hashlib.sha256(op.output_bytes(outcome)).hexdigest() if status == "ok" else None
        records.append({"seconds": seconds, "status": status, "digest": digest, "outcome": outcome})
    return records


def check(op, record) -> tuple[str, int, str]:
    """(status, work, reason) of a warm-up record after its output check."""
    if record["status"] == "failed":
        out = record["outcome"]
        return "failed", 0, f"exit {out.code}: {(out.stderr.strip().splitlines() or [''])[-1]}"
    if record["status"] == "refused":
        return "refused", 0, record["outcome"].stderr.strip()
    try:
        return "ok", op.check(record["outcome"]), ""
    except workloads.CheckError as exc:
        return "failed", 0, f"check: {exc}"
    except Exception:  # a malformed output must fail the op, not the benchmark
        return "failed", 0, "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]


def run_probes(ops) -> dict:
    refused = wrong = 0
    for record, op in zip(run_pass(ops, UNTRACED, 0), ops):
        status, _, _ = check(op, record)
        refused += status == "refused"
        wrong += status == "failed"
    return {"probe.refused": refused, "probe.wrong": wrong}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed budget of this worker")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--probes", action="store_true", help="also run the workload's untimed probe ops")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    warm = run_pass(ops, UNTRACED, 0)
    setup_s = time.perf_counter() - T0

    op_results = []
    for op, record in zip(ops, warm):
        status, work, reason = check(op, record)
        op_results.append({"name": op.name, "status": status, "work": work, "reason": reason,
                           "digest": record["digest"]})

    tracer = spans.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        first_span = len(tracer.spans)
        tracer.counters.clear()
        if traced:
            with tracer.patched():
                records = run_pass(ops, tracer, (len(passes) + 1) * len(ops))
        else:
            records = run_pass(ops, UNTRACED, 0)
        entry = {"traced": traced,
                 "seconds": [r["seconds"] for r in records],
                 "status": [r["status"] for r in records],
                 "digest": [r["digest"] for r in records]}
        if traced:
            entry["layers"] = tracer.layer_metrics(first_span)
            entry["layers"]["cli.refused"] = entry["status"].count("refused")
        passes.append(entry)
        elapsed = time.perf_counter() - start
        if args.trace and len(passes) < 2:
            continue
        if elapsed + elapsed / len(passes) > args.seconds:
            break

    probes = {}
    if args.probes and args.workload in workloads.PROBES:
        probes = run_probes(workloads.PROBES[args.workload](args.seed, args.workdir))
    if tracer.spans:
        tracer.dump(args.result.with_suffix(".spans.jsonl"))

    result = {
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ddcap": ddcap.cli.__file__,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
        "ops": op_results,
        "passes": passes,
        "probes": probes,
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
