"""ddcap benchmark: one workload, closed loop, one client, checked outputs.

    python3 perfbench/run.py --workload family --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and from nowhere else.  The workload runs in WORKERS
separate processes, one after the other, each with its own cold set-up and a
share of the timed budget, so set-up is measured several times and peak
memory is that of the workload alone.  Each op starts when the previous one
returns.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans recorded around the calls into each layer.  The
last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
See perfbench/README.md for the metric definitions and the layer mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
DEADLINE_S = 170.0  # every run, its set-ups included, must end within 180 s
WORKLOAD_NAMES = ("family", "retrieve", "mc", "counting")

# (name, unit, better) of the --trace 0 metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("completed_ratio", "1", "higher"),
]


def _thread_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def _run_workers(args, workdir: Path, nproc: int) -> list[dict]:
    env = _thread_env(nproc)
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for k in range(WORKERS):
        result_path = workdir / f"worker{k}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
               "--workdir", str(workdir / "io"), "--result", str(result_path)]
        if args.size == "tiny":
            cmd.append("--tiny")
        if args.trace and k == 0:
            cmd.append("--probes")
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {k} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(result_path.read_text())
        if not Path(result["ddcap"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"worker imported ddcap from {result['ddcap']}, not from {ROOT / 'src'}")
        results.append(result)
    return results


def _verdicts(results: list[dict]) -> list[list[str]]:
    """Verdict of every timed execution of every op, indexed [op][execution].

    An execution keeps the checked warm-up status of the first worker (ok or
    refused) only if it and its own worker's warm-up ended the same way and
    wrote the same bytes; otherwise it failed.
    """
    ref = results[0]["ops"]
    verdicts = [[] for _ in ref]
    for res in results:
        for entry in res["passes"]:
            for i, op in enumerate(ref):
                expected = (op["status"], op["digest"])
                same = (entry["status"][i], entry["digest"][i]) == expected == (
                    res["ops"][i]["status"], res["ops"][i]["digest"])
                verdicts[i].append(op["status"] if same and op["status"] != "failed" else "failed")
    return verdicts


def _best_times(results: list[dict], traced: bool) -> list[float]:
    """Each op's best time over the traced or the untraced timed passes of all workers.

    On a shared host, other tenants slow a run in bursts lasting up to
    seconds; an op's fastest execution is the least disturbed, and stays
    steady where its median does not.  One pass takes the sum of these.
    """
    return [min(e["seconds"][i] for r in results for e in r["passes"] if e["traced"] == traced)
            for i in range(len(results[0]["ops"]))]


def summarize(results: list[dict], trace: int) -> tuple[dict, list[str]]:
    ops = results[0]["ops"]
    verdicts = _verdicts(results)
    flat = [v for per_op in verdicts for v in per_op]
    attempted, failed, refused = len(flat), flat.count("failed"), flat.count("refused")
    best = _best_times(results, traced=False)
    lines = [f"{'op':<34} {'status':<8} {'work':>8} {'best_ms':>10}"]
    for op, per_op, seconds in zip(ops, verdicts, best):
        status = "failed" if "failed" in per_op else op["status"]
        lines.append(f"{op['name']:<34} {status:<8} {op['work']:>8} {1e3 * seconds:>10.2f}"
                     + (f"  {op['reason']}" if op["reason"] else ""))

    if trace:
        traced = [e["layers"] for r in results for e in r["passes"] if e["traced"]]
        values = {name: statistics.median(layers.get(name, 0.0) for layers in traced) for name, _, _ in PER_LAYER}
        values.update(results[0]["probes"])
        values["trace.overhead_ratio"] = sum(best) / sum(_best_times(results, traced=True))
        table = PER_LAYER
    else:
        work = sum(op["work"] for op, per_op in zip(ops, verdicts) if set(per_op) == {"ok"})
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "work_per_s": work / sum(best),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
            "completed_ratio": flat.count("ok") / attempted,
        }
        table = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in table}
    n_passes = sum(len(r["passes"]) for r in results)
    lines.append(f"timed passes={n_passes} attempted={attempted} refused={refused} failed={failed}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="timed seconds, split across the workers")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ddcap" / "cli.py").is_file():
        print(f"error: no ddcap sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    workdir = HERE / "_run" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    nproc = len(os.sched_getaffinity(0))
    try:
        results = _run_workers(args, workdir, nproc)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary, lines = summarize(results, args.trace)
    env = results[0]["env"]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"workers={WORKERS} python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"nproc={nproc} blas_threads={nproc}")
    for line in lines:
        print(line)
    for name, m in summary["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
