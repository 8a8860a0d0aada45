"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, untraced and traced, it checks these
things:

- the result line has the contract's keys;
- every declared metric is printed with its unit, and no other metric is;
- no op failed;
- traced and untraced passes wrote byte-identical outputs.

It also checks that the benchmark refuses to run, without printing a result,
from a directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SelfTestError(AssertionError):
    pass


def _expect(cond: bool, message: str):
    if not cond:
        raise SelfTestError(message)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(workload: str, trace: int, declared: dict[str, str]):
    proc = _run(ROOT, workload, trace)
    _expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace={trace}: {result['failed']} of {result['attempted']} ops failed\n{proc.stdout}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    _expect(printed == declared, f"{workload} trace={trace}: metrics {printed} != declared {declared}")
    for name, m in result["metrics"].items():
        _expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{name} = {m['value']}")
        _expect(any(line.startswith(f"{name} = ") and line.endswith(f" {m['unit']}") for line in lines),
                f"{name} not printed by name with its unit")
    if trace:
        for path in sorted((HERE / "_run" / workload).glob("worker*.json")):
            passes = json.loads(path.read_text())["passes"]
            digests = {p["traced"]: p["digest"] for p in passes}
            _expect(set(digests) == {False, True}, f"{path.name}: needs traced and untraced passes")
            _expect(all(p["digest"] == digests[False] for p in passes),
                    f"{path.name}: traced and untraced passes wrote different bytes")


def check_refuses_without_sources():
    bare = HERE / "_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "family", 0)
    finally:
        shutil.rmtree(bare)
    _expect(proc.returncode != 0, "run.py succeeded without ddcap sources")
    _expect('"metrics"' not in proc.stdout, "run.py printed a result without ddcap sources")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {trace: {m["name"]: m["unit"] for m in bench[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_workload(workload, trace, declared[trace])
            print(f"ok  {workload} trace={trace}", flush=True)
    check_refuses_without_sources()
    print("ok  refuses to run without ddcap sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
