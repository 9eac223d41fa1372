"""Smoke run of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload at ``--size tiny``, untraced and traced, at the default
seed (so the reference values are checked) and at one other seed.  Each run
must exit 0 with no failed operation and print, by name and unit, exactly
the metrics that BENCHMARK.json lists for its mode.  In every traced run the
layer self times plus ``trace.unattributed_s`` must add up to
``trace.wall_s``.  Exits 1 and names the first problem otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OTHER_SEED = 7


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(spec: dict, workload: str, seed: int, trace: int) -> None:
    res = _run(workload, seed, trace)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise AssertionError(f"{res['failed']}/{res['attempted']} operations failed")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"metric names or units differ: missing "
                             f"{sorted(set(want) - set(got))}, extra "
                             f"{sorted(set(got) - set(want))}, units "
                             f"{[k for k in want if got.get(k, want[k]) != want[k]]}")
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        parts = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
        total = parts + m["trace.unattributed_s"]
        if abs(total - m["trace.wall_s"]) > 1e-9 * max(1.0, m["trace.wall_s"]):
            raise AssertionError(f"layer self times sum to {total}, "
                                 f"traced wall is {m['trace.wall_s']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        print(f"FAIL workloads in BENCHMARK.json {names} != {workloads.WORKLOADS}")
        return 1
    for workload in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, OTHER_SEED):
            for trace in (0, 1):
                label = f"{workload} seed={seed} trace={trace}"
                try:
                    check(spec, workload, seed, trace)
                except (AssertionError, subprocess.TimeoutExpired,
                        ValueError, KeyError) as exc:
                    print(f"FAIL {label}: {exc}")
                    return 1
                print(f"ok   {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
