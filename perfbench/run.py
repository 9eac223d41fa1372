"""Benchmark entry point for magbloch.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, so nothing is built or installed.  This script writes the
seeded inputs, starts fresh workload processes (``child.py``) with one BLAS
thread (BLAS_THREADS), and prints one line per metric followed by one JSON
object as the last line of stdout: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  One BLAS thread
keeps each workload on a single core, so that a small shared host measures
the program rather than the scheduler, and keeps outputs byte-identical
between runs.

Each pass of the workload runs in a fresh process, as one CLI invocation
would.  Passes are started for ``--seconds`` (at least one, and none
that would likely end after that time); timings are medians over them.
The end-to-end times are scaled to a reference host speed by the probe in
probe.py; the raw times and probe times are on the ``meta`` line.  With
``--trace 1`` untraced and traced passes alternate; the per-layer figures
come from the traced pass with the median wall time, and the spans of every
traced pass are written to ``.perfbench/spans-<workload>-seed<N>.json`` at
the checkout root.  Set-up time runs from process start to library
imported, config parsed and BLAS warmed, scaled by the probe times taken
right after; it is the median over the pass processes plus processes that
only set up, SETUP_SAMPLES in all.

Every operation's output is checked (see workloads.py) and its hash is
compared with the earlier passes of the run and with the hashes recorded in
``.perfbench/hashes.json`` by earlier runs of the same workload, size and
seed; any difference fails the operation.

``--write-reference`` rewrites the reference values of the default seed
from the current code.  ``--size tiny`` is used by smoke.py only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from probe import scale

SETUP_SAMPLES = 5
BLAS_THREADS = 1
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _commit(root: Path) -> str:
    """Commit of the checkout, read from .git when there is one."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _spawn(script: Path, run_dir: Path, role: str, name: str, env: dict,
           deadline: float) -> tuple[float, dict]:
    """Start one workload process and wait for it; return its start time
    and its result."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(script), str(run_dir), role,
                               name], env=env, stdout=sys.stderr,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{role} process exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited {proc.returncode}")
    with open(run_dir / name, encoding="utf-8") as fh:
        return start, json.load(fh)


def _check_hashes(registry_path: Path, inputs: dict, passes: list) -> dict:
    """Failure messages for operations whose output hash differs from an
    earlier pass or an earlier run; record the hashes of this run."""
    try:
        registry = json.loads(registry_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        registry = {}
    prefix = f"{inputs['workload']}|{inputs['size']}|seed{inputs['seed']}|"
    failures = {}
    for rec in passes:
        for name, out in rec["outputs"].items():
            if not out["bytes"]:
                continue
            known = registry.setdefault(prefix + name, out["sha256"])
            if known != out["sha256"]:
                for key in out["ops"]:
                    failures[key] = f"output {name} differs from an earlier pass or run"
    tmp = registry_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, registry_path)
    return failures


def _median_pass(passes):
    """The pass with the median wall time (the lower one for an even count)."""
    ordered = sorted(passes, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def run(args) -> dict:
    root = Path(__file__).resolve().parents[1]
    src = root / "src"
    if not (src / "magbloch" / "__init__.py").is_file():
        raise BenchError(f"no magbloch sources under {src}")
    deadline = time.monotonic() + TIME_LIMIT_S
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
               OMP_NUM_THREADS=str(BLAS_THREADS),
               MKL_NUM_THREADS=str(BLAS_THREADS))
    script = Path(__file__).resolve().parent / "child.py"

    run_dir = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=state))
    setups, results = [], []

    def spawn(role):
        name = f"{len(setups)}.json"
        start, res = _spawn(script, run_dir, role, name, env, deadline)
        raw = res["setup"]["ready"] - start
        setups.append(res["setup"] | {
            "raw_setup_s": raw, "setup_s": scale(raw, res["setup"]["probe_s"])})
        return res

    try:
        inputs = workloads.make_inputs(args.workload, args.seed, args.size)
        config_path = run_dir / "config.json"
        config_path.write_text(json.dumps(inputs["config"]), encoding="utf-8")
        inputs.update(src=str(src), run_dir=str(run_dir),
                      config_path=str(config_path),
                      write_reference=args.write_reference)
        (run_dir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")

        roles = ["pass", "traced-pass"] if args.trace else ["pass"]
        begin = time.monotonic()
        rounds = 0
        while True:
            results.extend(spawn(role) for role in roles)
            rounds += 1
            elapsed = time.monotonic() - begin
            # Start no round that would likely end after --seconds.
            if args.write_reference or elapsed * (rounds + 1) / rounds > args.seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            spawn("setup")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = [r["passed"] for r in results]
    spans = [r.pop("spans") for r in passes if r["traced"]]
    if spans:
        with open(state / f"spans-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent",
                                  "count"], "passes": spans},
                      fh, separators=(",", ":"))
    hash_failures = _check_hashes(state / "hashes.json", inputs, passes)
    attempted = failed = 0
    messages = {}
    for rec in passes:
        for key, err in rec["ops"].items():
            err = err or hash_failures.get(key)
            attempted += 1
            if err:
                failed += 1
                messages.setdefault(key, err)

    plain = [r for r in passes if not r["traced"]]
    e2e = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(r["scaled_wall_s"] for r in plain),
        "cpu_s": statistics.median(r["scaled_cpu_s"] for r in plain),
        "peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for r in results if not r["passed"]["traced"]),
    }
    e2e = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
    traced = [r for r in passes if r["traced"]]
    layers = {}
    if traced:
        layers = {k: tuple(v) for k, v in _median_pass(traced)["layers"].items()}
        layers["setup.import_s"] = (
            statistics.median(s["import_s"] for s in setups), "s")
        layers["setup.blas_warmup_s"] = (
            statistics.median(s["blas_warmup_s"] for s in setups), "s")
        layers["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0, "frac")

    meta = dict(results[0]["meta"], nproc=nproc, blas_threads=BLAS_THREADS,
                commit=_commit(root), seed=args.seed, size=args.size,
                pass_wall_s=[round(r["scaled_wall_s"], 4) for r in plain],
                pass_raw_wall_s=[round(r["wall_s"], 4) for r in plain],
                pass_probe_ms=[round(1e3 * r["probe_s"], 4) for r in plain],
                pass_probes=[r["probes"] for r in plain],
                traced_raw_wall_s=[round(r["wall_s"], 4) for r in traced],
                setup_s=[round(s["setup_s"], 4) for s in setups],
                raw_setup_s=[round(s["raw_setup_s"], 4) for s in setups],
                setup_samples=len(setups))
    return {"end_to_end": e2e, "per_layer": layers, "attempted": attempted,
            "failed": failed, "messages": messages, "meta": meta}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        ap.error("--write-reference needs the default seed")
    try:
        out = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print("meta " + json.dumps(out["meta"], sort_keys=True))
    for key, err in sorted(out["messages"].items())[:20]:
        print(f"FAILED {key}: {err}")
    label = f"{args.workload} seed={args.seed}:"
    print(f"{label} ops_failed_frac = {out['failed'] / out['attempted']:.6g} "
          f"({out['failed']}/{out['attempted']})")
    for name, (value, unit) in (out["end_to_end"] | out["per_layer"]).items():
        print(f"{label} {name} = {value:.6g} {unit}")
    shown = out["per_layer"] if args.trace else out["end_to_end"]
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in shown.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
