"""Workload process, started by run.py in a fresh interpreter.

    python3 perfbench/child.py RUN_DIR setup|pass|traced-pass RESULT_NAME

Every role first sets up: it imports the library, parses the config and
warms the BLAS backend by its first product, then notes when it was ready
and times the host-speed probe (probe.py) to scale the set-up time.
``pass`` then runs one pass of the workload described in
RUN_DIR/inputs.json with the probe sampling, and ``traced-pass`` runs one
with spans recorded and no probe.  The result is written to
RUN_DIR/RESULT_NAME as JSON.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from probe import SETUP_PROBES, Probe, scale

BLAS_WARMUP_N = 128


def _setup(inputs):
    t0 = time.monotonic()
    import numpy as np
    import scipy
    import magbloch
    from magbloch import (cli, effective, fock, moyal, oracle,  # noqa: F401
                          quantize, symbols)
    imported = time.monotonic()
    src = Path(inputs["src"]).resolve()
    if src not in Path(magbloch.__file__).resolve().parents:
        sys.exit(f"magbloch imported from {magbloch.__file__}, not from {src}")
    cli.load_config(inputs["config_path"])
    parsed = time.monotonic()
    x = np.arange(BLAS_WARMUP_N * BLAS_WARMUP_N).reshape(BLAS_WARMUP_N, -1)
    x = x * (1.0 + 0.5j) / x.size
    float(np.abs(x @ x).sum())
    ready = time.monotonic()
    probe = Probe(np)
    timings = {"ready": ready, "import_s": imported - t0,
               "blas_warmup_s": ready - parsed,
               "probe_s": probe.mean(SETUP_PROBES)}
    return timings, np, scipy, probe


class Context:
    """What a pass needs: the generated inputs and the library modules."""

    def __init__(self, inputs):
        from magbloch import cli, lattice, symbols
        from magbloch.fock import FockTruncation
        self.workload = inputs["workload"]
        self.dir = Path(inputs["run_dir"])
        self.config_path = Path(inputs["config_path"])
        self.config = inputs["config"]
        self.params = inputs["params"]
        self.amplitudes = inputs["amplitudes"]
        self.cli = cli
        self.lattice = lattice
        self.symbols = symbols
        self.FockTruncation = FockTruncation

    def series(self, L):
        """V and the vector potential of the config, built through the
        public lattice API."""
        lat = self.lattice

        def rows(key):
            return {(int(n), int(m)): complex(re, im)
                    for n, m, re, im in self.config.get(key, [])}

        V = lat.FourierSeries2D(rows("V"), is_real=True)
        A = lat.PeriodicVectorPotential(
            lat.FourierSeries2D(rows("A1"), is_real=True),
            lat.FourierSeries2D(rows("A2"), is_real=True), L)
        return V, A


def _rusage_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_pass(ctx, workloads, tracing, reference, probe):
    """One pass; traced when probe is None."""
    def work():
        pas = workloads.PASSES[ctx.workload](ctx)
        if reference is not None:
            workloads.check_reference(pas, reference)
        return pas

    traced = probe is None
    tracer = tracing.Tracer() if traced else None
    cpu0 = _rusage_cpu()
    t0 = time.perf_counter()
    if tracer is None:
        probe.start()
        try:
            pas = work()
        finally:
            wall = time.perf_counter() - t0
            cpu = _rusage_cpu() - cpu0
            sampled = probe.stop()
        # Wall and CPU time of the pass without the probes run inside it.
        wall -= sampled["excluded_s"]
        cpu -= sampled["excluded_s"]
    else:
        tracer.install()
        try:
            with tracer.span("pass"):
                pas = work()
        finally:
            tracer.uninstall()
        wall = time.perf_counter() - t0
        cpu = _rusage_cpu() - cpu0
    rec = {"traced": traced, "wall_s": wall, "cpu_s": cpu, "ops": pas.ops,
           "outputs": pas.outputs}
    if not traced:
        rec.update(probe_s=sampled["probe_s"], probes=sampled["probes"],
                   scaled_wall_s=scale(wall, sampled["probe_s"]),
                   scaled_cpu_s=scale(cpu, sampled["probe_s"]))
    if tracer is not None:
        nbytes = sum(o["bytes"] for o in pas.outputs.values())
        rec["layers"] = tracing.layer_metrics(tracer.spans, nbytes)
        rec["spans"] = tracer.spans
    return rec, pas


def _meta(np, scipy):
    def blas(show_config):
        try:
            dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            return "unknown"
        return f"{dep.get('name')} {dep.get('version')}"

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config),
            "blas_threads_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv) -> int:
    run_dir, role, result_name = Path(argv[0]), argv[1], argv[2]
    inputs = json.loads((run_dir / "inputs.json").read_text(encoding="utf-8"))
    timings, np, scipy, probe = _setup(inputs)
    result = {"setup": timings}
    if role in ("pass", "traced-pass"):
        import tracing
        import workloads
        reference = None
        if not inputs["write_reference"]:
            reference = workloads.load_reference(
                inputs["workload"], inputs["size"], inputs["seed"])
        rec, pas = _run_pass(Context(inputs), workloads, tracing, reference,
                             None if role == "traced-pass" else probe)
        if inputs["write_reference"]:
            workloads.write_reference(inputs["workload"], inputs["size"], pas)
        result.update(
            passed=rec, meta=_meta(np, scipy),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(run_dir / result_name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
