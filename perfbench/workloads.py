"""The four benchmark workloads: seeded inputs, one pass each, output checks.

A workload is a closed loop with one client: a pass runs its operations one
after the other and the next pass starts only when the previous one has
ended.  An operation is one flux of a sweep, one ``sapt`` run or one
remainder case; it fails when it raises, when the CLI exits nonzero, when
its output fails a check, or when its output hash differs from an earlier
pass or run with the same workload, size and seed.

``make_inputs`` runs in run.py and needs only the standard library; the
pass functions run in the workload process, which has numpy and magbloch
imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_ATOL = 1e-9
RESIDUAL_TOL = 1e-10

# Mode sets, fluxes, grids and truncations are fixed per size, so the cost
# of a pass does not depend on the seed.  "tiny" only feeds the smoke run.
# Passes run with one BLAS thread; there the oracle at flux 1/123 alone
# took ~38 s, so the oracle stops at 1/64 and the remainder sweep uses
# 2 x 2 points, which keeps every pass near 6 s and a run at several passes.
SIZES = {
    "full": {
        "butterfly": {"qmax": 30, "grid": [8, 16]},
        "bloch-large-q": {"delta": ["1/50", "1/127"], "grid": [16, 16]},
        "oracle": {"delta": ["1/16", "1/31", "1/48", "1/64"], "n_max": 30},
        "symbol-calculus": {"order": 8, "n_max": 200,
                            "deltas": [0.2, 0.1, 0.05], "points": 2},
    },
    "tiny": {
        "butterfly": {"qmax": 5, "grid": [8, 8]},
        "bloch-large-q": {"delta": ["1/5", "1/7"], "grid": [8, 8]},
        "oracle": {"delta": ["1/16", "1/31"], "n_max": 12},
        "symbol-calculus": {"order": 2, "n_max": 30,
                            "deltas": [0.2, 0.1], "points": 2},
    },
}
WORKLOADS = tuple(SIZES["full"])


def draw_amplitudes(seed: int) -> dict:
    """Seeded Fourier amplitudes.

    Each +-pair of nearest-neighbour modes of V gets one real amplitude in
    [0.75, 1.25] (Harper is 1), so V stays real.  The one-mode vector
    potential f1 = 2 a cos(2 pi x) has amplitude a in [0.375, 0.625] on
    the modes (0, +-1); the test suite's f1 = cos(2 pi x) is a = 0.5.
    """
    rng = random.Random(seed)
    return {"v_p": rng.uniform(0.75, 1.25), "v_x": rng.uniform(0.75, 1.25),
            "a": rng.uniform(0.375, 0.625)}


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """The config written for the CLI plus the sizes of the pass."""
    amp = draw_amplitudes(seed)
    params = dict(SIZES[size][workload])
    config = {
        "lattice": {"a": [1, 0], "b": [0, 1]},
        "V": [[1, 0, amp["v_p"], 0], [-1, 0, amp["v_p"], 0],
              [0, 1, amp["v_x"], 0], [0, -1, amp["v_x"], 0]],
    }
    if workload in ("bloch-large-q", "symbol-calculus"):
        config["A1"] = [[0, 1, amp["a"], 0], [0, -1, amp["a"], 0]]
    if "grid" in params:
        config["grid"] = params["grid"]
    if workload == "oracle":
        config.update(model="full", n_max=params["n_max"])
    if workload == "symbol-calculus":
        config["order"] = params["order"]
    return {"workload": workload, "seed": seed, "size": size,
            "amplitudes": amp, "params": params, "config": config}


def reduced_fluxes(q_max: int):
    return [(p, q) for q in range(1, q_max + 1) for p in range(q)
            if math.gcd(p, q) == 1]


class Pass:
    """Operations of one pass: keyed float values for the reference check,
    failure messages, and output hashes with the operations they cover."""

    def __init__(self):
        self.ops = {}          # key -> failure message or None
        self.values = {}       # key -> list of floats
        self.outputs = {}      # output name -> {"sha256", "ops", "bytes"}

    def op(self, key: str, values, error: str | None = None) -> None:
        self.ops[key] = error
        self.values[key] = [float(v) for v in values]

    def fail(self, key: str, error: str) -> None:
        if self.ops.get(key) is None:
            self.ops[key] = error

    def output(self, name: str, data: bytes, keys) -> None:
        self.outputs[name] = {"sha256": hashlib.sha256(data).hexdigest(),
                              "ops": sorted(keys), "bytes": len(data)}


def _run_cli(cli, argv) -> str | None:
    """Run the CLI entry point; return a failure message or None."""
    try:
        code = cli.main(argv)
    except Exception as exc:  # an uncaught library error fails the operation
        return f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return None if code == 0 else f"{argv[0]} exited {code}"


def _numbers(obj):
    """Every number in a parsed JSON document, in document order."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return []
    if isinstance(obj, (int, float)):
        return [obj]
    if isinstance(obj, dict):
        return [x for k in obj for x in _numbers(obj[k])]
    return [x for v in obj for x in _numbers(v)]


def _check_bands(bands, dim, lo_bound=-math.inf, hi_bound=math.inf):
    """At most dim finite intervals, sorted by lower edge, inside
    [lo_bound, hi_bound]."""
    if not 1 <= len(bands) <= dim:
        return f"{len(bands)} bands for dimension {dim}"
    prev = -math.inf
    for lo, hi in bands:
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi or lo < prev:
            return f"bad band interval [{lo}, {hi}]"
        if lo < lo_bound - 1e-12 or hi > hi_bound + 1e-12:
            return f"band [{lo}, {hi}] outside [{lo_bound}, {hi_bound}]"
        prev = lo
    return None


def _csv_bands(text: str) -> dict:
    """CSV report rows grouped into {"p/q": [(E_min, E_max), ...]}."""
    out = {}
    for line in text.splitlines()[1:]:
        p, q, _theta, _k, lo, hi = line.split(",")
        out.setdefault(f"{p}/{q}", []).append((float(lo), float(hi)))
    return out


def _flux_ops(pas, prefix, fluxes, bands_by_flux, error, bound=math.inf):
    """One operation per flux of a CSV band report."""
    for p, q in fluxes:
        key = f"{prefix}{p}/{q}"
        bands = bands_by_flux.get(f"{p}/{q}")
        if error or bands is None:
            pas.op(key, [], error or "flux missing from output")
            continue
        pas.op(key, [x for b in bands for x in b],
               _check_bands(bands, q, -bound, bound))


def pass_butterfly(ctx) -> Pass:
    p = ctx.params
    pas = Pass()
    out = ctx.dir / "butterfly.csv"
    err = _run_cli(ctx.cli, ["butterfly", "--config", str(ctx.config_path),
                             "--qmax", str(p["qmax"]), "--format", "csv",
                             "--out", str(out)])
    data = b"" if err else out.read_bytes()
    bound = 2.0 * (ctx.amplitudes["v_p"] + ctx.amplitudes["v_x"])
    fluxes = reduced_fluxes(p["qmax"])
    _flux_ops(pas, "", fluxes, {} if err else _csv_bands(data.decode()),
              err, bound)
    pas.output("butterfly.csv", data, pas.ops)
    return pas


def _flux_pair(s: str):
    p, q = s.split("/")
    return int(p), int(q)


def pass_bloch_large_q(ctx) -> Pass:
    p = ctx.params
    pas = Pass()
    fluxes = [_flux_pair(s) for s in p["delta"]]
    delta = ",".join(p["delta"])
    cfg = str(ctx.config_path)

    out = ctx.dir / "effective.csv"
    err = _run_cli(ctx.cli, ["effective", "--config", cfg, "--delta", delta,
                             "--format", "csv", "--out", str(out)])
    data = b"" if err else out.read_bytes()
    _flux_ops(pas, "effective:", fluxes,
              {} if err else _csv_bands(data.decode()), err)
    pas.output("effective.csv", data,
               [k for k in pas.ops if k.startswith("effective:")])

    out = ctx.dir / "two-band.json"
    err = _run_cli(ctx.cli, ["two-band", "--config", cfg, "--delta", delta,
                             "--format", "json", "--out", str(out)])
    data = b"" if err else out.read_bytes()
    reports = {} if err else {f"{r['p']}/{r['q']}": r
                              for r in json.loads(data)}
    keys = []
    for pq in fluxes:
        key = "two-band:%d/%d" % pq
        keys.append(key)
        rep = reports.get("%d/%d" % pq)
        if rep is None:
            pas.op(key, [], err or "flux missing from output")
            continue
        # Band edges and the mean of each eigenvalue branch over the grid
        # stand for the samples, which are too many to keep as a reference.
        samples = rep["samples"]
        means = [sum(col) / len(col) for col in zip(*samples)]
        disc = rep["metadata"]["ggdag_max_discrepancy"]
        error = _check_bands(rep["bands"], 2 * pq[1])
        if error is None and not disc <= RESIDUAL_TOL:
            error = f"ggdag_max_discrepancy {disc} > {RESIDUAL_TOL}"
        pas.op(key, [x for b in rep["bands"] for x in b] + means, error)
    pas.output("two-band.json", data, keys)
    return pas


def oracle_slow_dim(q: int) -> int:
    """Slow grid size oracle-compare uses at flux 1/q for nearest-neighbour
    modes and one cell: q times ceil(4 / q)."""
    return q * max(1, -(-4 // q))


def pass_oracle(ctx) -> Pass:
    p = ctx.params
    pas = Pass()
    out = ctx.dir / "oracle.json"
    err = _run_cli(ctx.cli, ["oracle-compare", "--config", str(ctx.config_path),
                             "--delta", ",".join(p["delta"]), "--band", "0",
                             "--format", "json", "--out", str(out)])
    data = b"" if err else out.read_bytes()
    entries = {} if err else {e["theta"]: e for e in json.loads(data)}
    for s in p["delta"]:
        key = f"oracle:{s}"
        e = entries.get(s)
        if e is None:
            pas.op(key, [], err or "flux missing from output")
            continue
        want = oracle_slow_dim(_flux_pair(s)[1])
        got = len(e["oracle_band"])
        error = None if got == want else f"cluster has {got} levels, want {want}"
        pas.op(key, _numbers(e), error)
    pas.output("oracle.json", data, pas.ops)
    return pas


def _check_sapt_residuals(payload) -> str | None:
    """Every residual of grade j at most RESIDUAL_TOL * max(1, |h_j|).

    The grade-j terms grow fast with j (|h_8| ~ 1e5 at order 8), and a
    residual of rounding size grows with them: at |h_8| = 7e4 the
    commutator residual is 1.2e-10, 3.5e-16 of the terms it cancels.  So
    the tolerance scales with the norm of the effective symbol of the same
    grade, and stays the absolute RESIDUAL_TOL where that norm is at most 1.
    """
    scales = payload["h_norms"]
    for group in ("pi_residuals", "u_residuals"):
        for name, per_grade in payload[group].items():
            for j, r in enumerate(per_grade):
                tol = RESIDUAL_TOL * max(1.0, scales[j])
                if not r <= tol:
                    return f"sapt {name} residual {r} at grade {j} > {tol}"
    return None


REMAINDER_CASES = (("nat1", False, None), ("nat1-proj", False, 0),
                   ("nat0", True, None), ("nat0-proj", True, 0))


def pass_symbol_calculus(ctx) -> Pass:
    p = ctx.params
    pas = Pass()
    out = ctx.dir / "sapt.json"
    err = _run_cli(ctx.cli, ["sapt", "--config", str(ctx.config_path),
                             "--band", "0,1", "--out", str(out)])
    data = b"" if err else out.read_bytes()
    if err:
        pas.op("sapt", [], err)
    else:
        payload = json.loads(data)
        pas.op("sapt", _numbers(payload), _check_sapt_residuals(payload))
    pas.output("sapt.json", data, ["sapt"])

    L = ctx.lattice.make_lattice([1, 0], [0, 1])
    V, A = ctx.series(L)
    T = ctx.FockTruncation(n_max=p["n_max"], guard=6)
    points = ctx.symbols.default_points(p["points"])
    for name, with_a, proj in REMAINDER_CASES:
        key = f"remainder:{name}"
        try:
            norms = [[ctx.symbols.remainder_norm(
                V, A if with_a else None, L, T, d, pt, projector_band=proj)
                for pt in points] for d in p["deltas"]]
        except Exception as exc:  # an uncaught library error fails the case
            pas.op(key, [], f"remainder_norm raised {type(exc).__name__}: {exc}")
            continue
        flat = [x for row in norms for x in row]
        maxima = [max(row) for row in norms]
        error = None
        if not all(math.isfinite(x) and x >= 0.0 for x in flat):
            error = "non-finite or negative remainder norm"
        elif any(b >= a for a, b in zip(maxima, maxima[1:])):
            error = f"remainder does not shrink with delta: {maxima}"
        pas.op(key, flat, error)
        pas.output(key, repr(flat).encode(), [key])
    return pas


PASSES = {
    "butterfly": pass_butterfly,
    "bloch-large-q": pass_bloch_large_q,
    "oracle": pass_oracle,
    "symbol-calculus": pass_symbol_calculus,
}


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def load_reference(workload: str, size: str, seed: int):
    """Reference values for the default seed, or None at other seeds."""
    if seed != DEFAULT_SEED:
        return None
    with open(reference_path(workload, size), encoding="utf-8") as fh:
        return json.load(fh)["values"]


def check_reference(pas: Pass, reference: dict) -> None:
    """Fail every operation whose values differ from the reference by more
    than REFERENCE_ATOL anywhere."""
    for key, values in pas.values.items():
        want = reference.get(key)
        if want is None or len(want) != len(values):
            pas.fail(key, "no matching reference values")
            continue
        worst = max((abs(a - b) for a, b in zip(values, want)), default=0.0)
        if not worst <= REFERENCE_ATOL:
            pas.fail(key, f"differs from reference by {worst:.3g}")


def write_reference(workload: str, size: str, pas: Pass) -> None:
    """Values are rounded to 1e-12, well inside REFERENCE_ATOL."""
    values = {k: [round(v, 12) for v in vals]
              for k, vals in sorted(pas.values.items())}
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload, size), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "size": size, "seed": DEFAULT_SEED,
                   "values": values}, fh, separators=(",", ":"))
        fh.write("\n")
