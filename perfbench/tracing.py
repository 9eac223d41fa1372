"""Spans around the public functions of the magbloch layers, recorded from
the benchmark's own files.

During a traced pass every public module-level function defined in one of
the layer modules, and ``MagneticBlochFamily.matrix_at``, is replaced by a
wrapper that records a span: name, layer, start, end, parent and an optional
count taken from the arguments or the result.  The replacement is made in
every magbloch module that holds a reference to the function (including
module-level dicts such as the CLI's command table), and undone after the
pass.  ``lattice`` and ``jacobi`` are not wrapped: the first takes
negligible time and the second is on no default path, so their time counts
towards the caller.

Spans are held in memory; a layer's self time is the duration of its spans
minus the part covered by their child spans.  Work of the benchmark itself
(the pass span and the counting of span details) belongs to no layer and is
reported as unattributed, so the layer self times plus the unattributed
time add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "quantize", "effective", "oracle", "fock", "symbols", "moyal")

# Span record fields.
NAME, LAYER, START, END, PARENT, INFO = range(6)


def _moyal_products(args, kwargs, result):
    """Mode-pair matrix products made by one moyal_term call."""
    A, B, k = args
    if k == 0:
        return len(A) * len(B)
    return sum(1 for (n1, m1) in A for (n2, m2) in B if m1 * n2 - n1 * m2)


def _nnz(args, kwargs, result):
    return [result.shape[0], int((result != 0).sum())]


# Counts taken at the layer boundary, from the arguments or the result.
COUNTS = {
    "quantize.matrix_at": lambda a, k, r: r.shape[0],
    "quantize.spectrum": lambda a, k, r: list(r.samples.shape),
    "oracle.build_full_matrix": _nnz,
    "oracle.oracle_eigenvalues": lambda a, k, r: len(r),
    "oracle.band_cluster": lambda a, k, r: [len(a[0]), len(r)],
    "fock.displacement_exp": lambda a, k, r: [a[1], a[2], a[4].dim],
    "moyal.moyal_term": _moyal_products,
}


def _layer_functions():
    """(span name, layer, owner, attribute, function) of every traced
    function."""
    for layer in LAYERS:
        mod = importlib.import_module(f"magbloch.{layer}")
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                yield f"{layer}.{attr}", layer, mod, attr, obj
    quantize = sys.modules["magbloch.quantize"]
    cls = quantize.MagneticBlochFamily
    yield "quantize.matrix_at", "quantize", cls, "matrix_at", cls.matrix_at


class Tracer:
    """Records the spans of one pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None = None):
        rec = [name, layer, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, layer, fn):
        # The span is recorded inline rather than through span(): wrapped
        # functions are called up to ~10^5 times per pass.
        count = COUNTS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                with self.span("trace.count"):
                    rec[INFO] = count(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        wrappers = {}
        for name, layer, owner, attr, fn in _layer_functions():
            wrappers[id(fn)] = self._wrap(name, layer, fn)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrappers[id(fn)])
        for modname, mod in list(sys.modules.items()):
            if modname != "magbloch" and not modname.startswith("magbloch."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers:
                            self._undo.append((obj.__setitem__, key, val))
                            obj[key] = wrappers[id(val)]

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((functools.partial(setattr, owner), attr,
                           getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            setter, key, old = self._undo.pop()
            setter(key, old)


def _aggregate(spans):
    """Per-span self time and, per span name, calls / total / self time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    self_time = [rec[END] - rec[START] - c for rec, c in zip(spans, child)]
    by_name = {}
    for rec, s in zip(spans, self_time):
        agg = by_name.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += rec[END] - rec[START]
        agg["self_s"] += s
    return self_time, by_name


def layer_metrics(spans, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    ``spans[0]`` is the pass span.
    """
    self_time, by_name = _aggregate(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def fn(name, field):
        return by_name.get(name, zero)[field]

    def infos(name):
        return [rec[INFO] for rec in spans if rec[NAME] == name]

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(s for rec, s in zip(spans, self_time)
                                    if rec[LAYER] == layer), "s")
    unattributed = sum(s for rec, s in zip(spans, self_time) if rec[LAYER] is None)

    m["cli.load_config.s"] = (fn("cli.load_config", "s"), "s")
    m["cli.output_bytes"] = (output_bytes, "bytes")

    calls = fn("quantize.matrix_at", "calls")
    m["quantize.matrix_at.calls"] = (calls, "count")
    m["quantize.matrix_at.self_s"] = (fn("quantize.matrix_at", "self_s"), "s")
    m["quantize.matrix_at.us_per_call"] = (
        1e6 * fn("quantize.matrix_at", "s") / calls if calls else 0.0, "us")
    m["quantize.spectrum.calls"] = (fn("quantize.spectrum", "calls"), "count")
    m["quantize.spectrum.self_s"] = (fn("quantize.spectrum", "self_s"), "s")
    m["quantize.butterfly.s"] = (fn("quantize.butterfly", "s"), "s")
    shapes = infos("quantize.spectrum")
    m["quantize.bloch_points"] = (sum(n for n, _ in shapes), "count")
    m["quantize.max_dim"] = (max((d for _, d in shapes), default=0), "count")
    # The ROADMAP's split at q = 50: assembly against eigensolve per point.
    # The spectrum self time is the eigvalsh calls plus the per-point loop
    # and the interval merge.
    at50 = [rec[END] - rec[START] for rec in spans
            if rec[NAME] == "quantize.matrix_at" and rec[INFO] == 50]
    m["quantize.q50.matrix_at_us"] = (
        1e6 * sum(at50) / len(at50) if at50 else 0.0, "us")
    sp50 = [(s, rec[INFO][0]) for rec, s in zip(spans, self_time)
            if rec[NAME] == "quantize.spectrum" and rec[INFO][1] == 50]
    m["quantize.q50.spectrum_self_us"] = (
        1e6 * sum(s for s, _ in sp50) / sum(n for _, n in sp50)
        if sp50 else 0.0, "us")

    for name in ("single_band_model", "two_band_model", "spectrum_via_GGdag"):
        m[f"effective.{name}.s"] = (fn(f"effective.{name}", "s"), "s")
    m["effective.spectrum_via_GGdag.calls"] = (
        fn("effective.spectrum_via_GGdag", "calls"), "count")

    m["oracle.build_full_matrix.calls"] = (
        fn("oracle.build_full_matrix", "calls"), "count")
    m["oracle.build_full_matrix.self_s"] = (
        fn("oracle.build_full_matrix", "self_s"), "s")
    dim, nnz = max(infos("oracle.build_full_matrix"), default=[0, 0])
    m["oracle.dim_max"] = (dim, "count")
    m["oracle.nnz"] = (nnz, "count")
    m["oracle.dense_bytes"] = (16 * dim * dim, "bytes")
    m["oracle.oracle_eigenvalues.calls"] = (
        fn("oracle.oracle_eigenvalues", "calls"), "count")
    m["oracle.oracle_eigenvalues.s"] = (fn("oracle.oracle_eigenvalues", "s"), "s")
    m["oracle.eigs_computed"] = (sum(infos("oracle.oracle_eigenvalues")), "count")
    clusters = infos("oracle.band_cluster")
    offered = sum(n for n, _ in clusters)
    kept = sum(k for _, k in clusters)
    m["oracle.eigs_kept"] = (kept, "count")
    m["oracle.band_cluster.useful_frac"] = (kept / offered if offered else 0.0,
                                            "frac")
    m["oracle.quantize_on_grid.s"] = (fn("oracle.quantize_on_grid", "s"), "s")

    m["fock.displacement_exp.calls"] = (
        fn("fock.displacement_exp", "calls"), "count")
    m["fock.displacement_exp.s"] = (fn("fock.displacement_exp", "s"), "s")
    m["fock.displacement_exp.distinct"] = (
        len({tuple(i) for i in infos("fock.displacement_exp")}), "count")

    for name in ("assemble_truncated", "eval_exact", "remainder_norm"):
        m[f"symbols.{name}.calls"] = (fn(f"symbols.{name}", "calls"), "count")
        m[f"symbols.{name}.self_s"] = (fn(f"symbols.{name}", "self_s"), "s")

    for name in ("build_projection", "build_intertwiner", "effective_symbol"):
        m[f"moyal.{name}.s"] = (fn(f"moyal.{name}", "s"), "s")
    m["moyal.residuals.s"] = (fn("moyal.projection_residuals", "s")
                              + fn("moyal.intertwiner_residuals", "s"), "s")
    m["moyal.star_grade.calls"] = (fn("moyal.star_grade", "calls"), "count")
    m["moyal.moyal_term.calls"] = (fn("moyal.moyal_term", "calls"), "count")
    m["moyal.moyal_term.products"] = (sum(infos("moyal.moyal_term")), "count")

    m["trace.wall_s"] = (spans[0][END] - spans[0][START], "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.spans"] = (len(spans), "count")
    return m
