"""Command-line front end: config ingestion, dispatch, deterministic output.

Configuration file (JSON, unknown keys rejected)::

    {
      "lattice": {"a": [1, 0], "b": [0, 1]},
      "V":  [[n, m, re, im], ...],        # real periodic potential modes
      "A1": [[n, m, re, im], ...],        # optional vector potential
      "A2": [[n, m, re, im], ...],
      "qmax": 4, "delta": ["1/16", "1/31"], "band": [0], "iota": -1,
      "grid": [16, 16], "tol_band": 1e-6, "model": "full",
      "order": 4, "n_max": 30, "guard": 6, "n_cells": 1
    }

``delta`` entries are rational flux fractions p/q >= 0 standing for the
squared adiabatic parameter (the flux per unit cell over 2 pi); the parameter
itself is derived as sqrt(p/q).  Flags override config values, which override
the defaults (``iota`` -1, ``tol_band`` 1e-6 of the spectral width);
``oracle-compare`` accepts only ``iota`` +1, its default.  Config keys are
shared by all commands, but a flag given to a command that does not read it
(``_COMMAND_FLAGS``) is a config error.  Every key, from the
file or from a flag, is checked when the config is loaded: integers must be
JSON integers (``qmax``, ``n_cells`` and ``n_max`` >= 1, ``order`` and
``guard`` >= 0), ``grid`` two integers >= 8, ``band`` a level index >= 0 or
a list of contiguous ones (``effective``, ``two-band`` and ``oracle-compare``
model one level and take one index); ``sapt`` and ``oracle-compare`` also
need ``guard`` (default 6) at most ``n_max`` or their default for it, and
``oracle-compare`` a ``band`` in the guard corner ``[0, n_max + 1 - guard)``.
Any other value is a config error.  Numbers are
emitted with 17 significant digits and '\n' line endings; identical configs
produce byte-identical files under the same BLAS configuration (library and
thread count).  Across thread counts every command keeps its bytes, but
for a reflection-odd symbol (:func:`oracle.build_full_matrix`) the complex
Arnoldi iteration behind the cluster of ``oracle-compare`` can move it in
its last bits; the banded LU solves it calls keep theirs.

An ``--out`` path that cannot be written (a missing directory, a
directory, no permission) is a config error: one ``config error: cannot
write output PATH: REASON`` line on stderr.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 resource cap.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import effective, moyal, oracle, quantize, symbols
from .errors import (ConfigError, GaugeError, GeometryError, MagblochError,
                     ResourceCapError, TruncationError)
from .fock import FockTruncation
from .lattice import FourierSeries2D, PeriodicVectorPotential, make_lattice
from .quantize import RationalFlux

__all__ = ["main", "cmd_butterfly", "cmd_effective", "cmd_two_band",
           "cmd_sapt", "cmd_oracle_compare", "load_config"]

Q_MAX_CAP = 200


def _fmt(x: float) -> str:
    """17 significant digits, '.' decimal separator."""
    return format(float(x), ".17g")


def _floats_template(n: int, pad: str) -> str:
    """The %-template of a JSON list of ``n`` floats whose brackets sit at
    indent ``pad``."""
    if not n:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(["%.17g"] * n) + f"\n{pad}]"


def _float_array_json(arr: np.ndarray, indent: int) -> str:
    """A float64 array of one or two dimensions, as :func:`_dump_json`
    writes its ``tolist()``.  A 2-D array is a list of rows, and each
    distinct row (bit for bit, so -0.0 and 0.0 differ) is formatted once."""
    pad = "  " * indent
    if arr.ndim == 1:
        return _floats_template(arr.size, pad) % tuple(arr.tolist())
    if not len(arr):
        return "[]"
    template = _floats_template(arr.shape[1], "  " * (indent + 1))
    texts, memo = [], {}
    for row in arr:
        key = row.tobytes()
        text = memo.get(key)
        if text is None:
            text = memo[key] = template % tuple(row.tolist())
        texts.append(text)
    return f"[\n{pad}  " + f",\n{pad}  ".join(texts) + f"\n{pad}]"


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats; a float64 array
    of one or two dimensions is written as its ``tolist()``."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in obj:
            items.append(f'{pad}  {json.dumps(str(k))}: '
                         f'{_dump_json(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # The brackets go into the one join or format, so the body, up to
        # the whole report, is not copied once more to wrap it.
        sep = f",\n{pad}  "
        if all(isinstance(v, (float, np.floating)) for v in obj):
            # a flat list of floats in one pass
            return _floats_template(len(obj), pad) % tuple(obj)
        items = [_dump_json(v, indent + 1) for v in obj]
        items[0] = f"[\n{pad}  " + items[0]
        items[-1] += f"\n{pad}]"
        return sep.join(items)
    if (isinstance(obj, np.ndarray) and obj.dtype == np.float64
            and obj.ndim in (1, 2)):
        return _float_array_json(obj, indent)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    return json.dumps(obj)


def _is_real(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _is_int(lo: int):
    return lambda x: type(x) is int and x >= lo


def _is_vector(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(map(_is_real, x))


# Each plain config key: the test its value must pass, and what it must be.
_SETTINGS = {
    "lattice": (lambda x: (isinstance(x, dict) and set(x) == {"a", "b"}
                           and all(map(_is_vector, x.values()))),
                'an object {"a": [real, real], "b": [real, real]}'),
    "qmax": (_is_int(1), "an integer >= 1"),
    "iota": (lambda x: type(x) is int and x in (1, -1), "1 or -1"),
    "tol_band": (lambda x: x is not None and quantize._is_tol_band(x),
                 "a finite number >= 0"),
    "grid": (quantize._is_grid, "a list of two integers >= 8"),
    "model": (lambda x: x in ("order0", "order2", "full"),
              "one of 'order0', 'order2', 'full'"),
    "order": (_is_int(0), "an integer >= 0"),
    "n_max": (_is_int(1), "an integer >= 1"),
    "guard": (_is_int(0), "an integer >= 0"),
    "n_cells": (_is_int(1), "an integer >= 1"),
}
_KNOWN_KEYS = {"V", "A1", "A2", "band", "delta", *_SETTINGS}


def _check_rows(rows, name: str) -> None:
    """Rows of a Fourier-mode table, each [int n, int m, real re, real im]."""
    if not isinstance(rows, list):
        raise ConfigError(f"{name} must be a list of [n, m, re, im] rows")
    for row in rows:
        if not (isinstance(row, list) and len(row) == 4
                and type(row[0]) is int and type(row[1]) is int
                and _is_real(row[2]) and _is_real(row[3])):
            raise ConfigError(
                f"{name} rows must be [int n, int m, real re, real im], got {row!r}")


def _band_list(value) -> list:
    """A level index, or a list of contiguous ones, as a list, by the
    library's band-set rule (:func:`moyal._check_bands`)."""
    bands = [value] if type(value) is int else value
    try:
        moyal._check_bands(bands)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"band must be a level index >= 0 or a list of "
                          f"contiguous ones, got {value!r}") from exc
    return bands


def _flux_list(values) -> list:
    """Flux fractions p/q >= 0 as RationalFlux."""
    if not (isinstance(values, list) and values):
        raise ConfigError(
            f"delta must be a non-empty list of flux fractions p/q, got {values!r}")
    out = []
    for v in values:
        try:
            f = Fraction(str(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad flux fraction {v!r}: {exc}") from exc
        if f < 0:
            raise ConfigError(f"flux fraction {v!r} is negative")
        out.append(RationalFlux.from_fraction(f))
    return out


def load_config(path: str, flags: dict | None = None) -> dict:
    """The JSON config at ``path``, with ``flags`` in place of the keys they
    name, after checking every key: ``band`` comes back as a list of level
    indices and ``delta`` as a list of :class:`RationalFlux`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(raw, **(flags or {}))
    if "lattice" not in cfg:
        raise ConfigError("config needs a 'lattice' section")
    for key in ("V", "A1", "A2"):
        _check_rows(cfg.get(key, []), key)
    for key, (ok, what) in _SETTINGS.items():
        if key in cfg and not ok(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
    if "band" in cfg:
        cfg["band"] = _band_list(cfg["band"])
    if "delta" in cfg:
        cfg["delta"] = _flux_list(cfg["delta"])
    return cfg


def _one_level(cfg: dict, command: str) -> int:
    """The level index of a command that models a single level."""
    bands = cfg.get("band", [0])
    if len(bands) != 1:
        raise ConfigError(f"{command} takes one level index, got band {bands}")
    return bands[0]


def _truncation(cfg: dict, n_max: int) -> FockTruncation:
    """The Fock truncation of a command, with ``n_max`` as its default."""
    n_max, guard = cfg.get("n_max", n_max), cfg.get("guard", 6)
    try:
        return FockTruncation(n_max=n_max, guard=guard)
    except TruncationError as exc:
        raise ConfigError(f"guard must be <= n_max, got guard {guard} and "
                          f"n_max {n_max}") from exc


# The flags each command reads besides --config and --out.  A flag given to
# a command that does not read it is a config error, never silently dropped;
# sapt and oracle-compare write JSON only and accept just ``--format json``.
_COMMAND_FLAGS = {
    "butterfly": {"format", "qmax", "iota", "tol_band"},
    "effective": {"format", "delta", "band", "iota", "tol_band", "units"},
    "two-band": {"format", "delta", "band", "iota", "tol_band", "units"},
    "sapt": {"format", "band"},
    "oracle-compare": {"format", "delta", "band", "iota"},
}
_JSON_ONLY = {"sapt", "oracle-compare"}


def _check_flags(args) -> None:
    """Reject the flags given on the command line that the command does not
    read, then any other ``--format`` or ``--units`` value than those listed
    here, whose first is the default."""
    given = [key for key in ("format", "qmax", "delta", "band", "iota",
                             "tol_band", "units")
             if getattr(args, key) is not None]
    unread = [key for key in given if key not in _COMMAND_FLAGS[args.command]]
    if unread:
        names = ", ".join("--" + key.replace("_", "-") for key in unread)
        raise ConfigError(f"{args.command} does not read {names}")
    if args.command in _JSON_ONLY and args.format not in (None, "json"):
        raise ConfigError(f"{args.command} writes JSON only, got --format "
                          f"{args.format}")
    for key, values in (("format", ("csv", "json")),
                        ("units", ("cyclotron", "bare"))):
        value = getattr(args, key)
        if value is None:
            setattr(args, key, values[0])
        elif value not in values:
            raise ConfigError(f"--{key} must be one of {', '.join(values)}, "
                              f"got {value!r}")


def _flag_settings(args) -> dict:
    """The config keys given as flags, parsed into the types of their config
    values; :func:`load_config` checks them."""
    flags = {}
    for key, parse in (("qmax", int), ("iota", int), ("tol_band", float)):
        text = getattr(args, key)
        if text is None:
            continue
        try:
            flags[key] = parse(text)
        except ValueError:
            raise ConfigError(f"--{key.replace('_', '-')} must be "
                              f"{_SETTINGS[key][1]}, got {text!r}") from None
    if args.delta is not None:
        flags["delta"] = [s for s in args.delta.split(",") if s]
    if args.band is not None:
        try:
            flags["band"] = [int(s) for s in args.band.split(",") if s]
        except ValueError:
            raise ConfigError(f"--band must be N or N,N, got {args.band!r}") from None
    return flags


def _build_inputs(cfg: dict):
    """Lattice, potential and vector potential (None without A1/A2 rows) of
    a checked config."""
    L = make_lattice(cfg["lattice"]["a"], cfg["lattice"]["b"])
    V, f1, f2 = (FourierSeries2D({(n, m): complex(re, im)
                                  for n, m, re, im in cfg.get(key, [])},
                                 is_real=True)
                 for key in ("V", "A1", "A2"))
    A = PeriodicVectorPotential(f1, f2, L) if cfg.get("A1") or cfg.get("A2") else None
    return L, V, A


def _write(out_path: str | None, text: str) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output {out_path}: "
                          f"{exc.strerror or exc}") from None


def _report_rows(reports) -> str:
    lines = ["p,q,theta,band_index,E_min,E_max"]
    for rep in reports:
        prefix = f"{rep.flux.p},{rep.flux.q},{_fmt(rep.flux.theta)},"
        lines.extend("%s%d,%.17g,%.17g" % (prefix, k, lo, hi)
                     for k, (lo, hi) in enumerate(rep.bands))
    return "\n".join(lines) + "\n"


def _report_json(reports) -> str:
    payload = []
    for rep in reports:
        payload.append({
            "p": rep.flux.p, "q": rep.flux.q, "theta": rep.flux.theta,
            "bands": [[lo, hi] for lo, hi in rep.bands],
            "samples": rep.samples,
            "metadata": {k: rep.metadata[k] for k in sorted(rep.metadata)},
        })
    return _dump_json(payload) + "\n"


def _reports_text(reports, args) -> str:
    """Spectrum reports in the format that ``--format`` names."""
    if args.format == "csv":
        return _report_rows(reports)
    return _report_json(reports)


def cmd_butterfly(cfg: dict, args) -> str:
    L, V, A = _build_inputs(cfg)
    q_max = cfg.get("qmax", 10)
    if q_max > Q_MAX_CAP:
        raise ResourceCapError(f"q_max={q_max} exceeds cap {Q_MAX_CAP}")
    reports = quantize.butterfly(V, q_max, iota=cfg.get("iota", -1),
                                 grid=tuple(cfg.get("grid", [8, 16])),
                                 tol_band=cfg.get("tol_band"))
    return _reports_text(reports, args)


def _rescale_report(rep, delta: float, units: str):
    """Record ``delta`` in a report in cyclotron units, and convert it to
    the bare lattice energy unit (divide by the squared adiabatic
    parameter) when ``units`` asks for it."""
    rep.metadata["delta"] = delta
    if units == "cyclotron":
        return rep
    if delta == 0.0:
        raise ConfigError("bare units undefined at zero flux")
    s = 1.0 / delta ** 2
    scaled = quantize.SpectrumReport(
        flux=rep.flux,
        bands=[(s * lo, s * hi) for lo, hi in rep.bands],
        samples=s * rep.samples,
        metadata=dict(rep.metadata, units="bare"))
    return scaled


def cmd_effective(cfg: dict, args) -> str:
    L, V, A = _build_inputs(cfg)
    band = _one_level(cfg, "effective")
    grid = tuple(cfg.get("grid", [16, 16]))
    iota = cfg.get("iota", -1)
    tol_band = cfg.get("tol_band")
    reports = []
    for fx in cfg.get("delta", [RationalFlux(1, 16)]):
        model = effective.single_band_model(V, L, band + 0.5, fx, iota=iota)
        rep = quantize.spectrum(model.family, grid=grid, tol_band=tol_band)
        rep.metadata["band"] = band
        reports.append(_rescale_report(rep, model.delta, args.units))
    return _reports_text(reports, args)


def cmd_two_band(cfg: dict, args) -> str:
    L, V, A = _build_inputs(cfg)
    if A is None or A.is_zero():
        raise ConfigError("two-band command needs a non-zero vector potential")
    n_star = _one_level(cfg, "two-band")
    grid = tuple(cfg.get("grid", [16, 16]))
    iota = cfg.get("iota", -1)
    tol_band = cfg.get("tol_band")
    reports = []
    for fx in cfg.get("delta", [RationalFlux(1, 16)]):
        model = effective.two_band_model(A, L, n_star, fx, iota=iota)
        rep = quantize.spectrum(model.family, grid=grid, tol_band=tol_band)
        via = effective.spectrum_via_GGdag(A, L, n_star, fx, grid=grid,
                                           iota=iota)
        # both sample rows come out ascending from the eigensolvers
        disc = float(np.max(np.abs(rep.samples - via.samples)))
        rep.metadata["n_star"] = n_star
        rep.metadata["ggdag_max_discrepancy"] = disc
        reports.append(_rescale_report(rep, model.delta, args.units))
    return _reports_text(reports, args)


def _mode_blocks_payload(h):
    out = []
    for nm in sorted(h):
        M = h[nm]
        out.append([nm[0], nm[1],
                    [[[float(z.real), float(z.imag)] for z in row] for row in M]])
    return out


def _sup_difference(h, want: FourierSeries2D) -> float:
    """Largest |h - want| over the modes of either, of a 1 x 1 mode map
    ``h`` and a series ``want``; a mode one of them lacks counts as 0."""
    zero = np.zeros((1, 1))
    return max((float(abs(h.get(nm, zero)[0, 0] - want[nm]))
                for nm in set(h) | set(want.coeffs)), default=0.0)


def cmd_sapt(cfg: dict, args) -> str:
    L, V, A = _build_inputs(cfg)
    bands = cfg.get("band", [0])
    order = cfg.get("order", 4)
    T = _truncation(cfg, 2 * order + max(bands) + cfg.get("guard", 6) + 12)
    H = symbols.assemble_truncated(V, A, L, T)
    pi = moyal.build_projection(H, bands, order)
    u = moyal.build_intertwiner(pi, order)
    hs = moyal.effective_symbol(H, u, order)

    def block_norm(h):
        return max((float(np.max(np.abs(M))) for M in h.values()), default=0.0)

    payload = {
        "natural": H.natural,
        "order": order,
        "band_set": list(pi.band_set),
        "pi_residuals": {k: [float(x) for x in v]
                         for k, v in sorted(pi.residuals.items())},
        "u_residuals": {k: [float(x) for x in v]
                        for k, v in sorted(u.residuals.items())},
        "h_norms": [block_norm(h) for h in hs],
        "h": {str(j): _mode_blocks_payload(hs[j]) for j in range(order + 1)},
    }
    if H.natural == 1 and len(bands) == 1 and order >= 4:
        grades = effective.closed_form_grades(V, L, bands[0] + 0.5)
        payload["checks"] = {
            name: _sup_difference(hs[j], grades.get(j, FourierSeries2D()))
            for name, j in (("h1_norm", 1), ("h3_norm", 3), ("h2_minus_V", 2),
                            ("h4_minus_closed_form", 4))}
    return _dump_json(payload) + "\n"


# the grades of the closed form that each oracle-compare model keeps
_MODEL_ORDER = {"order0": 0, "order2": 2, "full": 4}


def cmd_oracle_compare(cfg: dict, args) -> str:
    L, V, A = _build_inputs(cfg)
    if cfg.get("iota", 1) != 1:
        raise ConfigError("oracle-compare supports iota = +1 only: the Fock "
                          "factors fix the charge sign at +1")
    model_kind = cfg.get("model", "full")
    n_cells = cfg.get("n_cells", 1)
    band = _one_level(cfg, "oracle-compare")
    lam = band + 0.5
    T = _truncation(cfg, 30)
    if band >= T.corner_dim:
        raise ConfigError(f"band {band} lies outside the guard corner "
                          f"[0, {T.corner_dim}) of n_max {T.n_max} and "
                          f"guard {T.guard}")
    entries = []
    deltas, dists = [], []
    for fx in cfg.get("delta") or oracle.default_delta_sweep():
        delta = effective.delta_from_flux(fx)
        basis = oracle.OracleBasis.resolving(V, A, fx, T, n_cells)
        Hfull = oracle.build_full_matrix(V, A, L, basis, fx)
        cluster = oracle.level_cluster(Hfull, V, A, basis, band)
        series = effective.single_band_model(
            V, L, lam, fx, iota=1, order=_MODEL_ORDER[model_kind]).blocks[0][0]
        Hmod = oracle.quantize_on_grid(series, basis, fx)
        mspec = oracle.oracle_eigenvalues(Hmod)
        dist = quantize.sorted_list_distance(mspec, cluster)
        deltas.append(delta)
        dists.append(dist)
        fit = oracle.log_slope(deltas, dists)
        entries.append({
            "delta": delta,
            "theta": f"{fx.p}/{fx.q}",
            "model": model_kind,
            "oracle_band": cluster,
            "model_band": mspec,
            "hausdorff": dist,
            "slope_so_far": None if fit is None else fit[0],
        })
    return _dump_json(entries) + "\n"


_COMMANDS = {
    "butterfly": cmd_butterfly,
    "effective": cmd_effective,
    "two-band": cmd_two_band,
    "sapt": cmd_sapt,
    "oracle-compare": cmd_oracle_compare,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magbloch",
        description="Magnetic Bloch bands at rational flux: spectra, "
                    "effective models, and oracle cross-checks.")
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="JSON input file")
    ap.add_argument("--out", default=None, help="output path (default stdout)")
    ap.add_argument("--format", default=None,
                    help="report format (default csv; sapt and "
                         "oracle-compare write json only)")
    ap.add_argument("--qmax", default=None)
    ap.add_argument("--delta", default=None,
                    help="comma-separated flux fractions p/q (squared parameter)")
    ap.add_argument("--band", default=None, help="level index or N,N")
    ap.add_argument("--iota", default=None,
                    help="charge sign (default -1; oracle-compare: +1 only)")
    ap.add_argument("--tol-band", dest="tol_band", default=None)
    ap.add_argument("--units", default=None,
                    help="energy unit of effective/two-band reports "
                         "(default cyclotron)")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        cfg = load_config(args.config, _flag_settings(args))
        text = _COMMANDS[args.command](cfg, args)
        _write(args.out, text)
        return 0
    except (ConfigError, GeometryError, GaugeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (MagblochError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
