import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magbloch import FockTruncation, cli, moyal, oracle, quantize
from magbloch.cli import _check_flags, _dump_json, _parser, main
from magbloch.lattice import FourierSeries2D, make_lattice

ROOT = Path(__file__).resolve().parent.parent

HARPER_CFG = {
    "lattice": {"a": [1.0, 0.0], "b": [0.0, 1.0]},
    "V": [[1, 0, 1.0, 0.0], [-1, 0, 1.0, 0.0],
          [0, 1, 1.0, 0.0], [0, -1, 1.0, 0.0]],
}


def _write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = dict(HARPER_CFG)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _assert_same_bytes(got, want):
    """got == want for two texts or byte strings, failing with the offset of
    the first difference and the text around it: pytest's own diff of two
    megabyte outputs can take minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        lo = max(at - 30, 0)
        pytest.fail(f"first difference at offset {at}: "
                    f"{got[lo:at + 30]!r} != {want[lo:at + 30]!r}")


def test_unknown_key_rejected(tmp_path, capsys):
    path = _write_cfg(tmp_path, {"frobnicate": 1})
    assert main(["butterfly", "--config", path]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_file_rejected(tmp_path):
    assert main(["butterfly", "--config", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("out", ["missing/dir/x.csv", "."])
def test_unwritable_out_is_a_config_error(tmp_path, capsys, out):
    # a missing directory, then a directory itself
    path = _write_cfg(tmp_path)
    target = str(tmp_path / out)
    assert main(["butterfly", "--config", path, "--qmax", "2",
                 "--out", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write output {target}: ")
    assert err.count("\n") == 1


def test_qmax_cap(tmp_path):
    path = _write_cfg(tmp_path)
    assert main(["butterfly", "--config", path, "--qmax", "500"]) == 4


@pytest.mark.parametrize("extra, argv", [
    ({"grid": [20000, 20000]}, ["butterfly", "--qmax", "2"]),
    ({}, ["effective", "--delta", "1/1000000"]),
])
def test_grid_over_the_samples_budget_is_a_resource_cap(tmp_path, capsys,
                                                        monkeypatch, extra,
                                                        argv):
    # the cap comes before any Chambers sampling or solve
    solves = []
    monkeypatch.setattr(quantize, "_band_eigvalsh",
                        lambda *args: solves.append(args))
    monkeypatch.setattr(quantize, "_chambers_points",
                        lambda *args: solves.append(args))
    path = _write_cfg(tmp_path, extra)
    assert main(argv + ["--config", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("resource cap: grid ") and "budget" in err
    assert err.count("\n") == 1
    assert solves == []


def test_gauge_violation_is_config_error(tmp_path):
    path = _write_cfg(tmp_path, {"A1": [[1, 1, 1.0, 0.0], [-1, -1, 1.0, 0.0]]})
    assert main(["two-band", "--config", path, "--delta", "1/2"]) == 2


def test_butterfly_csv_deterministic(tmp_path):
    path = _write_cfg(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        rc = main(["butterfly", "--config", path, "--qmax", "2",
                   "--out", str(out)])
        assert rc == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    lines = b1.decode().splitlines()
    assert lines[0] == "p,q,theta,band_index,E_min,E_max"
    # q_max=1 rows: single band [-4, 4]
    row = lines[1].split(",")
    assert row[:3] == ["0", "1", "0"]
    assert float(row[4]) == pytest.approx(-4.0)
    assert float(row[5]) == pytest.approx(4.0)
    # theta=1/2 rows with edges +-2 sqrt
    half = [ln.split(",") for ln in lines[2:]]
    assert [r[:2] for r in half] == [["1", "2"], ["1", "2"]]
    s = 2 * math.sqrt(2)
    assert float(half[0][4]) == pytest.approx(-s, abs=1e-9)
    assert float(half[1][5]) == pytest.approx(s, abs=1e-9)


def test_butterfly_json_format(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "a.json"
    assert main(["butterfly", "--config", path, "--qmax", "1",
                 "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload[0]["q"] == 1
    assert payload[0]["bands"][0] == [-4.0, 4.0]
    # Harper is sampled at its Chambers points only: q beta in {0, pi}^2
    pi = math.pi
    assert payload[0]["metadata"]["chambers_points"] == [
        [0.0, 0.0], [0.0, pi], [pi, 0.0], [pi, pi]]
    assert len(payload[0]["samples"]) == 4


def test_butterfly_names_mirrored_fluxes(tmp_path):
    path = _write_cfg(tmp_path)
    out, csv = tmp_path / "a.json", tmp_path / "a.csv"
    assert main(["butterfly", "--config", path, "--qmax", "3",
                 "--format", "json", "--out", str(out)]) == 0
    meta = {(r["p"], r["q"]): r["metadata"] for r in json.loads(out.read_text())}
    assert meta[2, 3]["mirror_of"] == [1, 3]
    assert [k for k in meta if "mirror_of" in meta[k]] == [(2, 3)]
    # the CSV has no such column; a mirrored flux repeats its twin's edges
    assert main(["butterfly", "--config", path, "--qmax", "3",
                 "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "p,q,theta,band_index,E_min,E_max"
    rows = [ln.split(",") for ln in lines[1:]]
    edges = {(r[0], r[1]): [] for r in rows}
    for r in rows:
        edges[r[0], r[1]].append(r[3:])
    assert edges["2", "3"] == edges["1", "3"]


def test_effective_command(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "eff.csv"
    assert main(["effective", "--config", path, "--delta", "1/4",
                 "--band", "0", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "p,q,theta,band_index,E_min,E_max"
    assert len(rows) > 1


def test_two_band_constant_coupling(tmp_path):
    path = _write_cfg(tmp_path, {
        "A1": [[0, 0, 0.6, 0.0]],
        "A2": [[0, 0, -0.2, 0.0]],
    })
    out = tmp_path / "tb.json"
    assert main(["two-band", "--config", path, "--delta", "1/3",
                 "--band", "1", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    meta = payload[0]["metadata"]
    assert meta["ggdag_max_discrepancy"] < 1e-10
    gamma = complex(0.6, 0.2) / math.sqrt(2)  # z_a (f1 - i f2)/sqrt2 on square
    d2 = 1.0 / 3.0
    root = math.sqrt(0.25 + d2 * 2.0 * abs(gamma) ** 2)
    los = [b[0] for b in payload[0]["bands"]]
    his = [b[1] for b in payload[0]["bands"]]
    assert min(los) == pytest.approx(2.0 - root, abs=1e-10)
    assert max(his) == pytest.approx(2.0 + root, abs=1e-10)


def test_sapt_command(tmp_path):
    path = _write_cfg(tmp_path)
    out = tmp_path / "sapt.json"
    assert main(["sapt", "--config", path, "--band", "0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["natural"] == 1
    assert payload["checks"]["h1_norm"] < 1e-12
    assert payload["checks"]["h3_norm"] < 1e-12
    assert payload["checks"]["h2_minus_V"] < 1e-12
    assert payload["checks"]["h4_minus_closed_form"] < 1e-10
    assert max(payload["pi_residuals"]["idempotency"]) < 1e-10
    assert max(payload["u_residuals"]["unitarity"]) < 1e-10


def test_sapt_band_order_does_not_change_the_output(tmp_path):
    # the blocks come out in level order, and band_set says so
    outs = [_output(tmp_path, ["sapt", "--band", band], {"order": 2},
                    name=name)
            for band, name in (("0,1", "sorted"), ("1,0", "reversed"))]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["band_set"] == [0, 1]


def test_sapt_checks_see_every_h2_mode(tmp_path, monkeypatch):
    # a spurious h_2 mode that V lacks must show in h2_minus_V
    from magbloch import moyal
    real = moyal.effective_symbol

    def spurious(*args):
        hs = real(*args)
        hs[2][(2, 0)] = np.array([[0.5 + 0j]])
        return hs

    monkeypatch.setattr(moyal, "effective_symbol", spurious)
    path = _write_cfg(tmp_path)
    out = tmp_path / "sapt.json"
    assert main(["sapt", "--config", path, "--band", "0",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"]["h2_minus_V"] == 0.5


def test_oracle_compare_command(tmp_path):
    path = _write_cfg(tmp_path, {"n_max": 16})
    out = tmp_path / "oc.json"
    assert main(["oracle-compare", "--config", path,
                 "--delta", "1/16,1/31,1/64", "--band", "0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 3
    assert payload[0]["slope_so_far"] is None
    assert payload[-1]["slope_so_far"] >= 4.5
    assert payload[0]["hausdorff"] > payload[-1]["hausdorff"]


def test_oracle_compare_repeated_flux_has_no_slope(tmp_path):
    # one delta, however often repeated, fixes no line
    path = _write_cfg(tmp_path, {"n_max": 12})
    out = tmp_path / "oc.json"
    assert main(["oracle-compare", "--config", path,
                 "--delta", "1/16,1/16,1/16", "--band", "0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 3
    assert [e["slope_so_far"] for e in payload] == [None] * 3


def test_oracle_compare_gap_closed(tmp_path):
    cfg = dict(HARPER_CFG)
    cfg["V"] = [[n, m, 3 * c, 0.0] for n, m, c, _ in HARPER_CFG["V"]]
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(cfg))
    rc = main(["oracle-compare", "--config", str(path),
               "--delta", "4/5,3/5,2/5", "--band", "0"])
    assert rc == 3


def test_oracle_compare_degenerate_level(tmp_path):
    # V = 0: the level is slow_dim-fold degenerate, and every copy is reported
    path = _write_cfg(tmp_path, {"V": [], "n_max": 12})
    out = tmp_path / "oc.json"
    assert main(["oracle-compare", "--config", path, "--delta", "1/34",
                 "--band", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert len(payload[0]["oracle_band"]) == 34
    assert max(abs(x - 1.5) for x in payload[0]["oracle_band"]) < 1e-10


def test_oracle_compare_grid_resolves_vector_potential(tmp_path):
    # A reaches the modes (0, +-2), beyond V's: the slow grid must hold 4 * 2
    # points per cell, so 1/5 and 1/6 take 10 and 12 slow points
    path = _write_cfg(tmp_path, {"A1": [[0, 2, 0.3, 0], [0, -2, 0.3, 0]],
                                 "n_max": 12})
    out = tmp_path / "oc.json"
    assert main(["oracle-compare", "--config", path, "--delta", "1/5,1/6",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert [len(e["oracle_band"]) for e in payload] == [10, 12]


# V = 0.3 on the nearest-neighbour modes with two Fock states: at 1/4 and 1/5
# a parity sector is too small to leave an eigenvalue beyond its share
_SMALL_SECTORS = {"V": [[n, m, 0.3, 0.0] for n, m, *_ in HARPER_CFG["V"]],
                  "n_max": 1, "guard": 0}


@pytest.mark.parametrize("flux", ["1/4", "1/5", "1/8"])
def test_oracle_compare_small_parity_sectors(tmp_path, flux):
    # every level of the cluster is found, as the dense spectrum has it
    path = _write_cfg(tmp_path, _SMALL_SECTORS)
    out = tmp_path / "oc.json"
    assert main(["oracle-compare", "--config", path, "--delta", flux,
                 "--band", "0", "--out", str(out)]) == 0
    got = json.loads(out.read_text())[0]["oracle_band"]
    V = FourierSeries2D({(n, m): c for n, m, c, _ in _SMALL_SECTORS["V"]},
                        is_real=True)
    fx = quantize.RationalFlux(1, int(flux[2:]))
    basis = oracle.OracleBasis.resolving(V, None, fx,
                                         FockTruncation(n_max=1, guard=0))
    H = oracle.build_full_matrix(V, None, make_lattice([1, 0], [0, 1]),
                                 basis, fx)
    want = oracle.band_cluster(oracle.oracle_eigenvalues(H), 0.5)
    assert len(got) == want.size == basis.slow_dim
    assert np.max(np.abs(np.array(got) - want)) < 1e-12


def test_units_flag_rescales(tmp_path):
    path = _write_cfg(tmp_path)
    out_c = tmp_path / "c.json"
    out_b = tmp_path / "b.json"
    for units, out in [("cyclotron", out_c), ("bare", out_b)]:
        assert main(["effective", "--config", path, "--delta", "1/4",
                     "--band", "0", "--format", "json", "--units", units,
                     "--out", str(out)]) == 0
    cyc = json.loads(out_c.read_text())[0]["bands"]
    bare = json.loads(out_b.read_text())[0]["bands"]
    for (lo_c, hi_c), (lo_b, hi_b) in zip(cyc, bare):
        assert lo_b == pytest.approx(4.0 * lo_c)
        assert hi_b == pytest.approx(4.0 * hi_c)


@pytest.mark.parametrize("extra", [
    {"V": [None]},
    {"A1": [None]},
    {"A2": [[0, 1, 0.5, 0.0], None]},
    {"V": [[1, 0, "x", 0]]},
    {"V": [["a", 0, 1, 0]]},
    {"V": [[1.5, 0, 1.0, 0.0]]},
    {"V": [[1, 0, 1.0]]},
    {"V": None},
])
def test_malformed_rows_are_config_errors(tmp_path, capsys, extra):
    path = _write_cfg(tmp_path, extra)
    assert main(["butterfly", "--config", path, "--qmax", "2"]) == 2
    assert "config error" in capsys.readouterr().err


def _output(tmp_path, argv, extra=None, name="out"):
    path = _write_cfg(tmp_path, extra, name=f"{name}.json")
    out = tmp_path / f"{name}.txt"
    assert main(argv + ["--config", path, "--out", str(out)]) == 0
    return out.read_bytes()


def test_iota_precedence_flag_over_config_over_default(tmp_path):
    argv = ["effective", "--delta", "2/7"]
    default = _output(tmp_path, argv, name="default")
    config = _output(tmp_path, argv, {"iota": 1}, name="config")
    flag = _output(tmp_path, argv + ["--iota", "1"], name="flag")
    both = _output(tmp_path, argv + ["--iota", "-1"], {"iota": 1}, name="both")
    assert config == flag != default
    assert both == default


def test_butterfly_honours_tol_band(tmp_path):
    argv = ["butterfly", "--qmax", "3"]
    default = _output(tmp_path, argv, name="default")
    config = _output(tmp_path, argv, {"tol_band": 3.0}, name="config")
    flag = _output(tmp_path, argv + ["--tol-band", "3"], name="flag")
    both = _output(tmp_path, argv + ["--tol-band", "3"], {"tol_band": 1e-9},
                   name="both")
    assert config == flag == both != default


@pytest.mark.parametrize("argv, extra", [
    (["--iota", "-1"], None),
    ([], {"iota": -1}),
])
def test_oracle_compare_rejects_iota_minus_one(tmp_path, capsys, argv, extra):
    # the Fock factors fix the charge sign at +1; a silent swap to +1 would
    # report a comparison that was not asked for
    path = _write_cfg(tmp_path, dict(extra or {}, n_max=12))
    assert main(["oracle-compare", "--config", path, "--delta", "1/16",
                 "--band", "0"] + argv) == 2
    assert "iota" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"iota": 2}, {"iota": True}, {"iota": 1.0}, {"iota": "1"},
    {"tol_band": -1.0}, {"tol_band": "x"}, {"tol_band": None},
])
def test_bad_iota_and_tol_band_are_config_errors(tmp_path, capsys, extra):
    path = _write_cfg(tmp_path, extra)
    assert main(["butterfly", "--config", path, "--qmax", "2"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, extra", [
    (["butterfly"], {"qmax": "5"}),
    (["butterfly"], {"qmax": 0}),
    (["butterfly", "--qmax", "0"], None),
    (["butterfly"], {"grid": [4]}),
    (["effective"], {"grid": "x"}),
    (["butterfly"], {"grid": [4, 4]}),
    (["effective"], {"band": []}),
    (["effective"], {"band": 1.5}),
    (["effective"], {"band": "x"}),
    (["effective"], {"band": [-1]}),
    (["sapt"], {"band": [0, 2]}),
    (["effective", "--band", "x"], None),
    (["sapt"], {"order": None}),
    (["sapt"], {"order": 2.7}),
    (["sapt"], {"order": "2"}),
    (["effective"], {"delta": 5}),
    (["effective"], {"delta": ["-1/3"]}),
    (["oracle-compare"], {"n_cells": 0}),
    (["oracle-compare"], {"guard": -1}),
    (["effective"], {"model": "fifth"}),
    (["butterfly"], {"lattice": 5}),
    (["butterfly"], {"lattice": {"a": [1, "x"], "b": [0, 1]}}),
    (["butterfly", "--tol-band", "nan"], None),
    (["oracle-compare"], {"guard": 40, "n_max": 30}),
    (["oracle-compare"], {"guard": 40}),
    (["sapt"], {"guard": 40, "n_max": 30}),
    (["sapt"], {"n_max": 3}),
    # single-level commands would read the first index and drop the rest
    (["effective", "--delta", "1/7"], {"band": [0, 1]}),
    (["two-band", "--delta", "1/7"],
     {"band": [0, 1], "A1": [[0, 1, 0.5, 0.0], [0, -1, 0.5, 0.0]]}),
    (["oracle-compare", "--delta", "1/7"], {"band": [0, 1], "n_max": 12}),
    # oracle-compare's band must lie in the guard corner [0, n_max + 1 - guard)
    (["oracle-compare", "--band", "40"], None),
    (["oracle-compare", "--band", "29"], None),
    (["oracle-compare", "--band", "25"], None),
    (["oracle-compare", "--delta", "1/7", "--band", "7"], {"n_max": 12}),
    (["oracle-compare", "--delta", "1/7"], {"band": 3, "n_max": 8,
                                            "guard": 6}),
    (["effective", "--delta", "abc"], None),
    (["effective", "--delta", "1/0"], None),
    (["effective", "--delta", "0/1", "--units", "bare"], None),
    (["two-band", "--delta", "1/5"], None),
    # flag values take the config checks, not argparse's usage error
    (["butterfly", "--qmax", "abc"], None),
    (["butterfly", "--qmax", "2.5"], None),
    (["butterfly", "--iota", "2"], None),
    (["butterfly", "--tol-band", "x"], None),
    (["butterfly", "--format", "xml"], None),
    (["effective", "--units", "foo"], None),
])
def test_bad_config_values_are_config_errors(tmp_path, capsys, argv, extra):
    path = _write_cfg(tmp_path, extra)
    assert main(argv + ["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1



@pytest.mark.parametrize("band, accepted", [
    (0, True), ([1, 0], True), ([0, 0], False), ([0, 2], False),
    ([], False), ([-1], False), ([True], False), ([0.0], False),
    ("0", False), (None, False),
])
def test_band_config_takes_the_library_band_set_rule(tmp_path, capsys, band,
                                                     accepted):
    # load_config accepts a band exactly when moyal's band-set rule accepts
    # it, a lone level index read as a list of one, and keeps its order
    bands = [band] if type(band) is int else band
    try:
        moyal._check_bands(bands)
    except (TypeError, ValueError):
        assert not accepted
    else:
        assert accepted
    path = _write_cfg(tmp_path, {"band": band})
    if accepted:
        assert cli.load_config(path)["band"] == bands
        return
    assert main(["sapt", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: band must be a level index >= 0 or a "
                   f"list of contiguous ones, got {band!r}\n")


@pytest.mark.parametrize("argv, extra, n_max", [
    (["sapt"], {"order": 1}, None),   # the default n_max makes room
    (["sapt"], {"order": 0}, 40),
    (["sapt"], {"order": 0}, 39),
    (["oracle-compare", "--delta", "1/4"], {}, None),   # default n_max 30
    (["oracle-compare", "--delta", "1/4"], {}, 40),
    (["oracle-compare", "--delta", "1/4"], {}, 39),
])
def test_guard_40_takes_the_truncation_rule(tmp_path, capsys, argv, extra,
                                            n_max):
    # FockTruncation's guard <= n_max decides, as a config error
    if n_max is not None:
        extra = {**extra, "n_max": n_max}
    path = _write_cfg(tmp_path, {"guard": 40, **extra})
    code = main([argv[0], "--config", path, *argv[1:], "--out",
                 str(tmp_path / "out.json")])
    want = 30 if n_max is None and argv[0] == "oracle-compare" else n_max
    if want is not None and want < 40:
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: guard must be <= n_max, got guard 40 and "
            f"n_max {want}\n")
    else:
        assert code == 0


# One value per flag, and the flags each command reads (README, "Command
# line"); --config and --out are read by every command.
_FLAG_ARGV = {
    "format": ["--format", "json"], "qmax": ["--qmax", "3"],
    "delta": ["--delta", "1/7"], "band": ["--band", "0"],
    "iota": ["--iota", "1"], "tol_band": ["--tol-band", "0.1"],
    "units": ["--units", "bare"],
}
_READS = {
    "butterfly": {"format", "qmax", "iota", "tol_band"},
    "effective": {"format", "delta", "band", "iota", "tol_band", "units"},
    "two-band": {"format", "delta", "band", "iota", "tol_band", "units"},
    "sapt": {"format", "band"},
    "oracle-compare": {"format", "delta", "band", "iota"},
}


@pytest.mark.parametrize("flag", sorted(_FLAG_ARGV))
@pytest.mark.parametrize("command", sorted(_READS))
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, command,
                                                    flag):
    argv = [command, "--config", _write_cfg(tmp_path)] + _FLAG_ARGV[flag]
    if flag in _READS[command]:
        _check_flags(_parser().parse_args(argv))
        return
    assert main(argv) == 2
    name = "--" + flag.replace("_", "-")
    assert capsys.readouterr().err == f"config error: {command} does not read {name}\n"


@pytest.mark.parametrize("argv, err", [
    (["sapt", "--delta", "1/7", "--iota", "1"],
     "sapt does not read --delta, --iota"),
    (["sapt", "--format", "csv"], "sapt writes JSON only, got --format csv"),
    (["oracle-compare", "--format", "csv"],
     "oracle-compare writes JSON only, got --format csv"),
])
def test_several_unread_flags_and_csv_for_json_commands_exit_2(tmp_path, capsys,
                                                               argv, err):
    assert main(argv + ["--config", _write_cfg(tmp_path)]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"


def test_flag_defaults_apply_when_not_given(tmp_path):
    args = _parser().parse_args(["effective", "--config", "cfg.json"])
    _check_flags(args)
    assert (args.format, args.units) == ("csv", "cyclotron")
    # sapt writes the same JSON with and without --format json
    path = _write_cfg(tmp_path, {"order": 2})
    outs = [tmp_path / "plain.json", tmp_path / "json.json"]
    for out, extra in zip(outs, ([], ["--format", "json"])):
        assert main(["sapt", "--config", path, "--out", str(out)] + extra) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


_A1_COS = {"A1": [[0, 1, 0.5, 0.0], [0, -1, 0.5, 0.0]]}


@pytest.mark.parametrize("extra", [{}, _A1_COS],
                         ids=["parity-sectors", "whole-space"])
def test_oracle_compare_never_calls_superlu(tmp_path, monkeypatch, extra):
    # every sector is factored banded: SuperLU, which eigsh would call
    # through its own splu for a shift without OPinv, is never reached
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("SuperLU was called")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
    monkeypatch.setattr(sys.modules[scipy.sparse.linalg.eigsh.__module__],
                        "splu", refuse)
    path = _write_cfg(tmp_path, {**extra, "n_max": 12})
    out = tmp_path / "oc.json"
    assert main(["oracle-compare", "--config", path, "--delta", "1/16,1/31",
                 "--out", str(out)]) == 0
    assert [len(e["oracle_band"]) for e in json.loads(out.read_text())] \
        == [16, 31]


def test_oracle_compare_exits_3_on_a_zero_pivot(tmp_path, monkeypatch,
                                                capsys):
    # with no shift offset the V = 0 sector minus its level is exactly
    # singular, and the numeric failure reaches the exit code
    monkeypatch.setattr(oracle, "_SHIFT_OFFSET", 0.0)
    path = _write_cfg(tmp_path, {"V": [], "n_max": 6, "guard": 0})
    assert main(["oracle-compare", "--config", path, "--delta", "1/16",
                 "--out", str(tmp_path / "oc.json")]) == 3
    assert "singular" in capsys.readouterr().err


def _dump_json_recursive(obj, indent: int = 0) -> str:
    """The report writer as it was: one recursive call per value."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in obj:
            items.append(f'{pad}  {json.dumps(str(k))}: '
                         f'{_dump_json_recursive(obj[k], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_dump_json_recursive(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _as_lists(obj):
    """``obj`` with every numpy array replaced by its ``tolist()``, the form
    :func:`_dump_json_recursive` reads."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_as_lists(v) for v in obj)
    return obj


_json_floats = st.one_of(
    st.floats(), st.floats(width=32).map(np.float32),
    st.floats().map(np.float64), st.sampled_from([0.0, -0.0, 1e-300, 1e300]))


@st.composite
def _float_arrays(draw):
    """float64 arrays of one or two dimensions, as rows drawn from a small
    pool, so rows repeat; each pool row has a twin with the sign of every
    zero flipped, so some rows differ only in -0.0 against 0.0."""
    cols = draw(st.integers(0, 4))
    entries = st.one_of(st.floats(), st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf]))
    pool = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=1, max_size=3))
    pool += [[-x if x == 0 else x for x in row] for row in pool]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    arr = np.array([pool[i] for i in picks],
                   dtype=np.float64).reshape(len(picks), cols)
    shape = draw(st.sampled_from(["rows", "columns", "flat"]))
    if shape == "columns":
        return arr.T  # not C-contiguous
    if shape == "flat":
        return arr.ravel()
    return arr


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 62, 2 ** 62).map(np.int64),
    st.text(max_size=5), _json_floats, _float_arrays())
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.lists(_json_floats, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner,
                        max_size=4)),
    max_leaves=30)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_report_writer_matches_recursive_writer(obj):
    assert _dump_json(obj) == _dump_json_recursive(_as_lists(obj))


@given(_float_arrays())
@settings(max_examples=300, deadline=None)
def test_float_array_writer_matches_recursive_writer(arr):
    assert _dump_json(arr) == _dump_json_recursive(arr.tolist())


@pytest.mark.parametrize("arr", [
    np.array([[1.5, -2.0, 3e-300]]),                       # a single row
    np.array([[1.5], [-0.0], [1.5]]),                      # a single column
    np.array([[0.1, 0.2], [0.3, 0.4], [0.1, 0.2], [0.1, 0.2]]),
    np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]]),
    np.array([[math.nan, math.inf], [-math.inf, math.nan], [math.nan, math.inf]]),
    np.array([0.0, -0.0, math.nan, 1 / 3]),
    np.empty((0, 3)), np.empty((2, 0)), np.empty(0),
], ids=["one-row", "one-column", "repeated-rows", "signed-zero-rows",
        "nan-inf", "flat", "no-rows", "no-columns", "empty-flat"])
def test_float_array_writer_cases(arr):
    for obj in (arr, {"samples": arr}, [[arr]]):
        assert _dump_json(obj) == _dump_json_recursive(_as_lists(obj))


def test_report_writer_on_a_report_shape():
    obj = [{"p": 1, "q": np.int64(7), "theta": 1 / 7, "ok": True, "none": None,
            "name": "lapack-banded", "empty": [], "nothing": {},
            "bands": [[-1.5, np.float64(0.25)], [np.float32(0.1), 2.0]],
            "samples": [[0.1, -0.0, 1e-17], [float("nan"), float("inf"), 3.0]],
            "array": np.array([[0.1, -0.0], [0.1, -0.0], [0.1, 0.0]]),
            "mixed": [1, 2.5, True, None, "x", np.float64(4.0)],
            "nested": {"a": {"b": [[]], "c": ()}}}]
    assert _dump_json(obj) == _dump_json_recursive(_as_lists(obj))


def _old_report_json(reports) -> str:
    """The JSON spectrum report as it was written: samples as lists of
    ``float``, through the recursive writer."""
    return _dump_json_recursive([{
        "p": rep.flux.p, "q": rep.flux.q, "theta": rep.flux.theta,
        "bands": [[lo, hi] for lo, hi in rep.bands],
        "samples": [[float(e) for e in row] for row in rep.samples],
        "metadata": {k: rep.metadata[k] for k in sorted(rep.metadata)},
    } for rep in reports]) + "\n"


def _old_report_rows(reports) -> str:
    """The CSV spectrum report as it was written: one f-string per row."""
    def fmt(x):
        return format(float(x), ".17g")
    lines = ["p,q,theta,band_index,E_min,E_max"]
    for rep in reports:
        for k, (lo, hi) in enumerate(rep.bands):
            lines.append(f"{rep.flux.p},{rep.flux.q},{fmt(rep.flux.theta)},"
                         f"{k},{fmt(lo)},{fmt(hi)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, units", [
    ("two-band", "cyclotron"), ("two-band", "bare"),
    ("effective", "cyclotron"), ("effective", "bare")])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reports_keep_the_old_bytes_when_rows_repeat(tmp_path, monkeypatch,
                                                     command, units, fmt):
    # with A1 on (0, +-1) at 1/50 on a 16 x 16 grid, the orbit copies and the
    # beta2-independence leave two-band 9 distinct sample rows of 256
    seen = []
    reports_text = cli._reports_text

    def spy(reports, args):
        seen.append(reports)
        return reports_text(reports, args)

    monkeypatch.setattr(cli, "_reports_text", spy)
    path = _write_cfg(tmp_path, {**_A1_COS, "grid": [16, 16]})
    out = tmp_path / f"out.{fmt}"
    assert main([command, "--config", path, "--delta", "1/50", "--units",
                 units, "--format", fmt, "--out", str(out)]) == 0
    [reports] = seen
    if command == "two-band":
        [rep] = reports
        assert rep.samples.shape == (256, 100)
        assert len({row.tobytes() for row in rep.samples}) == 9
    got = out.read_text()
    want = (_old_report_json if fmt == "json" else _old_report_rows)(reports)
    _assert_same_bytes(got, want)


@pytest.mark.parametrize("argv, extra", [
    (["sapt", "--band", "0,1"], _A1_COS),
    (["sapt", "--band", "0,1"], {**_A1_COS, "order": 8}),
    (["butterfly", "--qmax", "12"], _A1_COS),
    (["effective", "--delta", "1/50,1/127", "--format", "json"], _A1_COS),
    (["two-band", "--delta", "1/50,1/127", "--format", "json"], _A1_COS),
    (["oracle-compare", "--delta", "1/16,1/31,1/48"], _A1_COS),
    (["oracle-compare", "--delta", "1/16,1/31,1/48"], {}),
    (["oracle-compare", "--delta", "1/4,1/5,1/8"], _SMALL_SECTORS),
    (["oracle-compare", "--delta", "3/8,7/16"], {}),
], ids=["sapt", "sapt-order-8", "butterfly", "effective", "two-band",
        "oracle-compare", "oracle-compare-parity-split",
        "oracle-compare-small-sectors", "oracle-compare-wide-shift"])
def test_outputs_identical_under_one_and_two_blas_threads(tmp_path, argv,
                                                          extra):
    # byte-identical outputs hold within one BLAS configuration; these
    # commands keep them across one and two OpenBLAS threads as well (the
    # oracle's symbol is reflection-even, so its cluster is solved real;
    # with A1 = cos 2 pi x it misses the inversion rule and is solved in the
    # whole space, with Harper V alone in its two parity sectors, also at
    # the wide slow shifts of 3/8 and 7/16, and with two Fock states some
    # sectors are solved dense; sapt also at the benchmark's order 8)
    path = _write_cfg(tmp_path, {"grid": [16, 16], "order": 6, **extra})
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = tmp_path / f"out-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "magbloch", argv[0], "--config", path,
             *argv[1:], "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    _assert_same_bytes(*outputs)
