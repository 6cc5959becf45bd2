"""Command-line interface: outputs, verdicts, exit codes, determinism."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poncelet
from poncelet.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PROPERTY,
    _emit_json,
    build_parser,
    main,
)


def run(tmp_path, *argv):
    out = tmp_path / "out.dat"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# -------------------------------------------------------------------- orbit

def test_orbit_triangle_returns_to_start(tmp_path):
    code, out = run(tmp_path, "orbit", "--R", "1", "--c", "0",
                    "--t", "0.5", "--steps", "3")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 4
    d = abs(float(rows[3]["theta"]) - float(rows[0]["theta"]))
    assert min(d % (2 * math.pi), 2 * math.pi - d % (2 * math.pi)) < 1e-10


def test_orbit_diameter_period_two(tmp_path):
    code, out = run(tmp_path, "orbit", "--t", "0", "--steps", "2",
                    "--theta0", "0.7")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert float(rows[2]["theta"]) == pytest.approx(0.7, abs=1e-12)


def test_orbit_rows_stay_consistent(tmp_path):
    code, out = run(tmp_path, "orbit", "--R", "1", "--c", "0.3",
                    "--t", "0.2", "--steps", "100")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 101
    assert all(float(r["residual"]) < 1e-9 for r in rows)


def test_orbit_at_the_largest_radii_stays_consistent(tmp_path):
    # the tangent construction runs in units of R: in absolute units its
    # chord length reached 2R and overflowed, and the residual was 0.93 rad
    code, out = run(tmp_path, "orbit", "--R", "1e308", "--c", "3e307",
                    "--t", "2e307", "--theta0", "1", "--steps", "200")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 201
    assert max(float(r["residual"]) for r in rows) < 1e-12


def test_orbit_json_embeds_config(tmp_path):
    code, out = run(tmp_path, "orbit", "--t", "0.4", "--steps", "5",
                    "--format", "json")
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["config"]["t"] == 0.4
    assert "version" in doc["config"]
    assert len(doc["rows"]) == 6


def test_orbit_rejects_bad_geometry(tmp_path):
    code, _ = run(tmp_path, "orbit", "--t", "2.0")
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------- staircase

def test_staircase_concentric_matches_arccos(tmp_path):
    code, out = run(tmp_path, "staircase", "--family", "poncelet",
                    "--c", "0", "--points", "101")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert len(rows) == 101
    for row in rows:
        t, r = float(row["t"]), float(row["r"])
        err = float(row["error_radius"])
        assert abs(r - math.acos(t) / math.pi) <= err + 1e-9
    verdict = read_json(str(out) + ".verdict.json")
    assert verdict["monotone_ok"]
    assert verdict["direction"] == "decreasing"


def test_staircase_arnold_flags_plateau_locks(tmp_path):
    code, out = run(tmp_path, "staircase", "--family", "arnold",
                    "--K", "0.8", "--t-min", "0.4", "--t-max", "0.6",
                    "--points", "11")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert any(row["lock_p"] == "1" and row["lock_q"] == "2" for row in rows)


def test_staircase_inside_one_tongue_is_flat_and_monotone(tmp_path):
    # every point of [0.47, 0.53] at K = 0.9 locks at 1/2: equal ends and
    # equal steps, so the flat staircase passes
    code, out = run(tmp_path, "staircase", "--family", "arnold",
                    "--K", "0.9", "--t-min", "0.47", "--t-max", "0.53",
                    "--points", "7")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert {(row["lock_p"], row["lock_q"]) for row in rows} == {("1", "2")}
    assert read_json(str(out) + ".verdict.json") == {
        "direction": "flat", "monotone_ok": True, "violations": []}


@pytest.mark.parametrize("c", ["0.2", "0.3", "0.9"])
def test_staircase_ends_at_zero_at_tangency(tmp_path, c):
    code, out = run(tmp_path, "staircase", "--c", c, "--points", "11")
    assert code == EXIT_OK
    last = read_csv(out)[-1]
    assert float(last["r"]) == 0.0
    assert float(last["error_radius"]) == 0.0
    assert (last["lock_p"], last["lock_q"]) == ("0", "1")


@pytest.mark.parametrize("argv, want", [
    # concentric circles (the default c = 0) iterate the kernel step as the
    # rotation x + step(0), to the general step's bits: the midpoint locks
    # at 1/3, with r = arccos(1/2)/pi
    (["--points", "3"], ["0,0.5,0,1,2", "0.5,0.33333333333333331,0,1,3",
                         "1,0,0,0,1"]),
    # the kernel step works in units of R: at R = 1e-200 the grid's first
    # point t = 0 still locks at 1/2
    (["--points", "3", "--R", "1e-200", "--c", "5e-201"],
     ["0,0.5,0,1,2", "4.9999999999999999e-201,0,0,0,1"]),
    # the devil's-staircase lock path: five of the nine Arnold points lock,
    # each certified after the first 64-step chunk
    (["--family", "arnold", "--K", "0.9", "--points", "9"],
     ["0,0,0,0,1", "0.125,0,0,0,1", "0.5,0.5,0,1,2", "0.875,1,0,1,1",
      "1,1,0,1,1"]),
    # the grid scales its width into [1/2, 1) and back: (t_hi - t_lo) * i
    # overflowed at R = 1e308
    (["--points", "3", "--R", "1e308"],
     ["0,0.5,0,1,2", "5.0000000000000001e+307,0.33333333333333331,0,1,3",
      "1e+308,0,0,0,1"]),
], ids=["concentric", "R-1e-200", "arnold-K-0.9", "R-1e308"])
def test_staircase_grid_reaches_the_largest_radii(capsys, argv, want):
    # each row is t, r, error_radius, lock_p, lock_q; want holds the locks
    code = main(["staircase", *argv])
    assert code == EXIT_OK
    table = capsys.readouterr().out.partition("{")[0]
    assert set(want) <= set(table.split("\r\n")[1:])


def test_staircase_json_holds_rows_and_verdict(tmp_path):
    code, out = run(tmp_path, "staircase", "--family", "rigid",
                    "--points", "5", "--format", "json")
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["config"]["format"] == "json"
    assert [row["t"] for row in doc["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]
    for row in doc["rows"]:
        assert abs(row["r"] - row["t"]) <= row["error_radius"]
    assert doc["verdict"] == {"direction": "increasing",
                              "monotone_ok": True, "violations": []}
    assert not Path(str(out) + ".verdict.json").exists()


def test_staircase_without_out_writes_csv_then_verdict(capsys):
    code = main(["staircase", "--family", "rigid", "--points", "3"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    table, _, verdict = text.partition("{")
    rows = list(csv.DictReader(io.StringIO(table)))
    assert [float(row["t"]) for row in rows] == [0.0, 0.5, 1.0]
    assert json.loads("{" + verdict) == {
        "direction": "increasing", "monotone_ok": True, "violations": []}


@pytest.mark.parametrize("argv", [
    ["orbit", "--c", "0.3", "--t", "0.2", "--theta0", "1.3", "--steps", "40"],
    ["orbit", "--t", "0", "--steps", "3"],
    ["staircase", "--family", "arnold", "--K", "0.8", "--t-min", "0.3",
     "--t-max", "0.7", "--points", "13"],
    ["staircase", "--c", "0.3", "--points", "9"],
    # tol below the first bracket's radius: the orbit-doubling path
    ["staircase", "--points", "5", "--tol", "1e-7"],
], ids=["orbit", "orbit-diameter", "staircase-arnold", "staircase-poncelet",
        "staircase-tol-1e-7"])
def test_csv_and_json_tables_hold_the_same_numbers(tmp_path, argv):
    # one writer prints both formats: every CSV cell is the JSON cell's
    # float to the bit, its int, or its string (an empty lock)
    csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
    assert main(argv + ["--out", str(csv_out)]) == EXIT_OK
    assert main(argv + ["--out", str(json_out), "--format", "json"]) == EXIT_OK
    doc = read_json(json_out)
    rows = read_csv(csv_out)
    assert len(rows) == len(doc["rows"]) > 1
    for row, want in zip(rows, doc["rows"]):
        assert set(row) == set(want)
        for key, cell in row.items():
            value = want[key]
            if isinstance(value, float):
                assert float(cell).hex() == value.hex()
            elif isinstance(value, int):
                assert int(cell) == value
            else:
                assert cell == value
    if argv[0] == "staircase":
        assert read_json(str(csv_out) + ".verdict.json") == doc["verdict"]


def test_staircase_rejects_inverted_grid(tmp_path):
    code, _ = run(tmp_path, "staircase", "--t-min", "0.9", "--t-max", "0.1")
    assert code == EXIT_CONFIG


# -------------------------------------------------------------------- count

def test_count_concentric_range(tmp_path):
    code, out = run(tmp_path, "count", "--n-min", "3", "--n-max", "5",
                    "--c", "0")
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["all_ok"]
    by_n = {r["n"]: r for r in doc["results"]}
    assert by_n[3]["pairs"][0]["t"] == pytest.approx(0.5, abs=1e-10)
    assert by_n[4]["expected"] == 1
    assert by_n[4]["pairs"][0]["t"] == pytest.approx(math.cos(math.pi / 4.0),
                                                    abs=1e-10)
    assert by_n[5]["count"] == 2


def test_count_offcenter_heptagon(tmp_path):
    code, out = run(tmp_path, "count", "--n-min", "7", "--n-max", "7",
                    "--c", "0.3")
    assert code == EXIT_OK
    doc = read_json(out)
    result = doc["results"][0]
    assert result["expected"] == 3 and result["ok"]
    assert all(p["closure_residual"] < 1e-8 for p in result["pairs"])


def test_count_config_lists_only_what_it_reads(tmp_path):
    code, out = run(tmp_path, "count", "--n-min", "3", "--n-max", "3",
                    "--seed", "5")
    assert code == EXIT_OK
    assert set(read_json(out)["config"]) == {
        "R", "c", "command", "n_max", "n_min", "seed", "version"}


@pytest.mark.parametrize("argv", [
    ["orbit", "--t", "0.3", "--seed", "1"],
    ["orbit", "--t", "0.3", "--tol", "1e-3"],
    ["staircase", "--seed", "1"],
    ["count", "--format", "csv"],
    ["count", "--tol", "5"],
    ["count", "--tol-t", "1e-9"],
    ["cf", "--x", "golden", "--format", "csv"],
    ["cf", "--x", "golden", "--tol", "1e-3"],
    ["prop2", "--family", "rigid", "--format", "csv"],
    ["prop2", "--family", "rigid", "--seed", "1"],
])
def test_subcommands_reject_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


# dest -> (default, type, choices) of each subcommand's options: the
# parent parsers that declare --R, --c, --out and --format once must give
# each subcommand exactly these, so its embedded config stays the same
CSV_JSON = ["csv", "json"]
FAMILIES = ["poncelet", "arnold", "rigid"]
OPTIONS = {
    "orbit": {
        "R": (1.0, float, None), "c": (0.0, float, None),
        "t": (None, float, None), "theta0": (0.0, float, None),
        "steps": (100, int, None), "out": (None, None, None),
        "format": ("csv", None, CSV_JSON)},
    "staircase": {
        "family": ("poncelet", None, FAMILIES), "R": (1.0, float, None),
        "c": (0.0, float, None), "K": (0.8, float, None),
        "t_min": (None, float, None), "t_max": (None, float, None),
        "points": (101, int, None), "out": (None, None, None),
        "format": ("csv", None, CSV_JSON), "tol": (1e-4, float, None)},
    "count": {
        "n_min": (3, int, None), "n_max": (12, int, None),
        "R": (1.0, float, None), "c": (0.0, float, None),
        "out": (None, None, None), "seed": (0, int, None)},
    "cf": {
        "x": (None, None, None), "random": (None, int, None),
        "eps": (0.5, float, None), "n_max": (25, int, None),
        "out": (None, None, None), "seed": (0, int, None)},
    "prop2": {
        "family": ("arnold", None, FAMILIES), "R": (1.0, float, None),
        "c": (0.0, float, None), "K": (0.7, float, None),
        "tau": (None, float, None), "out": (None, None, None),
        "tol": (1e-5, float, None)},
}


def test_each_subcommand_declares_exactly_its_options():
    (sub,) = [action for action in build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    assert list(sub.choices) == list(OPTIONS)
    for name, parser in sub.choices.items():
        got = {a.dest: (a.default, a.type, a.choices)
               for a in parser._actions if a.dest != "help"}
        assert got == OPTIONS[name], name
        required = [a.dest for a in parser._actions if a.required]
        assert required == (["t"] if name == "orbit" else []), name


# ----------------------------------------------------------------------- cf

def test_cf_golden(tmp_path):
    code, out = run(tmp_path, "cf", "--x", "golden")
    assert code == EXIT_OK
    doc = read_json(out)
    report = doc["reports"][0]
    assert all(a == 1 for a in report["quotients"])
    assert report["convergents"][10][1] == "89"
    assert doc["total_bound_violations"] == 0
    assert doc["F"] == pytest.approx(3.3598856662431764, abs=1e-14)


def test_cf_exact_rational(tmp_path):
    code, out = run(tmp_path, "cf", "--x", "355/113")
    assert code == EXIT_OK
    report = read_json(out)["reports"][0]
    assert report["a0"] == 3
    assert report["quotients"] == [7, 16]
    assert report["exact"]


def test_cf_long_exact_rational_expands_to_the_end(tmp_path):
    # F_70 / F_71: 70 partial quotients, more than any float certifies
    code, out = run(tmp_path, "cf", "--x", "308061521170129/498454011879264")
    assert code == EXIT_OK
    report = read_json(out)["reports"][0]
    assert report["quotients"] == [1] * 69 + [2]
    assert report["convergents"][-1] == ["308061521170129", "498454011879264"]
    assert report["exact"]


def test_cf_random_batch_respects_bound(tmp_path):
    code, out = run(tmp_path, "cf", "--random", "20", "--seed", "7")
    assert code == EXIT_OK
    doc = read_json(out)
    assert len(doc["reports"]) == 20
    assert doc["total_bound_violations"] == 0


def test_cf_reports_an_uncertified_integer_part(tmp_path):
    # the float's +-4 ulp interval straddles 1, so not even a0 is certain;
    # the report says so and the run still succeeds
    code, out = run(tmp_path, "cf", "--x", "0.9999999999999999")
    assert code == EXIT_OK
    doc = read_json(out)
    (report,) = doc["reports"]
    assert report == {"input": "0.9999999999999999",
                      "error": "integer part not determined"}
    assert doc["total_bound_violations"] == 0


def test_cf_requires_exactly_one_input(tmp_path):
    code, _ = run(tmp_path, "cf")
    assert code == EXIT_CONFIG
    code, _ = run(tmp_path, "cf", "--x", "0.5", "--random", "3")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("argv", [["cf", "--x", "-3/7"],
                                  ["orbit", "--t", "0.3", "--theta0", "-1e-3"]])
def test_negative_values_need_the_equals_form(tmp_path, capsys, argv):
    # argparse reads a separate -3/7 or -1e-3 as an option; the help of
    # --x and --theta0 says to write --x=-3/7
    with pytest.raises(SystemExit) as exit_info:
        run(tmp_path, *argv)
    assert exit_info.value.code == EXIT_CONFIG
    assert "expected one argument" in capsys.readouterr().err
    code, out = run(tmp_path, *argv[:-2], "=".join(argv[-2:]))
    assert code == EXIT_OK
    if argv[0] == "cf":
        (report,) = read_json(out)["reports"]
        assert report["a0"] == -1 and report["quotients"] == [1, 1, 3]
    else:
        theta = float(read_csv(out)[0]["theta"])
        assert theta == pytest.approx(2.0 * math.pi - 1e-3, abs=1e-15)


# -------------------------------------------------------------------- prop2

def test_prop2_rigid_passes(tmp_path):
    code, out = run(tmp_path, "prop2", "--family", "rigid")
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["status"] == "ok" and doc["pass"]
    assert doc["best_ratio"] >= doc["bound"]


def test_prop2_locked_tau_is_inapplicable(tmp_path):
    code, out = run(tmp_path, "prop2", "--family", "arnold", "--K", "0.8",
                    "--tau", "0.5")
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["status"] == "inapplicable"
    assert doc["pass"] is None


def test_prop2_poncelet_passes(tmp_path):
    # the reversed family at the golden-mean value inside r in [0, 1/2]
    code, out = run(tmp_path, "prop2", "--family", "poncelet", "--tol", "1e-3")
    assert code == EXIT_OK
    doc = read_json(out)
    assert doc["status"] == "ok" and doc["pass"] is True


@pytest.mark.parametrize("argv, brackets", [
    (["--family", "arnold"], 12),
    (["--family", "rigid"], 11),
    (["--family", "poncelet"], 12),
    (["--family", "poncelet", "--c", "0.3"], 9),
], ids=["arnold", "rigid", "poncelet", "poncelet-c-0.3"])
def test_prop2_brackets_each_pair_once(tmp_path, argv, brackets):
    # deltas that choose the same convergent pair would solve to the same
    # t1 and t2: the pair is bracketed once (rigid and c = 0.3 had one
    # bracket twice)
    code, out = run(tmp_path, "prop2", *argv)
    assert code == EXIT_OK
    pairs = [(t1, t2) for t1, t2, _ in read_json(out)["brackets"]]
    assert len(set(pairs)) == len(pairs) == brackets


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_prop2_without_brackets_is_inapplicable_strict_json(tmp_path):
    # near tangency no delta admits a balanced pair: nothing is tested, so
    # the status says so, best_ratio is null (not -Infinity) and exit is 0
    code, out = run(tmp_path, "prop2", "--family", "poncelet",
                    "--c", "0.9999")
    assert code == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"),
                     parse_constant=_reject_constant)
    assert doc["status"] == "no-brackets"
    assert doc["brackets"] == []
    assert doc["best_ratio"] is None and doc["pass"] is None
    assert math.isfinite(doc["bound"]) and math.isfinite(doc["margin"])


def test_json_output_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        _emit_json({"x": math.inf}, str(tmp_path / "x.json"))


@pytest.fixture(scope="module")
def prop2_at_unit_radius(tmp_path_factory):
    code, out = run(tmp_path_factory.mktemp("unit"), "prop2",
                    "--family", "poncelet")
    assert code == EXIT_OK
    return read_json(out)


@pytest.mark.parametrize("R", [
    pytest.param(0.5, id="0.5"), pytest.param(2.0, id="2"),
    pytest.param(2.0 ** 500, id="2^500"),
    pytest.param(2.0 ** -500, id="2^-500"),
    pytest.param(1e150, id="1e150"), pytest.param(1e-160, id="1e-160"),
    pytest.param(1e-170, id="1e-170"),
    pytest.param(2.0 ** -1020, id="2^-1020"),
    pytest.param(sys.float_info.max, id="float-max"),
])
def test_prop2_poncelet_does_not_depend_on_the_scale(tmp_path, R,
                                                     prop2_at_unit_radius):
    # the estimate works in units of the interval width w = R - c: a power
    # of two scales every t exactly, so the report is R = 1's to the bit;
    # elsewhere t / w rounds.  In absolute units of t, 1e150 found no
    # bracket, 1e-160 an infinite bound and 1e-170 underflowed.  The
    # bracketed solves scale their ends, so 2^-1020 does not crawl one
    # float per step, and the search's midpoints halve each end, so the
    # float maximum does not overflow.
    code, out = run(tmp_path, "prop2", "--family", "poncelet", "--R", repr(R))
    assert code == EXIT_OK
    doc = read_json(out)
    unit = prop2_at_unit_radius
    assert doc["status"] == "ok" and doc["pass"] is True
    assert len(doc["brackets"]) == len(unit["brackets"]) == 12
    keys = ("best_ratio", "bound", "margin")
    if math.frexp(R)[0] == 0.5:
        assert [doc[k] for k in keys] == [unit[k] for k in keys]
        assert [[t1 / R, t2 / R, q] for t1, t2, q in doc["brackets"]] \
            == unit["brackets"]
    else:
        for k in keys:
            assert doc[k] == pytest.approx(unit[k], rel=1e-10)


# -------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv", [
    ["staircase", "--points", "0"],
    ["staircase", "--points", "1"],
    ["cf", "--x", "inf"],
    ["cf", "--x", "nan"],
    ["orbit", "--t", "0.3", "--steps", "-1"],
    ["count", "--n-min", "6", "--n-max", "4"],
    ["cf", "--random", "-3"],
    ["cf", "--random", "0"],
    ["staircase", "--tol", "nan", "--points", "3"],
    ["staircase", "--tol", "inf", "--points", "3"],
    ["cf", "--x", "1/0"],
    ["cf", "--x", "0/0"],
    ["orbit", "--t", "0.3", "--theta0", "nan"],
    ["orbit", "--t", "0.3", "--theta0", "inf"],
    ["count", "--R", "inf"],
    ["cf", "--x", "0.3", "--n-max", "0"],
    ["cf", "--x", "0.3", "--n-max", "-1"],
    # tol below the float bracket's floor (at c = 0 all three points lock)
    ["staircase", "--tol", "1e-12", "--points", "3", "--c", "0.2"],
    # n above MAX_STEPS = 2^20: each residual would run n steps, and an
    # --n-max above it is rejected before the smaller n are counted
    ["count", "--n-min", "1048577", "--n-max", "1048577"],
    ["count", "--n-min", "3", "--n-max", "1048577"],
    # a subnormal R: c / R and t / R keep few bits, and 1 / R overflows
    ["count", "--n-max", "5", "--R", "1e-320"],
    ["prop2", "--family", "poncelet", "--R", "1e-310"],
    # near internal tangency the orbit's 2048-step floors at t_max
    # contradict each other: no interval holds r
    ["staircase", "--c", "0.9999999829281154", "--t-min", "1.7e-08",
     "--t-max", "1.7071884572666742e-08", "--points", "2"],
])
def test_invalid_input_exits_config(tmp_path, capsys, argv):
    code, out = run(tmp_path, *argv)
    assert code == EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tau", ["1e-17", "1e-20"])
def test_prop2_infinite_margin_exits_ok_strict_json(tmp_path, tau):
    # at c = 0 every t of the margin grid rounds to R, where dg/dt is
    # infinite: the margin and bound are written as null, and r(tau) locks
    # at 0/1, so nothing is tested
    code, out = run(tmp_path, "prop2", "--family", "poncelet", "--tau", tau)
    assert code == EXIT_OK
    doc = json.loads(out.read_text(encoding="utf-8"),
                     parse_constant=_reject_constant)
    assert doc["status"] == "inapplicable" and doc["pass"] is None
    assert doc["margin"] is None and doc["bound"] is None


def test_count_unclosed_pair_exits_property(tmp_path):
    # p = 1, n = 12 at c = 0.6 sits within 1e-9 of internal tangency and
    # closes only to 4.55e-8 rad against the 1e-8 gate; the other n keep
    # their results
    code, out = run(tmp_path, "count", "--n-min", "3", "--n-max", "12",
                    "--c", "0.6", "--seed", "5")
    assert code == EXIT_PROPERTY
    results = read_json(out)["results"]
    assert [r["n"] for r in results if r["ok"]] == list(range(3, 12))
    assert all(r["missing"] == [] for r in results[:-1])
    (missing,) = results[-1]["missing"]
    assert missing["p"] == 1
    assert missing["reason"].startswith("orbit failed to close after 12 steps")


def fresh_env():
    """The environment of a fresh process that imports the same package as
    this test run."""
    src = Path(poncelet.__file__).parent.parent
    return dict(os.environ, PYTHONPATH=str(src))


def cli_process(cwd, argv, hash_seed):
    """A fresh `python -m poncelet.cli ARGV` under PYTHONHASHSEED=hash_seed,
    stopped after 60 s, so a slow input fails rather than hangs."""
    return subprocess.run([sys.executable, "-m", "poncelet.cli", *argv],
                          env=dict(fresh_env(), PYTHONHASHSEED=hash_seed),
                          cwd=cwd, capture_output=True, timeout=60)


# the pair count runs on its family's scalar step, closure's seeded starts
# included, and every pair is certified; prop2 runs the parameter search
@pytest.mark.parametrize("argv", [
    ["orbit", "--c", "0.3", "--t", "0.2", "--theta0", "1.3", "--steps",
     "1000"],
    ["count", "--n-max", "8", "--c", "0.3", "--seed", "5"],
    ["count", "--n-max", "8", "--seed", "5"],
    ["prop2", "--family", "arnold", "--K", "0.7"],
    ["prop2", "--family", "poncelet"],
], ids=["orbit", "count-c-0.3", "count-c-0", "prop2-arnold", "prop2-poncelet"])
def test_output_is_the_same_bytes_in_two_processes(tmp_path, argv):
    # the processes hash strings with different seeds, so a set's iteration
    # order that reached the output would differ between some two of them:
    # seeds 1 and 2 order {"0.1.0", "dev"} alike, seed 3 the other way
    first, *others = (cli_process(tmp_path, argv, seed) for seed in "123")
    for other in others:
        assert first.returncode == other.returncode == EXIT_OK
        assert first.stdout == other.stdout
    if argv[0] == "count":
        assert b'"all_ok": true' in first.stdout


@pytest.mark.parametrize("argv", [
    ["staircase", "--points", "3", "--c", "0.9999999999999"],
    ["prop2", "--family", "poncelet", "--c", "0.9999999999999"],
    ["count", "--n-max", "5", "--c", "0.9999999999999"],
], ids=["staircase", "prop2", "count"])
def test_a_lift_too_close_to_tangency_exits_config(tmp_path, argv):
    # R - c = 1e-13 is below the Poncelet lift's bound 2^-42 R, which its
    # constructor checks, and `poncelet_family` builds one up front, so the
    # pair count, which iterates the family's loop, refuses the pair too
    # instead of reporting its pairs as closure failures; the message
    # names R and c, with no traceback
    proc = cli_process(tmp_path, argv, "1")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr == (b"error: Poncelet lift needs R - c >= 2**-42 R, "
                           b"got R=1.0, c=0.9999999999999\n")


@pytest.mark.parametrize("argv, exit_code", [
    # tol below the float bracket's floor: the estimate gives up when a
    # doubling of the orbit leaves the bracket unchanged, or at MAX_STEPS
    (["staircase", "--points", "3", "--c", "0.2", "--tol", "1e-12"],
     EXIT_CONFIG),
    # R = 2^-1020: the bracketed solves scale their ends by a power of two,
    # so they do not crawl one float per step
    (["prop2", "--family", "poncelet", "--R", "8.900295434028806e-308"],
     EXIT_OK),
], ids=["staircase-tol-1e-12", "prop2-R-2^-1020"])
def test_slow_inputs_end_within_a_minute(tmp_path, argv, exit_code):
    assert cli_process(tmp_path, argv, "1").returncode == exit_code


def test_cli_imports_only_numpy_and_the_standard_library():
    # numpy is loaded by the commands that iterate lifts, not by the import
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import poncelet.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(' '.join(sorted(new - set(sys.stdlib_module_names))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          env=fresh_env(), capture_output=True, text=True)
    third_party = {m for m in proc.stdout.split()
                   if not m.startswith("_sysconfigdata")}  # stdlib, per platform
    assert third_party == {"poncelet"}


def imported_modules(cwd, *args):
    """Exit code and the modules a fresh `python -X importtime ARGS`
    imports, read off the import log it writes on stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=fresh_env(), cwd=cwd, capture_output=True,
                          text=True)
    return proc.returncode, {line.rsplit("|", 1)[1].strip()
                             for line in proc.stderr.splitlines()
                             if line.startswith("import time:")}


# count iterates its family's math step one float at a time; only the
# array paths (the estimator's tables, staircase and prop2) load numpy
@pytest.mark.parametrize("argv, exit_code, loads_numpy", [
    (["orbit", "--t", "0.5", "--steps", "10"], EXIT_OK, False),
    (["cf", "--x", "golden"], EXIT_OK, False),
    (["staircase", "--points", "1"], EXIT_CONFIG, False),
    (["cf", "--x", "inf"], EXIT_CONFIG, False),
    (["count", "--n-max", "3"], EXIT_OK, False),
    (["count", "--n-max", "6", "--c", "0.3"], EXIT_OK, False),
    (["count", "--R", "1e-320"], EXIT_CONFIG, False),
    (["staircase", "--points", "3"], EXIT_OK, True),
], ids=["orbit", "cf-golden", "staircase-points-1", "cf-x-inf", "count",
        "count-c-0.3", "count-R-1e-320", "staircase"])
def test_commands_load_numpy_only_to_iterate_lifts(tmp_path, argv, exit_code,
                                                   loads_numpy):
    code, imported = imported_modules(tmp_path, "-m", "poncelet.cli", *argv)
    assert code == exit_code
    assert "poncelet.confrac" in imported  # the log holds the CLI's imports
    assert ("numpy" in imported) == loads_numpy


@pytest.fixture(scope="module")
def startup_modules(tmp_path_factory):
    """What the interpreter imports before any command: a `site` may load
    dataclasses or inspect itself."""
    return imported_modules(tmp_path_factory.mktemp("startup"), "-c", "")[1]


# the records are NamedTuple classes: importing dataclasses would cost
# ~10 ms a process, most of it for the inspect module it loads
@pytest.mark.parametrize("args, exit_code", [
    (["-c", "import poncelet.cli"], EXIT_OK),
    (["-m", "poncelet.cli", "orbit", "--t", "0.5", "--steps", "10"], EXIT_OK),
    (["-m", "poncelet.cli", "cf", "--random", "3"], EXIT_OK),
    (["-m", "poncelet.cli", "count", "--n-max", "3"], EXIT_OK),
    (["-m", "poncelet.cli", "count", "--n-max", "6", "--c", "0.3"], EXIT_OK),
    (["-m", "poncelet.cli", "count", "--R", "1e-320"], EXIT_CONFIG),
    (["-m", "poncelet.cli", "staircase", "--points", "1"], EXIT_CONFIG),
    (["-m", "poncelet.cli", "cf", "--x", "inf"], EXIT_CONFIG),
], ids=["import", "orbit", "cf", "count", "count-c-0.3", "count-R-1e-320",
        "staircase-points-1", "cf-x-inf"])
def test_commands_load_neither_dataclasses_nor_inspect(
        tmp_path, startup_modules, args, exit_code):
    code, imported = imported_modules(tmp_path, *args)
    assert code == exit_code
    assert "poncelet.confrac" in imported
    assert not {"dataclasses", "inspect"} & (imported - startup_modules)


@pytest.mark.parametrize("c", ["0.99999", "0.999999"])
def test_staircase_runs_near_tangency(tmp_path, c):
    # every lift's periodicity defect there is rounding times its slope
    code, out = run(tmp_path, "staircase", "--c", c, "--points", "5")
    assert code == EXIT_OK
    rows = read_csv(out)
    assert float(rows[0]["r"]) == 0.5
    assert (rows[-1]["lock_p"], rows[-1]["lock_q"]) == ("0", "1")
