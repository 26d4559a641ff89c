import argparse
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from contactcurves import analysis, cli, curves, discrete, families, reporting
from contactcurves.cli import (
    ConfigError,
    example_spec,
    load_curve_file,
    main,
    parse_range,
)

EXAMPLE_FILE = """\
# reference closed Legendre curve, n=2
n=2
sin(2*t)
-cos(2*t)   # second horizontal slot
0
0
1
"""


def run(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# reporting


def test_float_format():
    assert reporting.format_float(0.1) == "0.10000000000000001"
    assert reporting.format_float(-4.0) == "-4"
    assert reporting.format_float(1e-20) == "9.9999999999999995e-21"
    assert "e" in reporting.format_float(3.5e30)
    assert "E" not in reporting.format_float(3.5e30)
    with pytest.raises(reporting.ReportError, match="non-finite"):
        reporting.format_float(float("nan"))


def test_json_round_trip_and_types():
    payload = {
        "a": 0.1,
        "b": [1, 2.5, None, True, False],
        "c": {"nested": "text with \"quotes\" and\nnewline"},
        "d": np.float64(1.0 / 3.0),
        "e": np.int64(7),
        "f": np.bool_(True),
        "empty_list": [],
        "empty_dict": {},
    }
    text = reporting.to_json(payload)
    assert text.endswith("\n")
    back = json.loads(text)
    assert back["a"] == 0.1
    assert back["b"] == [1, 2.5, None, True, False]
    assert back["c"]["nested"] == 'text with "quotes" and\nnewline'
    assert back["d"] == 1.0 / 3.0
    assert back["e"] == 7
    assert back["f"] is True
    assert back["empty_list"] == [] and back["empty_dict"] == {}


def test_json_rejects_unknown_types():
    with pytest.raises(reporting.ReportError, match="cannot serialize"):
        reporting.to_json({"x": object()})
    with pytest.raises(reporting.ReportError, match="non-string key"):
        reporting.to_json({1: "x"})


def test_csv_quoting_and_width():
    text = reporting.to_csv(
        ["a", "b", "c"],
        [np.array([1, 2]), np.array(["plain", "needs, quoting"]),
         reporting.Indexed(['say "hi"', "two\nlines"], np.array([0, 1]))],
    )
    assert text == (
        'a,b,c\n'
        '1,plain,"say ""hi"""\n'
        '2,"needs, quoting","two\nlines"\n'
    )
    with pytest.raises(reporting.ReportError, match="columns of cells"):
        reporting.to_csv(["a", "b"], [np.array([1])])
    with pytest.raises(reporting.ReportError, match="column 'b' has 1 cells"):
        reporting.to_csv(["a", "b"], [np.array([1, 2]), np.array([3])])


def test_csv_indexed_and_array_columns():
    shared = np.array([0.25, -0.0])
    text = reporting.to_csv(
        ["k", "x", "ok", "v", "n", "s"],
        [
            reporting.Indexed(np.array([0.1, -0.0]), np.array([1, -1, 0])),
            np.array([1e-300, 2.0 / 3.0, 5e-324]),
            np.array([True, False, True]),
            reporting.Indexed(("a,b", False, 7), np.array([0, 1, 2])),
            reporting.Indexed(shared, np.array([0, 1, -1])),
            reporting.Indexed(shared, np.array([-1, 0, 1])),
        ],
    )
    assert text == (
        "k,x,ok,v,n,s\n"
        "-0,1e-300,true,\"a,b\",0.25,\n"
        ",0.66666666666666663,false,false,-0,0.25\n"
        "0.10000000000000001,4.9406564584124654e-324,true,7,,-0\n"
    )
    assert reporting.to_csv(["a"], [np.zeros(0)]) == "a\n"


def test_csv_floats_are_arrays_and_cells_are_never_none():
    # a float cell is written only from a float array; a list of floats
    # and a None cell are refused as labels
    for values in ([0.5, 1.5], [None, 1]):
        with pytest.raises(reporting.ReportError, match="in a CSV cell"):
            reporting.to_csv(["a"], [values])


def test_csv_names_the_first_non_finite_cell_in_row_order():
    columns = [
        reporting.Indexed(np.array([np.inf, 1.0]), np.array([-1, 1, 0])),
        np.array([1.0, np.nan, -np.inf]),
        np.array([2.0, -np.inf, 3.0]),
    ]
    # row 0 skips the inf (empty cell); row 1 has nan before -inf
    with pytest.raises(reporting.ReportError, match="non-finite value nan"):
        reporting.to_csv(["a", "b", "c"], columns)
    columns[1] = np.array([1.0, 2.0, -np.inf])
    with pytest.raises(reporting.ReportError, match="non-finite value -inf"):
        reporting.to_csv(["a", "b", "c"], columns)
    columns[2] = np.array([2.0, 4.0, 3.0])
    with pytest.raises(reporting.ReportError, match="non-finite value inf"):
        reporting.to_csv(["a", "b", "c"], columns)


# ---------------------------------------------------------------------------
# curve files and ranges


def test_load_curve_file(tmp_path):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE_FILE)
    spec = load_curve_file(path)
    assert spec.n == 2
    assert spec.coord_texts == ("sin(2*t)", "-cos(2*t)", "0", "0", "1")
    ref = example_spec()
    ts = np.linspace(0.0, 2.0 * np.pi, 17)
    assert np.allclose(spec.point(ts), ref.point(ts))


def test_curve_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"

    bad.write_text("sin(t)\n")
    with pytest.raises(ConfigError, match="first line must be"):
        load_curve_file(bad)

    bad.write_text("n=2\nsin(t)\ncos(t)\n")
    with pytest.raises(ConfigError, match="expected 5 coordinate lines"):
        load_curve_file(bad)

    bad.write_text("n=0\n0\n")
    with pytest.raises(ConfigError, match="n must be >= 1, got 0"):
        load_curve_file(bad)

    bad.write_text("n=1\nsin(t\n0\n0\n")
    with pytest.raises(ConfigError, match="does not parse"):
        load_curve_file(bad)

    bad.write_text("# only comments\n")
    with pytest.raises(ConfigError, match="no content"):
        load_curve_file(bad)

    with pytest.raises(ConfigError, match="cannot read"):
        load_curve_file(tmp_path / "missing.txt")


def test_parse_range():
    assert np.allclose(parse_range("0:1:5", "r"), np.linspace(0.0, 1.0, 5))
    assert parse_range("-3:-3:1", "r").tolist() == [-3.0]
    with pytest.raises(ConfigError, match="start:stop:count"):
        parse_range("1:2", "r")
    with pytest.raises(ConfigError, match="could not convert"):
        parse_range("a:b:3", "r")
    with pytest.raises(ConfigError, match="count must be"):
        parse_range("0:1:0", "r")
    with pytest.raises(ConfigError, match="start == stop"):
        parse_range("0:1:1", "r")
    with pytest.raises(ConfigError, match="r: start must be finite"):
        parse_range("-inf:0:2", "r")


# ---------------------------------------------------------------------------
# analyze


def test_analyze_example_fields(capsys):
    rc, out, err = run(
        ["analyze", "--delta1=-8", "--delta2", "2", "--grid", "128"], capsys
    )
    assert rc == 0
    report = json.loads(out)
    assert report["class"] == "circle"
    assert report["case"] == "II"
    assert report["rho"] == pytest.approx(-4.0, abs=1e-9)
    assert report["max_residual"] < 1e-8
    assert len(report["equations"]) == 2
    assert report["frenet"]["r"] == 2
    assert report["frenet"]["curvature_mean"][0] == pytest.approx(2.0, abs=1e-9)
    assert report["theorem"]["passed"] is True
    assert report["solve"]["feasible"] is True
    assert report["solve"]["delta"] == [-4.0, 1.0]
    assert report["independence"]["applicable"] is True
    assert report["independence"]["min_gram_eigenvalue"] > 0.1


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_analyze_independence_follows_tol(monkeypatch, capsys, tol):
    seen = []
    check = analysis.independence_check

    def spy(spec, frenet, tol=1e-8):
        seen.append(tol)
        return check(spec, frenet, tol=tol)

    monkeypatch.setattr(analysis, "independence_check", spy)
    rc, out, _ = run(["analyze", "--grid", "64", f"--tol={tol}"], capsys)
    assert rc == 0
    assert seen == [tol]
    assert json.loads(out)["independence"]["independent"] is True


def test_analyze_curve_file_matches_builtin(tmp_path, capsys):
    path = tmp_path / "example.txt"
    path.write_text(EXAMPLE_FILE)
    rc, out, _ = run(["analyze", "--curve", str(path), "--grid", "64"], capsys)
    assert rc == 0
    from_file = json.loads(out)
    rc, out, _ = run(["analyze", "--grid", "64"], capsys)
    assert rc == 0
    builtin = json.loads(out)
    from_file.pop("curve")
    builtin.pop("curve")
    assert from_file == builtin


def test_analyze_report_escapes_the_curve_path_as_json(tmp_path, capsys):
    path = tmp_path / 'tab\there "quoted" \\ \x1f.txt'
    path.write_text(EXAMPLE_FILE)
    rc, out, _ = run(["analyze", "--curve", str(path), "--grid", "64"], capsys)
    assert rc == 0
    assert json.loads(out)["curve"] == str(path)


@pytest.mark.parametrize("command", ["analyze", "scan", "flow"])
def test_out_into_a_missing_directory_exits_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "report.txt"
    extra = {"analyze": ["--grid", "64"], "scan": ["--case", "II"],
             "flow": ["--grid", "16", "--steps", "0"]}[command]
    rc, out, err = run([command, *extra, "--out", str(target)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_analyze_deterministic_bytes(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["analyze", "--grid", "64", "--out", str(first)]) == 0
    assert main(["analyze", "--grid", "64", "--out", str(second)]) == 0
    a = first.read_bytes()
    assert a == second.read_bytes()
    assert len(a) > 100


def test_analyze_geodesic(tmp_path, capsys):
    path = tmp_path / "geodesic.txt"
    path.write_text("n=2\n2*t\n0\n0\n0\n0\n")
    rc, out, _ = run(["analyze", "--curve", str(path), "--grid", "64"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["class"] == "geodesic"
    assert report["rho"] is None
    assert report["solve"]["any_delta"] is True
    assert report["solve"]["verdict"] == analysis.GEODESIC_VERDICT
    assert report["max_residual"] < 1e-10
    assert report["independence"]["applicable"] is False


def test_analyze_circle_k1_names_the_case1_exclusion(capsys):
    # the k1 = 1 circle at c = 1 is case I with rho = 0: the theorem check
    # passes at (0, 1), and the verdict is the exclusion the scan prints for
    # the same cell, not a violated constraint
    path = Path(__file__).resolve().parent / "curves" / "circle_k1.txt"
    rc, out, _ = run(["analyze", "--curve", str(path), "--c=1"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert (report["case"], report["rho"]) == ("I", 0.0)
    assert report["theorem"]["passed"] is True
    assert report["solve"]["feasible"] is False
    assert report["solve"]["verdict"] == analysis.EXCLUDED_VERDICT
    rc, out, _ = run(["scan", "--case", "I"], capsys)
    assert rc == 0 and out.splitlines()[1].endswith("," + analysis.EXCLUDED_VERDICT)


def test_analyze_rejects_non_legendre(tmp_path, capsys):
    path = tmp_path / "tilted.txt"
    path.write_text("n=1\n2*t\n0\nt\n")
    rc, out, err = run(["analyze", "--curve", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert "not Legendre" in err
    assert "eta(T)" in err
    assert "5.0" in err  # max defect is 1/2


def test_analyze_rejects_non_unit_speed(tmp_path, capsys):
    path = tmp_path / "slow.txt"
    path.write_text("n=1\nt\n0\n0\n")
    rc, _, err = run(["analyze", "--curve", str(path)], capsys)
    assert rc == 2
    assert "not unit speed" in err


@pytest.mark.parametrize("x", ["1e200*t", "exp(exp(t))"])
def test_analyze_overflowing_speed_exits_2(tmp_path, capsys, x):
    # the speed overflows to inf: stderr is the one error line, with no
    # numpy overflow warning before it
    path = tmp_path / "fast.txt"
    path.write_text(f"n=1\n{x}\n0\n0\n")
    rc, out, err = run(["analyze", "--grid", "64", "--curve", str(path)],
                       capsys)
    assert (rc, out, err) == (2, "", "error: curve is not unit speed: max "
                              "speed deviation = inf exceeds tolerance 1e-06\n")


@pytest.mark.parametrize("x, error", [
    ("1e200*t", "chord speed overflows at index 0"),
    # x(0) = e against a largest coordinate of about 1e209: degenerate
    ("exp(exp(t))", "degenerate segment at index 0"),
])
def test_flow_overflowing_curve_exits_2(tmp_path, capsys, x, error):
    # one error line on stderr, with no numpy overflow warning before it
    path = tmp_path / "fast.txt"
    path.write_text(f"n=1\n{x}\n0\n0\n")
    rc, out, err = run(["flow", "--grid", "64", "--steps", "2", "--curve",
                        str(path)], capsys)
    assert (rc, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("command", [["analyze"], ["flow", "--steps", "1"]])
def test_expression_domain_error_exits_2(capsys, command):
    path = Path(__file__).resolve().parent / "curves" / "domain_error.txt"
    rc, out, err = run([*command, "--curve", str(path)], capsys)
    assert rc == 2
    assert out == ""
    assert err == ("error: log of a non-positive jet value while evaluating "
                   "'log(t-10)'\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["analyze"], ["flow", "--steps", "1"]])
@pytest.mark.parametrize("coords, message", [
    ("sin(t)\ncos(t)+log(0-1)*0\n0",
     "log of a non-positive jet value while evaluating 'cos(t)+log(0-1)*0'"),
    ("sin(t)\ncos(t)\n0^(0-1)*0",
     "division by zero in jet arithmetic while evaluating '0^(0-1)*0'"),
    # a constant that overflows is an error, not an inf or nan in the report
    ("sin(t)+10^400*0\ncos(t)\n0",
     "non-finite constant inf while evaluating 'sin(t)+10^400*0'"),
    ("sin(t)+1e400*0\ncos(t)\n0",
     "non-finite constant inf while evaluating 'sin(t)+1e400*0'"),
    ("sin(t)+exp(1000)*0\ncos(t)\n0",
     "non-finite constant inf while evaluating 'sin(t)+exp(1000)*0'"),
])
def test_constant_domain_error_exits_2(tmp_path, capsys, command, coords, message):
    # a constant subexpression outside its domain names itself, as a
    # t-dependent one does, instead of turning into a nan in the report
    path = tmp_path / "constant_domain.txt"
    path.write_text(f"n=1\n{coords}\n")
    rc, out, err = run([*command, "--curve", str(path)], capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command, t", [
    # analyze reads derivatives up to order 5, whose Taylor coefficients
    # 1000^k/k! exp(1000 t) overflow one grid point before the value does
    (["analyze"], "0.6872233929727672"),
    (["flow", "--steps", "1"], "0.7117670855789375"),
], ids=["analyze", "flow"])
@pytest.mark.parametrize("coords", [
    "n=1\nsin(t)+exp(1000*t)-exp(1000*t)\ncos(t)\n0",
    "n=2\nsin(2*t)+exp(1000*t)-exp(1000*t)\n-cos(2*t)\n0\n0\n1",
], ids=["n1", "n2"])
def test_nan_curve_fails_admission_exits_2(tmp_path, capsys, command, t, coords):
    # exp(1000*t) overflows to inf on the grid and inf - inf is nan: the jet
    # pass names the coordinate and the first grid t where it is not
    # finite, with no numpy warning, instead of a nan Legendre defect
    path = tmp_path / "nan.txt"
    path.write_text(coords + "\n")
    rc, out, err = run([*command, "--curve", str(path)], capsys)
    text = coords.split("\n")[1]
    assert (rc, out, err) == (
        2, "", f"error: non-finite value at t={t} while evaluating {text!r}\n")


def test_analyze_loose_tol_accepts_near_unit_speed(tmp_path, capsys):
    # speed deviates by 1e-5, inside --tol 1e-4; every stage must use that
    # tolerance, not a fixed default of its own
    path = tmp_path / "stretched.txt"
    path.write_text("n=2\n1.00001*sin(2*t)\n-cos(2*t)\n0\n0\n1\n")
    rc, out, err = run(
        ["analyze", "--curve", str(path), "--tol", "1e-4"], capsys
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["frenet"]["unit_speed_deviation"] == pytest.approx(1e-5, rel=1e-3)
    assert report["class"] == "circle"


def test_analyze_tight_tol_equations_follow_frenet_order(monkeypatch, capsys):
    # k2 = 3e-8 is a curvature at --tol 1e-9 but would be cut off at a
    # fixed tol of 1e-7, which would drop the third equation
    spec = families.orthogonal_helix(1.2, 3e-8)
    monkeypatch.setattr(cli, "_load_spec", lambda args: (spec, "helix"))
    rc, out, err = run(["analyze", "--tol", "1e-9"], capsys)
    assert rc == 0, err
    report = json.loads(out)
    assert report["frenet"]["m"] == 3
    assert len(report["equations"]) == 3
    assert len(report["theorem"]["equations"]) == 3


def _count_calls(monkeypatch, name, modules):
    """Wrap modules[0].<name> in every module that holds it; return the counter."""
    original = getattr(modules[0], name)
    counter = {"calls": 0}

    def counting(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return counter


@pytest.mark.parametrize("argv, frenet_calls, jet_calls", [
    (["analyze", "--grid", "64"], 1, 1),
    (["verify-example", "--grid", "64"], 1, 1),
])
def test_one_frenet_build_per_command(monkeypatch, capsys, argv,
                                      frenet_calls, jet_calls):
    # one curve evaluation, one Frenet build and one classification; the
    # closed form runs once in the theorem check and once in the solver.
    # The analysis reads velocity and y jets only, never positions.
    modules = (curves, analysis, cli)
    frenet = _count_calls(monkeypatch, "frenet_apparatus", modules)
    jet = _count_calls(monkeypatch, "_velocity_jets", modules)
    positions = _count_calls(monkeypatch, "coordinate_jets", modules)
    cls = _count_calls(monkeypatch, "classify", (analysis, cli))
    closed = _count_calls(monkeypatch, "residual_closed_form", (analysis, cli))
    rc, _, err = run(argv, capsys)
    assert rc == 0, err
    assert frenet["calls"] == frenet_calls
    assert jet["calls"] == jet_calls
    assert positions["calls"] == 0
    assert cls["calls"] == 1
    assert closed["calls"] == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--grid", "64"],
    ["verify-example", "--grid", "64"],
])
def test_one_bitension_per_command(monkeypatch, capsys, argv):
    # the direct route's covariant derivatives run once per command, also
    # where verify-example weights them with two pairs at the same c
    parts = _count_calls(monkeypatch, "_bitension_parts", (analysis,))
    rc, _, err = run(argv, capsys)
    assert rc == 0, err
    assert parts["calls"] == 1


def test_one_parser_build_per_process(monkeypatch, capsys):
    # main reuses one parser: over 20 command lines covering every command
    # cli constructs one ArgumentParser.  Its subparsers come from
    # add_parser, which does not go through cli's argparse name.
    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli, "argparse",
                        SimpleNamespace(ArgumentParser=argparse.ArgumentParser))
    parsers = _count_calls(monkeypatch, "ArgumentParser", (cli.argparse,))
    argvs = [
        ["analyze", "--grid", "64"], ["verify-example", "--grid", "64"],
        ["scan", "--case", "IV"], ["flow", "--grid", "16", "--steps", "1"],
    ] * 5
    for argv in argvs:
        rc, _, err = run(argv, capsys)
        assert rc == 0, err
    assert parsers["calls"] == 1


def _parse_outcome(parser, argv, capsys):
    try:
        args = parser.parse_args(argv)
        outcome = (0, args.command, args.func)
    except SystemExit as exc:
        outcome = (exc.code, None, None)
    captured = capsys.readouterr()
    return outcome + (captured.out, captured.err)


def _main_outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), an argparse exit included."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


PARSER_LINES = [
    ["analyze", "-h"], ["verify-example", "--help"], ["scan", "-h"],
    ["flow", "-h"], ["analyze", "extra"], ["analyze", "--bogus"],
    ["analyze", "--grid"], ["flow", "--steps", "x"], ["scan"],
    ["scan", "--case", "V"], ["verify-example", "--grid", "x"],
    ["analyze", "analyze"], ["analyze", "--grid", "64"], ["scan", "--case", "I"],
]


@pytest.mark.parametrize("argv", PARSER_LINES, ids=" ".join)
def test_shared_parser_reads_like_a_fresh_one(monkeypatch, capsys, argv):
    # main reuses one parser; after every line has run through it, help,
    # usage, error text, exit code and report must equal a new parser's
    for line in PARSER_LINES:
        _main_outcome(line, capsys)
    shared = _main_outcome(argv, capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert _main_outcome(argv, capsys) == shared


@pytest.mark.parametrize("argv", [[], ["-h"], ["bogus"], ["analyz"], ["--", "analyze"]])
def test_full_parser_without_a_command(argv, capsys):
    parser = cli.build_parser()
    assert len(parser._subparsers._group_actions[0].choices) == 4
    rc, _, _, out, err = _parse_outcome(parser, argv, capsys)
    assert rc in (0, 2)
    assert "{analyze,verify-example,scan,flow}" in out + err


def test_config_validation(capsys):
    rc, _, err = run(["analyze", "--grid", "8"], capsys)
    assert rc == 2 and "--grid" in err
    rc, _, err = run(["analyze", "--tol", "0"], capsys)
    assert rc == 2 and "--tol" in err
    rc, _, err = run(["flow", "--steps=-1"], capsys)
    assert rc == 2 and "--steps" in err


DEEP_EXPRESSIONS = {
    "parentheses": "(" * 300 + "t" + ")" * 300,
    "calls": "sin(" * 300 + "t" + ")" * 300,
    "signs": "-" * 300 + "t",
    "sum": "+".join(["0*t"] * 999 + ["t"]),
}


@pytest.mark.parametrize("text", DEEP_EXPRESSIONS.values(), ids=DEEP_EXPRESSIONS)
def test_deep_expression_exits_2_naming_the_coordinate(tmp_path, capsys, text):
    path = tmp_path / "deep.txt"
    path.write_text(f"n=1\n{text}\n0\n0\n")
    rc, out, err = run(["analyze", "--curve", str(path)], capsys)
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: curve file {path}: coordinate 1 does not parse: "
                          "expression nests deeper than 100 levels (at position ")
    assert len(err.splitlines()) == 1


def test_long_sum_exits_2_in_a_fresh_interpreter(tmp_path):
    # 200 000 terms: evaluating the tree once crashed the interpreter, so
    # the run is a subprocess whose exit code a crash cannot hide
    import subprocess
    import sys

    path = tmp_path / "long.txt"
    path.write_text("n=1\n" + "+".join(["t"] * 200_000) + "\n0\n0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "contactcurves.cli", "analyze", "--curve", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr[-500:]
    assert "coordinate 1 does not parse: expression nests deeper" in proc.stderr


# ---------------------------------------------------------------------------
# verify-example


def test_verify_example_passes(capsys):
    rc, out, _ = run(["verify-example", "--grid", "128"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 9
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "verify-example: PASS (9 checks)"
    assert any("norm 8" in ln for ln in lines)


def test_verify_example_reports_failed_checks(monkeypatch, capsys):
    # the k1 = 3 circle fails five of the nine expectations, which hold
    # for the built-in k1 = 2 circle only
    monkeypatch.setattr(cli, "example_spec", lambda: curves.CurveSpec(
        2, ["(2/3)*sin(3*t)", "-(2/3)*cos(3*t)", "0", "0", "1"]))
    rc, out, _ = run(["verify-example"], capsys)
    lines = out.splitlines()
    assert rc == 1
    assert len(lines) == 10
    assert sum(1 for ln in lines if ln.startswith("FAIL")) == 5
    assert lines[-1] == "verify-example: FAIL (5 of 9 checks failed)"


# ---------------------------------------------------------------------------
# scan


def test_scan_case2_reference_cell(capsys):
    rc, out, _ = run(
        ["scan", "--case", "II", "--c-range=-3:-3:1",
         "--k1-range=2:2:1", "--k2-range=0:0:1"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "case,c,k1,k2,alpha0,rho,constraint,feasible,verdict"
    cells = lines[1].split(",")
    assert cells[0] == "II"
    assert float(cells[5]) == -4.0
    assert cells[7] == "true"
    assert "geodesic only" in lines[1]


def test_scan_case1_excluded_ratio(capsys):
    rc, out, _ = run(
        ["scan", "--case", "I", "--k1-range=0.6:0.6:1",
         "--k2-range=0.8:0.8:1"],
        capsys,
    )
    assert rc == 0
    row = out.splitlines()[1]
    cells = row.split(",")
    assert cells[0] == "I" and float(cells[1]) == 1.0
    assert abs(float(cells[5])) < 1e-12
    assert cells[7] == "false"
    assert "excluded: requires delta1/delta2 != 0" in row


def test_scan_case4_sign_constraint(capsys):
    quarter = repr(np.pi / 4.0)
    rc, out, _ = run(
        ["scan", "--case", "IV", "--c-range=-3:-3:1", "--k1-range=1:1:1",
         "--k2-range=1:1:1", f"--alpha0-range={quarter}:{quarter}:1"],
        capsys,
    )
    assert rc == 0
    cells = out.splitlines()[1].split(",")
    assert float(cells[6]) == pytest.approx(-12.0, abs=1e-12)
    assert cells[7] == "true"
    # flipping alpha0 to -pi/4 flips the constraint sign
    rc, out, _ = run(
        ["scan", "--case", "IV", "--c-range=5:5:1", "--k1-range=1:1:1",
         "--k2-range=1:1:1", f"--alpha0-range={quarter}:{quarter}:1"],
        capsys,
    )
    cells = out.splitlines()[1].split(",")
    assert float(cells[6]) == pytest.approx(12.0, abs=1e-12)
    assert cells[7] == "false"


def test_scan_case3_forces_second_curvature(capsys):
    rc, out, _ = run(
        ["scan", "--case", "III", "--c-range=-3:-3:1",
         "--k1-range=3:3:1", "--k2-range=0.2:0.2:1"],
        capsys,
    )
    assert rc == 0
    cells = out.splitlines()[1].split(",")
    assert float(cells[3]) == 1.0          # k2 pinned by the case
    assert float(cells[5]) == -13.0
    assert "geodesic only" in out


def test_scan_geodesic_rows_and_grid_shape(capsys):
    rc, out, _ = run(
        ["scan", "--case", "II", "--c-range=-3:1:3",
         "--k1-range=0:2:3", "--k2-range=0:1:2"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 3 * 3 * 2
    geodesic_rows = [ln for ln in lines[1:] if "any delta admissible" in ln]
    assert len(geodesic_rows) == 6          # every k1 == 0 cell
    rc, out2, _ = run(
        ["scan", "--case", "II", "--c-range=-3:1:3",
         "--k1-range=0:2:3", "--k2-range=0:1:2"],
        capsys,
    )
    assert out2 == out


def test_scan_rejects_negative_curvature_range(capsys):
    rc, _, err = run(["scan", "--case", "II", "--k1-range=-1:1:3"], capsys)
    assert rc == 2
    assert "nonnegative" in err


@pytest.mark.filterwarnings("error")
def test_scan_overflow_exits_2_naming_the_value(capsys):
    # k1^2 overflows: the cell's rho is -inf, reported without a traceback
    rc, out, err = run(["scan", "--case", "IV", "--k1-range=1e200:1e200:1"],
                       capsys)
    assert (rc, out) == (2, "")
    assert err == "error: non-finite value -inf in report payload\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, text, message", [
    ("--c-range", "nan:nan:1", "--c-range: start must be finite, got nan"),
    ("--c-range", "inf:inf:1", "--c-range: start must be finite, got inf"),
    ("--k2-range", "0:-inf:3", "--k2-range: stop must be finite, got -inf"),
    ("--alpha0-range", "0:nan:2",
     "--alpha0-range: stop must be finite, got nan"),
    ("--c-range", "-1.7e308:1.7e308:3",
     "--c-range: the samples of '-1.7e308:1.7e308:3' overflow to "
     "non-finite values"),
])
def test_scan_rejects_non_finite_ranges(capsys, flag, text, message):
    rc, out, err = run(["scan", "--case", "II", f"{flag}={text}"], capsys)
    assert (rc, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# flow


def test_flow_zero_steps(capsys):
    rc, out, _ = run(
        ["flow", "--grid", "64", "--steps", "0",
         "--delta1=-8", "--delta2", "2"],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "step,energy,max_defect,analyzer_residual"
    assert len(lines) == 2
    assert lines[1].startswith("0,")


def test_flow_monotone_energy(capsys):
    rc, out, _ = run(
        ["flow", "--grid", "48", "--steps", "4", "--rate", "0.02",
         "--delta1=-8", "--delta2", "2"],
        capsys,
    )
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:] if not ln.startswith("#")]
    energies = [float(r[1]) for r in rows]
    assert len(energies) >= 2
    assert all(b <= a for a, b in zip(energies, energies[1:]))


@pytest.mark.parametrize("value, message", [
    ("0", "must be positive, got 0.0"),
    ("nan", "must be positive, got nan"),
    ("-inf", "must be positive, got -inf"),
    ("inf", "must be finite, got inf"),
])
def test_flow_bad_rate(capsys, value, message):
    # --steps 0: a program that let an infinite rate through returns at
    # once instead of backtracking forever
    rc, out, err = run(["flow", "--grid", "32", "--steps", "0", f"--rate={value}"], capsys)
    assert (rc, out, err) == (2, "", f"error: --rate {message}\n")


@pytest.mark.parametrize("command", ["analyze", "verify-example", "flow"])
@pytest.mark.parametrize("flag, value, message", [
    ("c", "inf", "must be finite, got inf"),
    ("c", "nan", "must be finite, got nan"),
    ("delta1", "-inf", "must be finite, got -inf"),
    ("delta1", "nan", "must be finite, got nan"),
    ("delta2", "inf", "must be finite, got inf"),
    ("delta2", "nan", "must be finite, got nan"),
    ("tol", "inf", "must be finite, got inf"),
    ("tol", "nan", "must be positive, got nan"),
    ("tol", "-inf", "must be positive, got -inf"),
])
def test_non_finite_flags_exit_2(capsys, command, flag, value, message):
    argv = [command, "--grid", "32", f"--{flag}={value}"]
    if command == "flow":
        argv += ["--steps", "1"]
    if command == "verify-example" and flag in ("c", "delta1", "delta2"):
        # verify-example checks the built-in curve at c = -3 and fixed
        # weights, and registers no c or weight flags
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: --{flag}={value}\n")
        return
    rc, out, err = run(argv, capsys)
    assert (rc, out, err) == (2, "", f"error: --{flag} {message}\n")


def test_flow_builds_the_starting_polyline_once(monkeypatch, capsys):
    # validate() and the zero-step descent read the polyline from_spec
    # built; its constructor is the one chord build
    built = []
    post_init = discrete.DiscreteCurve.__post_init__

    def counting_init(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(discrete.DiscreteCurve, "__post_init__", counting_init)
    frames = _count_calls(monkeypatch, "to_frame", (discrete,))
    rc, _, err = run(["flow", "--steps", "0"], capsys)
    assert rc == 0, err
    assert len(built) == 1
    assert frames["calls"] == 1


def test_entry_point_subprocess(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "contactcurves.cli", "analyze", "--grid", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "--grid" in proc.stderr


def test_module_entry_point_runs_without_runpy_warning():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "contactcurves.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "flow" in proc.stdout
