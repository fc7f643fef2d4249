import csv
import io
import json
import re
import sys
from fractions import Fraction

import pytest

from tracetwist import BoundaryTraces, TracePoint, TwistWord, apply_word, enumerate_orbit
from tracetwist import cli
from tracetwist.cli import _exact, _int_digits_unlimited, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify(capsys):
    code, out, err = run(capsys, "classify", "--traces", "1,1,7/4,-7/4")
    assert code == 0
    payload = json.loads(out)
    assert payload["component"] == "sl2r_compact"
    assert payload["S"] == ["-17/16", "-1"]
    assert payload["sigma_x"] == "-33/16"
    assert payload["minimality_criterion"] is False


def test_classify_su2(capsys):
    code, out, _ = run(capsys, "classify", "--traces", "0,0,0,0")
    assert code == 0
    assert json.loads(out)["component"] == "su2"


def test_classify_invalid_traces(capsys):
    code, _, err = run(capsys, "classify", "--traces", "2,0,0,0")
    assert code == 2
    assert "error" in err


_RANGE_COMMANDS = {"classify": [], "scan": ["--point", "0,0,0"]}


@pytest.mark.parametrize("command", list(_RANGE_COMMANDS))
def test_out_of_range_trace_message(capsys, command):
    # scan parsed its traces as floats and printed "a = 2.0"
    code, out, err = run(capsys, command, "--traces", "2,0,0,0", *_RANGE_COMMANDS[command])
    assert (code, out) == (2, "")
    assert err == "error: a = 2 must lie strictly in (-2, 2)\n"


@pytest.mark.parametrize("command", list(_RANGE_COMMANDS))
@pytest.mark.parametrize("traces", ["1e5000,0,0,0", "1e400,0,0,0", "-1e400,0,0,0"])
def test_huge_out_of_range_trace_names_the_range(capsys, command, traces):
    # 1e5000 raised Python's int-to-str digit limit, naming neither the
    # trace nor the range; 1e400 printed all 401 digits
    code, out, err = run(capsys, command, f"--traces={traces}", *_RANGE_COMMANDS[command])
    assert (code, out) == (2, "")
    side = "below -2" if traces.startswith("-") else "above 2"
    assert err == f"error: a is {side} and must lie strictly in (-2, 2)\n"
    assert len(err) < 200


def test_exact_output_has_no_float_literals(capsys):
    _, out, _ = run(capsys, "classify", "--traces", "1/2,1/2,1/2,1/3")
    for token in re.findall(r"-?\d+\.\d+", out):
        pytest.fail(f"float literal {token} in exact-mode output")


def test_orbit_to_file(capsys, tmp_path):
    out_path = tmp_path / "orbit.csv"
    code, out, _ = run(
        capsys,
        "orbit",
        "--traces", "1,1,7/4,-7/4",
        "--point=-1,0,0",
        "--budget", "10000",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["status"] == "finite" and summary["cardinality"] == 2
    rows = out_path.read_text().strip().splitlines()
    assert rows[0] == "x,y,z"
    assert rows[1:] == ["-17/16,0,0", "-1,0,0"]


def test_orbit_stdout(capsys):
    code, out, err = run(
        capsys,
        "orbit",
        "--traces", "1,1,7/4,-7/4",
        "--point=-1,0,0",
        "--budget", "100",
    )
    assert code == 0
    assert out.startswith("x,y,z\n")
    assert json.loads(err)["cardinality"] == 2


def test_orbit_truncated_summary(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "orbit",
        "--traces", "1/2,1/2,1/2,1/3",
        "--point", "5/3,5/3,-11/18",
        "--budget", "50",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0
    assert json.loads(out)["status"] == "truncated"


def test_filtration(capsys):
    code, out, _ = run(capsys, "filtration", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    got = {(e["p"], e["q"]) for e in payload["elements"]}
    assert got == {(1, 2), (1, 3), (2, 3), (1, 4), (3, 4)}


def test_cj_verify_list(capsys):
    code, out, _ = run(capsys, "cj", "--verify-list")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    assert all(r["residual"] == "0" for r in rows)


def test_cj_search(capsys):
    code, out, _ = run(capsys, "cj", "--search", "--max-q", "5", "--coeffs", "1,-1")
    assert code == 0
    rows = json.loads(out)
    assert any(r["family"] == 3 for r in rows)
    assert all(r["kind"] == "family" for r in rows)


def test_cj_search_split_coefficients_all_classified(capsys):
    # cos(pi/15) + cos(pi/5) - cos(4pi/15) - 2*cos(2pi/5) = 1/2 used to be
    # listed as unclassified; it is the sum of two smaller relations
    code, out, _ = run(capsys, "cj", "--search", "--max-q", "15", "--coeffs=1,-1,-2")
    assert code == 0
    assert "unclassified" not in out
    assert all(r["kind"] == "family" for r in json.loads(out))


def test_cj_requires_a_mode(capsys):
    code, _, err = run(capsys, "cj")
    assert code == 2


def test_cj_refuses_both_modes(capsys):
    # the search flag was ignored and the verify list printed with exit 0
    code, out, err = run(capsys, "cj", "--verify-list", "--search")
    assert code == 2
    assert out == ""
    assert err == "error: cj takes one mode: --verify-list and --search cannot be combined\n"


@pytest.mark.parametrize(
    "coeffs", ["100000000,-100000000", "1000000000,-1000000000", "1,1e308", "1,1e309"]
)
def test_cj_search_refuses_coefficients_beyond_the_bound(capsys, coeffs):
    # the first two dropped relations silently; the last two reported a float overflow
    code, out, err = run(capsys, "cj", "--search", "--max-q", "10", "--coeffs", coeffs)
    assert code == 2
    assert out == ""
    assert err == "error: coefficients must be at most 10**5 in absolute value\n"


@pytest.mark.parametrize("coeffs", ["1,1e-400", "100000,1e-303"])
def test_cj_search_refuses_a_screen_beyond_the_double_range(capsys, coeffs):
    # cj has no float mode, yet this reported "a float-mode value left the
    # double range"
    code, out, err = run(capsys, "cj", "--search", "--max-q", "5", f"--coeffs={coeffs}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "double range" in err
    assert "float-mode" not in err


@pytest.mark.parametrize("coeffs", ["1,,-1", ",1,-1", "1,-1,"])
def test_cj_empty_coefficient_is_a_usage_error(capsys, coeffs):
    # empty fields were dropped, so "1,,-1" searched the coefficients (1, -1)
    with pytest.raises(SystemExit) as exc:
        main(["cj", "--search", "--max-q", "5", f"--coeffs={coeffs}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --coeffs: " in captured.err


_ZERO_DENOMINATOR = {
    "traces": ["classify", "--traces", "1/0,0,0,0"],
    "point": ["orbit", "--traces", "0,0,0,0", "--point", "1/0,0,0"],
    "coeffs": ["cj", "--search", "--coeffs", "1/0,1"],
    "t": ["cj", "--verify-list", "--t", "1/0"],
}


@pytest.mark.parametrize("flag", list(_ZERO_DENOMINATOR))
def test_zero_denominator_names_the_flag(capsys, flag):
    # three flags printed "Fraction(1, 0)"; --t escaped argparse and main
    # printed "error: Fraction(1, 0)" with no flag name and no usage line
    with pytest.raises(SystemExit) as exc:
        main(_ZERO_DENOMINATOR[flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: ")
    assert captured.err.endswith(f": error: argument --{flag}: zero denominator in '1/0'\n")


def test_zero_denominator_in_a_config_value_names_the_flag(capsys, tmp_path):
    config = tmp_path / "cj.cfg"
    config.write_text("t=1/0\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "cj", "--verify-list"])
    assert exc.value.code == 2
    assert "error: argument --t: zero denominator in '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["1001", "1" + "0" * 53])
def test_filtration_refuses_beyond_desk_scale(capsys, n):
    # a 54-digit n ran until killed; the refusal comes before any work
    code, out, err = run(capsys, "filtration", "--n", n)
    assert code == 2
    assert out == ""
    assert err == "error: filtration is desk-scale only: n <= 1000\n"


def test_classify_irrational_endpoints_stdout(capsys):
    code, out, _ = run(capsys, "classify", "--traces", "1/3,1/5,-1/7,1/2")
    assert code == 0
    assert out == (
        '{"S": [{"a": "1/30", "b": "-1/2", "r": "77/5"}, '
        '{"a": "-1/28", "b": "1/2", "r": "2925/196"}], "component": "su2", '
        '"minimality_criterion": true, "s_const": "-158021/44100", '
        '"sigma_x": "-1/210", "sigma_y": "29/210", "sigma_z": "11/210"}\n'
    )


def test_cj_search_row_stdout(capsys):
    code, out, _ = run(capsys, "cj", "--search", "--max-q", "15", "--coeffs=1,-1,-2")
    assert code == 0
    assert (
        '{"family": 2, "kind": "family", '
        '"relation": "cos(pi/15) - cos(4pi/15) - cos(2pi/5) = 0", '
        '"scale": "-1", "t": "1/15", "value": "0"}'
    ) in out
    assert out.startswith("[{") and out.endswith("}]\n")


def test_exact_encoder_refuses_other_objects():
    assert _exact(Fraction(-3, 4)) == "-3/4"
    with pytest.raises(TypeError, match="complex"):
        _exact(1j)


def test_example5(capsys):
    code, out, _ = run(capsys, "example5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["orbit"] == [["-17/16", "0", "0"], ["-1", "0", "0"]]
    assert payload["trace_D"] == "-7/4"
    assert out == (
        '{"boundary": ["1", "1", "7/4", "-7/4"], "checks": {"boundary": true, '
        '"family_boundary_matches": true, "in_family": true, "kappa_zero": true, '
        '"orbit_finite": true, "orbit_is_special": true, "point": true, "trace_D": true}, '
        '"ok": true, "orbit": [["-17/16", "0", "0"], ["-1", "0", "0"]], '
        '"orbit_status": "finite", "point": ["-1", "0", "0"], "trace_D": "-7/4"}\n'
    )


def test_scan_deterministic(capsys):
    argv = [
        "scan",
        "--traces", "1/2,1/2,1/2,1/3",
        "--point", "0,1/2,-1.552052514523134",
        "--eps", "0.15",
        "--budget", "4000",
        "--seed", "3",
        "--grid", "12,12",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert 0.0 <= payload["covered_fraction"] <= 1.0
    assert out1 == (
        '{"budget": 4000, "covered_fraction": 1.0, "eps": 0.15, "grid_size": 144, '
        '"orbit_size": 3446, "seed": 3, "truncated": true}\n'
    )


@pytest.mark.parametrize("grid", ["0,12", "3,0"])
def test_scan_refuses_empty_grid(capsys, grid):
    code, out, err = run(
        capsys, "scan", "--traces", "1/2,1/2,1/2,1/3", "--point", "0,1/2,-1.55",
        "--eps", "0.1", "--budget", "100", "--grid", grid,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: sample grid")


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_scan_refuses_non_finite_eps(capsys, eps):
    code, out, err = run(
        capsys, "scan", "--traces", "1/2,1/2,1/2,1/3", "--point", "0,1/2,-1.55",
        "--eps", eps, "--budget", "100",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: eps must be positive and finite")


def test_scan_refuses_subnormal_eps(capsys):
    code, out, err = run(
        capsys, "scan", "--traces", "1/2,1/2,1/2,1/3", "--point", "0,1/2,-1.55",
        "--eps", "5e-324", "--budget", "100",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: eps must be at least ")
    assert "5e-324" in err and "double range" in err


def test_a_raising_internal_check_exits_one(capsys, monkeypatch):
    def kappa(*args):
        raise RuntimeError("kappa cross-check failed")

    monkeypatch.setattr(cli, "kappa", kappa)
    code, out, err = run(capsys, "example5")
    assert code == 1
    assert out == ""
    assert err == "internal check failed: kappa cross-check failed\n"


def test_a_failed_example5_check_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "is_in_F", lambda *args: False)
    code, out, err = run(capsys, "example5")
    assert code == 1
    assert err == ""
    payload = json.loads(out)
    assert payload["ok"] is False
    assert [name for name, ok in payload["checks"].items() if not ok] == ["in_family"]


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("traces=0,0,0,0\nn=4\n", encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(config), "classify")
    assert code == 0
    assert json.loads(out)["component"] == "su2"
    code, out, _ = run(
        capsys, "--config", str(config), "classify", "--traces", "1,1,7/4,-7/4"
    )
    assert json.loads(out)["component"] == "sl2r_compact"


def test_config_file_mode_must_be_a_choice(capsys, tmp_path):
    # argparse checks no choices on config defaults; _build_parser does
    config = tmp_path / "run.cfg"
    config.write_text("mode=foo\ntraces=1,1,7/4,-7/4\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "classify"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --mode: invalid choice: 'foo'" in captured.err


@pytest.mark.parametrize(
    "text, argv",
    [
        ("mode=foo\n", ["cj", "--verify-list"]),
        ("verify_list=yes\n", ["filtration", "--n", "3"]),
        ("search=maybe\n", ["classify", "--traces", "1,1,7/4,-7/4"]),
    ],
    ids=["mode-cj", "verify_list-filtration", "search-classify"],
)
def test_config_file_keys_of_other_commands_are_ignored(capsys, tmp_path, text, argv):
    # the keys used to be checked for every command when the parser was built
    config = tmp_path / "run.cfg"
    config.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "--config", str(config), *argv)
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, *argv)


def test_config_file_bad_key_names_the_chosen_command(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("mode=foo\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "orbit", "--traces", "1,1,7/4,-7/4", "--point=-1,0,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "tracetwist orbit: error: argument --mode: invalid choice: 'foo'" in err
    assert "classify" not in err


def test_config_file_help_ignores_command_keys(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("verify_list=yes\nmode=foo\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "-h"])
    assert exc.value.code == 0
    assert "usage: tracetwist" in capsys.readouterr().out


def test_config_file_skips_comments_and_blank_lines(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# boundary of the finite orbit\n\ntraces=1,1,7/4,-7/4\n", encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(config), "classify")
    assert code == 0
    assert json.loads(out)["component"] == "sl2r_compact"


@pytest.mark.parametrize(
    "argv, flag",
    [(["classify"], "traces"), (["orbit", "--traces", "1,1,7/4,-7/4"], "point")],
    ids=["classify", "orbit"],
)
def test_required_flag_is_named(capsys, argv, flag):
    # the flags are optional to argparse so that a config file can supply them
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: --{flag} is required for {argv[0]}\n"


def test_orbit_word_prefix(capsys, tmp_path):
    # the word moves the start point within the same orbit
    code, out, _ = run(
        capsys,
        "orbit",
        "--traces", "1,1,7/4,-7/4",
        "--point=-1,0,0",
        "--word", "YzX",
        "--budget", "100",
        "--out", str(tmp_path / "w.csv"),
    )
    assert code == 0
    assert json.loads(out)["cardinality"] == 2
    code, _, err = run(
        capsys,
        "orbit",
        "--traces", "1,1,7/4,-7/4",
        "--point=-1,0,0",
        "--word", "Q?",
        "--budget", "100",
    )
    assert code == 2


def test_orbit_fixed_point_single_row(capsys, tmp_path):
    out_path = tmp_path / "fixed.csv"
    code, out, _ = run(
        capsys,
        "orbit",
        "--traces", "0,0,0,0",
        "--point", "0,0,0",
        "--budget", "100",
        "--out", str(out_path),
    )
    assert code == 0
    assert json.loads(out) == {"budget": 100, "cardinality": 1, "status": "finite"}
    assert out_path.read_text().strip().splitlines() == ["x,y,z", "0,0,0"]


def test_config_file_switch_false_is_off(capsys, tmp_path):
    # "false" used to be read as a true switch and ran the search
    config = tmp_path / "run.cfg"
    config.write_text("search=false\nmax_q=4\n", encoding="utf-8")
    code, out, err = run(capsys, "--config", str(config), "cj")
    assert code == 2
    assert out == ""
    assert err == "error: cj requires --verify-list or --search\n"
    config.write_text("search=true\nmax_q=5\n", encoding="utf-8")
    code, out, _ = run(capsys, "--config", str(config), "cj")
    assert code == 0
    assert any(r["family"] == 3 for r in json.loads(out))


@pytest.mark.parametrize("value", ["yes", "1", "True", ""])
def test_config_file_switch_takes_true_or_false(capsys, tmp_path, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"search={value}\nmax_q=4\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(config), "cj"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"config key search takes true or false, not {value!r}" in captured.err


_MALFORMED = [
    ("grid", "3"),
    ("grid", "a,b"),
    ("grid", "1.5,2"),
    ("traces", "1/2,1/2,1/3"),
    ("traces", "1/2,1/2,x,1/3"),
    ("point", "0,1/2"),
    ("point", "0,1/0,-1.55"),
    # empty fields were dropped, so "24,,24" read as (24, 24) and a trailing
    # comma passed
    ("traces", "1/2,,1/2,1/3"),
    ("traces", "1/2,1/2,1/2,1/3,"),
    ("point", "0,,-1.55"),
    ("grid", "24,,24"),
]


@pytest.mark.parametrize(
    "flag, value",
    _MALFORMED,
    ids=[value if flag == "grid" else f"{flag}={value}" for flag, value in _MALFORMED],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_grid_names_the_flag(capsys, tmp_path, flag, value, source):
    # grid failed with "not enough values to unpack" or an int() message;
    # traces and point failed after parsing with a message that named no flag
    values = {"traces": "1/2,1/2,1/2,1/3", "point": "0,1/2,-1.55", "budget": "100"}
    if source == "flag":
        values[flag] = value
        argv = ["scan"]
    else:
        values.pop(flag, None)
        config = tmp_path / "run.cfg"
        config.write_text(f"{flag}={value}\n", encoding="utf-8")
        argv = ["--config", str(config), "scan"]
    argv += [f"--{name}={text}" for name, text in values.items()]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --{flag}: " in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--mode", "float", "--traces", "1e400,0,0,0"],
        ["scan", "--traces", "1/2,1/2,1/2,1/3", "--point", "0,1/2,-1.55",
         "--eps", "1e-320", "--budget", "10"],
        ["orbit", "--mode", "float", "--traces", "1/2,1/2,1/2,1/3",
         "--point", "1e200,1e200,1e200", "--budget", "50"],
    ],
    ids=["parse", "scan-dedup-grid", "orbit"],
)
def test_float_overflow_is_invalid_input(capsys, argv):
    # these ended in an OverflowError traceback and exit 1
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "double range" in err


def test_exact_orbit_prints_points_beyond_the_double_range(capsys):
    # the rows were sorted by float() keys, which raised OverflowError (exit 2)
    traces, point, word = "0,0,0,0", "3,3,3", "XYZXYZXYZ"
    code, out, _ = run(
        capsys, "orbit", "--traces", traces, "--point", point, "--word", word, "--budget", "2"
    )
    assert code == 0
    B = BoundaryTraces(*map(Fraction, traces.split(",")))
    start = apply_word(B, TracePoint(*map(Fraction, point.split(","))), TwistWord.parse(word))
    with _int_digits_unlimited():
        rows = [tuple(map(Fraction, row)) for row in list(csv.reader(io.StringIO(out)))[1:]]
    expected = sorted(p.as_tuple() for p in enumerate_orbit(B, start, 2).points)
    assert rows == expected
    assert any(abs(v) > 1e308 for row in rows for v in row)


def test_exact_orbit_prints_tall_rationals(capsys):
    # a coordinate of the second point has more than 4,300 digits, which
    # Python's int-to-str limit refused to print (exit 2)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    traces, point, word = "1/2,1/2,1/2,1/3", "0,1/2,-1.55", "XYZXYZXYZ"
    code, out, _ = run(
        capsys, "orbit", "--traces", traces, "--point", point, "--word", word, "--budget", "2"
    )
    assert code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    B = BoundaryTraces(*map(Fraction, traces.split(",")))
    start = apply_word(B, TracePoint(*map(Fraction, point.split(","))), TwistWord.parse(word))
    with _int_digits_unlimited():
        rows = list(csv.reader(io.StringIO(out)))[1:]
        printed = {TracePoint(*map(Fraction, row)) for row in rows}
    assert len(rows) == 2 and max(len(text) for row in rows for text in row) > 4300
    assert printed == enumerate_orbit(B, start, 2).points


def test_classify_float_stdout(capsys):
    code, out, _ = run(capsys, "classify", "--mode", "float", "--traces", "1/2,1/2,1/2,1/3")
    assert code == 0
    assert out == (
        '{"S": [-1.75, 1.9927398728982666], "component": "su2", '
        '"s_const": -3.0972222222222223, "sigma_x": 0.41666666666666663, '
        '"sigma_y": 0.41666666666666663, "sigma_z": 0.41666666666666663}\n'
    )


def test_orbit_float_stdout(capsys):
    code, out, err = run(
        capsys,
        "orbit",
        "--mode", "float",
        "--traces", "1/2,1/2,1/2,1/3",
        "--point", "0,1/2,-1.55",
        "--budget", "7",
    )
    assert code == 0
    assert out == (
        "x,y,z\n"
        "-0.5666666666666668,0.5,1.9666666666666668\n"
        "0.0,-0.08333333333333337,1.9666666666666668\n"
        "0.0,0.5,-1.55\n"
        "0.28749999999999987,-0.08333333333333337,-1.55\n"
        "0.5805555555555556,-0.08333333333333337,-1.5016203703703705\n"
        "1.1916666666666667,0.5,1.3708333333333333\n"
        "1.1916666666666667,1.76375,-1.55\n"
    )
    assert err == '{"budget": 7, "cardinality": 7, "status": "truncated"}\n'


def test_orbit_has_no_log_words_flag(capsys):
    # the flag computed words that the command never printed
    with pytest.raises(SystemExit) as exc:
        main(["orbit", "--log-words", "--traces", "1,1,7/4,-7/4", "--point=-1,0,0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
