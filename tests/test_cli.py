import json
import re

import pytest

from tracetwist.cli import main


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


def test_example5(capsys):
    code, out, _ = run(capsys, "example5")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["orbit"] == [["-17/16", "0", "0"], ["-1", "0", "0"]]
    assert payload["trace_D"] == "-7/4"


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


@pytest.mark.parametrize("grid", ["3", "a,b", "1.5,2"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_malformed_grid_names_the_flag(capsys, tmp_path, grid, source):
    # these failed with "not enough values to unpack" or an int() message
    argv = ["scan", "--traces", "1/2,1/2,1/2,1/3", "--point", "0,1/2,-1.55", "--budget", "100"]
    if source == "flag":
        argv += ["--grid", grid]
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"grid={grid}\n", encoding="utf-8")
        argv = ["--config", str(config)] + argv
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --grid: " in captured.err


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
