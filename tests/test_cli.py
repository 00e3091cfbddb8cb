from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from yblattice.cli import build_parser, main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_builds():
    parser = build_parser()
    ns = parser.parse_args(["verify", "--map", "e3", "--property", "yb"])
    assert ns.map_id == "e3"


def test_verify_writes_a_json_report():
    code, out, _ = run(["verify", "--map", "e3", "--property", "yb", "--samples", "20"])
    assert code == 0
    payload = json.loads(out)
    assert payload["map"] == "e3"
    assert payload["property"] == "yb"
    assert payload["requested"] == 20
    assert payload["passed"] == payload["valid"]


def test_verify_csv_format():
    code, out, _ = run(
        ["verify", "--map", "e3", "--property", "yb", "--samples", "10", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "map,property,requested,valid,passed,skipped"
    assert len(lines) == 2
    assert lines[1].startswith("e3,yb,10,")


def test_verify_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["verify", "--map", "e2", "--property", "unitarity", "--samples", "5", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["map"] == "e2"


@pytest.mark.parametrize("where", ["missing/report.json", "."])
def test_verify_unwritable_out_is_a_usage_error(tmp_path, where):
    dest = str(tmp_path / where)
    code, out, err = run(
        ["verify", "--map", "e1-shaded", "--property", "yb", "--samples", "3", "--out", dest]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out: ") and err.count("\n") == 1


def test_verify_unknown_map():
    code, _, err = run(["verify", "--map", "nosuch", "--property", "yb"])
    assert code == 2
    assert "unknown id" in err


def test_verify_malformed_rational_flag():
    code, _, err = run(
        ["verify", "--map", "e4", "--epsilon", "0.5", "--property", "yb"]
    )
    assert code == 2
    assert "--epsilon" in err


# an Arabic-Indic three, a trailing newline and a fullwidth one
@pytest.mark.parametrize("epsilon", ["\u0663/4", "3/4\n", "\uff11/2"])
def test_verify_epsilon_takes_ascii_digits_only(epsilon):
    code, out, err = run(
        ["verify", "--map", "e4", "--epsilon", epsilon, "--property", "yb"]
    )
    assert code == 2
    assert out == "" and err.startswith("error: --epsilon")


# a digit separator, surrounding whitespace, an Arabic-Indic four and a
# fullwidth one: int() takes each of them
@pytest.mark.parametrize("value", ["1_0", " 4", "4\n", "\u0664", "\uff11"])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify", "--map", "e3", "--property", "yb"], "--samples"),
        (["verify", "--map", "e3", "--property", "yb"], "--seed"),
        (["verify", "--map", "e3", "--property", "yb"], "--bound"),
        (["verify", "--map", "e3", "--property", "yb"], "--retry-budget"),
        (["verify", "--map", "e5", "--property", "consistency-3d"], "--delta"),
        (["verify", "--map", "vnls", "--property", "yb"], "--dim"),
        (["simulate", "--sweeps", "2"], "--period"),
        (["simulate", "--period", "4"], "--sweeps"),
        (["simulate", "--flips", "1"], "--length"),
        (["simulate", "--period", "4", "--sweeps", "2"], "--seed"),
        (["simulate", "--period", "4", "--sweeps", "2"], "--bound"),
    ],
)
def test_integer_flags_take_ascii_digits_only(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv + [flag, value])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2
    assert out == ""
    assert f"argument {flag}: expected an integer, got {value!r}" in err


def test_integer_flags_take_signed_ascii_digits():
    args = build_parser().parse_args(
        ["simulate", "--period", "+4", "--sweeps", "2", "--seed", "-3"]
    )
    assert (args.period, args.sweeps, args.seed) == (4, 2, -3)


def test_flag_scope_is_enforced():
    cases = (
        ["verify", "--map", "e3", "--property", "yb", "--delta", "0"],
        ["verify", "--map", "e2", "--property", "yb", "--dim", "2"],
        ["verify", "--map", "e5", "--property", "yb", "--epsilon", "2"],
        ["verify", "--map", "e5", "--property", "yb", "--delta", "0"],
        ["verify", "--map", "vnls:2", "--property", "yb", "--dim", "3"],
    )
    for argv in cases:
        code, _, err = run(argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv


def test_vnls_identifier_forms():
    code, out, _ = run(["verify", "--map", "vnls:2", "--property", "yb", "--samples", "5"])
    assert code == 0
    code, out, _ = run(
        ["verify", "--map", "vnls", "--dim", "2", "--property", "yb", "--samples", "5"]
    )
    assert code == 0
    # a superscript two and an Arabic-Indic three are digits to str.isdigit
    for map_str in ("vnls:0", "vnls:\u00b2", "vnls:\u0663"):
        code, _, err = run(["verify", "--map", map_str, "--property", "yb"])
        assert code == 2, map_str
        assert f"bad block count in {map_str!r}" in err


def test_delta_zero_consistency_with_pinned_slope():
    code, out, _ = run(
        [
            "verify",
            "--map",
            "e5",
            "--property",
            "consistency-3d",
            "--delta",
            "0",
            "--gamma-slope",
            "3/2",
            "--samples",
            "10",
        ]
    )
    assert code == 0
    assert json.loads(out)["passed"] == json.loads(out)["valid"]


def test_gamma_slope_zero_rejected():
    code, _, err = run(
        ["verify", "--map", "e5", "--property", "yb", "--gamma-slope", "0"]
    )
    assert code == 2


def test_family_level_braid_target():
    code, out, _ = run(
        ["verify", "--map", "e1", "--property", "braid", "--samples", "5"]
    )
    assert code == 0
    assert json.loads(out)["map"] == "e1"


def test_corrupt_fixture_exits_one():
    code, out, _ = run(
        ["verify", "--map", "e2", "--property", "yb", "--samples", "10", "--corrupt"]
    )
    assert code == 1
    assert "first_failure" in json.loads(out)


def test_retry_exhaustion_exits_three():
    code, _, err = run(
        [
            "verify",
            "--map",
            "e1-shaded",
            "--property",
            "unitarity",
            "--samples",
            "1",
            "--bound",
            "2",
            "--seed",
            "4",
            "--retry-budget",
            "1",
        ]
    )
    assert code == 3
    assert "budget" in err


def test_simulate_periodic_rows():
    code, out, _ = run(["simulate", "--period", "4", "--sweeps", "10", "--seed", "7"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert lines[0].split(",")[:3] == ["u0", "v0", "alpha0"]


def test_simulate_open_flip_script():
    code, out, _ = run(["simulate", "--length", "6", "--flips", "3,4,3", "--seed", "42"])
    assert code == 0
    assert len(out.strip().split("\n")) == 4


def test_simulate_braid_legs_agree():
    _, left, _ = run(["simulate", "--length", "6", "--flips", "3,4,3", "--seed", "42"])
    _, right, _ = run(["simulate", "--length", "6", "--flips", "4,3,4", "--seed", "42"])
    assert left.strip().split("\n")[-1] == right.strip().split("\n")[-1]


def test_simulate_formats_values_past_the_int_digit_limit():
    # by sweep 80 this chain's coefficients pass CPython's 4,300-digit
    # int-to-str limit; the CSV must still be written in full
    argv = ["simulate", "--period", "2", "--sweeps", "80", "--seed", "11", "--bound", "5"]
    code, out, _ = run(argv)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 81
    assert max(len(cell) for cell in lines[-1].split(",")) > 4300
    _, shorter, _ = run(argv[:4] + ["70"] + argv[5:])
    assert lines[:71] == shorter.strip().split("\n")


def test_simulate_singular_emits_marker_and_fails():
    code, out, _ = run(
        [
            "simulate",
            "--length",
            "5",
            "--flips",
            "1,2,3,1,2,3,1,2,3",
            "--bound",
            "2",
            "--seed",
            "2",
        ]
    )
    assert code == 1
    lines = out.strip().split("\n")
    assert lines[-1].startswith("#singular,")
    assert "vertex" in lines[-1]
    assert len(lines) > 2


def test_simulate_argument_validation():
    cases = (
        ["simulate", "--period", "1", "--sweeps", "2"],
        ["simulate", "--period", "4", "--sweeps", "0"],
        ["simulate", "--period", "4", "--sweeps", "2", "--length", "5"],
        ["simulate", "--length", "5"],
        ["simulate", "--length", "5", "--flips", "0,1"],
        ["simulate", "--length", "5", "--flips", "1,4"],
        ["simulate", "--length", "5", "--flips", "two"],
        ["simulate"],
    )
    for argv in cases:
        code, _, err = run(argv)
        assert code == 2, argv


@pytest.mark.parametrize("flips", ["1_0", " 1", "\u0663", "1,,2", "3,4\n"])
def test_simulate_flips_take_ascii_digit_lists_only(flips):
    code, out, err = run(["simulate", "--length", "12", "--flips", flips])
    assert code == 2
    assert out == ""
    assert err == f"error: --flips: expected comma-separated integers, got {flips!r}\n"


def test_simulate_out_file(tmp_path):
    target = tmp_path / "orbit.csv"
    code, out, _ = run(
        ["simulate", "--period", "3", "--sweeps", "4", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert len(target.read_text().strip().split("\n")) == 5


def test_simulate_unwritable_out_is_a_usage_error(tmp_path):
    dest = str(tmp_path / "missing" / "orbit.csv")
    code, out, err = run(["simulate", "--period", "3", "--sweeps", "2", "--out", dest])
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out: ") and err.count("\n") == 1


def test_reruns_are_byte_identical():
    argv = ["verify", "--map", "e5", "--property", "yb", "--samples", "30"]
    assert run(argv) == run(argv)
    argv = ["simulate", "--period", "5", "--sweeps", "8", "--seed", "3"]
    assert run(argv) == run(argv)


def test_list_maps_names_every_identifier():
    code, out, _ = run(["list-maps"])
    assert code == 0
    for label in (
        "e1-shaded",
        "e1-blank",
        "e2",
        "e3",
        "e4",
        "e4-eps0-scaling",
        "e4-eps0-joint",
        "e5",
        "vnls:<n>",
    ):
        assert label in out
    assert "reduces:" in out
