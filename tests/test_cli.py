"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import struct

import numpy as np
import pytest
from cli_reference import to_json_reference

from varkelly import cli
from varkelly.cli import main

DIRAC = '{"type":"dirac","b":1}'
TWO_ATOM = '{"type":"atoms","points":[[1,0.5],[2,0.5]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- solve ----------


def test_solve_dirac(capsys):
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", DIRAC)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert list(payload) == [
        "status",
        "f_hat",
        "growth",
        "residual",
        "f_star_mean",
        "jensen_gap",
        "edge",
    ]
    assert payload["status"] == "solved"
    assert abs(payload["f_hat"] - 0.2) < 1e-9
    assert abs(payload["jensen_gap"]) < 1e-9
    assert payload["edge"] == pytest.approx(0.2, abs=1e-12)


def test_solve_two_atom(capsys):
    code, out, _ = run(capsys, "solve", "--p", "0.6", "--dist", TWO_ATOM)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["f_hat"] - 0.3233) < 5e-4
    assert abs(payload["residual"]) < 1e-7


def test_solve_unfavorable_is_no_bet(capsys):
    code, out, _ = run(capsys, "solve", "--p", "0.4", "--dist", DIRAC)
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "no_bet"
    assert payload["f_hat"] == 0.0
    assert payload["growth"] == 0.0


def test_solve_dist_file(capsys, tmp_path):
    spec = tmp_path / "dist.json"
    spec.write_text(TWO_ATOM)
    code, out, _ = run(capsys, "solve", "--p", "0.6", "--dist-file", str(spec))
    assert code == 0
    assert abs(json.loads(out)["f_hat"] - 0.3233) < 5e-4


def test_solve_out_file(capsys, tmp_path):
    target = tmp_path / "solution.json"
    code, out, _ = run(capsys, "solve", "--p", "0.6", "--dist", DIRAC, "--out", str(target))
    assert code == 0
    assert out == ""
    assert abs(json.loads(target.read_text())["f_hat"] - 0.2) < 1e-9


def test_solve_out_file_that_cannot_be_written_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "solution.json"
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", DIRAC, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not target.exists()


def test_solve_bad_json_exits_2(capsys):
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", "not json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("depth", [400, 2000])
def test_solve_spec_nested_too_deeply_exits_2(capsys, tmp_path, depth):
    # The json parser's recursion limit or from_spec's bound on nesting,
    # whichever comes first on this Python version, rejects both.
    spec = tmp_path / "deep.json"
    spec.write_text('{"type":"mixture","parts":[[1,' * depth + DIRAC + "]]}" * depth)
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist-file", str(spec))
    assert code == 2
    assert out == ""
    assert err.startswith("error: distribution spec is nested too deeply")
    assert err.count("\n") == 1 and err.endswith("\n")


INVALID_SPECS = {
    "atoms-mass": ('{"type":"atoms","points":[[1,0.4],[2,0.5]]}', "mass sums to 0.9"),
    "unknown-type": ('{"type":"gaussian"}', "unknown distribution type 'gaussian'"),
    "dirac-negative": ('{"type":"dirac","b":-0.5}', "payoff -0.5 is negative"),
    "atoms-weight": ('{"type":"atoms","points":[[1,1.5],[2,-0.5]]}', "atom weight -0.5 is not positive"),
    "histogram-reversed": (
        '{"type":"histogram","edges":[2,1],"masses":[1]}',
        "bin edges are not strictly increasing",
    ),
    "histogram-mass": ('{"type":"histogram","edges":[0,1,2],"masses":[1.5,-0.5]}', "bin mass -0.5 is negative"),
    "pareto-xmin": ('{"type":"pareto","alpha":2,"xmin":0}', "scale xmin = 0 is not positive"),
    "pareto-alpha": ('{"type":"pareto","alpha":0.9,"xmin":1}', "infinite mean, alpha = 0.9 <= 1"),
    "mixture-weight": (
        '{"type":"mixture","parts":[[1.5,{"type":"dirac","b":1}],[-0.5,{"type":"dirac","b":2}]]}',
        "mixture weight -0.5 is not positive",
    ),
    "pareto-mean-overflow": ('{"type":"pareto","alpha":1.5,"xmin":1e308}', "mean payoff overflows to inf"),
    "mixture-part": (
        '{"type":"mixture","parts":[[0.5,{"type":"dirac","b":1}],[0.5,{"type":"dirac","b":-1}]]}',
        "payoff -1 is negative",
    ),
    # A number given as a string or a boolean, which float() would read.
    "dirac-string": ('{"type":"dirac","b":"1_5"}', "payoff must be a real number, got '1_5'"),
    "dirac-bool": ('{"type":"dirac","b":true}', "payoff must be a real number, got True"),
    "atoms-string": ('{"type":"atoms","points":[["2",1]]}', "atom value must be a real number, got '2'"),
    "uniform-string": ('{"type":"uniform","lo":"0","hi":"1_0"}', "bin edge must be a real number, got '0'"),
    "mixture-weight-string": (
        '{"type":"mixture","parts":[["1",{"type":"dirac","b":1}]]}',
        "mixture weight must be a real number, got '1'",
    ),
    # json reads it as a Python int, which float() cannot convert.
    "dirac-beyond-double": ('{"type":"dirac","b":1' + "0" * 400 + "}", "payoff must be finite"),
}


@pytest.mark.parametrize("case", INVALID_SPECS)
def test_solve_invalid_distribution_exits_2(capsys, case):
    spec, violation = INVALID_SPECS[case]
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", spec)
    assert code == 2
    assert out == ""
    assert violation in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_solve_non_finite_parameter_exits_2(capsys):
    for spec in ('{"type":"dirac","b":Infinity}', '{"type":"pareto","alpha":NaN,"xmin":1}'):
        code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", spec)
        assert code == 2
        assert out == ""
        assert "finite" in err


def test_solve_bad_probability_exits_2(capsys):
    code, _, err = run(capsys, "solve", "--p", "1.5", "--dist", DIRAC)
    assert code == 2
    assert "probability" in err


SIMULATE = ["simulate", "--p", "0.6", "--dist", DIRAC, "--f", "0.2", "--n-rounds", "10", "--n-paths", "2"]
CURVE = ["curve", "--p", "0.6", "--dist", DIRAC, "--m", "4"]
NUMBER_FLAGS = {
    "--p": SIMULATE,
    "--f": SIMULATE,
    "--x0": SIMULATE,
    "--n-rounds": SIMULATE,
    "--n-paths": SIMULATE,
    "--seed": SIMULATE,
    "--m": CURVE,
    "--bins": ["ingest", "trades.csv"],
}


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0660"], ids=["underscore", "arabic-indic-digits"])
@pytest.mark.parametrize("flag", NUMBER_FLAGS)
def test_number_flags_take_ascii_digits_without_underscores(capsys, tmp_path, monkeypatch, flag, text):
    # float() and int() read both texts as 10; a CSV payload cell may not
    # hold them either. A flag given twice is parsed twice, so the valid
    # value before it does not hide the bad one.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trades.csv").write_text("win,1.5\nloss,\nwin,2.5\n")
    assert run(capsys, *NUMBER_FLAGS[flag])[0] == 0
    code, out, err = run(capsys, *NUMBER_FLAGS[flag], flag, text)
    assert code == 2
    assert out == ""
    assert f"argument {flag}: invalid" in err and repr(text) in err


def test_missing_flags_exit_2(capsys):
    assert run(capsys, "solve", "--p", "0.6")[0] == 2
    assert run(capsys, "solve", "--dist", DIRAC)[0] == 2
    # both sources at once is also a usage error
    code, _, _ = run(capsys, "solve", "--p", "0.6", "--dist", DIRAC, "--dist-file", "x.json")
    assert code == 2


# ---------- curve ----------


def test_curve_rows_and_first_row(capsys):
    code, out, _ = run(capsys, "curve", "--p", "0.6", "--dist", DIRAC, "--m", "2")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "0,0"
    assert len(rows) == 3
    f1, g1 = rows[1].split(",")
    assert float(f1) == pytest.approx(1 / 3, abs=1e-12)
    assert float(g1) == pytest.approx(0.010423200227802798, abs=1e-11)
    f2, g2 = rows[2].split(",")
    assert float(f2) == pytest.approx(2 / 3, abs=1e-12)
    assert float(g2) == pytest.approx(-0.1329495412076495, abs=1e-11)


def test_curve_unfavorable_is_nonincreasing(capsys):
    code, out, _ = run(capsys, "curve", "--p", "0.4", "--dist", DIRAC, "--m", "10")
    assert code == 0
    g = [float(row.split(",")[1]) for row in out.strip().split("\n")]
    assert all(a >= b - 1e-12 for a, b in zip(g, g[1:]))


def test_curve_rejects_small_grid(capsys):
    code, out, err = run(capsys, "curve", "--p", "0.6", "--dist", DIRAC, "--m", "0")
    assert code == 2
    assert out == ""
    assert "grid size must be >= 1" in err
    code, out, _ = run(capsys, "curve", "--p", "0.6", "--dist", DIRAC, "--m", "1")
    assert code == 0
    assert out == "0,0\n0.5,-0.0339798073591\n"


def test_curve_rejects_a_grid_over_the_limit(capsys):
    code, out, err = run(capsys, "curve", "--p", "0.6", "--dist", DIRAC, "--m", "1000000000000")
    assert (code, out) == (2, "")
    assert "MAX_CURVE_POINTS" in err and err.count("\n") == 1


# ---------- simulate ----------


def test_simulate_zero_fraction(capsys):
    code, out, _ = run(
        capsys,
        *["simulate", "--p", "0.6", "--dist", DIRAC, "--f", "0", "--n-rounds", "50"],
        *["--n-paths", "4", "--seed", "9"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mean_growth"] == 0.0
    assert payload["growth_rates"] == [0.0, 0.0, 0.0, 0.0]


def test_simulate_repeat_is_byte_identical(capsys):
    argv = [
        "simulate", "--p", "0.6", "--dist", TWO_ATOM,
        "--f", "0.25", "--n-rounds", "500", "--n-paths", "8", "--seed", "31",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    assert json.loads(first)["seed"] == 31


def test_simulate_optimum_beats_overbetting_same_seed(capsys):
    base = ["simulate", "--p", "0.6", "--dist", DIRAC, "--n-rounds", "2000",
            "--n-paths", "8", "--seed", "12"]
    _, at_opt, _ = run(capsys, *base, "--f", "0.2")
    _, over, _ = run(capsys, *base, "--f", "0.5")
    assert json.loads(at_opt)["mean_growth"] > json.loads(over)["mean_growth"]


def test_simulate_rejects_bad_fraction(capsys):
    code, _, err = run(
        capsys,
        *["simulate", "--p", "0.6", "--dist", DIRAC, "--f", "1.0"],
        *["--n-rounds", "10", "--n-paths", "2"],
    )
    assert code == 2
    assert "fraction" in err


def test_simulate_rejects_a_row_over_the_limit(capsys):
    code, out, err = run(
        capsys,
        *["simulate", "--p", "0.6", "--dist", '{"type":"uniform","lo":0.5,"hi":1.5}', "--f", "0.1"],
        *["--n-rounds", "1000000000000", "--n-paths", "2"],
    )
    assert (code, out) == (2, "")
    assert "MAX_ROW_FLOATS" in err and err.count("\n") == 1


@pytest.mark.parametrize("x0", ["0", "inf", "nan"])
def test_simulate_rejects_bad_bankroll(capsys, x0):
    code, out, err = run(
        capsys,
        *["simulate", "--p", "0.1", "--dist", '{"type":"dirac","b":0.1}', "--f", "0.99"],
        *["--n-rounds", "100000", "--n-paths", "2", "--x0", x0],
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: initial bankroll must be positive and finite")


# ---------- compare ----------


def test_compare_dirac_gap_zero(capsys):
    code, out, _ = run(capsys, "compare", "--p", "0.6", "--dist", DIRAC)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["f_hat", "f_star", "gap"]
    assert abs(payload["gap"]) < 1e-9


def test_compare_two_atom(capsys):
    code, out, _ = run(capsys, "compare", "--p", "0.6", "--dist", TWO_ATOM)
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["gap"] - 0.0101) < 5e-4
    assert payload["f_star"] == pytest.approx(1 / 3, abs=1e-12)


def test_compare_uniform_reports_mean_fraction(capsys):
    code, out, _ = run(
        capsys, "compare", "--p", "0.6", "--dist", '{"type":"uniform","lo":1,"hi":2}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["f_star"] == pytest.approx(1 / 3, abs=1e-9)
    assert payload["gap"] > 0


def test_compare_unfavorable_exits_4(capsys):
    code, out, err = run(capsys, "compare", "--p", "0.4", "--dist", DIRAC)
    assert code == 4
    assert out == ""
    assert "error:" in err


# ---------- ingest ----------


def test_ingest_basic(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("win,1.5\nloss,\nwin,2.0\n")
    code, out, _ = run(capsys, "ingest", str(csv))
    assert code == 0
    payload = json.loads(out)
    assert payload["p_hat"] == pytest.approx(2 / 3, abs=1e-9)
    assert payload["n_wins"] == 2 and payload["n_losses"] == 1
    assert payload["dist_spec"]["type"] == "atoms"
    assert len(payload["dist_spec"]["points"]) == 2


def test_ingest_bins(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    rows = [f"win,{1 + 0.1 * i}" for i in range(20)] + ["loss,"] * 10
    csv.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, "ingest", str(csv), "--bins", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["dist_spec"]["type"] == "histogram"
    assert len(payload["dist_spec"]["masses"]) == 4


def test_ingest_all_losses_exits_5(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("loss,\nloss,\n")
    code, _, err = run(capsys, "ingest", str(csv))
    assert code == 5
    assert "error:" in err


def test_ingest_parse_errors_exit_2_with_lines(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("win,1.0\nwin,-3\n")
    code, _, err = run(capsys, "ingest", str(csv))
    assert code == 2
    assert "line 2" in err and "negative payoff" in err


def test_ingest_of_a_log_that_is_not_utf8_exits_2_with_its_line(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_bytes(b"outcome,payoff\nwin,1.5\nloss,\nwin,\xff2\n")
    code, out, err = run(capsys, "ingest", str(csv))
    assert code == 2
    assert out == ""
    assert "line 4" in err and "not UTF-8" in err


def test_ingest_empty_and_missing_files_exit_2(capsys, tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(capsys, "ingest", str(empty))[0] == 2
    assert run(capsys, "ingest", str(tmp_path / "absent.csv"))[0] == 2


def test_ingest_then_solve_pipeline(capsys, tmp_path):
    # constant-payoff synthetic log: the pipeline must reproduce the
    # closed-form fraction for the estimated probability
    csv = tmp_path / "t.csv"
    csv.write_text("\n".join(["win,1.0"] * 7 + ["loss,"] * 3) + "\n")
    code, out, _ = run(capsys, "ingest", str(csv))
    assert code == 0
    spec = json.dumps(json.loads(out)["dist_spec"])
    p_hat = json.loads(out)["p_hat"]
    code, out, _ = run(capsys, "solve", "--p", str(p_hat), "--dist", spec)
    assert code == 0
    assert abs(json.loads(out)["f_hat"] - (0.7 * 2 - 1) / 1.0) < 1e-9


# ---------- output formatting ----------


def test_numbers_are_12_significant_digits(capsys):
    _, out, _ = run(capsys, "solve", "--p", "0.6", "--dist", TWO_ATOM)
    f_hat_text = out.split('"f_hat": ')[1].split(",")[0]
    mantissa = f_hat_text.replace("-", "").replace(".", "").lstrip("0")
    assert len(mantissa) <= 12


def test_writer_equals_the_two_step_reference():
    # cli._to_json must write the bytes of json.dumps(..., indent=2) on the
    # payload with every float rounded, or raise TypeError where that does.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.one_of(
        # Random bit patterns: ±0, subnormals, ±inf and NaNs among them.
        st.integers(0, 2**64 - 1).map(lambda n: struct.unpack("<d", struct.pack("<Q", n))[0]),
        # Integral values of 13 to 16 digits, which "%.12g" writes as "1.5e+13".
        st.integers(10**12, 10**16 - 1).map(float),
        st.sampled_from([0.0, -0.0, 3.0, -7.0, 1e-5, 0.1, 5e-324, math.inf, -math.inf, math.nan]),
        st.floats(),
    )
    # Quotes, backslashes, controls, non-ASCII, astral and a lone surrogate.
    text = st.text(st.sampled_from('"\\/\n\t\x00\x7faZé€😀\ud800'), max_size=6)
    rejected = st.sampled_from([np.int64(3), np.float32(1.5), np.bool_(True), np.zeros(2), b"x", {1}, object()])
    leaves = st.one_of(
        floats,
        floats.map(np.float64),
        st.integers(-(2**70), 2**70),
        st.booleans(),
        st.none(),
        text,
        rejected,
    )
    payloads = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(text, children, max_size=4),
        ),
        max_leaves=24,
    )

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(payloads)
    def check(payload):
        try:
            want = to_json_reference(payload)
        except TypeError:
            with pytest.raises(TypeError):
                cli._to_json(payload)
            return
        assert cli._to_json(payload) == want

    check()


def test_writer_rejects_dict_keys_that_are_not_strings():
    # json.dumps writes an int, float, bool or None key as a string; the
    # writer takes the string keys that every command's payload has.
    for key in (1, 1.5, True, None):
        with pytest.raises(TypeError):
            cli._to_json({key: 0.5})


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "solve", "--help")[0] == 0


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_handler_bug_is_not_reported_as_invalid_input(error, monkeypatch):
    # A TypeError or KeyError from inside a handler is a bug, not bad input:
    # it must propagate instead of exiting 2.
    def broken(args):
        raise error("bug in a handler")

    monkeypatch.setattr("varkelly.cli._run_solve", broken)
    with pytest.raises(error):
        main(["solve", "--p", "0.6", "--dist", DIRAC])


def test_ingest_cell_over_the_csv_field_limit_exits_2(capsys, tmp_path):
    csv = tmp_path / "t.csv"
    csv.write_text("outcome,payoff\nwin," + "9" * 200000 + "\nloss,\n")
    code, out, err = run(capsys, "ingest", str(csv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "line 2: unreadable row" in err
    assert err.count("\n") == 1


# ---------- repeated calls in one process ----------


def test_calls_in_one_process_do_not_depend_on_each_other(capsys, tmp_path):
    # Each argv must give the same exit code, stdout and stderr whichever
    # calls ran before it, so no option such as --out or --bins leaks.
    csv = tmp_path / "t.csv"
    csv.write_text("\n".join([f"win,{1 + 0.1 * i}" for i in range(20)] + ["loss,"] * 10) + "\n")
    simulate = ["simulate", "--p", "0.6", "--dist", TWO_ATOM, "--f", "0.25",
                "--n-rounds", "50", "--n-paths", "4", "--seed", "7"]
    calls = [
        ["solve", "--p", "0.6"],
        ["solve", "--help"],
        ["solve", "--p", "0.6", "--dist", DIRAC, "--out", str(tmp_path / "out.json")],
        ["solve", "--p", "0.6", "--dist", DIRAC],
        ["ingest", str(csv), "--bins", "5"],
        ["ingest", str(csv)],
        ["compare", "--p", "0.4", "--dist", DIRAC],
        simulate,
        simulate,
    ]
    forward = [run(capsys, *argv) for argv in calls]
    backward = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [2, 0, 0, 0, 0, 0, 4, 0, 0]
    assert forward[2][1] == "" and forward[3][1] != ""
    assert json.loads(forward[4][1])["dist_spec"]["type"] == "histogram"
    assert json.loads(forward[5][1])["dist_spec"]["type"] == "atoms"


def test_parser_is_built_at_most_once_per_process(monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(5):
        assert main(["compare", "--p", "0.4", "--dist", DIRAC]) == 4
    assert len(built) <= 1
