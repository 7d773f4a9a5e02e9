"""End-to-end tests of the command-line interface (in-process)."""

import json

import pytest

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


def test_solve_bad_json_exits_2(capsys):
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", "not json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


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
}


@pytest.mark.parametrize("case", INVALID_SPECS)
def test_solve_invalid_distribution_exits_2(capsys, case):
    spec, violation = INVALID_SPECS[case]
    code, out, err = run(capsys, "solve", "--p", "0.6", "--dist", spec)
    assert code == 2
    assert out == ""
    assert violation in err


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
