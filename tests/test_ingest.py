"""Tests for trade-log parsing and empirical game estimation."""

import gc
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from varkelly import ingest
from varkelly.distributions import Atoms, Histogram
from varkelly.errors import DegenerateSampleError, EmptyFileError, TradeParseError
from varkelly.ingest import TradeRecord, build_empirical, load_trades
from varkelly.kelly import GameSpec, solve_kelly

from ingest_reference import build_empirical_per_row, load_trades_per_row


def write(tmp_path, text, name="trades.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


# ---------- load_trades ----------


def test_basic_file(tmp_path):
    records = load_trades(write(tmp_path, "win,1.5\nloss,\nwin,2.0\nwin,1.50\n"))
    assert records == Counter(
        {TradeRecord("win", 1.5): 2, TradeRecord("loss", None): 1, TradeRecord("win", 2.0): 1}
    )


def test_header_is_optional(tmp_path):
    with_header = load_trades(write(tmp_path, "outcome,payoff\nwin,1.5\nloss,\n"))
    without = load_trades(write(tmp_path, "win,1.5\nloss,\n", name="b.csv"))
    assert with_header == without


def test_case_and_whitespace_insensitive(tmp_path):
    records = load_trades(write(tmp_path, "WIN, 1.5\nLoss ,\n Win,2\n"))
    assert list(records) == [TradeRecord("win", 1.5), TradeRecord("loss"), TradeRecord("win", 2.0)]


def test_crlf_and_blank_lines(tmp_path):
    records = load_trades(write(tmp_path, "win,1.0\r\n\r\nloss,\r\nwin,2.0\r\n"))
    assert records.total() == 3


def test_loss_payoff_is_kept_but_optional(tmp_path):
    records = load_trades(write(tmp_path, "loss,0.7\nwin,1.0\n"))
    assert records == Counter([TradeRecord("loss", 0.7), TradeRecord("win", 1.0)])


def test_all_errors_are_collected_with_line_numbers(tmp_path):
    text = "win,1.0\nwin,-1.0\ndraw,1.0\nwin,\nwin,abc\nwin,1.0,extra\nloss,\n"
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, text))
    failures = dict(excinfo.value.errors)
    assert set(failures) == {2, 3, 4, 5, 6}
    assert "negative payoff" in failures[2]
    assert "unknown outcome" in failures[3]
    assert "missing payoff" in failures[4]
    assert "invalid payoff" in failures[5]
    assert "expected 2 fields" in failures[6]
    assert excinfo.value.line == 2
    assert "negative payoff" in excinfo.value.reason
    assert str(excinfo.value) == (
        "5 malformed row(s): line 2: negative payoff; line 3: unknown outcome 'draw'; "
        "line 4: missing payoff on win; line 5: invalid payoff 'abc'; "
        "line 6: expected 2 fields, got 3"
    )


def test_message_lists_the_first_ten_rows_and_counts_the_rest(tmp_path):
    text = "".join(f"win,-{k}\n" for k in range(1, 20_001))
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, text))
    assert excinfo.value.errors == [(k, "negative payoff") for k in range(1, 20_001)]
    listed = "; ".join(f"line {k}: negative payoff" for k in range(1, 11))
    assert str(excinfo.value) == f"20000 malformed row(s): {listed}; and 19990 more"
    ten = TradeParseError([(k, "negative payoff") for k in range(1, 11)])
    assert str(ten) == f"10 malformed row(s): {listed}"


def test_each_copy_of_a_repeated_malformed_row_is_reported(tmp_path):
    text = "win,-1\nloss,\nwin,-1\nwin,1.5\nwin,-1\nwin,1.5\n"
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, text))
    assert excinfo.value.errors == [(1, "negative payoff"), (3, "negative payoff"), (5, "negative payoff")]


@pytest.mark.parametrize(
    "text",
    ["\ufeffoutcome,payoff\nwin,1.5\nloss,\n", "\ufeffwin,1.5\nloss,\n"],
    ids=["header", "no-header"],
)
def test_utf8_byte_order_mark_is_skipped(tmp_path, text):
    # Spreadsheet "CSV UTF-8" exports start with one.
    records = load_trades(write(tmp_path, text))
    assert records == Counter([TradeRecord("win", 1.5), TradeRecord("loss")])


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("losses", [1, 5000], ids=["short", "long"])
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["no-bom", "bom"])
def test_a_log_that_is_not_utf8_names_the_line_of_the_first_bad_byte(tmp_path, bom, losses, end):
    # The bad byte is on the row after the last loss; 5000 losses put it
    # past the first block that the decoder reads.
    rows = ["outcome,payoff", "win,1.5"] + ["loss,"] * losses
    text = bom + "".join(row + end for row in rows)
    path = tmp_path / "trades.csv"
    path.write_bytes(text.encode("utf-8") + b"win,\xff2" + end.encode())
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(path)
    assert excinfo.value.errors == [(len(rows) + 1, "byte 0xff is not UTF-8 (invalid start byte)")]


def test_header_counts_toward_line_numbers(tmp_path):
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, "outcome,payoff\nwin,-2\n"))
    assert excinfo.value.line == 2


def test_line_numbers_count_physical_lines_of_quoted_fields(tmp_path):
    # The quoted payoff spans lines 2-3, so the negative payoff is on line 5.
    text = 'outcome,payoff\n"win","1\n.5"\nloss,\nwin,-2\n'
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, text))
    assert excinfo.value.errors == [(2, "invalid payoff '1\\n.5'"), (5, "negative payoff")]


LONG_CELL = "9" * 200000


@pytest.mark.parametrize(
    "text",
    [f"win,1.5\nwin,{LONG_CELL}\nloss,\nwin,-1\n", f'win,1.5\n"win","1\n{LONG_CELL}"\nwin,-1\n'],
    ids=["plain", "quoted"],
)
def test_a_cell_over_the_csv_field_limit_is_a_malformed_row(tmp_path, text):
    # csv raises csv.Error on a cell longer than csv.field_size_limit(),
    # 131072 by default. In both files the long row starts on line 2 and
    # the negative payoff is on line 4; the quoted row spans lines 2-3.
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, text))
    (line, reason), later = excinfo.value.errors
    assert line == 2 and reason.startswith("unreadable row: ")
    assert later == (4, "negative payoff")


def test_payoff_is_ascii_decimal_text(tmp_path):
    # float() reads these as 15.0, 1.5 and 12.0.
    text = "win,1_5\nwin,\uff11.\uff15\nwin,\u0661\u0662\nwin,1.5e0\n"
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, text))
    assert excinfo.value.errors == [
        (1, "invalid payoff '1_5'"),
        (2, "invalid payoff '\uff11.\uff15'"),
        (3, "invalid payoff '\u0661\u0662'"),
    ]


def test_non_finite_payoff_rejected(tmp_path):
    with pytest.raises(TradeParseError) as excinfo:
        load_trades(write(tmp_path, "win,inf\nwin,nan\n"))
    assert all("non-finite" in reason for _, reason in excinfo.value.errors)


def test_empty_inputs(tmp_path):
    with pytest.raises(EmptyFileError):
        load_trades(write(tmp_path, ""))
    with pytest.raises(EmptyFileError):
        load_trades(write(tmp_path, "outcome,payoff\n", name="h.csv"))
    with pytest.raises(EmptyFileError):
        load_trades(write(tmp_path, "\n\n", name="blank.csv"))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_trades(tmp_path / "nope.csv")


# ---------- load_trades against the row-by-row reference ----------


def per_row_tally(path):
    """The row-by-row reference's records, as a multiset."""
    return Counter(load_trades_per_row(path))


def _loaded(load, path):
    """What ``load(path)`` returns, or the errors it raises."""
    try:
        return load(path)
    except TradeParseError as exc:
        return "TradeParseError", exc.errors, str(exc)
    except EmptyFileError as exc:
        return "EmptyFileError", str(exc)


# Valid wins and losses, blank rows, headers in mixed case and out of
# place, extra fields, bad payoffs, quoted cells that span lines, and
# rows whose text equals a line inside one of those quoted cells.
ROWS = (
    "win,1.5", "WIN, 1.5", "win,2", " Loss ,", "loss,", "loss,0.7",
    "", " ", ",", " , ", ",,", " , ,", ",1.5",
    "outcome,payoff", "Outcome,Payoff", " OUTCOME ,", '"outcome\n",payoff',
    "win,1.5,extra", "win", "draw,1.0", "win,", "win,-1", "loss,-1",
    "win,abc", "win,1_5", "win,inf", "win,nan",
    '"win","1\n.5"', '"loss\n",', '"win","\n2.5\n"',
    '.5"', "2.5", '",',
)
TERMINATORS = ("\n", "\r\n", "\r")


def test_load_trades_equals_the_per_row_reference(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    path = tmp_path / "trades.csv"

    # Each row ends in its own terminator, a lone "\r" included, and the
    # last row may have none.
    @hypothesis.settings(derandomize=True, deadline=None, max_examples=400)
    @hypothesis.given(
        st.lists(st.tuples(st.sampled_from(ROWS), st.sampled_from(TERMINATORS)), max_size=40),
        st.booleans(),
        st.sampled_from(("", "\ufeff")),
    )
    def check(rows, last_ends, bom):
        text = "".join(row + end for row, end in rows)
        if rows and not last_ends:
            text = text[: -len(rows[-1][1])]
        path.write_bytes((bom + text).encode("utf-8"))
        assert _loaded(load_trades, path) == _loaded(per_row_tally, path)

    check()


def _long_log(tmp_path, in_cents):
    """A 20000-row log: payoffs rounded to cents, or every row distinct."""
    rng = np.random.default_rng(11)
    wins = rng.random(20_000) < 0.55
    payoffs = rng.lognormal(0.0, 0.5, 20_000)
    if in_cents:
        rows = [f"win,{b:.2f}" if w else "loss," for w, b in zip(wins, payoffs)]
    else:  # every row distinct, losses included
        rows = [f"{'win' if w else 'loss'},{float(b)!r}" for w, b in zip(wins, payoffs)]
    return write(tmp_path, "outcome,payoff\n" + "\n".join(rows) + "\n")


@pytest.mark.parametrize("in_cents", [True, False], ids=["cents", "all-distinct"])
def test_load_trades_equals_the_per_row_reference_on_a_long_log(tmp_path, in_cents):
    path = _long_log(tmp_path, in_cents)
    records = load_trades(path)
    assert records.total() == 20_000
    assert records == per_row_tally(path)


def test_memo_of_a_log_without_repeats_stays_small(tmp_path):
    # Every line is new, so the memo keeps all 20000. Measured on Python
    # 3.11, it adds 1.9 MB to the row-by-row parse's 3.5 MB peak; keyed on
    # each row's tuple of cells, it added 4.1 MB.
    path = _long_log(tmp_path, in_cents=False)

    def peak(load):
        gc.collect()
        tracemalloc.start()
        try:
            load(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(load_trades) - peak(load_trades_per_row) < 3_000_000


def test_load_trades_runs_no_python_line_per_row(tmp_path):
    # The cents log has 20000 rows and about 380 distinct lines.
    path = _long_log(tmp_path, in_cents=True)
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return count_lines

    def trace(frame, event, arg):
        return count_lines if frame.f_code.co_filename == ingest.__file__ else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        load_trades(path)
    finally:
        sys.settrace(previous)
    assert 0 < lines < 20_000


@pytest.mark.parametrize("in_cents", [True, False], ids=["cents", "all-distinct"])
def test_laws_from_the_tally_equal_those_of_each_row(tmp_path, in_cents):
    path = _long_log(tmp_path, in_cents)
    tally, rows = load_trades(path), load_trades_per_row(path)
    for bins in (None, 7):
        got = build_empirical(tally, bins=bins)
        for want in (build_empirical(rows, bins=bins), build_empirical_per_row(rows, bins)):
            assert got.dist.to_spec() == want.dist.to_spec()
            assert (got.p_hat, got.n_wins, got.n_losses) == (want.p_hat, want.n_wins, want.n_losses)


# ---------- build_empirical ----------


def test_three_record_example():
    summary = build_empirical(
        [TradeRecord("win", 1.5), TradeRecord("loss"), TradeRecord("win", 2.0)]
    )
    assert summary.p_hat == pytest.approx(2 / 3, abs=1e-15)
    assert summary.n_wins == 2 and summary.n_losses == 1
    assert summary.dist == Atoms([(1.5, 0.5), (2.0, 0.5)])


def test_repeated_payoffs_deduplicate():
    records = [TradeRecord("win", 1.0)] * 100 + [TradeRecord("loss")] * 100
    summary = build_empirical(records)
    assert summary.p_hat == 0.5
    assert summary.dist == Atoms([(1.0, 1.0)])


def test_empirical_mean_equals_sample_mean():
    rng = np.random.default_rng(8)
    payoffs = rng.uniform(0.5, 3.0, 500)
    records = [TradeRecord("win", float(b)) for b in payoffs] + [TradeRecord("loss")] * 200
    summary = build_empirical(records)
    assert summary.dist.mean() == pytest.approx(payoffs.mean(), abs=1e-12)


def test_degenerate_samples_rejected():
    with pytest.raises(DegenerateSampleError):
        build_empirical([TradeRecord("win", 1.0)])
    with pytest.raises(DegenerateSampleError):
        build_empirical([TradeRecord("loss"), TradeRecord("loss")])


def test_binned_histogram():
    records = [TradeRecord("win", b) for b in (1.0, 1.2, 1.9, 2.5, 3.0)]
    records += [TradeRecord("loss")] * 5
    summary = build_empirical(records, bins=2)
    dist = summary.dist
    assert isinstance(dist, Histogram)
    assert dist.edges[0] == 1.0 and dist.edges[-1] == 3.0
    assert len(dist.masses) == 2
    assert float(dist.masses.sum()) == pytest.approx(1.0, abs=1e-12)


def test_binning_identical_payoffs_rejected():
    records = [TradeRecord("win", 2.0)] * 5 + [TradeRecord("loss")] * 5
    with pytest.raises(ValueError):
        build_empirical(records, bins=3)
    records = [TradeRecord("win", 1.0), TradeRecord("win", 2.0), TradeRecord("loss")]
    with pytest.raises(ValueError):
        build_empirical(records, bins=0)
    for bins in (1.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="bins must be an integer"):
            build_empirical(records, bins=bins)
    for bins in (np.int64(2), 2.0):
        assert build_empirical(records, bins=bins).dist.masses.tolist() == [0.5, 0.5]


def test_round_trip_recovery():
    # records sampled from a known game; the estimate must approach it
    truth = GameSpec(0.6, Atoms([(1.0, 0.5), (2.0, 0.5)]))
    rng = np.random.default_rng(314)
    n = 20_000
    wins = rng.random(n) < truth.p
    payoffs = truth.dist.sample(rng, int(wins.sum()))
    records = [TradeRecord("win", float(b)) for b in payoffs]
    records += [TradeRecord("loss")] * int(n - wins.sum())
    summary = build_empirical(records)
    se_p = math.sqrt(0.6 * 0.4 / n)
    assert abs(summary.p_hat - 0.6) < 4 * se_p
    weights = dict(zip(summary.dist.values, summary.dist.weights))
    se_w = math.sqrt(0.25 / summary.n_wins)
    assert abs(weights[1.0] - 0.5) < 4 * se_w
    assert abs(weights[2.0] - 0.5) < 4 * se_w
    fitted = solve_kelly(GameSpec(summary.p_hat, summary.dist))
    direct = solve_kelly(truth)
    assert abs(fitted.f_hat - direct.f_hat) < 0.05


def test_pipeline_on_constant_payoff_matches_classical():
    records = [TradeRecord("win", 1.0)] * 70 + [TradeRecord("loss")] * 30
    summary = build_empirical(records)
    solution = solve_kelly(GameSpec(summary.p_hat, summary.dist))
    assert solution.f_hat == pytest.approx(0.4, abs=1e-9)

