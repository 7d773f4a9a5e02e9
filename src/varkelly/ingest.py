"""Turn historical trade logs into empirical game inputs.

The input is a CSV of rounds, one `outcome,payoff` row per round, where
outcome is "win" or "loss" (any case) and payoff is the realized b-to-1
winnings on a win (losses forfeit the stake, so their payoff column may
be empty). From those records we estimate the win probability and build
a payoff distribution: exact atoms over the observed win payoffs by
default, or an equal-width histogram when binning is requested.

A log is read as a multiset: ``load_trades`` returns a ``Counter`` of its
distinct records and their row counts, and ``build_empirical`` estimates
from those counts. Reading and tallying the lines runs in C, so the
Python work in both grows with the number of distinct lines, not rows.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from typing import NamedTuple

import numpy as np

from .distributions import Atoms, Histogram, PayoffDistribution, _check_integer, _float_text
from .errors import DegenerateSampleError, EmptyFileError, TradeParseError

WIN = "win"
LOSS = "loss"


class TradeRecord(NamedTuple):
    """One round: "win" or "loss", plus the realized payoff for wins.

    A tuple, so that it hashes in C: a log is tallied by record.
    """

    outcome: str
    payoff: float | None = None


@dataclass(frozen=True)
class EmpiricalSummary:
    """Estimated game: win frequency and the empirical payoff distribution."""

    p_hat: float
    dist: PayoffDistribution
    n_wins: int
    n_losses: int


def _classify(row: list[str]) -> TradeRecord | str | None:
    """The outcome of one CSV row: its record, the reason it is malformed,
    or None for a blank row, one whose cells are all whitespace."""
    if len(row) != 2:
        return f"expected 2 fields, got {len(row)}" if "".join(row).strip() else None
    outcome_cell, payoff_text = row[0].strip(), row[1].strip()
    outcome = outcome_cell.lower()
    if outcome not in (WIN, LOSS):
        return f"unknown outcome {outcome_cell!r}" if outcome or payoff_text else None
    if not payoff_text:
        return TradeRecord(outcome) if outcome == LOSS else "missing payoff on win"
    try:
        payoff = _float_text(payoff_text)
    except ValueError:
        return f"invalid payoff {payoff_text!r}"
    if not math.isfinite(payoff):
        return "non-finite payoff"
    if payoff < 0:
        return "negative payoff"
    return TradeRecord(outcome, payoff)


def _row_at(lines: list[str], i: int) -> tuple[TradeRecord | str | None, list[str] | None, int]:
    """The row that starts on ``lines[i]``: its outcome, as ``_classify``
    gives it or the reason the csv module could not read it, its cells,
    and the number of lines it spans."""
    reader = csv.reader(map(lines.__getitem__, range(i, len(lines))))
    try:
        row = next(reader)
    except csv.Error as exc:
        # A cell over csv.field_size_limit(), or on Python 3.10 a NUL byte.
        # The reader drops the rest of the line it failed on.
        return f"unreadable row: {exc}", None, reader.line_num
    return _classify(row), row, reader.line_num


def load_trades(path) -> Counter[TradeRecord]:
    """Read trade records from a CSV file, as a multiset.

    Returns a ``Counter`` that maps each distinct record to its number of
    rows. The file is UTF-8, with or without a leading byte-order mark.
    Header row is optional (detected by a first cell spelling "outcome").
    Blank lines are skipped. All malformed rows are collected and raised
    together as TradeParseError, each with the 1-based line its row
    starts on; a file with no data rows at all raises EmptyFileError.
    A row the csv module cannot read, such as one with a cell longer
    than ``csv.field_size_limit()``, is malformed too, and so is a file
    that is not UTF-8: its error names the line of the first bad byte.

    The lines are read and tallied in C, and each distinct line is parsed
    once. Only three rules depend on where a line sits, and each is
    applied only where it applies: rows before the first data row may be
    headers; a row that starts on a line holding a '"' may open a quoted
    cell that runs on over the next lines, so it is parsed where it
    stands; and the line numbers of malformed rows are found only when
    raising.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        # A physical line ends in "\n", "\r\n" or a lone "\r".
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        reason = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise TradeParseError([(line, reason)]) from None
    lines = io.StringIO(text.removeprefix("\ufeff"), newline="").readlines()
    # The header rule is positional: it holds only up to the first data row.
    start = 0
    while start < len(lines):
        outcome, row, span = _row_at(lines, start)
        if outcome is not None and not (row and row[0].strip().lower() == "outcome"):
            break
        start += span
    tally = Counter(islice(lines, start, None))
    # Rows that start on a line holding '"': (line number, outcome) each,
    # and the lines each spans, which leave the tally.
    quoted_rows: list[tuple[int, TradeRecord | str | None]] = []
    spans: list[tuple[int, int]] = []
    quoted = {text for text in tally if '"' in text}
    if quoted:
        end = start
        holds_quote = map(quoted.__contains__, islice(lines, start, None))
        for i in compress(range(start, len(lines)), holds_quote):
            if i < end:
                continue  # inside the quoted row before it
            outcome, _, span = _row_at(lines, i)
            quoted_rows.append((i + 1, outcome))
            end = i + span
            spans.append((i, end))
        tally -= Counter(chain.from_iterable(lines[i:end] for i, end in spans))
    records: Counter[TradeRecord] = Counter()
    tallied = records.get  # records[outcome] += n would call Counter.__missing__
    reasons: dict[str, str] = {}  # line text -> why its row is malformed
    reader = csv.reader(tally)  # one row per line, as no line left holds '"'
    for text, n in tally.items():
        try:
            outcome = _classify(next(reader))
        except csv.Error as exc:
            outcome = f"unreadable row: {exc}"
        if type(outcome) is TradeRecord:
            records[outcome] = tallied(outcome, 0) + n
        elif outcome is not None:
            reasons[text] = outcome
    errors = [(line, outcome) for line, outcome in quoted_rows if type(outcome) is str]
    records.update(outcome for _, outcome in quoted_rows if type(outcome) is TradeRecord)
    if reasons:
        starts_row = list(map(reasons.__contains__, lines))
        for i, end in [(0, start), *spans]:
            starts_row[i:end] = [False] * (end - i)
        texts = compress(lines, starts_row)
        errors += zip(compress(count(1), starts_row), map(reasons.__getitem__, texts))
        errors.sort()
    if errors:
        raise TradeParseError(errors)
    if not records:
        raise EmptyFileError(f"no trade rows in {path}")
    return records


def build_empirical(records, bins: int | None = None) -> EmpiricalSummary:
    """Estimate the game from records.

    ``records`` is the ``Counter`` that ``load_trades`` returns, or any
    iterable of TradeRecord; the cost is O(distinct records). Without
    ``bins``, the payoff distribution is exact: one atom per distinct win
    payoff, weighted by its observed frequency. With ``bins``, payoffs
    are binned into that many equal-width bins spanning [min, max].
    Requires at least one win and one loss.
    """
    counts = Counter(records)
    # Equal records share a key, so each win payoff appears once.
    won = [outcome == WIN for outcome, _ in counts]
    payoffs = np.array([payoff for _, payoff in compress(counts, won)], dtype=float)
    rows = np.array(list(compress(counts.values(), won)), dtype=np.int64)
    n_wins = int(rows.sum())
    n_losses = counts.total() - n_wins
    if n_wins == 0 or n_losses == 0:
        raise DegenerateSampleError(
            f"need both outcomes to estimate the game, got {n_wins} wins / {n_losses} losses"
        )
    if bins is None:
        order = payoffs.argsort()
        dist = Atoms(zip(payoffs[order].tolist(), (rows[order] / n_wins).tolist()))
    else:
        bins = _check_integer("bins", bins)
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        lo, hi = payoffs.min(), payoffs.max()
        if lo == hi:
            raise ValueError(
                f"cannot bin: all {n_wins} win payoffs equal {lo:.12g} (zero-width range)"
            )
        binned, edges = np.histogram(payoffs, bins=bins, range=(lo, hi), weights=rows)
        dist = Histogram(edges, binned / n_wins)
    return EmpiricalSummary(
        p_hat=n_wins / (n_wins + n_losses), dist=dist, n_wins=n_wins, n_losses=n_losses
    )
