"""Turn historical trade logs into empirical game inputs.

The input is a CSV of rounds, one `outcome,payoff` row per round, where
outcome is "win" or "loss" (any case) and payoff is the realized b-to-1
winnings on a win (losses forfeit the stake, so their payoff column may
be empty). From those records we estimate the win probability and build
a payoff distribution: exact atoms over the observed win payoffs by
default, or an equal-width histogram when binning is requested.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import Atoms, Histogram, PayoffDistribution, _check_integer
from .errors import DegenerateSampleError, EmptyFileError, TradeParseError

WIN = "win"
LOSS = "loss"


@dataclass(frozen=True)
class TradeRecord:
    """One round: "win" or "loss", plus the realized payoff for wins."""

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
    # float() also reads digit-group underscores and non-ASCII digits.
    if not payoff_text.isascii() or "_" in payoff_text:
        return f"invalid payoff {payoff_text!r}"
    try:
        payoff = float(payoff_text)
    except ValueError:
        return f"invalid payoff {payoff_text!r}"
    if not math.isfinite(payoff):
        return "non-finite payoff"
    if payoff < 0:
        return "negative payoff"
    return TradeRecord(outcome, payoff)


def _feed(pending: list[str], lines):
    """The csv reader's input: the line in ``pending``, then, while a quoted
    cell is still open at the end of a line, the next lines of ``lines``."""
    while True:
        if pending:
            yield pending.pop()
        else:
            item = next(lines, None)
            if item is None:
                return
            yield item[1]


def load_trades(path) -> list[TradeRecord]:
    """Read trade records from a CSV file.

    The file is UTF-8, with or without a leading byte-order mark. Header
    row is optional (detected by a first cell spelling "outcome"). Blank
    lines are skipped. All malformed rows are collected and raised
    together as TradeParseError, each with the 1-based line its row
    starts on; a file with no data rows at all raises EmptyFileError.
    A row the csv module cannot read, such as one with a cell longer
    than ``csv.field_size_limit()``, is malformed too.

    Each distinct line is parsed once per call: a later copy of the same
    text, terminator included, costs a dict lookup and reuses the first
    copy's record, which is immutable, or its error reason. A line
    holding a '"' may open a quoted cell that runs on over the next
    lines, so it is parsed every time.
    """
    records: list[TradeRecord] = []
    errors: list[tuple[int, str]] = []
    outcomes: dict[str, TradeRecord | str | None] = {}
    saw_row = False
    with open(path, newline="", encoding="utf-8-sig") as handle:
        # One reader for the whole file. It reads a line only when handed
        # one, or when a quoted cell runs on, from the same numbered lines
        # as the loop, so the loop's numbers stay physical line numbers.
        lines = enumerate(handle, 1)
        pending: list[str] = []
        reader = csv.reader(_feed(pending, lines))
        for line, text in lines:
            if text in outcomes:
                outcome = outcomes[text]
            else:
                pending.append(text)
                try:
                    row = next(reader)
                except csv.Error as exc:
                    # A cell over csv.field_size_limit(), or on Python 3.10
                    # a NUL byte. The reader drops the rest of the line it
                    # failed on and starts afresh at the next one.
                    row, outcome = None, f"unreadable row: {exc}"
                else:
                    outcome = _classify(row)
                if not saw_row:
                    # The header rule is positional: rows up to the first
                    # data row stay out of the memo, so each is parsed.
                    if outcome is None or row and row[0].strip().lower() == "outcome":
                        continue  # blank or header
                    saw_row = True
                if '"' not in text:
                    outcomes[text] = outcome
            if type(outcome) is TradeRecord:
                records.append(outcome)
            elif outcome is not None:
                errors.append((line, outcome))
    if errors:
        raise TradeParseError(errors)
    if not records:
        raise EmptyFileError(f"no trade rows in {path}")
    return records


def build_empirical(records, bins: int | None = None) -> EmpiricalSummary:
    """Estimate the game from records.

    Without ``bins``, the payoff distribution is exact: one atom per
    distinct win payoff, weighted by its observed frequency. With
    ``bins``, payoffs are binned into that many equal-width bins
    spanning [min, max]. Requires at least one win and one loss.
    """
    wins = [r.payoff for r in records if r.outcome == WIN]
    n_wins = len(wins)
    n_losses = len(records) - n_wins
    if n_wins == 0 or n_losses == 0:
        raise DegenerateSampleError(
            f"need both outcomes to estimate the game, got {n_wins} wins / {n_losses} losses"
        )
    if bins is None:
        counts = Counter(wins)
        dist = Atoms([(b, counts[b] / n_wins) for b in sorted(counts)])
    else:
        bins = _check_integer("bins", bins)
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        lo, hi = min(wins), max(wins)
        if lo == hi:
            raise ValueError(
                f"cannot bin: all {n_wins} win payoffs equal {lo:.12g} (zero-width range)"
            )
        counts, edges = np.histogram(wins, bins=bins, range=(lo, hi))
        dist = Histogram(edges, counts / n_wins)
    return EmpiricalSummary(
        p_hat=n_wins / (n_wins + n_losses), dist=dist, n_wins=n_wins, n_losses=n_losses
    )
