"""Row-by-row references for ``varkelly.ingest``.

``load_trades_per_row`` parses every row afresh, in file order, with no
tally. The tests require ``load_trades`` to return the same records as a
multiset, or raise the same errors, as this loop on every file.
``build_empirical_per_row`` estimates the law from a list of every row's
record; ``build_empirical`` must give the same law to the last bit.
"""

import csv
import math
from collections import Counter

import numpy as np

from varkelly.distributions import Atoms, Histogram
from varkelly.errors import EmptyFileError, TradeParseError
from varkelly.ingest import LOSS, WIN, EmpiricalSummary, TradeRecord


def _parse_payoff(text: str) -> tuple[float | None, str | None]:
    """Parse one payoff cell; returns (value, error_reason)."""
    try:
        # float() also reads digit-group underscores and non-ASCII digits.
        if not text.isascii() or "_" in text:
            raise ValueError
        value = float(text)
    except ValueError:
        return None, f"invalid payoff {text!r}"
    if not math.isfinite(value):
        return None, "non-finite payoff"
    if value < 0:
        return None, "negative payoff"
    return value, None


def load_trades_per_row(path) -> list[TradeRecord]:
    records: list[TradeRecord] = []
    errors: list[tuple[int, str]] = []
    saw_row = False
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        start = 1  # the line the next row starts on: a quoted field may span lines
        for row in reader:
            line, start = start, reader.line_num + 1
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if not saw_row and cells[0].lower() == "outcome":
                continue  # header
            saw_row = True
            if len(cells) != 2:
                errors.append((line, f"expected 2 fields, got {len(cells)}"))
                continue
            outcome, payoff_text = cells[0].lower(), cells[1]
            if outcome not in (WIN, LOSS):
                errors.append((line, f"unknown outcome {cells[0]!r}"))
                continue
            if outcome == WIN and not payoff_text:
                errors.append((line, "missing payoff on win"))
                continue
            payoff = None
            if payoff_text:
                payoff, problem = _parse_payoff(payoff_text)
                if problem is not None:
                    errors.append((line, problem))
                    continue
            records.append(TradeRecord(outcome, payoff))
    if errors:
        raise TradeParseError(errors)
    if not records:
        raise EmptyFileError(f"no trade rows in {path}")
    return records


def build_empirical_per_row(records: list[TradeRecord], bins=None) -> EmpiricalSummary:
    wins = [r.payoff for r in records if r.outcome == WIN]
    n_wins = len(wins)
    if bins is None:
        counts = Counter(wins)
        dist = Atoms([(b, counts[b] / n_wins) for b in sorted(counts)])
    else:
        counts, edges = np.histogram(wins, bins=bins, range=(min(wins), max(wins)))
        dist = Histogram(edges, counts / n_wins)
    return EmpiricalSummary(n_wins / len(records), dist, n_wins, len(records) - n_wins)
