"""Row-by-row reference for ``varkelly.ingest.load_trades``.

Parses every row afresh, with no memo of repeated rows. The tests require
``load_trades`` to return the same records, or raise the same errors, as
this loop on every file.
"""

import csv
import math

from varkelly.errors import EmptyFileError, TradeParseError
from varkelly.ingest import LOSS, WIN, TradeRecord


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
