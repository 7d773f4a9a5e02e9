"""Turn historical trade logs into empirical game inputs.

The input is a CSV of rounds, one `outcome,payoff` row per round, where
outcome is "win" or "loss" (any case) and payoff is the realized b-to-1
winnings on a win (losses forfeit the stake, so their payoff column may
be empty). From those records we estimate the win probability and build
a payoff distribution: exact atoms over the observed win payoffs by
default, or an equal-width histogram when binning is requested. A
maximum-likelihood Pareto fit is available for heavy upper tails.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .distributions import Atoms, Histogram, Pareto, PayoffDistribution
from .errors import (
    DegenerateSampleError,
    EmptyFileError,
    InfiniteMeanFitError,
    InsufficientTailError,
    TradeParseError,
)

WIN = "win"
LOSS = "loss"

# Minimum exceedances for a meaningful tail fit.
MIN_TAIL_SAMPLES = 10


@dataclass(frozen=True)
class TradeRecord:
    """One round: "win" or "loss", plus the realized payoff for wins."""

    outcome: str
    payoff: float | None = None

    @property
    def is_win(self) -> bool:
        return self.outcome == WIN


@dataclass(frozen=True)
class EmpiricalSummary:
    """Estimated game: win frequency and the empirical payoff distribution."""

    p_hat: float
    dist: PayoffDistribution
    n_wins: int
    n_losses: int


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


def load_trades(path) -> list[TradeRecord]:
    """Read trade records from a CSV file.

    Header row is optional (detected by a first cell spelling "outcome").
    Blank lines are skipped. All malformed rows are collected and raised
    together as TradeParseError, each with the 1-based line its row
    starts on; a file with no data rows at all raises EmptyFileError.
    """
    records: list[TradeRecord] = []
    errors: list[tuple[int, str]] = []
    saw_row = False
    with open(path, newline="", encoding="utf-8") as handle:
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


def build_empirical(records, bins: int | None = None) -> EmpiricalSummary:
    """Estimate the game from records.

    Without ``bins``, the payoff distribution is exact: one atom per
    distinct win payoff, weighted by its observed frequency. With
    ``bins``, payoffs are binned into that many equal-width bins
    spanning [min, max]. Requires at least one win and one loss.
    """
    wins = [r.payoff for r in records if r.is_win]
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
        bins = int(bins)
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


def fit_pareto_tail(win_payoffs, xmin: float) -> Pareto:
    """Maximum-likelihood Pareto fit to the payoffs strictly above xmin.

    alpha_hat = n_tail / sum(log(b_i / xmin)). Needs at least
    MIN_TAIL_SAMPLES exceedances; an estimate alpha_hat <= 1 (infinite
    mean) is rejected as InfiniteMeanFitError.
    """
    xmin = float(xmin)
    if xmin <= 0:
        raise ValueError(f"xmin must be positive, got {xmin}")
    tail = np.asarray([b for b in win_payoffs if b > xmin], dtype=float)
    if len(tail) < MIN_TAIL_SAMPLES:
        raise InsufficientTailError(
            f"only {len(tail)} payoffs above xmin = {xmin:.12g}, "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    alpha_hat = len(tail) / float(np.log(tail / xmin).sum())
    if alpha_hat <= 1:
        raise InfiniteMeanFitError(
            f"fitted alpha = {alpha_hat:.12g} <= 1 implies an infinite mean payoff"
        )
    return Pareto(alpha=alpha_hat, xmin=xmin)
