"""Optimal bet sizing for repeated games with a random win payoff.

A game is a win probability p plus a payoff distribution for b (the
winnings per unit staked, at b-to-1 odds). Betting a fixed fraction f of
the bankroll each round compounds at the expected log growth rate

    g(f) = (1 - p) * log(1 - f) + p * E[log(1 + b f)],

whose derivative is g'(f) = p * E[b / (1 + b f)] - (1 - p) / (1 - f).
For a favorable game (p * (1 + E[b]) > 1) the optimum is the unique
root of g' in (0, 1); for an unfavorable or break-even game the optimum
is to not bet. ``solve_kelly`` brackets that root below the
fixed-payoff fraction computed from the mean payoff, which is always at
least as large, and shrinks the bracket until its ends are adjacent
doubles; ``jensen_compare`` contrasts the two fractions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import PayoffDistribution, _check_fraction
from .errors import NotFavorableError

STATUS_SOLVED = "solved"
STATUS_NO_BET = "no_bet"


@dataclass(frozen=True)
class GameSpec:
    """A repeated game: win probability plus the win payoff distribution.

    Raises ValueError unless 0 < p < 1.
    """

    p: float
    dist: PayoffDistribution

    def __post_init__(self):
        p = float(self.p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"win probability must lie in (0, 1), got {p}")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        """Loss probability 1 - p."""
        return 1.0 - self.p


@dataclass(frozen=True)
class EdgeReport:
    """Expected gain per unit staked and whether it is positive."""

    edge: float
    favorable: bool


@dataclass(frozen=True)
class KellySolution:
    """Solver output.

    f_hat       - optimal fraction: the smallest double at which g' <= 0
                  (0.0 when not betting)
    growth      - g(f_hat)
    residual    - g'(f_hat); for no_bet this is g'(0), i.e. the edge
    f_star_mean - fixed-payoff fraction at the mean payoff (0.0 when not betting)
    jensen_gap  - f_star_mean - f_hat
    status      - "solved" or "no_bet"
    """

    f_hat: float
    growth: float
    residual: float
    f_star_mean: float
    jensen_gap: float
    status: str


@dataclass(frozen=True)
class GrowthCurve:
    """Growth rate g sampled on the uniform grid f_j = j / (m + 1), j = 0..m."""

    fractions: np.ndarray
    growth_rates: np.ndarray


class JensenComparison(NamedTuple):
    f_hat: float
    f_star: float
    gap: float


def edge(game: GameSpec) -> EdgeReport:
    """Expected profit per unit staked: p * (1 + E[b]) - 1."""
    value = game.p * (1.0 + game.dist.mean()) - 1.0
    return EdgeReport(edge=value, favorable=value > 0.0)


def classical_fraction(p: float, b: float) -> float:
    """Fixed-payoff optimal fraction (p * (1 + b) - 1) / b.

    Requires b > 0 and a favorable game, i.e. p * (1 + b) > 1.
    """
    p = float(p)
    b = float(b)
    if b <= 0.0:
        raise ValueError(f"payoff must be positive, got {b}")
    numerator = p * (1.0 + b) - 1.0
    if numerator <= 0.0:
        raise NotFavorableError(
            f"game with p = {p:.12g}, b = {b:.12g} has edge {numerator:.12g} <= 0"
        )
    return numerator / b


def growth_rate(game: GameSpec, f: float) -> float:
    """Expected log growth g(f) at betting fraction f in [0, 1)."""
    f = _check_fraction(f)
    return game.q * math.log1p(-f) + game.p * game.dist.log_growth_win(f)


def growth_derivative(game: GameSpec, f: float) -> float:
    """g'(f) = p * E[b / (1 + b f)] - (1 - p) / (1 - f)."""
    f = _check_fraction(f)
    if f == 0.0:
        # E[b / (1 + 0)] = E[b]: the sign decides bet / no-bet here, so it
        # comes from the exact edge, not from a transform's rounding.
        return edge(game).edge
    return game.p * game.dist.payoff_transform(f) - game.q / (1.0 - f)


def _bits(f: float) -> int:
    """The IEEE-754 bit pattern of f; for f >= 0 it sorts as f does."""
    return struct.unpack("<q", struct.pack("<d", f))[0]


def _from_bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def solve_kelly(game: GameSpec) -> KellySolution:
    """Find the growth-optimal betting fraction.

    For an unfavorable or break-even game returns the no-bet solution
    (f_hat = 0, growth = 0). Otherwise the root of g' lies in [0, f*],
    where f* is the fixed-payoff fraction at the mean payoff: g'(0) is
    the (positive) edge, and g'(f*) <= 0 by Jensen's inequality, since
    b / (1 + b f) is concave in b. If g'(f*) evaluates to >= 0 the payoff
    is deterministic and f* itself is returned. Otherwise the bracket
    [lo, hi], with g'(lo) > 0 >= g'(hi), shrinks until lo and hi are
    adjacent doubles, and f_hat = hi <= f*. Each step is Anderson-Bjorck
    false position, kept at least one double inside the bracket; after
    three steps that have not halved the bracket's width in doubles, the
    next step bisects that width. So at most 4 * 63 steps are taken.
    """
    report = edge(game)
    if not report.favorable:
        return KellySolution(
            f_hat=0.0,
            growth=0.0,
            residual=report.edge,
            f_star_mean=0.0,
            jensen_gap=0.0,
            status=STATUS_NO_BET,
        )

    f_star = report.edge / game.dist.mean()  # classical_fraction(p, E[b])
    lo, hi = 0.0, f_star
    g_lo, g_hi = report.edge, growth_derivative(game, hi)
    if g_hi >= 0.0:  # deterministic payoff: f* is the root
        lo = hi
    width = mark = _bits(hi) - _bits(lo)  # mark: the width when this run of steps began
    steps, last = 0, None
    while width > 1:
        if steps == 3:
            mid = _from_bits((_bits(lo) + _bits(hi)) // 2)
        else:
            mid = lo + g_lo * (hi - lo) / (g_lo - g_hi)
            mid = min(max(mid, math.nextafter(lo, hi)), math.nextafter(hi, lo))
        g_mid = growth_derivative(game, mid)
        if g_mid == 0.0:
            lo = hi = mid
            break
        # When the same end moves twice in a row, Anderson-Bjorck scales
        # the other end's stored g' down.
        if g_mid > 0.0:
            if last == "lo":
                scale = 1.0 - g_mid / g_lo
                g_hi *= scale if scale > 0.0 else 0.5
            lo, g_lo, last = mid, g_mid, "lo"
        else:
            if last == "hi":
                scale = 1.0 - g_mid / g_hi
                g_lo *= scale if scale > 0.0 else 0.5
            hi, g_hi, last = mid, g_mid, "hi"
        width = _bits(hi) - _bits(lo)
        if steps == 3 or 2 * width <= mark:
            mark, steps = width, 0
        else:
            steps += 1

    f_hat = hi
    return KellySolution(
        f_hat=f_hat,
        growth=growth_rate(game, f_hat),
        residual=growth_derivative(game, f_hat),
        f_star_mean=f_star,
        jensen_gap=f_star - f_hat,
        status=STATUS_SOLVED,
    )


def jensen_compare(game: GameSpec) -> JensenComparison:
    """Optimal fraction vs. the fixed-payoff fraction at the mean payoff.

    The gap f_star - f_hat is nonnegative, and zero exactly when the
    payoff is deterministic. Raises NotFavorableError for games with no
    positive edge (there is nothing to compare).
    """
    solution = solve_kelly(game)
    if solution.status == STATUS_NO_BET:
        # The residual of the no-bet solution is the edge.
        raise NotFavorableError(f"edge {solution.residual:.12g} <= 0; no bet to compare")
    return JensenComparison(
        f_hat=solution.f_hat, f_star=solution.f_star_mean, gap=solution.jensen_gap
    )


def _fraction_grid(m: int) -> np.ndarray:
    """The grid f_j = j / (m + 1), j = 0..m, which stays below 1."""
    return np.arange(m + 1) / (m + 1)


def growth_curve(game: GameSpec, m: int) -> GrowthCurve:
    """Sample g on f_j = j / (m + 1) for j = 0..m (so f stays below 1)."""
    m = int(m)
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    fractions = _fraction_grid(m)
    rates = np.array([growth_rate(game, f) for f in fractions])
    return GrowthCurve(fractions=fractions, growth_rates=rates)
