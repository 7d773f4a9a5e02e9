"""Optimal bet sizing for repeated games with a random win payoff.

A game is a win probability p plus a payoff distribution for b (the
winnings per unit staked, at b-to-1 odds). Betting a fixed fraction f of
the bankroll each round compounds at the expected log growth rate

    g(f) = (1 - p) * log(1 - f) + p * E[log(1 + b f)],

whose derivative is g'(f) = p * E[b / (1 + b f)] - (1 - p) / (1 - f).
For a favorable game (p * (1 + E[b]) > 1) the optimum is the unique
root of g' in (0, 1); for an unfavorable or break-even game the optimum
is to not bet. ``solve_kelly`` finds that root by bisection below the
fixed-payoff fraction computed from the mean payoff, which is always at
least as large, and ``jensen_compare`` contrasts the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import PayoffDistribution
from .errors import NonConvergenceError, NotFavorableError

DEFAULT_TOL = 1e-10
MAX_BISECTIONS = 200

STATUS_SOLVED = "solved"
STATUS_NO_BET = "no_bet"


@dataclass(frozen=True)
class GameSpec:
    """A repeated game: win probability plus the win payoff distribution."""

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

    f_hat       - optimal fraction (0.0 when not betting)
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


def growth_rate(game: GameSpec, f: float, abs_tol: float = DEFAULT_TOL) -> float:
    """Expected log growth g(f) at betting fraction f in [0, 1)."""
    f = float(f)
    if f == 0.0:
        return 0.0
    return game.q * math.log1p(-f) + game.p * game.dist.log_growth_win(f, abs_tol)


def growth_derivative(game: GameSpec, f: float, abs_tol: float = DEFAULT_TOL) -> float:
    """g'(f) = p * E[b / (1 + b f)] - (1 - p) / (1 - f)."""
    f = float(f)
    if f == 0.0:
        # E[b / (1 + 0)] = E[b]; avoids quadrature noise at the endpoint
        # where the sign decides bet / no-bet.
        return edge(game).edge
    return game.p * game.dist.payoff_transform(f, abs_tol) - game.q / (1.0 - f)


def solve_kelly(game: GameSpec, tol: float = DEFAULT_TOL) -> KellySolution:
    """Find the growth-optimal betting fraction.

    For an unfavorable or break-even game returns the no-bet solution
    (f_hat = 0, growth = 0). Otherwise bisects g' on [0, f*], where f* is
    the fixed-payoff fraction at the mean payoff: g'(0) is the (positive)
    edge, and g'(f*) <= 0 by Jensen's inequality, since b / (1 + b f) is
    concave in b. If g'(f*) evaluates to >= 0 the payoff is deterministic
    and f* itself is returned. Stops when the bracket is narrower than
    ``tol`` or spans adjacent doubles; raises NonConvergenceError if the
    iteration cap is hit first.
    """
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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

    f_star = classical_fraction(game.p, game.dist.mean())
    lo, hi = 0.0, f_star
    if growth_derivative(game, hi) >= 0.0:  # deterministic payoff: f* is the root
        lo = hi
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        # Adjacent doubles cannot be split further, whatever ``tol`` asks.
        if hi - lo <= tol or not lo < mid < hi:
            break
        g_mid = growth_derivative(game, mid)
        if g_mid == 0.0:
            lo = hi = mid
            break
        if g_mid > 0.0:
            lo = mid
        else:
            hi = mid
    else:
        raise NonConvergenceError(
            f"bisection did not reach tol = {tol:.3g} within {MAX_BISECTIONS} iterations",
            value=0.5 * (lo + hi),
            err_estimate=hi - lo,
        )

    f_hat = 0.5 * (lo + hi)
    return KellySolution(
        f_hat=f_hat,
        growth=growth_rate(game, f_hat),
        residual=growth_derivative(game, f_hat),
        f_star_mean=f_star,
        jensen_gap=f_star - f_hat,
        status=STATUS_SOLVED,
    )


def jensen_compare(game: GameSpec, tol: float = DEFAULT_TOL) -> JensenComparison:
    """Optimal fraction vs. the fixed-payoff fraction at the mean payoff.

    The gap f_star - f_hat is nonnegative, and zero exactly when the
    payoff is deterministic. Raises NotFavorableError for games with no
    positive edge (there is nothing to compare).
    """
    report = edge(game)
    if not report.favorable:
        raise NotFavorableError(f"edge {report.edge:.12g} <= 0; no bet to compare")
    solution = solve_kelly(game, tol)
    return JensenComparison(
        f_hat=solution.f_hat, f_star=solution.f_star_mean, gap=solution.jensen_gap
    )


def growth_curve(game: GameSpec, m: int) -> GrowthCurve:
    """Sample g on f_j = j / (m + 1) for j = 0..m (so f stays below 1)."""
    m = int(m)
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    fractions = np.arange(m + 1) / (m + 1)
    rates = np.array([growth_rate(game, f) for f in fractions])
    return GrowthCurve(fractions=fractions, growth_rates=rates)
