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
doubles or g' at its upper end evaluates to >= 0, by inverse quadratic
interpolation with a bisection safeguard, in at most 4 * 63 steps;
``jensen_compare`` contrasts the two fractions.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import PayoffDistribution, _check_integer, _require_real, _to_float
from .errors import NotFavorableError

STATUS_SOLVED = "solved"
STATUS_NO_BET = "no_bet"

# Most points in a growth curve, m + 1: 512 MiB of fractions, the bound
# that montecarlo.MAX_ROW_FLOATS sets on one path's payoff uniforms. A
# larger grid is rejected before anything is allocated.
MAX_CURVE_POINTS = 2**26

# growth_curve hands the law's kernel blocks of fractions holding about
# this many fraction-by-term elements (at least one fraction), which
# bounds the kernel's temporaries.
_CURVE_BLOCK = 2**13


@dataclass(frozen=True)
class GameSpec:
    """A repeated game: win probability plus the win payoff distribution.

    Raises ValueError unless 0 < p < 1, and TypeError unless ``p`` is a
    real number and ``dist`` is a PayoffDistribution.
    """

    p: float
    dist: PayoffDistribution

    def __post_init__(self):
        _require_real("win probability", (self.p,))
        p = _to_float("win probability", self.p)
        if not 0.0 < p < 1.0:
            raise ValueError(f"win probability must lie in (0, 1), got {p}")
        if not isinstance(self.dist, PayoffDistribution):
            raise TypeError(f"payoff distribution {self.dist!r} is not a PayoffDistribution")
        object.__setattr__(self, "p", p)

    @property
    def q(self) -> float:
        """Loss probability 1 - p."""
        return 1.0 - self.p


@dataclass(frozen=True)
class KellySolution:
    """Solver output.

    f_hat       - optimal fraction, <= f_star_mean: where solve_kelly's
                  bracket stopped (see its docstring; 0.0 when not betting)
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
    """Growth rate g on the uniform grid f_j = j / (m + 1), j = 0..m; read-only arrays."""

    fractions: np.ndarray
    growth_rates: np.ndarray


class JensenComparison(NamedTuple):
    f_hat: float
    f_star: float
    gap: float


def edge(game: GameSpec) -> float:
    """Expected profit per unit staked, p * (1 + E[b]) - 1: positive
    exactly when the game is favorable and solve_kelly bets."""
    return game.p * (1.0 + game.dist.mean()) - 1.0


def growth_rate(game: GameSpec, f: float) -> float:
    """Expected log growth g(f) at betting fraction f in [0, 1)."""
    win = game.dist.log_growth_win(f)  # checks f before log1p(-f) sees it
    return game.q * math.log1p(-f) + game.p * win


def growth_derivative(game: GameSpec, f: float) -> float:
    """g'(f) = p * E[b / (1 + b f)] - (1 - p) / (1 - f)."""
    transform = game.dist.payoff_transform(f)  # checks f
    if f == 0.0:
        # E[b / (1 + 0)] = E[b]: the sign decides bet / no-bet here, so it
        # comes from the exact edge, not from a transform's rounding.
        return edge(game)
    return game.p * transform - game.q / (1.0 - float(f))


def _bits(f: float) -> int:
    """The IEEE-754 bit pattern of f; for f >= 0 it sorts as f does."""
    return struct.unpack("<q", struct.pack("<d", f))[0]


def _from_bits(n: int) -> float:
    return struct.unpack("<d", struct.pack("<q", n))[0]


def _interpolate(points, lo: float, g_lo: float, hi: float, g_hi: float) -> float:
    """The next estimate of the root of g', strictly inside (lo, hi).

    ``points`` holds the latest evaluations (f, g'(f)), oldest first: two
    or three of them, the last being an end of the bracket. The estimate is
    inverse quadratic interpolation through three points, else the secant
    through the last two, else false position on [lo, hi] kept at least
    one double inside. The quadratic is the secant plus a correction
    (Newton's form), so every denominator is a difference of two g'
    values: an equal pair skips that kind, and an estimate made NaN or
    infinite by an overflow fails the bracket test and passes to the next.
    """
    (x1, y1), (x2, y2) = points[-2:]
    if y1 != y2:
        slope = (x1 - x2) / (y1 - y2)
        secant = x2 - y2 * slope
        if len(points) == 3:
            x0, y0 = points[0]
            if y0 != y1 and y0 != y2:
                curvature = ((x0 - x1) / (y0 - y1) - slope) / (y0 - y2)
                quadratic = secant + y2 * y1 * curvature
                if lo < quadratic < hi:
                    return quadratic
        if lo < secant < hi:
            return secant
    mid = lo + g_lo * (hi - lo) / (g_lo - g_hi)
    return min(max(mid, math.nextafter(lo, hi)), math.nextafter(hi, lo))


def solve_kelly(game: GameSpec) -> KellySolution:
    """Find the growth-optimal betting fraction.

    For an unfavorable or break-even game returns the no-bet solution
    (f_hat = 0, growth = 0). Otherwise the root of g' lies in [0, f*],
    where f* is the fixed-payoff fraction at the mean payoff: g'(0) is
    the (positive) edge, and g'(f*) <= 0 by Jensen's inequality, since
    b / (1 + b f) is concave in b. The bracket [lo, hi] = [0, f*] shrinks
    until lo and hi are adjacent doubles or g'(hi) evaluates to >= 0; then
    f_hat = hi <= f*, and exactly one of these holds: g'(f*) evaluated to
    >= 0 (a deterministic payoff) and f_hat = f*; a step's g'(f_hat)
    evaluated to exactly 0 (g' rounds, so it may be <= 0 a few doubles
    lower too); or lo, hi are adjacent doubles with g'(lo) > 0 > g'(hi).
    Each step is inverse quadratic interpolation through the last three
    evaluations (Brent), else the secant through the last two, else false
    position kept at least one double inside the bracket, when an estimate
    leaves the open bracket; three steps that do not halve the bracket's
    width in doubles are followed by a bisection of it: at most 4 * 63 steps.
    """
    g_lo = edge(game)  # g'(0)
    if not g_lo > 0.0:  # unfavorable or break-even
        return KellySolution(
            f_hat=0.0,
            growth=0.0,
            residual=g_lo,
            f_star_mean=0.0,
            jensen_gap=0.0,
            status=STATUS_NO_BET,
        )

    f_star = g_lo / game.dist.mean()  # f*(p, E[b])
    lo, hi = 0.0, f_star
    g_hi = growth_derivative(game, hi)
    points = [(lo, g_lo), (hi, g_hi)]  # the latest evaluations, oldest first
    width = mark = _bits(hi) - _bits(lo)  # mark: the width when this run of steps began
    steps = 0
    # Stops: lo, hi adjacent; g'(hi) == 0 exactly; g'(f*) >= 0 (then hi = f*).
    while width > 1 and not g_hi >= 0.0:
        if steps == 3:
            mid = _from_bits((_bits(lo) + _bits(hi)) // 2)
        else:
            mid = _interpolate(points, lo, g_lo, hi, g_hi)
        g_mid = growth_derivative(game, mid)
        if g_mid > 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
        points = [*points[-2:], (mid, g_mid)]
        width = _bits(hi) - _bits(lo)
        if steps == 3 or 2 * width <= mark:
            mark, steps = width, 0
        else:
            steps += 1

    f_hat = hi
    return KellySolution(
        f_hat=f_hat,
        growth=growth_rate(game, f_hat),
        residual=g_hi,  # g'(f_hat) as the step that placed f_hat evaluated it
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
    """Sample g on f_j = j / (m + 1) for j = 0..m (so f stays below 1).

    The win side E[log(1 + b f)] comes from one call of the law's kernel
    per block of fractions, a column of about _CURVE_BLOCK / terms (atoms,
    bins and tails) of them, and the loss side from math.log1p at each
    point, so every point is growth_rate(game, f_j) bit for bit. Raises
    ValueError for m < 1, or for a grid of more than MAX_CURVE_POINTS
    points, before anything is allocated.
    """
    m = _check_integer("m", m)
    if m < 1:
        raise ValueError(f"grid size must be >= 1, got {m}")
    if m + 1 > MAX_CURVE_POINTS:
        raise ValueError(
            f"a grid of m + 1 = {m + 1} points exceeds the limit of MAX_CURVE_POINTS = {MAX_CURVE_POINTS}"
        )
    fractions = _fraction_grid(m)
    rows = max(1, _CURVE_BLOCK // game.dist._terms)
    win = np.empty(m + 1)
    for j in range(0, m + 1, rows):
        win[j : j + rows] = game.dist._log_win(fractions[j : j + rows, None])
    p, q = game.p, game.q
    rates = np.array([q * math.log1p(-f) + p * w for f, w in zip(fractions.tolist(), win.tolist())])
    fractions.setflags(write=False)
    rates.setflags(write=False)
    return GrowthCurve(fractions=fractions, growth_rates=rates)
