"""Per-path reference for the batched Monte Carlo engine.

Draws one path at a time from its own generator, in the order the batched
engine in ``varkelly.montecarlo`` must reproduce bit for bit, and sums the
path's log-wealth in the engine's order: an Atoms law (Dirac included) as
numpy's sum of one term count_i * log1p(b_i f) per atom drawn, in index
order, a Mixture part by part, and any other law as numpy's sum of its
per-draw terms. The tests compare ``simulate``
and ``grid_scan`` against it.
"""

import math
from typing import NamedTuple

import numpy as np

from varkelly.distributions import Atoms, Dirac, Mixture
from varkelly.kelly import GameSpec


class Wins(NamedTuple):
    """One path's win payoffs, grouped as the engine sums them.

    ``kind`` is "draws" (``items`` is the payoff array in draw order),
    "atoms" (one array per atom drawn, in index order, holding the draws
    that took it) or "parts" (one ``Wins`` per mixture part).
    """

    kind: str
    items: object


def _path_rng(seed: int, k: int) -> np.random.Generator:
    """Substream for path k; depends only on (seed, k), not execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _pick(weights, u):
    """Inverse transform over categories: the index whose cumulative mass
    first exceeds u, with the last category taking any u past the total."""
    return np.searchsorted(np.cumsum(weights)[:-1], u, side="right")


def _draw_wins(dist, rng, n: int) -> Wins:
    """n payoffs of ``dist``, reading ``rng`` as ``dist.sample(rng, n)`` does."""
    if isinstance(dist, Mixture):
        part = _pick([w for w, _ in dist.parts], rng.random(n))
        return Wins("parts", [_draw_wins(d, rng, int((part == i).sum())) for i, (_, d) in enumerate(dist.parts)])
    if isinstance(dist, Dirac):
        return Wins("atoms", [np.full(n, dist.b)])
    if isinstance(dist, Atoms):
        atom = _pick(dist.weights, rng.random(n))
        return Wins("atoms", [dist.values[atom[atom == i]] for i in np.unique(atom)])
    return Wins("draws", np.asarray(dist.sample(rng, n), dtype=float))


def _draw_path(game: GameSpec, n_rounds: int, seed: int, k: int):
    """All randomness for one path: loss count and grouped win payoffs.

    The win/loss mask is drawn first and payoffs only for the winning
    rounds, so the draws are identical for every betting fraction. This
    per-path version is the reference that the batched engine must match.
    """
    rng = _path_rng(seed, k)
    wins = rng.random(n_rounds) < game.p
    n_wins = int(wins.sum())
    return n_rounds - n_wins, _draw_wins(game.dist, rng, n_wins)


def _payoffs(wins: Wins) -> np.ndarray:
    """Every payoff of ``wins``, ungrouped."""
    if wins.kind == "draws":
        return wins.items
    if wins.kind == "atoms":
        return np.concatenate(wins.items)
    return np.concatenate([_payoffs(part) for part in wins.items])


def _win_log_sum(f: float, wins: Wins) -> float:
    """Sum of log1p(f b) over the payoffs b of ``wins``, in the engine's order."""
    if wins.kind == "draws":
        return float(np.log1p(f * wins.items).sum())
    if wins.kind == "atoms":
        # Every draw of one atom has the same per-draw term.
        return float(np.array([len(item) * np.log1p(f * item)[0] for item in wins.items if len(item)]).sum())
    total = 0.0
    for part in wins.items:
        total += _win_log_sum(f, part)
    return total


def _log_wealth_ratio(f: float, n_losses: int, wins: Wins) -> float:
    """log(X_n / X_0) for one path at fraction f, accumulated in log domain."""
    if f == 0.0:
        return 0.0
    return _win_log_sum(f, wins) + n_losses * math.log1p(-f)
