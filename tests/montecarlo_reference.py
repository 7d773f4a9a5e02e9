"""Per-path reference for the batched Monte Carlo engine.

Draws one path at a time from its own generator, in the order the batched
engine in ``varkelly.montecarlo`` must reproduce bit for bit. The tests
compare ``simulate`` and ``grid_scan`` against it.
"""

import math

import numpy as np

from varkelly.kelly import GameSpec


def _path_rng(seed: int, k: int) -> np.random.Generator:
    """Substream for path k; depends only on (seed, k), not execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


def _draw_path(game: GameSpec, n_rounds: int, seed: int, k: int):
    """All randomness for one path: loss count and win payoffs.

    The win/loss mask is drawn first and payoffs only for the winning
    rounds, so the draws are identical for every betting fraction. This
    per-path version is the reference that the batched engine must match.
    """
    rng = _path_rng(seed, k)
    wins = rng.random(n_rounds) < game.p
    n_wins = int(wins.sum())
    payoffs = game.dist.sample(rng, n_wins) if n_wins else np.empty(0)
    return n_rounds - n_wins, np.asarray(payoffs, dtype=float)


def _log_wealth_ratio(f: float, n_losses: int, payoffs: np.ndarray) -> float:
    """log(X_n / X_0) for one path at fraction f, accumulated in log domain."""
    if f == 0.0:
        return 0.0
    return float(np.log1p(f * payoffs).sum()) + n_losses * math.log1p(-f)
