"""Per-path reference for the Monte Carlo engine.

Draws one path at a time, in path order, with scalar calls on the run's
three streams: ``binomial(n_rounds, p)`` on the win stream, then
``multinomial(wins, pvals)`` on the category stream, then one payoff
uniform per win in a bin or a tail on the payoff stream, category by
category. It walks the law itself for its categories (atoms, then bins,
then Pareto tails), and sums a path's log-wealth in the order the engine
in ``varkelly.montecarlo`` must reproduce bit for bit: ``np.vecdot`` of
the atom counts with log1p(b_i f), plus the first term log1p(f b) of the
drawn payoffs and numpy's sum of the others, plus the loss term. The tests compare ``simulate`` and
``grid_scan`` against it.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from varkelly.distributions import Atoms, Histogram, Mixture
from varkelly.kelly import GameSpec


class Wins(NamedTuple):
    """One path's wins: the law's atom values, the path's count of wins in
    each category (its atoms, then its bins and tails) and its drawn
    payoffs, in the order read."""

    values: np.ndarray
    counts: np.ndarray
    payoffs: np.ndarray


def _streams(seed: int):
    """The run's streams of win counts, category counts and payoff
    uniforms: ``PCG64(seed)`` advanced by 0, 2**126 and 2**127 draws."""
    streams = []
    for i in range(3):
        bit_generator = np.random.PCG64(seed)
        bit_generator.advance(i * 2**126)
        streams.append(np.random.Generator(bit_generator))
    return streams


def _categories(dist):
    """The law's atoms as (value, weight), bins as (left, width, weight) and
    Pareto tails as (tail, weight), each weight the product of the mixture
    weights around it, outermost first, times its own."""
    atoms, bins, tails = [], [], []

    def visit(scale, law):
        if isinstance(law, Mixture):
            for w, part in law.parts:
                visit(scale * w, part)
        elif isinstance(law, Atoms):
            atoms.extend(zip(law.values, scale * law.weights))
        elif isinstance(law, Histogram):
            edges = law.edges
            bins.extend(zip(edges[:-1], edges[1:] - edges[:-1], scale * law.masses))
        else:
            tails.append((law, scale))

    visit(1.0, dist)
    return atoms, bins, tails


def _paths(game: GameSpec, n_rounds: int, seed: int):
    """(losses, wins) of paths 0, 1, 2, ... in turn."""
    atoms, bins, tails = _categories(game.dist)
    values = np.array([b for b, _ in atoms])
    weights = np.array([w for _, w in atoms] + [w for *_, w in bins] + [w for _, w in tails])
    pvals = weights / weights.sum()
    win_rng, category_rng, payoff_rng = _streams(seed)
    while True:
        n_wins = int(win_rng.binomial(n_rounds, game.p))
        counts = category_rng.multinomial(n_wins, pvals) if len(pvals) > 1 else np.array([n_wins])
        payoffs = []
        for (left, width, _), n in zip(bins, counts[len(atoms) :]):
            payoffs.append(left + width * payoff_rng.random(n))
        for (tail, _), n in zip(tails, counts[len(atoms) + len(bins) :]):
            payoffs.append(tail.sample(payoff_rng, n))
        yield n_rounds - n_wins, Wins(values, counts, np.concatenate([[], *payoffs]))


def _draw_path(game: GameSpec, n_rounds: int, seed: int, k: int):
    """Path k's loss count and wins, from paths 0..k drawn in turn."""
    return next(itertools.islice(_paths(game, n_rounds, seed), k, None))


def _payoffs(wins: Wins) -> np.ndarray:
    """Every payoff of ``wins``: each atom as often as it was won, then the drawn ones."""
    return np.concatenate([np.repeat(wins.values, wins.counts[: len(wins.values)]), wins.payoffs])


def _log_wealth_ratio(f: float, n_losses: int, wins: Wins) -> float:
    """log(X_n / X_0) for one path at fraction f, accumulated in log domain."""
    if f == 0.0:
        return 0.0
    atom_counts = wins.counts[: len(wins.values)].astype(float)
    atom_sum = float(np.vecdot(atom_counts, np.log1p(f * wins.values)))
    terms = np.log1p(f * wins.payoffs)
    payoff_sum = float(terms[0] + terms[1:].sum()) if len(terms) else 0.0
    return atom_sum + payoff_sum + n_losses * math.log1p(-f)
