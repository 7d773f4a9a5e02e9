"""Monte Carlo verification of the growth math.

Simulates the repeated game directly: each round multiplies the bankroll
by (1 + b * f) on a win (b drawn from the payoff distribution) or by
(1 - f) on a loss. Per-path growth rates (1/n) * log(X_n / X_0) estimate
the expected log growth, independently of the transform/root-finder route.

A path's log-wealth depends only on how many rounds it won and on which
payoffs, not on their order. So a path draws its win count W from
Binomial(n_rounds, p), and its counts over the law's flat categories
(``PayoffDistribution._flat``: the atoms, then the histogram bins, then
the Pareto tails) from Multinomial(W, weights / sum(weights)), by
conditional binomials (Devroye, Non-Uniform Random Variate Generation,
1986, ch. XI). Atoms are counted, not drawn, so an atom-only law costs the
same at any number of rounds. Each win that lands in a bin or a tail reads
one payoff uniform u, in category order: left + width * u for a bin, the
tail's inverse transform xmin * u^(-1/alpha) for a tail.

Reproducibility contract: a run reads three streams, one per kind of
draw, each in path order: the win counts, the category counts and the
payoff uniforms, stream i being ``PCG64(seed)`` advanced by i * 2**126
draws. A run builds only the streams its law reads: a one-category law
(a Dirac, a Uniform, a Pareto) draws no category counts, and an atom-only
law no payoffs. numpy's ``binomial(n, p, size=m)`` and
``multinomial(n_array, pvals)`` read a generator as m scalar calls do, so
path k depends only on (seed, k, n_rounds, law), and results are
bit-identical however many paths are run and however they are chunked.
NEP 19 lets numpy change the ``binomial`` and ``multinomial`` algorithms
between versions, which would move every result. ``grid_scan`` scores
every grid fraction against the same draws (common random numbers),
which makes the argmax of its mean growth sharp enough to compare against
the solver at modest path counts.

A path's log-wealth at f is summed in a fixed order: the atoms'
``np.vecdot`` of their counts with log1p(b_i f), plus the sum of the
terms log1p(f b) of the drawn payoffs in the order read (the first term
plus numpy's sum of the others, as ``np.add.reduceat`` sums a segment),
plus (n_rounds - W) * log1p(-f). The per-path reference that the tests keep
(``tests/montecarlo_reference.py``) makes the same scalar draws path by
path and sums in the same order, so neither the chunking nor the set of
fractions changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import _check_fraction, _check_integer, _require_real, _to_float
from .kelly import GameSpec, _fraction_grid


# A run reads each of its streams in path order. A path reads a few
# doubles for each binomial draw (its win count, and one draw a category
# in its multinomial) and at most MAX_ROW_FLOATS payoff uniforms, so 2**32
# paths stay far inside the 2**126 draws between one stream's start and
# the next.
MAX_PATHS = 2**32

# Most rounds in a path. The win and loss counts then stay exact as doubles,
# and inside the int64 that numpy's binomial takes.
MAX_ROUNDS = 2**53

# Most rounds in a path of a law that draws payoffs (one with a bin or a
# tail), whose chunk holds up to n_rounds payoff uniforms a path: 512 MiB
# of doubles. A longer path is rejected before anything is allocated. An
# atom-only law draws no payoffs and has no such bound.
MAX_ROW_FLOATS = 2**26

# Paths are processed in chunks of about this many category counts and
# payoff uniforms (at least one path), which bounds the engine's
# temporaries.
_CHUNK_FLOATS = 2**16

# Stream i of a run is PCG64(seed) advanced by i * _STREAM_GAP draws.
_STREAM_GAP = 2**126


@dataclass(frozen=True)
class SimConfig:
    """Simulation shape: rounds per path, path count, fraction, seed."""

    n_rounds: int
    n_paths: int
    f: float
    seed: int
    x0: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "n_rounds", _check_integer("n_rounds", self.n_rounds))
        object.__setattr__(self, "n_paths", _check_integer("n_paths", self.n_paths))
        _require_real("f", (self.f,))
        object.__setattr__(self, "f", _to_float("f", self.f))
        object.__setattr__(self, "seed", _check_integer("seed", self.seed))
        _require_real("x0", (self.x0,))
        object.__setattr__(self, "x0", _to_float("x0", self.x0))
        if not 1 <= self.n_rounds <= MAX_ROUNDS:
            raise ValueError(f"n_rounds must lie in [1, {MAX_ROUNDS}], got {self.n_rounds}")
        if not 1 <= self.n_paths <= MAX_PATHS:
            raise ValueError(f"n_paths must lie in [1, {MAX_PATHS}], got {self.n_paths}")
        _check_fraction(self.f)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not 0.0 < self.x0 < math.inf:
            raise ValueError(f"initial bankroll must be positive and finite, got {self.x0}")


@dataclass(frozen=True, eq=False)
class SimResult:
    """Per-path growth rates plus summary statistics.

    std_growth uses the sample standard deviation (ddof=1); it is 0.0
    for a single path. Growth rates are exact (log-domain); final
    bankrolls are exp'd back from log-wealth, so they saturate to 0.0 or
    inf when they leave the float range.
    """

    growth_rates: np.ndarray
    mean_growth: float
    std_growth: float
    min_final: float
    max_final: float
    seed: int


class GridScan(NamedTuple):
    """mean/std growth across the fraction grid (common random numbers)."""

    fractions: np.ndarray
    mean_growth: np.ndarray
    std_growth: np.ndarray


def _log_ratios(game: GameSpec, fs, n_rounds: int, n_paths: int, seed: int) -> np.ndarray:
    """log(X_n / X_0) of paths 0..n_paths-1 at every fraction in ``fs``,
    shape (len(fs), n_paths), equal bit for bit to the tests' per-path
    reference for each path and fraction.

    Each chunk of paths takes its win counts from one ``binomial`` call,
    its category counts from one ``multinomial`` call and its payoff
    uniforms from one ``random`` call, in path order. The atoms' sums are
    one ``np.vecdot`` of the counts with the per-atom logs;
    ``_payoff_logs`` adds those of the drawn payoffs, and the loss term is
    added last. A zero fraction leaves the path at 0.0. A law that
    draws payoffs raises ValueError where n_rounds exceeds MAX_ROW_FLOATS.
    """
    atoms, bins, tails = game.dist._flat
    values, atom_weights = atoms or (np.empty(0),) * 2
    left, width, _, masses = bins or (np.empty(0),) * 4
    weights = np.concatenate([atom_weights, masses, [w for w, _ in tails]])
    n_atoms = len(values)
    draws_payoffs = len(weights) > n_atoms
    if draws_payoffs and n_rounds > MAX_ROW_FLOATS:
        raise ValueError(
            f"n_rounds = {n_rounds} exceeds the limit of MAX_ROW_FLOATS = {MAX_ROW_FLOATS} "
            "for a law that draws payoffs"
        )
    per_path = len(weights) + (n_rounds if draws_payoffs else 0)
    per_chunk = min(n_paths, max(1, _CHUNK_FLOATS // per_path))
    bets = [j for j, f in enumerate(fs) if f != 0.0]
    bet_fs = [fs[j] for j in bets]
    atom_logs = np.log1p(np.multiply.outer(bet_fs, values))
    loss_logs = np.array([math.log1p(-f) for f in bet_fs])[:, None]
    pvals = weights / weights.sum()
    seed_seq = np.random.SeedSequence(seed)
    win_rng = _stream(seed_seq, 0)
    category_rng = _stream(seed_seq, 1) if len(weights) > 1 else None
    payoff_rng = _stream(seed_seq, 2) if draws_payoffs else None
    out = np.zeros((len(fs), n_paths))
    for k0 in range(0, n_paths, per_chunk):
        wins = win_rng.binomial(n_rounds, game.p, min(per_chunk, n_paths - k0))
        counts = category_rng.multinomial(wins, pvals) if category_rng else wins[:, None]
        sums = np.vecdot(counts[:, None, :n_atoms].astype(float), atom_logs).T
        if draws_payoffs:
            drawn = counts[:, n_atoms:]
            payoffs = _payoffs(drawn, payoff_rng.random(int(drawn.sum())), left, width, tails)
            sums += _payoff_logs(drawn.sum(axis=1), payoffs, bet_fs)
        out[bets, k0 : k0 + len(wins)] = sums + (n_rounds - wins) * loss_logs
    return out


def _stream(seed_seq: np.random.SeedSequence, i: int) -> np.random.Generator:
    """Stream i of the run: PCG64(seed) advanced by i * _STREAM_GAP draws.
    PCG64(SeedSequence(seed)) is PCG64(seed), and the run hashes its seed
    once for all its streams."""
    bit_generator = np.random.PCG64(seed_seq)
    if i:
        bit_generator.advance(i * _STREAM_GAP)
    return np.random.Generator(bit_generator)


def _payoffs(counts: np.ndarray, u: np.ndarray, left, width, tails) -> np.ndarray:
    """The payoff of each uniform in ``u``, where ``counts[r]`` holds path
    r's wins in each bin, then in each tail, and ``u`` is read path by
    path, in that category order, one uniform a win: left + width * u in a
    bin, the tail's inverse transform in a tail."""
    if counts.shape[1] == 1:  # one bin or one tail
        return tails[0][1]._from_uniforms(u) if tails else left[0] + width[0] * u
    category = np.repeat(np.tile(np.arange(counts.shape[1]), len(counts)), counts.ravel())
    payoffs = np.empty(len(u))
    if len(left):
        at = np.minimum(category, len(left) - 1)  # a tail's payoff is overwritten below
        payoffs = left[at] + width[at] * u
    for t, (_, tail) in enumerate(tails):
        in_tail = category == len(left) + t
        payoffs[in_tail] = tail._from_uniforms(u[in_tail])
    return payoffs


def _payoff_logs(per_path: np.ndarray, payoffs: np.ndarray, fs) -> np.ndarray:
    """The sums of log1p(f b) over each path's payoffs b for every f in
    ``fs``, shape (len(fs), paths), where path r holds the next
    ``per_path[r]`` of ``payoffs``. A path's sum is its segment of one
    ``np.add.reduceat`` per fraction: its first term plus numpy's sum of
    the others. A path without payoffs sums to 0.0.
    """
    drawn = per_path > 0
    first = (np.cumsum(per_path) - per_path)[drawn]
    sums = np.zeros((len(fs), len(per_path)))
    # One buffer for all fractions: fresh temporaries page-fault on long paths.
    terms = np.empty(len(payoffs))
    for j, f in enumerate(fs):
        np.log1p(np.multiply(f, payoffs, out=terms), out=terms)
        sums[j, drawn] = np.add.reduceat(terms, first)
    return sums


def simulate(game: GameSpec, cfg: SimConfig) -> SimResult:
    """Play n_paths independent paths of n_rounds rounds at fraction cfg.f."""
    log_ratios = _log_ratios(game, [cfg.f], cfg.n_rounds, cfg.n_paths, cfg.seed)[0]
    rates = log_ratios / cfg.n_rounds
    with np.errstate(over="ignore", under="ignore"):
        finals = cfg.x0 * np.exp(log_ratios)
    rates.setflags(write=False)
    return SimResult(
        growth_rates=rates,
        mean_growth=float(rates.mean()),
        std_growth=float(rates.std(ddof=1)) if cfg.n_paths > 1 else 0.0,
        min_final=float(finals.min()),
        max_final=float(finals.max()),
        seed=cfg.seed,
    )


def grid_scan(
    game: GameSpec,
    grid_size: int,
    *,
    n_rounds: int,
    n_paths: int,
    seed: int,
) -> GridScan:
    """Simulate every grid fraction f_j = j / (grid_size + 1), j = 0..grid_size,
    reusing the same per-path draws for all fractions (common random numbers).

    Column j is bit-identical to simulate() at f_j with the same seed.
    """
    grid_size = _check_integer("grid_size", grid_size)
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    base = SimConfig(n_rounds=n_rounds, n_paths=n_paths, f=0.0, seed=seed)
    fs = _fraction_grid(grid_size)
    rates = _log_ratios(game, fs.tolist(), base.n_rounds, base.n_paths, base.seed) / base.n_rounds
    means = rates.mean(axis=1)
    stds = rates.std(axis=1, ddof=1) if base.n_paths > 1 else np.zeros(len(fs))
    fs.setflags(write=False)
    means.setflags(write=False)
    stds.setflags(write=False)
    return GridScan(fractions=fs, mean_growth=means, std_growth=stds)
