"""Monte Carlo verification of the growth math.

Simulates the repeated game directly: each round multiplies the bankroll
by (1 + b * f) on a win (b drawn from the payoff distribution) or by
(1 - f) on a loss. Per-path growth rates (1/n) * log(X_n / X_0) estimate
the expected log growth, independently of the transform/root-finder route.

Reproducibility contract: path k draws from a substream derived from
(seed, k), so results are bit-identical no matter how paths are batched
or ordered. ``grid_scan`` scores every grid fraction against the same
draws (common random numbers), which makes the argmax of its mean growth
sharp enough to compare against the solver at modest path counts.

Paths are drawn in batches by one engine that ``simulate`` and
``grid_scan`` share. For each chunk of paths it computes the seed words
of every path's substream at once (numpy's SeedSequence hash, vectorised
over k), lets numpy's PCG64 seed a generator from each path's words to
fill the path's row of uniforms, and then hands all rows to
``_win_logs``. It reads each row's payoff uniforms as the law's
``sample`` reads its stream and sums log(1 + b f) over each path's wins
at every fraction with whole-array numpy calls: per atom for an Atoms
law, part by part for a Mixture, and draw by draw for any other law.
The laws keep only what their ``sample`` needs: ``_from_uniforms``,
``_max_uniforms`` and the ``_guide`` table that picks an atom, a bin or a
part, built at a law's first draw and kept. The streams are those of
``np.random.default_rng(SeedSequence(entropy=seed, spawn_key=(k,)))``,
read in the same order as the per-path reference that the tests keep
(``tests/montecarlo_reference.py``), which also sums in the same order,
so neither the batching nor the set of fractions changes a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import Atoms, Mixture, _check_fraction, _check_integer, _require_real, _to_float
from .kelly import GameSpec, _fraction_grid


# Path indices must fit in one 32-bit spawn-key word (see _seed_words).
MAX_PATHS = 2**32

# Most uniforms in one path's row, n_rounds * (1 + the law's _max_uniforms):
# 512 MiB of doubles. A longer row is rejected before anything is allocated.
MAX_ROW_FLOATS = 2**26

# Paths are processed in chunks whose uniform matrix holds about this many
# floats (at least one path), which bounds the engine's temporaries.
_CHUNK_FLOATS = 2**18

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), which
# _seed_words reproduces.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# generate_state's constants for its eight output words, as two cycles
# over the pool: word i xors in _INIT_B * _MULT_B**i and multiplies by the
# next power.
_STATE_CONSTS = np.array([_INIT_B * _MULT_B**i & _MASK32 for i in range(9)], dtype=np.uint32)
_STATE_XOR, _STATE_MULT = _STATE_CONSTS[:-1].reshape(2, _POOL_SIZE, 1), _STATE_CONSTS[1:].reshape(2, _POOL_SIZE, 1)


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
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {self.n_rounds}")
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


def _seed_words(seed: int, k0: int, k1: int) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    for k in [k0, k1), with k < 2**32 (one spawn-key word), as rows of a
    (k1 - k0, 4) uint64 array.

    The entropy words are the seed's 32-bit words, padded with zeros to the
    pool size, then k. Since k is mixed in last, the pool before it is
    ``SeedSequence(seed).pool``, and the hash constant has been stepped
    once for each of the 4 * max(4, n_words) hashes before it. Only the
    steps that mix in k run here: the 4 hashes of k and their mix into the
    pool as one (4, n) uint32 broadcast, then the 8 output hashes as one
    (8, n) broadcast, each with the paths along its long axis. uint32
    arithmetic wraps as the hash's does.
    """
    n_words = (seed.bit_length() + 31) // 32
    const = _INIT_A * pow(_MULT_A, 4 * max(_POOL_SIZE, n_words), 2**32)
    # Hash i xors in const * mult**i and multiplies by the next power.
    consts = np.array([[const * _MULT_A**i & _MASK32] for i in range(_POOL_SIZE + 1)], dtype=np.uint32)
    hashes = (np.arange(k0, k1, dtype=np.uint32) ^ consts[:-1]) * consts[1:]
    hashes ^= hashes >> 16
    # Pool word i mixed with hash i: L * word - R * hash.
    pool = (np.random.SeedSequence(seed).pool * np.uint32(_MIX_MULT_L))[:, None] - np.uint32(_MIX_MULT_R) * hashes
    pool ^= pool >> 16
    # generate_state(4, uint64): eight words cycling twice over the pool,
    # paired into 64-bit words as numpy pairs them.
    words = ((pool ^ _STATE_XOR) * _STATE_MULT).reshape(8, k1 - k0)
    words ^= words >> 16
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence that hands a bit generator the words it was given:
    PCG64 asks for ``generate_state(4, np.uint64)``, a row of _seed_words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _log_ratios(game: GameSpec, fs, n_rounds: int, n_paths: int, seed: int) -> np.ndarray:
    """log(X_n / X_0) of paths 0..n_paths-1 at every fraction in ``fs``,
    shape (len(fs), n_paths), equal bit for bit to the tests' per-path
    reference for each path and fraction.

    Row k of a chunk's uniform matrix is path k's stream: n_rounds mask
    uniforms, then as many payoff uniforms as its wins could read, all
    drawn in one call whether they are read or not. One ``_win_logs`` call
    per chunk sums each path's log1p(f b) over its wins at every nonzero
    fraction; the loss term is added to it, and a zero fraction leaves the
    path at 0.0. A row of more than MAX_ROW_FLOATS uniforms raises
    ValueError.
    """
    dist = game.dist
    width = n_rounds * (1 + dist._max_uniforms)
    if width > MAX_ROW_FLOATS:
        raise ValueError(
            f"a path's row of n_rounds * {1 + dist._max_uniforms} = {width} uniforms "
            f"exceeds the limit of MAX_ROW_FLOATS = {MAX_ROW_FLOATS}"
        )
    per_chunk = min(n_paths, max(1, _CHUNK_FLOATS // width))
    bets = [j for j, f in enumerate(fs) if f != 0.0]
    bet_fs = [fs[j] for j in bets]
    loss_logs = np.array([math.log1p(-f) for f in bet_fs])[:, None]
    out = np.zeros((len(fs), n_paths))
    buffer = np.empty((per_chunk, width))
    for k0 in range(0, n_paths, per_chunk):
        u = buffer[: min(per_chunk, n_paths - k0)]
        for row, words in zip(u, _seed_words(seed, k0, k0 + len(u))):
            np.random.Generator(np.random.PCG64(_Words(words))).random(out=row)
        n_wins = np.count_nonzero(u[:, :n_rounds] < game.p, axis=1)
        win_logs = _win_logs(dist, u, np.full_like(n_wins, n_rounds), n_wins, bet_fs)[0]
        out[bets, k0 : k0 + len(u)] = win_logs + (n_rounds - n_wins) * loss_logs
    return out


def _win_logs(dist, u: np.ndarray, start: np.ndarray, count: np.ndarray, fs):
    """Win side of the log-wealth: ``count[r]`` payoffs b of ``dist`` drawn
    from row r of the uniform matrix ``u``, read from column ``start[r]``
    on in the order in which ``dist.sample`` reads its stream. Returns the
    sums of log1p(f b) over each row's draws for every f in ``fs``, shape
    (len(fs), rows), and the number of uniforms each row read.

    A Mixture reads one choice uniform per draw, then each part's uniforms
    in part order, and adds its parts' sums in part order. An Atoms law
    (Dirac included) sums one term count_i * log1p(b_i f) per atom that a
    row drew, in index order, as the per-draw terms would be summed: each
    log is numpy's log1p of b_i * f, the term of every such draw. Only the
    (row, atom) pairs that occur get a term, so the cost grows with the
    wins, not with rows times atoms. Any other law draws every payoff
    through its ``_from_uniforms``.

    Both sums are one ``np.add.reduceat`` per fraction over the terms with
    a 0 put in front of each row's run. That sums each run as numpy's 1-D
    ``.sum()`` does: a reduceat segment starts from its first element where
    ``.sum()`` starts from 0, so the leading zero gives both the same bits.
    A row without terms becomes the segment [0], not an empty one, which
    reduceat would fill with the next element.
    """
    if isinstance(dist, Mixture):
        # chosen[r, i]: how many of row r's draws chose part i.
        keys, times = _counts_per_row(dist._guide.pick(_segments(u, start, count)), count, len(dist.parts))
        chosen = np.zeros((len(count), len(dist.parts)), dtype=np.int64)
        chosen.flat[keys] = times
        sums = np.zeros((len(fs), len(count)))
        used = count.copy()
        for i, (_, part) in enumerate(dist.parts):
            part_sums, read = _win_logs(part, u, start + used, chosen[:, i], fs)
            sums += part_sums
            used += read
        return sums, used
    per_atom = isinstance(dist, Atoms)
    if per_atom:
        logs = np.log1p(np.multiply.outer(fs, dist.values))
        if len(dist.values) == 1:
            # One term per row: 0 + t is t. A Dirac reads no uniforms.
            return count * logs, count * dist._max_uniforms
        n = len(dist.values)
        keys, times = _counts_per_row(dist._guide.pick(_segments(u, start, count)), count, n)
        rows, drawn = np.divmod(keys, n)
        per_row = np.bincount(rows, minlength=len(count))
    else:
        drawn = dist._from_uniforms(_segments(u, start, count))
        per_row = count
    first = np.cumsum(per_row) - per_row
    heads = first + np.arange(len(per_row))
    drawn = np.insert(drawn, first, 0)
    if per_atom:
        times = np.insert(times.astype(float), first, 0)
    sums = np.empty((len(fs), len(count)))
    # One buffer for all fractions: fresh temporaries page-fault on long rows.
    terms = np.empty(len(drawn))
    for j, f in enumerate(fs):
        if per_atom:
            np.multiply(times, logs[j].take(drawn, out=terms), out=terms)
        else:
            np.log1p(np.multiply(f, drawn, out=terms), out=terms)
        sums[j] = np.add.reduceat(terms, heads)
    return sums, count


def _segments(u: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``u[r, start[r] : start[r] + count[r]]`` of every row r of the
    C-contiguous matrix ``u``, concatenated. Callers pass it straight on,
    so that it is freed as soon as it is read: held by a name, it would
    stay alive through ``_from_uniforms`` and raise the peak memory."""
    first = np.cumsum(count) - count
    shift = np.arange(len(count)) * u.shape[1] + start - first
    return u.ravel().take(np.arange(int(count.sum())) + np.repeat(shift, count))


def _counts_per_row(idx: np.ndarray, count: np.ndarray, n: int):
    """The (row, category) pairs that occur in ``idx``, where row r holds
    the next ``count[r]`` entries and a category lies in [0, n): their keys
    r * n + i in increasing order, and how often each occurs.

    Time and memory grow with len(idx), not with rows times n: the keys
    are counted in a table of rows * n entries where that table has at
    most four entries per key, which is the cheaper way there, and sorted
    otherwise. Both ways give the same arrays.
    """
    keys = np.repeat(np.arange(len(count)) * n, count) + idx
    if len(count) * n > 4 * len(keys):
        return np.unique(keys, return_counts=True)
    table = np.bincount(keys, minlength=len(count) * n)
    keys = np.flatnonzero(table)
    return keys, table[keys]


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
