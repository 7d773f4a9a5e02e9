"""The chunked Monte Carlo engine against numpy's streams and the per-path reference.

``simulate`` and ``grid_scan`` draw all paths in chunks. These tests pin
the chunking to what paths drawn one at a time give: the win counts,
category counts and payoff uniforms must be numpy's draws on the run's
three streams, read in path order; every path must equal
``_paths``/``_log_wealth_ratio`` recomputed on its own; and neither the
path count, the chunking nor the number of fractions may change any path.
The engine and the reference both sum atoms by their counts, so a last
check bounds every path against the exact sum of its per-draw terms.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from varkelly import montecarlo
from varkelly.distributions import MASS_TOL, MAX_NESTING, Atoms, Dirac, Histogram, Mixture, Pareto, Uniform
from varkelly.kelly import GameSpec, _fraction_grid, growth_rate
from varkelly.montecarlo import MAX_PATHS, MAX_ROUNDS, MAX_ROW_FLOATS, SimConfig, _log_ratios, grid_scan, simulate
from montecarlo_reference import _categories, _log_wealth_ratio, _paths, _payoffs, _streams
from numpy_math import needs_avx512_math

GAMES = {
    "dirac": GameSpec(0.6, Dirac(1.0)),
    "atoms": GameSpec(0.55, Atoms([(0.5, 0.3), (1.0, 0.5), (3.0, 0.2)])),
    "uniform": GameSpec(0.6, Uniform(0.5, 1.5)),
    "histogram": GameSpec(0.6, Histogram([0.0, 0.5, 1.0, 2.0, 4.0], [0.1, 0.4, 0.3, 0.2])),
    "pareto": GameSpec(0.6, Pareto(2.5, 0.6)),
    # The inner mixture holds a Dirac, which reads no uniforms.
    "mixture": GameSpec(
        0.6,
        Mixture([(0.4, Atoms([(0.5, 0.5), (2.0, 0.5)])), (0.6, Mixture([(0.3, Dirac(1.2)), (0.7, Pareto(3.0, 0.7))]))]),
    ),
}

# Laws that only the engine-vs-reference tests run, so that no pin below
# moves: a one-atom Atoms; a Mixture whose one-atom Atoms part comes before
# a Pareto; and a Histogram with zero-mass bins and masses that sum to
# 1 - 1e-13.
REFERENCE_GAMES = {
    **GAMES,
    "atoms-one": GameSpec(0.6, Atoms([(1.3, 1.0)])),
    "mixture-one-atom-pareto": GameSpec(0.6, Mixture([(0.4, Atoms([(0.8, 1.0)])), (0.6, Pareto(2.5, 0.6))])),
    "histogram-empty-bins": GameSpec(0.6, Histogram([0.0, 0.5, 1.0, 2.0, 4.0, 6.0], [0.3, 0.0, 0.5, 0.0, 0.2 - 1e-13])),
}

# Many short paths, all in one chunk, and a few long ones, one per chunk.
SHAPES = [(12, 150), (3_000, 5)]


def _first_paths(game, cfg):
    """(losses, wins) of the run's paths, drawn one at a time."""
    return list(itertools.islice(_paths(game, cfg.n_rounds, cfg.seed), cfg.n_paths))


def _reference(game, cfg):
    """Growth rates recomputed one path at a time."""
    return np.array([_log_wealth_ratio(cfg.f, n_losses, wins) / cfg.n_rounds for n_losses, wins in _first_paths(game, cfg)])


# ---------- the stream ----------


class _Recording:
    """A generator that records the name and result of every draw."""

    def __init__(self, rng):
        self._rng, self.draws = rng, []

    def __getattr__(self, name):
        def draw(*args):
            out = getattr(self._rng, name)(*args)
            self.draws.append((name, out))
            return out

        return draw


def _record_streams(patch):
    """The streams that the engine builds, by index, each recording its draws."""
    streams = {}
    stream = montecarlo._stream

    def recording(seed_seq, i):
        streams[i] = _Recording(stream(seed_seq, i))
        return streams[i]

    patch.setattr(montecarlo, "_stream", recording)
    return streams


def _drawn(recording, kind):
    """Everything ``recording`` drew, one ``kind`` of draw, concatenated."""
    assert {name for name, _ in recording.draws} == {kind}
    return np.concatenate([out for _, out in recording.draws])


# The streams that each law needs: wins (0), category counts (1) when it
# has more than one category, payoff uniforms (2) when it has a bin or a tail.
STREAMS_READ = {
    "dirac": [0],
    "atoms": [0, 1],
    "uniform": [0, 2],
    "histogram": [0, 1, 2],
    "pareto": [0, 2],
    "mixture": [0, 1, 2],
    "atoms-one": [0],
    "mixture-one-atom-pareto": [0, 1, 2],
    "histogram-empty-bins": [0, 1, 2],
}


@pytest.mark.parametrize("family", sorted(REFERENCE_GAMES))
@pytest.mark.parametrize("seed", [0, 41, 2**64 + 5, 2**160 + 9])
@pytest.mark.parametrize("chunk_floats", [1, 2**16])
def test_each_kind_of_draw_reads_its_own_stream_in_path_order(family, seed, chunk_floats, monkeypatch):
    # 7 paths of 3 rounds, one per chunk or all in one. Stream i is
    # PCG64(seed) advanced by i * 2**126, and its draws, taken chunk by
    # chunk, are numpy's draws for all 7 paths at once.
    game = REFERENCE_GAMES[family]
    n_rounds, n_paths = 3, 7
    streams = _record_streams(monkeypatch)
    monkeypatch.setattr(montecarlo, "_CHUNK_FLOATS", chunk_floats)
    _log_ratios(game, [0.3], n_rounds, n_paths, seed)
    assert sorted(streams) == STREAMS_READ[family]
    win_rng, category_rng, payoff_rng = _streams(seed)
    wins = win_rng.binomial(n_rounds, game.p, n_paths)
    assert _drawn(streams[0], "binomial").tobytes() == wins.tobytes()
    atoms, bins, tails = _categories(game.dist)
    weights = np.array([w for _, w in atoms] + [w for *_, w in bins] + [w for _, w in tails])
    counts = wins[:, None]
    if 1 in streams:
        counts = category_rng.multinomial(wins, weights / weights.sum())
        assert _drawn(streams[1], "multinomial").tobytes() == counts.tobytes()
    if 2 in streams:
        n_payoffs = int(counts[:, len(atoms) :].sum())
        assert _drawn(streams[2], "random").tobytes() == payoff_rng.random(n_payoffs).tobytes()


def test_vectorised_counts_read_a_generator_as_scalar_calls_do():
    # The engine's chunking rests on this: binomial(n, p, size=m) and
    # multinomial(n_array, pvals) give, and leave the generator where,
    # m scalar calls in turn do. BTPE (n p > 30) and inversion both occur.
    for n, p, pvals in [(12, 0.55, [0.2, 0.5, 0.3]), (3_000, 0.6, np.full(40, 0.025)), (10**12, 0.6, [0.5, 0.5])]:
        whole, one = np.random.default_rng(3), np.random.default_rng(3)
        wins = whole.binomial(n, p, 50)
        assert wins.tolist() == [one.binomial(n, p) for _ in range(50)]
        counts = whole.multinomial(wins, pvals)
        assert counts.tolist() == [one.multinomial(w, pvals).tolist() for w in wins.tolist()]
        assert whole.random() == one.random()


@pytest.mark.parametrize("block", [7, 13, 40])
def test_reading_the_stream_in_blocks_gives_one_reads_values(block):
    # The engine fills chunk after chunk from one generator; a generator
    # must carry nothing over between reads that would shift the doubles.
    whole = np.random.Generator(np.random.PCG64(20_260)).random(520)
    rng = np.random.Generator(np.random.PCG64(20_260))
    parts = np.empty((520 // block + 1, block))
    for part in parts:
        rng.random(out=part)
    assert parts.ravel()[:520].tobytes() == whole.tobytes()


def test_path_counts_beyond_max_paths_are_rejected():
    # A run's paths read at most 2**58 payoff uniforms, far short of the
    # 2**126 draws between one stream's start and the next.
    assert MAX_PATHS * MAX_ROW_FLOATS <= 2**58 < montecarlo._STREAM_GAP
    assert SimConfig(n_rounds=1, n_paths=MAX_PATHS, f=0.1, seed=0).n_paths == 2**32
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(n_rounds=1, n_paths=MAX_PATHS + 1, f=0.1, seed=0)


def test_round_counts_beyond_max_rounds_are_rejected():
    # Win and loss counts stay exact as doubles: an atom-only law runs at
    # the bound, whose growth rates land on g(f) within 1e-6.
    game = REFERENCE_GAMES["atoms"]
    rates = simulate(game, SimConfig(n_rounds=MAX_ROUNDS, n_paths=3, f=0.2, seed=0)).growth_rates
    assert np.allclose(rates, growth_rate(game, 0.2), rtol=0, atol=1e-6)
    with pytest.raises(ValueError, match="n_rounds must lie in"):
        SimConfig(n_rounds=MAX_ROUNDS + 1, n_paths=1, f=0.1, seed=0)


# ---------- values pinned from the per-path implementation ----------

# sha256 of simulate(game, PIN_CONFIG).growth_rates. All six were taken
# from the per-path reference (tests/montecarlo_reference.py), path by
# path, with numpy 2.4.6, when the runs came to draw counted wins and atoms
# from three streams; the engine was not run to take them. NEP 19 lets
# numpy change its binomial and multinomial streams between versions.
PIN_CONFIG = SimConfig(n_rounds=40, n_paths=300, f=0.25, seed=20_260)
PINNED_SHA256 = {
    "dirac": "8bf78311d897fb3c45807d1b720c24e46039cf124c914cf61da141872163a55b",
    "atoms": "d49af40c6ecfad5c85e3c15b6530368dcbb5942836fd88fb60eb29a37f6872dc",
    "uniform": "56e2ded67ae9f57cdf312b097f6da758553c9af8f1881ccccecc55a3bcac1241",
    "histogram": "60414140f38451bcbc9a77c8051a4b2c630155dd9843cad90f33bd89ce7f3e2a",
    "pareto": "da99a543d65730caa6105d23ec5096898f8461ec10935a41282c87a593fe7ca3",
    "mixture": "d625c7647045bebdf6136d1576f9a601cae60fc1405bab3ce214b2be5ea93c59",
}

# sha256 of the little-endian int64 category counts that the engine draws
# at PIN_CONFIG, one row per path in path order and one column per flat
# category: the three atoms for Atoms; the Atoms part's two atoms, the
# Dirac and the Pareto tail for Mixture. They were taken from the per-path
# reference, as the hashes above were. Counts come from the streams alone,
# so unlike those hashes they hold on every CPU.
PINNED_COUNTS_SHA256 = {
    "atoms": "79576ea1a5cc46128e45f82700e832a0777ffda1bee3865680f33189fc0a8ddd",
    "mixture": "98ad08b1be79c782b0a41e6b25f9e7a61a1db32e4a10dfd459f49458c11f257c",
}


@needs_avx512_math
@pytest.mark.parametrize("family", sorted(GAMES))
def test_growth_rates_match_pinned_hash(family):
    rates = simulate(GAMES[family], PIN_CONFIG).growth_rates
    assert hashlib.sha256(rates.tobytes()).hexdigest() == PINNED_SHA256[family]


@pytest.mark.parametrize("family", sorted(PINNED_COUNTS_SHA256))
def test_per_category_win_counts_match_pinned_hash(family, monkeypatch):
    streams = _record_streams(monkeypatch)
    simulate(GAMES[family], PIN_CONFIG)
    counts = _drawn(streams[1], "multinomial").astype("<i8")
    assert hashlib.sha256(counts.tobytes()).hexdigest() == PINNED_COUNTS_SHA256[family]


# ---------- batch invariance ----------


@pytest.mark.parametrize("n_rounds, n_paths", SHAPES)
@pytest.mark.parametrize("family", sorted(REFERENCE_GAMES))
def test_simulate_equals_per_path_reference(family, n_rounds, n_paths):
    # At f = 0.45 numpy's log1p(-f) and the C library's can differ (see below).
    cfg = SimConfig(n_rounds=n_rounds, n_paths=n_paths, f=0.45, seed=41)
    result = simulate(REFERENCE_GAMES[family], cfg)
    assert result.growth_rates.tobytes() == _reference(REFERENCE_GAMES[family], cfg).tobytes()


def test_chunk_with_empty_tied_and_unique_runs_equals_per_path_reference():
    # One chunk whose payoff runs include empty ones (paths without a win),
    # lengths shared by several paths and one longest run of its own. Seed
    # 6 is the first from 5 on whose runs have all three.
    game = GameSpec(0.1, Uniform(0.5, 25.0))
    cfg = SimConfig(n_rounds=40, n_paths=300, f=0.45, seed=6)
    n_wins = np.array([cfg.n_rounds - n_losses for n_losses, _ in _first_paths(game, cfg)])
    runs = np.bincount(n_wins)
    assert runs[0] > 1 and (runs[1:] > 1).sum() > 1 and runs[-1] == 1 and len(runs) > 9
    result = simulate(game, cfg)
    assert result.growth_rates.tobytes() == _reference(game, cfg).tobytes()


@pytest.mark.parametrize("family", sorted(GAMES))
def test_path_does_not_depend_on_path_count(family):
    full = simulate(GAMES[family], SimConfig(n_rounds=25, n_paths=40, f=0.2, seed=3)).growth_rates
    for k in (0, 1, 17, 39):
        alone = simulate(GAMES[family], SimConfig(n_rounds=25, n_paths=k + 1, f=0.2, seed=3)).growth_rates
        assert alone[k] == full[k]
        assert alone.tobytes() == full[: k + 1].tobytes()


@pytest.mark.parametrize("n_rounds, n_paths", SHAPES)
@pytest.mark.parametrize("family", sorted(GAMES))
def test_results_do_not_depend_on_chunking(family, n_rounds, n_paths, monkeypatch):
    game = GAMES[family]
    cfg = SimConfig(n_rounds=n_rounds, n_paths=n_paths, f=0.35, seed=12)
    batched = simulate(game, cfg).growth_rates
    scan = grid_scan(game, 5, n_rounds=n_rounds, n_paths=n_paths, seed=12)
    # One path per chunk, and (for the short paths) several paths per
    # chunk with a shorter last chunk.
    for chunk_floats in (1, 1000):
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK_FLOATS", chunk_floats)
            assert simulate(game, cfg).growth_rates.tobytes() == batched.tobytes(), chunk_floats
            again = grid_scan(game, 5, n_rounds=n_rounds, n_paths=n_paths, seed=12)
            assert again.mean_growth.tobytes() == scan.mean_growth.tobytes(), chunk_floats
            assert again.std_growth.tobytes() == scan.std_growth.tobytes(), chunk_floats


# ---------- grid columns ----------


@pytest.mark.parametrize("family", sorted(REFERENCE_GAMES))
def test_every_column_of_a_19_point_scan_equals_simulate(family):
    # grid_size 19 puts f_9 = 0.45, where numpy's log1p(-f) differs from the
    # C library's in the last bit on CPUs where numpy runs its AVX512 loops;
    # both routes must take the loss term from the same one. Each column's
    # paths are the per-path reference's too.
    game = REFERENCE_GAMES[family]
    scan = grid_scan(game, 19, n_rounds=500, n_paths=8, seed=42)
    for j, f in enumerate(scan.fractions):
        cfg = SimConfig(n_rounds=500, n_paths=8, f=float(f), seed=42)
        result = simulate(game, cfg)
        assert (result.mean_growth, result.std_growth) == (scan.mean_growth[j], scan.std_growth[j]), j
        assert result.growth_rates.tobytes() == _reference(game, cfg).tobytes(), j


# Atoms, a Dirac and a Pareto side by side: per-atom counts, a part that
# reads no uniforms and a part summed draw by draw.
MIXED_PARTS = GameSpec(
    0.55, Mixture([(0.3, Atoms([(0.4, 0.2), (1.1, 0.5), (2.7, 0.3)])), (0.25, Dirac(1.6)), (0.45, Pareto(2.2, 0.5))])
)


def test_mixed_parts_do_not_depend_on_chunking_or_fraction_count(monkeypatch):
    # Each path at each fraction must have the same bits whatever the
    # chunk shape and whichever other fractions share the call, as each
    # path's sum reads only its own terms, in a fixed order.
    fs = _fraction_grid(19).tolist()
    full = _log_ratios(MIXED_PARTS, fs, 300, 24, 8)
    picks = [[9], list(range(0, 20, 4)), list(range(19, -1, -1))]
    for chunk_floats in (1, 5_000, montecarlo._CHUNK_FLOATS):
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_CHUNK_FLOATS", chunk_floats)
            for pick in picks:
                some = _log_ratios(MIXED_PARTS, [fs[j] for j in pick], 300, 24, 8)
                assert some.tobytes() == full[pick].tobytes(), (chunk_floats, pick)


# Worst |engine - fsum| over these cases was 0.98 eps times the sum of the
# absolute per-draw terms (Histogram); Atoms, Dirac and Mixture, whose
# atoms are summed by their counts, stayed below 0.70, and the 40-atom law
# at the end of this file below 0.62.
SUM_BOUND_EPS = 2.0


@pytest.mark.parametrize("n_rounds, n_paths, f", [(40, 300, 0.25), (3_000, 20, 0.45)])
@pytest.mark.parametrize("family", sorted(GAMES))
def test_log_wealth_is_within_rounding_of_the_exact_sum_of_per_draw_terms(family, n_rounds, n_paths, f):
    # Summing atoms by their counts computes the same quantity as the
    # per-draw sum: log1p(f b) of every win and log1p(-f) of every loss.
    game = GAMES[family]
    got = _log_ratios(game, [f], n_rounds, n_paths, 20_260)[0]
    cfg = SimConfig(n_rounds=n_rounds, n_paths=n_paths, f=f, seed=20_260)
    for k, (n_losses, wins) in enumerate(_first_paths(game, cfg)):
        terms = np.log1p(f * _payoffs(wins)).tolist() + [math.log1p(-f)] * n_losses
        bound = SUM_BOUND_EPS * np.finfo(float).eps * math.fsum(map(abs, terms))
        assert abs(got[k] - math.fsum(terms)) <= bound, k


# ---------- many atoms ----------

# 40 atoms: most of a path's counts are zero, and the atoms' np.vecdot
# runs over 40 terms.
MANY_ATOMS = GameSpec(0.55, Atoms([(0.05 * (i + 1), 0.025) for i in range(40)]))


@pytest.mark.parametrize("n_rounds, n_paths", SHAPES)
def test_many_atom_law_equals_per_path_reference_in_any_chunking(n_rounds, n_paths, monkeypatch):
    cfg = SimConfig(n_rounds=n_rounds, n_paths=n_paths, f=0.45, seed=9)
    batched = simulate(MANY_ATOMS, cfg).growth_rates
    assert batched.tobytes() == _reference(MANY_ATOMS, cfg).tobytes()
    got = _log_ratios(MANY_ATOMS, [cfg.f], n_rounds, n_paths, cfg.seed)[0]
    for k, (n_losses, wins) in enumerate(_first_paths(MANY_ATOMS, cfg)):
        terms = np.log1p(cfg.f * _payoffs(wins)).tolist() + [math.log1p(-cfg.f)] * n_losses
        bound = SUM_BOUND_EPS * np.finfo(float).eps * math.fsum(map(abs, terms))
        assert abs(got[k] - math.fsum(terms)) <= bound, k
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_CHUNK_FLOATS", 1)
        assert simulate(MANY_ATOMS, cfg).growth_rates.tobytes() == batched.tobytes()


def test_thousands_of_atoms_cost_memory_by_wins_not_by_rows_times_atoms():
    # An ingested trade log at full precision has an atom per distinct
    # payoff. A table of per-row counts for every atom would take
    # 4000 rows x 3000 atoms x 8 B = 96 MB here, for 8000 rounds in all;
    # counting only the pairs that occur peaked at 3.8 MB, as much as
    # drawing every payoff did.
    values = np.linspace(0.01, 30.0, 3000)
    game = GameSpec(0.55, Atoms(zip(values, np.full(3000, 1 / 3000))))
    cfg = SimConfig(n_rounds=2, n_paths=4000, f=0.3, seed=4)
    tracemalloc.start()
    try:
        rates = simulate(game, cfg).growth_rates
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert rates.tobytes() == _reference(game, cfg).tobytes()


# ---------- category weights that round past 1 ----------

NEAR = 0.99 * MASS_TOL


def _nested_past_one(depth):
    """Mixtures ``depth`` deep whose weights each sum to 1 + NEAR: weight 1
    on the mixture inside and NEAR on a Dirac after it. The flat weights
    sum to about 1 + depth * NEAR, all but the last outermost Dirac's."""
    law = Atoms([(0.5, 0.5), (2.0, 0.5 + NEAR)])
    for level in range(depth):
        law = Mixture([(1.0, law), (NEAR, Dirac(1.0 + level / depth))])
    return law


@pytest.mark.parametrize(
    "law",
    [
        _nested_past_one(MAX_NESTING),
        Atoms([(0.5, 0.3), (1.0, 0.5), (3.0, 0.2 + NEAR)]),
        Atoms([(0.5, 0.3), (1.0, 0.5), (3.0, 0.2 - NEAR)]),
    ],
    ids=["nested", "atoms-above", "atoms-below"],
)
def test_category_weights_that_round_past_1_simulate_as_the_reference_does(law, monkeypatch):
    game = GameSpec(0.6, law)
    cfg = SimConfig(n_rounds=50, n_paths=40, f=0.3, seed=17)
    atoms, _, _ = _categories(law)
    weights = np.array([w for _, w in atoms])
    if isinstance(law, Mixture):
        # numpy's multinomial rejects these weights as they stand.
        assert weights.sum() > 1 + 50 * MASS_TOL
        with pytest.raises(ValueError, match="pvals"):
            np.random.default_rng(0).multinomial(5, weights)
    streams = _record_streams(monkeypatch)
    rates = simulate(game, cfg).growth_rates
    counts = np.array([wins.counts for _, wins in _first_paths(game, cfg)])
    assert _drawn(streams[1], "multinomial").tobytes() == counts.tobytes()
    assert rates.tobytes() == _reference(game, cfg).tobytes()
