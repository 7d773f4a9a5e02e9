"""The batched Monte Carlo engine against numpy's streams and the per-path reference.

``simulate`` and ``grid_scan`` draw all paths in batches. These tests pin
the batching to what one path drawn alone gives: path k's row must be
the run's PCG64 stream from double k * width on, every path must equal
``_draw_path``/``_log_wealth_ratio`` recomputed on its own, and neither the
path count, the chunking nor the number of fractions may change any path.
The engine and the reference both sum Atoms draws per atom and Mixture
draws per part, so a last check bounds every path against the exact sum
of its per-draw terms.
"""

import collections
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from varkelly import montecarlo
from varkelly.distributions import Atoms, Dirac, Histogram, Mixture, Pareto, Uniform
from varkelly.kelly import GameSpec, _fraction_grid
from varkelly.montecarlo import MAX_PATHS, MAX_ROW_FLOATS, SimConfig, _log_ratios, grid_scan, simulate
from montecarlo_reference import _draw_path, _log_wealth_ratio, _payoffs

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
# moves: a one-atom Atoms, which unlike Dirac reads one uniform per draw; a
# Mixture whose one-atom Atoms part comes before a Pareto; and a Histogram
# with zero-mass bins and masses that sum to 1 - 1e-13.
REFERENCE_GAMES = {
    **GAMES,
    "atoms-one": GameSpec(0.6, Atoms([(1.3, 1.0)])),
    "mixture-one-atom-pareto": GameSpec(0.6, Mixture([(0.4, Atoms([(0.8, 1.0)])), (0.6, Pareto(2.5, 0.6))])),
    "histogram-empty-bins": GameSpec(0.6, Histogram([0.0, 0.5, 1.0, 2.0, 4.0, 6.0], [0.3, 0.0, 0.5, 0.0, 0.2 - 1e-13])),
}

# Many short paths, all in one chunk, and a few long ones, one per chunk.
SHAPES = [(12, 150), (3_000, 5)]


def _reference(game, cfg):
    """Growth rates recomputed one path at a time."""
    rates = np.empty(cfg.n_paths)
    for k in range(cfg.n_paths):
        n_losses, payoffs = _draw_path(game, cfg.n_rounds, cfg.seed, k)
        rates[k] = _log_wealth_ratio(cfg.f, n_losses, payoffs) / cfg.n_rounds
    return rates


# ---------- the stream ----------


@pytest.mark.parametrize("family", sorted(REFERENCE_GAMES))
@pytest.mark.parametrize("seed", [0, 41, 2**64 + 5, 2**160 + 9])
def test_row_k_is_the_runs_stream_from_double_k_times_width(family, seed, monkeypatch):
    # Rows of several chunks, the last one short: 7 paths of 3 rounds in
    # chunks of 2 rows.
    game = REFERENCE_GAMES[family]
    n_rounds, n_paths = 3, 7
    width = n_rounds * (1 + game.dist._max_uniforms)
    rows = []
    win_logs = montecarlo._win_logs

    def recording(dist, u, start, count, fs):
        if dist is game.dist:
            rows.extend(u.copy())
        return win_logs(dist, u, start, count, fs)

    monkeypatch.setattr(montecarlo, "_win_logs", recording)
    monkeypatch.setattr(montecarlo, "_CHUNK_FLOATS", 2 * width)
    _log_ratios(game, [0.3], n_rounds, n_paths, seed)
    assert len(rows) == n_paths
    for k, row in enumerate(rows):
        bit_generator = np.random.PCG64(seed)
        bit_generator.advance(k * width)
        assert row.tobytes() == np.random.Generator(bit_generator).random(width).tobytes(), k


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
    # Every offset k * width stays below 2**58, far inside one PCG64 stream.
    assert (MAX_PATHS - 1) * MAX_ROW_FLOATS < 2**58
    assert SimConfig(n_rounds=1, n_paths=MAX_PATHS, f=0.1, seed=0).n_paths == 2**32
    with pytest.raises(ValueError, match="n_paths"):
        SimConfig(n_rounds=1, n_paths=MAX_PATHS + 1, f=0.1, seed=0)


# ---------- values pinned from the per-path implementation ----------

# sha256 of simulate(game, PIN_CONFIG).growth_rates. All six were taken
# from the per-path reference (tests/montecarlo_reference.py), path by
# path, when every path came to read one stream per run from double
# k * width on; the engine was not run to take them.
PIN_CONFIG = SimConfig(n_rounds=40, n_paths=300, f=0.25, seed=20_260)
PINNED_SHA256 = {
    "dirac": "5c47bde25810897837cd8067a5384c09d86f9641b29fd07694865225ff1509bd",
    "atoms": "7121347f4ee24689326d441c9d23fae8e2e4a248f81bc50601b18473fa2f0fd9",
    "uniform": "63ecd2d7f7f6d17c04edd04db4496c23b563f331726110feca4a068dcfab8c39",
    "histogram": "ea637178591cd0bd99eaffeaaea0244de81284a0c0e2beb081aa08d6dab10ef7",
    "pareto": "94cd9180eae1b9fb68d412ba549fd04d23223a6d300f6c3a3dcf98a94bc25812",
    "mixture": "de1e1b729b608188599a67ec5ed7a81b9997b8e1600a293d58f4980632464153",
}

# sha256 of the little-endian int64 per-row category counts that the
# engine takes at PIN_CONFIG, as dense row-major (row, category) matrices
# (zero where a row drew no such category), in the order made: per atom for
# Atoms; per part of the outer Mixture, per atom of its Atoms part and per
# part of its inner Mixture for Mixture. They were taken from the picks of
# the per-path reference, as the hashes above were. Counts come from the
# streams and comparisons alone, so unlike those hashes they hold on every
# CPU.
PINNED_COUNTS_SHA256 = {
    "atoms": "184e885c72e9930c9763e88718ff38c68a4f3f38defb8dd88a154fe8f5d2942e",
    "mixture": "654573f1bfc22756abfcca2755d0452ab05a9e7bc5ab1e2fe1c7bb8cc3155f71",
}


def _numpy_uses_avx512_math():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


# The pins were taken where numpy's log1p and power run its AVX512 (SVML)
# loops, which round some values differently from the C library's
# functions that numpy calls on other CPUs.
@pytest.mark.skipif(not _numpy_uses_avx512_math(), reason="pins taken with numpy's AVX512 log1p and power")
@pytest.mark.parametrize("family", sorted(GAMES))
def test_growth_rates_match_pinned_hash(family):
    rates = simulate(GAMES[family], PIN_CONFIG).growth_rates
    assert hashlib.sha256(rates.tobytes()).hexdigest() == PINNED_SHA256[family]


@pytest.mark.parametrize("family", sorted(PINNED_COUNTS_SHA256))
def test_per_category_win_counts_match_pinned_hash(family, monkeypatch):
    made = []

    def recording(idx, count, n):
        keys, times = counts_per_row(idx, count, n)
        dense = np.zeros(len(count) * n, dtype="<i8")
        dense[keys] = times
        made.append(dense)
        return keys, times

    counts_per_row = montecarlo._counts_per_row
    monkeypatch.setattr(montecarlo, "_counts_per_row", recording)
    simulate(GAMES[family], PIN_CONFIG)
    digest = hashlib.sha256(b"".join(c.tobytes() for c in made))
    assert digest.hexdigest() == PINNED_COUNTS_SHA256[family]


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
    # lengths shared by several paths and one longest run of its own.
    game = GameSpec(0.1, Uniform(0.5, 25.0))
    cfg = SimConfig(n_rounds=40, n_paths=300, f=0.45, seed=5)
    n_wins = np.array([cfg.n_rounds - _draw_path(game, cfg.n_rounds, cfg.seed, k)[0] for k in range(cfg.n_paths)])
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


# Worst |engine - fsum| over these cases was 0.91 eps times the sum of the
# absolute per-draw terms (Histogram and Pareto at 40 rounds); Atoms,
# Dirac and Mixture, summed per atom and per part, stayed below 0.76, and
# the 40-atom law at the end of this file below 0.67.
SUM_BOUND_EPS = 2.0


@pytest.mark.parametrize("n_rounds, n_paths, f", [(40, 300, 0.25), (3_000, 20, 0.45)])
@pytest.mark.parametrize("family", sorted(GAMES))
def test_log_wealth_is_within_rounding_of_the_exact_sum_of_per_draw_terms(family, n_rounds, n_paths, f):
    # The per-atom and per-part order computes the same quantity as the
    # per-draw sum: log1p(f b) of every win and log1p(-f) of every loss.
    game = GAMES[family]
    got = _log_ratios(game, [f], n_rounds, n_paths, 20_260)[0]
    for k in range(n_paths):
        n_losses, wins = _draw_path(game, n_rounds, 20_260, k)
        terms = np.log1p(f * _payoffs(wins)).tolist() + [math.log1p(-f)] * n_losses
        bound = SUM_BOUND_EPS * np.finfo(float).eps * math.fsum(map(abs, terms))
        assert abs(got[k] - math.fsum(terms)) <= bound, k


# ---------- many atoms ----------

# 40 atoms: a path of a dozen wins or more can draw more than 8 of them,
# and past 8 terms numpy's sum is pairwise rather than left to right.
MANY_ATOMS = GameSpec(0.55, Atoms([(0.05 * (i + 1), 0.025) for i in range(40)]))


@pytest.mark.parametrize("n_rounds, n_paths", SHAPES)
def test_many_atom_law_equals_per_path_reference_in_any_chunking(n_rounds, n_paths, monkeypatch):
    cfg = SimConfig(n_rounds=n_rounds, n_paths=n_paths, f=0.45, seed=9)
    batched = simulate(MANY_ATOMS, cfg).growth_rates
    assert batched.tobytes() == _reference(MANY_ATOMS, cfg).tobytes()
    got = _log_ratios(MANY_ATOMS, [cfg.f], n_rounds, n_paths, cfg.seed)[0]
    for k in range(n_paths):
        n_losses, wins = _draw_path(MANY_ATOMS, n_rounds, cfg.seed, k)
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


@pytest.mark.parametrize("n, by_sorting", [(3, False), (5000, True)])
def test_per_row_counts_are_the_pairs_that_occur(n, by_sorting):
    rng = np.random.default_rng(7)
    count = rng.integers(0, 10, 400)
    idx = rng.integers(0, n, int(count.sum()))
    assert (len(count) * n > 4 * len(idx)) is by_sorting
    keys, times = montecarlo._counts_per_row(idx, count, n)
    pairs = collections.Counter(zip(np.repeat(np.arange(len(count)), count).tolist(), idx.tolist()))
    assert keys.tolist() == sorted(r * n + i for r, i in pairs)
    assert times.tolist() == [pairs[divmod(k, n)] for k in keys.tolist()]
