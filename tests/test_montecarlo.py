"""Tests for the Monte Carlo playout engine and its determinism contract."""

import math
import tracemalloc

import numpy as np
import pytest

from varkelly import montecarlo
from varkelly.distributions import MAX_NESTING, Atoms, Dirac, Mixture, Uniform
from varkelly.kelly import GameSpec, growth_rate
from varkelly.montecarlo import MAX_ROW_FLOATS, SimConfig, grid_scan, simulate
from montecarlo_reference import _draw_path, _log_wealth_ratio

DIRAC_GAME = GameSpec(0.6, Dirac(1.0))
ATOM_GAME = GameSpec(0.6, Atoms([(1.0, 0.5), (2.0, 0.5)]))


def test_config_validation():
    SimConfig(n_rounds=1, n_paths=1, f=0.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_rounds=0, n_paths=1, f=0.1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_rounds=10, n_paths=0, f=0.1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_rounds=10, n_paths=1, f=1.0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_rounds=10, n_paths=1, f=-0.1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(n_rounds=10, n_paths=1, f=0.1, seed=-1)
    for x0 in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="initial bankroll"):
            SimConfig(n_rounds=10, n_paths=1, f=0.1, seed=0, x0=x0)
    # An int that float() cannot convert.
    for name in ("f", "x0"):
        args = {"n_rounds": 10, "n_paths": 3, "f": 0.1, "seed": 1, name: 10**400}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimConfig(**args)
    for name in ("n_rounds", "n_paths", "seed"):
        for bad in (2.7, math.nan, math.inf):
            args = {"n_rounds": 10, "n_paths": 3, "f": 0.1, "seed": 1, name: bad}
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                SimConfig(**args)
    # float() would read each of these as a number.
    for name in ("f", "x0", "n_rounds"):
        for bad in ("0.1", "1_0", True):
            args = {"n_rounds": 10, "n_paths": 3, "f": 0.1, "seed": 1, name: bad}
            with pytest.raises(TypeError, match=f"{name} must be a real number"):
                SimConfig(**args)
    cfg = SimConfig(n_rounds=np.int64(10), n_paths=np.uint32(3), f=0.1, seed=2.0)
    assert (cfg.n_rounds, cfg.n_paths, cfg.seed) == (10, 3, 2)
    assert all(type(n) is int for n in (cfg.n_rounds, cfg.n_paths, cfg.seed))


def test_zero_fraction_changes_nothing():
    cfg = SimConfig(n_rounds=500, n_paths=8, f=0.0, seed=3, x0=2.5)
    result = simulate(DIRAC_GAME, cfg)
    assert np.all(result.growth_rates == 0.0)
    assert result.mean_growth == 0.0
    assert result.std_growth == 0.0
    assert result.min_final == 2.5
    assert result.max_final == 2.5


def test_repeat_run_is_bit_identical():
    cfg = SimConfig(n_rounds=2_000, n_paths=16, f=0.2, seed=99)
    a = simulate(ATOM_GAME, cfg)
    b = simulate(ATOM_GAME, cfg)
    assert a.growth_rates.tobytes() == b.growth_rates.tobytes()
    assert (a.mean_growth, a.std_growth) == (b.mean_growth, b.std_growth)
    assert (a.min_final, a.max_final, a.seed) == (b.min_final, b.max_final, b.seed)


def test_paths_are_order_independent():
    # Recomputing each path's value in shuffled order must reproduce the
    # engine's output bit for bit: draws depend on (seed, k) only.
    cfg = SimConfig(n_rounds=1_000, n_paths=12, f=0.3, seed=5)
    result = simulate(ATOM_GAME, cfg)
    order = list(range(cfg.n_paths))
    np.random.default_rng(0).shuffle(order)
    recomputed = np.empty(cfg.n_paths)
    for k in order:
        n_losses, payoffs = _draw_path(ATOM_GAME, cfg.n_rounds, cfg.seed, k)
        recomputed[k] = _log_wealth_ratio(cfg.f, n_losses, payoffs) / cfg.n_rounds
    assert recomputed.tobytes() == result.growth_rates.tobytes()


def test_single_path_run_matches_batch_entry():
    cfg = SimConfig(n_rounds=800, n_paths=6, f=0.25, seed=31)
    batch = simulate(ATOM_GAME, cfg)
    # path k of a 6-path run equals path k of any run with the same seed,
    # in particular the k-th single-path slice cannot depend on n_paths
    for k in range(cfg.n_paths):
        n_losses, payoffs = _draw_path(ATOM_GAME, cfg.n_rounds, cfg.seed, k)
        expected = _log_wealth_ratio(cfg.f, n_losses, payoffs) / cfg.n_rounds
        assert batch.growth_rates[k] == expected


def test_different_seeds_differ():
    cfg_a = SimConfig(n_rounds=500, n_paths=4, f=0.2, seed=1)
    cfg_b = SimConfig(n_rounds=500, n_paths=4, f=0.2, seed=2)
    assert not np.array_equal(
        simulate(DIRAC_GAME, cfg_a).growth_rates, simulate(DIRAC_GAME, cfg_b).growth_rates
    )


def test_mean_growth_estimates_growth_rate():
    cfg = SimConfig(n_rounds=5_000, n_paths=32, f=0.2, seed=2718)
    result = simulate(DIRAC_GAME, cfg)
    truth = growth_rate(DIRAC_GAME, 0.2)
    se = result.std_growth / math.sqrt(cfg.n_paths)
    assert abs(result.mean_growth - truth) < 4 * se


def test_longer_paths_reduce_error():
    truth = growth_rate(DIRAC_GAME, 0.2)
    errors = []
    for n in (100, 10_000):
        cfg = SimConfig(n_rounds=n, n_paths=32, f=0.2, seed=13)
        errors.append(abs(simulate(DIRAC_GAME, cfg).mean_growth - truth))
    assert errors[1] < errors[0]


def test_finals_track_growth_rates():
    cfg = SimConfig(n_rounds=200, n_paths=10, f=0.15, seed=8, x0=3.0)
    result = simulate(ATOM_GAME, cfg)
    assert result.min_final > 0.0
    assert result.max_final >= result.min_final
    best = math.exp(result.growth_rates.max() * cfg.n_rounds) * cfg.x0
    assert result.max_final == pytest.approx(best, rel=1e-12)


def test_x0_scales_finals_not_rates():
    cfg1 = SimConfig(n_rounds=300, n_paths=5, f=0.2, seed=44, x0=1.0)
    cfg2 = SimConfig(n_rounds=300, n_paths=5, f=0.2, seed=44, x0=10.0)
    r1, r2 = simulate(ATOM_GAME, cfg1), simulate(ATOM_GAME, cfg2)
    assert r1.growth_rates.tobytes() == r2.growth_rates.tobytes()
    assert r2.min_final == pytest.approx(10 * r1.min_final, rel=1e-12)


def test_single_path_std_is_zero():
    cfg = SimConfig(n_rounds=100, n_paths=1, f=0.1, seed=0)
    assert simulate(DIRAC_GAME, cfg).std_growth == 0.0


# ---------- grid scan / argmax ----------


def test_grid_fractions_layout():
    scan = grid_scan(DIRAC_GAME, 4, n_rounds=50, n_paths=2, seed=1)
    assert np.allclose(scan.fractions, [0, 0.2, 0.4, 0.6, 0.8])
    assert np.all(scan.mean_growth[scan.fractions == 0.0] == 0.0)


def test_grid_columns_match_simulate():
    # Common random numbers: the grid's column at f_j is bit-identical to
    # a standalone simulate at f_j with the same seed.
    scan = grid_scan(ATOM_GAME, 4, n_rounds=400, n_paths=6, seed=17)
    for j, f in enumerate(scan.fractions):
        result = simulate(ATOM_GAME, SimConfig(n_rounds=400, n_paths=6, f=float(f), seed=17))
        assert result.mean_growth == scan.mean_growth[j]
        assert result.std_growth == scan.std_growth[j]


def test_grid_argmax_near_solver_optimum():
    scan = grid_scan(DIRAC_GAME, 19, n_rounds=20_000, n_paths=16, seed=7)
    f_mc = scan.fractions[np.argmax(scan.mean_growth)]
    assert abs(f_mc - 0.2) <= 0.05 + 1e-12


def test_grid_argmax_unfavorable_returns_zero():
    unfavorable = GameSpec(0.4, Dirac(1.0))
    scan = grid_scan(unfavorable, 9, n_rounds=5_000, n_paths=8, seed=123)
    assert scan.fractions[np.argmax(scan.mean_growth)] == 0.0


def test_grid_single_peak_up_to_noise():
    scan = grid_scan(DIRAC_GAME, 19, n_rounds=20_000, n_paths=16, seed=29)
    peak = int(np.argmax(scan.mean_growth))
    se = scan.std_growth / math.sqrt(16)
    # means rise (within noise) before the peak and fall after it
    for j in range(peak):
        assert scan.mean_growth[j] <= scan.mean_growth[j + 1] + 2 * (se[j] + se[j + 1])
    for j in range(peak, len(scan.fractions) - 1):
        assert scan.mean_growth[j + 1] <= scan.mean_growth[j] + 2 * (se[j] + se[j + 1])


def test_grid_requires_three_points():
    with pytest.raises(ValueError):
        grid_scan(DIRAC_GAME, 2, n_rounds=10, n_paths=2, seed=0)
    for grid_size in (3.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="grid_size must be an integer"):
            grid_scan(DIRAC_GAME, grid_size, n_rounds=10, n_paths=2, seed=0)


def test_a_row_over_the_limit_is_rejected_before_anything_is_allocated():
    # A Dirac path of 10**12 rounds would be a row of 8e12 bytes (7.3 TiB).
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n_rounds \\* 1 = {10**12} uniforms exceeds the limit of MAX_ROW_FLOATS"):
            simulate(DIRAC_GAME, SimConfig(n_rounds=10**12, n_paths=1, f=0.1, seed=0))
        with pytest.raises(ValueError, match="MAX_ROW_FLOATS"):
            grid_scan(ATOM_GAME, 5, n_rounds=MAX_ROW_FLOATS // 2 + 1, n_paths=2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_the_row_limit_admits_the_deepest_mixture_and_rows_at_the_limit(monkeypatch):
    deep = Uniform(0.5, 1.5)
    for _ in range(MAX_NESTING):
        deep = Mixture([(1.0, deep)])
    assert 10**5 * (1 + deep._max_uniforms) <= MAX_ROW_FLOATS
    # A row of exactly the limit runs; one more round is rejected.
    monkeypatch.setattr(montecarlo, "MAX_ROW_FLOATS", 40)
    assert simulate(ATOM_GAME, SimConfig(n_rounds=20, n_paths=3, f=0.1, seed=0)).growth_rates.shape == (3,)
    with pytest.raises(ValueError, match="n_rounds \\* 2 = 42 uniforms exceeds the limit of MAX_ROW_FLOATS = 40"):
        simulate(ATOM_GAME, SimConfig(n_rounds=21, n_paths=3, f=0.1, seed=0))


def test_uniform_payoff_game_runs():
    game = GameSpec(0.7, Uniform(0.5, 1.5))
    cfg = SimConfig(n_rounds=3_000, n_paths=24, f=0.25, seed=55)
    result = simulate(game, cfg)
    truth = growth_rate(game, 0.25)
    se = result.std_growth / math.sqrt(cfg.n_paths)
    assert abs(result.mean_growth - truth) < 4 * se
