"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Run with ``pytest -v`` (test names carry the criterion numbers) or
``pytest -s`` to see the [PASS]/[FAIL] gate lines. Every criterion
enforces both its numeric tolerance and its runtime budget.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

import varkelly as vk

SEED = 20260825


def gate(num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def random_favorable_game(rng):
    """Random game with positive edge over atoms/uniform/histogram/Pareto
    families and mixtures of them, at desk-scale parameter ranges."""
    while True:
        p = float(rng.uniform(0.35, 0.9))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            n = int(rng.integers(2, 6))
            values = rng.uniform(0.2, 4.0, n)
            weights = rng.dirichlet(np.ones(n))
            dist = vk.Atoms(list(zip(values, weights)))
        elif kind == 1:
            lo = float(rng.uniform(0.1, 2.0))
            dist = vk.Uniform(lo, lo + float(rng.uniform(0.1, 2.0)))
        elif kind == 2:
            edges = np.sort(rng.uniform(0.1, 4.0, int(rng.integers(3, 7))))
            while np.any(np.diff(edges) < 1e-3):
                edges = np.sort(rng.uniform(0.1, 4.0, len(edges)))
            dist = vk.Histogram(edges, rng.dirichlet(np.ones(len(edges) - 1)))
        elif kind == 3:
            dist = vk.Pareto(float(rng.uniform(1.6, 4.0)), float(rng.uniform(0.3, 2.0)))
        else:
            lo = float(rng.uniform(0.1, 2.0))
            dist = vk.Mixture(
                [
                    (0.5, vk.Pareto(float(rng.uniform(1.6, 4.0)), float(rng.uniform(0.3, 2.0)))),
                    (0.5, vk.Uniform(lo, lo + 1.0)),
                ]
            )
        game = vk.GameSpec(p, dist)
        if vk.edge(game) > 0.0:
            return game


def game_pool(count: int, seed: int):
    rng = np.random.default_rng(seed)
    return [random_favorable_game(rng) for _ in range(count)]


def test_criterion_1_dirac_reduction_matches_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    checked = 0
    while checked < 200:
        p = float(rng.uniform(0.05, 0.95))
        b = float(rng.uniform(0.1, 5.0))
        if p * (1 + b) <= 1:
            continue
        closed = (p * (1 + b) - 1) / b
        solved = vk.solve_kelly(vk.GameSpec(p, vk.Dirac(b))).f_hat
        worst = max(worst, abs(solved - closed))
        checked += 1
    elapsed = time.perf_counter() - start
    gate(
        1,
        worst <= 1e-9 and elapsed < 1.0,
        f"dirac reduction worst |f_hat - closed form| = {worst:.3g} "
        f"over 200 games (tol 1e-9), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_first_order_equation_residual():
    start = time.perf_counter()
    games = game_pool(200, SEED + 2)
    worst = 0.0
    for game in games:
        f_hat = vk.solve_kelly(game).f_hat
        residual = game.p * game.dist.payoff_transform(f_hat) - game.q / (1.0 - f_hat)
        worst = max(worst, abs(residual))
    elapsed = time.perf_counter() - start
    gate(
        2,
        worst <= 1e-7 and elapsed < 10.0,
        f"worst |p*M(f_hat) - (1-p)/(1-f_hat)| = {worst:.3g} "
        f"over 200 mixed-family games (tol 1e-7), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_3_mean_payoff_fraction_is_upper_bound():
    start = time.perf_counter()
    games = game_pool(200, SEED + 2)  # the same pool as criterion 2
    ordering_ok = True
    strict_ok = True
    for game in games:
        solution = vk.solve_kelly(game)
        ordering_ok &= solution.f_hat <= solution.f_star_mean + 1e-9
        strict_ok &= solution.jensen_gap >= 1e-6
    dirac_ok = True
    rng = np.random.default_rng(SEED + 3)
    for _ in range(50):
        p = float(rng.uniform(0.4, 0.95))
        b = float(rng.uniform(0.2, 4.0))
        if p * (1 + b) <= 1:
            continue
        gap = vk.solve_kelly(vk.GameSpec(p, vk.Dirac(b))).jensen_gap
        dirac_ok &= abs(gap) <= 1e-9
    elapsed = time.perf_counter() - start
    gate(
        3,
        ordering_ok and strict_ok and dirac_ok and elapsed < 10.0,
        f"f_hat <= f_star + 1e-9: {ordering_ok}; gap >= 1e-6 when var >= 1e-6: "
        f"{strict_ok}; |gap| <= 1e-9 on point masses: {dirac_ok}; {elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_two_atom_worked_case():
    start = time.perf_counter()
    game = vk.GameSpec(0.6, vk.Atoms([(1.0, 0.5), (2.0, 0.5)]))
    solution = vk.solve_kelly(game)

    # independent oracle: bisect the hand-written three-fraction equation
    #   0.3/(1+f) + 0.6/(1+2f) - 0.4/(1-f) = 0
    def hand_derivative(f):
        return 0.3 / (1 + f) + 0.6 / (1 + 2 * f) - 0.4 / (1 - f)

    lo, hi = 0.0, 0.999999
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hand_derivative(mid) > 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)

    f_ok = abs(solution.f_hat - 0.3233) <= 5e-4 and abs(solution.f_hat - oracle) <= 1e-9
    star_ok = solution.f_star_mean == (0.6 * 2.5 - 1.0) / 1.5
    gap_ok = abs(solution.jensen_gap - 0.0101) <= 5e-4
    elapsed = time.perf_counter() - start
    gate(
        4,
        f_ok and star_ok and gap_ok and elapsed < 1.0,
        f"f_hat = {solution.f_hat:.6f} (oracle {oracle:.6f}, target 0.3233 +/- 5e-4), "
        f"f_star = 1/3 exact: {star_ok}, gap = {solution.jensen_gap:.6f} "
        f"(target 0.0101 +/- 5e-4), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_5_growth_curve_concave_with_peak_at_solution():
    start = time.perf_counter()
    games = game_pool(50, SEED + 5)
    concave_ok = True
    peak_ok = True
    step = 1.0 / 201.0
    for game in games:
        curve = vk.growth_curve(game, 200)
        second = np.diff(curve.growth_rates, 2)
        concave_ok &= bool(np.all(second <= 1e-8))
        peak = curve.fractions[int(np.argmax(curve.growth_rates))]
        peak_ok &= abs(peak - vk.solve_kelly(game).f_hat) <= step + 1e-12
    elapsed = time.perf_counter() - start
    gate(
        5,
        concave_ok and peak_ok and elapsed < 30.0,
        f"nonpositive second differences (tol 1e-8): {concave_ok}; curve argmax within "
        f"one grid step of f_hat: {peak_ok}; 50 games, m=200, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_6_monte_carlo_agreement():
    start = time.perf_counter()
    game = vk.GameSpec(0.6, vk.Dirac(1.0))
    cfg = vk.SimConfig(n_rounds=100_000, n_paths=64, f=0.2, seed=SEED)
    result = vk.simulate(game, cfg)
    mean_err = abs(result.mean_growth - 0.020136)
    mean_tol = 4 * result.std_growth / 8
    scan = vk.grid_scan(game, 19, n_rounds=100_000, n_paths=64, seed=SEED)
    f_mc = scan.fractions[np.argmax(scan.mean_growth)]
    elapsed = time.perf_counter() - start
    gate(
        6,
        mean_err <= mean_tol and abs(f_mc - 0.20) <= 0.05 and elapsed < 60.0,
        f"|mean_growth - 0.020136| = {mean_err:.2e} <= 4*std/8 = {mean_tol:.2e}; "
        f"grid argmax = {f_mc} (target 0.20 +/- 0.05); {elapsed:.2f}s (< 60s)",
    )


def test_criterion_7_unfavorable_and_boundary_games_decline_to_bet():
    start = time.perf_counter()
    boundary = vk.solve_kelly(vk.GameSpec(0.5, vk.Dirac(1.0)))
    ok = boundary.status == "no_bet" and boundary.f_hat == 0.0
    rng = np.random.default_rng(SEED + 7)
    checked = 0
    while checked < 50:
        p = float(rng.uniform(0.05, 0.6))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            dist = vk.Dirac(float(rng.uniform(0.1, 1.5)))
        elif kind == 1:
            lo = float(rng.uniform(0.1, 1.0))
            dist = vk.Uniform(lo, lo + 0.5)
        else:
            dist = vk.Pareto(float(rng.uniform(2.0, 4.0)), float(rng.uniform(0.2, 0.8)))
        game = vk.GameSpec(p, dist)
        if vk.edge(game) > 0.0:
            continue
        solution = vk.solve_kelly(game)
        ok &= solution.status == "no_bet" and solution.f_hat == 0.0 and solution.growth == 0.0
        checked += 1
    elapsed = time.perf_counter() - start
    gate(
        7,
        ok and elapsed < 1.0,
        f"fair-coin boundary and 50 unfavorable games all return no_bet with "
        f"f_hat = 0: {ok}; {elapsed:.2f}s (< 1s)",
    )


def test_criterion_8_ingestion_round_trip(tmp_path):
    start = time.perf_counter()
    truth = vk.GameSpec(0.6, vk.Atoms([(1.0, 0.5), (2.0, 0.5)]))
    n = 100_000
    rng = np.random.default_rng(SEED + 8)
    wins = rng.random(n) < truth.p
    n_wins = int(wins.sum())
    payoffs = truth.dist.sample(rng, n_wins)

    csv_path = tmp_path / "rounds.csv"
    rows = [f"win,{b}" for b in payoffs] + ["loss,"] * (n - n_wins)
    csv_path.write_text("\n".join(rows) + "\n")

    summary = vk.build_empirical(vk.load_trades(csv_path))
    fitted = vk.solve_kelly(vk.GameSpec(summary.p_hat, summary.dist))
    direct = vk.solve_kelly(truth)

    # delta-method standard error of f_hat through (p_hat, atom weight)
    def f_at(p, w2):
        return vk.solve_kelly(vk.GameSpec(p, vk.Atoms([(1.0, 1 - w2), (2.0, w2)]))).f_hat

    h = 1e-4
    df_dp = (f_at(0.6 + h, 0.5) - f_at(0.6 - h, 0.5)) / (2 * h)
    df_dw = (f_at(0.6, 0.5 + h) - f_at(0.6, 0.5 - h)) / (2 * h)
    se = math.sqrt(df_dp**2 * (0.6 * 0.4 / n) + df_dw**2 * (0.25 / n_wins))
    f_err = abs(fitted.f_hat - direct.f_hat)
    elapsed = time.perf_counter() - start
    gate(
        8,
        f_err <= 4 * se and elapsed < 60.0,
        f"|f_hat(ingested) - f_hat(direct)| = {f_err:.2e} <= 4 SE = {4 * se:.2e} "
        f"at n = 1e5; {elapsed:.2f}s (< 60s)",
    )


def test_criterion_9_determinism_is_bitwise(tmp_path):
    start = time.perf_counter()
    game = vk.GameSpec(0.6, vk.Atoms([(1.0, 0.5), (2.0, 0.5)]))
    cfg = vk.SimConfig(n_rounds=10_000, n_paths=16, f=0.25, seed=SEED)

    first = vk.simulate(game, cfg)
    second = vk.simulate(game, cfg)
    repeat_ok = (
        first.growth_rates.tobytes() == second.growth_rates.tobytes()
        and first.mean_growth == second.mean_growth
        and first.std_growth == second.std_growth
        and first.min_final == second.min_final
        and first.max_final == second.max_final
    )

    # emulate a different execution schedule: recompute every path in
    # shuffled order straight from each path's stretch of the run's stream
    from montecarlo_reference import _draw_path, _log_wealth_ratio

    order = list(range(cfg.n_paths))
    np.random.default_rng(1).shuffle(order)
    shuffled = np.empty(cfg.n_paths)
    for k in order:
        n_losses, draws = _draw_path(game, cfg.n_rounds, cfg.seed, k)
        shuffled[k] = _log_wealth_ratio(cfg.f, n_losses, draws) / cfg.n_rounds
    order_ok = shuffled.tobytes() == first.growth_rates.tobytes()

    # and a different batching shape: the common-random-number grid must
    # reproduce the standalone run bit for bit at the same fraction
    scan = vk.grid_scan(game, 3, n_rounds=10_000, n_paths=16, seed=SEED)
    j = int(np.argmin(np.abs(scan.fractions - cfg.f)))
    grid_ok = scan.mean_growth[j] == first.mean_growth

    argv = [
        sys.executable, "-m", "varkelly.cli", "simulate",
        "--p", "0.6", "--dist", '{"type":"atoms","points":[[1,0.5],[2,0.5]]}',
        "--f", "0.25", "--n-rounds", "10000", "--n-paths", "16", "--seed", str(SEED),
    ]
    out_a = subprocess.run(argv, capture_output=True, check=True).stdout
    out_b = subprocess.run(argv, capture_output=True, check=True).stdout
    cli_ok = out_a == out_b and json.loads(out_a)["seed"] == SEED

    elapsed = time.perf_counter() - start
    gate(
        9,
        repeat_ok and order_ok and grid_ok and cli_ok and elapsed < 30.0,
        f"repeat run bit-identical: {repeat_ok}; shuffled path order identical: "
        f"{order_ok}; grid batching identical: {grid_ok}; CLI stdout byte-identical: "
        f"{cli_ok}; {elapsed:.2f}s (< 30s)",
    )
