"""Tests for the edge/growth functions and the optimal-fraction solver."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from varkelly import kelly
from varkelly.distributions import _SERIES_BELOW, Atoms, Dirac, Histogram, Mixture, Pareto, Uniform
from varkelly.errors import InfiniteMeanError, NotFavorableError
from varkelly.kelly import (
    STATUS_NO_BET,
    STATUS_SOLVED,
    GameSpec,
    _bits,
    _from_bits,
    _interpolate,
    edge,
    growth_curve,
    growth_derivative,
    growth_rate,
    jensen_compare,
    solve_kelly,
)

# Frozen hand evaluations for p = 0.6, Dirac(1):
#   g(f) = 0.6*ln(1+f) + 0.4*ln(1-f)
G_AT_THIRD = 0.010423200227802798
G_AT_TWO_THIRDS = -0.1329495412076495
G_AT_FIFTH = 0.020135513550688863
G_AT_NINE_TENTHS = -0.5359217054941816
G_AT_99_HUNDREDTHS = -1.4291872911533958

# Frozen solver oracle for p = 0.6, Atoms{(1,1/2),(2,1/2)}: the root of
# 0.3/(1+f) + 0.6/(1+2f) = 0.4/(1-f), found by high-precision bisection.
TWO_ATOM_F_HAT = 0.32329280498653257
TWO_ATOM_GAP = 0.010040528346800748

# Frozen root for p = 0.6, Uniform(1,2) via the closed-form transform.
UNIFORM_F_HAT = 0.3300115359280317

DIRAC_GAME = GameSpec(0.6, Dirac(1.0))
TWO_ATOM_GAME = GameSpec(0.6, Atoms([(1.0, 0.5), (2.0, 0.5)]))


def random_favorable_game(rng):
    """Bounded random game with a positive edge, mixed families."""
    while True:
        p = float(rng.uniform(0.35, 0.9))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            n = int(rng.integers(2, 6))
            values = rng.uniform(0.2, 4.0, n)
            weights = rng.dirichlet(np.ones(n))
            dist = Atoms(list(zip(values, weights)))
        elif kind == 1:
            lo = float(rng.uniform(0.1, 2.0))
            dist = Uniform(lo, lo + float(rng.uniform(0.1, 2.0)))
        elif kind == 2:
            edges = np.sort(rng.uniform(0.1, 4.0, int(rng.integers(3, 7))))
            while np.any(np.diff(edges) < 1e-3):
                edges = np.sort(rng.uniform(0.1, 4.0, len(edges)))
            dist = Histogram(edges, rng.dirichlet(np.ones(len(edges) - 1)))
        elif kind == 3:
            dist = Pareto(float(rng.uniform(1.6, 4.0)), float(rng.uniform(0.3, 2.0)))
        else:
            lo = float(rng.uniform(0.1, 2.0))
            dist = Mixture(
                [
                    (0.5, Pareto(float(rng.uniform(1.6, 4.0)), float(rng.uniform(0.3, 2.0)))),
                    (0.5, Uniform(lo, lo + 1.0)),
                ]
            )
        game = GameSpec(p, dist)
        if edge(game) > 0.0:
            return game


# ---------- GameSpec / edge ----------


def test_game_spec_validates_probability():
    for bad in (0.0, 1.0, -0.2, 1.7, math.nan, 10**400):
        with pytest.raises(ValueError, match="win probability must"):
            GameSpec(bad, Dirac(1.0))
    # float() would read these as 0.6, 0.6 and 1.
    for bad in ("0.6", "0_6", True):
        with pytest.raises(TypeError, match="win probability must be a real number"):
            GameSpec(bad, Dirac(1.0))
    game = GameSpec(0.25, Dirac(1.0))
    assert game.q == 0.75


@pytest.mark.parametrize(
    "build, error, violation",
    [
        (lambda: Atoms([(1.0, 0.3)]), ValueError, "mass sums to 0.3"),
        (lambda: Uniform(-5.0, 3.0), ValueError, "bin edge -5 is negative"),
        (lambda: Histogram([2.0, 1.0], [1.0]), ValueError, "bin edges are not strictly increasing"),
        (lambda: Pareto(0.9, 1.0), InfiniteMeanError, "infinite mean"),
        (lambda: Mixture([(0.5, Dirac(2.0)), (0.5, Dirac(-1.0))]), ValueError, "payoff -1 is negative"),
    ],
    ids=["atoms-mass", "uniform-negative", "histogram-reversed", "pareto-alpha", "mixture-part"],
)
def test_game_spec_rejects_invalid_distribution(build, error, violation):
    # A payoff that is not a distribution with a finite mean fails as it is
    # built, so no game can be solved on it.
    with pytest.raises(error, match=violation):
        GameSpec(0.6, build())


def test_game_spec_rejects_a_payoff_that_is_not_a_distribution():
    with pytest.raises(TypeError, match="is not a PayoffDistribution"):
        GameSpec(0.6, {"type": "dirac", "b": 1.0})


def test_edge_values():
    report = edge(DIRAC_GAME)
    assert report == pytest.approx(0.2, abs=1e-15)
    assert report > 0.0
    report = edge(GameSpec(0.5, Dirac(1.0)))  # fair game boundary
    assert report == pytest.approx(0.0, abs=1e-15)
    assert not report > 0.0
    assert not edge(GameSpec(0.3, Dirac(1.0))) > 0.0
    # boundary through a continuous payoff: 0.4 * (1 + 1.5) - 1 = 0
    assert not edge(GameSpec(0.4, Uniform(1.0, 2.0))) > 0.0


def test_edge_is_a_float():
    for game in (DIRAC_GAME, TWO_ATOM_GAME, GameSpec(0.3, Pareto(2.5, 1.0))):
        assert type(edge(game)) is float


# ---------- classical fraction ----------


def test_classical_fraction_known_values():
    # For a fixed payoff b, f_star_mean is the classical fraction
    # (p * (1 + b) - 1) / b, and f_hat meets it to within one ulp.
    cases = [
        (0.6, 1.0, 0.2),
        (0.6, 2.0, 0.4),
        (2 / 3, 2.0, 0.5),
        (0.51, 1.0, 0.02),
        (0.75, 0.8, 0.35 / 0.8),  # p(1+b)-1 = 0.75*1.8-1 = 0.35, /0.8
    ]
    for p, b, want in cases:
        solution = solve_kelly(GameSpec(p, Dirac(b)))
        assert solution.f_star_mean == pytest.approx(want, abs=1e-15)
        assert solution.f_hat == pytest.approx(want, abs=1e-15)


# ---------- growth rate and derivative ----------


def test_growth_rate_frozen_values():
    assert growth_rate(DIRAC_GAME, 1 / 3) == pytest.approx(G_AT_THIRD, abs=1e-12)
    assert growth_rate(DIRAC_GAME, 2 / 3) == pytest.approx(G_AT_TWO_THIRDS, abs=1e-12)
    assert growth_rate(DIRAC_GAME, 0.2) == pytest.approx(G_AT_FIFTH, abs=1e-12)
    assert growth_rate(DIRAC_GAME, 0.9) == pytest.approx(G_AT_NINE_TENTHS, abs=1e-12)
    assert growth_rate(DIRAC_GAME, 0.99) == pytest.approx(G_AT_99_HUNDREDTHS, abs=1e-12)
    assert growth_rate(DIRAC_GAME, 0.0) == 0.0


def test_growth_derivative_at_zero_is_edge():
    for game in (DIRAC_GAME, TWO_ATOM_GAME, GameSpec(0.3, Uniform(1, 2))):
        assert growth_derivative(game, 0.0) == edge(game)


def test_growth_derivative_frozen_value():
    # hand value at f = 0.3: 0.3/1.3 + 0.6/1.6 - 0.4/0.7
    expected = 0.3 / 1.3 + 0.6 / 1.6 - 0.4 / 0.7
    assert growth_derivative(TWO_ATOM_GAME, 0.3) == pytest.approx(expected, abs=1e-12)


def test_growth_derivative_matches_finite_difference():
    h = 1e-6
    for game in (TWO_ATOM_GAME, GameSpec(0.7, Uniform(0.5, 2.0)), GameSpec(0.6, Pareto(3, 1))):
        for f in (0.1, 0.3, 0.6):
            numeric = (growth_rate(game, f + h) - growth_rate(game, f - h)) / (2 * h)
            assert growth_derivative(game, f) == pytest.approx(numeric, abs=1e-5)


@pytest.mark.parametrize("f", [1.0, 1.5, math.inf, math.nan, -0.1, "0.1", ".0_5", True, False], ids=str)
@pytest.mark.parametrize("function", [growth_rate, growth_derivative], ids=lambda fn: fn.__name__)
def test_growth_rejects_fraction_out_of_domain(function, f):
    if isinstance(f, float):
        error, match = ValueError, r"betting fraction must lie in \[0, 1\), got"
    else:  # float() reads a string or a bool, ".0_5" as 0.05, but neither is a fraction
        error, match = TypeError, "betting fraction must be a real number"
    with pytest.raises(error, match=match):
        function(DIRAC_GAME, f)


@pytest.mark.parametrize("function", [growth_rate, growth_derivative], ids=lambda fn: fn.__name__)
def test_growth_rejects_fraction_beyond_the_double_range(function):
    # An int that float() cannot convert: ValueError, not OverflowError.
    with pytest.raises(ValueError, match="betting fraction must be finite"):
        function(DIRAC_GAME, 10**400)


# ---------- solver ----------


def test_solve_dirac_reduces_to_classical():
    solution = solve_kelly(DIRAC_GAME)
    assert solution.status == STATUS_SOLVED
    assert solution.f_hat == pytest.approx(0.2, abs=1e-9)
    assert solution.f_star_mean == pytest.approx(0.2, abs=1e-15)
    assert abs(solution.jensen_gap) <= 1e-9
    assert solution.growth == pytest.approx(G_AT_FIFTH, abs=1e-9)


def test_solve_two_atom_frozen_oracle():
    solution = solve_kelly(TWO_ATOM_GAME)
    assert solution.f_hat == pytest.approx(TWO_ATOM_F_HAT, abs=1e-8)
    assert solution.f_star_mean == pytest.approx(1 / 3, abs=1e-15)
    assert solution.jensen_gap == pytest.approx(TWO_ATOM_GAP, abs=1e-8)
    assert abs(solution.residual) <= 1e-7


def test_solve_uniform_frozen_oracle():
    solution = solve_kelly(GameSpec(0.6, Uniform(1.0, 2.0)))
    assert solution.f_hat == pytest.approx(UNIFORM_F_HAT, abs=1e-8)
    assert solution.f_star_mean == pytest.approx(1 / 3, abs=1e-12)


def test_solve_no_bet_games():
    for game in (GameSpec(0.4, Dirac(1.0)), GameSpec(0.5, Dirac(1.0))):
        solution = solve_kelly(game)
        assert solution.status == STATUS_NO_BET
        assert solution.f_hat == 0.0
        assert solution.growth == 0.0
        assert solution.residual == pytest.approx(edge(game), abs=1e-15)
        assert solution.f_star_mean == 0.0
        assert solution.jensen_gap == 0.0


def test_solve_sub_ulp_tolerance_terminates_on_exact_root():
    # Once the bracket collapses to adjacent doubles, the derivative
    # difference rounds to exactly 0.0, which is a legitimate root hit;
    # the loop must not run on past it.
    solution = solve_kelly(TWO_ATOM_GAME)
    assert solution.f_hat == pytest.approx(TWO_ATOM_F_HAT, abs=1e-10)


@pytest.mark.parametrize("margin", [1e-10, 1e-16])
def test_dirac_grid_never_exceeds_mean_payoff_fraction(margin):
    # f_hat <= f*(p, E[b]) must hold bit for bit, also where rounding makes
    # g'(f*) slightly negative for a deterministic payoff. Besides the grid,
    # each payoff is paired with p = margin above break-even (root near 0)
    # and with p = 1 - margin (root near 1).
    bs = np.geomspace(0.05, 50.0, 13)
    games = [(float(p), float(b)) for p in np.linspace(0.51, 0.99, 13) for b in bs]
    games += [(1.0 / (1.0 + float(b)) + margin, float(b)) for b in bs]
    games += [(1.0 - margin, float(b)) for b in bs]
    for p, b in games:
        game = GameSpec(p, Dirac(b))
        if not edge(game) > 0.0:
            continue
        solution = solve_kelly(game)
        assert solution.status == STATUS_SOLVED
        assert solution.jensen_gap >= 0.0, (p, b)
        exact = float((Fraction(p) * (1 + Fraction(b)) - 1) / Fraction(b))
        assert solution.f_hat == pytest.approx(exact, abs=1e-12)


def test_win_probability_near_one_solves():
    solution = solve_kelly(GameSpec(1 - 1e-13, Dirac(1.0)))
    assert solution.status == STATUS_SOLVED
    assert solution.f_hat == pytest.approx(1 - 2e-13, abs=1e-10)
    assert solution.jensen_gap >= 0.0


def test_solve_near_point_mass_pareto_finds_the_fixed_payoff_fraction():
    # Pareto(1e6, 1) is within O(1e-6) of Dirac(1), so f_hat ~ f* = 0.2.
    solution = solve_kelly(GameSpec(0.6, Pareto(1e6, 1.0)))
    assert solution.status == STATUS_SOLVED
    assert solution.f_hat == pytest.approx(solution.f_star_mean, rel=1e-6)


def test_solution_maximizes_growth_locally():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        game = random_favorable_game(rng)
        solution = solve_kelly(game)
        g_hat = solution.growth
        step = 1e-3
        left = max(solution.f_hat - step, 0.0)
        right = min(solution.f_hat + step, 1.0 - 1e-9)
        assert g_hat >= growth_rate(game, left) - 1e-10
        assert g_hat >= growth_rate(game, right) - 1e-10
        assert abs(solution.residual) <= 1e-7


def test_derivative_changes_sign_across_returned_root():
    # closed-form transforms (no quadrature noise) make the bracket check exact
    for game in (DIRAC_GAME, TWO_ATOM_GAME, GameSpec(0.7, Atoms([(0.5, 0.3), (2.5, 0.7)]))):
        f_hat = solve_kelly(game).f_hat
        assert growth_derivative(game, f_hat - 2e-10) > 0
        assert growth_derivative(game, f_hat + 2e-10) < 0


def test_optimality_against_fixed_offsets():
    rng = np.random.default_rng(404)
    for _ in range(10):
        game = random_favorable_game(rng)
        solution = solve_kelly(game)
        for delta in (0.01, 0.05, 0.1):
            for f in (solution.f_hat - delta, solution.f_hat + delta):
                f = min(max(f, 0.0), 1.0 - 1e-9)
                assert solution.growth >= growth_rate(game, f) - 1e-10


def test_fraction_never_decreases_in_win_probability():
    for dist in (Dirac(1.0), Atoms([(1.0, 0.5), (2.0, 0.5)]), Uniform(0.5, 2.0), Pareto(3, 1)):
        previous = 0.0
        for p in np.linspace(0.45, 0.95, 11):
            solution = solve_kelly(GameSpec(float(p), dist))
            assert solution.f_hat >= previous - 1e-9
            previous = solution.f_hat


def test_jensen_ordering_random_games():
    rng = np.random.default_rng(77)
    for _ in range(25):
        game = random_favorable_game(rng)
        solution = solve_kelly(game)
        assert solution.f_hat <= solution.f_star_mean + 1e-9
        assert solution.jensen_gap >= 1e-6


def test_no_mean_preserving_spread_of_an_atom_raises_f_hat():
    # The paper's theorem compares a law with the point mass at its mean;
    # the same concavity of b / (1 + b f) in b covers any mean-preserving
    # spread. Split one atom v of mass m into v - d1 and v + d2, with masses
    # m d2 / (d1 + d2) and m d1 / (d1 + d2): the mean stays, the transform
    # cannot rise at any f, and so neither can f_hat.
    rng = np.random.default_rng(7)
    fs = 0.95 * np.arange(1, 9) / 8
    games = 0
    while games < 300:
        k = int(rng.integers(1, 8))
        values = np.exp(rng.uniform(-2.0, 2.0, k))
        weights = rng.dirichlet(np.ones(k))
        p = float(rng.uniform(0.3, 0.9))
        i = int(rng.integers(k))
        d1, d2 = rng.uniform(0.0, 1.0, 2) * values[i]
        original = Atoms(zip(values, weights))
        game = GameSpec(p, original)
        if not edge(game) > 0.0:
            continue
        games += 1
        v, m = values[i], weights[i]
        split = [(v - d1, m * d2 / (d1 + d2)), (v + d2, m * d1 / (d1 + d2))]
        spread = Atoms([*zip(np.delete(values, i), np.delete(weights, i)), *split])
        for f in fs:
            assert spread.payoff_transform(f) <= original.payoff_transform(f), (values, weights, i, f)
        assert solve_kelly(GameSpec(p, spread)).f_hat <= solve_kelly(game).f_hat, (p, values, weights, i)


def _random_bins(rng):
    edges = np.sort(rng.uniform(0.1, 4.0, int(rng.integers(3, 7))))
    while np.any(np.diff(edges) < 1e-3):
        edges = np.sort(rng.uniform(0.1, 4.0, len(edges)))
    return edges, rng.dirichlet(np.ones(len(edges) - 1))


def _improved_atoms(rng):
    # One atom shifted up by up to its own value.
    k = int(rng.integers(1, 8))
    values = np.exp(rng.uniform(-2.0, 2.0, k))
    weights = rng.dirichlet(np.ones(k))
    shifted = values.copy()
    i = int(rng.integers(k))
    shifted[i] += rng.uniform(0.0, 1.0) * values[i]
    return Atoms(zip(values, weights)), Atoms(zip(shifted, weights))


def _improved_bins(rng):
    # Every edge of a Histogram or a Uniform scaled by lam in (1, 2).
    lam = 1.0 + float(rng.uniform(0.0, 1.0))
    if rng.uniform() < 0.5:
        lo = float(rng.uniform(0.0, 2.0))
        hi = lo + float(rng.uniform(0.1, 2.0))
        return Uniform(lo, hi), Uniform(lam * lo, lam * hi)
    edges, masses = _random_bins(rng)
    return Histogram(edges, masses), Histogram(lam * edges, masses)


def _improved_pareto(rng):
    # The same alpha, xmin scaled by lam in (1, 2).
    alpha, xmin = float(rng.uniform(1.1, 4.0)), float(rng.uniform(0.2, 2.0))
    return Pareto(alpha, xmin), Pareto(alpha, (1.0 + float(rng.uniform(0.0, 1.0))) * xmin)


def _improved_mixture(rng):
    # One part of an Atoms, Histogram and Pareto mixture replaced by its shift.
    pairs = [_improved_atoms(rng), _improved_bins(rng), _improved_pareto(rng)]
    weights = rng.dirichlet(np.ones(3))
    j = int(rng.integers(3))
    parts = [(w, law) for w, (law, _) in zip(weights, pairs)]
    improved = parts.copy()
    improved[j] = (weights[j], pairs[j][1])
    return Mixture(parts), Mixture(improved)


def _improved_mass(rng):
    # Up to all of one bin's mass moved to a higher bin.
    edges, masses = _random_bins(rng)
    i = int(rng.integers(len(masses) - 1))
    j = int(rng.integers(i + 1, len(masses)))
    shift = rng.uniform(0.0, 1.0) * masses[i]
    moved = masses.copy()
    moved[i] -= shift
    moved[j] += shift
    return Histogram(edges, masses), Histogram(edges, moved)


@pytest.mark.parametrize(
    "improve, seed",
    [(_improved_atoms, 11), (_improved_bins, 12), (_improved_pareto, 13), (_improved_mixture, 14), (_improved_mass, 15)],
    ids=["atom-shifted-up", "bins-scaled", "pareto-xmin", "mixture-part", "bin-mass-moved-up"],
)
def test_no_first_order_improvement_lowers_f_hat(improve, seed):
    # b / (1 + b f) rises with b, so a law that dominates another in the
    # usual stochastic order has a transform no lower at any f, and so an
    # f_hat no lower at the same p.
    rng = np.random.default_rng(seed)
    fs = 0.95 * np.arange(0, 9) / 8
    games = 0
    while games < 50:
        original, improved = improve(rng)
        p = float(rng.uniform(0.3, 0.9))
        game = GameSpec(p, original)
        if not edge(game) > 0.0:
            continue
        games += 1
        for f in fs:
            assert improved.payoff_transform(f) >= original.payoff_transform(f), (original, improved, f)
        assert solve_kelly(GameSpec(p, improved)).f_hat >= solve_kelly(game).f_hat, (p, original, improved)


def test_raising_p_lowers_neither_g_prime_nor_f_hat():
    # g'(f) = p E[b / (1 + b f)] - (1 - p) / (1 - f) rises with p at every f.
    rng = np.random.default_rng(16)
    fs = 0.95 * np.arange(0, 9) / 8
    for _ in range(50):
        game = random_favorable_game(rng)
        raised = GameSpec(game.p + float(rng.uniform(0.0, 1.0)) * game.q, game.dist)
        for f in fs:
            assert growth_derivative(raised, f) >= growth_derivative(game, f), (game, raised.p, f)
        assert solve_kelly(raised).f_hat >= solve_kelly(game).f_hat, (game, raised.p)


def _spread_bin(rng):
    # One bin's mass split between its outer thirds, its middle third left
    # empty: the same mean, spread out.
    edges, masses = _random_bins(rng)
    i = int(rng.integers(len(masses)))
    a, c = edges[i], edges[i + 1]
    third = (c - a) / 3.0
    spread_edges = np.concatenate([edges[: i + 1], [a + third, c - third], edges[i + 1 :]])
    spread_masses = np.concatenate([masses[:i], [masses[i] / 2, 0.0, masses[i] / 2], masses[i + 1 :]])
    return Histogram(edges, masses), Histogram(spread_edges, spread_masses)


def _widened_uniform(rng):
    # A Uniform widened about its midpoint by lam in (1, 2), kept >= 0.
    lo = float(rng.uniform(0.0, 2.0))
    hi = lo + float(rng.uniform(0.1, 2.0))
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    lam = 1.0 + float(rng.uniform(0.0, 1.0)) * (min(2.0, mid / half) - 1.0)
    return Uniform(lo, hi), Uniform(mid - lam * half, mid + lam * half)


def _spread_atom(rng):
    # One atom v of mass m split into v - d1 and v + d2, as in the Atoms test above.
    k = int(rng.integers(1, 8))
    values = np.exp(rng.uniform(-2.0, 2.0, k))
    weights = rng.dirichlet(np.ones(k))
    i = int(rng.integers(k))
    d1, d2 = rng.uniform(0.0, 1.0, 2) * values[i]
    v, m = values[i], weights[i]
    split = [(v - d1, m * d2 / (d1 + d2)), (v + d2, m * d1 / (d1 + d2))]
    return Atoms(zip(values, weights)), Atoms([*zip(np.delete(values, i), np.delete(weights, i)), *split])


def _in_a_mixture(spread):
    """``spread`` applied to one part of an Atoms, Histogram and Pareto
    mixture, the part sitting at the top level or inside a nested mixture."""

    def spread_part(rng):
        original, spread_law = spread(rng)
        atoms = Atoms(zip(np.exp(rng.uniform(-2.0, 2.0, 3)), rng.dirichlet(np.ones(3))))
        bins = Histogram(*_random_bins(rng))
        tail = Pareto(float(rng.uniform(1.1, 4.0)), float(rng.uniform(0.2, 2.0)))
        w, v = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(2))
        nested = rng.uniform() < 0.5

        def mix(part):
            if nested:
                return Mixture([(w[0], Mixture([(v[0], part), (v[1], atoms)])), (w[1], bins), (w[2], tail)])
            return Mixture([(w[0], part), (w[1], Mixture([(v[0], atoms), (v[1], bins)])), (w[2], tail)])

        return mix(original), mix(spread_law)

    return spread_part


def _assert_no_spread_raises_f_hat(spread, seed):
    # b / (1 + b f) is concave in b, so a mean-preserving spread of the
    # law, or of one part of it, lowers the transform at every f > 0, and f_hat.
    rng = np.random.default_rng(seed)
    fs = 0.95 * np.arange(1, 9) / 8
    games = 0
    while games < 50:
        original, spread_law = spread(rng)
        p = float(rng.uniform(0.3, 0.9))
        game = GameSpec(p, original)
        if not edge(game) > 0.0:
            continue
        games += 1
        for f in fs:
            assert spread_law.payoff_transform(f) <= original.payoff_transform(f), (original, spread_law, f)
        assert solve_kelly(GameSpec(p, spread_law)).f_hat <= solve_kelly(game).f_hat, (p, original, spread_law)


@pytest.mark.parametrize(
    "spread, seed", [(_spread_bin, 17), (_widened_uniform, 18)], ids=["bin-outer-thirds", "uniform-widened"]
)
def test_no_mean_preserving_spread_of_a_bin_raises_f_hat(spread, seed):
    _assert_no_spread_raises_f_hat(spread, seed)


@pytest.mark.parametrize(
    "spread, seed",
    [(_spread_bin, 19), (_widened_uniform, 20), (_spread_atom, 21)],
    ids=["bin-outer-thirds", "uniform-widened", "atom-spread"],
)
def test_no_mean_preserving_spread_of_a_mixture_part_raises_f_hat(spread, seed):
    _assert_no_spread_raises_f_hat(_in_a_mixture(spread), seed)


def test_jensen_compare_fields():
    comparison = jensen_compare(TWO_ATOM_GAME)
    assert comparison.f_hat == pytest.approx(TWO_ATOM_F_HAT, abs=1e-8)
    assert comparison.f_star == pytest.approx(1 / 3, abs=1e-15)
    assert comparison.gap == pytest.approx(TWO_ATOM_GAP, abs=1e-8)
    assert comparison.gap == comparison.f_star - comparison.f_hat


def test_jensen_compare_unfavorable_raises():
    with pytest.raises(NotFavorableError):
        jensen_compare(GameSpec(0.4, Dirac(1.0)))


# ---------- stopping rule: the bracket ends on adjacent doubles ----------

# Roots far below any absolute bracket width, or with 1 - f_hat far below
# it, from mpmath at 50 digits: bisection in log f on
# p * E[b / (1 + b f)] = (1 - p) / (1 - f) with the game's exact doubles,
# and 2F1(1, alpha; alpha + 1; -1/c) for the Pareto transform.
HALF_ATOMS = Atoms([(0.5, 0.5), (1.5, 0.5)])
SMALL_ROOT_GAMES = [
    (GameSpec(0.3, Pareto(1.0001, 0.01)), 2.9782386277393886e-101, 1e-12),
    (GameSpec(1.2 / (1 + 1e100), Atoms([(1e100, 0.5), (3e100, 0.5)])), 6.1970867606579989e-101, 1e-13),
    # At edge 1e-9, g' itself cancels two terms near 0.5, which bounds the
    # accuracy of any solver in doubles.
    (GameSpec(0.5 + 1e-9, HALF_ATOMS), 1.7777777281572247e-9, 1e-6),
]


@pytest.mark.parametrize("game, root, rel", SMALL_ROOT_GAMES, ids=["pareto_alpha_near_1", "atoms_near_1e100", "edge_1e-9"])
def test_solve_finds_roots_far_below_any_fixed_width(game, root, rel):
    solution = solve_kelly(game)
    assert solution.status == STATUS_SOLVED
    assert solution.f_hat == pytest.approx(root, rel=rel, abs=0.0)
    assert solution.jensen_gap >= 0.0


def test_solve_finds_root_next_to_one():
    solution = solve_kelly(GameSpec(1 - 1e-13, HALF_ATOMS))
    assert abs(solution.f_hat - 0.99999999999978565) <= 2.3e-16
    assert solution.jensen_gap >= 0.0


def _counting_g_prime(monkeypatch):
    """Record the fraction of every g' evaluation that solve_kelly makes."""
    import varkelly.kelly as kmod

    calls = []
    real = kmod.growth_derivative
    monkeypatch.setattr(kmod, "growth_derivative", lambda game, f: calls.append(f) or real(game, f))
    return calls


def test_solver_work_is_bounded(monkeypatch):
    # g' evaluations per solve, counting g'(f*).
    calls = _counting_g_prime(monkeypatch)
    rng = np.random.default_rng(0)
    counts = []
    for _ in range(500):
        game = random_favorable_game(rng)
        calls.clear()
        solve_kelly(game)
        counts.append(len(calls))
    assert np.mean(counts) <= 7  # 6.61 measured
    assert max(counts) <= 40


@pytest.mark.parametrize(
    "game",
    [GameSpec(0.6, HALF_ATOMS), GameSpec(0.6, Uniform(0.5, 2.5)), GameSpec(0.6, Pareto(2.5, 0.5))],
    ids=["atoms", "uniform", "pareto"],
)
def test_no_g_prime_evaluation_lies_far_below_the_root(game, monkeypatch):
    # The interpolation closes in from both ends, so the bisection of the
    # bracket's bit patterns, which lands near f = 1e-155, is not needed.
    calls = _counting_g_prime(monkeypatch)
    f_hat = solve_kelly(game).f_hat
    assert min(calls) >= f_hat / 2, calls


def _assert_meets_the_solvers_contract(game, solution):
    """solve_kelly's contract: f_hat <= f*, the residual is g'(f_hat), and
    either g'(f*) evaluated to >= 0 and f_hat = f*, or g'(f_hat) evaluated
    to exactly 0, or g'(f_hat) < 0 < g' at the double below f_hat."""
    f_hat, f_star = solution.f_hat, solution.f_star_mean
    assert solution.status == STATUS_SOLVED
    assert f_hat <= f_star
    g_hat = growth_derivative(game, f_hat)
    assert solution.residual == g_hat
    if f_hat < f_star or g_hat < 0.0:  # not the deterministic shortcut
        assert g_hat <= 0.0
        if g_hat != 0.0:
            assert growth_derivative(game, math.nextafter(f_hat, 0.0)) > 0.0


def _scaled_laws(s):
    return [
        Atoms([(0.5 * s, 0.5), (1.5 * s, 0.5)]),
        Uniform(0.5 * s, 2.5 * s),
        Pareto(2.5, 0.5 * s),
        Mixture([(0.5, Dirac(s)), (0.5, Pareto(2.5, 0.5 * s))]),
    ]


def _extreme_games():
    """Games whose g' values underflow, overflow or cancel: payoffs scaled
    from 1e-8 to 1e300, edges down to 1e-15, and p up to 1 - 1e-15."""
    games = []
    for s in (1e-8, 1e-4, 1.0, 1e4, 1e100, 1e200, 1e300):
        for dist in _scaled_laws(s):
            p0 = 1.0 / (1.0 + dist.mean())
            games.append(GameSpec(p0 + 0.4 * (1.0 - p0), dist))
    for e in (1e-15, 1e-12, 1e-9, 1e-6):
        for dist in _scaled_laws(1.0):
            games.append(GameSpec((1.0 + e) / (1.0 + dist.mean()), dist))
    bins = Histogram(np.linspace(0.2, 3.0, 2001), np.full(2000, 1 / 2000))
    for p in (1 - 1e-15, 1 - 1e-12, 0.999):
        games += [GameSpec(p, Pareto(1.0001, 0.01)), GameSpec(p, bins)]
    return games


def test_solver_meets_its_contract_where_g_prime_underflows_or_overflows(monkeypatch):
    games = _extreme_games()
    assert len(games) == 50 and all(edge(game) > 0.0 for game in games)
    calls = _counting_g_prime(monkeypatch)
    for game in games:
        calls.clear()
        solution = solve_kelly(game)
        assert len(calls) <= 1 + 4 * 63, game
        _assert_meets_the_solvers_contract(game, solution)


@pytest.mark.parametrize(
    "points, lo, g_lo, hi, g_hi",
    [
        # Equal g' values: the secant's and the quadratic's denominators are 0.
        ([(0.0, 0.5), (0.25, 0.5), (0.5, -0.5)], 0.25, 0.5, 0.5, -0.5),
        ([(0.0, 0.5), (0.25, -0.5), (0.5, -0.5)], 0.0, 0.5, 0.25, -0.5),
        # Subnormal g' values, whose differences and products underflow.
        ([(0.0, 5e-324), (0.5, -5e-324), (0.25, -1e-323)], 0.0, 5e-324, 0.25, -1e-323),
        ([(0.1, 1e-320), (0.2, 5e-324), (0.3, -5e-324)], 0.2, 5e-324, 0.3, -5e-324),
        # Huge g' values, whose differences and quotients overflow.
        ([(0.0, 1e308), (0.5, -1.7e308), (0.25, 1.7e308)], 0.25, 1.7e308, 0.5, -1.7e308),
        ([(0.25, 1e-300), (0.3, 1e-310), (0.5, -1.7e308)], 0.3, 1e-310, 0.5, -1.7e308),
    ],
    ids=["equal_at_lo", "equal_at_hi", "subnormal", "subnormal_products", "huge", "huge_quotients"],
)
def test_interpolation_step_stays_strictly_inside_the_bracket(points, lo, g_lo, hi, g_hi):
    f = _interpolate(points, lo, g_lo, hi, g_hi)
    assert lo < f < hi


def _first_double_past_the_exact_root(game, near):
    """The smallest double f with exact g'(f) <= 0 for an Atoms payoff,
    computed in rational arithmetic on the game's own doubles; the search
    gallops out from the double ``near``."""
    p = Fraction(game.p)
    atoms = [(Fraction(b), Fraction(w)) for b, w in zip(game.dist.values.tolist(), game.dist.weights.tolist())]

    def positive(n):
        f = Fraction(_from_bits(n))
        return p * sum(w * b / (1 + b * f) for b, w in atoms) > (1 - p) / (1 - f)

    lo = hi = _bits(near)
    step = 1
    if positive(lo):
        while positive(hi):
            lo, hi, step = hi, hi + step, 2 * step
    else:
        while not positive(lo):
            hi, lo, step = lo, max(lo - step, 0), 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if positive(mid) else (lo, mid)
    return _from_bits(hi)


def _exact_root_games():
    rng = np.random.default_rng(1411)
    games = []
    for i in range(250):
        n = 1 if i % 5 == 0 else int(rng.integers(2, 7))
        values = 10.0 ** rng.uniform(-2.0, 2.0, n)
        dist = Dirac(values[0]) if n == 1 else Atoms(list(zip(values, rng.dirichlet(np.ones(n)))))
        p0 = 1.0 / (1.0 + dist.mean())
        games.append(GameSpec(p0 + float(rng.uniform(0.02, 0.98)) * (1.0 - p0), dist))
    return games


def test_solution_is_within_g_primes_rounding_of_the_exact_root():
    # g' rounds, so the double where it turns <= 0 may sit some doubles from
    # the exact one, most where its two terms cancel. The bounds are the
    # worst distances, in doubles, of Anderson-Bjorck false position on
    # these games (Atoms 48, Dirac 91; the interpolation steps give 44, 91).
    worst = {Atoms: 0, Dirac: 0}
    for game in _exact_root_games():
        f_hat = solve_kelly(game).f_hat
        ulps = abs(_bits(f_hat) - _bits(_first_double_past_the_exact_root(game, f_hat)))
        worst[type(game.dist)] = max(worst[type(game.dist)], ulps)
    assert worst[Atoms] <= 48 and worst[Dirac] <= 91


RESIDUAL_GAMES = [
    DIRAC_GAME,
    GameSpec(0.6, Dirac(3.0)),  # g'(f*) rounds to +1.1e-16, not to 0
    TWO_ATOM_GAME,
    GameSpec(0.6, Uniform(0.5, 2.5)),
    GameSpec(0.6, Histogram(np.linspace(0.2, 3.0, 21), np.full(20, 0.05))),
    GameSpec(0.6, Pareto(1.5, 1.0)),
    GameSpec(0.6, Mixture([(0.5, Dirac(1.0)), (0.5, Pareto(2.5, 0.5))])),
] + [game for game, _, _ in SMALL_ROOT_GAMES]


def test_residual_is_the_g_prime_evaluated_at_f_hat():
    # The solver reports g'(f_hat) from the evaluation that placed f_hat,
    # not from one more call.
    rng = np.random.default_rng(1)
    games = RESIDUAL_GAMES + [random_favorable_game(rng) for _ in range(300)]
    for game in games:
        solution = solve_kelly(game)
        assert solution.residual == growth_derivative(game, solution.f_hat), game


def test_each_of_the_solvers_three_stops_ends_where_it_should(monkeypatch):
    calls = _counting_g_prime(monkeypatch)
    # g'(f*) evaluates to +1.1e-16: no step is taken and f_hat = f*.
    solution = solve_kelly(GameSpec(0.7, Dirac(0.5)))
    assert solution.residual > 0.0
    assert calls == [solution.f_star_mean] and solution.f_hat == solution.f_star_mean
    # A step's g' evaluates to exactly 0: the solver stops at that step.
    game = GameSpec(0.6, Uniform(0.5, 2.5))
    calls.clear()
    solution = solve_kelly(game)
    values = [growth_derivative(game, f) for f in calls]
    assert values.index(0.0) == len(calls) - 1 and calls[-1] == solution.f_hat
    # The bracket's ends are adjacent doubles, with g' < 0 at the upper one.
    game = GameSpec(0.6, HALF_ATOMS)
    solution = solve_kelly(game)
    assert solution.residual < 0.0
    assert growth_derivative(game, math.nextafter(solution.f_hat, 0.0)) > 0.0


def _game_strategies(st):
    """Payoff distributions of every family, with heavy Pareto tails."""
    payoffs = st.floats(0.0, 1e3)
    weights = st.floats(1e-3, 1.0)

    def normalized(pairs):
        total = math.fsum(w for _, w in pairs)
        return [(b, w / total) for b, w in pairs]

    dirac = st.builds(Dirac, st.floats(1e-3, 1e3))
    atoms = st.builds(lambda pairs: Atoms(normalized(pairs)), st.lists(st.tuples(payoffs, weights), min_size=1, max_size=4))
    uniform = st.builds(lambda lo, width: Uniform(lo, lo + width), payoffs, st.floats(1e-3, 1e2))
    histogram = st.builds(
        lambda lo, bins: Histogram(np.cumsum([lo] + [w for w, _ in bins]), [m for _, m in normalized(bins)]),
        payoffs,
        st.lists(st.tuples(st.floats(1e-2, 1e2), weights), min_size=1, max_size=5),
    )
    pareto = st.builds(Pareto, st.floats(1.0, 1e3, exclude_min=True), st.floats(1e-3, 1e2))
    single = st.one_of(dirac, atoms, uniform, histogram, pareto)
    mixture = st.builds(lambda w, a, b: Mixture([(w, a), (1.0 - w, b)]), st.floats(0.01, 0.99), single, single)
    return st.one_of(single, mixture)


def test_random_games_meet_the_solvers_contract():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    p_max = 1 - 1e-12

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(_game_strategies(st), st.floats(0.0, 1.0), st.floats(1e-9, 0.5))
    def check(dist, t, dp):
        p0 = 1.0 / (1.0 + dist.mean())
        p = p0 + t * (p_max - p0)
        hypothesis.assume(0.0 < p <= p_max)
        game = GameSpec(p, dist)
        hypothesis.assume(edge(game) > 0.0)
        solution = solve_kelly(game)
        _assert_meets_the_solvers_contract(game, solution)
        if p + dp <= p_max:
            assert solve_kelly(GameSpec(p + dp, dist)).f_hat >= solution.f_hat

    check()


# ---------- growth curve ----------


def test_growth_curve_grid_layout():
    curve = growth_curve(DIRAC_GAME, 4)
    assert np.allclose(curve.fractions, [0, 0.2, 0.4, 0.6, 0.8])
    assert curve.growth_rates[0] == 0.0
    assert len(curve.fractions) == 5


def test_growth_curve_frozen_values():
    curve = growth_curve(DIRAC_GAME, 2)
    assert np.allclose(curve.fractions, [0, 1 / 3, 2 / 3])
    assert curve.growth_rates[1] == pytest.approx(G_AT_THIRD, abs=1e-12)
    assert curve.growth_rates[2] == pytest.approx(G_AT_TWO_THIRDS, abs=1e-12)


def test_growth_curve_concave_with_peak_near_solution():
    curve = growth_curve(TWO_ATOM_GAME, 200)
    second = np.diff(curve.growth_rates, 2)
    assert np.all(second <= 1e-8)
    peak = curve.fractions[np.argmax(curve.growth_rates)]
    assert abs(peak - TWO_ATOM_F_HAT) <= 1 / 201 + 1e-12


def test_growth_curve_arrays_are_read_only():
    curve = growth_curve(GameSpec(0.6, Dirac(1.0)), 4)
    with pytest.raises(ValueError):
        curve.fractions[0] = 1.0
    with pytest.raises(ValueError):
        curve.growth_rates[0] = 1.0


def test_growth_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        growth_curve(DIRAC_GAME, 0)
    for m in (2.9, math.nan, math.inf):
        with pytest.raises(ValueError, match="m must be an integer"):
            growth_curve(DIRAC_GAME, m)
    for m in (np.int64(2), 2.0):
        assert growth_curve(DIRAC_GAME, m).fractions.tolist() == [0, 1 / 3, 2 / 3]


def _curve_laws():
    """Seeded laws of all six families for the blocked curve."""
    rng = np.random.default_rng(32)
    edges = np.cumsum(rng.uniform(1e-4, 2e-3, 2001)) + rng.uniform(0.0, 1.0)
    masses = np.where(rng.random(30) < 0.3, 0.0, rng.random(30))
    # Widths from 1e-4 to 1 put d = w f / (1 + a f) on both sides of the
    # kernel's series switch in one block of fractions.
    mixed = Histogram(np.concatenate([[0.1], 0.1 + np.cumsum(np.logspace(-4, 0, 40))]), rng.dirichlet(np.ones(40)))
    pareto = Pareto(float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.2, 2.0)))
    return {
        "dirac": Dirac(float(rng.uniform(0.2, 4.0))),
        "one atom": Atoms([(float(rng.uniform(0.2, 4.0)), 1.0)]),
        "atoms": Atoms(list(zip(rng.uniform(0.0, 5.0, 300), rng.dirichlet(np.ones(300))))),
        "uniform": Uniform(0.25, float(rng.uniform(0.5, 4.0))),
        "2000 bins": Histogram(edges, rng.dirichlet(np.ones(2000))),
        "zero-mass bins": Histogram(np.linspace(0.0, 3.0, 31), masses / masses.sum()),
        "mixed bins": mixed,
        "pareto 1.0001": Pareto(1.0001, 0.01),
        "pareto 200": Pareto(200.0, float(rng.uniform(0.5, 2.0))),
        "nested mixture": Mixture(
            [(0.3, pareto), (0.7, Mixture([(0.4, mixed), (0.6, Mixture([(0.5, Pareto(1.2, 0.5)), (0.5, Uniform(0.5, 2.0))]))]))]
        ),
    }


@pytest.mark.parametrize("name", list(_curve_laws()))
def test_every_curve_point_is_growth_rate_bit_for_bit(name):
    dist = _curve_laws()[name]
    game = GameSpec(0.6, dist)
    rows = max(1, kelly._CURVE_BLOCK // dist._terms)
    if name == "mixed bins":
        # The first block of the m = 200 curve has bins on both sides of
        # the series switch at one nonzero fraction or more.
        f = kelly._fraction_grid(200)[1:rows, None]
        d = dist._width * f / (1.0 + dist._left * f)
        assert (d < _SERIES_BELOW).any() and (d >= _SERIES_BELOW).any()
    for m in (1, 2, 200, 2 * rows + 1):  # the last grid spans three blocks
        curve = growth_curve(game, m)
        want = np.array([growth_rate(game, f) for f in curve.fractions])
        differ = want.view(np.int64) != curve.growth_rates.view(np.int64)
        assert not differ.any(), (m, curve.fractions[differ][:5])


def test_growth_curve_memory_is_bounded_by_its_blocks():
    game = GameSpec(0.6, Histogram(np.linspace(0.2, 3.0, 2001), np.full(2000, 1 / 2000)))
    growth_curve(game, 3)  # the first call's one-off allocations stay out of the count
    tracemalloc.start()
    try:
        growth_curve(game, 5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured: 0.30 MB for a loop of growth_rate calls, 0.56 MB with blocks
    # of 2**13 elements, 0.87 MB with 2**14 and 410 MB in one block.
    assert peak < 0.8e6


def test_a_grid_over_the_limit_is_rejected_before_anything_is_allocated(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"m \\+ 1 = {10**12 + 1} points exceeds the limit of MAX_CURVE_POINTS"):
            growth_curve(DIRAC_GAME, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    # A grid of exactly the limit runs; one more point is rejected.
    monkeypatch.setattr(kelly, "MAX_CURVE_POINTS", 10)
    assert len(growth_curve(DIRAC_GAME, 9).growth_rates) == 10
    with pytest.raises(ValueError, match="m \\+ 1 = 11 points exceeds the limit of MAX_CURVE_POINTS = 10"):
        growth_curve(DIRAC_GAME, 10)
