"""Tests for the edge/growth functions and the optimal-fraction solver."""

import math

import numpy as np
import pytest

from varkelly.distributions import Atoms, Dirac, Histogram, Mixture, Pareto, Uniform
from varkelly.errors import InfiniteMeanError, NotFavorableError
from varkelly.kelly import (
    STATUS_NO_BET,
    STATUS_SOLVED,
    GameSpec,
    classical_fraction,
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
        if edge(game).favorable:
            return game


# ---------- GameSpec / edge ----------


def test_game_spec_validates_probability():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
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


def test_edge_values():
    report = edge(DIRAC_GAME)
    assert report.edge == pytest.approx(0.2, abs=1e-15)
    assert report.favorable
    report = edge(GameSpec(0.5, Dirac(1.0)))  # fair game boundary
    assert report.edge == pytest.approx(0.0, abs=1e-15)
    assert not report.favorable
    assert not edge(GameSpec(0.3, Dirac(1.0))).favorable
    # boundary through a continuous payoff: 0.4 * (1 + 1.5) - 1 = 0
    assert not edge(GameSpec(0.4, Uniform(1.0, 2.0))).favorable


# ---------- classical fraction ----------


def test_classical_fraction_known_values():
    assert classical_fraction(0.6, 1.0) == pytest.approx(0.2, abs=1e-15)
    assert classical_fraction(0.6, 2.0) == pytest.approx(0.4, abs=1e-15)
    assert classical_fraction(2 / 3, 2.0) == pytest.approx(0.5, abs=1e-15)
    assert classical_fraction(0.51, 1.0) == pytest.approx(0.02, abs=1e-15)
    # p(1+b)-1 = 0.75*1.8-1 = 0.35, /0.8
    assert classical_fraction(0.75, 0.8) == pytest.approx(0.35 / 0.8, abs=1e-15)


def test_classical_fraction_rejects_bad_input():
    with pytest.raises(ValueError):
        classical_fraction(0.6, 0.0)
    with pytest.raises(ValueError):
        classical_fraction(0.6, -1.0)
    with pytest.raises(NotFavorableError):
        classical_fraction(0.4, 1.0)
    with pytest.raises(NotFavorableError):
        classical_fraction(0.5, 1.0)  # break-even is still no-bet


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
        assert growth_derivative(game, 0.0) == edge(game).edge


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


@pytest.mark.parametrize("f", [1.0, 1.5, math.inf, math.nan, -0.1], ids=str)
@pytest.mark.parametrize("function", [growth_rate, growth_derivative], ids=lambda fn: fn.__name__)
def test_growth_rejects_fraction_out_of_domain(function, f):
    with pytest.raises(ValueError, match=r"betting fraction must lie in \[0, 1\), got"):
        function(DIRAC_GAME, f)


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
        assert solution.residual == pytest.approx(edge(game).edge, abs=1e-15)
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
        if not edge(game).favorable:
            continue
        solution = solve_kelly(game)
        assert solution.status == STATUS_SOLVED
        assert solution.jensen_gap >= 0.0, (p, b)
        assert solution.f_hat == pytest.approx(classical_fraction(p, b), abs=1e-12)


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
        if game.dist.variance() >= 1e-6:
            assert solution.jensen_gap >= 1e-6


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


def test_solver_work_is_bounded(monkeypatch):
    # g' evaluations per solve, counting g'(f*) and the reported residual.
    import varkelly.kelly as kmod

    calls = []
    real = kmod.growth_derivative

    def counted(game, f):
        calls[-1] += 1
        return real(game, f)

    monkeypatch.setattr(kmod, "growth_derivative", counted)
    rng = np.random.default_rng(0)
    for _ in range(500):
        game = random_favorable_game(rng)
        calls.append(0)
        solve_kelly(game)
    assert np.mean(calls) <= 14
    assert max(calls) <= 40


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


def test_solution_is_the_first_double_past_the_root():
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
        hypothesis.assume(edge(game).favorable)
        solution = solve_kelly(game)
        f_hat, f_star = solution.f_hat, solution.f_star_mean
        assert solution.status == STATUS_SOLVED
        assert f_hat <= f_star
        g_hat = growth_derivative(game, f_hat)
        if f_hat < f_star or g_hat < 0.0:  # not the deterministic shortcut
            assert g_hat <= 0.0
            if g_hat != 0.0:
                assert growth_derivative(game, math.nextafter(f_hat, 0.0)) > 0.0
        if p + dp <= p_max:
            assert solve_kelly(GameSpec(p + dp, dist)).f_hat >= f_hat

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


def test_growth_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        growth_curve(DIRAC_GAME, 0)
