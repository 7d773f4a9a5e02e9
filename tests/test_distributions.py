"""Tests for the payoff distribution families and their transforms."""

import math
import sys
import zlib

import numpy as np
import pytest

from varkelly import quadrature
from varkelly.distributions import (
    Atoms,
    Dirac,
    Histogram,
    Mixture,
    Pareto,
    Uniform,
    from_spec,
)
from varkelly.errors import InfiniteMeanError
from varkelly.kelly import GameSpec, growth_rate, solve_kelly

# Hand-derived closed forms, frozen:
#   uniform [1,2]:  E[b/(1+b/2)] = 2 - 4*ln(4/3)
#   atoms {1:1/2, 3:1/2}:  E[log(1+b/2)] = (ln(3/2) + ln(5/2))/2
#   Pareto(3,1):  E[b/(1+b/2)] = (3/4)*ln(3),  E[log(1+b/2)] = ln(3/2) + ln(3)/8
UNIFORM_M_HALF = 0.8492717101928766
ATOMS13_L_HALF = 0.6608779199911597
PARETO31_M_HALF = 0.8239592165010823
PARETO31_L_HALF = 0.5427916441916781


class FixedRng:
    """Stub generator returning a preset uniform, for quantile checks."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None):
        if size is None:
            return self.u
        return np.full(int(size), self.u)


def uniform_m_closed(lo, hi, f):
    # integral of b/(1+bf) is b/f - ln(1+bf)/f^2
    return 1.0 / f - math.log((1 + hi * f) / (1 + lo * f)) / (f * f * (hi - lo))


def uniform_l_closed(lo, hi, f):
    # integral of ln(1+bf) via u = 1+bf: (u ln u - u)/f
    u1, u2 = 1 + lo * f, 1 + hi * f
    return ((u2 * math.log(u2) - u2) - (u1 * math.log(u1) - u1)) / (f * (hi - lo))


# ---------- Dirac ----------


def test_dirac_moments_and_transforms():
    d = Dirac(1.5)
    assert d.mean() == 1.5
    assert d.variance() == 0.0
    assert d.payoff_transform(0.4) == pytest.approx(1.5 / 1.6, abs=1e-15)
    assert d.log_growth_win(0.4) == pytest.approx(math.log1p(0.6), abs=1e-15)
    assert d.payoff_transform(0.0) == 1.5
    assert d.log_growth_win(0.0) == 0.0


def test_dirac_sampling_is_constant():
    d = Dirac(2.0)
    rng = np.random.default_rng(0)
    assert d.sample(rng) == 2.0
    assert np.all(d.sample(rng, 17) == 2.0)


def test_dirac_is_the_one_atom_atoms_whose_draws_read_no_uniforms():
    assert issubclass(Dirac, Atoms)
    for attr in ("mean", "variance", "payoff_transform", "log_growth_win"):
        assert attr not in vars(Dirac), attr
    d, one_atom = Dirac(1.5), Atoms([(1.5, 1.0)])
    for f in (0.0, 1e-9, 0.4, 0.999):
        assert d.payoff_transform(f) == one_atom.payoff_transform(f)
        assert d.log_growth_win(f) == one_atom.log_growth_win(f)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    assert d.sample(rng) == 1.5
    assert (d.sample(rng, 9) == 1.5).all()
    assert rng.bit_generator.state == state
    # A one-value Atoms still reads one uniform per draw.
    one_atom.sample(rng, 9)
    assert rng.bit_generator.state != state


def test_dirac_validation():
    Dirac(1.0)
    Dirac(0.0)
    with pytest.raises(ValueError, match="negative"):
        Dirac(-0.5)


# ---------- Atoms ----------


def test_atoms_moments():
    a = Atoms([(1.0, 0.5), (3.0, 0.5)])
    assert a.mean() == pytest.approx(2.0, abs=1e-15)
    assert a.variance() == pytest.approx(1.0, abs=1e-15)


def test_atoms_transforms_match_closed_form():
    a = Atoms([(1.0, 0.5), (3.0, 0.5)])
    assert a.log_growth_win(0.5) == pytest.approx(ATOMS13_L_HALF, abs=1e-14)
    expected_m = 0.5 * (1 / 1.5) + 0.5 * (3 / 2.5)
    assert a.payoff_transform(0.5) == pytest.approx(expected_m, abs=1e-14)
    assert a.payoff_transform(0.0) == pytest.approx(a.mean(), abs=1e-15)


def test_atoms_sampling_frequencies():
    a = Atoms([(1.0, 0.2), (2.0, 0.3), (5.0, 0.5)])
    rng = np.random.default_rng(42)
    draws = a.sample(rng, 100_000)
    assert set(np.unique(draws)) == {1.0, 2.0, 5.0}
    for value, weight in [(1.0, 0.2), (2.0, 0.3), (5.0, 0.5)]:
        freq = np.mean(draws == value)
        se = math.sqrt(weight * (1 - weight) / len(draws))
        assert abs(freq - weight) < 4 * se


def test_atoms_quantile_boundaries():
    a = Atoms([(1.0, 0.25), (2.0, 0.75)])
    assert a.sample(FixedRng(0.1)) == 1.0
    assert a.sample(FixedRng(0.25)) == 2.0  # mass boundary goes to the next atom
    assert a.sample(FixedRng(0.9)) == 2.0


def test_atoms_validation_messages():
    with pytest.raises(ValueError, match="mass sums to 0.9"):
        Atoms([(1.0, 0.4), (2.0, 0.5)])
    with pytest.raises(ValueError, match="negative"):
        Atoms([(-1.0, 0.5), (2.0, 0.5)])
    with pytest.raises(ValueError, match="not positive"):
        Atoms([(1.0, 1.5), (2.0, -0.5)])


def test_atoms_structural_errors():
    with pytest.raises(ValueError):
        Atoms([])


# ---------- Uniform ----------


def test_uniform_moments():
    u = Uniform(1.0, 2.0)
    assert u.mean() == 1.5
    assert u.variance() == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_uniform_transform_matches_closed_form():
    u = Uniform(1.0, 2.0)
    assert u.payoff_transform(0.5) == pytest.approx(UNIFORM_M_HALF, abs=1e-9)
    for lo, hi in [(0.5, 1.5), (1.0, 4.0), (0.0, 2.0)]:
        d = Uniform(lo, hi)
        for f in (0.1, 0.37, 0.8):
            assert d.payoff_transform(f) == pytest.approx(uniform_m_closed(lo, hi, f), abs=1e-9)
            assert d.log_growth_win(f) == pytest.approx(uniform_l_closed(lo, hi, f), abs=1e-9)


def test_uniform_transform_at_zero_runs_quadrature():
    # f = 0 is not special-cased here: the integral must still equal the mean.
    u = Uniform(0.3, 2.7)
    assert u.payoff_transform(0.0) == pytest.approx(u.mean(), abs=1e-9)
    assert u.log_growth_win(0.0) == pytest.approx(0.0, abs=1e-12)


def test_uniform_sampling_range_and_mean():
    u = Uniform(1.0, 3.0)
    rng = np.random.default_rng(7)
    draws = u.sample(rng, 50_000)
    assert draws.min() >= 1.0 and draws.max() <= 3.0
    se = math.sqrt(u.variance() / len(draws))
    assert abs(draws.mean() - 2.0) < 4 * se


def test_uniform_validation():
    Uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="not strictly increasing"):
        Uniform(2.0, 1.0)
    with pytest.raises(ValueError, match="negative"):
        Uniform(-1.0, 1.0)


# ---------- Histogram ----------


def test_histogram_single_bin_equals_uniform():
    h = Histogram([1.0, 2.0], [1.0])
    u = Uniform(1.0, 2.0)
    assert h.mean() == pytest.approx(u.mean(), abs=1e-10)
    for f in (0.0, 0.25, 0.5, 0.9):
        assert h.payoff_transform(f) == pytest.approx(u.payoff_transform(f), abs=1e-9)
        assert h.log_growth_win(f) == pytest.approx(u.log_growth_win(f), abs=1e-9)


def test_histogram_is_mixture_of_uniforms():
    # Dual route: a two-bin histogram must agree with the equivalent
    # mixture of uniforms on every quantity.
    h = Histogram([0.5, 1.5, 3.0], [0.4, 0.6])
    m = Mixture([(0.4, Uniform(0.5, 1.5)), (0.6, Uniform(1.5, 3.0))])
    assert h.mean() == pytest.approx(m.mean(), abs=1e-9)
    assert h.variance() == pytest.approx(m.variance(), abs=1e-9)
    for f in (0.1, 0.5, 0.85):
        assert h.payoff_transform(f) == pytest.approx(m.payoff_transform(f), abs=1e-9)
        assert h.log_growth_win(f) == pytest.approx(m.log_growth_win(f), abs=1e-9)


def test_histogram_sampling_bins_and_within_bin_uniformity():
    h = Histogram([0.0, 1.0, 3.0], [0.25, 0.75])
    rng = np.random.default_rng(11)
    draws = h.sample(rng, 80_000)
    in_first = draws < 1.0
    se = math.sqrt(0.25 * 0.75 / len(draws))
    assert abs(in_first.mean() - 0.25) < 4 * se
    # within the second bin the conditional law is Uniform(1, 3)
    second = draws[~in_first]
    assert abs(second.mean() - 2.0) < 4 * math.sqrt((4 / 12) / len(second))


def test_histogram_skips_empty_bins():
    h = Histogram([0.0, 1.0, 2.0], [0.0, 1.0])
    u = Uniform(1.0, 2.0)
    assert h.payoff_transform(0.3) == pytest.approx(u.payoff_transform(0.3), abs=1e-9)
    draws = h.sample(np.random.default_rng(3), 1000)
    assert draws.min() >= 1.0


# A valid total mass may fall short of 1 by up to MASS_TOL, so a uniform can
# land at or above the last cumulative mass.
SHORT_BY = 5e-13
U_ABOVE_TOTAL = 1.0 - 1e-13


def test_histogram_draw_above_total_mass_stays_in_last_bin():
    h = Histogram([0.0, 1.0, 2.0], [0.5, 0.5 - SHORT_BY])
    assert h.sample(FixedRng(U_ABOVE_TOTAL)) == 2.0
    assert np.all(h.sample(FixedRng(U_ABOVE_TOTAL), size=3) == 2.0)


def test_uniform_above_total_mass_picks_last_atom_and_part():
    a = Atoms([(1.0, 0.5), (3.0, 0.5 - SHORT_BY)])
    assert a.sample(FixedRng(U_ABOVE_TOTAL)) == 3.0
    m = Mixture([(0.5, Dirac(1.0)), (0.5 - SHORT_BY, Dirac(3.0))])
    assert m.sample(FixedRng(U_ABOVE_TOTAL)) == 3.0
    assert np.all(m.sample(FixedRng(U_ABOVE_TOTAL), size=3) == 3.0)


def test_histogram_validation_and_structure():
    Histogram([0.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="not strictly increasing"):
        Histogram([1.0, 0.5], [1.0])
    with pytest.raises(ValueError, match="negative"):
        Histogram([-1.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="mass sums to 0.9"):
        Histogram([0.0, 1.0, 2.0], [0.7, 0.2])
    with pytest.raises(ValueError):
        Histogram([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        Histogram([0.0], [])


# ---------- Pareto ----------


def test_pareto_moments():
    p = Pareto(3.0, 1.0)
    assert p.mean() == pytest.approx(1.5, abs=1e-15)
    assert p.variance() == pytest.approx(3.0 - 2.25, abs=1e-12)
    assert Pareto(1.5, 1.0).variance() == math.inf
    # alpha xmin^2 / ((alpha - 1)^2 (alpha - 2)); E[b^2] - E[b]^2 loses
    # five digits to cancellation here.
    assert Pareto(200.0, 1.0).variance() == pytest.approx(200 / (199**2 * 198), rel=1e-15, abs=0.0)


def test_pareto_infinite_mean_raises():
    for alpha in (1.0, 0.9):
        with pytest.raises(InfiniteMeanError):
            Pareto(alpha, 1.0)


def test_pareto_transforms_match_closed_form():
    p = Pareto(3.0, 1.0)
    assert p.payoff_transform(0.5) == pytest.approx(PARETO31_M_HALF, abs=1e-9)
    assert p.log_growth_win(0.5) == pytest.approx(PARETO31_L_HALF, abs=1e-9)
    # f = 0 shortcuts to the exact moments
    assert p.payoff_transform(0.0) == 1.5
    assert p.log_growth_win(0.0) == 0.0


def test_pareto_transform_small_alpha_against_sampling():
    # Dual route near the infinite-mean boundary, where the tail is
    # heaviest: the closed form vs direct Monte Carlo averaging.
    p = Pareto(1.1, 1.0)
    rng = np.random.default_rng(5)
    b = p.sample(rng, 2_000_000)
    for f in (0.2, 0.6):
        vals = b / (1 + b * f)
        se = vals.std() / math.sqrt(len(vals))
        assert abs(p.payoff_transform(f) - vals.mean()) < 5 * se


def test_pareto_quantile_map():
    p = Pareto(3.0, 1.0)
    assert p.sample(FixedRng(0.125)) == pytest.approx(2.0, abs=1e-12)
    assert p.sample(FixedRng(1.0)) == pytest.approx(1.0, abs=1e-12)
    draws = p.sample(FixedRng(0.125), size=4)
    assert np.allclose(draws, 2.0)


def test_pareto_sample_never_infinite():
    # A unit uniform of exactly 0 would map to infinity; it must be clamped.
    assert math.isfinite(Pareto(2.0, 1.0).sample(FixedRng(0.0)))


def test_pareto_sampling_mean():
    p = Pareto(3.0, 1.0)
    rng = np.random.default_rng(123)
    draws = p.sample(rng, 200_000)
    assert draws.min() >= 1.0
    se = math.sqrt(p.variance() / len(draws))
    assert abs(draws.mean() - 1.5) < 4 * se


def test_pareto_validation():
    Pareto(2.0, 1.0)
    with pytest.raises(InfiniteMeanError, match="infinite mean"):
        Pareto(0.9, 1.0)
    with pytest.raises(ValueError, match="not positive"):
        Pareto(2.0, 0.0)


# ---------- Mixture ----------


class ConsistencyError(AssertionError):
    """Two independent routes to the same quantity disagreed beyond tolerance."""

    def __init__(self, message, expected, actual):
        super().__init__(message)
        self.expected = expected
        self.actual = actual


def mixture_linearity_check(parts, f: float, tol: float = 1e-9) -> float:
    """Consistency oracle: the transform of a mixture must equal the
    weight-averaged transforms of its parts.

    Returns the common value; raises ConsistencyError (carrying both
    values) if the two routes disagree beyond ``tol``.
    """
    mixture = Mixture(parts)
    whole = mixture.payoff_transform(f)
    from_parts = sum(w * dist.payoff_transform(f) for w, dist in mixture.parts)
    if abs(whole - from_parts) > tol:
        raise ConsistencyError(
            f"mixture transform {whole!r} != weighted part sum {from_parts!r}",
            expected=from_parts,
            actual=whole,
        )
    return whole


def test_mixture_moments():
    m = Mixture([(0.5, Dirac(1.0)), (0.5, Uniform(1.0, 2.0))])
    assert m.mean() == pytest.approx(0.5 * 1.0 + 0.5 * 1.5, abs=1e-12)
    # E[b^2] = 0.5*1 + 0.5*(7/3); var = E[b^2] - mean^2
    assert m.variance() == pytest.approx(0.5 + 0.5 * 7 / 3 - 1.25**2, abs=1e-9)
    assert Mixture([(1.0, Pareto(1.5, 1.0))]).variance() == math.inf


def test_mixture_transform_is_weighted_sum():
    parts = [(0.5, Dirac(1.0)), (0.5, Uniform(1.0, 2.0))]
    m = Mixture(parts)
    expected = 0.5 * (1 / 1.5) + 0.5 * UNIFORM_M_HALF
    assert m.payoff_transform(0.5) == pytest.approx(expected, abs=1e-9)
    assert mixture_linearity_check(parts, 0.5) == pytest.approx(expected, abs=1e-9)


def test_mixture_linearity_check_detects_broken_route(monkeypatch):
    honest = [(0.5, Dirac(1.0)), (0.5, Dirac(2.0))]
    assert mixture_linearity_check(honest, 0.3) > 0

    class LyingMixture(Mixture):
        def payoff_transform(self, f):
            return super().payoff_transform(f) + 0.1

    monkeypatch.setitem(globals(), "Mixture", LyingMixture)
    with pytest.raises(ConsistencyError) as excinfo:
        mixture_linearity_check(honest, 0.3)
    assert excinfo.value.actual == pytest.approx(excinfo.value.expected + 0.1, abs=1e-12)


def test_mixture_identity_and_mean_cases():
    # a single full-weight part is the identity mixture
    inner = Uniform(1.0, 2.0)
    assert mixture_linearity_check([(1.0, inner)], 0.4) == pytest.approx(
        inner.payoff_transform(0.4), abs=1e-12
    )
    # at f = 0 the transform of a mixture is its mean
    assert mixture_linearity_check([(0.5, Dirac(1.0)), (0.5, Dirac(2.0))], 0.0) == pytest.approx(
        1.5, abs=1e-12
    )


def test_mixture_sampling_composition():
    m = Mixture([(0.3, Dirac(1.0)), (0.7, Uniform(2.0, 3.0))])
    rng = np.random.default_rng(21)
    draws = m.sample(rng, 60_000)
    share_dirac = np.mean(draws == 1.0)
    se = math.sqrt(0.3 * 0.7 / len(draws))
    assert abs(share_dirac - 0.3) < 4 * se
    assert np.all((draws == 1.0) | ((draws >= 2.0) & (draws <= 3.0)))
    assert isinstance(m.sample(np.random.default_rng(4)), float)


def test_mixture_structural_errors():
    with pytest.raises(ValueError):
        Mixture([])
    with pytest.raises(ValueError, match="mass sums to 0.9"):
        Mixture([(0.6, Dirac(1.0)), (0.3, Dirac(2.0))])
    with pytest.raises(ValueError, match="mixture weight -0.5 is not positive"):
        Mixture([(1.5, Dirac(1.0)), (-0.5, Dirac(2.0))])
    with pytest.raises(TypeError):
        Mixture([(1.0, "not a distribution")])


# ---------- shared behavior ----------


ALL_DISTS = [
    Dirac(1.2),
    Atoms([(0.5, 0.25), (1.5, 0.75)]),
    Uniform(0.5, 2.5),
    Histogram([0.0, 1.0, 2.0], [0.3, 0.7]),
    Pareto(2.5, 0.8),
    Mixture([(0.4, Dirac(1.0)), (0.6, Uniform(1.0, 3.0))]),
]


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.to_spec()["type"])
def test_transform_monotonicity(dist):
    fs = [0.0, 0.2, 0.4, 0.6, 0.8]
    m_values = [dist.payoff_transform(f) for f in fs]
    l_values = [dist.log_growth_win(f) for f in fs]
    assert all(a > b - 1e-9 for a, b in zip(m_values, m_values[1:]))  # M decreasing
    assert all(a < b + 1e-12 for a, b in zip(l_values, l_values[1:]))  # L increasing
    assert m_values[0] == pytest.approx(dist.mean(), abs=1e-9)
    assert abs(l_values[0]) < 1e-12


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.to_spec()["type"])
def test_growth_at_zero_is_positive_zero(dist):
    # q log1p(-0.0) is -0.0, so g(0) is +0.0 only if E[log(1 + 0 b)] is +0.0.
    assert math.copysign(1.0, growth_rate(GameSpec(0.6, dist), 0.0)) == 1.0


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.to_spec()["type"])
def test_log_growth_below_concavity_bound(dist):
    # E[log(1+bf)] <= log(1+E[b]f), strictly so for nondegenerate payoffs
    for f in (0.2, 0.5, 0.8):
        bound = math.log1p(dist.mean() * f)
        value = dist.log_growth_win(f)
        assert value <= bound + 1e-9
        if dist.variance() > 1e-6:
            assert value < bound - 1e-6


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.to_spec()["type"])
def test_fraction_domain_enforced(dist):
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            dist.payoff_transform(bad)
        with pytest.raises(ValueError):
            dist.log_growth_win(bad)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.to_spec()["type"])
def test_spec_round_trip(dist):
    rebuilt = from_spec(dist.to_spec())
    assert rebuilt == dist
    assert rebuilt.to_spec() == dist.to_spec()


def test_equality_is_same_family_and_same_spec():
    assert Uniform(0.0, 1.0) != Histogram([0.0, 1.0], [1.0])
    assert Histogram([0.0, 1.0], [1.0]) != Uniform(0.0, 1.0)
    assert Dirac(1.0) != Atoms([(1.0, 1.0)])

    def nested(hi):
        return Mixture([(0.5, Dirac(1.0)), (0.5, Mixture([(1.0, Uniform(0.0, hi))]))])

    assert nested(2.0) == nested(2.0)
    assert nested(2.0) != nested(3.0)
    assert (Dirac(1.0) == 1.0) is False
    assert (Dirac(1.0) == {"type": "dirac", "b": 1.0}) is False
    for dist in ALL_DISTS:
        with pytest.raises(TypeError):
            hash(dist)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.to_spec()["type"])
def test_sampled_mean_matches_moment(dist):
    rng = np.random.default_rng(zlib.crc32(dist.to_spec()["type"].encode()))
    draws = dist.sample(rng, 120_000)
    var = dist.variance()
    spread = math.sqrt(var / len(draws)) if math.isfinite(var) else 0.05
    assert abs(draws.mean() - dist.mean()) < 4 * spread + 1e-3


def test_arrays_are_read_only():
    a = Atoms([(1.0, 1.0)])
    with pytest.raises(ValueError):
        a.values[0] = 2.0
    h = Histogram([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        h.edges[0] = -1.0


def test_from_spec_rejects_junk():
    with pytest.raises(ValueError):
        from_spec({"type": "gaussian", "mu": 0})
    with pytest.raises(ValueError):
        from_spec({"b": 1.0})
    with pytest.raises(ValueError):
        from_spec({"type": "dirac"})
    with pytest.raises(ValueError):
        from_spec({"type": "uniform", "lo": 1.0})
    with pytest.raises(ValueError):
        from_spec("dirac")
    with pytest.raises(ValueError):
        from_spec({"type": "atoms", "points": []})


def test_from_spec_nested_mixture():
    spec = {
        "type": "mixture",
        "parts": [
            [0.5, {"type": "dirac", "b": 1.0}],
            [0.5, {"type": "mixture", "parts": [[1.0, {"type": "uniform", "lo": 0, "hi": 1}]]}],
        ],
    }
    dist = from_spec(spec)
    assert isinstance(dist, Mixture)
    assert isinstance(dist.parts[1][1], Mixture)


# ---------- non-finite parameters ----------


NON_FINITE = (math.nan, math.inf, -math.inf)
NON_FINITE_BUILDERS = {
    "dirac": lambda x: Dirac(x),
    "atoms_value": lambda x: Atoms([(x, 0.5), (1.0, 0.5)]),
    "atoms_weight": lambda x: Atoms([(1.0, x)]),
    "uniform": lambda x: Uniform(0.0, x),
    "histogram_edge": lambda x: Histogram([0.0, 1.0, x], [0.5, 0.5]),
    "histogram_mass": lambda x: Histogram([0.0, 1.0], [x]),
    "pareto_alpha": lambda x: Pareto(x, 1.0),
    "pareto_xmin": lambda x: Pareto(2.0, x),
    "mixture_weight": lambda x: Mixture([(x, Dirac(1.0))]),
}


@pytest.mark.parametrize("family", NON_FINITE_BUILDERS)
@pytest.mark.parametrize("bad", NON_FINITE, ids=str)
def test_non_finite_parameters_are_rejected(family, bad):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_BUILDERS[family](bad)


def test_from_spec_rejects_non_finite_values():
    for spec in (
        {"type": "dirac", "b": math.inf},
        {"type": "uniform", "lo": 0.0, "hi": math.nan},
        {"type": "pareto", "alpha": 2.0, "xmin": -math.inf},
        {"type": "mixture", "parts": [[1.0, {"type": "atoms", "points": [[math.nan, 1.0]]}]]},
    ):
        with pytest.raises(ValueError, match="finite"):
            from_spec(spec)


MAX = sys.float_info.max
MEAN_OVERFLOWS = {
    "pareto": lambda: Pareto(1.5, 1e308),
    "pareto-alpha-times-xmin": lambda: Pareto(2.0, 1e308),
    "atoms": lambda: Atoms([(MAX, 0.5), (MAX, 0.5 + 5e-13)]),
    "mixture": lambda: Mixture([(0.5, Dirac(MAX)), (0.5 + 5e-13, Dirac(MAX))]),
    "histogram": lambda: Histogram([MAX - 1e296, MAX], [1.0 + 5e-13]),
}


@pytest.mark.parametrize("family", MEAN_OVERFLOWS)
def test_laws_whose_mean_overflows_are_rejected(family):
    # Masses within MASS_TOL above 1 push a mean near the largest double
    # past it; so do Pareto tails that start near it.
    with pytest.raises(ValueError, match="mean payoff overflows to inf"):
        MEAN_OVERFLOWS[family]()


def test_laws_whose_mean_is_the_largest_double_are_accepted():
    assert Dirac(MAX).mean() == MAX
    assert Atoms([(MAX, 1.0)]).mean() == MAX
    assert Uniform(0.0, MAX).mean() == MAX / 2


def test_histogram_transform_stays_below_one_over_f_on_wide_bins():
    # The bound of b / (1 + b f), checked with no slack. Bins from about
    # 1e20 wide put the transform within an ulp of 1/f, and the per-bin sum
    # used to round above it; past 4.5e307, where K(d) ~ 1/d is subnormal,
    # by up to 3 ulps.
    fractions = [1e-300, 1e-3, *np.linspace(0.05, 0.95, 19), 0.999]
    tops = [1e20, 1e50, 1e100, 1e200, 1e300, *np.linspace(4.5e307, MAX, 9)]
    for top in tops:
        for lo in (0.0, 5.96e-8, 1.0, 1e-3 * top):
            for f in fractions:
                assert Uniform(lo, top).payoff_transform(f) <= 1.0 / f, (lo, top, f)
    wide = Histogram([0.0, 1.0, 1e308], [0.5, 0.5])
    for f in (0.1, 0.5, 0.9):
        assert wide.payoff_transform(f) <= 1.0 / f, f


# Laws whose scale passes the square root of the largest double, with
# their variances (50-digit mpmath): inf where the variance itself
# overflows, else finite though a squared payoff, mean or width overflows.
HUGE_SCALE_VARIANCES = {
    "pareto": (lambda: Pareto(3.0, 1e200), math.inf),
    "pareto-steep": (lambda: Pareto(1e100, 1e200), 1e200),
    "uniform": (lambda: Uniform(0.0, 1e200), math.inf),
    "histogram-thin-tail": (lambda: Histogram([0.0, 1.0, 1e155], [1.0 - 1e-12, 1e-12]), 3.333333333330833e297),
    "atoms": (lambda: Atoms([(1e200, 0.5), (0.0, 0.5)]), math.inf),
    "atoms-thin-tail": (lambda: Atoms([(1e155, 1e-12), (0.0, 1.0 - 1e-12)]), 9.99999999999e297),
    "mixture-of-one-dirac": (lambda: Mixture([(1.0, Dirac(1e200))]), 0.0),
    "mixture-of-two-diracs": (lambda: Mixture([(0.5, Dirac(1e200)), (0.5, Dirac(0.0))]), math.inf),
}


@pytest.mark.parametrize("law", HUGE_SCALE_VARIANCES)
def test_variance_of_laws_past_the_square_root_of_the_largest_double(law):
    # No OverflowError, no overflow warning and no inf - inf = NaN.
    build, expected = HUGE_SCALE_VARIANCES[law]
    assert build().variance() == pytest.approx(expected, rel=1e-14, abs=0.0)


# ---------- every accepted argument is a distribution ----------


def _build(call):
    """Construct the distribution that ``(family, args)`` describes."""
    family, args = call
    if family is Mixture:
        return Mixture([(w, _build(part)) for w, part in args])
    return family(*args)


def _normalised(masses):
    total = sum(masses)
    return [m / total for m in masses] if total > 0 else masses


def _largest_payoff(call):
    """The largest payoff the arguments of ``(family, args)`` name, which
    bounds the support; math.inf for a Pareto tail at any depth."""
    family, args = call
    if family is Mixture:
        return max(_largest_payoff(part) for _, part in args)
    if family is Pareto:
        return math.inf
    if family is Atoms:
        return max(b for b, _ in args[0])
    if family is Histogram:
        return max(args[0])
    return max(args)


# Relative rounding allowed on the bounds 1/f and mean/(1 + f B) of
# E[b/(1+bf)]: over two unseeded runs of the strategy below, 20000 examples
# each, the worst was 6.7e-16, on a Uniform bin reaching the largest
# double, where K(d) ~ 1/d is subnormal.
BOUND_SLACK = 2e-15


def test_constructors_accept_only_distributions_with_finite_mean():
    # Drawn arguments include negative, zero, tied and unnormalised values.
    # Whatever a constructor accepts must be a law of b >= 0 with a finite
    # mean: a finite mean, transforms that start at it and fall toward 0
    # within the bounds 1/f and mean/(1 + f B) on a support in [0, B], and
    # finite nonnegative draws. Magnitudes reach the largest double.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    magnitudes = st.one_of(st.floats(0.0, 1e3), st.floats(0.0, MAX))
    payoffs = st.one_of(magnitudes, st.sampled_from((-1.0, -0.0, 0.0, 1.0, 2.5, MAX)))

    def n_of(elements, n):
        return st.lists(elements, min_size=n, max_size=n)

    def masses(n):
        raw = n_of(st.one_of(st.just(0.0), st.floats(-0.5, 1.5)), n)
        return st.one_of(n_of(st.floats(1e-3, 1.0), n).map(_normalised), raw, raw.map(_normalised))

    def edges(n):
        raw = n_of(payoffs, n)
        increasing = st.lists(magnitudes, min_size=n, max_size=n, unique=True).map(sorted)
        return st.one_of(increasing, raw, raw.map(sorted))

    def zipped(first, second):
        return st.tuples(first, second).map(lambda pair: list(zip(*pair)))

    def call(family, args):
        return st.tuples(st.just(family), args)

    sizes = st.integers(1, 3)
    alphas = st.one_of(st.sampled_from((0.5, 1.0)), st.floats(0.0, 50.0))
    leaves = st.one_of(
        call(Dirac, st.tuples(payoffs)),
        sizes.flatmap(lambda n: call(Atoms, st.tuples(zipped(n_of(payoffs, n), masses(n))))),
        call(Uniform, edges(2)),
        sizes.flatmap(lambda n: call(Histogram, st.tuples(edges(n + 1), masses(n)))),
        call(Pareto, st.tuples(alphas, st.one_of(st.floats(-1.0, 10.0), magnitudes))),
    )
    mixtures = sizes.flatmap(lambda n: call(Mixture, zipped(masses(n), n_of(leaves, n))))

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=300)
    @hypothesis.given(st.one_of(leaves, mixtures))
    def check(call):
        try:
            dist = _build(call)
        except (ValueError, InfiniteMeanError):
            return
        mean = dist.mean()
        assert math.isfinite(mean) and mean >= 0.0
        fractions = (0.0, 0.1, 0.5, 0.9, 0.999)
        transforms = [dist.payoff_transform(f) for f in fractions]
        assert all(math.isfinite(m) and 0.0 <= m <= mean for m in transforms)
        assert all(a >= b for a, b in zip(transforms, transforms[1:]))
        top = _largest_payoff(call)
        for f, m in zip(fractions[1:], transforms[1:]):
            assert m <= 1.0 / f * (1.0 + BOUND_SLACK), (f, m)
            if top < math.inf:
                assert m >= mean / (1.0 + f * top) * (1.0 - BOUND_SLACK), (f, m)
        draws = dist.sample(np.random.default_rng(0), 64)
        assert np.isfinite(draws).all() and (draws >= 0.0).all()

    check()


# ---------- independent oracles for the transforms ----------


PARETO_ORACLE_ALPHAS = (1.0001, 1.05, 1.5, 3.0, 50.0, 200.0)
PARETO_ORACLE_FRACTIONS = (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.99)


@pytest.mark.parametrize("alpha", PARETO_ORACLE_ALPHAS)
def test_pareto_transforms_match_hypergeometric_oracle(alpha):
    # E[b/(1+bf)] = (1/f) 2F1(1, alpha; alpha+1; -1/(xmin f)), and by parts
    # E[log(1+bf)] = log1p(xmin f) + (f/alpha) E[b/(1+bf)].
    mpmath = pytest.importorskip("mpmath")
    xmin = 0.8
    dist = Pareto(alpha, xmin)
    with mpmath.workdps(30):
        for f in PARETO_ORACLE_FRACTIONS:
            c = mpmath.mpf(xmin) * f
            m = mpmath.hyp2f1(1, alpha, alpha + 1, -1 / c) / f
            log_growth = mpmath.log1p(c) + f / alpha * m
            assert abs(dist.payoff_transform(f) - float(m)) <= 1e-10, f
            assert abs(dist.log_growth_win(f) - float(log_growth)) <= 1e-10, f


def test_pareto_integration_by_parts_matches_frozen_value():
    by_parts = math.log1p(0.5) + 0.5 / 3.0 * PARETO31_M_HALF
    assert by_parts == pytest.approx(PARETO31_L_HALF, abs=1e-15)


def _pareto_oracle(mpmath, alpha, xmin, f):
    """I(c), E[b/(1+bf)] and E[log(1+bf)] of Pareto(alpha, xmin) at 40 digits,
    from I(c) = 2F1(1, alpha; alpha+1; -1/c) / (alpha c). c is the float
    xmin * f, the one input the transforms see."""
    with mpmath.workdps(40):
        a, x, c = mpmath.mpf(alpha), mpmath.mpf(xmin), mpmath.mpf(xmin * f)
        integral = 1 / (a - 1) if c == 0 else mpmath.hyp2f1(1, a, a + 1, -1 / c) / (a * c)
        return integral, a * x * integral, mpmath.log1p(c) + c * integral


PARETO_SERIES_ALPHAS = (1.0000001, 1.0001, 1.5, 2 - 1e-9, 2.0, 2 + 1e-9, 3 - 1e-6, 8.0, 199.9999, 200.0, 1e6)
PARETO_SERIES_CS = (1e-300, 1e-103, 1e-12, 1e-3, 0.3, 0.5 - 1e-12, 0.5, 0.7, 50.0, 1e6)


@pytest.mark.parametrize("alpha", PARETO_SERIES_ALPHAS)
def test_pareto_integral_matches_hypergeometric_to_full_precision(alpha):
    # Both series and the pole pair at an integer alpha - 1, near and far
    # from it, on either side of the c = 1/2 switch.
    mpmath = pytest.importorskip("mpmath")
    f = 0.5
    for c in PARETO_SERIES_CS:
        dist = Pareto(alpha, 2.0 * c)  # xmin * f == c exactly
        integral, m, log_growth = _pareto_oracle(mpmath, alpha, 2.0 * c, f)
        assert quadrature.pareto_integral(alpha, c) == pytest.approx(float(integral), rel=1e-13, abs=0.0), c
        assert dist.payoff_transform(f) == pytest.approx(float(m), rel=1e-13, abs=0.0), c
        assert dist.log_growth_win(f) == pytest.approx(float(log_growth), rel=1e-13, abs=0.0), c


# Tails whose alpha * xmin overflows though their mean does not.
PARETO_PAST_ALPHA_XMIN = ((50.0, 1e307), (50.0, 3.6e306), (200.0, 1.7e308), (1e6, 1.79e308), (3.0, 1.1e308))


@pytest.mark.parametrize("alpha, xmin", PARETO_PAST_ALPHA_XMIN)
def test_pareto_whose_alpha_times_xmin_overflows_keeps_its_mean_and_transforms(alpha, xmin):
    # Measured worst relative error 1.3e-16 against 40-digit mpmath; the
    # mean against the exactly rounded closed form alpha xmin / (alpha - 1).
    mpmath = pytest.importorskip("mpmath")
    from fractions import Fraction

    dist = Pareto(alpha, xmin)
    assert math.isinf(alpha * xmin)
    exact_mean = float(Fraction(alpha) * Fraction(xmin) / (Fraction(alpha) - 1))
    assert dist.mean() == pytest.approx(exact_mean, rel=2.3e-16, abs=0.0)
    assert dist.payoff_transform(0.0) == dist.mean()
    for f in (1e-320, 1e-300, 1e-10, 1e-3, 0.25, 0.5, 0.9, 0.999):
        _, m, log_growth = _pareto_oracle(mpmath, alpha, xmin, f)
        assert dist.payoff_transform(f) == pytest.approx(float(m), rel=5e-16, abs=0.0), f
        assert dist.log_growth_win(f) == pytest.approx(float(log_growth), rel=5e-16, abs=0.0), f


def test_pareto_near_point_mass_keeps_its_transforms():
    # alpha = 1e6 is O(1/alpha) from a point mass at xmin, hence the
    # 1e-5 bound on the Dirac limits.
    mpmath = pytest.importorskip("mpmath")
    dist = Pareto(1e6, 1.0)
    _, m, log_growth = _pareto_oracle(mpmath, 1e6, 1.0, 0.1)
    assert dist.payoff_transform(0.1) == pytest.approx(float(m), rel=1e-13)
    assert dist.log_growth_win(0.1) == pytest.approx(float(log_growth), rel=1e-13)
    assert dist.payoff_transform(0.1) == pytest.approx(1 / 1.1, rel=1e-5)
    assert dist.log_growth_win(0.1) == pytest.approx(math.log1p(0.1), rel=1e-5)


def test_pareto_at_float_limit_alpha_is_a_point_mass():
    # alpha * (1 + c) overflows at alpha = 1e308, which must not zero the
    # transform; the distance from a point mass is O(1/alpha).
    for alpha in (1e300, 1e308):
        dist = Pareto(alpha, 1.0)
        for f in (0.3, 0.9):
            assert dist.payoff_transform(f) == pytest.approx(1 / (1 + f), rel=1e-13), (alpha, f)
            assert dist.log_growth_win(f) == pytest.approx(math.log1p(f), rel=1e-13), (alpha, f)


def test_pareto_transform_at_tiny_fraction_is_finite_and_exact():
    mpmath = pytest.importorskip("mpmath")
    dist = Pareto(1.0001, 0.01)
    _, m, _ = _pareto_oracle(mpmath, 1.0001, 0.01, 1e-61)
    value = dist.payoff_transform(1e-61)
    assert math.isfinite(value)
    assert value == pytest.approx(float(m), rel=1e-13)


def test_pareto_transforms_when_xmin_times_f_underflows():
    dist = Pareto(2.0, 1e-3)
    assert dist.payoff_transform(5e-324) == pytest.approx(dist.mean(), rel=1e-15)
    assert dist.log_growth_win(5e-324) == 0.0


# alpha * xmin * I(c) can round one ulp above mean() where xmin * f is below
# rounding; the second game does so at every f > 0. The tiny fractions are
# ones the solver's bisection evaluates on the first game.
@pytest.mark.parametrize("alpha, xmin", [(1.9862006305987354, 0.9227435402755072), (45.0, 2.5588795206391576e-287)])
def test_pareto_transform_never_exceeds_the_mean(alpha, xmin):
    dist = Pareto(alpha, xmin)
    transforms = [dist.payoff_transform(f) for f in (0.0, 3.5e-155, 1e-100, 2e-78, 4.8e-40, 0.1, 0.5, 0.999)]
    assert all(m <= dist.mean() for m in transforms)
    assert all(a >= b for a, b in zip(transforms, transforms[1:]))


# Where xmin * f is large, alpha * xmin * I(c) is within an ulp of 1/f and
# used to round one ulp above it in both games. Checked with no slack.
@pytest.mark.parametrize("alpha, xmin, f", [(50.0, 1e300, 0.001), (2.0, 8e307, 0.999)])
def test_pareto_transform_never_exceeds_one_over_f(alpha, xmin, f):
    assert Pareto(alpha, xmin).payoff_transform(f) <= 1.0 / f


def test_pareto_transforms_obey_jensen_and_match_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies
    near_integer = st.builds(
        lambda n, sign, power: n + sign * 10.0**power,
        st.integers(1, 1000),
        st.sampled_from((-1, 1)),
        st.integers(-12, -3),
    )
    alphas = st.one_of(st.floats(1.0, 1e3, exclude_min=True), near_integer).filter(lambda a: 1.0 < a <= 1e3)
    # Below f = 1e-300 the product xmin * f can be subnormal, and its
    # rounding alone can exceed the 1e-13 these checks allow.
    fractions = st.floats(1e-300, 1.0, exclude_max=True)

    @hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
    @hypothesis.given(alphas, st.floats(1e-3, 1e3), fractions)
    def check(alpha, xmin, f):
        dist = Pareto(alpha, xmin)
        mean = dist.mean()
        m, log_growth = dist.payoff_transform(f), dist.log_growth_win(f)
        # Jensen: b / (1 + b f) and log(1 + b f) are concave in b.
        assert 0.0 < m <= mean / (1.0 + mean * f) * (1.0 + 1e-13)
        assert 0.0 <= log_growth <= math.log1p(mean * f) * (1.0 + 1e-13)
        _, m_exact, log_growth_exact = _pareto_oracle(mpmath, alpha, xmin, f)
        assert m == pytest.approx(float(m_exact), rel=1e-13, abs=0.0)
        assert log_growth == pytest.approx(float(log_growth_exact), rel=1e-13, abs=0.0)

    check()


def _bin_means_oracle(mpmath, a, w, f):
    """Exact means of b/(1+bf) and log(1+bf) over [a, a+w], at 40 digits."""
    with mpmath.workdps(40):
        a, w, f = mpmath.mpf(a), mpmath.mpf(w), mpmath.mpf(f)
        u1, u2 = 1 + a * f, 1 + (a + w) * f
        if f == 0:
            return a + w / 2, mpmath.mpf(0)
        m = (w / f - mpmath.log(u2 / u1) / f**2) / w
        log_growth = ((u2 * mpmath.log(u2) - u2) - (u1 * mpmath.log(u1) - u1)) / (f * w)
        return m, log_growth


@pytest.mark.parametrize("a, w", [(0.0, 1.0), (0.2, 0.5), (1.0, 3.0), (4.0, 0.05)])
def test_uniform_closed_form_and_series_branches_match_oracle(a, w):
    # d = w f / (1 + a f) selects the branch: the series below 1e-2, the
    # closed form above. Probe both sides of the switch and far from it.
    mpmath = pytest.importorskip("mpmath")
    dist = Uniform(a, a + w)
    for d in (0.0, 1e-9, 1e-4, 0.5e-2, 0.999e-2, 1.001e-2, 2e-2, 0.3, 3.0):
        if not 0.0 <= d < w / (1.0 + a):  # f = d / (w - a d) must lie in [0, 1)
            continue
        f = d / (w - a * d)
        m, log_growth = _bin_means_oracle(mpmath, a, w, f)
        assert dist.payoff_transform(f) == pytest.approx(float(m), rel=1e-13, abs=0.0), d
        assert dist.log_growth_win(f) == pytest.approx(float(log_growth), rel=1e-13, abs=1e-300), d


def test_histogram_transforms_match_oracle_across_the_switch():
    # 2000 bins of width ~2.5e-3 put every bin in the series branch for
    # small f and in the closed form for f near 1.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(8)
    edges = np.linspace(0.1, 5.0, 2001)
    masses = rng.dirichlet(np.full(2000, 2.0))
    h = Histogram(edges, masses)
    for f in (1e-3, 0.5, 0.95):
        means = [_bin_means_oracle(mpmath, lo, hi - lo, f) for lo, hi in zip(edges, edges[1:])]
        m = math.fsum(float(w * bin_m) for w, (bin_m, _) in zip(masses, means))
        log_growth = math.fsum(float(w * bin_l) for w, (_, bin_l) in zip(masses, means))
        assert h.payoff_transform(f) == pytest.approx(m, rel=1e-13), f
        assert h.log_growth_win(f) == pytest.approx(log_growth, rel=1e-13), f


@pytest.mark.parametrize(
    "w, f",
    [
        (0.012574272376968301, 0.9),
        (0.01117739504759903, 0.999),
        (11.699287900545926, 0.001),
        (0.03398997991987188, 0.3),
    ],
)
def test_uniform_log_growth_is_accurate_where_its_error_peaked(w, f):
    # The worst of 600 seeded one-bin cases when the log transform had its
    # own kernel: relative errors of 3.1e-14 to 4.3e-14, now at most 1.6e-14.
    mpmath = pytest.importorskip("mpmath")
    _, log_growth = _bin_means_oracle(mpmath, 0.0, w, f)
    assert Uniform(0.0, w).log_growth_win(f) == pytest.approx(float(log_growth), rel=2.5e-14, abs=0.0)


WIDE_BINS = {
    "uniform-1e155": ([0.0, 1e155], [1.0]),
    "uniform-1e160": ([0.0, 1e160], [1.0]),
    "uniform-1e200": ([0.0, 1e200], [1.0]),
    "uniform-1e200-2e200": ([1e200, 2e200], [1.0]),  # u * u overflows
    "histogram-to-largest-double": ([0.0, 1.0, MAX], [0.5, 0.5]),
}


@pytest.mark.parametrize("case", WIDE_BINS)
def test_bins_wider_than_the_square_root_of_the_largest_double_match_oracle(case):
    # d * d and u * u overflow once d or u passes 1.3e154, which used to
    # read K(d) as 0: Uniform(0, 1e155).payoff_transform(0.5) was 0.0.
    mpmath = pytest.importorskip("mpmath")
    edges, masses = WIDE_BINS[case]
    dist = Histogram(edges, masses)
    for f in (1e-9, 0.5, 0.999):
        means = [_bin_means_oracle(mpmath, lo, hi - lo, f) for lo, hi in zip(edges, edges[1:])]
        m = math.fsum(w * float(bin_m) for w, (bin_m, _) in zip(masses, means))
        log_growth = math.fsum(w * float(bin_l) for w, (_, bin_l) in zip(masses, means))
        assert dist.payoff_transform(f) == pytest.approx(m, rel=1e-14, abs=0.0), f
        assert dist.log_growth_win(f) == pytest.approx(log_growth, rel=1e-14, abs=0.0), f


def test_solver_on_a_bin_wider_than_the_square_root_of_the_largest_double():
    # The root is 0.6 to double precision; the overflowing kernel used to
    # give f_hat = 1.34e-46 marked "solved".
    solution = solve_kelly(GameSpec(0.6, Uniform(0.0, 1e200)))
    assert solution.status == "solved"
    assert solution.f_hat == 0.6


def test_many_bin_histogram_moments_are_exact_sums():
    from fractions import Fraction

    rng = np.random.default_rng(17)
    edges = np.cumsum(rng.uniform(0.5, 1.5, 2001)) / 400.0
    masses = rng.dirichlet(np.full(2000, 2.0))
    h = Histogram(edges, masses)
    e = [Fraction(x) for x in edges]
    m = [Fraction(x) for x in masses]
    mean = sum(mi * (lo + hi) / 2 for mi, lo, hi in zip(m, e, e[1:]))
    second = sum(mi * (lo * lo + lo * hi + hi * hi) / 3 for mi, lo, hi in zip(m, e, e[1:]))
    assert h.mean() == pytest.approx(float(mean), rel=1e-14)
    assert h.variance() == pytest.approx(float(second - mean * mean), rel=1e-12)
