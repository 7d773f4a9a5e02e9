"""Tests for the payoff distribution families and their transforms."""

import math

import numpy as np
import pytest

from varkelly.distributions import (
    Atoms,
    Dirac,
    Histogram,
    Mixture,
    Pareto,
    PayoffDistribution,
    Uniform,
    from_spec,
    mixture_linearity_check,
)
from varkelly.errors import ConsistencyError, InfiniteMeanError

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


def test_dirac_validation():
    assert Dirac(1.0).validate().ok
    assert Dirac(0.0).validate().ok
    report = Dirac(-0.5).validate()
    assert not report.ok
    assert "negative" in report.violations[0]


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
    report = Atoms([(1.0, 0.4), (2.0, 0.5)]).validate()
    assert not report.ok
    assert any("mass sums to 0.9" in v for v in report.violations)
    report = Atoms([(-1.0, 0.5), (2.0, -0.5)]).validate()
    assert any("negative" in v for v in report.violations)
    assert any("not positive" in v for v in report.violations)


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
    assert Uniform(0.0, 1.0).validate().ok
    assert not Uniform(2.0, 1.0).validate().ok
    assert not Uniform(-1.0, 1.0).validate().ok


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


def test_histogram_validation_and_structure():
    assert Histogram([0.0, 1.0], [1.0]).validate().ok
    assert not Histogram([1.0, 0.5], [1.0]).validate().ok
    assert not Histogram([-1.0, 1.0], [1.0]).validate().ok
    report = Histogram([0.0, 1.0, 2.0], [0.7, 0.2]).validate()
    assert any("mass sums to 0.9" in v for v in report.violations)
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


def test_pareto_infinite_mean_raises():
    for alpha in (1.0, 0.9):
        with pytest.raises(InfiniteMeanError):
            Pareto(alpha, 1.0).mean()
        with pytest.raises(InfiniteMeanError):
            Pareto(alpha, 1.0).payoff_transform(0.3)


def test_pareto_transforms_match_closed_form():
    p = Pareto(3.0, 1.0)
    assert p.payoff_transform(0.5) == pytest.approx(PARETO31_M_HALF, abs=1e-9)
    assert p.log_growth_win(0.5) == pytest.approx(PARETO31_L_HALF, abs=1e-9)
    # f = 0 shortcuts to the exact moments
    assert p.payoff_transform(0.0) == 1.5
    assert p.log_growth_win(0.0) == 0.0


def test_pareto_transform_small_alpha_against_sampling():
    # Dual route near the infinite-mean boundary, where the integrand
    # kink is hardest: quadrature vs direct Monte Carlo averaging.
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
    assert Pareto(2.0, 1.0).validate().ok
    report = Pareto(0.9, 1.0).validate()
    assert any("infinite mean" in v for v in report.violations)
    assert any("not positive" in v for v in Pareto(2.0, 0.0).validate().violations)


# ---------- Mixture ----------


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
    import varkelly.distributions as dmod

    honest = [(0.5, Dirac(1.0)), (0.5, Dirac(2.0))]
    assert mixture_linearity_check(honest, 0.3) > 0

    class LyingMixture(Mixture):
        def payoff_transform(self, f, abs_tol=1e-10):
            return super().payoff_transform(f, abs_tol) + 0.1

    monkeypatch.setattr(dmod, "Mixture", LyingMixture)
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


def test_mixture_validation_nests_component_reports():
    m = Mixture([(0.5, Dirac(-1.0)), (0.5, Pareto(0.5, 1.0))])
    report = m.validate()
    assert any(v.startswith("part 0:") and "negative" in v for v in report.violations)
    assert any(v.startswith("part 1:") and "infinite mean" in v for v in report.violations)
    bad_weights = Mixture([(0.6, Dirac(1.0)), (0.3, Dirac(2.0))]).validate()
    assert any("mass sums to 0.9" in v for v in bad_weights.violations)


def test_mixture_structural_errors():
    with pytest.raises(ValueError):
        Mixture([])
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


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_transform_monotonicity(dist):
    fs = [0.0, 0.2, 0.4, 0.6, 0.8]
    m_values = [dist.payoff_transform(f) for f in fs]
    l_values = [dist.log_growth_win(f) for f in fs]
    assert all(a > b - 1e-9 for a, b in zip(m_values, m_values[1:]))  # M decreasing
    assert all(a < b + 1e-12 for a, b in zip(l_values, l_values[1:]))  # L increasing
    assert m_values[0] == pytest.approx(dist.mean(), abs=1e-9)
    assert abs(l_values[0]) < 1e-12


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_log_growth_below_concavity_bound(dist):
    # E[log(1+bf)] <= log(1+E[b]f), strictly so for nondegenerate payoffs
    for f in (0.2, 0.5, 0.8):
        bound = math.log1p(dist.mean() * f)
        value = dist.log_growth_win(f)
        assert value <= bound + 1e-9
        if dist.variance() > 1e-6:
            assert value < bound - 1e-6


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_fraction_domain_enforced(dist):
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            dist.payoff_transform(bad)
        with pytest.raises(ValueError):
            dist.log_growth_win(bad)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_spec_round_trip(dist):
    rebuilt = from_spec(dist.to_spec())
    assert rebuilt == dist
    assert rebuilt.to_spec() == dist.to_spec()


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: d.kind)
def test_sampled_mean_matches_moment(dist):
    rng = np.random.default_rng(hash(dist.kind) % 2**32)
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
    assert dist.validate().ok


def test_construction_allows_invalid_values():
    # Invariant violations are reported by validate(), not blocked at
    # construction, so callers can inspect bad inputs.
    bad = Atoms([(1.0, 0.45), (2.0, 0.45)])
    assert isinstance(bad, PayoffDistribution)
    assert not bad.validate().ok


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
        m = math.fsum(
            float(w * _bin_means_oracle(mpmath, lo, hi - lo, f)[0])
            for lo, hi, w in zip(edges, edges[1:], masses)
        )
        assert h.payoff_transform(f) == pytest.approx(m, rel=1e-13), f


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
