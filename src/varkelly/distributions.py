"""Payoff distributions and the integral transforms the betting math consumes.

A payoff distribution describes the random win payoff b >= 0 (in b-to-1
odds). Six families are supported: point masses (Dirac), finite atom
sets, uniform intervals, piecewise-constant histograms, Pareto tails,
and mixtures of the above. Every family provides:

* ``mean()`` / ``variance()`` - moments of b,
* ``payoff_transform(f)``     - E[b / (1 + b f)], the integral that the
  optimal-fraction equation is built from,
* ``log_growth_win(f)``       - E[log(1 + b f)], the win-side term of
  the expected log growth,
* ``sample(rng)``             - inverse-transform sampling,
* ``validate()``              - report-style invariant checking.

Every family but Pareto has closed-form transforms and moments: Dirac
and Atoms as finite sums, Uniform and Histogram as exact per-bin
integrals summed over all bins at once (Uniform is the one-bin case).
The Pareto tail is mapped onto (0, 1] via u = xmin / b and integrated by
the adaptive Gauss-Legendre engine in ``quadrature``, one vectorised
integrand call per refinement level. Parameters must be finite: NaN and
infinite values are rejected at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import quadrature
from .errors import ConsistencyError, InfiniteMeanError

# Tolerance for "probability masses sum to 1" checks.
MASS_TOL = 1e-12

# Below this value of d = w f / (1 + a f), the per-bin closed forms lose
# their precision to cancellation in d - log1p(d), and the power series in
# d take over; at the switch both are accurate to about 1e-14.
_SERIES_BELOW = 1e-2
# Series coefficients of c_k in sum_k c_k (-d)^k, to eight terms (the
# first dropped term is below 1e-17 at the switch):
#   (d - log1p(d)) / d^2             = 1/2 - d/3 + d^2/4 - ...
#   ((1 + d) log1p(d) - d) / d^2     = 1/2 - d/6 + d^2/12 - ...
_M_SERIES = tuple(1.0 / (k + 2) for k in range(8))
_L_SERIES = tuple(1.0 / ((k + 1) * (k + 2)) for k in range(8))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(): ok, or the list of violated invariants."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _check_fraction(f: float) -> float:
    f = float(f)
    if not 0.0 <= f < 1.0:
        raise ValueError(f"betting fraction must lie in [0, 1), got {f}")
    return f


def _readonly(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _require_finite(name: str, values) -> None:
    """Raise ValueError naming the first NaN or infinite one of ``values``,
    a sequence of floats or a float array."""
    if isinstance(values, np.ndarray) and np.isfinite(values).all():
        return
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")


def _series_or_closed(d: np.ndarray, coeffs, closed) -> np.ndarray:
    """``closed(d)`` where d >= _SERIES_BELOW, else its power series in -d."""
    small = d < _SERIES_BELOW
    if not small.any():
        return closed(d)
    x = -d
    series = np.full_like(d, coeffs[-1])
    for c in coeffs[-2::-1]:
        series = series * x + c
    if small.all():
        return series
    return np.where(small, series, closed(np.maximum(d, _SERIES_BELOW)))


class _Bins(NamedTuple):
    """Piecewise-uniform density: left edge a, width w and mass of each bin.

    Transforms and moments are exact per-bin integrals, summed over all
    bins in one numpy expression. With u = 1 + a f and d = w f / u, the
    mean over the bin [a, a + w] of

        b / (1 + b f)    is  a / u + (w / u^2) (d - log1p(d)) / d^2,
        log(1 + b f)     is  log(u) + ((1 + d) log1p(d) - d) / d.
    """

    left: np.ndarray
    width: np.ndarray
    mass: np.ndarray

    @classmethod
    def from_edges(cls, edges: np.ndarray, masses: np.ndarray) -> _Bins:
        return cls(edges[:-1], edges[1:] - edges[:-1], masses)

    def payoff_transform(self, f: float) -> float:
        u = 1.0 + self.left * f
        d = self.width * f / u
        s = _series_or_closed(d, _M_SERIES, lambda x: (x - np.log1p(x)) / (x * x))
        return float(self.mass @ (self.left / u + self.width / (u * u) * s))

    def log_growth_win(self, f: float) -> float:
        af = self.left * f
        d = self.width * f / (1.0 + af)
        s = _series_or_closed(d, _L_SERIES, lambda x: ((1.0 + x) * np.log1p(x) - x) / (x * x))
        return float(self.mass @ (np.log1p(af) + d * s))

    def moments(self) -> tuple[float, float]:
        """Exact mean and variance."""
        mids = self.left + 0.5 * self.width
        mean = float(self.mass @ mids)
        return mean, float(self.mass @ ((mids - mean) ** 2 + self.width**2 / 12.0))


class PayoffDistribution:
    """Base class for payoff distributions. Instances are immutable."""

    kind: str = "abstract"

    def validate(self, mass_tol: float = MASS_TOL) -> ValidationReport:
        """Check invariants; returns a report instead of raising."""
        violations = tuple(self._violations(mass_tol))
        return ValidationReport(ok=not violations, violations=violations)

    def _violations(self, mass_tol: float) -> list[str]:
        raise NotImplementedError

    def mean(self) -> float:
        """Expected payoff. Raises InfiniteMeanError when it diverges."""
        raise NotImplementedError

    def variance(self) -> float:
        """Payoff variance; may be math.inf (e.g. Pareto with alpha <= 2)."""
        raise NotImplementedError

    def payoff_transform(self, f: float, abs_tol: float = quadrature.DEFAULT_ABS_TOL) -> float:
        """E[b / (1 + b f)] for 0 <= f < 1. Equals mean() at f = 0 and is
        strictly decreasing in f whenever b is not identically zero.
        ``abs_tol`` bounds the quadrature error of families that integrate
        numerically (Pareto); closed-form families ignore it."""
        raise NotImplementedError

    def log_growth_win(self, f: float, abs_tol: float = quadrature.DEFAULT_ABS_TOL) -> float:
        """E[log(1 + b f)] for 0 <= f < 1. Zero at f = 0, nondecreasing in f."""
        raise NotImplementedError

    def sample(self, rng, size: int | None = None):
        """Draw payoffs using ``rng.random()`` uniforms (inverse transform).

        Returns a float when ``size`` is None, else an ndarray of shape
        (size,). Deterministic given the generator state.
        """
        raise NotImplementedError

    def to_spec(self) -> dict:
        """JSON-ready tagged representation (see from_spec)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.to_spec()})"


class Dirac(PayoffDistribution):
    """Point mass: the payoff is the constant b."""

    kind = "dirac"

    def __init__(self, b: float):
        self.b = float(b)
        _require_finite("payoff", (self.b,))

    def _violations(self, mass_tol):
        if self.b < 0:
            return [f"payoff {self.b:.12g} is negative"]
        return []

    def mean(self) -> float:
        return self.b

    def variance(self) -> float:
        return 0.0

    def payoff_transform(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return self.b / (1.0 + self.b * f)

    def log_growth_win(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return math.log1p(self.b * f)

    def sample(self, rng, size=None):
        if size is None:
            return self.b
        return np.full(int(size), self.b)

    def to_spec(self) -> dict:
        return {"type": "dirac", "b": self.b}

    def __eq__(self, other):
        return isinstance(other, Dirac) and self.b == other.b


class Atoms(PayoffDistribution):
    """Finite discrete distribution: payoff values with probability masses."""

    kind = "atoms"

    def __init__(self, points):
        pts = [(float(b), float(w)) for b, w in points]
        if not pts:
            raise ValueError("at least one atom is required")
        values = [b for b, _ in pts]
        weights = [w for _, w in pts]
        _require_finite("atom value", values)
        _require_finite("atom weight", weights)
        self.values = _readonly(values)
        self.weights = _readonly(weights)

    def _violations(self, mass_tol):
        out = []
        for b in self.values:
            if b < 0:
                out.append(f"atom value {b:.12g} is negative")
        for w in self.weights:
            if w <= 0:
                out.append(f"atom weight {w:.12g} is not positive")
        total = float(self.weights.sum())
        if abs(total - 1.0) > mass_tol:
            out.append(f"mass sums to {total:.12g}, off by {total - 1.0:.3g}")
        return out

    def mean(self) -> float:
        return float(self.weights @ self.values)

    def variance(self) -> float:
        m = self.mean()
        return float(self.weights @ (self.values - m) ** 2)

    def payoff_transform(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return float(self.weights @ (self.values / (1.0 + self.values * f)))

    def log_growth_win(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return float(self.weights @ np.log1p(self.values * f))

    def sample(self, rng, size=None):
        cum = np.cumsum(self.weights)
        u = rng.random(size)
        idx = np.searchsorted(cum, u, side="right")
        idx = np.clip(idx, 0, len(self.values) - 1)
        out = self.values[idx]
        return float(out) if size is None else out

    def to_spec(self) -> dict:
        return {"type": "atoms", "points": [[float(b), float(w)] for b, w in zip(self.values, self.weights)]}

    def __eq__(self, other):
        return (
            isinstance(other, Atoms)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.weights, other.weights)
        )


class Uniform(PayoffDistribution):
    """Uniform density on [lo, hi]: the one-bin piecewise-uniform density."""

    kind = "uniform"

    def __init__(self, lo: float, hi: float):
        self.lo = float(lo)
        self.hi = float(hi)
        _require_finite("support endpoint", (self.lo, self.hi))
        self._bins = _Bins.from_edges(np.array([self.lo, self.hi]), np.ones(1))

    def _violations(self, mass_tol):
        out = []
        if self.lo < 0:
            out.append(f"support endpoint {self.lo:.12g} is negative")
        if not self.lo < self.hi:
            out.append(f"support requires lo < hi, got [{self.lo:.12g}, {self.hi:.12g}]")
        return out

    def mean(self) -> float:
        return self._bins.moments()[0]

    def variance(self) -> float:
        return self._bins.moments()[1]

    def payoff_transform(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return self._bins.payoff_transform(f)

    def log_growth_win(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return self._bins.log_growth_win(f)

    def sample(self, rng, size=None):
        u = rng.random(size)
        out = self.lo + u * (self.hi - self.lo)
        return float(out) if size is None else out

    def to_spec(self) -> dict:
        return {"type": "uniform", "lo": self.lo, "hi": self.hi}

    def __eq__(self, other):
        return isinstance(other, Uniform) and (self.lo, self.hi) == (other.lo, other.hi)


class Histogram(PayoffDistribution):
    """Piecewise-constant density: bin edges plus one probability mass per bin."""

    kind = "histogram"

    def __init__(self, edges, masses):
        self.edges = _readonly(edges)
        self.masses = _readonly(masses)
        if len(self.edges) != len(self.masses) + 1:
            raise ValueError(
                f"need len(edges) == len(masses) + 1, got {len(self.edges)} edges "
                f"for {len(self.masses)} masses"
            )
        if len(self.masses) == 0:
            raise ValueError("at least one bin is required")
        _require_finite("bin edge", self.edges)
        _require_finite("bin mass", self.masses)
        self._bins = _Bins.from_edges(self.edges, self.masses)

    def _violations(self, mass_tol):
        out = []
        if self.edges[0] < 0:
            out.append(f"bin edge {self.edges[0]:.12g} is negative")
        if not np.all(np.diff(self.edges) > 0):
            out.append("bin edges are not strictly increasing")
        for m in self.masses:
            if m < 0:
                out.append(f"bin mass {m:.12g} is negative")
        total = float(self.masses.sum())
        if abs(total - 1.0) > mass_tol:
            out.append(f"mass sums to {total:.12g}, off by {total - 1.0:.3g}")
        return out

    def mean(self) -> float:
        return self._bins.moments()[0]

    def variance(self) -> float:
        return self._bins.moments()[1]

    def payoff_transform(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return self._bins.payoff_transform(f)

    def log_growth_win(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return self._bins.log_growth_win(f)

    def sample(self, rng, size=None):
        cum = np.cumsum(self.masses)
        u = np.asarray(rng.random(size))
        idx = np.searchsorted(cum, u, side="right")
        idx = np.clip(idx, 0, len(self.masses) - 1)
        below = np.where(idx > 0, cum[idx - 1], 0.0)
        mass = self.masses[idx]
        frac = np.divide(u - below, mass, out=np.zeros_like(u), where=mass > 0)
        out = self.edges[idx] + frac * (self.edges[idx + 1] - self.edges[idx])
        return float(out) if size is None else out

    def to_spec(self) -> dict:
        return {
            "type": "histogram",
            "edges": [float(e) for e in self.edges],
            "masses": [float(m) for m in self.masses],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Histogram)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.masses, other.masses)
        )


class Pareto(PayoffDistribution):
    """Power-law tail: density alpha * xmin^alpha / b^(alpha+1) on [xmin, inf).

    The mean is finite only for alpha > 1, which validation enforces.
    """

    kind = "pareto"

    def __init__(self, alpha: float, xmin: float):
        self.alpha = float(alpha)
        self.xmin = float(xmin)
        _require_finite("Pareto parameter", (self.alpha, self.xmin))

    def _violations(self, mass_tol):
        out = []
        if self.alpha <= 1:
            out.append(f"infinite mean, alpha = {self.alpha:.12g} <= 1")
        if self.xmin <= 0:
            out.append(f"scale xmin = {self.xmin:.12g} is not positive")
        return out

    def _require_finite_mean(self):
        if self.alpha <= 1:
            raise InfiniteMeanError(
                f"Pareto(alpha={self.alpha:.12g}, xmin={self.xmin:.12g}) has an infinite mean"
            )

    def mean(self) -> float:
        self._require_finite_mean()
        return self.alpha * self.xmin / (self.alpha - 1.0)

    def variance(self) -> float:
        self._require_finite_mean()
        if self.alpha <= 2:
            return math.inf
        second = self.alpha * self.xmin**2 / (self.alpha - 2.0)
        return second - self.mean() ** 2

    # The substitution u = xmin / b maps [xmin, inf) onto (0, 1] and turns
    # rho(b) db into alpha * u^(alpha-1) du. A second substitution u = t^4
    # replaces the u^(alpha-1) endpoint kink (arbitrarily hard as alpha
    # approaches 1) with t^(4*alpha-1), which is smoother than cubic at
    # t = 0 for every alpha > 1, so the quadrature converges uniformly.
    # The Gauss nodes are interior, so t = 0 is never evaluated.

    def payoff_transform(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        self._require_finite_mean()
        if f == 0.0:
            return self.mean()
        scale, power, c = 4.0 * self.alpha * self.xmin, 4.0 * self.alpha - 1.0, self.xmin * f

        def integrand(t: np.ndarray) -> np.ndarray:
            t2 = t * t
            return scale * t**power / (t2 * t2 + c)

        value, _ = quadrature._gauss_adaptive(integrand, 0.0, 1.0, abs_tol)
        return value

    def log_growth_win(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        self._require_finite_mean()
        if f == 0.0:
            return 0.0
        scale, power, c = 4.0 * self.alpha, 4.0 * self.alpha - 1.0, self.xmin * f

        def integrand(t: np.ndarray) -> np.ndarray:
            t2 = t * t
            return scale * t**power * np.log1p(c / (t2 * t2))

        value, _ = quadrature._gauss_adaptive(integrand, 0.0, 1.0, abs_tol)
        return value

    def sample(self, rng, size=None):
        # Inverse transform u -> xmin * u^(-1/alpha); clamp away the
        # measure-zero u = 0 draw that would map to infinity.
        u = np.maximum(np.asarray(rng.random(size)), np.finfo(float).tiny)
        out = self.xmin * u ** (-1.0 / self.alpha)
        return float(out) if size is None else out

    def to_spec(self) -> dict:
        return {"type": "pareto", "alpha": self.alpha, "xmin": self.xmin}

    def __eq__(self, other):
        return isinstance(other, Pareto) and (self.alpha, self.xmin) == (other.alpha, other.xmin)


class Mixture(PayoffDistribution):
    """Convex combination of component distributions."""

    kind = "mixture"

    def __init__(self, parts):
        parts = [(float(w), dist) for w, dist in parts]
        if not parts:
            raise ValueError("at least one mixture component is required")
        for _, dist in parts:
            if not isinstance(dist, PayoffDistribution):
                raise TypeError(f"mixture component {dist!r} is not a PayoffDistribution")
        _require_finite("mixture weight", [w for w, _ in parts])
        self.parts = tuple(parts)

    def _violations(self, mass_tol):
        out = []
        for i, (w, dist) in enumerate(self.parts):
            if w <= 0:
                out.append(f"mixture weight {w:.12g} is not positive")
            out.extend(f"part {i}: {v}" for v in dist._violations(mass_tol))
        total = sum(w for w, _ in self.parts)
        if abs(total - 1.0) > mass_tol:
            out.append(f"mass sums to {total:.12g}, off by {total - 1.0:.3g}")
        return out

    def mean(self) -> float:
        return sum(w * dist.mean() for w, dist in self.parts)

    def variance(self) -> float:
        m = self.mean()
        second = 0.0
        for w, dist in self.parts:
            part_second = dist.variance() + dist.mean() ** 2
            if math.isinf(part_second):
                return math.inf
            second += w * part_second
        return max(second - m * m, 0.0)

    def payoff_transform(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return sum(w * dist.payoff_transform(f, abs_tol) for w, dist in self.parts)

    def log_growth_win(self, f, abs_tol=quadrature.DEFAULT_ABS_TOL):
        f = _check_fraction(f)
        return sum(w * dist.log_growth_win(f, abs_tol) for w, dist in self.parts)

    def sample(self, rng, size=None):
        cum = np.cumsum([w for w, _ in self.parts])
        if size is None:
            idx = int(np.searchsorted(cum, rng.random(), side="right"))
            idx = min(idx, len(self.parts) - 1)
            return self.parts[idx][1].sample(rng)
        u = rng.random(int(size))
        idx = np.clip(np.searchsorted(cum, u, side="right"), 0, len(self.parts) - 1)
        out = np.empty(int(size))
        # Components are visited in fixed order so the draw sequence is
        # reproducible regardless of which indices each one fills.
        for i, (_, dist) in enumerate(self.parts):
            mask = idx == i
            count = int(mask.sum())
            if count:
                out[mask] = dist.sample(rng, count)
        return out

    def to_spec(self) -> dict:
        return {"type": "mixture", "parts": [[float(w), d.to_spec()] for w, d in self.parts]}

    def __eq__(self, other):
        return isinstance(other, Mixture) and self.parts == other.parts


def from_spec(spec: dict) -> PayoffDistribution:
    """Build a distribution from its tagged JSON representation.

    Accepted forms::

        {"type": "dirac", "b": 1.0}
        {"type": "atoms", "points": [[b, w], ...]}
        {"type": "uniform", "lo": x, "hi": y}
        {"type": "histogram", "edges": [...], "masses": [...]}
        {"type": "pareto", "alpha": a, "xmin": x}
        {"type": "mixture", "parts": [[w, <spec>], ...]}

    Raises ValueError for unknown tags, missing fields or non-finite values.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a JSON object, got {type(spec).__name__}")
    try:
        kind = spec["type"]
    except KeyError:
        raise ValueError("distribution spec is missing the 'type' tag") from None
    try:
        if kind == "dirac":
            return Dirac(spec["b"])
        if kind == "atoms":
            return Atoms(spec["points"])
        if kind == "uniform":
            return Uniform(spec["lo"], spec["hi"])
        if kind == "histogram":
            return Histogram(spec["edges"], spec["masses"])
        if kind == "pareto":
            return Pareto(spec["alpha"], spec["xmin"])
        if kind == "mixture":
            return Mixture([(w, from_spec(sub)) for w, sub in spec["parts"]])
    except KeyError as exc:
        raise ValueError(f"distribution spec of type '{kind}' is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad distribution spec of type '{kind}': {exc}") from None
    raise ValueError(f"unknown distribution type '{kind}'")


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
