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
* ``sample(rng)``             - inverse-transform sampling.

Every family has closed-form transforms and moments: Atoms as finite
sums (Dirac is the one-atom Atoms), Uniform and Histogram as exact
per-bin integrals from one kernel, summed over all bins at once (Uniform
is the one-bin Histogram), and Pareto through one hypergeometric integral that
``quadrature.pareto_integral`` sums to full precision by a convergent
series, with no tolerance.
Each constructor checks that its arguments describe a probability law
on b >= 0 with a finite mean: NaN and infinite parameters, negative
payoffs, non-positive weights, unordered edges, masses that do not sum
to 1 (within MASS_TOL) and a mean that overflows the largest double
raise ValueError, and a Pareto tail with alpha <= 1 raises
InfiniteMeanError. Every instance is therefore valid.
"""

from __future__ import annotations

import math

import numpy as np

from . import quadrature
from .errors import InfiniteMeanError

# Tolerance for "probability masses sum to 1" checks.
MASS_TOL = 1e-12

# Below this value of d = w f / (1 + a f), the closed form of the per-bin
# kernel K(d) loses its precision to cancellation in d - log1p(d), and its
# power series takes over; at the switch both are accurate to about 1e-14.
_SERIES_BELOW = 1e-2
# Coefficients c_k of K(d) = sum_k c_k (-d)^k = 1/2 - d/3 + d^2/4 - ...,
# to eight terms (the first dropped term is below 1e-17 at the switch).
_M_SERIES = tuple(1.0 / (k + 2) for k in range(8))


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


def _reject_any(message: str, bad) -> None:
    """Raise ValueError(message.format(v)) for the first v in ``bad``, if any."""
    for v in bad:
        raise ValueError(message.format(v))


def _require_unit_mass(total: float) -> None:
    total = float(total)
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"mass sums to {total:.12g}, off by {total - 1.0:.3g}")


def _require_finite_mean(dist: PayoffDistribution) -> None:
    """Raise ValueError where the mean of an otherwise valid law overflows."""
    with np.errstate(over="ignore"):
        mean = dist.mean()
    if not math.isfinite(mean):
        raise ValueError(f"mean payoff overflows to {mean}")


def _bin_kernel(d: np.ndarray) -> np.ndarray:
    """K(d) = (d - log1p(d)) / d^2 for d >= 0: the closed form where
    d >= _SERIES_BELOW, else its power series in -d. The closed form
    divides by d twice, as d * d overflows from d = 1.3e154 on."""
    small = d < _SERIES_BELOW
    if not small.any():
        return (d - np.log1p(d)) / d / d
    x = -np.minimum(d, _SERIES_BELOW)  # a large d would overflow the powers
    series = np.full_like(d, _M_SERIES[-1])
    for c in _M_SERIES[-2::-1]:
        series = series * x + c
    if small.all():
        return series
    return np.where(small, series, _bin_kernel(np.maximum(d, _SERIES_BELOW)))


def _segments(u: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``u[r, start[r] : start[r] + count[r]]`` of every row r of the
    C-contiguous matrix ``u``, concatenated."""
    total = int(count.sum())
    first = np.cumsum(count) - count
    shift = np.arange(len(count)) * u.shape[1] + start - first
    return u.ravel().take(np.arange(total) + np.repeat(shift, count))


def _zero_led(values: np.ndarray, count: np.ndarray):
    """``values`` with a 0 put in front of each row's run, where row r
    holds the next ``count[r]`` entries, and the index of each row's 0.

    ``np.add.reduceat`` over these heads sums each row's run as numpy's
    1-D ``.sum()`` does: a reduceat segment starts from its first element
    where ``.sum()`` starts from 0, so the leading zero gives both the same
    bits. A row without entries becomes the segment [0], not an empty one,
    which reduceat would fill with the next element.
    """
    first = np.cumsum(count) - count
    return np.insert(values, first, 0), first + np.arange(len(count))


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


def _pick(cum: np.ndarray, u):
    """Index of the category each uniform in ``u`` falls in, for the
    nondecreasing cumulative masses ``cum``. The last entry is not searched,
    so a u at or above it, as when the masses sum to a little below 1,
    picks the last category."""
    return np.searchsorted(cum[:-1], u, side="right")


class PayoffDistribution:
    """Base class for payoff distributions. Instances are immutable."""

    def mean(self) -> float:
        """Expected payoff, finite for every instance."""
        raise NotImplementedError

    def variance(self) -> float:
        """Payoff variance; may be math.inf (e.g. Pareto with alpha <= 2)."""
        raise NotImplementedError

    def payoff_transform(self, f: float) -> float:
        """E[b / (1 + b f)] for 0 <= f < 1. Equals mean() at f = 0 and is
        strictly decreasing in f whenever b is not identically zero."""
        raise NotImplementedError

    def log_growth_win(self, f: float) -> float:
        """E[log(1 + b f)] for 0 <= f < 1. Zero at f = 0, nondecreasing in f."""
        raise NotImplementedError

    # Most uniforms one draw reads: Dirac none, a one-value Atoms one, a
    # Mixture one for the choice of part plus what that part reads. The
    # Monte Carlo engine sizes each path's row of uniforms by it;
    # _win_logs reports how many each row actually read.
    _max_uniforms = 1

    def _from_uniforms(self, u):
        """Inverse transform: one payoff per uniform in ``u`` (an array, or a
        float for a float ``u``). ``sample`` and the default ``_win_logs``
        both go through it, and Atoms and Mixture pick atoms and parts with
        the same ``_pick``, so the batched draws are those of ``sample``."""
        raise NotImplementedError

    def sample(self, rng, size: int | None = None):
        """Draw payoffs using ``rng.random()`` uniforms (inverse transform).

        Returns a float when ``size`` is None, else an ndarray of shape
        (size,). Deterministic given the generator state.
        """
        out = self._from_uniforms(rng.random(size))
        return float(out) if size is None else out

    def _win_logs(self, u: np.ndarray, start: np.ndarray, count: np.ndarray, fs):
        """Batched win side of the Monte Carlo log-wealth: ``count[r]``
        payoffs b drawn from row r of the uniform matrix ``u``, read from
        column ``start[r]`` on in the order in which ``sample`` reads its
        stream. Returns the sums of log1p(f b) over each row's draws for
        every f in ``fs``, shape (len(fs), rows), and the number of
        uniforms each row read.

        By default every payoff is drawn and one zero-led
        ``np.add.reduceat`` per fraction sums each row's logs (see
        ``_zero_led``).
        """
        led, heads = _zero_led(self._from_uniforms(_segments(u, start, count)), count)
        sums = np.empty((len(fs), len(count)))
        # One buffer for all fractions: fresh temporaries page-fault on long rows.
        logs = np.empty_like(led)
        for j, f in enumerate(fs):
            np.log1p(np.multiply(f, led, out=logs), out=logs)
            sums[j] = np.add.reduceat(logs, heads)
        return sums, count

    def to_spec(self) -> dict:
        """JSON-ready tagged representation (see from_spec)."""
        raise NotImplementedError

    def __eq__(self, other):
        """Equal when of the same class with the same spec. Instances are
        unhashable."""
        return type(other) is type(self) and other.to_spec() == self.to_spec()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.to_spec()})"


class Atoms(PayoffDistribution):
    """Finite discrete distribution: payoff values with probability masses."""

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
        _reject_any("atom value {:.12g} is negative", self.values[self.values < 0])
        _reject_any("atom weight {:.12g} is not positive", self.weights[self.weights <= 0])
        _require_unit_mass(self.weights.sum())
        _require_finite_mean(self)

    def mean(self) -> float:
        return float(self.weights @ self.values)

    def variance(self) -> float:
        dev = self.values - self.mean()
        # (w * dev) * dev overflows only where its term does, so an inf
        # here is a variance past the largest double.
        with np.errstate(over="ignore"):
            return float((self.weights * dev) @ dev)

    def payoff_transform(self, f):
        f = _check_fraction(f)
        return float(self.weights @ (self.values / (1.0 + self.values * f)))

    def log_growth_win(self, f):
        f = _check_fraction(f)
        return float(self.weights @ np.log1p(self.values * f))

    def _from_uniforms(self, u):
        return self.values[_pick(np.cumsum(self.weights), u)]

    def _win_logs(self, u, start, count, fs):
        # A row's sum depends only on how many of its draws took each
        # atom: one term count_i * log1p(b_i f) per atom that the row drew,
        # in index order, summed as the default sums its per-draw terms.
        # Each log is numpy's log1p of b_i * f, the term of every such draw.
        # Only the (row, atom) pairs that occur get a term, so the cost
        # grows with the wins, not with rows times atoms.
        logs = np.log1p(np.multiply.outer(fs, self.values))
        if len(self.values) == 1:
            # One term per row: 0 + t is t.
            return count * logs, count * self._max_uniforms
        n = len(self.values)
        idx = _pick(np.cumsum(self.weights), _segments(u, start, count))
        keys, times = _counts_per_row(idx, count, n)
        rows, atom = np.divmod(keys, n)
        per_row = np.bincount(rows, minlength=len(count))
        atom, heads = _zero_led(atom, per_row)
        times = _zero_led(times.astype(float), per_row)[0]
        sums = np.empty((len(fs), len(count)))
        terms = np.empty(len(atom))
        for j in range(len(fs)):
            np.multiply(times, logs[j].take(atom, out=terms), out=terms)
            sums[j] = np.add.reduceat(terms, heads)
        return sums, count

    def to_spec(self) -> dict:
        return {"type": "atoms", "points": [[float(b), float(w)] for b, w in zip(self.values, self.weights)]}


class Dirac(Atoms):
    """Point mass: the payoff is the constant b. The one-atom Atoms, whose draws read no uniforms."""

    def __init__(self, b: float):
        self.b = float(b)
        _require_finite("payoff", (self.b,))
        if self.b < 0:
            raise ValueError(f"payoff {self.b:.12g} is negative")
        super().__init__([(self.b, 1.0)])

    _max_uniforms = 0

    def sample(self, rng, size=None):
        return self.b if size is None else np.full(int(size), self.b)

    def to_spec(self) -> dict:
        return {"type": "dirac", "b": self.b}


class Histogram(PayoffDistribution):
    """Piecewise-constant density: bin edges plus one probability mass per bin.

    Transforms and moments are exact per-bin integrals, summed over all
    bins in one numpy expression. With left edge a, right edge B, width
    w = B - a, u = 1 + a f, d = w f / u and K(d) = (d - log1p(d)) / d^2,
    the mean over the bin [a, B] of

        b / (1 + b f)    is  a / u + (w / u^2) K(d),
        log(1 + b f)     is  log1p(B f) - d K(d)   (as 1 + B f = u (1 + d)).
    """

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
        if self.edges[0] < 0:
            raise ValueError(f"bin edge {self.edges[0]:.12g} is negative")
        if not (self.edges[1:] > self.edges[:-1]).all():
            raise ValueError("bin edges are not strictly increasing")
        _reject_any("bin mass {:.12g} is negative", self.masses[self.masses < 0])
        _require_unit_mass(self.masses.sum())
        self._left = self.edges[:-1]
        self._width = self.edges[1:] - self.edges[:-1]
        _require_finite_mean(self)

    def mean(self) -> float:
        return float(self.masses @ (self._left + 0.5 * self._width))

    def variance(self) -> float:
        dev = self._left + 0.5 * self._width - self.mean()
        with np.errstate(over="ignore"):
            return float((self.masses * dev) @ dev + (self.masses * self._width / 12.0) @ self._width)

    def payoff_transform(self, f):
        f = _check_fraction(f)
        u = 1.0 + self._left * f
        d = self._width * f / u
        value = float(self.masses @ (self._left / u + self._width / u / u * _bin_kernel(d)))
        # 1/f bounds b / (1 + b f). Bins from about 1e20 wide put the sum
        # within an ulp of it, and rounding can carry the sum past it; past
        # 4.5e307, where K(d) ~ 1/d is subnormal, by up to 3 ulps.
        return min(value, 1.0 / f) if f > 0.0 else value

    def log_growth_win(self, f):
        f = _check_fraction(f)
        d = self._width * f / (1.0 + self._left * f)
        return float(self.masses @ (np.log1p(self.edges[1:] * f) - d * _bin_kernel(d)))

    def _from_uniforms(self, u):
        cum = np.cumsum(self.masses)
        u = np.asarray(u)
        idx = _pick(cum, u)
        below = np.where(idx > 0, cum[idx - 1], 0.0)
        mass = self.masses[idx]
        frac = np.divide(u - below, mass, out=np.zeros_like(u), where=mass > 0)
        # A total mass a little below 1 leaves u >= cum[-1] in the last bin,
        # where frac would pass 1 and the draw the top edge.
        frac = np.minimum(frac, 1.0)
        return self.edges[idx] + frac * (self.edges[idx + 1] - self.edges[idx])

    def to_spec(self) -> dict:
        return {
            "type": "histogram",
            "edges": [float(e) for e in self.edges],
            "masses": [float(m) for m in self.masses],
        }


class Uniform(Histogram):
    """Uniform density on [lo, hi]: the one-bin Histogram.

    Checks, moments, transforms and draws are Histogram's; for one bin
    its inverse transform is lo + u * (hi - lo).
    """

    def __init__(self, lo: float, hi: float):
        self.lo = float(lo)
        self.hi = float(hi)
        super().__init__([self.lo, self.hi], [1.0])

    def to_spec(self) -> dict:
        return {"type": "uniform", "lo": self.lo, "hi": self.hi}


class Pareto(PayoffDistribution):
    """Power-law tail: density alpha * xmin^alpha / b^(alpha+1) on [xmin, inf).

    The mean is finite only for alpha > 1, which the constructor enforces.

    The substitution u = xmin / b maps [xmin, inf) onto (0, 1] and the
    density onto alpha * u^(alpha-1) du, so with c = xmin f both transforms
    are closed forms in I(c) = int_0^1 u^(alpha-1) / (u + c) du
    (``quadrature.pareto_integral``):

        E[b / (1 + b f)]  =  alpha * xmin * I(c),
        E[log(1 + b f)]   =  log1p(c) + c * I(c)   (by parts).
    """

    def __init__(self, alpha: float, xmin: float):
        self.alpha = float(alpha)
        self.xmin = float(xmin)
        _require_finite("Pareto parameter", (self.alpha, self.xmin))
        if self.xmin <= 0:
            raise ValueError(f"scale xmin = {self.xmin:.12g} is not positive")
        if self.alpha <= 1:
            raise InfiniteMeanError(f"infinite mean, alpha = {self.alpha:.12g} <= 1")
        _require_finite_mean(self)

    def mean(self) -> float:
        scale = self.alpha * self.xmin
        if math.isinf(scale):  # the mean itself may still be finite
            return self.xmin * (self.alpha / (self.alpha - 1.0))
        return scale / (self.alpha - 1.0)

    def variance(self) -> float:
        if self.alpha <= 2:
            return math.inf
        # alpha xmin^2 / ((alpha - 1)^2 (alpha - 2)): E[b^2] - E[b]^2
        # cancels for large alpha and overflows for large xmin.
        scale = self.xmin / (self.alpha - 1.0)
        return scale * scale * (self.alpha / (self.alpha - 2.0))

    def payoff_transform(self, f):
        f = _check_fraction(f)
        if f == 0.0:
            return self.mean()
        c = self.xmin * f
        scale = self.alpha * self.xmin
        if math.isfinite(scale):
            value = scale * quadrature.pareto_integral(self.alpha, c)
        else:
            # xmin enters I(c) before its last division: I(c) ~ 1/(alpha c)
            # is subnormal once alpha c passes 4.5e307, here from f ~ 1/4.
            value = self.alpha * quadrature.pareto_integral(self.alpha, c, self.xmin)
        # The product can round an ulp above either bound of b / (1 + b f):
        # mean() where xmin * f is below rounding, 1/f where it is large.
        return min(value, self.mean(), 1.0 / f)

    def log_growth_win(self, f):
        f = _check_fraction(f)
        c = self.xmin * f
        return math.log1p(c) + c * quadrature.pareto_integral(self.alpha, c)

    def _from_uniforms(self, u):
        # Inverse transform u -> xmin * u^(-1/alpha); clamp away the
        # measure-zero u = 0 draw that would map to infinity, and a draw
        # past the largest double to it.
        u = np.maximum(np.asarray(u), np.finfo(float).tiny)
        with np.errstate(over="ignore"):
            return np.minimum(self.xmin * u ** (-1.0 / self.alpha), np.finfo(float).max)

    def to_spec(self) -> dict:
        return {"type": "pareto", "alpha": self.alpha, "xmin": self.xmin}


class Mixture(PayoffDistribution):
    """Convex combination of component distributions."""

    def __init__(self, parts):
        parts = [(float(w), dist) for w, dist in parts]
        if not parts:
            raise ValueError("at least one mixture component is required")
        for _, dist in parts:
            if not isinstance(dist, PayoffDistribution):
                raise TypeError(f"mixture component {dist!r} is not a PayoffDistribution")
        weights = [w for w, _ in parts]
        _require_finite("mixture weight", weights)
        _reject_any("mixture weight {:.12g} is not positive", [w for w in weights if w <= 0])
        _require_unit_mass(sum(weights))
        self.parts = tuple(parts)
        _require_finite_mean(self)

    def mean(self) -> float:
        return sum(w * dist.mean() for w, dist in self.parts)

    def variance(self) -> float:
        # The law of total variance: a sum of nonnegative terms, none of
        # which squares a mean.
        m = self.mean()
        total = 0.0
        for w, dist in self.parts:
            dev = dist.mean() - m
            total += w * dist.variance() + w * dev * dev
        return total

    def payoff_transform(self, f):
        f = _check_fraction(f)
        return sum(w * dist.payoff_transform(f) for w, dist in self.parts)

    def log_growth_win(self, f):
        f = _check_fraction(f)
        return sum(w * dist.log_growth_win(f) for w, dist in self.parts)

    @property
    def _max_uniforms(self) -> int:
        return 1 + max(dist._max_uniforms for _, dist in self.parts)

    def _choose(self, u):
        """Index of the part that each uniform in ``u`` chooses."""
        return _pick(np.cumsum([w for w, _ in self.parts]), u)

    def sample(self, rng, size=None):
        if size is None:
            return self.parts[int(self._choose(rng.random()))][1].sample(rng)
        idx = self._choose(rng.random(int(size)))
        out = np.empty(int(size))
        # Components are visited in fixed order so the draw sequence is
        # reproducible regardless of which indices each one fills.
        for i, (_, dist) in enumerate(self.parts):
            mask = idx == i
            count = int(mask.sum())
            if count:
                out[mask] = dist.sample(rng, count)
        return out

    def _win_logs(self, u, start, count, fs):
        # One choice uniform per draw, then each part's uniforms in part
        # order, as sample() reads them; the parts' sums are added in part
        # order too.
        idx = self._choose(_segments(u, start, count))
        # chosen[r, i]: how many of row r's draws chose part i.
        keys, times = _counts_per_row(idx, count, len(self.parts))
        chosen = np.zeros(len(count) * len(self.parts), dtype=np.int64)
        chosen[keys] = times
        chosen = chosen.reshape(-1, len(self.parts))
        sums = np.zeros((len(fs), len(count)))
        used = count.copy()
        for i, (_, dist) in enumerate(self.parts):
            part_sums, read = dist._win_logs(u, start + used, chosen[:, i], fs)
            sums += part_sums
            used += read
        return sums, used

    def to_spec(self) -> dict:
        return {"type": "mixture", "parts": [[float(w), d.to_spec()] for w, d in self.parts]}


def from_spec(spec: dict) -> PayoffDistribution:
    """Build a distribution from its tagged JSON representation.

    Accepted forms::

        {"type": "dirac", "b": 1.0}
        {"type": "atoms", "points": [[b, w], ...]}
        {"type": "uniform", "lo": x, "hi": y}
        {"type": "histogram", "edges": [...], "masses": [...]}
        {"type": "pareto", "alpha": a, "xmin": x}
        {"type": "mixture", "parts": [[w, <spec>], ...]}

    Raises ValueError for unknown tags, missing fields, non-finite values
    and any other argument a constructor rejects, and InfiniteMeanError
    for a Pareto tail with alpha <= 1, at any depth of nesting.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a JSON object, got {type(spec).__name__}")
    try:
        tag = spec["type"]
    except KeyError:
        raise ValueError("distribution spec is missing the 'type' tag") from None
    try:
        if tag == "dirac":
            return Dirac(spec["b"])
        if tag == "atoms":
            return Atoms(spec["points"])
        if tag == "uniform":
            return Uniform(spec["lo"], spec["hi"])
        if tag == "histogram":
            return Histogram(spec["edges"], spec["masses"])
        if tag == "pareto":
            return Pareto(spec["alpha"], spec["xmin"])
        if tag == "mixture":
            return Mixture([(w, from_spec(sub)) for w, sub in spec["parts"]])
    except KeyError as exc:
        raise ValueError(f"distribution spec of type '{tag}' is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad distribution spec of type '{tag}': {exc}") from None
    raise ValueError(f"unknown distribution type '{tag}'")
