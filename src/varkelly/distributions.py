"""Payoff distributions and the integral transforms the betting math consumes.

A payoff distribution describes the random win payoff b >= 0 (in b-to-1
odds). Six families are supported: point masses (Dirac), finite atom
sets, uniform intervals, piecewise-constant histograms, Pareto tails,
and mixtures of the above. Every family provides:

* ``mean()``                - the mean payoff E[b],
* ``payoff_transform(f)``   - E[b / (1 + b f)], the integral that the
  optimal-fraction equation is built from,
* ``log_growth_win(f)``     - E[log(1 + b f)], the win-side term of
  the expected log growth,
* ``sample(rng)``           - inverse-transform sampling.

The base class checks 0 <= f < 1 for both transforms, returns E[b] and 0
at f = 0, and bounds every payoff_transform by min(E[b], 1/f); each
family supplies only the kernels ``_transform`` and ``_log_win``.
``_log_win(f)`` takes either a float f, giving one value, or a column of
n checked fractions (an array of shape (n, 1)), giving n values, each
equal bit for bit to the float call at that fraction: Atoms and Histogram
evaluate one numpy expression for both and reduce each row with
``np.vecdot`` (a 2-D ``@`` goes through BLAS gemv, whose sums differ in
the last bits), and Pareto sums its series at each fraction.
``kelly.growth_curve`` passes the column. A Mixture does not sum its
parts' kernels: it opens its nested mixtures once, into one atom set, one
bin set and its weighted Pareto tails, each weight scaled by the weights
around it, and evaluates the atoms' expression once, the bins' once and
each tail's series, through the same functions as Atoms and Histogram.
Every family has closed-form transforms and means: Atoms as finite
sums (Dirac is the one-atom Atoms), Uniform and Histogram as exact
per-bin integrals from one kernel, summed over all bins at once (Uniform
is the one-bin Histogram), and Pareto through one hypergeometric integral that
``quadrature.pareto_integral`` sums to full precision by a convergent
series, with no tolerance: the term count adapts to alpha and c = xmin f.
Each constructor checks that its arguments describe a probability law
on b >= 0 with a finite mean: NaN and infinite parameters, ints beyond
the double range (such as 10**400), negative payoffs, non-positive
weights, unordered edges, masses that do not sum to 1 (within MASS_TOL)
and a mean that overflows the largest double raise ValueError, a Pareto
tail with alpha <= 1 raises InfiniteMeanError, and a parameter that is
not a real number, such as a string or a bool, which float() would
read, raises TypeError. Every instance is therefore valid.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import cached_property

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
    """f as a float in [0, 1): TypeError for a value that is not a real
    number, as ``_require_real`` says, and ValueError for one outside."""
    if not isinstance(f, float):  # the solver's own floats skip the set test
        _require_real("betting fraction", (f,))
    f = _to_float("betting fraction", f)
    if not 0.0 <= f < 1.0:
        raise ValueError(f"betting fraction must lie in [0, 1), got {f}")
    return f


def _check_integer(name: str, value) -> int:
    """``value`` as an int: a Python or numpy int as it is, a float only
    if it is whole. ValueError naming ``name`` for any other number, and
    TypeError for a value that is not a real number."""
    _require_real(name, (value,))
    try:
        return operator.index(value)
    except TypeError:
        number = _to_float(name, value)
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(number)


def _require_real(name: str, values) -> None:
    """Raise TypeError naming ``name`` and the first of ``values``, a
    sequence or an array, that is not a real number (a ``numbers.Real``,
    such as an int, a float or a numpy int or float). A bool or a string is
    not, though float() reads it, "1_5" as 15. Each type is checked once,
    not each value."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return
    bad = {t for t in set(map(type, values)) if issubclass(t, bool) or not issubclass(t, numbers.Real)}
    if bad:
        first = next(v for v in values if type(v) in bad)
        raise TypeError(f"{name} must be a real number, got {first!r}")


def _to_float(name: str, value, convert=float):
    """``convert(value)``, float() by default. Where that raises
    OverflowError, as float() and numpy do for an int beyond the double
    range such as 10**400, raises ValueError naming ``name`` instead."""
    try:
        return convert(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got a number beyond the double range") from None


def _number_text(kind):
    """A reader of number text as ``kind``, float or int, for a CSV cell or
    a command-line flag: ASCII text without "_", and ValueError for any
    other. float() and int() also read Python's digit-group underscores and
    non-ASCII digits, "1_0" and "١٠" as 10. The reader is named after
    ``kind``, so that argparse's error reads "invalid int value: '1_0'"."""

    def read(text: str):
        if not text.isascii() or "_" in text:
            raise ValueError(f"invalid {kind.__name__} text {text!r}")
        return kind(text)

    read.__name__ = kind.__name__
    return read


_float_text, _int_text = _number_text(float), _number_text(int)


def _finite_array(name: str, values) -> np.ndarray:
    """``values``, a sequence or an array of real numbers, as a read-only
    float array. Raises TypeError as ``_require_real`` does, and ValueError
    naming ``name``, and the first NaN or infinite value if there is one,
    for a value that is not finite as a double."""
    _require_real(name, values)
    arr = _to_float(name, values, lambda v: np.array(v, dtype=float))
    _reject_any(name + " must be finite, got {}", arr[~np.isfinite(arr)])
    arr.setflags(write=False)
    return arr


def _reject_any(message: str, bad) -> None:
    """Raise ValueError(message.format(v)) for the first v in ``bad``, if any."""
    for v in bad:
        raise ValueError(message.format(v))


def _require_unit_mass(total: float) -> None:
    total = float(total)
    if abs(total - 1.0) > MASS_TOL:
        raise ValueError(f"mass sums to {total:.12g}, off by {total - 1.0:.3g}")


def _finite_mean(mean) -> float:
    """The mean ``mean()`` of an otherwise valid law; ValueError where it overflows."""
    with np.errstate(over="ignore"):
        value = float(mean())
    if not math.isfinite(value):
        raise ValueError(f"mean payoff overflows to {value}")
    return value


def _bin_kernel(d: np.ndarray) -> np.ndarray:
    """K(d) = (d - log1p(d)) / d^2 for d >= 0, of any shape: the closed form
    where d >= _SERIES_BELOW, else its power series in -d, by Horner's
    steps c - s * m on m = min(d, _SERIES_BELOW), which equal s * (-m) + c
    bit for bit. The closed form divides by d twice, as d * d overflows from
    d = 1.3e154 on."""
    if np.minimum.reduce(d, axis=None) >= _SERIES_BELOW:
        return (d - np.log1p(d)) / d / d
    m = np.minimum(d, _SERIES_BELOW)  # a large d would overflow the powers
    series = _M_SERIES[-2] - _M_SERIES[-1] * m
    for c in _M_SERIES[-3::-1]:
        series = c - series * m
    if np.maximum.reduce(d, axis=None) < _SERIES_BELOW:
        return series
    big = np.maximum(d, _SERIES_BELOW)
    return np.where(d < _SERIES_BELOW, series, (big - np.log1p(big)) / big / big)


# The terms of the two kernels, one function per kind: Atoms, Histogram and
# a Mixture's flattened atom and bin sets all go through these. ``f`` is a
# float, or a column of fractions for _log_win (one value per row).


def _atoms_transform(values, weights, f):
    return weights @ (values / (1.0 + values * f))


def _atoms_log_win(values, weights, f):
    return np.vecdot(np.log1p(values * f), weights)


def _bins_transform(left, width, _right, masses, f):
    u = 1.0 + left * f
    d = width * f / u
    return masses @ (left / u + width / u / u * _bin_kernel(d))


def _bins_log_win(left, width, right, masses, f):
    d = width * f / (1.0 + left * f)
    return np.vecdot(np.log1p(right * f) - d * _bin_kernel(d), masses)


class _Guide:
    """Inverse transform over categories by a guide table (Chen & Asau,
    1974; Devroye, Non-Uniform Random Variate Generation, 1986, III.2.4).

    ``pick(u)`` is ``np.searchsorted(cum[:-1], u, side="right")`` for the
    nondecreasing cumulative masses ``cum``: the index of the category each
    uniform falls in, the last one taking a u at or above ``cum[-1]``, as
    when the masses sum to a little below 1. [0, 1) is cut into 2**m >= 16 n
    equal cells, and ``_start[j]`` is the index of the cell's left end j /
    2**m. A u below the first boundary above that end (``_next[_start[j]]``)
    takes ``_start[j]``; any other u, in at most (n - 1) / 2**m <= 1/16 of
    [0, 1), takes the search. u * 2**m is exact, so every u gets the
    search's index, in O(1) expected time however the boundaries cluster.
    """

    def __init__(self, cum: np.ndarray):
        self.cum = cum
        self._bounds = cum[:-1]
        self._scale = float(1 << (16 * len(cum) - 1).bit_length())
        self._start = np.searchsorted(self._bounds, np.arange(self._scale) / self._scale, side="right")
        self._next = np.append(self._bounds, np.inf)

    def pick(self, u):
        """The category of each uniform in ``u``, an array or a float in [0, 1)."""
        x = np.atleast_1d(u)
        idx = self._start.take((x * self._scale).astype(np.intp))
        past = x >= self._next.take(idx)
        if past.any():
            idx[past] = self._bounds.searchsorted(x[past], side="right")
        return idx if np.ndim(u) else idx[0]


class PayoffDistribution:
    """Base class for payoff distributions. Instances are immutable."""

    def mean(self) -> float:
        """Expected payoff, finite: each constructor computes it once."""
        return self._mean

    def payoff_transform(self, f: float) -> float:
        """E[b / (1 + b f)] for 0 <= f < 1. Equals mean() at f = 0 and is
        strictly decreasing in f whenever b is not identically zero."""
        f = _check_fraction(f)
        if f == 0.0:
            return self._mean
        # Rounding carries some kernels a few ulps past a bound: Pareto where xmin f
        # is tiny or huge, Histogram bins from 1e20 wide, weights MASS_TOL above 1.
        return min(self._transform(f), self._mean, 1.0 / f)

    def log_growth_win(self, f: float) -> float:
        """E[log(1 + b f)] for 0 <= f < 1. Zero at f = 0, nondecreasing in f."""
        f = _check_fraction(f)
        return float(self._log_win(f)) if f > 0.0 else 0.0

    # Most uniforms one draw reads: Dirac none, a one-value Atoms one, a
    # Mixture one for the choice of part plus what that part reads. The
    # Monte Carlo engine (montecarlo._win_logs) sizes each path's row of
    # uniforms by it and counts how many each row actually read.
    _max_uniforms = 1
    # Mixtures nested inside one another: 0 for any other law.
    _depth = 0
    # Terms that ``_log_win`` sums for each fraction: the atoms or bins, one
    # for Pareto's series, the parts' sum for a Mixture. kelly.growth_curve
    # sizes its blocks of fractions by it.
    _terms = 1

    def _from_uniforms(self, u):
        """Inverse transform: one payoff per uniform in ``u`` (an array, or a
        float for a float ``u``). ``sample`` and the batched draws of
        ``montecarlo._win_logs`` both go through it, and Atoms, Histogram
        and Mixture pick atoms, bins and parts with the same ``_guide``, so
        the batched draws are those of ``sample``."""
        raise NotImplementedError

    def sample(self, rng, size: int | None = None):
        """Draw payoffs using ``rng.random()`` uniforms (inverse transform).

        Returns a float when ``size`` is None, else an ndarray of shape
        (size,). Deterministic given the generator state.
        """
        out = self._from_uniforms(rng.random(size))
        return float(out) if size is None else out

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
        pts = [(b, w) for b, w in points]
        if not pts:
            raise ValueError("at least one atom is required")
        self.values = _finite_array("atom value", [b for b, _ in pts])
        self.weights = _finite_array("atom weight", [w for _, w in pts])
        _reject_any("atom value {:.12g} is negative", self.values[self.values < 0])
        _reject_any("atom weight {:.12g} is not positive", self.weights[self.weights <= 0])
        _require_unit_mass(self.weights.sum())
        self._mean = _finite_mean(lambda: self.weights @ self.values)
        self._terms = len(self.weights)

    def _transform(self, f):
        return float(_atoms_transform(self.values, self.weights, f))

    def _log_win(self, f):
        return _atoms_log_win(self.values, self.weights, f)

    @cached_property
    def _guide(self) -> _Guide:
        return _Guide(np.cumsum(self.weights))

    def _from_uniforms(self, u):
        return self.values[self._guide.pick(u)]

    def to_spec(self) -> dict:
        return {"type": "atoms", "points": [[float(b), float(w)] for b, w in zip(self.values, self.weights)]}


class Dirac(Atoms):
    """Point mass: the payoff is the constant b. The one-atom Atoms, whose draws read no uniforms."""

    def __init__(self, b: float):
        self.b = float(_finite_array("payoff", (b,))[0])
        if self.b < 0:
            raise ValueError(f"payoff {self.b:.12g} is negative")
        super().__init__([(self.b, 1.0)])

    _max_uniforms = 0

    def sample(self, rng, size=None):
        return self.b if size is None else np.full(size, self.b)

    def to_spec(self) -> dict:
        return {"type": "dirac", "b": self.b}


class Histogram(PayoffDistribution):
    """Piecewise-constant density: bin edges plus one probability mass per bin.

    Transforms and the mean are exact per-bin integrals, summed over all
    bins in one numpy expression. With left edge a, right edge B, width
    w = B - a, u = 1 + a f, d = w f / u and K(d) = (d - log1p(d)) / d^2,
    the mean over the bin [a, B] of

        b / (1 + b f)    is  a / u + (w / u^2) K(d),
        log(1 + b f)     is  log1p(B f) - d K(d)   (as 1 + B f = u (1 + d)).
    """

    def __init__(self, edges, masses):
        self.edges = _finite_array("bin edge", edges)
        self.masses = _finite_array("bin mass", masses)
        if len(self.edges) != len(self.masses) + 1:
            raise ValueError(
                f"need len(edges) == len(masses) + 1, got {len(self.edges)} edges "
                f"for {len(self.masses)} masses"
            )
        if len(self.masses) == 0:
            raise ValueError("at least one bin is required")
        if self.edges[0] < 0:
            raise ValueError(f"bin edge {self.edges[0]:.12g} is negative")
        if not (self.edges[1:] > self.edges[:-1]).all():
            raise ValueError("bin edges are not strictly increasing")
        _reject_any("bin mass {:.12g} is negative", self.masses[self.masses < 0])
        _require_unit_mass(self.masses.sum())
        self._left = self.edges[:-1]
        self._width = self.edges[1:] - self.edges[:-1]
        self._mean = _finite_mean(lambda: self.masses @ (self._left + 0.5 * self._width))
        self._terms = len(self.masses)
        self._bins = (self._left, self._width, self.edges[1:], self.masses)

    def _transform(self, f):
        return float(_bins_transform(*self._bins, f))

    def _log_win(self, f):
        return _bins_log_win(*self._bins, f)

    @cached_property
    def _guide(self) -> _Guide:
        return _Guide(np.cumsum(self.masses))

    def _from_uniforms(self, u):
        cum = self._guide.cum
        u = np.asarray(u)
        idx = self._guide.pick(u)
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

    Checks, mean, transforms and draws are Histogram's; for one bin
    its inverse transform is lo + u * (hi - lo).
    """

    def __init__(self, lo: float, hi: float):
        super().__init__([lo, hi], [1.0])
        self.lo, self.hi = self.edges.tolist()

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
        self.alpha, self.xmin = _finite_array("Pareto parameter", (alpha, xmin)).tolist()
        if self.xmin <= 0:
            raise ValueError(f"scale xmin = {self.xmin:.12g} is not positive")
        if self.alpha <= 1:
            raise InfiniteMeanError(f"infinite mean, alpha = {self.alpha:.12g} <= 1")
        scale = self.alpha * self.xmin  # may overflow where the mean does not
        mean = scale / (self.alpha - 1.0) if math.isfinite(scale) else self.xmin * (self.alpha / (self.alpha - 1.0))
        self._mean = _finite_mean(lambda: mean)

    def _transform(self, f):
        c = self.xmin * f
        scale = self.alpha * self.xmin
        if math.isfinite(scale):
            return scale * quadrature.pareto_integral(self.alpha, c)
        # xmin enters I(c) before its last division: I(c) ~ 1/(alpha c)
        # is subnormal once alpha c passes 4.5e307, here from f ~ 1/4.
        return self.alpha * quadrature.pareto_integral(self.alpha, c, self.xmin)

    def _log_win(self, f):
        if isinstance(f, np.ndarray):  # a column: the series at each fraction
            return np.array([self._log_win(x) for x in f.ravel().tolist()])
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
    """Convex combination of component distributions, nested at most
    MAX_NESTING deep. Draws go through ``parts``; transforms through the
    flattened atom set, bin set and tails of ``_flat``."""

    def __init__(self, parts):
        parts = [(w, dist) for w, dist in parts]
        if not parts:
            raise ValueError("at least one mixture component is required")
        for _, dist in parts:
            if not isinstance(dist, PayoffDistribution):
                raise TypeError(f"mixture component {dist!r} is not a PayoffDistribution")
        self._depth = 1 + max(dist._depth for _, dist in parts)
        if self._depth > MAX_NESTING:
            raise ValueError(_TOO_DEEP)
        self._max_uniforms = 1 + max(dist._max_uniforms for _, dist in parts)
        self._terms = sum(dist._terms for _, dist in parts)
        weights = _finite_array("mixture weight", [w for w, _ in parts]).tolist()
        _reject_any("mixture weight {:.12g} is not positive", [w for w in weights if w <= 0])
        _require_unit_mass(sum(weights))
        self.parts = tuple(zip(weights, (dist for _, dist in parts)))
        self._mean = _finite_mean(lambda: sum(w * dist.mean() for w, dist in self.parts))

    @cached_property
    def _flat(self):
        """The parts, nested mixtures opened, as one atom set (values,
        weights), one bin set (left edges, widths, right edges, masses), each
        None where no part has any, and the Pareto tails as (weight, tail)
        pairs; every weight and mass is scaled by the weights around it."""
        atoms, bins, tails = [], [], []

        def visit(scale, dist):
            if isinstance(dist, Mixture):
                for w, part in dist.parts:
                    visit(scale * w, part)
            elif isinstance(dist, Atoms):
                atoms.append((dist.values, scale * dist.weights))
            elif isinstance(dist, Histogram):
                left, width, right, masses = dist._bins
                bins.append((left, width, right, scale * masses))
            else:
                tails.append((scale, dist))

        visit(1.0, self)
        # Each column of the atom sets, and of the bin sets, as one array.
        atoms, bins = (tuple(map(np.concatenate, zip(*sets))) if sets else None for sets in (atoms, bins))
        return atoms, bins, tails

    def _flat_sum(self, f, atoms_terms, bins_terms, tail_kernel):
        """The atom set's sum at f, plus the bin set's, plus each weighted tail's kernel."""
        atoms, bins, tails = self._flat
        total = atoms_terms(*atoms, f) if atoms else 0.0
        if bins:
            total = total + bins_terms(*bins, f)
        for w, tail in tails:
            total = total + w * tail_kernel(tail, f)
        return total

    def _transform(self, f):
        return float(self._flat_sum(f, _atoms_transform, _bins_transform, Pareto._transform))

    def _log_win(self, f):
        return self._flat_sum(f, _atoms_log_win, _bins_log_win, Pareto._log_win)

    @cached_property
    def _guide(self) -> _Guide:
        """Picks the part that each uniform chooses."""
        return _Guide(np.cumsum([w for w, _ in self.parts]))

    def sample(self, rng, size=None):
        if size is None:
            return self.parts[int(self._guide.pick(rng.random()))][1].sample(rng)
        idx = self._guide.pick(rng.random(size))
        out = np.empty(size)
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


# Deepest nesting of mixtures; simulate takes 3 of Python's 1000 default frames a level.
MAX_NESTING = 100
_TOO_DEEP = f"distribution spec is nested too deeply: more than {MAX_NESTING} mixtures"


class _SpecError(ValueError):
    """A rejected spec, described once: the mixtures around it pass it on."""


def from_spec(spec: dict) -> PayoffDistribution:
    """Build a distribution from its tagged JSON representation.

    Accepted forms::

        {"type": "dirac", "b": 1.0}
        {"type": "atoms", "points": [[b, w], ...]}
        {"type": "uniform", "lo": x, "hi": y}
        {"type": "histogram", "edges": [...], "masses": [...]}
        {"type": "pareto", "alpha": a, "xmin": x}
        {"type": "mixture", "parts": [[w, <spec>], ...]}

    Raises ValueError for unknown tags, missing fields, non-finite values,
    numbers given as strings or booleans, mixtures nested more than
    MAX_NESTING deep and any other argument a constructor rejects, and
    InfiniteMeanError for a Pareto tail with alpha <= 1, at any depth of
    nesting.
    """
    return _from_spec(spec, 0)


def _from_spec(spec, depth: int) -> PayoffDistribution:
    if not isinstance(spec, dict):
        raise _SpecError(f"distribution spec must be a JSON object, got {type(spec).__name__}")
    try:
        tag = spec["type"]
    except KeyError:
        raise _SpecError("distribution spec is missing the 'type' tag") from None
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
            # Mixture checks its depth too, but only once its parts are built.
            if depth == MAX_NESTING:
                raise _SpecError(_TOO_DEEP)
            return Mixture([(w, _from_spec(sub, depth + 1)) for w, sub in spec["parts"]])
    except _SpecError:
        raise
    except KeyError as exc:
        raise _SpecError(f"distribution spec of type '{tag}' is missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise _SpecError(f"bad distribution spec of type '{tag}': {exc}") from None
    raise _SpecError(f"unknown distribution type '{tag}'")
