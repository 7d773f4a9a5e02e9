"""Independent reference values for the benchmark's correctness checks.

Nothing here imports varkelly or follows its numerical route. The payoff
transform E[b / (1 + b f)] comes from exact sums (Dirac, Atoms), per-bin
closed forms (Uniform, Histogram), the Gauss hypergeometric closed form
(Pareto, evaluated by mpmath) and weighted sums (Mixture). The optimal
fraction is the root of p E[b / (1 + b f)] = (1 - p) / (1 - f), found by
scipy's Brent method to a relative tolerance of 1e-14; for a point-mass
payoff it is the exact rational (p (1 + b) - 1) / b.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.optimize import brentq

MP_DIGITS = 30
ROOT_RTOL = 1e-14
# Below this value of d = w f / (1 + a f) a bin's closed form cancels, so
# log1p(d) is replaced by its series.
SERIES_BELOW = 1e-3


def mean(spec: dict) -> float:
    kind = spec["type"]
    if kind == "dirac":
        return float(spec["b"])
    if kind == "atoms":
        return math.fsum(b * w for b, w in spec["points"])
    if kind == "uniform":
        return 0.5 * (spec["lo"] + spec["hi"])
    if kind == "histogram":
        e, m = spec["edges"], spec["masses"]
        return math.fsum(m[i] * 0.5 * (e[i] + e[i + 1]) for i in range(len(m)))
    if kind == "pareto":
        return spec["alpha"] * spec["xmin"] / (spec["alpha"] - 1.0)
    if kind == "mixture":
        return math.fsum(w * mean(sub) for w, sub in spec["parts"])
    raise ValueError(f"unknown spec type {kind!r}")


def _bins_transform(edges, masses, f: float) -> float:
    """Sum over bins of (mass / width) * integral of x / (1 + x f) over the bin."""
    e = np.asarray(edges, dtype=float)
    m = np.asarray(masses, dtype=float)
    a, w = e[:-1], np.diff(e)
    d = w * f / (1.0 + a * f)
    # integral = (w - log1p(d) / f) / f; w - d / f = w a f / (1 + a f) exactly.
    small = d < SERIES_BELOW
    ds = np.where(small, d, 0.0)
    series = (w * a * f / (1.0 + a * f) + (ds**2 / 2 - ds**3 / 3 + ds**4 / 4 - ds**5 / 5 + ds**6 / 6) / f) / f
    direct = (w - np.log1p(d) / f) / f
    integral = np.where(small, series, direct)
    return math.fsum((m / w * integral).tolist())


def _pareto_hyp(alpha: float, c):
    """2F1(1, alpha; alpha + 1; -1 / c) at MP_DIGITS digits."""
    return mpmath.hyp2f1(1, alpha, alpha + 1, -1 / c)


def transform(spec: dict, f: float) -> float:
    """E[b / (1 + b f)] for 0 <= f < 1."""
    if f == 0.0:
        return mean(spec)
    kind = spec["type"]
    if kind == "dirac":
        return spec["b"] / (1.0 + spec["b"] * f)
    if kind == "atoms":
        return math.fsum(w * b / (1.0 + b * f) for b, w in spec["points"])
    if kind == "uniform":
        return _bins_transform([spec["lo"], spec["hi"]], [1.0], f)
    if kind == "histogram":
        return _bins_transform(spec["edges"], spec["masses"], f)
    if kind == "pareto":
        # E[b / (1 + b f)] = (1 / f) 2F1(1, alpha; alpha + 1; -1 / (xmin f)).
        with mpmath.workdps(MP_DIGITS):
            c = mpmath.mpf(spec["xmin"]) * f
            return float(_pareto_hyp(spec["alpha"], c) / f)
    if kind == "mixture":
        return math.fsum(w * transform(sub, f) for w, sub in spec["parts"])
    raise ValueError(f"unknown spec type {kind!r}")


def log_growth_win(spec: dict, f: float) -> float:
    """E[log(1 + b f)] for the families the montecarlo workload draws."""
    if f == 0.0:
        return 0.0
    kind = spec["type"]
    if kind == "dirac":
        return math.log1p(spec["b"] * f)
    if kind == "atoms":
        return math.fsum(w * math.log1p(b * f) for b, w in spec["points"])
    if kind == "pareto":
        # Integrating by parts: log(1 + c) + (1 / alpha) 2F1(1, alpha; alpha + 1; -1 / c).
        with mpmath.workdps(MP_DIGITS):
            c = mpmath.mpf(spec["xmin"]) * f
            return float(mpmath.log1p(c) + _pareto_hyp(spec["alpha"], c) / spec["alpha"])
    if kind == "mixture":
        return math.fsum(w * log_growth_win(sub, f) for w, sub in spec["parts"])
    raise ValueError(f"no log-growth oracle for spec type {kind!r}")


def growth(p: float, spec: dict, f: float) -> float:
    """g(f) = (1 - p) log(1 - f) + p E[log(1 + b f)]."""
    return (1.0 - p) * math.log1p(-f) + p * log_growth_win(spec, f)


def mean_fraction(p: float, spec: dict) -> float:
    """Fixed-payoff Kelly fraction at the mean payoff, the upper bound on f_hat."""
    m = mean(spec)
    return (p * (1.0 + m) - 1.0) / m


def f_hat(p: float, spec: dict) -> float:
    """Growth-optimal fraction; 0.0 for a game without a positive edge."""
    if spec["type"] == "dirac":
        P, B = Fraction(p), Fraction(spec["b"])
        return max(float((P * (1 + B) - 1) / B), 0.0)
    q = 1.0 - p
    m = mean(spec)
    if p * m - q <= 0.0:
        return 0.0
    # b / (1 + b f) <= b, so g' < 0 wherever 1 - f < q / (p E[b]).
    hi = 1.0 - q / (2.0 * p * m)
    return brentq(lambda f: p * transform(spec, f) - q / (1.0 - f), 0.0, hi, xtol=1e-300, rtol=ROOT_RTOL, maxiter=500)
