"""Adaptive Gauss-Legendre integration with per-panel error control.

This is the integration engine behind the density-distribution
transforms that have no closed form. The integrands it sees are smooth
on bounded intervals (callers map any improper tail onto a bounded
interval first), so a fixed-order Gauss-Legendre rule on each panel,
checked against the same rule on the panel's two halves, is enough.

The engine works breadth-first: at each refinement level it evaluates a
vectorised integrand once, at the nodes of every panel still open, and
accepts a panel when its two-half and whole-panel estimates agree within
the panel's share of the tolerance (QUADPACK, Piessens et al. 1983, for
the error estimate and the adaptive split). The nodes and weights come
from the eigen-decomposition of the Legendre Jacobi matrix (Golub and
Welsch 1969).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NonConvergenceError

DEFAULT_ABS_TOL = 1e-10
DEFAULT_MAX_DEPTH = 50

# Nodes per panel. The estimate of a panel that meets its tolerance is
# exact to far below it, since the halves' rule is ~2^(2n) times more
# accurate than the whole panel's.
_ORDER = 16
# Open panels allowed at one level: on an integrand the rule cannot resolve
# (noise, or a tolerance below its rounding) every panel fails, so the
# count would double each level.
_MAX_PANELS = 1 << 12


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights, mapped to [0, 1]."""
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    weights = vectors[0] ** 2
    # The rule is symmetric; enforce it exactly.
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return 0.5 * (nodes + 1.0), weights / weights.sum()


_NODES, _WEIGHTS = _gauss_legendre(_ORDER)
# Nodes of a panel's left and right halves, as fractions of its width.
_HALF_NODES = np.concatenate([0.5 * _NODES, 0.5 + 0.5 * _NODES])
# The first level evaluates the whole interval and its halves together.
_FIRST_NODES = np.concatenate([_NODES, _HALF_NODES])


def _gauss_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[float, float]:
    """Integrate a vectorised ``f`` over ``[lo, hi]``; returns (value, error).

    ``f`` maps a 1-D array of abscissae to the array of integrand values.
    A panel of width ``w`` is accepted when the sum of the rule on its
    two halves differs from the rule on the whole panel by at most
    ``abs_tol * w / (hi - lo)``; the halves' sum is its value and that
    difference its error estimate. Panels that fail are split in two,
    down to ``max_depth`` halvings of the interval.

    Raises:
        NonConvergenceError: If a panel at ``max_depth`` still fails, or
            the open panels outgrow the engine's limit. It carries the
            best value and the summed error estimate.
    """
    width = hi - lo
    share = abs_tol / width
    value = err = 0.0
    starts = np.array([lo])
    widths = np.array([width])
    sums = f(lo + width * _FIRST_NODES).reshape(3, _ORDER) @ _WEIGHTS
    whole = width * sums[:1]
    halves = 0.5 * width * sums[None, 1:]
    depth = 0
    while True:
        estimate = halves.sum(axis=1)
        diff = np.abs(estimate - whole)
        # Written so that a NaN difference keeps its panel open.
        open_ = ~(diff <= share * widths)
        if not open_.any():
            return value + float(estimate.sum()), err + float(diff.sum())
        done = ~open_
        value += float(estimate[done].sum())
        err += float(diff[done].sum())
        if depth == max_depth or 2 * np.count_nonzero(open_) > _MAX_PANELS:
            value += float(estimate[open_].sum())
            err += float(diff[open_].sum())
            raise NonConvergenceError(
                f"quadrature stopped at depth {depth} of {max_depth} before reaching "
                f"tolerance {abs_tol:g} (best value {value!r}, error estimate {err:g})",
                value=value,
                err_estimate=err,
            )
        widths = np.repeat(0.5 * widths[open_], 2)
        starts = (starts[open_, None] + widths[::2, None] * np.array([0.0, 1.0])).ravel()
        whole = halves[open_].ravel()
        y = f((starts[:, None] + widths[:, None] * _HALF_NODES).ravel())
        halves = y.reshape(-1, 2, _ORDER) @ _WEIGHTS * (0.5 * widths)[:, None]
        depth += 1


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[float, float]:
    """Integrate a scalar ``f`` over ``[lo, hi]`` to absolute tolerance ``abs_tol``.

    Runs the adaptive Gauss-Legendre engine, calling
    ``f`` once per node with a Python float.

    Args:
        f: Integrand, finite on the open interval.
        lo: Lower endpoint (finite).
        hi: Upper endpoint (finite, > lo).
        abs_tol: Absolute error target for the whole interval.
        max_depth: Cap on the number of interval halvings.

    Returns:
        Tuple of (value, error_estimate), the estimate at most ``abs_tol``.

    Raises:
        NonConvergenceError: If some panel hit ``max_depth`` before
            meeting its share of the tolerance. The exception carries the
            best value and error estimate found.
        ValueError: If the interval is empty/reversed or abs_tol <= 0.
    """
    if not (lo < hi):
        raise ValueError(f"integration interval must satisfy lo < hi, got [{lo}, {hi}]")
    if abs_tol <= 0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")

    def vectorised(x: np.ndarray) -> np.ndarray:
        return np.array([f(t) for t in x.tolist()], dtype=float)

    return _gauss_adaptive(vectorised, float(lo), float(hi), abs_tol, max_depth)
