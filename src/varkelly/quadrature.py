"""The Pareto integral ``I(c) = ∫₀¹ u^(α−1) / (u + c) du`` in closed form.

Both Pareto transforms reduce to it (see ``distributions.Pareto``). It is
a Gauss hypergeometric function, ``I(c) = ₂F₁(1, α; α+1; −1/c) / (αc)``,
summed here by one of two convergent series (DLMF §15.8), so the result
carries no tolerance and no iteration limit:

* ``c >= 1/2``, the Pfaff transformation: ``I = Σₖ tₖ / (α(1+c))`` with
  ``t₀ = 1`` and ``tₖ₊₁ = tₖ (k+1) / ((α+1+k)(1+c))``. Every term is
  positive and the term ratio is at most 2/3.
* ``c < 1/2``, the Mellin split: ``I = π c^(α−1) / sin(πα) + Σₖ
  (−c)^k / (α−1−k)``, geometric in c. The pole of the first part at an
  integer α cancels that of the term ``k = n = round(α−1)``, so the two
  are summed together, in a form that is exact as ``α − 1 → n``.
"""

from __future__ import annotations

import math

# Terms of each series. They fall off at least as fast as (2/3)^k and
# (1/2)^k, so the first dropped term is below 3e-18 in absolute value.
_PFAFF_TERMS = 100
_MELLIN_TERMS = 60
# Taylor coefficients of x - sin(x) = x^3 (1/3! - x^2/5! + ...), twelve
# terms, the first dropped one below 1e-20 at |x| = pi/2.
_X_MINUS_SIN = tuple((-1) ** j / math.factorial(2 * j + 3) for j in range(12))


def _x_minus_sin(x: float) -> float:
    """x - sin(x) for |x| <= pi/2, without the cancellation near 0."""
    x2 = x * x
    total = 0.0
    for coeff in reversed(_X_MINUS_SIN):
        total = total * x2 + coeff
    return total * x2 * x


def pareto_integral(alpha: float, c: float, scale: float = 1.0) -> float:
    """``scale · I(c)``, with ``I(c) = ∫₀¹ u^(α−1) / (u + c) du``, for
    ``alpha > 1``, ``c >= 0`` and ``scale > 0``.

    The scale enters before the last division, so that a large scale
    keeps the digits that an ``I(c)`` below the normal range would lose.
    A scale of 1 changes no bit.
    """
    if c == 0.0:  # xmin * f can underflow
        return scale / (alpha - 1.0)
    if c >= 0.5:
        ratio = 1.0 / (1.0 + c)
        term = total = 1.0
        for k in range(1, _PFAFF_TERMS):
            term *= k * ratio / (alpha + k)
            total += term
        # Not total / (alpha * (1 + c)), whose divisor overflows near
        # alpha = 1e308.
        return total / ((1.0 + c) / scale) / alpha
    a = alpha - 1.0
    n = round(a)
    eps = a - n  # |eps| <= 1/2, exact
    total, power = 0.0, 1.0
    for k in range(_MELLIN_TERMS):
        if k != n:
            total += power / (a - k)
        power *= -c
    if n < _MELLIN_TERMS:
        # The pole term plus the k = n term is (-c)^n times this bracket.
        log_c = math.log(c)
        if eps == 0.0:
            bracket = -log_c
        else:
            x = math.pi * eps
            bracket = -math.expm1(eps * log_c) / eps - c**eps * _x_minus_sin(x) / (eps * math.sin(x))
        total += (-c) ** n * bracket
    return total * scale
