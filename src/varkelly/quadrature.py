"""The Pareto integral ``I(c) = ∫₀¹ u^(α−1) / (u + c) du`` in closed form.

Both Pareto transforms reduce to it (see ``distributions.Pareto``). It is
a Gauss hypergeometric function, ``I(c) = ₂F₁(1, α; α+1; −1/c) / (αc)``,
summed here by one of two convergent series (DLMF §15.8), each until the
rest of its terms cannot change the sum, with no tolerance or set count:

* ``c >= 1/2``, the Pfaff transformation: ``I = Σₖ tₖ / (α(1+c))`` with
  ``t₀ = 1`` and ``tₖ₊₁ = tₖ (k+1) / ((α+1+k)(1+c))``. Every term is
  positive and the term ratio is at most 2/3, so the sum stops at the
  first term that leaves it unchanged.
* ``c < 1/2``, the Mellin split: ``I = π c^(α−1) / sin(πα) + Σₖ
  (−c)^k / (α−1−k)``, geometric in c. The pole of the first part at an
  integer α cancels that of the term ``k = n = round(α−1)``, so the two
  are summed together, in a form exact as ``α − 1 → n``. Where n is −1
  (``α < 1/2``) there is no such term and the first part is added by
  itself. As ``|α−1−k| >= 1/2`` for ``k ≠ n``, the tail from k on is at
  most ``4 c^k``; the sum stops once that bound leaves it unchanged,
  however large n is.

At ``c = 0`` the integral is ``1/(α−1)``, and infinite for ``α <= 1``.
"""

from __future__ import annotations

import math

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
    ``alpha > 0``, ``c >= 0`` and ``scale > 0``.

    The scale enters before the last division, so that a large scale
    keeps the digits that an ``I(c)`` below the normal range would lose.
    A scale of 1 changes no bit.
    """
    if c == 0.0:  # xmin * f can underflow
        return scale / (alpha - 1.0) if alpha > 1.0 else math.inf
    if c >= 0.5:
        ratio = 1.0 / (1.0 + c)
        term, total, k = 1.0, 0.0, 0
        while total + term != total:
            total += term
            k += 1
            term *= k * ratio / (alpha + k)
        # Not total / (alpha * (1 + c)), whose divisor overflows near
        # alpha = 1e308.
        return total / ((1.0 + c) / scale) / alpha
    a = alpha - 1.0
    n = round(a)
    eps = a - n  # |eps| <= 1/2, exact
    total, power, k = 0.0, 1.0, 0
    while total + 4.0 * power != total:
        if k != n:
            total += power / (a - k)
        power *= -c
        k += 1
    if n < 0:  # no k = n term to pair with the pole term
        return (total + math.pi * c**a / math.sin(math.pi * alpha)) * scale
    # The pole term plus the k = n term is (-c)^n times this bracket.
    log_c = math.log(c)
    if eps == 0.0:
        bracket = -log_c
    else:
        x = math.pi * eps
        bracket = -math.expm1(eps * log_c) / eps - c**eps * _x_minus_sin(x) / (eps * math.sin(x))
    total += (-c) ** n * bracket
    return total * scale
