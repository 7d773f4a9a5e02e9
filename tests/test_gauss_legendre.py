"""Tests for the vectorised Gauss-Legendre engine behind ``integrate``."""

import math

import numpy as np
import pytest

from varkelly import quadrature
from varkelly.errors import NonConvergenceError
from varkelly.quadrature import integrate


def test_golub_welsch_rule_matches_numpy_reference():
    nodes, weights = quadrature._gauss_legendre(quadrature._ORDER)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(quadrature._ORDER)
    assert np.allclose(nodes, 0.5 * (ref_nodes + 1.0), rtol=0.0, atol=1e-15)
    assert np.allclose(weights, 0.5 * ref_weights, rtol=0.0, atol=1e-15)


def test_polynomials_up_to_twice_the_order_are_exact():
    degree = 2 * quadrature._ORDER - 1
    value, err = integrate(lambda x: x**degree, 0.0, 1.0)
    assert value == pytest.approx(1.0 / (degree + 1), abs=1e-15)
    assert err <= 1e-15


def test_one_integrand_call_per_level():
    calls = []

    def spike(t):
        calls.append(t.size)
        return 1.0 / (t * t + 1e-4)

    value, err = quadrature._gauss_adaptive(spike, -1.0, 1.0, 1e-10, 50)
    assert value == pytest.approx(2e2 * math.atan(1e2), abs=1e-9)
    assert err <= 1e-10
    assert calls[0] == 3 * quadrature._ORDER
    assert all(size % (2 * quadrature._ORDER) == 0 for size in calls[1:])


def test_nan_integrand_raises_instead_of_returning_nan():
    with pytest.raises(NonConvergenceError):
        integrate(lambda x: math.nan, 0.0, 1.0)


def test_unresolvable_integrand_stops_with_bounded_work():
    # A sawtooth with period 1e-12 fails on every panel down to depth ~40,
    # so the open panels double every level; the engine must give up long
    # before max_depth instead of exhausting memory.
    evals = []

    def sawtooth(t):
        evals.append(t.size)
        return (t * 1e12) % 1.0

    with pytest.raises(NonConvergenceError) as excinfo:
        quadrature._gauss_adaptive(sawtooth, 0.0, 1.0, 1e-10, 50)
    assert sum(evals) <= 4 * quadrature._MAX_PANELS * quadrature._ORDER
    assert excinfo.value.value == pytest.approx(0.5, abs=0.05)
