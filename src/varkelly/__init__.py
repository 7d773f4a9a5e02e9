"""Growth-optimal bet sizing when the win payoff is random.

The classical fixed-payoff betting fraction generalizes to games where
the payoff b is drawn from a distribution: the optimum solves
p * E[b / (1 + b f)] = (1 - p) / (1 - f) and is never larger than the
fixed-payoff fraction computed at the mean payoff. This package provides
the distribution types, the solver, a Monte Carlo cross-check, trade-log
ingestion, and a CLI (``varkelly``).

``import varkelly`` loads only the distributions, the solver and the
quadrature. The Monte Carlo names (``simulate``, ``grid_scan``,
``SimConfig``, ``SimResult``, ``GridScan``), and with them
``numpy.random``, load on first use, as do the ingest names
(``load_trades``, ``build_empirical``, ``TradeRecord``,
``EmpiricalSummary``) and with them ``csv``. Each access looks the name
up in its module again, so it is always that module's current object.
"""

import importlib

from .distributions import (
    Atoms,
    Dirac,
    Histogram,
    Mixture,
    Pareto,
    PayoffDistribution,
    Uniform,
    from_spec,
)
from .errors import (
    DegenerateSampleError,
    EmptyFileError,
    InfiniteMeanError,
    NotFavorableError,
    TradeParseError,
    VarKellyError,
)
from .kelly import (
    GameSpec,
    GrowthCurve,
    JensenComparison,
    KellySolution,
    edge,
    growth_curve,
    growth_derivative,
    growth_rate,
    jensen_compare,
    solve_kelly,
)

__version__ = "0.1.0"

__all__ = [
    "Atoms",
    "DegenerateSampleError",
    "Dirac",
    "EmptyFileError",
    "EmpiricalSummary",
    "GameSpec",
    "GridScan",
    "GrowthCurve",
    "Histogram",
    "InfiniteMeanError",
    "JensenComparison",
    "KellySolution",
    "Mixture",
    "NotFavorableError",
    "Pareto",
    "PayoffDistribution",
    "SimConfig",
    "SimResult",
    "TradeParseError",
    "TradeRecord",
    "Uniform",
    "VarKellyError",
    "build_empirical",
    "edge",
    "from_spec",
    "grid_scan",
    "growth_curve",
    "growth_derivative",
    "growth_rate",
    "jensen_compare",
    "load_trades",
    "simulate",
    "solve_kelly",
]

# Names re-exported from a module that loads on first use, by module.
_LAZY = {
    name: module
    for module, names in {
        "ingest": ("EmpiricalSummary", "TradeRecord", "build_empirical", "load_trades"),
        "montecarlo": ("GridScan", "SimConfig", "SimResult", "grid_scan", "simulate"),
    }.items()
    for name in names
}


def __getattr__(name):
    # Not cached in globals(), so that a name replaced on its module (a
    # wrapper, say) is seen here, and its restoration too.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
