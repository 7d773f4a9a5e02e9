"""Growth-optimal bet sizing when the win payoff is random.

The classical fixed-payoff betting fraction generalizes to games where
the payoff b is drawn from a distribution: the optimum solves
p * E[b / (1 + b f)] = (1 - p) / (1 - f) and is never larger than the
fixed-payoff fraction computed at the mean payoff. This package provides
the distribution types, the solver, a Monte Carlo cross-check, trade-log
ingestion, and a CLI (``varkelly``).
"""

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
from .ingest import EmpiricalSummary, TradeRecord, build_empirical, load_trades
from .kelly import (
    EdgeReport,
    GameSpec,
    GrowthCurve,
    JensenComparison,
    KellySolution,
    classical_fraction,
    edge,
    growth_curve,
    growth_derivative,
    growth_rate,
    jensen_compare,
    solve_kelly,
)
from .montecarlo import GridScan, SimConfig, SimResult, grid_scan, simulate

__version__ = "0.1.0"

__all__ = [
    "Atoms",
    "DegenerateSampleError",
    "Dirac",
    "EdgeReport",
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
    "classical_fraction",
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
