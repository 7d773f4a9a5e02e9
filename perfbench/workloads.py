"""Seeded input generators for the three benchmark workloads.

Inputs are plain JSON-ready data (game specs, simulation shapes, CLI
argument lists), generated from the workload seed alone. Nothing here
imports varkelly: the library only ever sees the generated inputs, and
the worker builds them through the public constructors.

Each family's requests are spread over equal-probability strata of every
input dimension (a Latin hypercube). The dimensions that set a request's
cost (atoms, bins, tail exponent, mixture composition, paths,
path-rounds) take the middle of each stratum, in seeded order, so the
mix of cheap and expensive requests, and with it the latency quantiles,
is the same under every seed; the games themselves (payoffs, weights,
p, f, simulation seeds) are drawn from the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from oracle import mean as spec_mean

# Solve requests per family, chosen so that each reported quantile falls
# well inside one family's latency range rather than on the boundary
# between two, where it would jump between them from seed to seed. The
# closed-form families (Dirac, Atoms) make up three fifths, so the median
# sits on Atoms; Pareto, the slowest family, makes up a sixth, so the 90th
# percentile sits on Pareto. (An even six-way split puts the median on the
# boundary between Atoms and Uniform.)
SOLVE_COUNTS = {"dirac": 120, "atoms": 240, "uniform": 50, "histogram": 50, "pareto": 100, "mixture": 50}

# Montecarlo requests per family and shape. Short-path simulate requests
# are about two thirds, so the median sits on them (RNG set-up bound); the
# long-path grid scans (draw and log accumulation bound) share the upper
# quantiles with the short Mixture requests. A hundred requests, the
# fewest that leave ten beyond the 90th percentile, keep a pass short, so
# that a run makes many passes to take each request's fastest from.
MC_COUNTS = {"short": 16, "long": 9}
MC_FAMILIES = ("dirac", "atoms", "mixture", "pareto")
MC_GRID_SIZE = 19

CLI_CYCLES = 17
CLI_CSV_FILES = 3
# Fixed, so that ingest requests, the slowest kind, cost the same under every seed.
CLI_CSV_ROWS = 20_000
CLI_CURVE_M = 200


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _lhs(rng: np.random.Generator, n: int, d: int, centred=()) -> np.ndarray:
    """n points in [0, 1)^d with, in every column, exactly one value in
    each interval [k/n, (k+1)/n) (a Latin hypercube); the columns named in
    ``centred`` take the interval midpoints."""
    return np.stack(
        [(rng.permutation(n) + (0.5 if j in centred else rng.random(n))) / n for j in range(d)], axis=1
    )


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _p_for(spec: dict, tau: float) -> float:
    """Win probability at which the mean-payoff Kelly fraction is tau."""
    m = spec_mean(spec)
    return float((1.0 + tau * m) / (1.0 + m))


# Each family is drawn from a vector u of uniforms: u[0] sets its size
# (atoms, bins, width, tail exponent), u[2] its payoff scale and u[3] its
# shape; u[1] is left for the win probability.


def _dirac(rng, u, lo=0.2, hi=5.0):
    return {"type": "dirac", "b": _log_uniform(u[0], lo, hi)}


def _atoms(rng, u, lo=2, hi=256):
    k = int(round(_log_uniform(u[0], lo, hi)))
    scale = _log_uniform(u[2], 0.3, 3.0)
    values = scale * rng.lognormal(0.0, 0.2 + 0.8 * u[3], k)
    weights = rng.dirichlet(np.ones(k))
    return {"type": "atoms", "points": [[float(b), float(w)] for b, w in zip(values, weights)]}


def _uniform(rng, u):
    lo = 2.0 * u[2]
    return {"type": "uniform", "lo": float(lo), "hi": float(lo + _log_uniform(u[0], 0.1, 4.0))}


def _histogram(rng, u, lo_bins=4, hi_bins=64):
    nb = int(round(_log_uniform(u[0], lo_bins, hi_bins)))
    span = _log_uniform(u[2], 0.5, 6.0)
    widths = rng.uniform(0.5, 1.5, nb) * span / nb
    edges = u[3] + np.concatenate([[0.0], np.cumsum(widths)])
    masses = rng.dirichlet(np.full(nb, 2.0))
    return {"type": "histogram", "edges": [float(e) for e in edges], "masses": [float(m) for m in masses]}


def _pareto(rng, u, lo=1.05, hi=50.0):
    return {"type": "pareto", "alpha": _log_uniform(u[0], lo, hi), "xmin": _log_uniform(u[2], 0.2, 2.0)}


def _mixture(rng, u, families):
    """Two or three parts, their families one of the multisets of size two
    or three (by u[3]), so that every composition appears equally often."""
    compositions = [c for n in (2, 3) for c in itertools.combinations_with_replacement(families, n)]
    chosen = compositions[int(u[3] * len(compositions))]
    n_parts = len(chosen)
    weights = rng.dirichlet(np.ones(n_parts))
    return {"type": "mixture", "parts": [[float(w), _PARTS[f](rng, rng.random(4))] for w, f in zip(weights, chosen)]}


# Mixture parts are drawn smaller than stand-alone games.
_PARTS = {
    "dirac": _dirac,
    "atoms": lambda rng, u: _atoms(rng, u, 2, 8),
    "uniform": _uniform,
    "histogram": lambda rng, u: _histogram(rng, u, 4, 8),
    "pareto": lambda rng, u: _pareto(rng, u, 1.2, 10.0),
}


FAMILIES = {"dirac": _dirac, "atoms": _atoms, "uniform": _uniform, "histogram": _histogram, "pareto": _pareto}
SOLVE_MIXTURE_PARTS = ("dirac", "atoms", "uniform", "histogram", "pareto")
MC_MIXTURE_PARTS = ("dirac", "atoms", "pareto")


def _family_spec(rng, family, u, mixture_parts=SOLVE_MIXTURE_PARTS):
    if family == "mixture":
        return _mixture(rng, u, mixture_parts)
    return FAMILIES[family](rng, u)


def _stress_cases(rng) -> list[dict]:
    masses = rng.dirichlet(np.full(2000, 2.0))
    histogram = {
        "type": "histogram",
        "edges": [float(e) for e in np.linspace(0.1, 5.0, 2001)],
        "masses": [float(m) for m in masses],
    }
    return [
        {"stress": "histogram_2000_bins", "p": 0.6, "dist": histogram},
        {"stress": "pareto_alpha_1.0001", "p": 0.6, "dist": {"type": "pareto", "alpha": 1.0001, "xmin": 0.5}},
        {"stress": "pareto_alpha_200", "p": 0.6, "dist": {"type": "pareto", "alpha": 200.0, "xmin": 1.0}},
        {"stress": "p_1_minus_1e-13", "p": 1.0 - 1e-13, "dist": {"type": "dirac", "b": 1.0}},
        {"stress": "edge_1e-9", "p": 0.5 + 5e-10, "dist": {"type": "dirac", "b": 1.0}},
    ]


def solve_inputs(seed: int) -> list[dict]:
    """The solve requests: the stress slice, then each family's games.

    Requests are grouped by family, so a request's time does not depend on
    which family ran just before it: after a long quadrature request the
    caches are cold, which costs a closed-form solve up to a third more
    and makes it track the load from other tenants of the machine.
    """
    rng = _rng(seed, 1)
    games = _stress_cases(rng)
    for family, count in SOLVE_COUNTS.items():
        for u in _lhs(rng, count, 4, centred=(0, 3)):
            spec = _family_spec(rng, family, u)
            games.append({"stress": None, "p": _p_for(spec, 0.1 + 0.5 * u[1]), "dist": spec})
    return games


def montecarlo_inputs(seed: int) -> list[dict]:
    """The montecarlo requests, grouped by shape and family: a game, a
    fixed fraction f, a simulation shape and a seed."""
    rng = _rng(seed, 2)
    requests = []
    for shape, count in MC_COUNTS.items():
        for family in MC_FAMILIES:
            # Columns: the family's four uniforms, then rounds (for grid
            # scans, path-rounds) and paths.
            for u in _lhs(rng, count, 6, centred=(0, 3, 4, 5)):
                requests.append(_mc_request(rng, shape, family, u))
    return requests


def _mc_request(rng, shape: str, family: str, u) -> dict:
    if family == "dirac":
        spec = _dirac(rng, u, 0.3, 3.0)
    elif family == "atoms":
        spec = _atoms(rng, u, 2, 32)
    elif family == "pareto":
        spec = _pareto(rng, u, 1.3, 8.0)
    else:
        spec = _mixture(rng, u, MC_MIXTURE_PARTS)
    tau = 0.15 + 0.35 * u[1]
    request = {
        "shape": shape,
        "p": _p_for(spec, tau),
        "dist": spec,
        "f": float(0.5 * tau),
        "seed": int(rng.integers(0, 2**31)),
    }
    if shape == "short":
        request["n_rounds"] = int(round(_log_uniform(u[4], 10, 50)))
        request["n_paths"] = int(round(_log_uniform(u[5], 200, 800)))
    else:
        # The cost is set by the path-rounds alone, whatever the split.
        request["n_paths"] = int(12 + math.floor(u[5] * 13))
        request["n_rounds"] = int(round(_log_uniform(u[4], 1e5, 4e5) / request["n_paths"]))
        request["grid_size"] = MC_GRID_SIZE
    return request


def write_trade_csv(path, rng: np.random.Generator) -> dict:
    """Write a trade log of outcome,payoff rows; returns its win/loss counts.

    Payoffs are lognormal and rounded to cents, as realized trade
    payoffs are, so the exact empirical distribution has a few hundred atoms.
    """
    n_rows = CLI_CSV_ROWS
    p_win = rng.uniform(0.5, 0.6)
    wins = rng.random(n_rows) < p_win
    payoffs = np.round(rng.lognormal(rng.uniform(-0.2, 0.2), rng.uniform(0.3, 0.7), n_rows), 2)
    payoffs = np.maximum(payoffs, 0.01)
    lines = ["outcome,payoff"]
    lines += [f"win,{b:.2f}" if w else "loss," for w, b in zip(wins, payoffs)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return {"n_wins": int(wins.sum()), "n_losses": int(n_rows - wins.sum())}


def cli_inputs(seed: int, workdir) -> list[dict]:
    """The cli request stream; writes its trade CSVs into ``workdir``.

    Each cycle is solve, compare, curve, simulate on an Atoms game and on
    a Dirac game, ingest, then solve on the spec that ingest produced. A
    request is an argv list for ``varkelly.cli.main``, except the last one
    of a cycle, whose ``--p`` and ``--dist-file`` come from the ingest
    request it names.
    """
    rng = _rng(seed, 3)
    csvs = []
    for k in range(CLI_CSV_FILES):
        path = os.path.join(workdir, f"trades-{k}.csv")
        csvs.append((path, write_trade_csv(path, rng)))
    families = ("dirac", "atoms", "uniform", "histogram", "pareto", "mixture")
    # Columns: the solved game's four uniforms, the curve game's, the two simulated games'.
    draws = _lhs(rng, CLI_CYCLES, 16, centred=(0, 3, 4))
    requests = []
    for c in range(CLI_CYCLES):
        u, u_curve = draws[c, :4], draws[c, 4:8]
        game = _family_spec(rng, families[c % len(families)], u)
        p = _p_for(game, 0.1 + 0.5 * u[1])
        dist = ["--p", repr(p), "--dist", _json(game)]
        curve_game = _pareto(rng, u_curve, 1.2, 10.0) if c % 2 == 0 else _histogram(rng, u_curve, 4, 8)
        curve_p = _p_for(curve_game, 0.1 + 0.5 * u_curve[1])
        sims = [_simulate(rng, _atoms(rng, draws[c, 8:12], 2, 16), draws[c, 9])]
        sims.append(_simulate(rng, _dirac(rng, draws[c, 12:], 0.3, 3.0), draws[c, 13]))
        csv_path, counts = csvs[c % len(csvs)]
        spec_path = os.path.join(workdir, f"spec-{c}.json")
        requests += [
            {"kind": "solve", "argv": ["solve", *dist], "p": p, "dist": game},
            {"kind": "compare", "argv": ["compare", *dist], "p": p, "dist": game},
            {
                "kind": "curve",
                "argv": ["curve", "--m", str(CLI_CURVE_M), "--p", repr(curve_p), "--dist", _json(curve_game)],
            },
            *sims,
            {"kind": "ingest", "argv": ["ingest", csv_path], "counts": counts, "spec_path": spec_path},
            {"kind": "solve_file", "spec_path": spec_path, "after": len(requests) + 5},
        ]
    return requests


def _simulate(rng, game: dict, u: float) -> dict:
    """A small simulate request at half the mean-payoff Kelly fraction."""
    tau = 0.1 + 0.5 * u
    return {
        "kind": "simulate",
        "argv": [
            "simulate", "--p", repr(_p_for(game, tau)), "--dist", _json(game), "--f", repr(float(0.5 * tau)),
            "--n-rounds", "500", "--n-paths", "32", "--seed", str(int(rng.integers(0, 2**31))),
        ],
    }


def _json(spec: dict) -> str:
    return json.dumps(spec, separators=(",", ":"))
