"""Self-tests of the benchmark: input generators, span arithmetic, the
tracer's clean-up and the repeatability of its work counts.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import varkelly as vk  # noqa: E402
from varkelly import cli, distributions, ingest, kelly, montecarlo, quadrature  # noqa: E402

DETERMINISTIC_COUNTS = (
    "kelly.gprime_evals_per_solve",
    "quadrature.integrand_evals",
    "quadrature.integrate_calls",
    "montecarlo.paths",
)


# ---------- generators ----------


def test_generators_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    assert workloads.solve_inputs(5) == workloads.solve_inputs(5)
    assert workloads.solve_inputs(5) != workloads.solve_inputs(6)
    assert workloads.montecarlo_inputs(5) == workloads.montecarlo_inputs(5)
    assert workloads.montecarlo_inputs(5) != workloads.montecarlo_inputs(6)
    first, again, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (first, again, other):
        d.mkdir()
    a = json.dumps(workloads.cli_inputs(5, str(first))).replace(str(first), "")
    b = json.dumps(workloads.cli_inputs(5, str(again))).replace(str(again), "")
    c = json.dumps(workloads.cli_inputs(6, str(other))).replace(str(other), "")
    assert a == b != c
    assert (first / "trades-0.csv").read_bytes() == (again / "trades-0.csv").read_bytes()
    assert (first / "trades-0.csv").read_bytes() != (other / "trades-0.csv").read_bytes()


def test_generators_do_not_depend_on_string_hashing():
    code = "import json, workloads; print(json.dumps([workloads.solve_inputs(3), workloads.montecarlo_inputs(3)]))"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=BENCH,
            env=dict(os.environ, PYTHONHASHSEED=str(h)),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for h in (1, 2)
    }
    assert len(outputs) == 1


def test_generated_games_are_favorable_and_stress_slice_comes_first():
    games = workloads.solve_inputs(7)
    assert len(games) == sum(workloads.SOLVE_COUNTS.values()) + 5
    assert [g["stress"] for g in games[:5]] == [
        "histogram_2000_bins",
        "pareto_alpha_1.0001",
        "pareto_alpha_200",
        "p_1_minus_1e-13",
        "edge_1e-9",
    ]
    for game in games:
        assert game["p"] * (1.0 + oracle.mean(game["dist"])) > 1.0


def test_request_costs_are_the_same_under_every_seed():
    def pareto_alphas(seed):
        return sorted(g["dist"]["alpha"] for g in workloads.solve_inputs(seed)[5:] if g["dist"]["type"] == "pareto")

    def mc_sizes(seed):
        requests = workloads.montecarlo_inputs(seed)
        short = sorted((r["n_paths"], r["n_rounds"]) for r in requests if r["shape"] == "short")
        long_path_rounds = sorted(r["n_paths"] * r["n_rounds"] for r in requests if r["shape"] == "long")
        return sorted(n for n, _ in short), sorted(m for _, m in short), long_path_rounds

    assert pareto_alphas(3) == pareto_alphas(4)
    paths, rounds, path_rounds = mc_sizes(3)
    assert mc_sizes(4)[:2] == (paths, rounds)
    assert mc_sizes(4)[2] == pytest.approx(path_rounds, rel=1e-3)
    assert len(workloads.montecarlo_inputs(3)) >= 100


# ---------- oracle ----------


def test_pareto_oracle_matches_direct_integration():
    from scipy.integrate import quad

    spec = {"type": "pareto", "alpha": 1.7, "xmin": 0.8}
    f = 0.3
    density = lambda b: 1.7 * 0.8**1.7 / b**2.7  # noqa: E731
    direct, _ = quad(lambda b: density(b) * b / (1 + b * f), 0.8, np.inf, epsabs=1e-13, epsrel=1e-13)
    log_direct, _ = quad(lambda b: density(b) * np.log1p(b * f), 0.8, np.inf, epsabs=1e-13, epsrel=1e-13)
    assert oracle.transform(spec, f) == pytest.approx(direct, rel=1e-9)
    assert oracle.log_growth_win(spec, f) == pytest.approx(log_direct, rel=1e-9)


def test_histogram_oracle_matches_direct_integration_and_series_branch():
    from scipy.integrate import quad

    spec = {"type": "histogram", "edges": [0.5, 1.0, 3.0], "masses": [0.25, 0.75]}

    def direct(f):
        parts = [
            quad(lambda b, m=m, lo=lo, hi=hi: m / (hi - lo) * b / (1 + b * f), lo, hi, epsabs=1e-15)[0]
            for m, lo, hi in ((0.25, 0.5, 1.0), (0.75, 1.0, 3.0))
        ]
        return sum(parts)

    for f in (1e-7, 1e-4, 0.2, 0.9):
        assert oracle.transform(spec, f) == pytest.approx(direct(f), rel=1e-12)


def test_dirac_oracle_is_the_closed_form():
    assert oracle.f_hat(0.6, {"type": "dirac", "b": 1.0}) == pytest.approx(0.2, rel=1e-15)
    assert oracle.f_hat(0.4, {"type": "dirac", "b": 1.0}) == 0.0


# ---------- span arithmetic ----------


def span(name, start, end, parent=-1, error=None, note=None):
    return [name, start, end, parent, 0, error, note]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("kelly.solve_kelly", 0, 100),
        span("kelly.growth_derivative", 10, 40, parent=0),
        span("kelly.growth_derivative", 30, 60, parent=0),  # overlaps its sibling
        span("quadrature.integrate", 15, 20, parent=1, note=7),
        span("kelly.growth_rate", 80, 90, parent=0),
    ]
    assert tracing.self_times_ns(spans) == [100 - 60, 30 - 5, 30, 5, 10]
    metrics = tracing.layer_metrics(spans)
    assert metrics["kelly.busy_ms"] == pytest.approx(100e-6)  # nested kelly spans count once
    assert metrics["kelly.self_ms"] == pytest.approx((40 + 25 + 30 + 10) * 1e-6)
    assert metrics["kelly.gprime_evals_per_solve"] == 2
    assert metrics["kelly.g_evals"] == 1
    assert metrics["quadrature.integrand_evals"] == 7
    assert metrics["quadrature.busy_ms"] == pytest.approx(5e-6)


def test_rng_time_counts_only_inside_montecarlo_spans():
    spans = [
        span("montecarlo.simulate", 0, 1000, note=(10, 5)),
        span("rng.SeedSequence", 100, 150, parent=0),
        span("rng.default_rng", 150, 300, parent=0),
        span("distributions.Atoms.sample", 300, 400, parent=0),
        span("rng.default_rng", 2000, 2100),  # outside any simulation
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["montecarlo.rng_setup_ms"] == pytest.approx(200e-6)
    assert metrics["montecarlo.self_ms"] == pytest.approx(700e-6)
    assert metrics["montecarlo.paths"] == 10
    assert metrics["montecarlo.path_rounds"] == 50
    assert metrics["montecarlo.us_per_path"] == pytest.approx(0.1)


# ---------- traced runs ----------


def _wrapped_attributes():
    owners = [(kelly, tracing.KELLY_FUNCTIONS), (vk, tracing.KELLY_FUNCTIONS + tracing.MONTECARLO_FUNCTIONS)]
    owners += [
        (montecarlo, tracing.MONTECARLO_FUNCTIONS),
        (ingest, tracing.INGEST_FUNCTIONS),
        (vk, tracing.INGEST_FUNCTIONS + ("integrate",)),
        (quadrature, ("integrate",)),
        (np.random, tracing.RNG_CONSTRUCTORS),
        (cli, ("main",)),
    ]
    owners += [
        (cls, tracing.DIST_METHODS)
        for cls in vars(distributions).values()
        if isinstance(cls, type) and issubclass(cls, distributions.PayoffDistribution)
    ]
    return {(owner, attr): vars(owner)[attr] for owner, attrs in owners for attr in attrs if attr in vars(owner)}


def _traced(workload, inputs, tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "FLOOR_REPEATS", 1)
    return worker.trace(workload, inputs, worker.build(workload, inputs), 0, tmp_path / f"{workload}.jsonl")


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    solve = workloads.solve_inputs(11)
    # The stress slice minus its slowest case, and a few games of each family.
    picked = [g for g in solve[:5] if g["stress"] != "histogram_2000_bins"]
    start = 5
    for count in workloads.SOLVE_COUNTS.values():
        picked += solve[start : start + 6]
        start += count
    return {
        "solve": picked,
        "montecarlo": workloads.montecarlo_inputs(11)[::20],
        "cli": workloads.cli_inputs(11, str(workdir))[:6],
    }


@pytest.mark.parametrize("workload", ["solve", "montecarlo", "cli"])
def test_traced_run_puts_every_original_back(workload, small_inputs, tmp_path, monkeypatch):
    before = _wrapped_attributes()
    assert len(before) > 40
    result = _traced(workload, small_inputs[workload], tmp_path, monkeypatch)
    after = _wrapped_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert (tmp_path / f"{workload}.jsonl").stat().st_size > 0
    assert set(result["layers"]) >= {"kelly.solve_calls", "montecarlo.paths", "cli.main_ms", "ingest.rows"}


def test_deterministic_counts_repeat_between_traced_runs(small_inputs, tmp_path, monkeypatch):
    for workload in ("solve", "montecarlo"):
        first = _traced(workload, small_inputs[workload], tmp_path, monkeypatch)["layers"]
        again = _traced(workload, small_inputs[workload], tmp_path, monkeypatch)["layers"]
        for name in DETERMINISTIC_COUNTS:
            assert first[name] == again[name], name
        assert first["kelly.solve_calls"] == (len(small_inputs[workload]) if workload == "solve" else 0)
    assert first["montecarlo.paths"] == sum(r["n_paths"] for r in small_inputs["montecarlo"])
    assert first["distributions.sample_calls"] > 0
