"""varkelly benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for the inputs and why each was chosen):

* ``solve``      - one ``solve_kelly`` per request over a seeded stream of
  favorable games of all six payoff families, plus a fixed stress slice;
* ``montecarlo`` - ``simulate`` with many short paths and ``grid_scan``
  with few long paths;
* ``cli``        - one ``varkelly.cli.main(argv)`` call per request, in the
  worker process, whose start-up includes importing ``varkelly.cli``.

Each workload runs in a worker process (worker.py) with one caller and
no threads. With ``--trace 0`` the worker is timed untraced and the
end-to-end metrics are printed; with ``--trace 1`` a fixed set of
requests runs with spans around varkelly's public functions and the
per-layer metrics are printed. Every answer is checked, against the
independent oracle (oracle.py) for solve and montecarlo and against the
in-process library for cli. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
with the machine, versions and failures, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKER_TIMEOUT_S = 170
REL_TOL = 1e-6
# varkelly's default bisection tolerance, an absolute width on f.
SOLVER_TOL = 1e-10
MC_SIGMAS = 5.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "kelly.solve_calls": "count",
    "kelly.gprime_evals_per_solve": "count",
    "kelly.g_evals": "count",
    "kelly.busy_ms": "ms",
    "kelly.self_ms": "ms",
    "kelly.f_hat_max_rel_err": "ratio",
    "distributions.transform_calls": "count",
    "distributions.moment_calls": "count",
    "distributions.transform_self_ms": "ms",
    "distributions.sample_calls": "count",
    "distributions.sample_ms": "ms",
    "quadrature.integrate_calls": "count",
    "quadrature.integrand_evals": "count",
    "quadrature.evals_per_integrate": "count",
    "quadrature.busy_ms": "ms",
    "quadrature.nonconverged": "count",
    "montecarlo.paths": "count",
    "montecarlo.path_rounds": "count",
    "montecarlo.rng_setup_ms": "ms",
    "montecarlo.self_ms": "ms",
    "montecarlo.us_per_path": "us",
    "montecarlo.ns_per_path_round": "ns",
    "ingest.rows": "count",
    "ingest.load_ms": "ms",
    "ingest.build_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
}

# Failures that the benchmark's stress slice and checks are known to
# provoke in the library, by defect. They count as failures; they do not
# make the run incorrect, so that a new kind of failure stands out.
KNOWN_DEFECTS = {
    "nonconvergence_near_p1": "solve_kelly raises NonConvergenceError on a valid favorable game with p = 1 - 1e-13",
    "negative_jensen_gap": "f_hat exceeds the mean-payoff bound f*(p, E[b]) (jensen_gap < 0)",
    "absolute_tolerance": "relative f_hat error above 1e-6 with the absolute error inside the solver's 1e-10 "
    "tolerance: bisection stops on an absolute bracket width, so a small f_hat (edge 1e-9, heavy Pareto tail) "
    "is not resolved",
    "grid_column_mismatch": "grid_scan column j differs from simulate at f_j in the last bit for some f_j "
    "(numpy log1p against math.log1p in the loss term)",
}


# ---------- the worker process ----------


def start_worker(workload, inputs_path, mode, seconds, seed, spans_path=None):
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs_path),
        "--mode", mode, "--seconds", str(seconds), "--seed", str(seed),
    ]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    return subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def run_worker(*args, **kwargs) -> tuple[float, str]:
    """Start a worker; return its start-up time and the rest of its stdout."""
    t0 = time.perf_counter()
    with start_worker(*args, **kwargs) as proc:
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"worker failed (exit code {proc.returncode})")
    return setup, rest


# ---------- checks against the oracle ----------


def check_solve(games: list[dict], records: list) -> tuple[list[dict], float]:
    """Oracle comparison for every solve request; returns failures and the
    largest relative f_hat error seen."""
    failures = []
    max_rel = 0.0
    for i, _, outcome, error in records:
        game = games[i]
        reference = oracle.f_hat(game["p"], game["dist"])
        reasons = []
        if error is not None:
            known = "nonconvergence_near_p1" if game["stress"] == "p_1_minus_1e-13" and error.startswith(
                "NonConvergenceError"
            ) else None
            reasons.append((error, known))
        else:
            f_hat, status, gap, finite = outcome
            if status != "solved":
                reasons.append((f"status {status!r} on a favorable game", None))
            elif not finite:
                reasons.append(("non-finite field in a solved result", None))
            if gap < 0.0:
                reasons.append((f"jensen_gap {gap:.3g} < 0", "negative_jensen_gap"))
            rel = abs(f_hat - reference) / reference
            if math.isfinite(rel):
                max_rel = max(max_rel, rel)
            if not rel <= REL_TOL:
                known = "absolute_tolerance" if abs(f_hat - reference) <= SOLVER_TOL else None
                reasons.append((f"f_hat {f_hat!r} vs oracle {reference!r} (rel err {rel:.3g})", known))
        if reasons:
            failures.append(_failure(i, game, reasons))
    return failures, max_rel


def check_montecarlo(requests: list[dict], records: list) -> list[dict]:
    """Mean growth within MC_SIGMAS standard errors of the oracle g(f)."""
    failures = []
    for i, _, outcome, error in records:
        request = requests[i]
        if error is not None:
            failures.append(_failure(i, request, [(error, None)]))
            continue
        mean_growth, std_growth, f = outcome
        truth = oracle.growth(request["p"], request["dist"], f)
        se = std_growth / math.sqrt(request["n_paths"])
        if not abs(mean_growth - truth) <= MC_SIGMAS * se:
            failures.append(
                _failure(i, request, [(f"mean growth {mean_growth!r} vs g({f:.4g}) = {truth!r}, se {se:.3g}", None)])
            )
    return failures


def _failure(i: int, request: dict, reasons: list[tuple[str, str | None]]) -> dict:
    known = [k for _, k in reasons]
    return {
        "request": i,
        "stress": request.get("stress"),
        "reason": "; ".join(r for r, _ in reasons),
        "known_defect": ",".join(sorted(set(known))) if all(known) else None,
    }


# ---------- environment record ----------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _commit() -> str | None:
    """HEAD of the checkout's git directory, when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, traced: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "tracing": traced,
    }


# ---------- the run ----------


def _kind(workload: str, request: dict) -> str:
    if workload == "solve":
        return request["stress"] or request["dist"]["type"]
    if workload == "montecarlo":
        return f"{request['shape']}-{request['dist']['type']}"
    return request["kind"]


def make_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    if workload == "solve":
        return workloads.solve_inputs(seed)
    if workload == "montecarlo":
        return workloads.montecarlo_inputs(seed)
    return workloads.cli_inputs(seed, workdir)


def measure(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    inputs = make_inputs(workload, seed, workdir)
    inputs_path = Path(workdir) / "inputs.json"
    inputs_path.write_text(json.dumps(inputs))
    # One unmeasured start-up first, so that the measured ones find the
    # files in the page cache (and the bytecode compiled, where Python writes it).
    run_worker(workload, inputs_path, "setup", seconds, seed)
    mode = "trace" if traced else "run"
    spans = OUT / f"spans-{workload}.jsonl" if traced else None
    setup, out = run_worker(workload, inputs_path, mode, seconds, seed, spans)
    result = json.loads(out)
    # The measured worker's own start-up and the set-up workers it timed
    # between its passes.
    setups = [setup, *result.get("setup_s", [])]
    records = result["records"]
    failures = result["failures"]
    max_rel = 0.0
    if workload == "solve":
        solve_failures, max_rel = check_solve(inputs, records)
        failures = failures + solve_failures
    elif workload == "montecarlo":
        failures = failures + check_montecarlo(inputs, records)
    failed = len({f["request"] for f in failures})
    latencies = sorted(r[1] for r in records)
    kinds: dict[str, list[float]] = {}
    for i, latency, _, _ in records:
        kinds.setdefault(_kind(workload, inputs[i]), []).append(latency * 1e3)
    summary = {
        "attempted": len(records),
        "failed": failed,
        "failed_ratio": failed / len(records),
        "correct": all(f.get("known_defect") for f in failures),
        "failures": failures,
        "known_defects": KNOWN_DEFECTS,
        "latency_samples": len(latencies),
        "pass_wall_s": result["pass_wall_s"],
        "latency_ms_by_kind": {k: {"n": len(v), "median": statistics.median(v), "max": max(v)} for k, v in kinds.items()},
    }
    if traced:
        metrics = dict(result["layers"], **{"kelly.f_hat_max_rel_err": max_rel})
        summary["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        overhead = result["overhead"]
        overhead["slowdown"] = overhead["untraced_requests_per_s"] / overhead["traced_requests_per_s"]
        summary["tracing_overhead"] = overhead
    else:
        values = {
            "setup_s": statistics.median(setups),
            "requests_per_s": len(records) / math.fsum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "success_ratio": 1.0 - failed / len(records),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        summary["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        summary["setup_samples_s"] = setups
        summary["tracing_overhead"] = None
    return summary


def report(workload: str, env: dict, summary: dict) -> None:
    print(f"varkelly benchmark: workload={workload} seed={env['seed']} trace={int(env['tracing'])}")
    print(
        f"  machine: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
        f"numpy={env['numpy']} commit={env['commit']}"
    )
    for name, metric in summary["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"  {'failed_ratio':34s} {summary['failed_ratio']:14.6g} ratio "
        f"({summary['failed']} of {summary['attempted']} requests; {summary['latency_samples']} latency samples"
        + (")" if env["tracing"] else f", each the fastest of {len(summary['pass_wall_s'])} passes)")
    )
    if summary["tracing_overhead"]:
        o = summary["tracing_overhead"]
        print(
            f"  tracing overhead: {o['traced_requests_per_s']:.4g} req/s traced vs "
            f"{o['untraced_requests_per_s']:.4g} untraced ({o['slowdown']:.3g}x)"
        )
    for failure in summary["failures"][:10]:
        tag = f" [known: {failure['known_defect']}]" if failure.get("known_defect") else ""
        print(f"  FAILED request {failure['request']}: {failure['reason']}{tag}")
    if len(summary["failures"]) > 10:
        print(f"  ... {len(summary['failures']) - 10} more failures in the result file")


def main() -> int:
    parser = argparse.ArgumentParser(description="varkelly benchmark")
    parser.add_argument("--workload", required=True, choices=("solve", "montecarlo", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "varkelly" / "__init__.py").is_file():
        print(f"error: no varkelly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(args.seed, bool(args.trace))
    record = {"workload": args.workload, "seconds": args.seconds, "environment": env, **summary}
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")
    report(args.workload, env, summary)
    print(f"  result file: {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": summary["correct"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": summary["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
