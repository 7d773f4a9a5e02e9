"""One benchmark worker process: the process whose start-up, speed and
memory the benchmark reports.

    python3 perfbench/worker.py --workload solve --inputs FILE --mode run --seconds 10

It imports varkelly from the checkout's ``src``, builds the workload's
inputs through the public constructors and prints ``ready``; the time
until then is the set-up time. In ``setup`` mode it stops there.

In ``run`` mode it issues the request list in passes, each a closed loop
with one caller, until at least MIN_PASSES passes are done and
``--seconds`` have passed. A request's latency is the fastest of its
issues: the passes are seconds apart, so this filters out the phases in
which other tenants of a shared machine slow every request, and every
request must give the same answer on every pass. Successive passes run
on the usable CPUs in turn (the process's own affinity), because on a
shared host each CPU is slowed by other tenants at its own times. Between
passes it times the start-up of a ``setup``-mode worker, so that the
set-up samples are spread over the whole run as the latency samples are. In ``trace``
mode it issues the list untraced, once with spans installed, and
untraced again.

Either way it then prints one JSON line with the per-request outcomes;
run.py checks them and turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import varkelly as vk  # noqa: E402

MIN_PASSES = 2
# Fewest set-up samples a run takes, one between passes and the rest after.
MIN_SETUP_PROBES = 5
# Start-ups timed for the cli.interpreter_ms and cli.import_ms floors.
FLOOR_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 60


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------- building inputs ----------


def build(workload: str, inputs: list[dict]) -> list:
    if workload == "cli":
        # Part of set-up, as it is part of every command-line call's start-up.
        import varkelly.cli  # noqa: F401
    if workload == "solve":
        return [vk.GameSpec(g["p"], vk.from_spec(g["dist"])) for g in inputs]
    if workload == "montecarlo":
        built = []
        for r in inputs:
            game = vk.GameSpec(r["p"], vk.from_spec(r["dist"]))
            if r["shape"] == "short":
                built.append((game, vk.SimConfig(n_rounds=r["n_rounds"], n_paths=r["n_paths"], f=r["f"], seed=r["seed"])))
            else:
                built.append((game, dict(n_rounds=r["n_rounds"], n_paths=r["n_paths"], seed=r["seed"])))
        return built
    return inputs


# ---------- one request of each workload ----------


def describe_solution(sol) -> list:
    fields = (sol.f_hat, sol.growth, sol.residual, sol.f_star_mean, sol.jensen_gap)
    return [sol.f_hat, sol.status, sol.jensen_gap, all(np.isfinite(fields))]


def montecarlo_request(item):
    game, shape, request = item
    if request["shape"] == "short":
        return vk.simulate(game, shape)
    return vk.grid_scan(game, request["grid_size"], **shape)


def describe_montecarlo(result, request: dict) -> list:
    """Mean and standard deviation of the growth rate at the requested f,
    or for a grid scan at the grid fraction nearest to it."""
    if request["shape"] == "short":
        return [result.mean_growth, result.std_growth, request["f"]]
    j = int(np.argmin(np.abs(result.fractions - request["f"])))
    return [float(result.mean_growth[j]), float(result.std_growth[j]), float(result.fractions[j])]


class CliRunner:
    """Issues cli requests in-process through ``varkelly.cli.main``."""

    def __init__(self, requests: list[dict]):
        self.requests = requests
        self.outputs: dict[int, tuple[int, str]] = {}

    def argv(self, i: int) -> list[str]:
        request = self.requests[i]
        if request["kind"] != "solve_file":
            return request["argv"]
        code, text = self.outputs.get(request["after"], (1, ""))
        p_hat = json.loads(text)["p_hat"] if code == 0 else 0.5
        with open(request["spec_path"], "w", encoding="utf-8") as handle:
            json.dump(json.loads(text)["dist_spec"] if code == 0 else {}, handle)
        return ["solve", "--p", repr(p_hat), "--dist-file", request["spec_path"]]

    def call(self, argv: list[str]) -> tuple[int, str]:
        # Looked up at call time, so that a traced run sees the wrapper.
        from varkelly import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()


# ---------- closed loops ----------


def one_pass(issuer, n: int):
    """Issue requests 0..n-1 once; returns per-request records
    [index, latency_s, outcome, error] and the pass's wall time.

    ``issuer`` is a (prepare, issue, describe) triple: only issue(prepare(i))
    is timed; the benchmark's own work before and after it is not.
    """
    prepare, issue, describe = issuer
    records = []
    start = time.perf_counter()
    for i in range(n):
        latency = 0.0
        try:
            prepared = prepare(i)
            t0 = time.perf_counter()
            try:
                result = issue(prepared)
            finally:
                latency = time.perf_counter() - t0
            outcome, error = describe(i, result), None
        except Exception as exc:  # a failed request is recorded, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        records.append([i, latency, outcome, error])
    return records, time.perf_counter() - start


def issuer(workload: str, inputs: list[dict], built: list, cli: CliRunner | None):
    if workload == "solve":
        # Looked up at call time, so that a traced run sees the wrapper.
        return (lambda k: built[k]), (lambda game: vk.solve_kelly(game)), lambda k, sol: describe_solution(sol)
    if workload == "montecarlo":
        return (
            lambda k: (*built[k], inputs[k]),
            montecarlo_request,
            lambda k, result: describe_montecarlo(result, inputs[k]),
        )

    def describe(k, result):
        cli.outputs[k] = result
        return list(result)

    return (lambda k: cli.argv(k)), cli.call, describe


# ---------- checks that need the library itself ----------


def _rounded(x: float) -> float:
    from varkelly.cli import SIGNIFICANT_DIGITS

    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def check_cli(requests: list[dict], records: list, cli: CliRunner) -> list[dict]:
    """Exit code, parseable output, agreement with the in-process library."""
    failures = []
    for i, _, outcome, error in records:
        request = requests[i]
        if error is not None:
            failures.append({"request": i, "reason": error})
            continue
        code, text = outcome
        try:
            problem = f"exit code {code}" if code != 0 else _check_cli_output(request, text, cli, i)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failures.append({"request": i, "reason": f"{request['kind']}: {problem}"})
    for record in records:
        if record[2] is not None:
            record[2] = record[2][0]  # the exit code; the output is checked
    return failures


def _check_cli_output(request: dict, text: str, cli: CliRunner, k: int) -> str | None:
    kind = request["kind"]
    if kind == "curve":
        rows = [line.split(",") for line in text.strip().splitlines()]
        values = [(float(f), float(g)) for f, g in rows]
        expected = int(request["argv"][request["argv"].index("--m") + 1]) + 1
        return None if len(values) == expected and values[0] == (0.0, 0.0) else "malformed curve"
    out = json.loads(text)
    if kind == "simulate":
        n_paths = int(request["argv"][request["argv"].index("--n-paths") + 1])
        return None if len(out["growth_rates"]) == n_paths else "wrong number of growth rates"
    if kind == "ingest":
        counts = request["counts"]
        if (out["n_wins"], out["n_losses"]) != (counts["n_wins"], counts["n_losses"]):
            return f"counted {out['n_wins']}/{out['n_losses']}, wrote {counts['n_wins']}/{counts['n_losses']}"
        if vk.from_spec(out["dist_spec"]).to_spec() != out["dist_spec"]:
            return "dist_spec does not round-trip through from_spec"
        return None
    if kind == "compare":
        ref = vk.jensen_compare(vk.GameSpec(request["p"], vk.from_spec(request["dist"])))
        expected = {"f_hat": ref.f_hat, "f_star": ref.f_star, "gap": ref.gap}
    else:
        if kind == "solve":
            game = vk.GameSpec(request["p"], vk.from_spec(request["dist"]))
        else:
            argv = cli.argv(k)
            with open(request["spec_path"], encoding="utf-8") as handle:
                game = vk.GameSpec(float(argv[argv.index("--p") + 1]), vk.from_spec(json.load(handle)))
        sol = vk.solve_kelly(game)
        expected = {
            "status": sol.status,
            "f_hat": sol.f_hat,
            "growth": sol.growth,
            "residual": sol.residual,
            "f_star_mean": sol.f_star_mean,
            "jensen_gap": sol.jensen_gap,
        }
    for key, value in expected.items():
        want = _rounded(value) if isinstance(value, float) else value
        if out[key] != want:
            return f"{key} = {out[key]!r}, in-process {want!r}"
    return None


def check_montecarlo(inputs: list[dict], built: list, records: list, seed: int) -> list[dict]:
    """Re-run one sampled request of each shape: the same seed must give
    identical results, and one grid column must equal simulate at f_j."""
    failures = []
    done = [r for r in records if r[3] is None]
    pick = random.Random(seed)
    for shape in ("short", "long"):
        candidates = [r for r in done if inputs[r[0]]["shape"] == shape]
        if not candidates:
            continue
        i = pick.choice(candidates)[0]
        game, cfg = built[i]
        if shape == "short":
            first, again = vk.simulate(game, cfg), vk.simulate(game, cfg)
            if not np.array_equal(first.growth_rates, again.growth_rates):
                failures.append({"request": i, "reason": "simulate re-run with the same seed differs"})
            continue
        first = vk.grid_scan(game, inputs[i]["grid_size"], **cfg)
        again = vk.grid_scan(game, inputs[i]["grid_size"], **cfg)
        if not np.array_equal(first.mean_growth, again.mean_growth):
            failures.append({"request": i, "reason": "grid_scan re-run with the same seed differs"})
        j = pick.randrange(1, len(first.fractions))
        column = vk.simulate(game, vk.SimConfig(f=float(first.fractions[j]), **cfg))
        if (column.mean_growth, column.std_growth) != (first.mean_growth[j], first.std_growth[j]):
            failures.append(
                {
                    "request": i,
                    "reason": f"grid_scan column {j} differs from simulate at f_{j}",
                    "known_defect": "grid_column_mismatch",
                }
            )
    return failures


# ---------- modes ----------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def startup_ms(code: str) -> float:
    times = []
    for _ in range(FLOOR_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=cli_env(), check=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def setup_probe(argv: list[str]) -> float:
    """Start a set-up-only worker; returns the seconds until it is ready."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed (exit code {proc.returncode})")
    return elapsed


def run(workload, inputs, built, seconds, seed, probe_argv) -> dict:
    cli = CliRunner(inputs) if workload == "cli" else None
    issue = issuer(workload, inputs, built, cli)
    records, wall = one_pass(issue, len(inputs))
    pass_walls = [wall]
    setups = []
    changed: dict[int, int] = {}
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter() - wall
    while len(pass_walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        os.sched_setaffinity(0, {cpus[len(pass_walls) % len(cpus)]})
        setups.append(setup_probe(probe_argv))
        again, wall = one_pass(issue, len(inputs))
        pass_walls.append(wall)
        for record, repeat in zip(records, again):
            record[1] = min(record[1], repeat[1])
            if json.dumps(repeat[2:]) != json.dumps(record[2:]):
                changed.setdefault(record[0], len(pass_walls))
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(setup_probe(probe_argv))
    failures = [{"request": i, "reason": f"answer changed on pass {n}"} for i, n in changed.items()]
    failures += _library_checks(workload, inputs, built, records, cli, seed)
    return {
        "records": records,
        "pass_wall_s": pass_walls,
        "setup_s": setups,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }


def _library_checks(workload, inputs, built, records, cli, seed) -> list[dict]:
    if workload == "montecarlo":
        return check_montecarlo(inputs, built, records, seed)
    if workload == "cli":
        return check_cli(inputs, records, cli)
    return []


def trace(workload, inputs, built, seed, spans_path) -> dict:
    """One traced pass between two untraced ones; the faster untraced pass
    is the base of the tracing overhead."""
    import tracing

    def runner():
        return CliRunner(inputs) if workload == "cli" else None

    untraced = issuer(workload, inputs, built, runner())
    _, untraced_wall = one_pass(untraced, len(inputs))
    tracer = tracing.Tracer()
    cli = runner()
    prepare, issue, describe = issuer(workload, inputs, built, cli)

    def traced_prepare(k):
        tracer.request = k
        return prepare(k)

    tracer.install()
    try:
        records, traced_wall = one_pass((traced_prepare, issue, describe), len(inputs))
    finally:
        tracer.uninstall()
    untraced_wall = min(untraced_wall, one_pass(untraced, len(inputs))[1])
    failures = _library_checks(workload, inputs, built, records, cli, seed)
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans)
    interpreter = startup_ms("pass")
    metrics["cli.interpreter_ms"] = interpreter
    metrics["cli.import_ms"] = startup_ms("import varkelly.cli") - interpreter
    return {
        "records": records,
        "pass_wall_s": [traced_wall],
        "failures": failures,
        "layers": metrics,
        "overhead": {
            "traced_requests_per_s": len(inputs) / traced_wall,
            "untraced_requests_per_s": len(inputs) / untraced_wall,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "montecarlo", "cli"))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    with open(args.inputs, encoding="utf-8") as handle:
        inputs = json.load(handle)
    built = build(args.workload, inputs)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "run":
        probe_argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--inputs", args.inputs, "--mode", "setup",
        ]
        result = run(args.workload, inputs, built, args.seconds, args.seed, probe_argv)
    else:
        result = trace(args.workload, inputs, built, args.seed, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
