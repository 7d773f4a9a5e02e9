"""Spans around varkelly's public functions, installed from outside.

A ``Tracer`` replaces each traced function with a wrapper that records
one span per call: name, start, end, parent span and request id. The
wrapper is set on the defining module (or class) and on the ``varkelly``
re-export, so calls between modules, which look the name up at call
time, are seen too. ``uninstall`` puts every original object back.

Spans are kept in memory; ``layer_metrics`` turns them into the
per-layer numbers, and ``write`` saves them when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

import numpy as np

KELLY_FUNCTIONS = ("solve_kelly", "growth_derivative", "growth_rate", "growth_curve")
DIST_METHODS = ("payoff_transform", "log_growth_win", "mean", "variance", "sample")
MONTECARLO_FUNCTIONS = ("simulate", "grid_scan")
INGEST_FUNCTIONS = ("load_trades", "build_empirical")
RNG_CONSTRUCTORS = ("default_rng", "Generator", "SeedSequence", "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937")

TRANSFORMS = ("payoff_transform", "log_growth_win")
MOMENTS = ("mean", "variance")

# Span record fields. NOTE holds what a call did: integrand evaluations
# for quadrature.integrate, (paths, rounds) for a simulation, rows for
# load_trades.
NAME, START, END, PARENT, REQUEST, ERROR, NOTE = range(7)


def _sim_note(args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[1]
    return (cfg.n_paths, cfg.n_rounds)


def _grid_note(args, kwargs, result):
    return (int(kwargs["n_paths"]), int(kwargs["n_rounds"]))


def _rows_note(args, kwargs, result):
    return len(result)


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self.integrand_evals = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, self.request, None, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[ERROR] = type(exc).__name__
                raise
            finally:
                record[END] = clock()
                stack.pop()
            if note is not None:
                record[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, modules, attr: str, name: str, wrapper_for):
        """Wrap module attribute ``attr`` on every module in ``modules`` that
        holds the same object, so a re-export shares one wrapper."""
        original = getattr(modules[0], attr, None)
        if original is None:
            return
        wrapper = wrapper_for(name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap varkelly's public functions, ``cli.main`` and numpy's RNG constructors."""
        import varkelly as vk
        from varkelly import cli, distributions, ingest, kelly, montecarlo, quadrature

        plain = self.wrap
        for attr in KELLY_FUNCTIONS:
            self._patch_function([kelly, vk], attr, f"kelly.{attr}", plain)
        families = [
            cls
            for cls in vars(distributions).values()
            if isinstance(cls, type) and issubclass(cls, distributions.PayoffDistribution)
        ]
        for cls in families:
            for attr in DIST_METHODS:
                if attr in vars(cls):
                    self._patch(cls, attr, self.wrap(f"distributions.{cls.__name__}.{attr}", vars(cls)[attr]))
        self._patch_function([quadrature, vk], "integrate", "quadrature.integrate", self._integrate_wrapper)
        notes = {"simulate": _sim_note, "grid_scan": _grid_note}
        for attr in MONTECARLO_FUNCTIONS:
            self._patch_function(
                [montecarlo, vk], attr, f"montecarlo.{attr}", lambda name, fn: self.wrap(name, fn, notes[attr])
            )
        for attr in INGEST_FUNCTIONS:
            note = _rows_note if attr == "load_trades" else None
            self._patch_function([ingest, vk], attr, f"ingest.{attr}", lambda name, fn: self.wrap(name, fn, note))
        for attr in RNG_CONSTRUCTORS:
            self._patch_function([np.random], attr, f"rng.{attr}", plain)
        self._patch_function([cli], "main", "cli.main", plain)

    def _integrate_wrapper(self, name, fn):
        tracer = self

        def integrate(f, *args, **kwargs):
            def counted(x):
                tracer.integrand_evals += getattr(x, "size", 1)
                return f(x)

            before = tracer.integrand_evals
            try:
                return fn(counted, *args, **kwargs)
            finally:
                tracer.spans[tracer._stack[-1]][NOTE] = tracer.integrand_evals - before

        return self.wrap(name, integrate)

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Save the spans as JSON lines: name, start_ns, end_ns, parent, request, error, note."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _union_ns(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    return [
        (record[END] - record[START]) - _union_ns(children.get(i, ()))
        for i, record in enumerate(spans)
    ]


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def _has_ancestor(spans, i: int, predicate) -> bool:
    parent = spans[i][PARENT]
    while parent >= 0:
        if predicate(spans[parent][NAME]):
            return True
        parent = spans[parent][PARENT]
    return False


def _busy_ns(spans, predicate) -> int:
    """Time inside spans matching ``predicate``, counting nested ones once."""
    return sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if predicate(s[NAME]) and not _has_ancestor(spans, i, predicate)
    )


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times from a list of span records."""
    own = self_times_ns(spans)
    ms = 1e-6

    def named(suffixes):
        return lambda name: name.rsplit(".", 1)[-1] in suffixes

    def in_layer(prefix):
        return lambda name: layer(name) == prefix

    def count(predicate):
        return sum(1 for s in spans if predicate(s[NAME]))

    def self_ns(predicate):
        return sum(t for s, t in zip(spans, own) if predicate(s[NAME]))

    def note_sum(predicate):
        return sum(s[NOTE] for s in spans if predicate(s[NAME]) and s[NOTE])

    is_solve = lambda name: name == "kelly.solve_kelly"  # noqa: E731
    is_gprime = lambda name: name == "kelly.growth_derivative"  # noqa: E731
    is_integrate = lambda name: name == "quadrature.integrate"  # noqa: E731
    is_mc = in_layer("montecarlo")
    is_dist = in_layer("distributions")
    is_transform = lambda name: is_dist(name) and named(TRANSFORMS)(name)  # noqa: E731
    is_moment = lambda name: is_dist(name) and named(MOMENTS)(name)  # noqa: E731
    is_sample = lambda name: is_dist(name) and named(("sample",))(name)  # noqa: E731

    solves = count(is_solve)
    gprime_in_solve = sum(
        1 for i, s in enumerate(spans) if is_gprime(s[NAME]) and _has_ancestor(spans, i, is_solve)
    )
    integrates = count(is_integrate)
    evals = note_sum(is_integrate)
    paths = sum(s[NOTE][0] for s in spans if is_mc(s[NAME]) and s[NOTE])
    path_rounds = sum(s[NOTE][0] * s[NOTE][1] for s in spans if is_mc(s[NAME]) and s[NOTE])
    mc_busy = _busy_ns(spans, is_mc)
    rng_in_mc = sum(
        s[END] - s[START]
        for i, s in enumerate(spans)
        if layer(s[NAME]) == "rng"
        and _has_ancestor(spans, i, is_mc)
        and not _has_ancestor(spans, i, in_layer("rng"))
    )
    main_calls = [i for i, s in enumerate(spans) if s[NAME] == "cli.main"]
    return {
        "kelly.solve_calls": solves,
        "kelly.gprime_evals_per_solve": gprime_in_solve / solves if solves else 0.0,
        "kelly.g_evals": count(lambda name: name == "kelly.growth_rate"),
        "kelly.busy_ms": _busy_ns(spans, in_layer("kelly")) * ms,
        "kelly.self_ms": self_ns(in_layer("kelly")) * ms,
        "distributions.transform_calls": count(is_transform),
        "distributions.moment_calls": count(is_moment),
        "distributions.transform_self_ms": self_ns(is_transform) * ms,
        "distributions.sample_calls": count(is_sample),
        "distributions.sample_ms": _busy_ns(spans, is_sample) * ms,
        "quadrature.integrate_calls": integrates,
        "quadrature.integrand_evals": evals,
        "quadrature.evals_per_integrate": evals / integrates if integrates else 0.0,
        "quadrature.busy_ms": _busy_ns(spans, is_integrate) * ms,
        "quadrature.nonconverged": sum(
            1 for s in spans if is_integrate(s[NAME]) and s[ERROR] == "NonConvergenceError"
        ),
        "montecarlo.paths": paths,
        "montecarlo.path_rounds": path_rounds,
        "montecarlo.rng_setup_ms": rng_in_mc * ms,
        "montecarlo.self_ms": self_ns(is_mc) * ms,
        "montecarlo.us_per_path": mc_busy * 1e-3 / paths if paths else 0.0,
        "montecarlo.ns_per_path_round": mc_busy / path_rounds if path_rounds else 0.0,
        "ingest.rows": note_sum(lambda name: name == "ingest.load_trades"),
        "ingest.load_ms": _busy_ns(spans, lambda name: name == "ingest.load_trades") * ms,
        "ingest.build_ms": _busy_ns(spans, lambda name: name == "ingest.build_empirical") * ms,
        "cli.main_ms": statistics.fmean(spans[i][END] - spans[i][START] for i in main_calls) * ms
        if main_calls
        else 0.0,
        "cli.self_ms": statistics.fmean(own[i] for i in main_calls) * ms if main_calls else 0.0,
    }
