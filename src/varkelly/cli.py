"""Command-line interface: solve, curve, simulate, compare, ingest.

stdout carries machine-readable data (JSON, or headerless CSV for
curve); stderr carries one-line diagnostics. Numbers are printed with 12
significant digits so output diffs catch numerical regressions. One
writer, ``_to_json``, prints the JSON of solve, compare, simulate and
ingest in a single walk over the payload: the bytes of
``json.dumps(payload, indent=2)`` on the payload with every float rounded,
and a non-finite float as the string "inf", "-inf" or "nan".

Exit codes: 0 success (including a no-bet recommendation), 2 invalid
input, 4 game not favorable, 5 degenerate trade data.

main(argv) may be called any number of times in one process. The
argparse parser is built once, when this module is imported, and each
call parses with it; each subcommand's handler is looked up when the
call runs, so no call leaves state for the next.

Importing this module loads only ``kelly``, ``distributions``,
``quadrature`` and ``errors``, which is all that solve, curve and compare
use. simulate loads ``montecarlo`` (and ``numpy.random``) when it first
runs, and ingest loads ``ingest`` (and ``csv``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import kelly
from .distributions import _float_text, _int_text, from_spec
from .errors import (
    DegenerateSampleError,
    EmptyFileError,
    InfiniteMeanError,
    NotFavorableError,
    TradeParseError,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NOT_FAVORABLE = 4
EXIT_DEGENERATE_DATA = 5

SIGNIFICANT_DIGITS = 12
_FORMAT = f".{SIGNIFICANT_DIGITS}g"


def _fmt(x: float) -> str:
    return format(x, _FORMAT)


def _json_float(x: float) -> str:
    """x rounded to 12 significant digits, as JSON text: what json.dumps
    writes for ``float(_fmt(x))``. A non-finite value (an overflowed
    bankroll) becomes the string "inf", "-inf" or "nan", so the output
    stays standard JSON."""
    text = format(x, _FORMAT)
    # With a "." and no exponent, or with a negative exponent, the text
    # already is the repr of the double it names. An integral value
    # ("3", "1e+13") is not: repr writes "3.0" and "10000000000000.0". Nor
    # is a subnormal, whose few bits repr may name in fewer digits:
    # "4.94065645841e-324" is the double 5e-324.
    if "." in text and "e" not in text or "e-" in text and abs(x) >= sys.float_info.min:
        return text
    if math.isfinite(x):
        return float.__repr__(float(text))
    return '"' + text + '"'


def _json(obj, indent: str) -> str:
    """obj as the JSON text of ``json.dumps(obj, indent=2)`` at the depth
    of ``indent``, each float rounded by ``_json_float``. TypeError for a
    value that json.dumps rejects, such as a numpy int or array, and for a
    dict key that is not a string."""
    inner = indent + "  "
    # Containers first: an ingested law is hundreds of [payoff, mass] lists.
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # Floats, most items of an ingested law or a simulate, skip a call.
        items = [_json_float(v) if type(v) is float else _json(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_escape(key) + ": " + _json(value, inner) for key, value in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(obj, float):
        return _json_float(obj)
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _to_json(payload: dict) -> str:
    return _json(payload, "") + "\n"


def _load_dist(args):
    try:
        if args.dist is not None:
            spec = json.loads(args.dist)
        else:
            with open(args.dist_file, encoding="utf-8") as handle:
                spec = json.load(handle)
    except RecursionError:  # the json parser's, on deep nesting
        raise ValueError("distribution spec is nested too deeply") from None
    return from_spec(spec)


def _game(args) -> kelly.GameSpec:
    return kelly.GameSpec(p=args.p, dist=_load_dist(args))


def _run_solve(args) -> str:
    game = _game(args)
    solution = kelly.solve_kelly(game)
    return _to_json(
        {
            "status": solution.status,
            "f_hat": solution.f_hat,
            "growth": solution.growth,
            "residual": solution.residual,
            "f_star_mean": solution.f_star_mean,
            "jensen_gap": solution.jensen_gap,
            "edge": kelly.edge(game),
        }
    )


def _run_curve(args) -> str:
    curve = kelly.growth_curve(_game(args), args.m)
    fractions, rates = curve.fractions.tolist(), curve.growth_rates.tolist()
    rows = [f"{_fmt(f)},{_fmt(g)}" for f, g in zip(fractions, rates)]
    return "\n".join(rows) + "\n"


def _run_simulate(args) -> str:
    from . import montecarlo

    cfg = montecarlo.SimConfig(
        n_rounds=args.n_rounds, n_paths=args.n_paths, f=args.f, seed=args.seed, x0=args.x0
    )
    result = montecarlo.simulate(_game(args), cfg)
    return _to_json(
        {
            "f": cfg.f,
            "n_rounds": cfg.n_rounds,
            "n_paths": cfg.n_paths,
            "seed": cfg.seed,
            "x0": cfg.x0,
            "mean_growth": result.mean_growth,
            "std_growth": result.std_growth,
            "min_final": result.min_final,
            "max_final": result.max_final,
            "growth_rates": result.growth_rates.tolist(),
        }
    )


def _run_compare(args) -> str:
    comparison = kelly.jensen_compare(_game(args))
    return _to_json(
        {"f_hat": comparison.f_hat, "f_star": comparison.f_star, "gap": comparison.gap}
    )


def _run_ingest(args) -> str:
    from . import ingest

    records = ingest.load_trades(args.csv)
    summary = ingest.build_empirical(records, bins=args.bins)
    return _to_json(
        {
            "p_hat": summary.p_hat,
            "dist_spec": summary.dist.to_spec(),
            "n_wins": summary.n_wins,
            "n_losses": summary.n_losses,
        }
    )


def _add_dist_flags(sub):
    sub.add_argument("--p", type=_float_text, required=True, help="win probability in (0, 1)")
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--dist", help="distribution spec as inline JSON")
    source.add_argument("--dist-file", help="path to a JSON distribution spec")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser. Each subcommand's handler looks up its ``_run_*``
    function when it runs, so a parser built once binds none of them."""
    parser = argparse.ArgumentParser(
        prog="varkelly",
        description="Growth-optimal bet sizing for games with a random win payoff.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", parents=[common], help="optimal betting fraction for a game")
    _add_dist_flags(solve)
    solve.set_defaults(handler=lambda args: _run_solve(args))

    curve = sub.add_parser(
        "curve", parents=[common], help="growth rate sampled on a fraction grid (CSV)"
    )
    _add_dist_flags(curve)
    curve.add_argument("--m", type=_int_text, required=True, help="grid steps (rows = m + 1)")
    curve.set_defaults(handler=lambda args: _run_curve(args))

    simulate = sub.add_parser(
        "simulate", parents=[common], help="Monte Carlo playout at a fixed fraction"
    )
    _add_dist_flags(simulate)
    simulate.add_argument("--f", type=_float_text, required=True, help="betting fraction in [0, 1)")
    simulate.add_argument("--n-rounds", type=_int_text, required=True, help="rounds per path")
    simulate.add_argument("--n-paths", type=_int_text, required=True, help="independent paths")
    simulate.add_argument("--seed", type=_int_text, default=0, help="random seed")
    simulate.add_argument("--x0", type=_float_text, default=1.0, help="initial bankroll")
    simulate.set_defaults(handler=lambda args: _run_simulate(args))

    compare = sub.add_parser(
        "compare", parents=[common], help="optimal fraction vs. the fixed-payoff fraction at the mean"
    )
    _add_dist_flags(compare)
    compare.set_defaults(handler=lambda args: _run_compare(args))

    ingest_cmd = sub.add_parser(
        "ingest", parents=[common], help="estimate a game from a trade-log CSV"
    )
    ingest_cmd.add_argument("csv", help="CSV of outcome,payoff rows")
    ingest_cmd.add_argument("--bins", type=_int_text, default=None, help="bin payoffs into a histogram")
    ingest_cmd.set_defaults(handler=lambda args: _run_ingest(args))
    return parser


def _diagnose(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


# Built once, at import, so that its cost is start-up and not per call.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    try:
        output = args.handler(args)
    except NotFavorableError as exc:
        return _diagnose(exc, EXIT_NOT_FAVORABLE)
    except DegenerateSampleError as exc:
        return _diagnose(exc, EXIT_DEGENERATE_DATA)
    # Only errors that bad input raises; a malformed JSON document raises
    # json.JSONDecodeError, a ValueError. from_spec turns a malformed spec's
    # TypeError or KeyError into ValueError, so a TypeError or KeyError that
    # reaches here is a bug and propagates instead of reading as bad input.
    except (
        ValueError,
        OSError,
        TradeParseError,
        EmptyFileError,
        InfiniteMeanError,
    ) as exc:
        return _diagnose(exc, EXIT_INVALID_INPUT)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(output)
        except OSError as exc:  # such as a directory that does not exist
            return _diagnose(exc, EXIT_INVALID_INPUT)
    else:
        sys.stdout.write(output)
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
