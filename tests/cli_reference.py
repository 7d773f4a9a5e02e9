"""The two-step JSON encoder that ``varkelly.cli`` used before its
one-pass writer, kept as the writer's oracle.

``round_floats`` rebuilds the payload with every float rounded to
``SIGNIFICANT_DIGITS`` (a non-finite one as its ``str``), and
``to_json_reference`` hands the result to ``json.dumps(..., indent=2)``.
The tests require ``cli._to_json`` to return the same text, or raise
TypeError where this does.
"""

import json
import math

from varkelly.cli import SIGNIFICANT_DIGITS


def round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.{SIGNIFICANT_DIGITS}g}") if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: round_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(value) for value in obj]
    return obj


def to_json_reference(payload) -> str:
    return json.dumps(round_floats(payload), indent=2) + "\n"
