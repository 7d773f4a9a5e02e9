"""What ``import varkelly`` loads, and the names it loads on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varkelly
from varkelly import distributions, errors, ingest, kelly, montecarlo

SRC = str(Path(varkelly.__file__).resolve().parent.parent)
DEFERRED = ("numpy.random", "csv", "varkelly.montecarlo", "varkelly.ingest")
GAME = ["--p", "0.6", "--dist", '{"type": "uniform", "lo": 0.5, "hi": 2.0}']


def _loaded_after(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; returns which of DEFERRED it left loaded."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps({{m: m in sys.modules for m in {DEFERRED!r}}}))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("command", [["solve"], ["compare"], ["curve", "--m", "4"]], ids=lambda c: c[0])
def test_import_and_command_load_neither_monte_carlo_nor_ingest(command):
    loaded = _loaded_after(
        "import varkelly, varkelly.cli\n"
        f"assert varkelly.cli.main([*{command!r}, *{GAME!r}]) == 0"
    )
    assert not any(loaded.values()), loaded


def test_simulate_loads_monte_carlo_but_not_ingest():
    loaded = _loaded_after(
        "from varkelly import cli\n"
        f"assert cli.main(['simulate', *{GAME!r}, '--f', '0.2', '--n-rounds', '5', '--n-paths', '2']) == 0"
    )
    assert loaded["varkelly.montecarlo"] and loaded["numpy.random"]
    assert not loaded["varkelly.ingest"] and not loaded["csv"]


def test_ingest_loads_ingest_but_not_monte_carlo(tmp_path):
    trades = tmp_path / "trades.csv"
    trades.write_text("outcome,payoff\nwin,1.5\nloss,\nwin,2.25\n")
    loaded = _loaded_after(f"from varkelly import cli\nassert cli.main(['ingest', {str(trades)!r}]) == 0")
    assert loaded["varkelly.ingest"] and loaded["csv"]
    assert not loaded["varkelly.montecarlo"] and not loaded["numpy.random"]


def test_every_public_name_is_its_defining_modules_object():
    modules = {module.__name__: module for module in (distributions, errors, ingest, kelly, montecarlo)}
    for name in varkelly.__all__:
        obj = getattr(varkelly, name)
        assert obj.__module__ in modules, name
        assert vars(modules[obj.__module__])[name] is obj, name


def test_dir_and_star_import_cover_all():
    assert set(varkelly.__all__) <= set(dir(varkelly))
    namespace = {}
    exec("from varkelly import *", namespace)
    for name in varkelly.__all__:
        assert namespace[name] is getattr(varkelly, name), name


def test_a_lazy_name_follows_its_module():
    # Looked up on every access, never cached on the package.
    original = montecarlo.simulate
    try:
        montecarlo.simulate = replacement = object()
        assert varkelly.simulate is replacement
    finally:
        montecarlo.simulate = original
    assert varkelly.simulate is original
    assert "simulate" not in vars(varkelly)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        varkelly.no_such_name
    assert not hasattr(varkelly, "integrate")
