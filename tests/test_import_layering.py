"""Import layering: a CLI subcommand loads only the layers it runs.

Every package ``__init__`` resolves its exports lazily
(:mod:`repro._lazy`) and ``repro.cli`` imports per subcommand, so the
compile stack -- numpy, scipy, networkx, :mod:`repro.compiler` and the
event loop of :mod:`repro.sim.experiment` -- loads only for the
subcommands that compile or simulate.  Each check runs a fresh
interpreter and reads ``sys.modules`` after the command returned: no
wall clock, so the result is the same on any machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parent.parent
BASELINES = ROOT / "benchmarks" / "baselines"

#: what a subcommand that neither compiles nor simulates must not load
COMPILE_STACK = ("numpy", "scipy", "networkx", "repro.compiler",
                 "repro.sim.experiment")
#: what no reporting subcommand needs (numpy is allowed: the cluster
#: model and the timeline use it)
GRAPH_STACK = ("scipy", "networkx")

_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
rc = None
if argv is not None:
    from repro.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
watched = json.loads(sys.argv[2])
print(json.dumps({"rc": rc,
                  "loaded": [m for m in watched if m in sys.modules]}))
"""


def _loaded(argv, watched=COMPILE_STACK, setup="import repro.cli"):
    """Run ``setup`` then ``main(argv)`` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", setup + "\n" + _PROBE,
         json.dumps(argv), json.dumps(list(watched))],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("setup", ["import repro", "import repro.cli"])
def test_importing_the_package_loads_no_compile_stack(setup):
    assert _loaded(None, setup=setup)["loaded"] == []


@pytest.mark.parametrize("argv", [["links"], ["partition"],
                                  ["partition", "--device", "VU13P"]],
                         ids=" ".join)
def test_light_subcommands_load_no_compile_stack(argv):
    probe = _loaded(argv)
    assert probe == {"rc": 0, "loaded": []}


@pytest.mark.parametrize("argv", [
    ["status"],
    ["report", "--trace", str(BASELINES / "health_demo.jsonl")],
    ["report", "--results", str(ROOT / "benchmarks" / "results"),
     "--output", "{tmp}/REPORT.md"],
    ["diff", str(BASELINES / "chaos_rack.jsonl"),
     str(BASELINES / "chaos_rack.jsonl"), "--fail-on-regression"],
], ids=lambda argv: argv[0])
def test_reporting_subcommands_load_no_graph_stack(argv, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    probe = _loaded(argv, watched=GRAPH_STACK)
    assert probe == {"rc": 0, "loaded": []}


def test_cold_simulate_prints_the_warm_table(capsys):
    """A cold ``python -m repro simulate`` -- every layer imported on
    demand -- prints the bytes this process prints with the whole
    stack already loaded."""
    argv = ["simulate", "--set", "1", "--requests", "20", "--boards",
            "4", "--seed", "3",
            "--managers", "per-device,slot-based,amorphos-ht,vital"]
    cold = subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert cold.returncode == 0, cold.stderr[-2000:]
    import repro.sim.experiment  # noqa: F401 -- warm: loaded up front
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "vital" in warm
    assert cold.stdout == warm


def test_parser_manager_names_are_the_factories():
    """The parser's light copy of the manager names stays in step."""
    from repro.cli import _MANAGERS
    from repro.sim.experiment import MANAGER_FACTORIES
    assert list(_MANAGERS) == list(MANAGER_FACTORIES)
