"""Smoke test of scripts/stage_cells.py: it runs a command in its own
interpreter and accounts for every GK15 cell of both kernels."""

import json
import os
import subprocess
import sys
from pathlib import Path

from steinb import cli

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "stage_cells.py"


def test_builtin_bounds_cells_add_up(count_cells, capsys):
    env = {k: v for k, v in os.environ.items() if k != "STEINB_TOL"}
    done = subprocess.run([sys.executable, str(SCRIPT), "bounds", "--json"], capture_output=True, text=True,
                          env=env, check=True)
    result = json.loads(done.stdout)
    stages = result["stages"]
    assert set(stages) == {"suite", "falsification", "fisher", "variance", "lower", "upper", "comparators",
                           "tightness", "other", "shared"}
    # Every cell of the same command, counted in this interpreter.
    assert cli.main(["bounds", "--format", "json", "--jobs", "1"]) == 0
    capsys.readouterr()
    assert sum(s["scalar"] + s["row"] for s in stages.values()) == count_cells()
    # A row cell holds at least one component, and the identity suites and
    # Fisher informations of the builtin matrix run on their own kernels.
    assert sum(s["components"] for s in stages.values()) >= sum(s["row"] for s in stages.values())
    assert stages["suite"]["row"] > 0 and stages["suite"]["scalar"] == 0
    assert stages["fisher"]["scalar"] > 0 and stages["fisher"]["row"] == 0
    assert stages["variance"]["components"] > 0
    assert result["total_ms"] > 0
