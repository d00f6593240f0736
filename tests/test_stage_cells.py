"""Smoke test of scripts/stage_cells.py: it runs a command in its own
interpreter and accounts for every GK15 cell of both kernels and every
series term of the discrete walks."""

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
    # A discrete report's E[h^2], E[h] and lower bound's numerator are one
    # walk, its Fisher information another; no walk goes unstaged.
    assert sum(stages[s]["terms"] for s in ("variance", "lower", "shared")) > 0
    assert stages["fisher"]["terms"] > 0 and stages["other"]["terms"] == 0
    assert result["total_ms"] > 0


def test_a_missing_target_is_an_error_on_this_tree():
    # Staging finds the engine in families.py; on this tree a name it
    # rebinds that has gone stops the script instead of leaving cells unstaged.
    code = (
        "import runpy, sys\n"
        f"sys.path.insert(0, {str(REPO / 'src')!r})\n"
        "import steinb.families\n"
        "del steinb.families._alone\n"
        f"sys.argv = [{str(SCRIPT)!r}, 'bounds']\n"
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 1
    assert "steinb.families._alone is gone" in done.stderr
