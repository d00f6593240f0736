"""Smoke test of scripts/stage_cells.py: it runs a command in its own
interpreter and accounts for every GK15 cell and every series term of the
discrete walks."""

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
    # The counts are deterministic.  Every Fisher information of the builtin
    # matrix is a closed form, so its stage has no cell and no term; the one
    # -component runs ("scalar") are exp-sca-h-sqrt's two divergent
    # comparator moments, 74 cells each.  A discrete report's E[h^2], E[h]
    # and lower bound's numerator are one walk ("shared").
    counts = {stage: (s["scalar"], s["row"], s["components"], s["terms"]) for stage, s in stages.items()}
    assert counts == {
        "suite": (0, 140, 772, 295),
        "falsification": (0, 0, 0, 0),
        "fisher": (0, 0, 0, 0),
        "variance": (0, 0, 400, 0),
        "lower": (0, 0, 184, 0),
        "upper": (0, 0, 124, 0),
        "comparators": (148, 0, 320, 0),
        "tightness": (0, 0, 0, 0),
        "other": (0, 0, 0, 0),
        "shared": (0, 200, 0, 395),
    }
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
