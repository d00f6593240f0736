import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SCRIPT = REPO / "scripts" / "compare_bounds.py"


@pytest.mark.parametrize("family", ["exponential", "gamma"])
def test_prints_a_header_and_one_row_per_test_function(family):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, str(SCRIPT), "--family", family],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["h", "lower", "variance", "upper", "comparators"]
    assert [row.split()[0] for row in rows] == ["linear", "square", "sqrt", "x+x^2/2", "x^3"]
