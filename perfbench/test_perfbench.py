"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest perfbench -q

They write only under perfbench/.work, like the benchmark itself.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import sweep  # noqa: E402
import worker  # noqa: E402
from run import WORK, fingerprint, op_counts  # noqa: E402


@pytest.fixture
def work_dir(request):
    """A scratch directory inside the checkout, removed after the test."""
    path = WORK / f"selftest-{request.node.name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _pass(tmp: Path, workload: str, name: str, inputs: Path | None = None, traced: bool = False) -> dict:
    result = tmp / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--pass-dir", str(tmp / name), "--result", str(result), "--t0", repr(time.monotonic())]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    if traced:
        cmd += ["--spans", str(tmp / f"{name}.spans.jsonl")]
    subprocess.run(cmd, check=True, timeout=120)
    return json.loads(result.read_text())


def _small_sweep(tmp: Path) -> Path:
    path = tmp / "sweep.jsonl"
    path.write_text(sweep.dumps(sweep.generate(seed=3, per_stratum=2)))
    return path


def test_same_seed_gives_byte_identical_sweep():
    assert sweep.dumps(sweep.generate(7)) == sweep.dumps(sweep.generate(7))
    assert sweep.dumps(sweep.generate(7)) != sweep.dumps(sweep.generate(8))


def test_sweep_mix_is_the_same_for_every_seed():
    for seed in (1, 2):
        requests = sweep.generate(seed)
        strata = Counter((r["scenario"]["family"], r["scenario"]["role"]["kind"]) for r in requests)
        assert set(strata.values()) == {sweep.PER_STRATUM}
        assert len(strata) == len(sweep.STRATA)
        kinds = Counter(r["request"] for r in requests)
        assert abs(kinds["check"] - kinds["bounds"]) <= len(sweep.STRATA)
        specs = {json.dumps({k: v for k, v in r["scenario"].items() if k != "id"}, sort_keys=True)
                 for r in requests}
        assert len(specs) == len(requests)


def test_two_traced_runs_count_identically(work_dir):
    inputs = _small_sweep(work_dir)
    first = _pass(work_dir, "sweep-mixed", "a", inputs, traced=True)
    second = _pass(work_dir, "sweep-mixed", "b", inputs, traced=True)
    assert first["missing_layers"] == []
    assert first["counters"] == second["counters"]
    assert first["counters"]["numerics.integrate.evals"] > 0
    spans = [json.loads(line) for line in (work_dir / "a.spans.jsonl").read_text().splitlines()]
    assert {"id", "name", "start", "end", "parent", "op"} <= set(spans[0])
    assert all(s["start"] <= s["end"] for s in spans)


def test_wrappers_leave_cli_output_unchanged(work_dir):
    inputs = _small_sweep(work_dir)
    plain = _pass(work_dir, "sweep-mixed", "plain", inputs)
    traced = _pass(work_dir, "sweep-mixed", "traced", inputs, traced=True)
    assert fingerprint(plain) == fingerprint(traced)
    plain = _pass(work_dir, "builtin-bounds", "bplain")
    traced = _pass(work_dir, "builtin-bounds", "btraced", traced=True)
    assert fingerprint(plain) == fingerprint(traced)
    # Only untraced passes sample the reference, and they do it during the request.
    assert plain["ref_samples"] >= 5 and plain["ref_s"] > 0
    assert traced["ref_samples"] == 0
    assert traced["counters"]["numerics.divergence.wasted_evals"] > 0


def test_fresh_interpreter_starts_with_cold_caches(work_dir):
    figures = _pass(work_dir, "builtin-bounds", "cold")
    assert figures["steinb_preloaded"] is False
    assert figures["warm_cache_entries"] == 0
    # The probe does see a cache once something has filled it.
    from steinb import Location, gaussian
    from steinb.families import bulk_radius

    bulk_radius(gaussian(Location(0.0)))
    assert worker.warm_cache_entries() > 0


def test_op_counts_do_not_depend_on_the_number_of_passes():
    one = {"requests": [{"ops": 1, "failed": 1}, {"ops": 12, "failed": 0}]}
    assert op_counts([one]) == op_counts([one] * 5) == (13, 1)


def test_sandwich_check_allows_rounding_only():
    assert worker.sandwich_holds({"lower": 1.0, "variance": 1.0 - 1e-12, "upper": "inf"})
    assert not worker.sandwich_holds({"lower": 1.1, "variance": 1.0, "upper": 2.0})
    assert not worker.sandwich_holds({"lower": 0.5, "variance": 1.0, "upper": 0.9})


def test_run_refuses_a_directory_without_the_program(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(HERE, work_dir / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper-table", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=work_dir, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
