import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "diff_reports.py"
_spec = importlib.util.spec_from_file_location("diff_reports", SCRIPT)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def _outcome(rc=0, stdout="", stderr="", file=None):
    return {"rc": rc, "stdout": stdout, "stderr": stderr,
            "file": None if file is None else json.dumps(file).encode().hex()}


def test_every_difference_is_a_leaf():
    old = _outcome(0, "a 1.0 True\nb 2.0 True\n", "", [{"identity_checks": [{"value": 1e-17, "pass": True}]}])
    new = _outcome(1, "a 1.0 True\nb 3.0 True\nc\n", "warn\n",
                   [{"identity_checks": [{"value": 2e-17, "pass": True}], "extra": 1}])
    assert list(diff_reports.all_leaves(old, new)) == [
        ("rc", 0, 1),
        ("file[0].identity_checks[0].value", 1e-17, 2e-17),
        ("file[0].extra", diff_reports._MISSING, 1),
        ("stdout:2", "b 2.0 True", "b 3.0 True"),
        ("stdout:3", diff_reports._MISSING, "c"),
        ("stderr:1", diff_reports._MISSING, "warn"),
    ]


def test_json_stdout_is_compared_leaf_by_leaf():
    old, new = _outcome(stdout='{"x": [1, 2]}'), _outcome(stdout='{"x": [1, 5]}')
    assert list(diff_reports.all_leaves(old, new)) == [("stdout.x[1]", 2, 5)]
    assert diff_reports.json_diff_lines(old, new) == ["    stdout.x[1]: 2 -> 5"]


def test_identical_calls_have_no_leaves():
    same = _outcome(0, "x\n", "", {"a": 1})
    assert list(diff_reports.all_leaves(same, dict(same))) == []


def test_builtin_calls_cover_a_loose_tolerance_and_the_probe_file(tmp_path):
    calls = dict(diff_reports.requests([], tmp_path, tmp_path / "report.out"))
    # 4 per input, the paper table, 2 at --tol 1e-6, 2 through the process pool,
    # 4 on the probe file and 4 on the shared-law file
    assert len(calls) == 21
    assert calls["builtin/check-tol"][:3] == ["check", "--tol", "1e-6"]
    assert calls["builtin/bounds-tol"] == ["bounds", "--tol", "1e-6"]
    assert calls["builtin/bounds-jobs2"] == ["bounds", "--format", "json", "--jobs", "2"]
    assert calls["builtin/check-jobs2"] == ["check", "--jobs", "2", "--out", str(tmp_path / "report.out")]
    probe = str(diff_reports.PROBE)
    assert calls["probe/check"][:2] == ["check", probe]
    assert calls["probe/bounds-json"] == ["bounds", probe, "--format", "json"]
    assert calls["probe/check-jobs2"] == ["check", probe, "--jobs", "2", "--out", str(tmp_path / "report.out")]
    assert calls["probe/bounds-jobs2"] == ["bounds", probe, "--format", "json", "--jobs", "2"]
    shared, out = str(diff_reports.SHARED), str(tmp_path / "report.out")
    assert calls["shared/check"] == ["check", shared, "--out", out]
    assert calls["shared/check-jobs2"] == ["check", shared, "--jobs", "2", "--out", out]
    assert calls["shared/bounds-json"] == ["bounds", shared, "--format", "json"]
    assert calls["shared/bounds-jobs2"] == ["bounds", shared, "--format", "json", "--jobs", "2"]


def test_leaves_are_counted_by_path_class():
    leaves = [
        {"call": "a", "path": "file[0].identity_checks[3].value", "old": 1e-17, "new": 2e-17},
        {"call": "b", "path": "file[12].identity_checks[0].value", "old": 0.0, "new": 1e-17},
        {"call": "b", "path": "stdout:4", "old": "x", "new": "y"},
        {"call": "c", "path": "stdout:17", "old": "x", "new": "z"},
        {"call": "c", "path": "file[0].identity_checks[1].value", "old": 3e-12, "new": 8e-15},
        {"call": "d", "path": "rc", "old": 0, "new": 1},
        {"call": "e", "path": None, "old": True, "new": False},
    ]
    assert diff_reports.class_counts(leaves) == [
        "file[*].identity_checks[*].value: 3",
        "stdout: 2",
        "(call): 1",
        "rc: 1",
    ]
    assert diff_reports.class_counts([{"call": "a", "path": "rc", "old": 0, "new": 1}] * 3084) == ["rc: 3,084"]
    assert diff_reports.class_counts([]) == []


def test_sweep_keys_fold_into_call_classes():
    assert diff_reports.call_class("sweep/seed1/gamma-scale-002/bounds") == "sweep/gamma-scale/bounds"
    assert diff_reports.call_class("sweep/seed12/sas-gaussian-skew-013/check") == "sweep/sas-gaussian-skew/check"
    assert diff_reports.call_class("builtin/bounds-tol") == "builtin/bounds-tol"
    assert diff_reports.call_class("paper-table") == "paper-table"


def test_relative_moves_read_numbers_only():
    assert diff_reports.relative_move(2.0, 2.0) == 0.0
    assert diff_reports.relative_move(4.0, 5.0) == 0.2
    assert diff_reports.relative_move(0.0, -2.2e-16) == 1.0
    assert diff_reports.relative_move(3, 6.0) == 0.5
    assert diff_reports.relative_move("1.5", "0.75") == 0.5  # the paper table prints strings
    for old, new in ((True, False), ("inf", 1.0), (1.0, "(missing)"), (None, 1.0), ("a 1.0", "a 2.0")):
        assert diff_reports.relative_move(old, new) is None


def test_moves_are_listed_by_call_class_and_path_class():
    leaves = [
        {"call": "sweep/seed1/gamma-scale-002/bounds", "path": "file[0].lower", "old": 1.0, "new": 1.0 + 2e-13},
        {"call": "sweep/seed3/gamma-scale-010/bounds", "path": "file[0].lower", "old": 2.0, "new": 2.0 + 8e-13},
        {"call": "sweep/seed2/gamma-scale-004/bounds", "path": "file[0].upper", "old": "inf", "new": 3.0},
        {"call": "sweep/seed2/gamma-scale-004/check", "path": "file[0].identity_checks[2].pass",
         "old": True, "new": False},
        {"call": "paper-table", "path": "file.rows[3].computed", "old": "8.000000000000002", "new": "8.0"},
        {"call": "builtin/check", "path": "stdout:4", "old": "x", "new": "y"},
    ]
    assert diff_reports.class_moves(leaves) == [
        "builtin/check stdout: 1 leaves, largest relative move -",
        "paper-table file.rows[*].computed: 1 leaves, largest relative move 2.2e-16",
        "sweep/gamma-scale/bounds file[*].lower: 2 leaves, largest relative move 4.0e-13",
        "sweep/gamma-scale/bounds file[*].upper: 1 leaves, largest relative move -",
        "sweep/gamma-scale/check file[*].identity_checks[*].pass: 1 leaves, largest relative move -",
    ]
    assert diff_reports.class_moves([]) == []
