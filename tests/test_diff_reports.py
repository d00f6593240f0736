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


def test_builtin_calls_cover_a_loose_tolerance(tmp_path):
    calls = dict(diff_reports.requests([], tmp_path, tmp_path / "report.out"))
    assert len(calls) == 11  # 4 per input, the paper table and 2 at --tol 1e-6
    assert calls["builtin/check-tol"][:3] == ["check", "--tol", "1e-6"]
    assert calls["builtin/bounds-tol"] == ["bounds", "--tol", "1e-6"]


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
