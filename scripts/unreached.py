#!/usr/bin/env python3
"""List every statement of src/steinb that never runs.

One interpreter, traced from before steinb is first imported with the
standard library's ``sys.settrace`` (no coverage package is needed), runs:

- the tier-1 test suite in process (``pytest tests``); a test that fails
  under the trace does not matter, since only the lines run are recorded;
- the requests of the three benchmark workloads, each through
  ``steinb.cli.main`` with ``--jobs 1``: ``bounds --format json`` on the
  builtin matrix (builtin-bounds), ``paper-table``, and every sweep-mixed
  scenario of seeds 1, 2 and 3 (``perfbench/sweep.py``) as a one-line file
  under its own ``check`` or ``bounds --format json``;
- ``check`` and ``bounds --format json`` on each of the three scenario
  files: ``scripts/scenarios_demo.jsonl``,
  ``scripts/scenarios_shared_laws.jsonl`` and
  ``tests/data/probe_scenarios.jsonl``.

It then prints ``path:line: source`` for each statement that never ran, and a
count.  A statement is one of the ``ast`` module's; a compound statement
(``if``, ``for``, ``def``, ...) stands for its header lines only, and a
statement that compiles to no bytecode (a function docstring, ``global``) is
not counted.  Code run in a worker process (``--jobs 2`` tests) is not seen.

Usage:
    python3 scripts/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path
from typing import Iterable

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "steinb"
SCENARIO_FILES = (
    REPO / "scripts" / "scenarios_demo.jsonl",
    REPO / "scripts" / "scenarios_shared_laws.jsonl",
    REPO / "tests" / "data" / "probe_scenarios.jsonl",
)
SWEEP = REPO / "perfbench" / "sweep.py"
SWEEP_SEEDS = (1, 2, 3)


class LineTrace:
    """Records, while active, the lines run in the given source files.

    On exit the trace function that was active before is put back, so a
    trace may run inside another; the outer one misses the inner's lines.
    """

    def __init__(self, files: Iterable[Path]) -> None:
        self.ran: dict[str, set[int]] = {str(f.resolve()): set() for f in files}
        self._keys: dict[str, str | None] = {}  # co_filename -> its key in ran, or None
        self._previous = None

    def _call(self, frame: types.FrameType, event: str, arg: object):
        name = frame.f_code.co_filename
        if name not in self._keys:
            key = str(Path(name).resolve())
            self._keys[name] = key if key in self.ran else None
        key = self._keys[name]
        if key is None:
            return None
        lines = self.ran[key]

        def line(frame: types.FrameType, event: str, arg: object):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> "LineTrace":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc: object) -> None:
        sys.settrace(self._previous)


def statements(path: Path) -> dict[int, range]:
    """First line -> header lines of every statement of a source file that
    compiles to bytecode."""
    source = path.read_text()
    code_lines: set[int] = set()
    pending = [compile(source, str(path), "exec")]
    while pending:
        code = pending.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    headers = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        header = range(node.lineno, max(node.lineno, last) + 1)
        if code_lines.intersection(header):
            headers[node.lineno] = header
    return headers


def unreached(trace: LineTrace) -> list[tuple[Path, int]]:
    """(file, first line) of every statement of the traced files that never ran."""
    missed = []
    for key, ran in sorted(trace.ran.items()):
        path = Path(key)
        for first, header in sorted(statements(path).items()):
            if ran.isdisjoint(header):
                missed.append((path, first))
    return missed


def _cli_quietly(argv: list[str]) -> None:
    from steinb import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except Exception:  # a raising request still ran its lines
            pass


def _load_sweep() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("perfbench_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def requests(tmp: Path) -> list[list[str]]:
    """argv of every workload and scenario-file request; writes the sweep's
    one-line scenario files into tmp."""
    out = str(tmp / "report.out")
    calls = [
        ["bounds", "--format", "json", "--jobs", "1", "--out", out],
        ["paper-table", "--out", out],
    ]
    sweep = _load_sweep()
    for seed in SWEEP_SEEDS:
        for i, item in enumerate(sweep.generate(seed)):
            scenario = tmp / f"seed{seed}-{i:04d}.jsonl"
            scenario.write_text(json.dumps(item["scenario"], sort_keys=True) + "\n")
            argv = [item["request"], str(scenario), "--jobs", "1", "--out", out]
            if item["request"] == "bounds":
                argv[2:2] = ["--format", "json"]
            calls.append(argv)
    for path in SCENARIO_FILES:
        calls += [
            ["check", str(path), "--jobs", "1", "--out", out],
            ["bounds", str(path), "--format", "json", "--jobs", "1", "--out", out],
        ]
    return calls


def run_everything() -> None:
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    with tempfile.TemporaryDirectory() as tmp:
        for argv in requests(Path(tmp)):
            _cli_quietly(argv)


def report(missed: list[tuple[Path, int]]) -> None:
    sources: dict[Path, list[str]] = {}
    for path, line in missed:
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        print(f"{path.relative_to(REPO)}:{line}: {text}")
    print(f"{len(missed)} statements of src/steinb never ran")


def main() -> int:
    src = str(REPO / "src")
    sys.path.insert(0, src)
    # The tests that start a fresh interpreter find steinb the same way.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    with LineTrace(sorted(PACKAGE.glob("*.py"))) as trace:
        run_everything()
    report(unreached(trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
