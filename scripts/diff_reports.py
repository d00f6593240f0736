#!/usr/bin/env python3
"""Check that another source tree of steinb writes the same reports as this one.

Each tree runs in its own interpreter with PYTHONPATH=<tree>, calling
``steinb.cli.main`` in process for:

- ``bounds --format json`` and ``bounds --format csv``, on the builtin matrix
  and on ``scripts/scenarios_demo.jsonl``;
- ``check --out`` and ``fisher --format json``, on the same two inputs;
- ``check --tol 1e-6 --out`` and ``bounds --tol 1e-6`` on the builtin matrix,
  so a looser quadrature tolerance is compared too;
- ``bounds --format json --jobs 2`` and ``check --jobs 2 --out`` on the
  builtin matrix, whose results come back pickled from a process pool;
- ``check --out`` and ``bounds --format json``, each with and without
  ``--jobs 2``, on ``tests/data/probe_scenarios.jsonl``, whose extreme lines
  end as error rows (``ZeroDivisionError``, ``OverflowError``), so error rows
  are compared too, also as they come back from a process pool;
- ``check --out`` and ``bounds --format json``, each with and without
  ``--jobs 2``, on ``scripts/scenarios_shared_laws.jsonl``, whose laws have
  several test functions each (and a wrong-law and a looser-threshold line),
  so the scenarios that share a law's suite, profile and exchanging pair in
  one command are compared too;
- ``paper-table --out``;
- every sweep-mixed scenario (``perfbench/sweep.py``) of each seed in
  ``--seeds``, written as a one-line file, under ``check --out`` and
  ``bounds --format json --out``.

For every call it compares the exit code (or the exception raised), stdout,
stderr and the ``--out`` file byte for byte, prints the key of each call whose
outcome differs, and exits 1 on any difference.  When a differing stdout or
``--out`` file parses as JSON on both sides, it also prints up to five
differing leaves as ``path: old -> new``, where old is OTHER_SRC's value.

With ``--leaves FILE`` it also writes every difference to FILE, one JSON
object ``{"call", "path", "old", "new"}`` per line: the exit code (path
``rc``), each differing JSON leaf of a stdout or --out file that parses as
JSON on both sides (path ``stdout.<leaf>`` or ``file.<leaf>``), and each
differing line of any other stdout, stderr or --out file (path ``stdout:N``,
``stderr:N`` or ``file:N``).  A call made by one tree only has path null.
The comparison and the exit code do not depend on it.

After the per-call lines it always prints how many differing leaves (as
``--leaves`` writes them) fall in each path class: the path with every list
index written ``[*]`` and the line number of a ``field:N`` path dropped, for
example ``file[*].identity_checks[*].value: 3,084``.  Then, for each call
class and path class, it prints the leaf count and the largest relative
move |new - old| / max(|old|, |new|) of the leaves that are finite numbers
on both sides, or strings that parse as such ("-" when none is).  A call class is a sweep key with its seed and
scenario index dropped (``sweep/seed1/gamma-scale-002/bounds`` is
``sweep/gamma-scale/bounds``); other keys are their own class.

Usage:
    python3 scripts/diff_reports.py OTHER_SRC [--seeds 1,2,3] [--leaves FILE]

OTHER_SRC is the ``src`` directory of the other tree, for example of an
export of the parent commit (``git archive HEAD~1 | tar -x -C /tmp/parent``).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib.util
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "scripts" / "scenarios_demo.jsonl"
PROBE = REPO / "tests" / "data" / "probe_scenarios.jsonl"
SHARED = REPO / "scripts" / "scenarios_shared_laws.jsonl"
SWEEP = REPO / "perfbench" / "sweep.py"
SHOWN_LEAVES = 5
_MISSING = object()


def _load_sweep():
    spec = importlib.util.spec_from_file_location("perfbench_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def requests(seeds: list[int], tmp: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(key, argv) of every call; writes the sweep scenario files into tmp."""
    calls: list[tuple[str, list[str]]] = []
    for label, inputs in (("builtin", []), ("demo", [str(DEMO)])):
        calls += [
            (f"{label}/bounds-json", ["bounds", *inputs, "--format", "json"]),
            (f"{label}/bounds-csv", ["bounds", *inputs, "--format", "csv"]),
            (f"{label}/check", ["check", *inputs, "--out", str(out)]),
            (f"{label}/fisher", ["fisher", *inputs, "--format", "json"]),
        ]
    calls += [
        ("builtin/check-tol", ["check", "--tol", "1e-6", "--out", str(out)]),
        ("builtin/bounds-tol", ["bounds", "--tol", "1e-6"]),
        ("builtin/bounds-jobs2", ["bounds", "--format", "json", "--jobs", "2"]),
        ("builtin/check-jobs2", ["check", "--jobs", "2", "--out", str(out)]),
        ("probe/check", ["check", str(PROBE), "--out", str(out)]),
        ("probe/check-jobs2", ["check", str(PROBE), "--jobs", "2", "--out", str(out)]),
        ("probe/bounds-json", ["bounds", str(PROBE), "--format", "json"]),
        ("probe/bounds-jobs2", ["bounds", str(PROBE), "--format", "json", "--jobs", "2"]),
        ("shared/check", ["check", str(SHARED), "--out", str(out)]),
        ("shared/check-jobs2", ["check", str(SHARED), "--jobs", "2", "--out", str(out)]),
        ("shared/bounds-json", ["bounds", str(SHARED), "--format", "json"]),
        ("shared/bounds-jobs2", ["bounds", str(SHARED), "--format", "json", "--jobs", "2"]),
    ]
    calls.append(("paper-table", ["paper-table", "--out", str(out)]))
    sweep = _load_sweep()
    for seed in seeds:
        for item in sweep.generate(seed):
            scenario = item["scenario"]
            path = tmp / f"seed{seed}-{scenario['id']}.jsonl"
            path.write_text(json.dumps(scenario, sort_keys=True) + "\n")
            key = f"sweep/seed{seed}/{scenario['id']}"
            calls += [
                (f"{key}/check", ["check", str(path), "--out", str(out)]),
                (f"{key}/bounds", ["bounds", str(path), "--format", "json", "--out", str(out)]),
            ]
    return calls


def collect(seeds: list[int], result: Path) -> None:
    """Make every call with the steinb found on PYTHONPATH; write the outcomes."""
    import steinb
    from steinb import cli

    tree = Path(os.environ["PYTHONPATH"]).resolve()
    if tree not in Path(steinb.__file__).resolve().parents:
        raise SystemExit(f"steinb was imported from {steinb.__file__}, not from {tree}")
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.out"
        for key, argv in requests(seeds, Path(tmp), out):
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    rc: int | str = cli.main(argv)
            except Exception as exc:  # a raising call is an outcome to compare, too
                rc = f"raised {type(exc).__name__}: {exc}"
            outcomes[key] = {
                "rc": rc,
                "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "file": out.read_bytes().hex() if out.exists() else None,
            }
    result.write_text(json.dumps(outcomes))


def _parse_json(text: str | None):
    try:
        return json.loads(text)
    except (TypeError, ValueError):  # no output, or not JSON
        return _MISSING


def leaf_diffs(old, new, path: str = ""):
    """Yield (path, old, new) for every leaf at which two parsed JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            yield from leaf_diffs(old.get(key, _MISSING), new.get(key, _MISSING), f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(itertools.zip_longest(old, new, fillvalue=_MISSING)):
            yield from leaf_diffs(a, b, f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path, old, new


def _shown(value) -> str:
    return "(missing)" if value is _MISSING else json.dumps(value)


_DECODE = {"stdout": lambda v: v, "stderr": lambda v: v, "file": lambda v: v and bytes.fromhex(v).decode()}


def json_leaves(old: dict, new: dict):
    """Yield (path, old, new) for every differing JSON leaf of the stdout and
    --out file of one call, where the field parses as JSON on both sides."""
    for field in ("stdout", "file"):
        if old[field] == new[field]:
            continue
        a, b = _parse_json(_DECODE[field](old[field])), _parse_json(_DECODE[field](new[field]))
        if a is _MISSING or b is _MISSING:
            continue
        for path, x, y in leaf_diffs(a, b):
            yield f"{field}{path}", x, y


def json_diff_lines(old: dict, new: dict) -> list[str]:
    """Up to SHOWN_LEAVES differing leaves of the JSON stdout and --out file of one call."""
    return [f"    {path}: {_shown(x)} -> {_shown(y)}"
            for path, x, y in itertools.islice(json_leaves(old, new), SHOWN_LEAVES)]


def all_leaves(old: dict, new: dict):
    """Yield (path, old, new) for everything that differs in one call: the
    exit code, the JSON leaves of ``json_leaves``, and the differing lines
    (path ``field:N``, 1-based) of a stdout, stderr or --out file that is not
    JSON on both sides."""
    if old["rc"] != new["rc"]:
        yield "rc", old["rc"], new["rc"]
    yield from json_leaves(old, new)
    for field in ("stdout", "stderr", "file"):
        if old[field] == new[field]:
            continue
        a, b = _DECODE[field](old[field]), _DECODE[field](new[field])
        if field != "stderr" and _parse_json(a) is not _MISSING and _parse_json(b) is not _MISSING:
            continue  # compared leaf by leaf above
        lines = itertools.zip_longest((a or "").splitlines(), (b or "").splitlines(), fillvalue=_MISSING)
        for number, (x, y) in enumerate(lines, start=1):
            if x != y:
                yield f"{field}:{number}", x, y


def path_class(path: str | None) -> str:
    """The class of a leaf path: list indices as [*], a line number dropped
    (``stdout:12`` -> ``stdout``), a call made by one tree only as ``(call)``."""
    if path is None:
        return "(call)"
    return re.sub(r"\[\d+\]", "[*]", re.sub(r":\d+$", "", path))


def class_counts(leaves: list[dict]) -> list[str]:
    """One line per path class of ``leaves``, most leaves first."""
    counts = collections.Counter(path_class(leaf["path"]) for leaf in leaves)
    return [f"{cls}: {n:,}" for cls, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))]


def call_class(call: str) -> str:
    """A sweep key without its seed and scenario index; any other key as it is."""
    match = re.fullmatch(r"sweep/seed\d+/(.+)-\d+/([^/]+)", call)
    return f"sweep/{match[1]}/{match[2]}" if match else call


def _finite(value) -> float | None:
    """A number, or a string that is one (the paper table prints its values
    as strings), as a finite float; None for anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        number = float(value)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


def relative_move(old, new) -> float | None:
    """|new - old| / max(|old|, |new|) when both are finite numbers, else None."""
    a, b = _finite(old), _finite(new)
    if a is None or b is None:
        return None
    return 0.0 if a == b else abs(b - a) / max(abs(a), abs(b))


def class_moves(leaves: list[dict]) -> list[str]:
    """One line per (call class, path class) of ``leaves``, sorted: the leaf
    count and the largest relative move of its numeric leaves."""
    groups: dict[tuple[str, str], list] = {}
    for leaf in leaves:
        group = groups.setdefault((call_class(leaf["call"]), path_class(leaf["path"])), [0, None])
        group[0] += 1
        move = relative_move(leaf["old"], leaf["new"])
        if move is not None and (group[1] is None or move > group[1]):
            group[1] = move
    return [f"{call} {cls}: {n:,} leaves, largest relative move {'-' if worst is None else f'{worst:.1e}'}"
            for (call, cls), (n, worst) in sorted(groups.items())]


def _plain(value):
    return "(missing)" if value is _MISSING else value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", nargs="?", help="src directory of the other tree")
    parser.add_argument("--seeds", default="1,2,3", help="sweep-mixed seeds, comma separated")
    parser.add_argument("--leaves", type=Path, default=None,
                        help="write every differing leaf here, one JSON object per line")
    parser.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if args.collect is not None:
        collect(seeds, args.collect)
        return 0
    if args.other_src is None:
        parser.error("OTHER_SRC is required")

    trees = {"this": REPO / "src", "other": Path(args.other_src)}
    with tempfile.TemporaryDirectory() as tmp:
        running = {}
        for label, src in trees.items():
            result = Path(tmp) / f"{label}.json"
            env = {**os.environ, "PYTHONPATH": str(src.resolve()), "PYTHONDONTWRITEBYTECODE": "1"}
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--collect", str(result), "--seeds", args.seeds]
            running[label] = (subprocess.Popen(cmd, env=env), result)
        failed = [label for label, (proc, _) in running.items() if proc.wait() != 0]
        for label in failed:
            print(f"collecting from {trees[label]} failed (exit {running[label][0].returncode})")
        if failed:
            return 1
        outcomes = {label: json.loads(result.read_text()) for label, (_, result) in running.items()}

    this, other = outcomes["this"], outcomes["other"]
    differing = 0
    leaves = []
    for key in sorted(set(this) | set(other)):
        a, b = this.get(key), other.get(key)
        if a == b:
            continue
        differing += 1
        if a is None or b is None:
            print(f"DIFF {key}: call missing")
            leaves.append({"call": key, "path": None, "old": b is not None, "new": a is not None})
            continue
        print(f"DIFF {key}: {', '.join(f for f in a if a[f] != b[f])}")
        for line in json_diff_lines(b, a):
            print(line)
        leaves += [{"call": key, "path": path, "old": _plain(x), "new": _plain(y)}
                   for path, x, y in all_leaves(b, a)]
    if args.leaves is not None:
        args.leaves.write_text("".join(json.dumps(leaf, sort_keys=True) + "\n" for leaf in leaves))
    for line in class_counts(leaves) + class_moves(leaves):
        print(line)
    total = len(set(this) | set(other))
    print(f"{total - differing} of {total} calls identical")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
