"""Command-line front end.

Subcommands:
    check       run identity checks for a scenario file (or the builtin suite)
    bounds      emit full bound reports (json / csv / md)
    fisher      print score and Fisher information summaries
    paper-table reproduce the worked-example acceptance matrix

Scenario files are line-oriented: one JSON object per line, blank lines and
'#' comments ignored, e.g.

    {"id": "exp-sca-h-sqrt", "family": "exponential",
     "role": {"kind": "scale", "value": 1.0}, "test_function": {"name": "sqrt"}}

Exit codes: 0 success, 1 check/row failure, 2 parse or validation error.
The STEINB_TOL environment variable overrides the default quadrature
tolerance; --tol overrides both.  Either must be a finite number > 0.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from . import config
from .families import InvalidParameter, family_spec
from .harness import (
    SCENARIO_ERRORS,
    Scenario,
    ScenarioResult,
    builtin_scenarios,
    result_to_dict,
    run_laws,
)
from .operators import Laws, zero_crossing


class InputError(Exception):
    """The command's input is invalid: the command exits 2."""


class ScenarioFileError(InputError):
    """The scenario file is missing, unparsable, or names unknown entries."""


def load_scenarios(path: str | Path) -> list[Scenario]:
    p = Path(path)
    if not p.exists():
        raise ScenarioFileError(f"scenario file not found: {p}")
    scenarios: list[Scenario] = []
    seen: set[str] = set()
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            raw = json.loads(stripped)
            scenario = Scenario.from_dict(raw)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioFileError(f"{p}:{lineno}: {exc}") from exc
        if scenario.scenario_id in seen:
            raise ScenarioFileError(f"{p}:{lineno}: duplicate scenario id {scenario.scenario_id!r}")
        seen.add(scenario.scenario_id)
        scenarios.append(scenario)
    if not scenarios:
        raise ScenarioFileError(f"{p}: no scenarios found")
    return scenarios


def _scenarios(args: argparse.Namespace) -> list[Scenario]:
    """The scenario file named on the command line, or the builtin suite."""
    return load_scenarios(args.scenarios) if args.scenarios else builtin_scenarios()


def _law_groups(scenarios: Sequence[Scenario]) -> dict[tuple, list[Scenario]]:
    """The scenarios grouped by the spec of their law
    (``families.family_spec``), in order of first appearance, each built
    once, with unknown families, roles, or test functions rejected up front
    (ScenarioFileError).  A scenario whose law fails to build otherwise (an
    overflow) is keyed by its id: it runs alone, to its error row."""
    groups: dict[tuple, list[Scenario]] = {}
    for s in scenarios:
        key: tuple = ("unbuilt", s.scenario_id)
        for build in (s.build_family, s.build_law, s.build_test_function):
            try:
                built = build()
            except (InvalidParameter, KeyError) as exc:
                raise ScenarioFileError(f"scenario {s.scenario_id!r}: {exc}") from exc
            except SCENARIO_ERRORS:
                continue
            if build == s.build_family:
                key = family_spec(built)
        groups.setdefault(key, []).append(s)
    return groups


def _tol(args: argparse.Namespace) -> float:
    """The quadrature tolerance of the command (``config.resolve_tol``)."""
    try:
        return config.resolve_tol(args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def run_all(
    scenarios: Sequence[Scenario], runner: Callable[[list[Scenario]], list[ScenarioResult]], jobs: int
) -> list[ScenarioResult]:
    """The results of runner (``harness.run_laws``) on each group of
    scenarios that share a law (``_law_groups``), sorted by scenario id.
    Under jobs > 1 the groups go to a process pool of at most one worker per
    piece, a group of more than 1/jobs of the scenarios in pieces of that
    size, so that one law with many test functions still keeps every worker
    busy; each piece computes the law's suite and profile once.  An unknown
    name, or jobs below 1, is an InputError."""
    groups = _law_groups(scenarios)
    if jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {jobs}")
    if jobs > 1:
        # Imported here: concurrent.futures loads logging, which a serial run never needs.
        import concurrent.futures

        size = -(-len(scenarios) // jobs)
        pieces = [group[i:i + size] for group in groups.values() for i in range(0, len(group), size)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(pieces))) as pool:
            chunks = list(pool.map(runner, pieces))
    else:
        chunks = [runner(group) for group in groups.values()]
    return sorted((r for chunk in chunks for r in chunk), key=lambda r: r.scenario_id)


# --------------------------------------------------------------------------
# Emission.


def emit_json(results: Sequence[ScenarioResult]) -> str:
    return json.dumps([result_to_dict(r) for r in results], indent=2, sort_keys=True) + "\n"


CSV_COLUMNS = ("scenario", "lower", "variance", "upper", "flags", "comparators", "identity_checks")


def emit_csv(results: Sequence[ScenarioResult]) -> str:
    import csv  # only this format needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in results:
        d = result_to_dict(r)
        if "lower" not in d:
            writer.writerow([d["scenario"], "", "", "", f"error:{d.get('error')}", "", ""])
            continue
        def cell(v: Any) -> str:
            return "inf" if v == "inf" else repr(float(v))
        comparators = ";".join(
            f"{c['name']}:{c['kind']}:{'inf' if c['value'] == 'inf' else repr(float(c['value']))}"
            for c in d["comparators"]
        )
        identities = ";".join(
            f"{c['f0']}:{repr(c['value'])}:{c['pass']}" for c in d["identity_checks"]
        )
        writer.writerow([
            d["scenario"], cell(d["lower"]), cell(d["variance"]), cell(d["upper"]),
            ";".join(d["flags"]), comparators, identities,
        ])
    return buf.getvalue()


def emit_md(results: Sequence[ScenarioResult]) -> str:
    lines = ["| scenario | lower | variance | upper | flags | comparators |",
             "|---|---|---|---|---|---|"]
    for r in results:
        d = result_to_dict(r)
        if "lower" not in d:
            lines.append(f"| {d['scenario']} | - | - | - | error: {d.get('error')} | |")
            continue
        comps = ", ".join(
            f"{c['name']}={c['value']}" for c in d["comparators"]
        )
        lines.append(
            f"| {d['scenario']} | {d['lower']} | {d['variance']} | {d['upper']} | "
            f"{';'.join(d['flags'])} | {comps} |"
        )
    return "\n".join(lines) + "\n"


EMITTERS = {"json": emit_json, "csv": emit_csv, "md": emit_md}


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# Subcommands.


def cmd_check(args: argparse.Namespace) -> int:
    runner = functools.partial(run_laws, tol=_tol(args), with_report=False)
    results = run_all(_scenarios(args), runner, args.jobs)
    all_pass = True
    print(f"{'scenario':24s} {'f0':22s} {'E[T f0]':>14s}  pass")
    for res in results:
        if res.error is not None:
            print(f"{res.scenario_id:24s} {'-':22s} {'-':>14s}  ERROR {res.error}")
            all_pass = False
            continue
        for c in res.identity_checks:
            all_pass = all_pass and c.passed
            print(f"{res.scenario_id:24s} {c.test_function:22s} {c.expectation_value:14.3e}  {c.passed}")
    if args.out:
        Path(args.out).write_text(emit_json(results))
    print(f"identity suite: {'all passed' if all_pass else 'FAILURES'}")
    return 0 if all_pass else 1


def cmd_bounds(args: argparse.Namespace) -> int:
    runner = functools.partial(run_laws, tol=_tol(args))
    results = run_all(_scenarios(args), runner, args.jobs)
    text = EMITTERS[args.format](results)
    _write_out(text, args.out)
    failed = [r for r in results if r.error is not None or not all(c.passed for c in r.identity_checks)]
    return 1 if failed else 0


def cmd_fisher(args: argparse.Namespace) -> int:
    scenarios = _scenarios(args)
    _law_groups(scenarios)  # rejects unknown names up front
    tol = _tol(args)
    laws = Laws()
    rows = []
    for s in sorted(scenarios, key=lambda s: s.scenario_id):
        try:
            fam = s.build_family()
            prof, zero = laws.profile(fam, tol), zero_crossing(fam)
        except SCENARIO_ERRORS as exc:
            rows.append({"scenario": s.scenario_id, "family": s.family, "role": s.kind,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append({
            "scenario": s.scenario_id,
            "family": s.family,
            "role": s.kind,
            "fisher": "inf" if math.isinf(prof.fisher) else prof.fisher,
            "monotonicity": prof.monotonicity.verdict.value,
            "zero_crossing": zero,
        })
    if args.format == "json" or args.out:
        _write_out(json.dumps(rows, indent=2, sort_keys=True) + "\n", args.out)
    if not args.out:
        print(f"{'scenario':24s} {'family':14s} {'role':9s} {'fisher':>18s} {'monotonicity':14s} {'zero':>10s}")
        for r in rows:
            if "error" in r:
                print(f"{r['scenario']:24s} {r['family']:14s} {r['role']:9s} {r['error']}")
                continue
            zero = "-" if r["zero_crossing"] is None else f"{r['zero_crossing']:.4g}"
            print(f"{r['scenario']:24s} {r['family']:14s} {r['role']:9s} {str(r['fisher']):>18s} "
                  f"{r['monotonicity']:14s} {zero:>10s}")
    return 0


def cmd_paper_table(args: argparse.Namespace) -> int:
    from .papertable import build_rows, row_ids, rows_to_report

    if args.list:
        for rid in row_ids():
            print(rid)
        return 0
    tol = _tol(args)
    rows = build_rows(tol)
    width = max(len(r.row_id) for r in rows)
    for r in rows:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark}  {r.row_id:{width}s}  {r.computed}  (target {r.target})")
    all_pass = all(r.passed for r in rows)
    print(f"paper table: {sum(r.passed for r in rows)}/{len(rows)} rows pass")
    if args.out:
        report = rows_to_report(rows, tol)
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0 if all_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinb",
        description="Stein operators and variance bounds for classical parametric families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_jobs: bool = True) -> None:
        p.add_argument("--tol", type=float, default=None,
                       help="quadrature tolerance (overrides STEINB_TOL)")
        p.add_argument("--out", type=str, default=None, help="write the machine report here")
        if with_jobs:
            p.add_argument("--jobs", type=int, default=1, help="scenario-level parallelism")

    p = sub.add_parser("check", help="run Stein identity checks")
    p.add_argument("scenarios", nargs="?", default=None, help="scenario file (default: builtin suite)")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("bounds", help="compute variance bound reports")
    p.add_argument("scenarios", nargs="?", default=None)
    p.add_argument("--format", choices=sorted(EMITTERS), default="json")
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("fisher", help="score function and Fisher information summary")
    p.add_argument("scenarios", nargs="?", default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    common(p, with_jobs=False)
    p.set_defaults(fn=cmd_fisher)

    p = sub.add_parser("paper-table", help="reproduce the worked-example acceptance matrix")
    p.add_argument("--list", action="store_true", help="print row ids without computing")
    common(p, with_jobs=False)
    p.set_defaults(fn=cmd_paper_table)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: a parse leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
