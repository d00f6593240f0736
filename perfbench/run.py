"""Benchmark of the steinb command line: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload builtin-bounds --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    builtin-bounds  ``steinb bounds --format json`` over the builtin matrix
    paper-table     ``steinb paper-table``, all rows
    sweep-mixed     a seeded sweep of one-line scenario files, each sent to
                    ``steinb check`` or ``steinb bounds``

A run is a closed loop with one client: passes run one after another, each
in a fresh interpreter (``worker.py``), until ``--seconds`` have gone by.
Inside a pass every request goes to ``steinb.cli.main`` in process with
``--jobs 1``.  With ``--trace 0`` every pass is untraced and the run reports
the end-to-end metrics.  With ``--trace 1`` untraced and traced passes
alternate; the run reports the per-layer metrics of the traced passes and
the tracing overhead.

The run checks the outputs: every pass must produce byte-identical reports
(traced and untraced alike), no steinb cache may be warm when a pass starts,
no bounds report may break ``lower <= variance <= upper``, and the builtin
matrix and the paper table must pass in full.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every figure by name, with its unit
and sample count.  ``attempted`` and ``failed`` count the ops of one pass,
which every pass repeats with the same outcome, so they do not depend on how
many passes fit in the time.  Working files go under ``perfbench/.work``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import sweep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("builtin-bounds", "paper-table", "sweep-mixed")
PAPER_ROWS = 33
LAST_START_S = 120.0   # start no pass after this
RUN_LIMIT_S = 170.0    # kill a pass that would keep the run past this


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_pass(workload: str, inputs: Path | None, run_dir: Path, index: int,
             spans: Path | None, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return the worker's figures."""
    pass_dir = run_dir / f"pass-{index}"
    result = run_dir / f"pass-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", workload,
           "--pass-dir", str(pass_dir), "--result", str(result)]
    if inputs is not None:
        cmd += ["--inputs", str(inputs)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = {k: v for k, v in os.environ.items() if k != "STEINB_TOL"}
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    figures = json.loads(result.read_text())
    figures["traced"] = spans is not None
    shutil.rmtree(pass_dir, ignore_errors=True)
    return figures


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def fingerprint(figures: dict) -> list:
    return [(r["kind"], r["rc"], r["error"], r["sha256"], r["failed"]) for r in figures["requests"]]


def judge(workload: str, passes: list[dict]) -> list[str]:
    """Reasons the run's outputs are not correct; empty when they are."""
    problems = []
    if any(p["steinb_preloaded"] or p["warm_cache_entries"] for p in passes):
        problems.append("a steinb cache was warm when a pass started")
    if any(fingerprint(p) != fingerprint(passes[0]) for p in passes):
        problems.append("passes produced different reports")
    requests = [r for p in passes for r in p["requests"]]
    if any(r["sandwich_violations"] for r in requests):
        problems.append("a bounds report breaks lower <= variance <= upper")
    if workload != "sweep-mixed" and any(r["failed"] for r in requests):
        problems.append(f"{workload} has failed ops")
    if workload == "paper-table" and any(r["ops"] != PAPER_ROWS for r in requests):
        problems.append(f"paper-table did not report {PAPER_ROWS} rows")
    traced = [p["counters"] for p in passes if p["traced"]]
    if any(c != traced[0] for c in traced):
        problems.append("traced passes counted differently")
    return problems


def op_counts(passes: list[dict]) -> tuple[int, int]:
    """(attempted, failed) ops of the run.

    Every pass repeats the same ops, and ``judge`` checks that each ends the
    same way in every pass, so the run's ops are those of its first pass.  The
    counts then depend on the seed only, not on how many passes fit in the
    time.
    """
    requests = passes[0]["requests"]
    return sum(r["ops"] for r in requests), sum(r["failed"] for r in requests)


def end_to_end(workload: str, plain: list[dict]) -> tuple[dict, list[str]]:
    """Gated metrics of the untraced passes, and report lines for every figure."""
    n = len(plain)
    per_pass = {
        "setup_s": ("s", lambda p: p["setup_s"]),
        "wall_s": ("s", lambda p: p["wall_s"]),
        "wall_ref": ("ref", lambda p: p["wall_s"] / p["ref_s"]),
        "ops_per_s": ("1/s", lambda p: sum(r["ops"] for r in p["requests"]) / p["wall_s"]),
        "ref_s": ("s", lambda p: p["ref_s"]),
        "peak_rss_mb": ("MB", lambda p: p["peak_rss_mb"]),
    }
    metrics = {k: statistics.median(map(f, plain)) for k, (_, f) in per_pass.items()}
    lines = [f"{k} = {v!r} {per_pass[k][0]} (median of {n} passes)" for k, v in metrics.items()]
    requests = [r for p in plain for r in p["requests"]]
    ops = sum(r["ops"] for r in requests)
    failed = sum(r["failed"] for r in requests)
    lines.append(f"failed_share = {failed / ops!r} share ({failed} of {ops} ops)")
    if workload == "sweep-mixed":
        # Each latency also in units of its own pass's reference time.
        for suffix, unit, scale in (("s", "s", lambda p: 1.0), ("ref", "ref", lambda p: p["ref_s"])):
            samples = [(r["kind"], r["latency_s"] / scale(p)) for p in plain for r in p["requests"]]
            latencies = [v for _, v in samples]
            lines.append(f"op_p50_{suffix} = {statistics.median(latencies)!r} {unit} ({len(latencies)} ops)")
            if len(latencies) >= 100:
                lines.append(f"op_p90_{suffix} = {percentile(latencies, 0.9)!r} {unit} "
                             f"({len(latencies)} ops)")
            for kind in ("check", "bounds"):
                own = [v for k, v in samples if k == kind]
                if own:
                    lines.append(f"{kind}_p50_{suffix} = {statistics.median(own)!r} {unit} ({len(own)} ops)")
        causes: dict[str, int] = {}
        for r in plain[0]["requests"]:
            if r["failed"]:
                cause = r["error"] or f"{r['kind']} exit {r['rc']}"
                causes[cause] = causes.get(cause, 0) + 1
        lines.append("failures per pass by cause: " + json.dumps(dict(sorted(causes.items()))))
    shas = [r["sha256"] for r in plain[0]["requests"] if r["kind"] != "check" and r["sha256"]]
    if len(shas) == 1:
        lines.append(f"report sha256 = {shas[0]}")
    elif shas:
        digest = hashlib.sha256("".join(shas).encode()).hexdigest()
        lines.append(f"bounds reports sha256 of sha256s = {digest} ({len(shas)} reports)")
    return metrics, lines


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, plus the tracing overhead."""
    metrics = dict(traced[0]["layers"])
    for key in metrics:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(p["layers"][key] for p in traced)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in plain)
    lines = [f"{k} = {v!r}" for k, v in sorted(metrics.items())]
    lines.append(f"(self times and trace.wall_s: median of {len(traced)} traced passes; "
                 f"counts from one traced pass, identical in all)")
    if traced[0]["missing_layers"]:
        lines.append("layers not found: " + ", ".join(traced[0]["missing_layers"]))
    return metrics, lines


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "steinb" / "cli.py").is_file():
        raise BenchError(f"no steinb sources under {ROOT / 'src'}")
    declared = declared_metrics(trace)
    run_dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = None
        if workload == "sweep-mixed":
            inputs = run_dir / "sweep.jsonl"
            inputs.write_text(sweep.dumps(sweep.generate(seed)))
        spans = WORK / f"spans-{workload}-seed{seed}.jsonl"
        passes: list[dict] = []
        durations: dict[bool, list[float]] = {False: [], True: []}
        started = time.monotonic()
        while True:
            want_trace = trace and len(durations[True]) < len(durations[False])
            elapsed = time.monotonic() - started
            done = durations[False] and (durations[True] or not trace)
            # Start no pass that would end more than half a pass past the deadline.
            expected = statistics.median(durations[want_trace]) if durations[want_trace] else 0.0
            if done and (elapsed + expected / 2 >= seconds or elapsed >= LAST_START_S):
                break
            passes.append(run_pass(workload, inputs, run_dir, len(passes),
                                   spans if want_trace else None, RUN_LIMIT_S - elapsed))
            durations[want_trace].append(time.monotonic() - started - elapsed)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = judge(workload, passes)
    plain = [p for p in passes if not p["traced"]]
    if trace:
        metrics, lines = per_layer(plain, [p for p in passes if p["traced"]])
    else:
        metrics, lines = end_to_end(workload, plain)
    for line in lines:
        print(line)
    for problem in problems:
        print(f"INCORRECT: {problem}")
    missing = sorted(set(declared) - set(metrics))
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    attempted, failed = op_counts(passes)
    print(f"ops of the run = {attempted}, of which {failed} failed "
          f"(each repeated in all {len(passes)} passes)")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    (WORK / f"last-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**summary, "all_metrics": metrics, "passes": passes}, indent=1))
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
