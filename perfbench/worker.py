"""One pass of one workload, in a fresh interpreter.

``run.py`` starts this script once per pass, so every pass pays the import
and every cache fill the way a command-line user does.  It imports steinb
from the checkout's ``src``, writes the pass's inputs, then sends each
request to ``steinb.cli.main`` in process and checks what comes back.  The
pass's figures go to ``--result`` as JSON.

Set-up time runs from ``--t0``, a ``time.monotonic()`` reading the parent
takes just before starting this interpreter (the clock is system-wide), to
the first request.  Wall time is set-up time plus the time spent inside
``cli.main`` calls, less the reference samples taken during them.

The reference (``reference_once``) is fixed pure-Python work that does not
touch steinb.  In an untraced pass, ``ReferenceSampler`` times it every
``SAMPLE_EVERY_S`` of wall time from a timer signal, also in the middle of a
request, and the time spent on it is taken off the request's latency.  The
mean of these samples measures the machine's speed while steinb runs, so that
the pass's wall time can also be expressed in units of that speed
(``wall_ref``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import heapq
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

STEINB_PRELOADED = "steinb" in sys.modules

# A bounds report breaks the sandwich when lower > variance or variance > upper
# by more than this much: SANDWICH_REL * |variance| + SANDWICH_ABS.
SANDWICH_REL = 1e-9
SANDWICH_ABS = 1e-12

SAMPLE_EVERY_S = 0.1


def _number(value: object) -> float:
    return math.inf if value == "inf" else float(value)


def sandwich_holds(entry: dict) -> bool:
    lower, variance, upper = (_number(entry[k]) for k in ("lower", "variance", "upper"))
    slack = SANDWICH_REL * abs(variance) + SANDWICH_ABS
    return lower <= variance + slack and variance <= upper + slack


def scenario_failed(entry: dict) -> bool:
    return "error" in entry or not all(c["pass"] for c in entry["identity_checks"])


_GAUSS7 = (
    (-0.9491079123427585, 0.1294849661688697), (-0.7415311855993945, 0.2797053914892766),
    (-0.4058451513773972, 0.3818300505051189), (0.0, 0.4179591836734694),
    (0.4058451513773972, 0.3818300505051189), (0.7415311855993945, 0.2797053914892766),
    (0.9491079123427585, 0.1294849661688697),
)


def _reference_quadrature(c: float) -> float:
    """Worst-cell-first adaptive 7-point Gauss quadrature, 150 splits."""
    def f(x: float) -> float:
        return math.exp(-c * x * x) / math.sqrt(1.0 + x * x)

    def cell(a: float, b: float) -> tuple[float, float, float, float]:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        values = [f(mid + half * t) for t, _ in _GAUSS7]
        value = half * math.fsum(w * v for (_, w), v in zip(_GAUSS7, values))
        coarse = half * (values[0] + values[3] + values[6]) * (2.0 / 3.0)
        return (-abs(value - coarse), a, b, value)

    heap = [cell(-4.0, 4.0)]
    for _ in range(150):
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        heapq.heappush(heap, cell(a, mid))
        heapq.heappush(heap, cell(mid, b))
    return math.fsum(item[3] for item in heap)


def reference_once() -> float:
    """Time of four small quadratures, about 6 ms together.

    The work looks like steinb's (closures, float math, lists and a heap), so
    contention on the machine slows it much as it slows steinb, but it shares
    no code with steinb, so a change to the program cannot move it.
    """
    started = time.perf_counter()
    for c in (0.5, 0.7, 0.9, 1.1):
        _reference_quadrature(c)
    return time.perf_counter() - started


class ReferenceSampler:
    """Times the reference every ``SAMPLE_EVERY_S`` of wall time, from a
    SIGALRM handler, so the machine's speed is sampled in the middle of long
    requests too (a ``paper-table`` pass is one request of about 3 s).

    ``spent`` is the time spent in the handler so far; the caller takes it off
    its own timings.  Samples taken only before and after each request
    followed the machine less well: over six ``paper-table`` runs the spread
    of ``wall_ref`` was 3.5% and 5.5% instead of 2.6% and 3.5%.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that comes while one runs is dropped
            return
        self._busy = True
        started = time.perf_counter()
        self.samples.append(reference_once())
        self.spent += time.perf_counter() - started
        self._busy = False

    def __enter__(self) -> ReferenceSampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.samples.append(reference_once())


def warm_cache_entries() -> int:
    """Entries held by every functools cache in the loaded steinb modules."""
    total = 0
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("steinb"):
            continue
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                total += info().currsize
    return total


def _requests(workload: str, inputs: Path | None, pass_dir: Path) -> list[tuple[str, list[str], Path]]:
    """(kind, argv, report path) for every request of the pass; writes the inputs."""
    if workload == "builtin-bounds":
        out = pass_dir / "bounds.json"
        return [("bounds", ["bounds", "--format", "json", "--jobs", "1", "--out", str(out)], out)]
    if workload == "paper-table":
        out = pass_dir / "paper-table.json"
        return [("paper-table", ["paper-table", "--out", str(out)], out)]
    requests = []
    for i, line in enumerate(inputs.read_text().splitlines()):
        item = json.loads(line)
        scenario = pass_dir / f"{i:04d}.jsonl"
        scenario.write_text(json.dumps(item["scenario"], sort_keys=True) + "\n")
        out = pass_dir / f"{i:04d}.out.json"
        argv = [item["request"], str(scenario), "--jobs", "1", "--out", str(out)]
        if item["request"] == "bounds":
            argv[2:2] = ["--format", "json"]
        requests.append((item["request"], argv, out))
    return requests


def _judge(kind: str, rc: int | None, report: bytes | None) -> tuple[int, int, int]:
    """(ops, failed ops, sandwich violations) for one finished request."""
    if report is None:
        return 1, 1, 0
    data = json.loads(report)
    if kind == "paper-table":
        rows = data["rows"]
        return len(rows), sum(not r["pass"] for r in rows), 0
    if kind == "check":
        return 1, int(rc != 0), 0
    broken = [e for e in data if "error" not in e and not sandwich_holds(e)]
    failed = sum(1 for e in data if scenario_failed(e) or e in broken)
    if rc != 0 and failed == 0:
        failed = len(data)
    return len(data), failed, len(broken)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout root holding src/steinb")
    parser.add_argument("--workload", required=True,
                        choices=("builtin-bounds", "paper-table", "sweep-mixed"))
    parser.add_argument("--inputs", default=None, help="sweep file (sweep-mixed)")
    parser.add_argument("--pass-dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="trace this pass and write its spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(args.root) / "src"))
    import steinb.cli as cli

    tracer = None
    if args.spans:
        import steinb.papertable  # noqa: F401  (imported lazily by the CLI; wrapped up front)
        from tracing import Tracer

        tracer = Tracer()
    warm = warm_cache_entries()
    pass_dir = Path(args.pass_dir)
    pass_dir.mkdir(parents=True, exist_ok=True)
    requests = _requests(args.workload, Path(args.inputs) if args.inputs else None, pass_dir)
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - args.t0

    records = []
    sink = io.StringIO()
    # Traced passes are not sampled: the handler's time would land in the
    # self time of whatever wrapped function it interrupts.
    sampler = ReferenceSampler()
    with sampler if tracer is None else contextlib.nullcontext():
        for i, request in enumerate(requests):
            span = tracer.request(i) if tracer is not None else contextlib.nullcontext()
            records.append(_send(cli, request, span, sink, sampler))
    wall_s = setup_s + sum(r["latency_s"] for r in records)

    result = {
        "steinb_preloaded": STEINB_PRELOADED,
        "warm_cache_entries": warm,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "ref_s": statistics.fmean(sampler.samples) if sampler.samples else None,
        "ref_samples": len(sampler.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "requests": records,
    }
    if tracer is not None:
        tracer.write_spans(args.spans)
        result["counters"] = tracer.counters()
        result["layers"] = tracer.metrics()
        result["missing_layers"] = tracer.missing
    Path(args.result).write_text(json.dumps(result))
    return 0


def _send(cli, request: tuple[str, list[str], Path], span, sink: io.StringIO,
          sampler: ReferenceSampler) -> dict:
    """Send one request to ``cli.main`` and return its record."""
    kind, cli_argv, out = request
    rc: int | None = None
    error = None
    spent_before = sampler.spent
    started = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(cli_argv)
    except Exception as exc:  # an op that raises is a failed op, not a failed pass
        error = type(exc).__name__
    latency = time.perf_counter() - started - (sampler.spent - spent_before)
    sink.seek(0)
    sink.truncate()
    report = out.read_bytes() if error is None and out.exists() else None
    ops, failed, violations = _judge(kind, rc, report)
    return {
        "kind": kind, "latency_s": latency, "rc": rc, "error": error,
        "ops": ops, "failed": failed, "sandwich_violations": violations,
        "sha256": hashlib.sha256(report).hexdigest() if report is not None else None,
    }


if __name__ == "__main__":
    raise SystemExit(main())
