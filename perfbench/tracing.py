"""Per-layer tracing of the steinb package, installed from the benchmark's side.

``Tracer.install()`` replaces each function named in ``LAYERS`` with a timing
wrapper, everywhere it is bound: module globals of every ``steinb.*`` module
(``from .numerics import integrate`` makes one binding per importer), class
dictionaries (``ContinuousFamily.pdf``) and module-level dicts
(``cli.EMITTERS``).  The program itself is not
changed.  For every layer the tracer records calls and self time, which is a
call's duration minus the time spent in wrapped calls made from inside it.
Spans ``{id, name, start, end, parent, op}`` are kept in memory and written
out once, by ``write_spans``, when the traced pass ends.

Some layers count more than calls:

- ``numerics.integrate``: integrand evaluations, taken from
  ``QuadResult.evaluations`` and ``NonConvergence.evaluations`` (a level that
  raises ``NonFinite`` reports none), and how many calls did not converge.
- ``numerics.divergence`` (``integrate_detecting_divergence``): each direct
  ``integrate`` call is one refinement level, restarted from scratch.  The
  evaluations of every level whose value is not returned are wasted: all but
  the last level, and all of them when the verdict is infinite or the call
  raises.  Also the retries, the share of useful evaluations and the
  infinite verdicts.
- ``numerics.sum_series``: series terms, by counting calls of the term function.
- ``families.bulk_radius`` and ``operators.score_profile``: the number of
  distinct family specs (name, role, structural constants; plus ``eps`` for
  the radius) they were called with.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (metric prefix, module, attribute path within the module)
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("numerics.integrate", "steinb.numerics", "integrate"),
    ("numerics.divergence", "steinb.numerics", "integrate_detecting_divergence"),
    ("numerics.sum_series", "steinb.numerics", "sum_series"),
    ("numerics.monotonicity_scan", "steinb.numerics", "monotonicity_scan"),
    ("families.pdf", "steinb.families", "ContinuousFamily.pdf"),
    ("families.bulk_radius", "steinb.families", "bulk_radius"),
    ("families.expectation", "steinb.families", "expectation"),
    ("operators.score_profile", "steinb.operators", "score_profile"),
    ("operators.exchanging_pair", "steinb.operators", "exchanging_pair"),
    ("operators.make_operator", "steinb.operators", "make_operator"),
    ("bounds.lower_bound", "steinb.bounds", "lower_bound"),
    ("bounds.upper_bound", "steinb.bounds", "upper_bound"),
    ("bounds.discrete_lower_bound", "steinb.bounds", "discrete_lower_bound"),
    ("bounds.literature_bounds", "steinb.bounds", "literature_bounds"),
    ("bounds.tightness_residual", "steinb.bounds", "tightness_residual"),
    ("bounds.bound_report", "steinb.bounds", "bound_report"),
    ("bounds.poincare_constant", "steinb.bounds", "poincare_constant"),
    ("harness.identity_suite", "steinb.harness", "identity_suite"),
    ("harness.falsify_identity", "steinb.harness", "falsify_identity"),
    ("harness.ground_truth_variance", "steinb.harness", "ground_truth_variance"),
    ("harness.run_scenario", "steinb.harness", "run_scenario"),
    ("cli.load_scenarios", "steinb.cli", "load_scenarios"),
    ("cli.emit_json", "steinb.cli", "emit_json"),
    ("papertable.build_rows", "steinb.papertable", "build_rows"),
)

# One span per density evaluation would not fit in memory; these layers are
# aggregated (calls and self time) without spans.
UNSPANNED = frozenset({"families.pdf"})
SPAN_CAP = 400_000

_INTEGRATE = "numerics.integrate"
_DIVERGENCE = "numerics.divergence"
_SERIES = "numerics.sum_series"
_SPEC_KEYED = {"families.bulk_radius": ("fam", "eps"), "operators.score_profile": ("fam",)}
_COUNTS = (
    _INTEGRATE + ".evals", _INTEGRATE + ".nonconvergence",
    _DIVERGENCE + ".evals", _DIVERGENCE + ".retries", _DIVERGENCE + ".wasted_evals",
    _DIVERGENCE + ".inf_verdicts", _SERIES + ".terms",
)

# Frame slots: time spent in wrapped children, layer name, span id, start, levels.
_CHILD, _NAME, _ID, _START, _LEVELS = range(5)


def family_spec(fam: Any) -> tuple:
    """A hashable description of a family: name, role and structural constants."""
    return (getattr(fam, "name", type(fam).__name__), repr(getattr(fam, "role", None)),
            tuple(getattr(fam, "structural", ())))


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list[Any]] = []
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.spans_dropped = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.specs: defaultdict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self.op: int | None = None
        self._next_id = 0
        self._nonconvergence: type = ()  # set by install()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer, replacing all bindings of each original object.

        A layer whose target no longer exists is recorded in ``missing``
        instead of failing the run, so a refactor shows up as a zero count.
        """
        numerics = importlib.import_module("steinb.numerics")
        self._nonconvergence = getattr(numerics, "NonConvergence", ())
        for name, module_name, path in LAYERS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            _rebind(original, self._wrap(name, original))

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in UNSPANNED:
            return self._wrap_hot(name, fn)
        stack, clock, calls, self_s = self.stack, self.clock, self.calls, self.self_s
        spec_args = _SPEC_KEYED.get(name)
        signature = inspect.signature(fn) if spec_args else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if spec_args is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                values = [bound.arguments[a] for a in spec_args]
                self.specs[name].add((family_spec(values[0]), *values[1:]))
            if name == _SERIES:
                args, counter = _count_terms(args, kwargs)
            frame = [0.0, name, self._next_id, 0.0, []]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            outcome: Any = None
            frame[_START] = start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += duration
                self._record(frame, end, parent)
                if name == _INTEGRATE:
                    self._integrated(outcome, parent)
                elif name == _DIVERGENCE:
                    self._diverged(outcome, frame[_LEVELS])
                elif name == _SERIES:
                    self.counts[_SERIES + ".terms"] += counter[0]

        return wrapper

    def _wrap_hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Calls and self time only, for layers called once per integrand evaluation."""
        stack, clock, calls, self_s = self.stack, self.clock, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, name, None, 0.0, None]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += duration - frame[_CHILD]
                if parent is not None:
                    parent[_CHILD] += duration

        return wrapper

    # -- layer-specific counters -------------------------------------------

    def _integrated(self, outcome: Any, parent: list[Any] | None) -> None:
        evaluations = getattr(outcome, "evaluations", 0)
        self.counts[_INTEGRATE + ".evals"] += evaluations
        if isinstance(outcome, self._nonconvergence):
            self.counts[_INTEGRATE + ".nonconvergence"] += 1
        if parent is not None and parent[_NAME] == _DIVERGENCE:
            parent[_LEVELS].append(evaluations)

    def _diverged(self, outcome: Any, levels: list[int]) -> None:
        verdict = isinstance(outcome, float) and math.isinf(outcome)
        # Only the level whose value is returned was useful; an infinite
        # verdict or an exception throws every level's value away.
        useful = levels[-1] if levels and isinstance(outcome, float) and not verdict else 0
        self.counts[_DIVERGENCE + ".retries"] += max(len(levels) - 1, 0)
        self.counts[_DIVERGENCE + ".wasted_evals"] += sum(levels) - useful
        self.counts[_DIVERGENCE + ".evals"] += sum(levels)
        self.counts[_DIVERGENCE + ".inf_verdicts"] += verdict

    # -- spans --------------------------------------------------------------

    @contextlib.contextmanager
    def request(self, op: int):
        """Root span of one CLI request; every span inside it carries ``op``."""
        self.op = op
        frame = [0.0, "request", self._next_id, self.clock(), []]
        self._next_id += 1
        self.stack.append(frame)
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            self._record(frame, end, None)
            self.op = None

    def _record(self, frame: list[Any], end: float, parent: list[Any] | None) -> None:
        if len(self.spans) >= SPAN_CAP:
            self.spans_dropped += 1
            return
        self.spans.append((frame[_ID], frame[_NAME], frame[_START], end,
                           parent[_ID] if parent is not None else None, self.op))

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    # -- results ------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Every deterministic count: these repeat exactly between traced runs."""
        out: dict[str, int] = {}
        for name, _, _ in LAYERS:
            out[name + ".calls"] = self.calls[name]
        for key in _COUNTS:
            out[key] = self.counts[key]
        for name in _SPEC_KEYED:
            out[name + ".distinct_specs"] = len(self.specs[name])
        out["trace.missing_layers"] = len(self.missing)
        return dict(sorted(out.items()))

    def metrics(self) -> dict[str, float]:
        """Counters, self times and the ratios derived from them."""
        out: dict[str, float] = dict(self.counters())
        for name, _, _ in LAYERS:
            out[name + ".self_s"] = self.self_s[name]
        total = self.counts[_DIVERGENCE + ".evals"]
        wasted = self.counts[_DIVERGENCE + ".wasted_evals"]
        out[_DIVERGENCE + ".useful_ratio"] = (total - wasted) / total if total else 1.0
        evals = self.counts[_INTEGRATE + ".evals"]
        out["families.pdf.calls_per_eval"] = self.calls["families.pdf"] / evals if evals else 0.0
        out["trace.spans"] = len(self.spans)
        out["trace.spans_dropped"] = self.spans_dropped
        return out


def _count_terms(args: tuple, kwargs: dict) -> tuple[tuple, list[int]]:
    """Replace the series' term function (first argument) by a counting one."""
    counter = [0]
    key = "f" if "f" in kwargs else None
    term = kwargs[key] if key else args[0]

    def counted(x: int) -> float:
        counter[0] += 1
        return term(x)

    if key:
        kwargs[key] = counted
        return args, counter
    return (counted, *args[1:]), counter


def _rebind(original: Any, wrapper: Any) -> None:
    """Point every binding of ``original`` at ``wrapper``: steinb module globals,
    class attributes, and values of module-level dicts (``cli.EMITTERS``)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "steinb" or module_name.startswith("steinb.")):
            continue
        namespaces = [module]
        namespaces += [v for v in vars(module).values()
                       if isinstance(v, type) and v.__module__ == module_name]
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
        for table in [v for v in vars(module).values() if isinstance(v, dict)]:
            for key, value in list(table.items()):
                if value is original:
                    table[key] = wrapper
