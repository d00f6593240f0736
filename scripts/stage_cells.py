#!/usr/bin/env python3
"""Count the GK15 cells and the time of one steinb command, stage by stage.

For a command, run in process through ``steinb.cli.main`` with ``--jobs 1``,
it prints per stage:

- ``scalar``: cells of one-component runs, the GK15 cells
  (``vectorquad._gk15_vector``) made inside ``numerics.integrate`` of a
  scalar integrand (no ``n``), the probe shells of
  ``integrate_detecting_divergence`` included; on a tree
  that still has a scalar kernel, the cells of ``numerics._gk15``;
- ``row``: the other cells of ``vectorquad._gk15_vector``, those whose
  components all belong to the stage;
- ``components``: row-kernel component-cells, a cell of n components
  counting n, each given to the stage of its component;
- ``terms``: series terms of the discrete walks (``families.discrete_sums``),
  a term of a walk whose moments span several stages counting on the
  ``shared`` line;
- ``ms``: self time in the stage, in milliseconds (a shared run's time is
  split over its stages in proportion to their components).

The stages are ``suite`` (identity suites under the family's own law),
``falsification`` (the operator under another law), ``fisher`` (score
profiles), ``variance``, ``lower``, ``upper``, ``comparators`` and
``tightness``; ``other`` is everything else.  A stage is entered by its
function (``harness.operator_integrals`` / ``operator_sums``,
``operators.score_profile``, ``bounds.ground_truth_variance``,
``lower_bound``, ``discrete_lower_bound``, ``upper_bound``,
``literature_bounds``, ``tightness_residual``).  Where a request takes its
expectations together (``families._expectations``: a shared run or a
walk) each moment belongs to the stage that reads it: E[h^2] and E[h] to
``variance``, the lower bound's numerator to ``lower``, the upper bound's
integrand to ``upper``, the Fisher information to ``fisher``, the rest to
``comparators``, unless the request sits inside one of the bound-stage
functions above, which then takes all of it.  A row cell of such a run
whose components span several stages counts on the ``shared`` line.  The
same counts come out of a source tree whose engine still lives in
``bounds.py``, or that has no shared runs, so two trees can be compared
(``--src``); on this tree, a stage function or engine function that is
missing is an error, not a stage left uncounted.

``perfbench``'s ``numerics.integrate.evals`` counts the one-component runs
and the identity suites (``integrate`` with ``n``) only; the evaluations of
the shared runs are seen here.

Usage:
    python3 scripts/stage_cells.py {bounds,paper-table,sweep} [--seeds 1,2,3]
                                   [--src SRC] [--json]

``bounds`` is ``steinb bounds --format json`` on the builtin matrix,
``paper-table`` is ``steinb paper-table``, and ``sweep`` runs every
sweep-mixed scenario of each seed (``perfbench/sweep.py``) as a one-line
file under its own ``check`` or ``bounds --format json``.  ``--src`` is the
``src`` directory of the tree to measure (default: this one's).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import importlib.util
import io
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

REPO = Path(__file__).resolve().parent.parent
SWEEP = REPO / "perfbench" / "sweep.py"

STAGES = ("suite", "falsification", "fisher", "variance", "lower", "upper", "comparators",
          "tightness", "other")
BOUND_STAGES = frozenset({"variance", "lower", "upper", "comparators", "tightness"})
# (module, function, stage); a function whose stage is None decides per call.
STAGE_FUNCTIONS = (
    ("steinb.harness", "operator_integrals", None),
    ("steinb.harness", "operator_sums", None),
    ("steinb.operators", "score_profile", "fisher"),
    ("steinb.bounds", "ground_truth_variance", "variance"),
    ("steinb.bounds", "lower_bound", "lower"),
    ("steinb.bounds", "discrete_lower_bound", "lower"),
    ("steinb.bounds", "upper_bound", "upper"),
    ("steinb.bounds", "literature_bounds", "comparators"),
    ("steinb.bounds", "tightness_residual", "tightness"),
)
MOMENT_STAGES = {"h2": "variance", "h": "variance", "lower": "lower", "upper": "upper", "phi2": "fisher"}
# Where the expectation engine lives: this tree's module first, then the one
# of older trees.
ENGINE_HOMES = ("steinb.families", "steinb.bounds")
ENGINE = ("_expectations", "_alone", "_integrand")


class Stages:
    """Counts and self times per stage.  The stack holds the stages in
    progress, each as its shares (stage -> weight) of the time spent in it."""

    def __init__(self) -> None:
        self.stack: list[dict[str, float]] = [{"other": 1.0}]
        self.last = time.perf_counter()
        self.ms: collections.Counter = collections.Counter()
        self.scalar: collections.Counter = collections.Counter()
        self.row: collections.Counter = collections.Counter()
        self.components: collections.Counter = collections.Counter()
        self.terms: collections.Counter = collections.Counter()

    def _charge(self) -> None:
        now = time.perf_counter()
        for stage, weight in self.stack[-1].items():
            self.ms[stage] += 1e3 * (now - self.last) * weight
        self.last = now

    @contextlib.contextmanager
    def entered(self, shares: dict[str, float]):
        self._charge()
        self.stack.append(shares)
        try:
            yield
        finally:
            self._charge()
            self.stack.pop()

    def enclosing(self) -> str | None:
        """The bound stage a shared run or a lone moment sits in, if any."""
        shares = self.stack[-1]
        stage = next(iter(shares)) if len(shares) == 1 else None
        return stage if stage in BOUND_STAGES else None

    def moment_stage(self, name: str) -> str:
        return self.enclosing() or MOMENT_STAGES.get(name, "comparators")

    def count_scalar(self) -> None:
        self.scalar[max(self.stack[-1], key=self.stack[-1].get)] += 1

    def count_row(self, n: int, moments: list[str] | None) -> None:
        """A row cell of n components: of the named moments of a shared run,
        or all of the current stage's."""
        if moments is not None and len(moments) == n:
            owners = [self.moment_stage(name) for name in moments]
        else:
            shares = self.stack[-1]
            owners = [max(shares, key=shares.get)] * n
        for stage in owners:
            self.components[stage] += 1
        self.row[owners[0] if len(set(owners)) == 1 else "shared"] += 1

    def count_term(self) -> None:
        """A term of a walk: the current stage's, or shared between several."""
        shares = self.stack[-1]
        self.terms[next(iter(shares)) if len(shares) == 1 else "shared"] += 1


def _rebind(name: str, old: Any, new: Any) -> None:
    """Replace ``old`` by ``new`` wherever a steinb module binds it as ``name``."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "steinb" and getattr(module, name, None) is old:
            setattr(module, name, new)


def install(stages: Stages, strict: bool) -> None:
    """Count and stage the tree's kernels and functions.  ``strict`` (this
    tree) makes a missing target an error."""
    numerics = importlib.import_module("steinb.numerics")
    vectorquad = importlib.import_module("steinb.vectorquad")
    families = importlib.import_module("steinb.families")
    bounds = importlib.import_module("steinb.bounds")
    importlib.import_module("steinb.cli")  # every module that binds a stage function

    def target(module: Any, name: str) -> Any:
        fn = getattr(module, name, None)
        if fn is None and strict:
            raise SystemExit(f"stage_cells: {module.__name__}.{name} is gone; update the script")
        return fn

    vector, integrate = vectorquad._gk15_vector, target(numerics, "integrate")
    scalar = getattr(numerics, "_gk15", None)  # an older tree's scalar kernel
    lone = [0]  # numerics.integrate calls of a scalar integrand in progress

    def counting_vector(f, n, lo, hi):
        if lone[0]:
            stages.count_scalar()
        else:
            stages.count_row(n, getattr(f, "moments", None))
        return vector(f, n, lo, hi)

    def counting_integrate(*args, **kwargs):
        one = kwargs.get("n") is None  # with n, a row of n: an identity suite
        lone[0] += one
        try:
            return integrate(*args, **kwargs)
        finally:
            lone[0] -= one

    vectorquad._gk15_vector = counting_vector
    _rebind("integrate", integrate, counting_integrate)
    if scalar is not None:
        def counting_scalar(f, lo, hi):
            stages.count_scalar()
            return scalar(f, lo, hi)

        numerics._gk15 = counting_scalar

    sums = target(families, "discrete_sums")
    if sums is not None:
        def counting_sums(fam, terms, tols):
            def counted(k):
                stages.count_term()
                return terms(k)
            return sums(fam, counted, tols)
        _rebind("discrete_sums", sums, counting_sums)

    def staged(fn: Callable, shares_of: Callable[..., dict[str, float]]) -> Callable:
        def wrapper(*args, **kwargs):
            with stages.entered(shares_of(*args, **kwargs)):
                return fn(*args, **kwargs)
        return wrapper

    for module_name, name, stage in STAGE_FUNCTIONS:
        fn = target(importlib.import_module(module_name), name)
        if fn is None:
            continue
        if stage is None:
            def shares_of(fam, law, *args, **kwargs):
                return {"suite" if law is None else "falsification": 1.0}
        else:
            def shares_of(*args, stage=stage, **kwargs):
                return {stage: 1.0}
        _rebind(name, fn, staged(fn, shares_of))

    # An older tree's discrete report walk: E[h^2], E[h] and the lower
    # bound's numerator.
    walk = getattr(bounds, "_discrete_sums", None)
    if walk is not None:
        _rebind("_discrete_sums", walk, staged(walk, lambda *args: {"variance": 2 / 3, "lower": 1 / 3}))

    # Shared runs, walks and lone moments, where the tree has them: a shared
    # run's integrand carries its moments' names through the change of
    # variable.
    homes = [importlib.import_module(m) for m in ENGINE_HOMES]
    home = homes[0] if strict else next((m for m in homes if hasattr(m, "_expectations")), None)
    if home is None:
        return
    expectations, alone, integrand = (target(home, name) for name in ENGINE)
    transformed = vectorquad._transformed_vector

    def shared_shares(fam, h, request, tol):
        owners = collections.Counter(stages.moment_stage(name) for name in request)
        return {s: c / len(request) for s, c in owners.items()} or {"other": 1.0}

    def alone_shares(fam, h, name, *args):
        return {stages.moment_stage(name): 1.0}

    def named(fam, h, names):
        f = integrand(fam, h, names)
        if not isinstance(names, str):
            f.moments = list(names)
        return f

    def carried(f, *args, **kwargs):
        g, lo, hi = transformed(f, *args, **kwargs)
        if g is not f and hasattr(f, "moments"):
            g.moments = f.moments
        return g, lo, hi

    _rebind("_expectations", expectations, staged(expectations, shared_shares))
    _rebind("_alone", alone, staged(alone, alone_shares))
    _rebind("_integrand", integrand, named)
    _rebind("_transformed_vector", transformed, carried)


def _load_sweep():
    spec = importlib.util.spec_from_file_location("perfbench_sweep", SWEEP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def requests(command: str, seeds: list[int], tmp: Path) -> list[list[str]]:
    if command == "bounds":
        return [["bounds", "--format", "json", "--jobs", "1"]]
    if command == "paper-table":
        return [["paper-table"]]
    calls = []
    sweep = _load_sweep()
    for seed in seeds:
        for i, item in enumerate(sweep.generate(seed)):
            scenario = tmp / f"seed{seed}-{i:04d}.jsonl"
            scenario.write_text(json.dumps(item["scenario"], sort_keys=True) + "\n")
            argv = [item["request"], str(scenario), "--jobs", "1"]
            if item["request"] == "bounds":
                argv[2:2] = ["--format", "json"]
            calls.append(argv)
    return calls


def measure(command: str, seeds: list[int], strict: bool) -> dict[str, Any]:
    cli = importlib.import_module("steinb.cli")
    stages = Stages()
    install(stages, strict)
    with tempfile.TemporaryDirectory() as tmp:
        calls = requests(command, seeds, Path(tmp))
        started = time.perf_counter()
        stages.last = started
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        stages._charge()
        total_ms = 1e3 * (time.perf_counter() - started)
    rows = {stage: {"scalar": stages.scalar[stage], "row": stages.row[stage],
                    "components": stages.components[stage], "terms": stages.terms[stage],
                    "ms": round(stages.ms[stage], 1)}
            for stage in STAGES}
    rows["shared"] = {"scalar": 0, "row": stages.row["shared"], "components": 0,
                      "terms": stages.terms["shared"], "ms": 0.0}
    return {"command": command, "seeds": seeds if command == "sweep" else None,
            "stages": rows, "total_ms": round(total_ms, 1)}


def print_table(result: dict[str, Any]) -> None:
    print(f"{'stage':14s} {'scalar':>8s} {'row':>8s} {'components':>11s} {'terms':>9s} {'ms':>9s}")
    totals = collections.Counter()
    for stage, row in result["stages"].items():
        print(f"{stage:14s} {row['scalar']:8d} {row['row']:8d} {row['components']:11d} {row['terms']:9d} "
              f"{row['ms']:9.1f}")
        totals.update(row)
    print(f"{'total':14s} {totals['scalar']:8d} {totals['row']:8d} {totals['components']:11d} "
          f"{totals['terms']:9d} {result['total_ms']:9.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("bounds", "paper-table", "sweep"))
    parser.add_argument("--seeds", default="1", help="sweep seeds, comma-separated (default 1)")
    parser.add_argument("--src", default=str(REPO / "src"), help="src directory of the tree to measure")
    parser.add_argument("--json", action="store_true", help="print the counts as JSON")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    strict = src == (REPO / "src").resolve()  # this tree: every target must be found
    result = measure(args.command, [int(s) for s in args.seeds.split(",")], strict)
    if args.json:
        print(json.dumps(result, indent=1))
    else:
        print_table(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
