"""Several integrals on one shared adaptive mesh.

``integrate_vector`` is ``numerics.integrate`` for an integrand that returns
n floats per point: one globally adaptive GK15 run whose every node is
evaluated once for all n integrals, the design of DCUHRE (Berntsen, Espelid
and Genz 1991) in one dimension.  It uses integrate's variable changes,
nodes, dqk15 rule, budget and exceptions; only the mesh is shared.  The
identity checks run a whole suite of test functions through it.

(A module of its own: when no bytecode cache exists, compiling these lines
inside ``numerics.py`` raises the peak memory of every import.)
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

from . import config
from .numerics import (
    _ANCHOR_EVERY,
    _EPS,
    _HUGE,
    _NODES,
    Interval,
    NonConvergence,
    NonFinite,
    QuadResult,
    _nudge,
    _rule,
    _target,
)

VectorFn = Callable[[float], Sequence[float]]   # n floats per point
# One cell's results: value, error estimate and integral of |f| of component j
# at 3j, 3j + 1 and 3j + 2 (a flat tuple keeps a deep mesh small).
Cell = tuple[float, ...]


def _eval_row(f: VectorFn, n: int, x: float) -> Sequence[float]:
    # As numerics._eval_raw, for every component at once.
    try:
        return f(x)
    except (OverflowError, ZeroDivisionError):
        return [math.inf] * n
    except ValueError:
        return [math.nan] * n


def _nudged_row(f: VectorFn, n: int, row: Sequence[float], x: float, lo: float, hi: float) -> list[float]:
    """numerics._nudged for the non-finite components of row: one evaluation
    at _nudge(x) replaces them, and the finite ones keep their values."""
    row = list(row)
    bad = [j for j, v in enumerate(row) if not math.isfinite(v)]
    if bad:
        row2 = _eval_row(f, n, _nudge(x, lo, hi))
        for j in bad:
            if not math.isfinite(row2[j]):
                raise NonFinite(f"integrand not finite near {x!r}", point=x, observed=row2[j])
            row[j] = row2[j]
    return row


def _gk15_vector(f: VectorFn, n: int, lo: float, hi: float) -> Cell:
    """numerics._gk15 for n components: each node is evaluated once and the
    rule applied to each component's 15 values."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    rows = []
    for t in _NODES:
        x = center + half * t
        row = _eval_row(f, n, x)
        # A non-finite sum flags a non-finite component (or an overflowing sum).
        rows.append(row if math.isfinite(sum(row)) else _nudged_row(f, n, row, x, lo, hi))
    return tuple(r for column in zip(*rows) for r in _rule(column, half))


def _transformed_vector(f: VectorFn, iv: Interval) -> tuple[VectorFn, float, float]:
    """numerics._transformed for n components, each scaled by the same arithmetic as there."""
    lo, hi = iv.lo, iv.hi
    if iv.bounded:
        return f, lo, hi
    if math.isfinite(lo) or math.isfinite(hi):
        a, sign = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)

        def g(t: float) -> list[float]:
            onemt = 1.0 - t
            d = onemt * onemt
            return [v / d for v in f(a + sign * (t / onemt))]
        return g, 0.0, 1.0

    def g(t: float) -> list[float]:
        onemt2 = 1.0 - t * t
        w, d = 1.0 + t * t, onemt2 * onemt2
        return [v * w / d for v in f(t / onemt2)]

    return g, -1.0, 1.0


def integrate_vector(
    f: VectorFn, n: int, iv: Interval, tol: float = config.QUAD.request_tol
) -> list[QuadResult]:
    """Integrate each of the n components of f over iv to absolute tolerance tol.

    The cell with the largest error estimate of any component is bisected
    until every component j meets its own target max(tol, 100 eps mass_j),
    mass_j being the integral of its |f|.  Running totals per component
    decide whether to go on; they are re-summed exactly with ``math.fsum``
    every 50 splits, whenever they are huge or not finite, whenever they say
    every component is done, and before any return or raise.

    Raises as integrate() does, on the same budget (``config.QUAD.max_subdivisions``,
    read at call time): NonFinite when a component cannot be evaluated at an
    interior point even after nudging, NonConvergence naming and carrying
    the first component above its target.  No ``levels`` are recorded, since
    there is no divergence detection here.  The results share one
    ``evaluations`` count.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = config.QUAD.max_subdivisions
    g, t_lo, t_hi = _transformed_vector(f, iv)
    components = range(n)

    seq = 0  # cells made, 15 evaluations each
    # heap entries: (-largest error, seq, lo, hi, cell)
    heap: list[tuple[float, int, float, float, Cell]] = []
    frozen: list[Cell] = []  # cells below splitting resolution

    def push(a: float, b: float) -> Cell:
        nonlocal seq
        cell = _gk15_vector(g, n, a, b)
        heapq.heappush(heap, (-max(cell[1::3]), seq, a, b, cell))
        seq += 1
        return cell

    def totals() -> tuple[list[float], list[float], list[float]]:
        cells = [c[4] for c in heap] + frozen
        return tuple([math.fsum(cell[3 * j + k] for cell in cells) for j in components]
                     for k in range(3))

    def unmet() -> int | None:
        """The first component above its target, or None."""
        return next((j for j in components if errors[j] > _target(tol, masses[j])), None)

    def sane() -> bool:
        return all(abs(v) < _HUGE and e < _HUGE and r < _HUGE for v, e, r in zip(values, errors, masses))

    n_init = 8
    width = (t_hi - t_lo) / n_init
    for i in range(n_init):
        push(t_lo + i * width, t_lo + (i + 1) * width)

    splits = anchored = 0
    values, errors, masses = totals()
    exact = True
    while True:
        j = unmet()
        if not exact and (j is None or splits - anchored >= _ANCHOR_EVERY or splits >= budget
                          or not heap or not sane()):
            values, errors, masses = totals()
            exact, anchored = True, splits
            j = unmet()
        if j is None:
            break
        overflowed = next((i for i in components if not math.isfinite(values[i])), None)
        if overflowed is not None:
            raise NonConvergence("partial integral overflowed", values[overflowed], errors[overflowed], 15 * seq)
        if splits >= budget:
            raise NonConvergence(
                f"error {errors[j]:.3e} above tol {tol:.3e} after {splits} subdivisions",
                values[j], errors[j], 15 * seq,
            )
        if not heap:
            raise NonConvergence(
                "interval exhausted below resolution with error above tol",
                values[j], errors[j], 15 * seq,
            )
        _, _, a, b, parent = heapq.heappop(heap)
        if (b - a) < 1e-300 + 50.0 * _EPS * max(abs(a), abs(b)):
            frozen.append(parent)  # the totals do not change
            continue
        mid = 0.5 * (a + b)
        left, right = push(a, mid), push(mid, b)
        splits += 1
        for i in components:
            v, e, r = 3 * i, 3 * i + 1, 3 * i + 2
            values[i] += left[v] + right[v] - parent[v]
            errors[i] += left[e] + right[e] - parent[e]
            masses[i] += left[r] + right[r] - parent[r]
        exact = False

    return [QuadResult(value=v, abs_error_estimate=e, evaluations=15 * seq, mass=r)
            for v, e, r in zip(values, errors, masses)]
