"""The row kernel: GK15 for an integrand that returns n floats per point.

``integrate_vector`` hands it to ``numerics._adapt``, the adaptive loop of
``numerics.integrate``, so n integrals share one mesh and every node is
evaluated once for all of them, the design of DCUHRE (Berntsen, Espelid and
Genz 1991) in one dimension.  The identity checks run a whole suite of test
functions through it, and a bound report all its expectations through
``integrate_vector_or_eject``, which lets a component that does not
converge with the others leave the run.  Its changes of variable are
``numerics._transformed``'s, graded half-line maps included, with the same
arithmetic in every component.  A scalar integrand keeps
``numerics._gk15``: through the row kernel, a one-component cell of a bound
integrand costs about 1.5 scalar cells (CPython 3.11, best of 30 timings).

(A module of its own: when no bytecode cache exists, compiling these lines
inside ``numerics.py`` raises the peak memory of every import.)
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from . import config
from .numerics import (
    _NODES,
    Interval,
    NonFinite,
    NumericsError,
    QuadResult,
    _adapt,
    _nudge,
    _rule,
    _target,
)

VectorFn = Callable[[float], Sequence[float]]   # n floats per point

# integrate_vector_or_eject ejects a component after this many consecutive
# splits at one end (the scalar path probes an end after 30).  At 3, moments
# of sweep-mixed seeds 1-3 that converge were ejected too.
_EJECT_AFTER = 8


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


def _gk15_vector(f: VectorFn, n: int, lo: float, hi: float) -> tuple[float, ...]:
    """numerics._gk15 for n components: each node is evaluated once and the
    rule applied to each component's 15 values.  The value, error estimate
    and integral of |f| of component j are at 3j, 3j + 1 and 3j + 2."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    rows = []
    for t in _NODES:
        x = center + half * t
        # As _eval_row, inline: the kernel runs once per 15 evaluations.
        try:
            row = f(x)
        except (OverflowError, ZeroDivisionError):
            row = [math.inf] * n
        except ValueError:
            row = [math.nan] * n
        # A non-finite sum flags a non-finite component (or an overflowing sum).
        rows.append(row if math.isfinite(sum(row)) else _nudged_row(f, n, row, x, lo, hi))
    return tuple(r for column in zip(*rows) for r in _rule(column, half))


def _transformed_vector(f: Callable, iv: Interval, scaling: bool = False) -> tuple[VectorFn, float, float]:
    """numerics._transformed for n components, each scaled by the same
    arithmetic as there.  With ``scaling``, f(y, j) multiplies its own
    components by the Jacobian j, so no row is copied (on the real line j is
    then the one factor (1 + t^2) / (1 - t^2)^2), and f(y) is j = 1."""
    lo, hi = iv.lo, iv.hi
    if iv.bounded:
        return f, lo, hi
    if math.isfinite(lo) or math.isfinite(hi):
        a, sign = (lo, 1.0) if math.isfinite(lo) else (hi, -1.0)

        def g(t: float) -> Sequence[float]:
            onemt = 1.0 - t
            u = t / onemt
            j = 2.0 * u / (onemt * onemt)
            y = a + sign * (u * u)
            return f(y, j) if scaling else [v * j for v in f(y)]
        return g, 0.0, 1.0

    def g(t: float) -> Sequence[float]:
        onemt2 = 1.0 - t * t
        w, d = 1.0 + t * t, onemt2 * onemt2
        y = t / onemt2
        return f(y, w / d) if scaling else [v * w / d for v in f(y)]

    return g, -1.0, 1.0


def integrate_vector(
    f: VectorFn, n: int, iv: Interval, tol: float = config.QUAD.request_tol
) -> list[QuadResult]:
    """Integrate each of the n components of f over iv to absolute tolerance
    tol: numerics._adapt with the row kernel, after _transformed_vector's
    change of variable.  Stops, raises and reports as there."""
    g, t_lo, t_hi = _transformed_vector(f, iv)
    return _adapt(functools.partial(_gk15_vector, g, n), n, t_lo, t_hi, tol, None)


class _Ejected(Exception):
    """Ends a run of ``integrate_vector_or_eject``: args are the positions of
    the components that stayed non-finite, or None, and the results of the
    cell split at an end, or None."""


def _stuck(f: VectorFn, n: int, x: float, lo: float, hi: float) -> list[int]:
    """The components of f not finite at node x of [lo, hi] nor at _nudge(x),
    as _nudged_row found them."""
    at, near = _eval_row(f, n, x), _eval_row(f, n, _nudge(x, lo, hi))
    return [j for j in range(n) if not (math.isfinite(at[j]) or math.isfinite(near[j]))] or list(range(n))


def integrate_vector_or_eject(
    rows: Callable[[tuple[int, ...]], Callable], n: int, iv: Interval, tol: float = config.QUAD.request_tol
) -> list[QuadResult | None]:
    """integrate_vector of the n components of rows(range(n)), except that a
    component that does not converge with the others leaves the run
    cheaply, with None for its result, for the caller to integrate it
    alone.  rows(live) is the integrand of the components live, in order;
    it multiplies them by the Jacobian of the change of variable itself
    (``_transformed_vector``'s ``scaling``).

    A component that stays non-finite at a node is ejected, and the others
    start again.  Once a run has split a cell touching one end of the
    transformed interval _EJECT_AFTER times in a row, it stops: every
    component whose error on that cell is above its target
    max(tol, 100 eps mass) is ejected (if none is, every component above its
    target is), the others keep their exact totals where these meet their
    targets, and the rest go on together.  A new run reuses every cell
    already computed.  A run that raises leaves its components None.
    """
    # Every cell computed: (a, b) -> (the components it holds, their results).
    cache: dict[tuple[float, float], tuple[tuple[int, ...], tuple[float, ...]]] = {}
    out: list[QuadResult | None] = [None] * n
    live = tuple(range(n))
    while live:
        m = len(live)
        f, t_lo, t_hi = _transformed_vector(rows(live), iv, scaling=True)
        # This run's mesh: each cell's right end and results, by its left end.
        leaves: dict[float, tuple[float, Sequence[float]]] = {}
        streak = [0.0, 0]  # the side of the last split (+1 t_lo, -1 t_hi, 0 neither) and its run

        def cell(a: float, b: float) -> Sequence[float]:
            parent = leaves.get(a)
            if parent is not None and 0.5 * (a + parent[0]) == b:  # the left half of a split
                side = 1.0 if a == t_lo else -1.0 if parent[0] == t_hi else 0.0
                streak[:] = side, streak[1] + 1 if side == streak[0] else 1
                if side and streak[1] == _EJECT_AFTER:
                    raise _Ejected(None, parent[1])
            held = cache.get((a, b))
            if held is None:
                try:
                    c = _gk15_vector(f, m, a, b)
                except NonFinite as exc:
                    raise _Ejected(_stuck(f, m, exc.point, a, b), None) from exc
                cache[a, b] = live, c
            else:
                at = {k: i for i, k in enumerate(held[0])}
                c = tuple(held[1][3 * at[k] + i] for k in live for i in range(3))
            leaves[a] = b, c
            return c

        try:
            results = _adapt(cell, m, t_lo, t_hi, tol, None)
        except _Ejected as exc:
            stuck, edge = exc.args
        except NumericsError:
            break
        else:
            for k, r in zip(live, results):
                out[k] = QuadResult(r.value, r.abs_error_estimate, 15 * len(cache), r.mass)
            break
        if stuck is not None:
            live = tuple(k for i, k in enumerate(live) if i not in stuck)
            continue
        mesh = [c for _, c in leaves.values()]
        going_on, ejected = [], False
        for i, k in enumerate(live):
            value, err, mass = (math.fsum([c[v] for c in mesh]) for v in range(3 * i, 3 * i + 3))
            target = _target(tol, mass)
            if edge[3 * i + 1] > target:
                ejected = True
            elif math.isfinite(value) and err <= target:
                out[k] = QuadResult(value, err, 15 * len(cache), mass)
            else:
                going_on.append(k)
        live = tuple(going_on) if ejected else ()
    return out
