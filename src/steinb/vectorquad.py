"""The row kernel: GK15 for an integrand that returns n floats per point.

``integrate_vector`` hands it to ``numerics._adapt``, the adaptive loop of
``numerics.integrate``, so n integrals share one mesh and every node is
evaluated once for all of them, the design of DCUHRE (Berntsen, Espelid and
Genz 1991) in one dimension.  The identity checks run a whole suite of test
functions through it.  Its changes of variable are ``numerics._transformed``'s,
graded half-line maps included, with the same arithmetic in every component.
A scalar integrand keeps ``numerics._gk15``: passing it through the row
kernel would double the cost of a cell.

(A module of its own: when no bytecode cache exists, compiling these lines
inside ``numerics.py`` raises the peak memory of every import.)
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from . import config
from .numerics import _NODES, Interval, NonFinite, QuadResult, _adapt, _nudge, _rule

VectorFn = Callable[[float], Sequence[float]]   # n floats per point


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
            u = t / onemt
            j = 2.0 * u / (onemt * onemt)
            return [v * j for v in f(a + sign * (u * u))]
        return g, 0.0, 1.0

    def g(t: float) -> list[float]:
        onemt2 = 1.0 - t * t
        w, d = 1.0 + t * t, onemt2 * onemt2
        return [v * w / d for v in f(t / onemt2)]

    return g, -1.0, 1.0


def integrate_vector(
    f: VectorFn, n: int, iv: Interval, tol: float = config.QUAD.request_tol
) -> list[QuadResult]:
    """Integrate each of the n components of f over iv to absolute tolerance
    tol: numerics._adapt with the row kernel, after _transformed_vector's
    change of variable.  Stops, raises and reports as there."""
    g, t_lo, t_hi = _transformed_vector(f, iv)
    return _adapt(functools.partial(_gk15_vector, g, n), n, t_lo, t_hi, tol, None)
