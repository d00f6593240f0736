"""The GK15 kernel, for an integrand that returns n floats per point.

``numerics.integrate`` hands it to ``numerics._adapt``, the one adaptive
loop, so n integrals share one mesh and every node is evaluated once for
all of them, the design of DCUHRE (Berntsen, Espelid and Genz 1991) in one
dimension; a scalar integrand runs as a row of one.  The identity checks
run a whole suite of test functions through it, and a bound report all
its expectations through ``integrate_vector_or_eject``,
which lets a component that does not converge with the others leave the
run (``_adapt``'s end streak calls its hook ``_eject``).  Its changes of
variable are the maps of ``numerics``' docstring, graded half-line maps
included, with the same arithmetic in every component.

(A module of its own: when no bytecode cache exists, compiling these lines
inside ``numerics.py`` raises the peak memory of every import.)
"""

from __future__ import annotations

import math
from typing import Callable, NoReturn, Sequence

from . import config
from .numerics import (
    _HEAD,
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

# integrate_vector_or_eject's end hook stops a run after this many
# consecutive splits at one end (integrate_detecting_divergence's probe after 30).  At 3,
# moments of sweep-mixed seeds 1-3 that converge were ejected too.
_EJECT_AFTER = 8


def _nudged_row(f: VectorFn, n: int, row: Sequence[float], x: float, lo: float, hi: float) -> list[float]:
    """The singularity-avoidance nudge for the non-finite components of row:
    one evaluation at numerics._nudge(x) replaces them, the finite ones keep
    their values, and the NonFinite raised names every component that stays
    non-finite."""
    row = list(row)
    bad = [j for j, v in enumerate(row) if not math.isfinite(v)]
    if bad:
        # As numerics._eval_raw, for every component at once.
        try:
            row2 = f(_nudge(x, lo, hi))
        except (OverflowError, ZeroDivisionError):
            row2 = [math.inf] * n
        except ValueError:
            row2 = [math.nan] * n
        stuck = tuple(j for j in bad if not math.isfinite(row2[j]))
        if stuck:
            raise NonFinite(f"integrand not finite near {x!r}", point=x, observed=row2[stuck[0]],
                            components=stuck)
        for j in bad:
            row[j] = row2[j]
    return row


def _gk15_vector(f: VectorFn, n: int, lo: float, hi: float) -> tuple[float, ...]:
    """One Gauss-Kronrod pass over [lo, hi] for n components: each node is
    evaluated once and the rule applied to each component's 15 values.  The
    kronrod value, error estimate and integral of |f| of component j are at
    3j, 3j + 1 and 3j + 2."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    rows = []
    for t in _NODES:
        x = center + half * t
        # As numerics._eval_raw, inline: the kernel runs once per 15 evaluations.
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
    """Return (g, t_lo, t_hi) with the integral of each component of f over
    iv equal to that of g over [t_lo, t_hi].  g scales each value v of f(y)
    by the Jacobian after f: v * j on a half-line, v * (1 + t^2) / (1 - t^2)^2
    on the real line.  With ``scaling``, f(y, j) multiplies its own
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


class QuadRow(tuple):
    """The results of numerics.integrate on a row of n, which share one mesh
    and so its ``evaluations``."""

    __slots__ = ()

    @property
    def evaluations(self) -> int:
        return self[0].evaluations


class _Ejected(Exception):
    """Ends a run of ``integrate_vector_or_eject``: args are the heap entry
    of the cell split at an end and the entries of the run's mesh."""


def _eject(side: float, entry: tuple, entries: list) -> NoReturn:
    """integrate_vector_or_eject's end hook for numerics._adapt."""
    raise _Ejected(entry, entries)


def integrate_vector_or_eject(
    rows: Callable[[tuple[int, ...]], Callable], n: int, iv: Interval, tol: float = config.QUAD.request_tol
) -> list[QuadResult | None]:
    """numerics.integrate of the n components of rows(range(n)), except that a
    component that does not converge with the others leaves the run
    cheaply, with None for its result, for the caller to integrate it
    alone.  rows(live) is the integrand of the components live, in order;
    it multiplies them by the Jacobian of the change of variable itself
    (``_transformed_vector``'s ``scaling``).

    A component that stays non-finite at a node is ejected, and the others
    start again.  Once a run has split a cell touching one end of the
    transformed interval _EJECT_AFTER times in a row (``numerics._adapt``'s
    streak, with ``_eject`` its end hook), it stops: every
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

        def cell(a: float, b: float) -> Sequence[float]:
            held = cache.get((a, b))
            if held is None:
                c = _gk15_vector(f, m, a, b)
                cache[a, b] = live, c
                return c
            at = {k: i for i, k in enumerate(held[0])}
            return tuple(held[1][3 * at[k] + i] for k in live for i in range(3))

        try:
            results = _adapt(cell, m, t_lo, t_hi, tol, (_EJECT_AFTER, _eject))
        except _Ejected as exc:
            edge, mesh = exc.args
        except NonFinite as exc:
            # The kernel names the components that stayed non-finite; a
            # NonFinite the integrand raised itself names none, and all leave.
            stuck = exc.components or range(m)
            live = tuple(k for i, k in enumerate(live) if i not in stuck)
            continue
        except NumericsError:
            break
        else:
            for k, r in zip(live, results):
                out[k] = QuadResult(r.value, r.abs_error_estimate, 15 * len(cache), r.mass)
            break
        going_on, ejected = [], False
        for i, k in enumerate(live):
            value, err, mass = (math.fsum([c[v] for c in mesh]) for v in range(_HEAD + 3 * i, _HEAD + 3 * i + 3))
            target = _target(tol, mass)
            if edge[_HEAD + 3 * i + 1] > target:
                ejected = True
            elif math.isfinite(value) and err <= target:
                out[k] = QuadResult(value, err, 15 * len(cache), mass)
            else:
                going_on.append(k)
        live = tuple(going_on) if ejected else ()
    return out
