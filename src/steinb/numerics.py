"""Scalar numerical kernels: adaptive quadrature, series summation, differentiation, grid scans.

Everything here operates on plain Python callables ``float -> float``.
Improper integrals are reduced to finite ones by smooth changes of variable:

    (-inf, inf)  :  x = t / (1 - t^2),  t in (-1, 1)
    [a, inf)     :  x = a + u^2,        u = t / (1 - t),  t in [0, 1)
    (-inf, b]    :  x = b - u^2,        u = t / (1 - t),  t in [0, 1)

The half-line maps are graded toward their finite endpoint, as QUADPACK
advises for algebraic endpoint behaviour (Piessens et al. 1983): with
dx = 2u du, a factor |x - a|^alpha becomes u^(2 alpha + 1), so the edge
factors of the gamma and exponential laws, y^(a-1) and x^(-1/2) among them,
are smooth or milder in t.  The transformed integrand is then handled by a
globally adaptive 15-point Gauss-Kronrod rule (worst-interval-first
bisection) in ``_adapt``, the one adaptive loop, which
``vectorquad.integrate_vector`` shares.  Kronrod nodes are interior points,
so integrable endpoint singularities are never sampled directly; those the
grading leaves singular (bounded intervals are not graded here) cost extra
bisections near the offending endpoint.  A non-integrable one would cost
the whole subdivision budget, so for
integrate_detecting_divergence a run that keeps bisecting at one endpoint
integrates dyadic shells toward it instead and stops at once when they do
not shrink (the idea of QUADPACK ``qags``'s endpoint handling, with Cauchy
condensation deciding).

The grid scans (the monotonicity scan here, the score's zero crossing and
the Poincare constant elsewhere) sample a function on ``scan_grid`` through
one rule, ``finite_samples``: a point where it raises an arithmetic error,
a ValueError or NonFinite, or returns a value that is not finite, is skipped.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import config
from .records import Record

RealFn = Callable[[float], float]

_EPS = math.ulp(1.0)
# Margin (in transform space) used when a bounded sample range is needed for
# an unbounded interval; maps to |x| of roughly 1e6.
_SCAN_MARGIN = 1e-6


class NumericsError(Exception):
    """Base class for numerical failures in this module."""

    levels: tuple[tuple[float, float], ...] = ()  # set by integrate(); see there


class NonConvergence(NumericsError):
    """The error estimate stagnated above tolerance after the subdivision budget.

    Carries the partial result so callers can diagnose divergence.
    """

    def __init__(self, message: str, value: float, abs_error_estimate: float, evaluations: int):
        super().__init__(message)
        self.value = value
        self.abs_error_estimate = abs_error_estimate
        self.evaluations = evaluations


class NonFinite(NumericsError):
    """A function returned NaN/inf at an interior point, even after nudging."""

    def __init__(self, message: str, point: float | None = None, observed: float | None = None):
        super().__init__(message)
        self.point = point
        self.observed = observed


class TruncationUnsafe(NumericsError):
    """A series hit the term cap without meeting its stop rule."""


class Interval(Record):
    """An open/closed real interval with extended-real endpoints, lo < hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        lo, hi = float(lo), float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoints must not be NaN")
        if not lo < hi:
            raise ValueError(f"interval requires lo < hi, got [{lo}, {hi}]")
        super().__init__(lo, hi)

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(-math.inf, math.inf)

    @classmethod
    def half_line(cls, lo: float = 0.0) -> "Interval":
        return cls(lo, math.inf)

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


class QuadResult(Record):
    __slots__ = _fields = ("value", "abs_error_estimate", "evaluations", "mass")

    def __init__(
        self, value: float, abs_error_estimate: float, evaluations: int,
        mass: float = math.inf,   # integral of |f| (summed resabs), which floors the reachable tolerance
    ) -> None:
        if abs_error_estimate < 0:
            raise ValueError("error estimate must be >= 0")
        if evaluations <= 0:
            raise ValueError("evaluations must be > 0")
        super().__init__(value, abs_error_estimate, evaluations, mass)


class Verdict(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    NOT_MONOTONE = "not-monotone"


class MonotonicityCertificate(NamedTuple):
    verdict: Verdict
    witness: float | None = None     # sign-change location, set iff NOT_MONOTONE (unless all skipped)
    skipped: int = 0                 # non-finite samples that were dropped
    all_skipped: bool = False

    @property
    def strictly_monotone(self) -> bool:
        return self.verdict in (Verdict.INCREASING, Verdict.DECREASING)


# --------------------------------------------------------------------------
# 15-point Kronrod rule with embedded 7-point Gauss rule (QUADPACK dqk15).

_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


def _eval_raw(f: RealFn, x: float) -> float:
    # Python's math module raises where IEEE arithmetic would produce inf/nan;
    # fold both conventions into one observation.
    try:
        return f(x)
    except (OverflowError, ZeroDivisionError):
        return math.inf
    except ValueError:
        return math.nan


def _nudge(x: float, lo: float, hi: float) -> float:
    """Where to retry a node of [lo, hi] at which the integrand was not finite:
    slightly toward the cell midpoint."""
    step = 1e-9 * (hi - lo)
    return x + (step if x < 0.5 * (lo + hi) else -step)


def _nudged(f: RealFn, x: float, lo: float, hi: float) -> float:
    """Singularity-avoidance nudge for a node where f was not finite: retry
    at _nudge(x), or raise NonFinite."""
    value2 = _eval_raw(f, _nudge(x, lo, hi))
    if math.isfinite(value2):
        return value2
    raise NonFinite(f"integrand not finite near {x!r}", point=x, observed=value2)


# Signed Kronrod abscissae in evaluation order: the center, then the
# positive nodes, then their mirror images.
_NODES = (0.0, *_XGK[:7], *(-x for x in _XGK[:7]))


def _gk15(f: RealFn, lo: float, hi: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod pass over [lo, hi]: (kronrod value, error estimate, integral of |f|)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    fv = []
    for t in _NODES:
        x = center + half * t
        # As _eval_raw, inline: the kernel runs once per 15 evaluations.
        try:
            y = f(x)
        except (OverflowError, ZeroDivisionError):
            y = math.inf
        except ValueError:
            y = math.nan
        fv.append(y if math.isfinite(y) else _nudged(f, x, lo, hi))
    return _rule(fv, half)


def _rule(fv: Sequence[float], half: float) -> tuple[float, float, float]:
    """The dqk15 arithmetic on the values at _NODES of a cell of half-width
    half: (kronrod value, error estimate, integral of |f|)."""
    # p_i, m_i: f at center + half * _XGK[i] and center - half * _XGK[i].
    # Each sum runs left to right, in the order of dqk15's loops.
    fc, p0, p1, p2, p3, p4, p5, p6, m0, m1, m2, m3, m4, m5, m6 = fv
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    resk = (w7 * fc + w0 * (p0 + m0) + w1 * (p1 + m1) + w2 * (p2 + m2) + w3 * (p3 + m3)
            + w4 * (p4 + m4) + w5 * (p5 + m5) + w6 * (p6 + m6))
    resabs = (w7 * abs(fc) + w0 * (abs(p0) + abs(m0)) + w1 * (abs(p1) + abs(m1))
              + w2 * (abs(p2) + abs(m2)) + w3 * (abs(p3) + abs(m3)) + w4 * (abs(p4) + abs(m4))
              + w5 * (abs(p5) + abs(m5)) + w6 * (abs(p6) + abs(m6)))
    resg = g3 * fc + g0 * (p1 + m1) + g1 * (p3 + m3) + g2 * (p5 + m5)
    h = resk * 0.5
    resasc = (w7 * abs(fc - h) + w0 * (abs(p0 - h) + abs(m0 - h)) + w1 * (abs(p1 - h) + abs(m1 - h))
              + w2 * (abs(p2 - h) + abs(m2 - h)) + w3 * (abs(p3 - h) + abs(m3 - h))
              + w4 * (abs(p4 - h) + abs(m4 - h)) + w5 * (abs(p5 - h) + abs(m5 - h))
              + w6 * (abs(p6 - h) + abs(m6 - h)))

    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(err, 50.0 * _EPS * resabs)
    return value, err, resabs


# --------------------------------------------------------------------------
# Variable changes onto a bounded parameter interval.


def _transformed(f: RealFn, iv: Interval) -> tuple[RealFn, float, float]:
    """Return (g, t_lo, t_hi) with integral of f over iv equal to integral of g over [t_lo, t_hi]."""
    lo, hi = iv.lo, iv.hi
    if iv.bounded:
        return f, lo, hi
    if math.isfinite(lo):  # [a, inf)
        def g(t: float, a: float = lo) -> float:
            onemt = 1.0 - t
            u = t / onemt
            return f(a + u * u) * (2.0 * u / (onemt * onemt))
        return g, 0.0, 1.0
    if math.isfinite(hi):  # (-inf, b]
        def g(t: float, b: float = hi) -> float:
            onemt = 1.0 - t
            u = t / onemt
            return f(b - u * u) * (2.0 * u / (onemt * onemt))
        return g, 0.0, 1.0

    def g(t: float) -> float:
        onemt2 = 1.0 - t * t
        return f(t / onemt2) * (1.0 + t * t) / (onemt2 * onemt2)

    return g, -1.0, 1.0


# The adaptive loop keeps running totals, updated by child1 + child2 - parent
# at each split, and re-anchors them on the exact fsum totals every this many
# splits (and whenever the rounding band could change a decision).
_ANCHOR_EVERY = 50
# Running totals at or above this magnitude are re-anchored at every step:
# fsum's partial sums stay below the summed |f| mass and error, so beneath it
# they cannot overflow and fsum's result does not depend on the cell order.
_HUGE = 2.0**1000
# The divergence probe: after this many consecutive splits of a cell touching
# one endpoint, up to _PROBE_SHELLS dyadic shells toward that endpoint are
# integrated, one GK15 cell each, and the last _PROBE_TAIL of them decide.
_PROBE_AFTER = 30
_PROBE_SHELLS = 40
_PROBE_TAIL = 8


def _probe_endpoint(g: RealFn, end: float, direction: float, width: float) -> tuple[float | None, int]:
    """Cauchy condensation toward ``end``: (+-inf or None, cells integrated).

    The shells are end + direction * [w/2, w] for w = width, width/2, ...,
    while end + direction * w/2 is distinct from end.  Shell integrals that
    are finite, non-zero, of one sign and non-decreasing in magnitude (within
    a few ulps) toward the endpoint mean the integral diverges there; any
    other outcome, a raised NumericsError included, gives None.
    """
    shells: list[float] = []
    w = width
    try:
        for _ in range(_PROBE_SHELLS):
            near, far = end + direction * 0.5 * w, end + direction * w
            if near == end:
                break
            shells.append(_gk15(g, min(near, far), max(near, far))[0])
            w *= 0.5
    except NumericsError:
        return None, len(shells) + 1
    tail = shells[-_PROBE_TAIL:]
    last = tail[-1] if tail else 0.0
    diverges = (
        len(tail) == _PROBE_TAIL
        and all(math.isfinite(s) and s != 0.0 and (s > 0.0) == (last > 0.0) for s in tail)
        and all(abs(inner) >= abs(outer) * (1.0 - 4.0 * _EPS) for outer, inner in zip(tail, tail[1:]))
    )
    return (math.copysign(math.inf, last) if diverges else None), len(shells)


def _target(tol: float, mass: float) -> float:
    # Accumulated |f| mass bounds what double precision can resolve; an
    # absolute tol below that floor counts as met once the estimate reaches
    # the floor (the estimate stays honest either way).
    return max(tol, 100.0 * _EPS * mass)


# A heap entry is (-largest error, seq, lo, hi) followed by the cell's results.
_HEAD = 4


def _adapt(
    cell: Callable[[float, float], Sequence[float]], n: int, t_lo: float, t_hi: float,
    tol: float, probe: RealFn | None,
) -> list[QuadResult]:
    """Adaptively integrate n integrands over [t_lo, t_hi] on one shared mesh.

    ``cell(a, b)`` is one Gauss-Kronrod pass over [a, b] for all n: the
    value, error estimate and integral of |f| of component j at 3j, 3j + 1
    and 3j + 2.  Globally adaptive: the cell with the largest error estimate
    of any component is bisected until every component j meets its own
    target max(tol, 100 eps mass_j).  The per-component sums of value, error
    and |f| mass are kept as running totals, so a split costs O(n) plus a
    heap push.  Every decision and every reported number still uses the
    exact ``math.fsum`` over all cells: the totals are re-summed every 50
    splits, at the ``levels`` marks, whenever they are huge or not finite,
    whenever their bound on accumulated rounding cannot show that some
    component must go on, and before any return or raise.

    Raises NonConvergence when the subdivision budget (``config.QUAD.max_subdivisions``,
    read at call time) is exhausted with an error estimate still above its
    target (the first such component's partial result rides along on the
    exception), and NonFinite when the integrand cannot be evaluated at an
    interior point even after nudging.  Either carries as ``levels`` the
    partial (value, error) of the first component above its target at a
    quarter and at half of the budget: what runs with those budgets end on.
    The results share one ``evaluations`` count.

    ``probe``, the scalar integrand of integrate_detecting_divergence: once
    a run has split a cell touching the same endpoint _PROBE_AFTER times in
    a row, it probes that endpoint with _probe_endpoint, and on a verdict
    returns a value of +-inf with an infinite error estimate.  Any other
    probe outcome leaves the run as it is without ``probe``, except that
    ``evaluations`` then counts the probe's cells too.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = config.QUAD.max_subdivisions
    # Where each component's value, error and mass sit in a heap entry; the
    # totals and their drift bounds are laid out the same way.
    stop = _HEAD + 3 * n
    slots = [(v, v + 1, v + 2) for v in range(_HEAD, stop, 3)]

    seq = 0  # cells made, 15 evaluations each
    heap: list[tuple[float, ...]] = []
    frozen: list[tuple[float, ...]] = []  # entries of cells below splitting resolution
    levels: list[tuple[float, float]] = []
    mark = budget // 4  # splits at which the next level is taken

    def push(a: float, b: float) -> tuple[float, ...]:
        nonlocal seq
        c = cell(a, b)
        entry = (-(c[1] if n == 1 else max(c[1::3])), seq, a, b) + c
        heapq.heappush(heap, entry)
        seq += 1
        return entry

    def totals() -> list[float]:
        cells = heap + frozen
        return [0.0] * _HEAD + [math.fsum([c[i] for c in cells]) for i in range(_HEAD, stop)]

    # An integrand that itself integrates may raise a NumericsError of its
    # own; it leaves this run with this run's levels.
    try:
        n_init = 8
        width = (t_hi - t_lo) / n_init
        for i in range(n_init):
            push(t_lo + i * width, t_lo + (i + 1) * width)

        splits = anchored = streak = 0
        streak_side, probed = 0.0, set()
        tot = totals()
        # exact: tot is totals(); drift bounds how far each error and mass
        # total may have drifted from it; huge: some total is huge or not finite.
        exact, huge, drift = True, False, [0.0] * stop
        while True:
            # k: the first component above its target; on running totals, the
            # first one above it however far they have drifted.
            for k, e, r in slots:
                if tot[e] - drift[e] > _target(tol, tot[r] + drift[r]):
                    break
            else:
                k = None
            # The running totals stand in for totals() only on a step that
            # reports nothing and goes on whatever their drift.
            if not exact and (k is None or huge or splits - anchored >= _ANCHOR_EVERY
                              or splits >= mark or splits >= budget or not heap):
                tot = totals()
                exact, huge, drift, anchored = True, False, [0.0] * stop, splits
                continue
            if k is None:
                break
            if exact:
                while splits >= mark:
                    levels.append((tot[k], tot[k + 1]))
                    mark = budget * (len(levels) + 1) // 4 if len(levels) < 2 else math.inf
                for v, e, _ in slots:
                    if not math.isfinite(tot[v]):
                        raise NonConvergence("partial integral overflowed", tot[v], tot[e], 15 * seq)
                if splits >= budget:
                    raise NonConvergence(
                        f"error {tot[k + 1]:.3e} above tol {tol:.3e} after {splits} subdivisions",
                        tot[k], tot[k + 1], 15 * seq,
                    )
                if not heap:
                    raise NonConvergence(
                        "interval exhausted below resolution with error above tol",
                        tot[k], tot[k + 1], 15 * seq,
                    )
            parent = heapq.heappop(heap)
            a, b = parent[2], parent[3]
            if (b - a) < 1e-300 + 50.0 * _EPS * max(abs(a), abs(b)):
                frozen.append(parent)  # the totals do not change
                continue
            if probe is not None:
                # +1.0: the cell touches t_lo; -1.0: it touches t_hi.
                side = 1.0 if a == t_lo else -1.0 if b == t_hi else 0.0
                streak = streak + 1 if side == streak_side else 1
                streak_side = side
                if side and streak == _PROBE_AFTER and side not in probed:
                    probed.add(side)
                    verdict, cells = _probe_endpoint(probe, t_lo if side > 0 else t_hi, side, b - a)
                    seq += cells
                    if verdict is not None:
                        return [QuadResult(value=verdict, abs_error_estimate=math.inf, evaluations=15 * seq)]
            mid = 0.5 * (a + b)
            left, right = push(a, mid), push(mid, b)
            splits += 1
            for v, e, r in slots:
                tot[v] += left[v] + right[v] - parent[v]
                tot[e] += left[e] + right[e] - parent[e]
                tot[r] += left[r] + right[r] - parent[r]
                # Each update rounds at most three times; twice eps per unit
                # of the magnitudes involved bounds that with room to spare.
                drift[e] += 2.0 * _EPS * (left[e] + right[e] + parent[e] + abs(tot[e]))
                drift[r] += 2.0 * _EPS * (left[r] + right[r] + parent[r] + abs(tot[r]))
                if not (abs(tot[v]) < _HUGE and tot[e] < _HUGE and tot[r] < _HUGE):
                    huge = True
            exact = False
    except NumericsError as exc:
        exc.levels = tuple(levels)
        raise

    return [QuadResult(value=tot[v], abs_error_estimate=tot[e], evaluations=15 * seq, mass=tot[r])
            for v, e, r in slots]


def integrate(
    f: RealFn, iv: Interval, tol: float = config.QUAD.request_tol, *, _probe: bool = False
) -> QuadResult:
    """Adaptively integrate f over iv to absolute tolerance tol: _adapt with
    one component, after _transformed's change of variable.  ``_probe`` is
    integrate_detecting_divergence's: _adapt then probes the endpoints."""
    g, t_lo, t_hi = _transformed(f, iv)
    return _adapt(functools.partial(_gk15, g), 1, t_lo, t_hi, tol, g if _probe else None)[0]


def integrate_detecting_divergence(f: RealFn, iv: Interval, tol: float = config.QUAD.request_tol) -> float:
    """Integrate f over iv, returning +-inf when the integral diverges.

    The run probes an endpoint it has bisected _PROBE_AFTER times in a row:
    dyadic shells toward it that are finite, of one sign and non-decreasing
    in magnitude end the run with their sign times inf at once (1,590
    evaluations for 1/x on (0, 1), not a whole failing run).  Otherwise the run
    goes on as integrate() would, and a failure is judged on three
    refinement levels: the run's ``levels`` and the result it ended on,
    which also fills levels the run did not reach.  Divergence is declared
    when across them the error estimate fails to contract while the partial
    value grows monotonically in magnitude.  Anything else re-raises the
    run's own exception.
    """
    try:
        return integrate(f, iv, tol, _probe=True).value
    except NonConvergence as exc:
        failure, final = exc, (exc.value, exc.abs_error_estimate)
    except NonFinite as exc:
        # Overflow to +-inf deep in a singular cascade is divergence
        # evidence; genuine NaNs stay fatal.
        if exc.observed is None or not math.isinf(exc.observed):
            raise
        failure, final = exc, (exc.observed, math.inf)
    partial_values, partial_errors = zip(*(*failure.levels, final, final, final)[:3])
    magnitudes = [abs(v) for v in partial_values]
    growing = (
        magnitudes[0] <= magnitudes[1] <= magnitudes[2]
        and (magnitudes[2] > 1.5 * magnitudes[0] or math.isinf(magnitudes[2]))
    )
    # An infinite last estimate (the level overflowed) never counts as
    # contraction, even against an infinite first one.
    contracted = math.isfinite(partial_errors[2]) and partial_errors[2] <= 0.25 * partial_errors[0]
    if growing and not contracted:
        sign = 1.0
        for v in reversed(partial_values):
            if v != 0.0 and not math.isnan(v):
                sign = math.copysign(1.0, v)
                break
        return sign * math.inf
    raise failure


# --------------------------------------------------------------------------
# Series summation.


_QUIET_RUN = 64
_QUIET_MARGIN = 1e-3


def sum_series(
    f: Callable[[int], Any],
    start: int,
    tol: float | Sequence[float],
    quiet_from: int = 0,
) -> Any:
    """Sum f(start) + f(start+1) + ... for an absolutely convergent series.

    Stops when _QUIET_RUN consecutive terms are each below tol * _QUIET_MARGIN
    in absolute value and the index has reached ``quiet_from`` (pass the mode
    of a pmf in the terms, so a negligible left tail does not end the sum).
    Hitting the term cap ``config.SERIES.max_terms`` (read at call time)
    first raises TruncationUnsafe, and a term that is not finite NonFinite.

    With ``tol`` a sequence of n tolerances, f(k) returns n terms and the n
    sums come from one walk over k: each component stops by these rules at
    its own tol and is the ``math.fsum`` that summing it alone gives.  The
    error raised is the first failing component's, in index order, so the
    walk ends once no component before a failed one is still open; an
    exception of f itself is every open component's.  The scalar call is the
    n = 1 case.
    """
    scalar = not isinstance(tol, Sequence)
    tols = (tol,) if scalar else tol
    if min(tols) <= 0:
        raise ValueError("tol must be > 0")
    terms_at = (lambda x: (f(x),)) if scalar else f
    max_terms = config.SERIES.max_terms
    # Each open component: its index, threshold, terms so far and quiet run.
    open_ = [(j, t * _QUIET_MARGIN, [], [0]) for j, t in enumerate(tols)]
    sums, failure = [0.0] * len(tols), None
    for x in range(start, start + max_terms):
        terms, still = terms_at(x), []
        for component in open_:
            j, threshold, column, quiet = component
            if not math.isfinite(terms[j]):
                failure = NonFinite(f"series term not finite at {x}", point=float(x), observed=terms[j])
                break
            column.append(terms[j])
            quiet[0] = quiet[0] + 1 if abs(terms[j]) < threshold else 0
            if quiet[0] >= _QUIET_RUN and x >= quiet_from:
                sums[j] = math.fsum(column)
            else:
                still.append(component)
        open_ = still
        if not open_:
            break
    else:
        raise TruncationUnsafe(f"no stop rule met within {max_terms} terms")
    if failure is not None:
        raise failure
    return sums[0] if scalar else sums


# --------------------------------------------------------------------------
# Differentiation.

_FD_STEP = float(_EPS ** (1.0 / 3.0))  # optimal central-difference scaling


def derivative(f: RealFn, x: float) -> float:
    """Central finite difference with step cbrt(eps) * max(1, |x|)."""
    h = _FD_STEP * max(1.0, abs(x))
    # Make the step exactly representable around x.
    xp = x + h
    xm = x - h
    h2 = xp - xm
    fp, fm = _eval_raw(f, xp), _eval_raw(f, xm)
    if not (math.isfinite(fp) and math.isfinite(fm)):
        raise NonFinite(f"function not evaluable at {x} +- {h}", point=x)
    return (fp - fm) / h2


# --------------------------------------------------------------------------
# Sign / monotonicity scanning.


def scan_grid(iv: Interval, count: int, margin: float = _SCAN_MARGIN) -> list[float]:
    """Sample points of iv, log-like spaced toward infinite endpoints.

    The grid is uniform in t and clipped by ``margin`` at the ends, with
    x = a + t/(1 - t) on a half-line (integrate()'s map before grading) and
    t/(1 - t^2) on the real line.  That keeps unbounded coordinates inside a
    wide quantile-like range (|x| up to about 1/margin).  The count is
    rounded up to an odd number so symmetric scans straddle the midpoint
    exactly; stationary points at the center of a symmetric support (a
    recurring feature of scale and skew scores) are then sampled rather than
    jumped over.
    """
    n = count | 1
    lo, hi = iv.lo, iv.hi
    if iv.bounded:
        a = lo + margin * (hi - lo)
        b = hi - margin * (hi - lo)
        return [a + (b - a) * i / (n - 1) for i in range(n)]
    if math.isfinite(lo) or math.isfinite(hi):
        ts = [margin + (1.0 - 2.0 * margin) * i / (n - 1) for i in range(n)]
        if math.isfinite(lo):
            return [lo + t / (1.0 - t) for t in ts]
        return [hi - t / (1.0 - t) for t in reversed(ts)]
    ts = [-1.0 + margin + (2.0 - 2.0 * margin) * i / (n - 1) for i in range(n)]
    return [t / (1.0 - t * t) for t in ts]


def finite_samples(f: RealFn, xs: Sequence[float]) -> Iterator[tuple[float, float]]:
    """(x, f(x)) for each x of xs in order, skipping a point where f raises
    ArithmeticError, ValueError or NonFinite or returns a value that is not
    finite: the one sampling rule of the grid scans."""
    for x in xs:
        try:
            v = f(x)
        except (ArithmeticError, ValueError, NonFinite):
            continue
        if math.isfinite(v):
            yield x, v


def first_sign_change(samples: Iterable[tuple[float, float]]) -> tuple[float, float] | None:
    """(x, x) at the first sample whose value is exactly 0, or the first pair
    of consecutive xs whose values have opposite signs, whichever comes
    first; None when neither occurs."""
    prev: tuple[float, float] | None = None
    for x, v in samples:
        if v == 0.0:
            return x, x
        if prev is not None and prev[1] * v < 0.0:
            return prev[0], x
        prev = x, v
    return None


def monotonicity_scan(
    f: RealFn,
    f_prime: RealFn | None,
    iv: Interval,
    grid: int = 256,
) -> MonotonicityCertificate:
    """Classify f as Increasing/Decreasing/NotMonotone from the sign of f' on a grid.

    Increasing needs every sampled derivative > 0, Decreasing every one < 0;
    anything else (including an exact zero) yields NotMonotone with the first
    sign-change bracket midpoint (or the zero itself) as witness.  The points
    finite_samples skips are counted; if everything is skipped the verdict is
    NotMonotone with no witness and the all_skipped flag set.
    """
    if grid < 64:
        raise ValueError("grid must be >= 64")
    slope = f_prime if f_prime is not None else (lambda x: derivative(f, x))
    xs = scan_grid(iv, grid)
    samples = list(finite_samples(slope, xs))
    skipped = len(xs) - len(samples)
    if not samples:
        return MonotonicityCertificate(Verdict.NOT_MONOTONE, None, skipped, all_skipped=True)
    bracket = first_sign_change(samples)
    if bracket is not None:
        return MonotonicityCertificate(Verdict.NOT_MONOTONE, 0.5 * (bracket[0] + bracket[1]), skipped)
    # No zero and no sign change: every sample has the first one's sign.
    verdict = Verdict.INCREASING if samples[0][1] > 0.0 else Verdict.DECREASING
    return MonotonicityCertificate(verdict, None, skipped)


def bisect_root(f: RealFn, lo: float, hi: float) -> float:
    """Plain bisection for a bracketed sign change of a continuous function."""
    flo = f(lo)
    if flo == 0.0:
        return lo
    fhi = f(hi)
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0 or (hi - lo) < 4.0 * _EPS * max(1.0, abs(mid)):
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)
