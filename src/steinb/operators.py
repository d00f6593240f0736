"""Parametric Stein operators, score profiles, and exchanging pairs.

Every operator here is the quotient  d/dtheta (f(x;theta) g(x;theta)) / g(x;theta0)
specialized to a parameter role (``roles.py``).  The continuous roles share
one closed form, with y the base coordinate and phi the score:

    continuous T(x) = f0'(y) dy/dtheta + f0(y) phi
               dy/dtheta = -1 (location, y = x - mu0), y/sigma0 (scale,
               y = sigma0 x), C = sqrt(1 + y^2) (SAS skew, y = S; (S, C)
               the sinh-arcsinh pair), each with phi as a function of y
    discrete   T(x) = D+ ( f0(x) g(x;theta0) (phi(x) - phi(0)) ) / g(x;theta0)

with D+ the forward difference.  The discrete form is g(0; theta0) times
D+ ( f0(x) d/dtheta[g(x;theta)/g(0;theta)] ) / g(x;theta0), the defining
quotient.  A generic evaluation of the quotient by central differencing in
theta (scaled the same way) is provided alongside, so every closed form can
be cross-checked against the defining formula.

Where the density is positive at a support edge that moves with the parameter
(``positive_at_moving_edge``: exponential location), the operator carries a
Dirac atom -f0(edge) there, which expectation routines must add back.

A family's Fisher information is the moment "phi2" of ``families.MOMENTS``:
the integral of phi(y)^2 g0(y) over the base support, or the series of
phi(x)^2 g(x).  A continuous family's comparison grid and exchanging-pair
endpoint checks sit at x(y) of points in y (``from_base``).  The score and
f-tilde in x, which the monotonicity scan, the zero crossing and the bounds
read, are the role's, derived from its base terms.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, TypeVar

from .families import (
    ONE,
    ContinuousFamily,
    Family,
    TestFunction,
    _expectations,
    bulk_radius,
    family_spec,
)
from .numerics import (
    Interval,
    MonotonicityCertificate,
    RealFn,
    bisect_root,
    finite_samples,
    first_sign_change,
    monotonicity_scan,
    scan_grid,
)
from .roles import Atom, UnsupportedRole


class BoundaryViolation(Exception):
    """f-tilde * g fails to vanish at a support endpoint."""


# --------------------------------------------------------------------------
# Hermite polynomials (probabilists' convention).


def hermite(n: int, x: float) -> float:
    """H_n(x) via H_{n+1} = x H_n - n H_{n-1}; equals -H_n' + x H_n termwise."""
    if n < 0 or n > 30:
        raise ValueError("hermite order must lie in 0..30")
    h_prev, h = 1.0, x
    if n == 0:
        return 1.0
    for k in range(1, n):
        h_prev, h = h, x * h - k * h_prev
    return h


def hermite_test_function(n: int, f0: TestFunction = ONE) -> TestFunction:
    """H_n * f0 with the exact derivative H_n' = n H_{n-1}."""
    return TestFunction(
        f"hermite{n}*{f0.name}",
        lambda x: hermite(n, x) * f0.h(x),
        lambda x: (n * hermite(n - 1, x) if n > 0 else 0.0) * f0.h(x) + hermite(n, x) * f0.h_prime(x),
    )


# --------------------------------------------------------------------------
# Stein operators.


class SteinOperator(NamedTuple):
    family: Family
    f0: TestFunction
    evaluate: RealFn
    atom: Atom | None = None

    def __call__(self, x: float) -> float:
        return self.evaluate(x)


def make_operator(fam: Family, f0: TestFunction) -> SteinOperator:
    """The closed form of the family's parameter role applied to f0."""
    evaluate, atom = fam.role.operator(fam, f0)
    return SteinOperator(fam, f0, evaluate, atom)


def generic_operator_value(fam: Family, f0: TestFunction, x: float, step: float = 1e-5) -> float:
    """d/dtheta(f g)/g at theta0 by central differencing (times g(0; theta0)
    for a discrete family); the ground truth every registered closed form is
    checked against."""
    return fam.role.quotient(fam, f0, x, step)


def comparison_grid(fam: Family, points: int = 200) -> list[float]:
    """Interior sample points where closed forms and the generic quotient
    can both be evaluated stably (clear of moving support edges): for a
    continuous family, x of the bulk [-R, R] in y."""
    if fam.is_discrete:
        top = int(min(fam.support_max, bulk_radius(fam)))
        return [float(k) for k in range(0, top + 1)]
    base, radius, from_base = fam.base_support, bulk_radius(fam), fam.role.from_base
    lo = from_base(max(base.lo, -radius))[0]
    hi = from_base(min(base.hi, radius))[0]
    edge = fam.support.lo
    if math.isfinite(edge):
        lo = max(lo, edge + 1e-2)  # keep theta +- step away from the edge
    return [lo + (hi - lo) * i / (points - 1) for i in range(points)]


# --------------------------------------------------------------------------
# Score profiles.


class ScoreProfile(NamedTuple):
    """Score phi = d/dtheta log g(x;theta)|theta0 in x-space, with derivative,
    a monotonicity certificate, Fisher information, and an interior zero."""

    family: Family
    phi: RealFn
    phi_prime: RealFn
    monotonicity: MonotonicityCertificate
    fisher: float
    zero_crossing: float | None


def require_score(fam: Family) -> None:
    """Raise UnsupportedRole for a family/role pair where the constant test
    function is not admissible, so no score or bound exists: a support that
    moves with the parameter while the density stays positive at its edge
    (exponential location)."""
    if fam.role.positive_at_moving_edge(fam):
        raise UnsupportedRole(
            f"{fam.name} with a {fam.role.kind} role: support depends on the "
            "parameter and the density is positive at its edge"
        )


def score_profile(fam: Family, *, tol: float = 1e-12) -> ScoreProfile:
    """Score, Fisher information E[phi^2] (the moment "phi2": by series, or
    by quadrature in the base coordinate; +inf when the integral diverges),
    monotonicity certificate, and zero crossing.

    Rejects the family/role pairs ``require_score`` rejects.
    """
    require_score(fam)
    phi, phi_prime = fam.role.score(fam)

    if fam.is_discrete:
        top = min(fam.support_max, float(bulk_radius(fam)))
        scan_iv = Interval(0.0, max(top, 1.0))
    else:
        scan_iv = fam.support
    fisher = _expectations(fam, ONE, {"phi2": True}, tol)("phi2")

    cert = monotonicity_scan(phi, phi_prime, scan_iv, 257)
    zero = _zero_crossing(phi, scan_iv)
    return ScoreProfile(fam, phi, phi_prime, cert, fisher, zero)


def _zero_crossing(phi: RealFn, iv: Interval) -> float | None:
    bracket = first_sign_change(finite_samples(phi, scan_grid(iv, 257)))
    if bracket is None:
        return None
    root = bisect_root(phi, *bracket)  # a sampled zero brackets itself
    return root if abs(phi(root)) < 1e-9 else None


# --------------------------------------------------------------------------
# Exchanging pairs.


class ExchangingPair(NamedTuple):
    """f-tilde with d/dtheta(f g) = d/dx(f-tilde g) (or the forward-difference
    analogue), plus f-tilde * g at the support endpoints, both below 1e-9."""

    family: Family
    f0: TestFunction
    f_tilde: RealFn
    boundary_values: tuple[float, float]


def exchanging_pair(fam: Family, f0: TestFunction = ONE) -> ExchangingPair:
    """Build the exchanging function for the family's role and verify that
    f-tilde * g vanishes at both support endpoints (to 1e-9, and at the
    origin of a discrete law to 1e-12); a failed boundary check raises
    BoundaryViolation, since the bounds of the variance machinery are
    invalid without it.
    """
    f_tilde = fam.role.f_tilde(fam, f0)
    if fam.is_discrete:
        if f0 is not ONE:
            raise UnsupportedRole("discrete exchanging pairs are registered for f0 = 1 only")
        left = f_tilde(0.0) * fam.pmf(0)
        far = int(min(fam.support_max, bulk_radius(fam, 1e-12) * 2 + 8))
        right = f_tilde(float(far)) * fam.pmf(far) if math.isinf(fam.support_max) else (
            f_tilde(fam.support_max + 1.0) * fam.pmf(int(fam.support_max) + 1)
        )
        # Summation by parts drops the x = 0 term D+h(-1) f-tilde(0) g(0).
        origin_tol = 1e-12
    else:
        left = _endpoint_value(fam, f_tilde, fam.base_support.lo)
        right = _endpoint_value(fam, f_tilde, fam.base_support.hi)
        origin_tol = math.inf

    if not (abs(left) < 1e-9 and abs(right) < 1e-9):
        raise BoundaryViolation(
            f"f-tilde * g = ({left:.3e}, {right:.3e}) at the support endpoints of {fam.name}"
        )
    if abs(left) > origin_tol:
        raise BoundaryViolation("f-tilde * g does not vanish at the origin")
    return ExchangingPair(fam, f0, f_tilde, (left, right))


def _endpoint_value(fam: ContinuousFamily, f_tilde: RealFn, y: float) -> float:
    """f-tilde * g at x(y) for a base endpoint y, or 1.5 bulk radii out where
    it is infinite; g(x) = g0(y) / (dx/dy)."""
    if not math.isfinite(y):
        y = math.copysign(bulk_radius(fam, 1e-12) * 1.5, y)
    w = fam.base_density(y)
    if w == 0.0:
        return 0.0
    x, dx_dy = fam.role.from_base(y)
    return f_tilde(x) * w / dx_dy


# --------------------------------------------------------------------------
# One run per law.

T = TypeVar("T")


class Laws:
    """What depends on the law alone, computed once per family spec
    (``family_spec``) and the tolerances in its key, never per test function:
    score profile, exchanging pair and, through ``once``, identity suite.
    One command run owns a memo, so nothing in it outlives the run.  A
    computation that raises stores nothing: the next call raises the same
    way."""

    __slots__ = ("_values",)

    def __init__(self) -> None:
        self._values: dict[tuple, Any] = {}

    def once(self, key: tuple, compute: Callable[[], T]) -> T:
        """The value under key, computed by compute() on the first call."""
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]

    def profile(self, fam: Family, tol: float) -> ScoreProfile:
        return self.once(("profile", family_spec(fam), tol), lambda: score_profile(fam, tol=tol))

    def pair(self, fam: Family) -> ExchangingPair:
        """The exchanging pair of f0 = 1, boundary checked (``exchanging_pair``)."""
        return self.once(("pair", family_spec(fam)), lambda: exchanging_pair(fam))
