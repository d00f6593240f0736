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

A family's Fisher information is read off its closed form in ``FISHER``,
keyed by (family id, role kind); a law with no entry takes the moment "phi2"
of ``families.MOMENTS``, the integral of phi(y)^2 g0(y) over the base
support or the series of phi(x)^2 g(x).  A continuous law's score and
exchanging function are its role's base terms, read in y: the monotonicity
scan and the zero crossing run on a grid in y (whose odd count samples the
centre of a symmetric base support, such as y = 0, where the SAS slope
vanishes), and the exchanging-pair check takes f0(y) dy/dtheta g0(y) at the
base endpoints.
Only a reported point (a witness, a zero) is mapped to x, as is the
comparison grid, x(y) of points in y (``from_base``).
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
    _EPS,
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
    """Fisher information and a monotonicity certificate of the score
    phi = d/dtheta log g(x;theta)|theta0, its witness in x."""

    family: Family
    monotonicity: MonotonicityCertificate
    fisher: float


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


def _score_scan(fam: Family) -> tuple[RealFn, RealFn | None, Interval, RealFn]:
    """The score, its slope (None: by central differences), the interval
    the grid scans cover and the map of a point of it to x: in y on the base
    support for a continuous law, whose slope dphi/dy has the sign of
    phi'(x) since every ``to_base`` increases in x; in x on the bulk of a
    discrete one."""
    if fam.is_discrete:
        top = min(fam.support_max, float(bulk_radius(fam)))
        return fam.score_fn, None, Interval(0.0, max(top, 1.0)), lambda x: x
    terms, from_base = fam.role.base_terms(fam), fam.role.from_base
    return (lambda y: terms(y)[1]), fam.role.base_slope(fam), fam.base_support, lambda y: from_base(y)[0]


def _erfcx(z: float) -> float:
    """e^(z^2) erfc(z) for z >= 0: the product below z = 26, where e^(z^2) is
    finite and erfc(z) normal; above, the asymptotic series
    sum_k (-1)^k (2k - 1)!! / (2 z^2)^k / (z sqrt(pi)), 8 terms to eps there."""
    if z < 26.0:
        return math.exp(z * z) * math.erfc(z)
    term = total = 1.0
    k = 0
    while abs(term) > _EPS * total:
        k += 1
        term *= -(2 * k - 1) / (2.0 * z * z)
        total += term
    return total / (z * math.sqrt(math.pi))


def _skew_fisher(s: float) -> float:
    """The SAS skew Fisher information over a normal base of width s:
    phi = y/c - c y/s^2 with c^2 = 1 + y^2, so E[phi^2] = 2 + 1/s^2 - E[1/c^2],
    and E[1/(1 + Y^2)] = sqrt(pi/2)/s erfcx(1/(s sqrt 2))."""
    return 2.0 + 1.0 / (s * s) - math.sqrt(math.pi / 2.0) / s * _erfcx(1.0 / (s * math.sqrt(2.0)))


# The Fisher information E[phi^2] of each catalogue (family id, role kind) in
# closed form, with theta0 the role's value (a rate under scale).  The key is
# the id alone: a family built by hand under a catalogue id must have that
# law's density and score; one under an id of its own takes "phi2".
FISHER: dict[tuple[str, str], Callable[[Family], float]] = {
    ("gaussian", "location"): lambda fam: 1.0 / fam.structural_value("sigma") ** 2,
    ("gaussian", "scale"): lambda fam: 2.0 / fam.role.sigma0 ** 2,
    ("gaussian", "skew"): lambda fam: _skew_fisher(fam.structural_value("sigma")),
    ("sas-gaussian", "skew"): lambda fam: _skew_fisher(1.0),
    ("exponential", "scale"): lambda fam: 1.0 / fam.role.sigma0 ** 2,
    # E[((a - 1)/y - 1)^2] = 1/(a - 2); E[1/y^2] diverges for a <= 2.
    ("gamma", "location"): lambda fam: 1.0 / (a - 2.0) if (a := fam.structural_value("shape")) > 2.0 else math.inf,
    ("gamma", "scale"): lambda fam: fam.structural_value("shape") / fam.role.sigma0 ** 2,
    ("poisson", "theta"): lambda fam: 1.0 / fam.role.theta0,
    ("binomial", "theta"): lambda fam: fam.structural_value("n") / (fam.role.theta0 * (1.0 - fam.role.theta0)),
    ("geometric", "theta"): lambda fam: 1.0 / (fam.role.theta0 ** 2 * (1.0 - fam.role.theta0)),
}


def score_profile(fam: Family, *, tol: float = 1e-12) -> ScoreProfile:
    """Fisher information E[phi^2] (``FISHER``'s closed form, or for a law
    with no entry the moment "phi2": by series, or by quadrature in y, +inf
    when the integral diverges) and the monotonicity certificate of the
    score, scanned where ``_score_scan`` says.

    Rejects the family/role pairs ``require_score`` rejects.
    """
    require_score(fam)
    phi, slope, iv, to_x = _score_scan(fam)
    closed = FISHER.get((fam.name, fam.role.kind))
    fisher = closed(fam) if closed is not None else _expectations(fam, ONE, {"phi2": True}, tol)("phi2")
    cert = monotonicity_scan(phi, slope, iv, 257)
    if cert.witness is not None:
        cert = cert._replace(witness=to_x(cert.witness))
    return ScoreProfile(fam, cert, fisher)


def zero_crossing(fam: Family) -> float | None:
    """x of the first zero of the score on the scan grid of ``_score_scan``,
    refined by bisection, or None when the grid shows no sign change or
    the bisection ends where |phi| >= 1e-9."""
    phi, _, iv, to_x = _score_scan(fam)
    bracket = first_sign_change(finite_samples(phi, scan_grid(iv, 257)))
    if bracket is None:
        return None
    root = bisect_root(phi, *bracket)  # a sampled zero brackets itself
    return to_x(root) if abs(phi(root)) < 1e-9 else None


# --------------------------------------------------------------------------
# Exchanging pairs.


class ExchangingPair(NamedTuple):
    """f-tilde * g at the support endpoints, both below 1e-9, where f-tilde
    has d/dtheta(f g) = d/dx(f-tilde g) (or the forward-difference
    analogue): the role's dy/dtheta read in y, or the discrete law's
    registered ``exchange_fn``."""

    family: Family
    f0: TestFunction
    boundary_values: tuple[float, float]


def exchanging_pair(fam: Family, f0: TestFunction = ONE) -> ExchangingPair:
    """Verify that f-tilde * g vanishes at both support endpoints (to 1e-9,
    and at the origin of a discrete law to 1e-12); a failed boundary check
    raises BoundaryViolation, since the bounds of the variance machinery are
    invalid without it.
    """
    if fam.is_discrete:
        if f0 is not ONE:
            raise UnsupportedRole("discrete exchanging pairs are registered for f0 = 1 only")
        f_tilde = fam.exchange_fn
        left = f_tilde(0.0) * fam.pmf(0)
        far = int(min(fam.support_max, bulk_radius(fam, 1e-12) * 2 + 8))
        right = f_tilde(float(far)) * fam.pmf(far) if math.isinf(fam.support_max) else (
            f_tilde(fam.support_max + 1.0) * fam.pmf(int(fam.support_max) + 1)
        )
        # Summation by parts drops the x = 0 term D+h(-1) f-tilde(0) g(0).
        origin_tol = 1e-12
    else:
        left = _endpoint_value(fam, f0, fam.base_support.lo)
        right = _endpoint_value(fam, f0, fam.base_support.hi)
        origin_tol = math.inf

    if not (abs(left) < 1e-9 and abs(right) < 1e-9):
        raise BoundaryViolation(
            f"f-tilde * g = ({left:.3e}, {right:.3e}) at the support endpoints of {fam.name}"
        )
    if abs(left) > origin_tol:
        raise BoundaryViolation("f-tilde * g does not vanish at the origin")
    return ExchangingPair(fam, f0, (left, right))


def _endpoint_value(fam: ContinuousFamily, f0: TestFunction, y: float) -> float:
    """f-tilde * g = f0(y) dy/dtheta g0(y) at a base endpoint y, or 1.5 bulk
    radii out where it is infinite."""
    if not math.isfinite(y):
        y = math.copysign(bulk_radius(fam, 1e-12) * 1.5, y)
    w = fam.base_density(y)
    if w == 0.0:
        return 0.0
    return f0.h(y) * fam.role.base_terms(fam)(y)[0] * w


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
