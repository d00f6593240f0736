"""Parameter roles: how the parameter of interest enters a family.

Every Stein operator in this package is the quotient

    T(f0)(x) = d/dtheta ( f(x;theta) g(x;theta) ) |theta0  /  g(x;theta0)

and the role fixes how theta moves f and g.  Continuous families are a base
density g0 with L = g0'/g0 (and L' where known):

    location   y = x - mu     g(x; mu)    = g0(x - mu)
    scale      y = sigma x    g(x; sigma) = sigma g0(sigma x)     (sigma is a rate)
    SAS skew   y = S_delta(x) g(x; delta) = C_delta(x) (1+x^2)^{-1/2} g0(S_delta(x))

with S_delta(x) = sinh(asinh(x) + delta) and C_delta its cosh companion; the
test function moves with the same base coordinate, f(x;theta) = f0(y).
Discrete families register g(x;theta) on {0, ..., N} and the score phi;
their operator is the forward-difference analogue, built from those two
and scaled by g(0; theta0) > 0:

    T f0(k) = (w(k+1) - w(k)) / g(k),    w(j) = f0(j) g(j) (phi(j) - phi(0)).

Every continuous operator has one form (the paper's general mechanism):

    T f0(x) = f0'(y) dy/dtheta + f0(y) phi,    y = y(x; theta0),

with phi = d/dtheta log g the score.  Each role gives dy/dtheta and phi as
functions of y alone, its ``base_terms``: (-1, -L(y)),
(y/sigma0, (1 + y L(y))/sigma0) and (c, y/c + c L(y)) with
c = sqrt(1 + y^2), and dphi/dy, its ``base_slope``: -L'(y),
(L(y) + y L'(y))/sigma0 and 1/c^3 + (y/c) L(y) + c L'(y).
``_ContinuousRole.operator`` evaluates the terms at
y = y(x; theta0), with the Dirac atom of a moving support edge where g > 0
(exponential location).  Since g(x; theta0) dx = g0(y) dy,
E[T f0(X)] = d/dtheta of the integral of f0 g0 over y.  The identity
checks integrate the same terms in y (with ``from_base`` for the density of
another law), and so do every expectation and the Fisher information.

A continuous role is its coordinate map and its base terms: ``to_base``
(y(x; theta), increasing in x for every continuous role, so tails in x are
base tails), ``from_base`` (x(y) and dx/dy at theta0), ``base_terms``
(dy/dtheta and phi in y) and ``base_slope`` (dphi/dy), with its ``value``
and density g(.; theta).  ``_ContinuousRole`` reads everything else from
them, once for every role: the support is x of the base endpoints, the
score in x is phi(y(x)) with phi'(x) = (dphi/dy) / (dx/dy), and the
exchanging function is f-tilde(x) = f0(y) dy/dtheta dx/dy, since
f g dx = f0 g0 dy.  It also holds the operator, the Dirac atom of a moving
edge where g > 0 (``positive_at_moving_edge``) and the generic quotient by
central differencing in theta, against which every operator is checked.
Adding a continuous role is one class here, in ROLE_KINDS, with its field
(``_fields``, whose one entry names its ``value``), ``density``,
``to_base``, ``from_base``, ``base_terms`` and ``base_slope``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, ClassVar, NamedTuple, Optional, Union

from .numerics import Interval, RealFn, derivative
from .records import Record


class InvalidParameter(ValueError):
    """A parameter lies outside the family's admissible set."""


class UnsupportedRole(Exception):
    """The family/role pair does not admit the requested construction."""


class Atom(NamedTuple):
    """Dirac term carried by the operator: coefficient * delta_{location}."""

    location: float
    coefficient: float


ClosedForm = tuple[RealFn, Optional[Atom]]
BaseTerms = Callable[[float], tuple[float, float]]   # y -> (dy/dtheta, phi) at theta0


def sas_transform(x: float, delta: float) -> tuple[float, float]:
    """(S, C) = (sinh(asinh x + delta), cosh(asinh x + delta)); C^2 - S^2 = 1."""
    u = math.asinh(x) + delta
    return math.sinh(u), math.cosh(u)


class _Role(Record):
    """A role holds one field, its parameter value theta0, under the role's
    own name (``mu0``, ``sigma0``, ``delta0`` or ``theta0``)."""

    __slots__ = ()
    kind: ClassVar[str]

    @property
    def value(self) -> float:
        return getattr(self, self._fields[0])

    def positive_at_moving_edge(self, fam: Any) -> bool:
        """Is g > 0 at a finite support edge that moves with theta?  Then the
        operator has a Dirac atom there and f0 = 1 is not admissible."""
        return False


class _ContinuousRole(_Role):
    """What the continuous roles share: everything in x, read from the
    coordinate map and the base terms, and the generic quotient."""

    __slots__ = ()

    def __init__(self, value: float) -> None:
        if not math.isfinite(value):
            raise InvalidParameter(f"{self.kind} parameter must be finite, got {value}")
        super().__init__(value)

    def operator(self, fam: Any, f0: Any) -> ClosedForm:
        """T f0(x) = f0'(y) dy/dtheta + f0(y) phi at y = y(x; theta0), from the
        role's ``base_terms``; 0 off the support, with the Dirac atom of ``atom``."""
        terms = self.base_terms(fam)
        theta0, to_base = self.value, self.to_base
        lo, hi = fam.base_support.lo, fam.base_support.hi
        h, h_prime = f0.h, f0.h_prime

        def op(x: float) -> float:
            y = to_base(x, theta0)
            if y < lo or y > hi:
                return 0.0
            dy, phi = terms(y)
            return h_prime(y) * dy + h(y) * phi

        return op, self.atom(fam, f0)

    def support(self, base: Interval) -> Interval:
        """Support of g(.; theta0): x of the base endpoints."""
        return Interval(self.from_base(base.lo)[0], self.from_base(base.hi)[0])

    def score(self, fam: Any) -> tuple[RealFn, RealFn]:
        """phi(x) = phi(y) and phi'(x) = (dphi/dy) / (dx/dy) at y = y(x; theta0)."""
        terms, slope = self.base_terms(fam), self.base_slope(fam)
        theta0, to_base, from_base = self.value, self.to_base, self.from_base

        def phi_prime(x: float) -> float:
            y = to_base(x, theta0)
            return slope(y) / from_base(y)[1]

        return (lambda x: terms(to_base(x, theta0))[1]), phi_prime

    def f_tilde(self, fam: Any, f0: Any) -> RealFn:
        """f0(y) dy/dtheta dx/dy at y = y(x; theta0): as f g dx = f0 g0 dy,
        f-tilde g is f0 g0 dy/dtheta, the theta-derivative of the mass below x."""
        terms = self.base_terms(fam)
        theta0, to_base, from_base, h = self.value, self.to_base, self.from_base, f0.h

        def exchanging(x: float) -> float:
            y = to_base(x, theta0)
            return h(y) * terms(y)[0] * from_base(y)[1]

        return exchanging

    def atom(self, fam: Any, f0: Any) -> Optional[Atom]:
        """The Dirac term f0(y) dy/dtheta at a support edge that moves with
        theta while g is positive there (exponential location, where dy/dx = 1
        so the edge moves at -dy/dtheta); None elsewhere."""
        if not self.positive_at_moving_edge(fam):
            return None
        lo = fam.base_support.lo
        dy = self.base_terms(fam)(lo)[0]
        return Atom(location=self.from_base(lo)[0], coefficient=f0.h(lo) * dy)

    def quotient(self, fam: Any, f0: Any, x: float, step: float) -> float:
        """d/dtheta (f g)/g at theta0 by central differencing."""
        g0, theta0 = fam.base_density, self.value

        def fg(theta: float) -> float:
            return f0.h(self.to_base(x, theta)) * self.density(g0, theta)(x)

        g0x = self.density(g0, theta0)(x)
        return (fg(theta0 + step) - fg(theta0 - step)) / (2.0 * step * g0x)


class Location(_ContinuousRole):
    __slots__ = _fields = ("mu0",)
    kind: ClassVar[str] = "location"

    def density(self, g0: RealFn, theta: float) -> RealFn:
        return lambda x: g0(x - theta)

    def to_base(self, x: float, theta: float) -> float:
        return x - theta

    def from_base(self, y: float) -> tuple[float, float]:
        return y + self.mu0, 1.0

    def base_terms(self, fam: Any) -> BaseTerms:
        L = fam.log_density_derivative
        return lambda y: (-1.0, -L(y))

    def base_slope(self, fam: Any) -> RealFn:
        Lp = fam.log_density_second_derivative
        return lambda y: -Lp(y)

    def positive_at_moving_edge(self, fam: Any) -> bool:
        lo = fam.base_support.lo
        return math.isfinite(lo) and fam.base_density(lo) > 0


class Scale(_ContinuousRole):
    __slots__ = _fields = ("sigma0",)
    kind: ClassVar[str] = "scale"

    def __init__(self, sigma0: float) -> None:
        if not 0 < sigma0 < math.inf:
            raise InvalidParameter(f"scale parameter must be finite and > 0, got {sigma0}")
        super().__init__(sigma0)

    def density(self, g0: RealFn, theta: float) -> RealFn:
        if not theta > 0:
            raise InvalidParameter(f"scale parameter must be > 0, got {theta}")
        return lambda x: theta * g0(theta * x)

    def to_base(self, x: float, theta: float) -> float:
        return theta * x

    def from_base(self, y: float) -> tuple[float, float]:
        return y / self.sigma0, 1.0 / self.sigma0

    def base_terms(self, fam: Any) -> BaseTerms:
        L, s0 = fam.log_density_derivative, self.sigma0

        def terms(y: float) -> tuple[float, float]:
            if y == 0.0:
                # The term linear in y vanishes, and L is not evaluated at a
                # closed support edge where it may blow up.
                return 0.0, 1.0 / s0
            return y / s0, (1.0 + y * L(y)) / s0

        return terms

    def base_slope(self, fam: Any) -> RealFn:
        L, Lp = fam.log_density_derivative, fam.log_density_second_derivative
        s0 = self.sigma0
        return lambda y: (L(y) + y * Lp(y)) / s0


class SkewSAS(_ContinuousRole):
    __slots__ = _fields = ("delta0",)
    kind: ClassVar[str] = "skew"

    def density(self, g0: RealFn, theta: float) -> RealFn:
        def g(x: float) -> float:
            s, c = sas_transform(x, theta)
            return c / math.sqrt(1.0 + x * x) * g0(s)

        return g

    def to_base(self, x: float, theta: float) -> float:
        return sas_transform(x, theta)[0]

    def from_base(self, y: float) -> tuple[float, float]:
        u = math.asinh(y) - self.delta0
        return math.sinh(u), math.cosh(u) / math.hypot(1.0, y)

    def base_terms(self, fam: Any) -> BaseTerms:
        L = fam.log_density_derivative

        def terms(y: float) -> tuple[float, float]:
            c = math.hypot(1.0, y)  # C = sqrt(1 + S^2)
            return c, y / c + c * L(y)

        return terms

    def base_slope(self, fam: Any) -> RealFn:
        L, Lp = fam.log_density_derivative, fam.log_density_second_derivative

        def slope(y: float) -> float:
            c = math.hypot(1.0, y)
            return 1.0 / (c * c * c) + y / c * L(y) + c * Lp(y)

        return slope


class DiscreteTheta(_Role):
    __slots__ = _fields = ("theta0",)
    kind: ClassVar[str] = "theta"

    def mass(self, fam: Any, x: int, theta: float) -> float:
        """g(x; theta), 0 off the support {0, ..., N}."""
        if not (fam.theta_domain.lo < theta < fam.theta_domain.hi):
            raise InvalidParameter(
                f"{fam.name} parameter {theta} outside ({fam.theta_domain.lo}, {fam.theta_domain.hi})"
            )
        if x < 0 or x > fam.support_max:
            return 0.0
        return fam.pmf_fn(int(x), theta)

    def operator(self, fam: Any, f0: Any) -> ClosedForm:
        """(w(k+1) - w(k)) / g(k) with w(j) = f0(j) g(j) (phi(j) - phi(0)) at theta0.

        As d/dtheta [g(j;theta)/g(0;theta)] = g(j)/g(0) (phi(j) - phi(0)),
        this is g(0; theta0) > 0 times the defining quotient.  w(j) is the
        same float in T f0(j-1) and T f0(j), so E[T f0] telescopes.  Note the
        defining quotient fixes the geometric operator's overall sign by the
        derivative of (1-p)^x in p, which is the negative of the form usually
        quoted (operators are equivalent up to scaling).
        """
        nmax, h = fam.support_max, f0.h

        def op(x: float) -> float:
            k = int(round(x))
            if k < 0 or k > nmax:
                return 0.0
            return self.walk(fam, lambda j: [h(j)], 1)(k)[1][0]

        return op, None

    def walk(
        self, fam: Any, bank: Callable[[int], Any], n: int
    ) -> Callable[[int], tuple[float, list[float]]]:
        """k -> (g(k), the operator's values at k): (w(k+1) - w(k)) / g(k) for
        the n test functions whose values f0(j) are bank(j) (None where all
        vanish).  Called at k, k + 1, ... in turn, it carries g(k+1)
        and w(k+1) into the next call, so a walk over k runs pmf_fn and the
        bank once per k; each value is the float of the operator alone."""
        theta0, nmax, pmf, phi = self.theta0, fam.support_max, fam.pmf_fn, fam.score_fn
        phi_at_0, zeros = phi(0), [0.0] * n

        def w(j: int, g: float) -> list[float]:
            values = bank(j)
            dphi = phi(j) - phi_at_0
            return [h * g * dphi for h in (zeros if values is None else values)]

        carried: list[tuple[float, list[float]]] = []

        def at(k: int) -> tuple[float, list[float]]:
            # g(k), g(k+1), w(k+1), w(k), then the quotient: what raises at k
            # is what the operator alone raises there.
            g, w0 = carried.pop() if carried else (pmf(k, theta0), None)
            g1 = pmf(k + 1, theta0) if k + 1 <= nmax else 0.0
            w1 = w(k + 1, g1) if k + 1 <= nmax else zeros
            carried.append((g1, w1))
            return g, [(a - b) / g for a, b in zip(w1, w(k, g) if w0 is None else w0)]

        return at

    def quotient(self, fam: Any, f0: Any, x: float, step: float) -> float:
        """g(0; theta0) times D+ of f0 times the central difference of
        g(.;theta)/g(0;theta), over g: the operator's scaling, without the score."""
        theta0 = self.theta0
        k = int(round(x))

        def w(j: int) -> float:
            if j > fam.support_max:
                return 0.0
            ratio_p = self.mass(fam, j, theta0 + step) / self.mass(fam, 0, theta0 + step)
            ratio_m = self.mass(fam, j, theta0 - step) / self.mass(fam, 0, theta0 - step)
            return f0.h(j) * (ratio_p - ratio_m) / (2.0 * step)

        return (w(k + 1) - w(k)) * self.mass(fam, 0, theta0) / self.mass(fam, k, theta0)

    def score(self, fam: Any) -> tuple[RealFn, RealFn]:
        phi = fam.score_fn
        return phi, (lambda x: derivative(phi, x))

    def f_tilde(self, fam: Any, f0: Any) -> RealFn:
        return fam.exchange_fn  # registered for f0 = 1


ParamRole = Union[Location, Scale, SkewSAS, DiscreteTheta]

ROLE_KINDS: dict[str, Callable[[float], ParamRole]] = {
    role.kind: role for role in (Location, Scale, SkewSAS, DiscreteTheta)
}
