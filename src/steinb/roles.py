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
Discrete families register g(x;theta) on {0, ..., N} and the derivative of
g(x;theta)/g(0;theta) in theta; their operator is the forward-difference
analogue.

Each role class is the single home of its math: kind and parameter value,
bulk centre, support map and density, the base coordinate map y(x; theta)
(increasing in x for every continuous role, so tails in x are base tails),
whether g is positive at a support edge that moves with theta, the
closed-form operator (with a Dirac atom at such an edge), the score
phi = d/dtheta log g and its derivative, f-tilde, and the generic quotient
by central differencing in theta, against which every closed form is
checked.  Adding a role is one class here, in ROLE_KINDS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional, Union

from .numerics import Interval, RealFn, derivative


class InvalidParameter(ValueError):
    """A parameter lies outside the family's admissible set."""


class UnsupportedRole(Exception):
    """The family/role pair does not admit the requested construction."""


@dataclass(frozen=True)
class Atom:
    """Dirac term carried by the operator: coefficient * delta_{location}."""

    location: float
    coefficient: float


ClosedForm = tuple[RealFn, Optional[Atom]]


def sas_transform(x: float, delta: float) -> tuple[float, float]:
    """(S, C) = (sinh(asinh x + delta), cosh(asinh x + delta)); C^2 - S^2 = 1."""
    u = math.asinh(x) + delta
    return math.sinh(u), math.cosh(u)


class _Role:
    def positive_at_moving_edge(self, fam: Any) -> bool:
        """Is g > 0 at a finite support edge that moves with theta?  Then the
        operator has a Dirac atom there and f0 = 1 is not admissible."""
        return False


class _ContinuousRole(_Role):
    """What the continuous roles share: the generic quotient and L, L'."""

    center: ClassVar[float] = 0.0   # where the family's bulk sits

    def quotient(self, fam: Any, f0: Any, x: float, step: float) -> float:
        """d/dtheta (f g)/g at theta0 by central differencing."""
        g0, theta0 = fam.base_density, self.value

        def fg(theta: float) -> float:
            return f0.h(self.to_base(x, theta)) * self.density(g0, x, theta)

        g0x = self.density(g0, x, theta0)
        return (fg(theta0 + step) - fg(theta0 - step)) / (2.0 * step * g0x)

    @staticmethod
    def _log_derivatives(fam: Any) -> tuple[RealFn, RealFn]:
        L = fam.log_density_derivative
        Lp = fam.log_density_second_derivative
        if Lp is None:
            Lp = lambda y: derivative(L, y)  # finite-difference fallback
        return L, Lp


@dataclass(frozen=True)
class Location(_ContinuousRole):
    mu0: float

    kind: ClassVar[str] = "location"

    @property
    def value(self) -> float:
        return self.mu0

    @property
    def center(self) -> float:
        return self.mu0

    def support(self, base: Interval) -> Interval:
        return Interval(base.lo + self.mu0, base.hi + self.mu0)

    def density(self, g0: RealFn, x: float, theta: float) -> float:
        return g0(x - theta)

    def to_base(self, x: float, theta: float) -> float:
        return x - theta

    def positive_at_moving_edge(self, fam: Any) -> bool:
        lo = fam.base_support.lo
        return math.isfinite(lo) and fam.base_density(lo) > 0

    def operator(self, fam: Any, f0: Any) -> ClosedForm:
        """-(f0 g0)'(x - mu0) / g0(x - mu0), plus a Dirac atom when the density
        is positive at the finite left support edge (exponential case)."""
        mu0 = self.mu0
        L = fam.log_density_derivative
        lo = fam.base_support.lo

        def op(x: float) -> float:
            y = x - mu0
            if y < lo or y > fam.base_support.hi:
                return 0.0
            return -f0.h_prime(y) - f0.h(y) * L(y)

        atom = None
        if self.positive_at_moving_edge(fam):
            atom = Atom(location=mu0 + lo, coefficient=-f0.h(lo))
        return op, atom

    def score(self, fam: Any) -> tuple[RealFn, RealFn]:
        L, Lp = self._log_derivatives(fam)
        mu0 = self.mu0
        return (lambda x: -L(x - mu0)), (lambda x: -Lp(x - mu0))

    def f_tilde(self, fam: Any, f0: Any) -> RealFn:
        mu0 = self.mu0
        return lambda x: -f0.h(x - mu0)


@dataclass(frozen=True)
class Scale(_ContinuousRole):
    sigma0: float

    kind: ClassVar[str] = "scale"

    def __post_init__(self) -> None:
        if not self.sigma0 > 0:
            raise InvalidParameter(f"scale parameter must be > 0, got {self.sigma0}")

    @property
    def value(self) -> float:
        return self.sigma0

    def support(self, base: Interval) -> Interval:
        lo, hi, s = base.lo, base.hi, self.sigma0
        return Interval(lo / s if math.isfinite(lo) else lo,
                        hi / s if math.isfinite(hi) else hi)

    def density(self, g0: RealFn, x: float, theta: float) -> float:
        if not theta > 0:
            raise InvalidParameter(f"scale parameter must be > 0, got {theta}")
        return theta * g0(theta * x)

    def to_base(self, x: float, theta: float) -> float:
        return theta * x

    def operator(self, fam: Any, f0: Any) -> ClosedForm:
        """d/dy (y f0(sigma0 y) g0(sigma0 y)) / (sigma0 g0(sigma0 x)) in closed form."""
        sigma0 = self.sigma0
        L = fam.log_density_derivative
        lo, hi = fam.base_support.lo, fam.base_support.hi

        def op(x: float) -> float:
            y = sigma0 * x
            if y < lo or y > hi:
                return 0.0
            base = f0.h(y) / sigma0
            if x == 0.0:  # the linear-in-x terms vanish; skips L at a closed edge where it may blow up
                return base
            return base + x * f0.h_prime(y) + x * f0.h(y) * L(y)

        return op, None

    def score(self, fam: Any) -> tuple[RealFn, RealFn]:
        L, Lp = self._log_derivatives(fam)
        s0 = self.sigma0
        return (
            lambda x: 1.0 / s0 + x * L(s0 * x),
            lambda x: L(s0 * x) + s0 * x * Lp(s0 * x),
        )

    def f_tilde(self, fam: Any, f0: Any) -> RealFn:
        s0 = self.sigma0
        return lambda x: (x / s0) * f0.h(s0 * x)


@dataclass(frozen=True)
class SkewSAS(_ContinuousRole):
    delta0: float

    kind: ClassVar[str] = "skew"

    @property
    def value(self) -> float:
        return self.delta0

    def support(self, base: Interval) -> Interval:
        return base  # SAS skewing keeps the real line

    def density(self, g0: RealFn, x: float, theta: float) -> float:
        s, c = sas_transform(x, theta)
        return c / math.sqrt(1.0 + x * x) * g0(s)

    def to_base(self, x: float, theta: float) -> float:
        return sas_transform(x, theta)[0]

    def operator(self, fam: Any, f0: Any) -> ClosedForm:
        """C f0'(S) + (S/C + C L(S)) f0(S) with (S, C) the sinh-arcsinh pair at delta0."""
        d0 = self.delta0
        L = fam.log_density_derivative

        def op(x: float) -> float:
            s, c = sas_transform(x, d0)
            return c * f0.h_prime(s) + (s / c + c * L(s)) * f0.h(s)

        return op, None

    def score(self, fam: Any) -> tuple[RealFn, RealFn]:
        L, Lp = self._log_derivatives(fam)
        d0 = self.delta0

        def phi(x: float) -> float:
            s, c = sas_transform(x, d0)
            return s / c + c * L(s)

        def phi_prime(x: float) -> float:
            s, c = sas_transform(x, d0)
            return (1.0 / (c * c) + s * L(s) + c * c * Lp(s)) / math.sqrt(1.0 + x * x)

        return phi, phi_prime

    def f_tilde(self, fam: Any, f0: Any) -> RealFn:
        d0 = self.delta0

        def f_tilde(x: float) -> float:
            s, _ = sas_transform(x, d0)
            return math.sqrt(1.0 + x * x) * f0.h(s)

        return f_tilde


@dataclass(frozen=True)
class DiscreteTheta(_Role):
    theta0: float

    kind: ClassVar[str] = "theta"

    @property
    def value(self) -> float:
        return self.theta0

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
        """D+ ( f0 * d/dtheta[g(.;theta)/g(0;theta)] )(x) / g(x; theta0).

        Matches the defining quotient exactly; note this fixes the geometric
        operator's overall sign by the derivative of (1-p)^x in p, which is the
        negative of the form usually quoted (operators are equivalent up to
        scaling).
        """
        theta0 = self.theta0
        nmax = fam.support_max

        def op(x: float) -> float:
            k = int(round(x))
            if k < 0 or k > nmax:
                return 0.0
            w1 = f0.h(k + 1) * fam.theta_ratio_derivative(k + 1, theta0) if k + 1 <= nmax else 0.0
            w0 = f0.h(k) * fam.theta_ratio_derivative(k, theta0)
            return (w1 - w0) / self.mass(fam, k, theta0)

        return op, None

    def quotient(self, fam: Any, f0: Any, x: float, step: float) -> float:
        """D+ of f0 times the central difference of g(.;theta)/g(0;theta), over g."""
        theta0 = self.theta0
        k = int(round(x))

        def w(j: int) -> float:
            if j > fam.support_max:
                return 0.0
            ratio_p = self.mass(fam, j, theta0 + step) / self.mass(fam, 0, theta0 + step)
            ratio_m = self.mass(fam, j, theta0 - step) / self.mass(fam, 0, theta0 - step)
            return f0.h(j) * (ratio_p - ratio_m) / (2.0 * step)

        return (w(k + 1) - w(k)) / self.mass(fam, k, theta0)

    def score(self, fam: Any) -> tuple[RealFn, RealFn]:
        phi = fam.score_fn
        return phi, (lambda x: derivative(phi, x))

    def f_tilde(self, fam: Any, f0: Any) -> RealFn:
        return fam.exchange_fn  # registered for f0 = 1


ParamRole = Union[Location, Scale, SkewSAS, DiscreteTheta]

ROLE_KINDS: dict[str, Callable[[float], ParamRole]] = {
    role.kind: role for role in (Location, Scale, SkewSAS, DiscreteTheta)
}
