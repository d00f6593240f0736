"""Catalogue of parametric families with analytic score ingredients.

Continuous families are stored as a base density g0 together with its
logarithmic derivatives L = g0'/g0 and L' = (log g0)''; the parameter of
interest enters through the family's role (``roles.py``).  Discrete
families live on {0, ..., N} with N independent of the parameter and
register g(x; theta) and the score d/dtheta log g(x; theta0), from which
their operator is built.

Every continuous family also carries the closed-form tails of its base law,
from which ``bulk_radius`` reads the base mass outside [-r, r].  Every
catalogue family is one entry of FAMILIES: its factory and a different law
on the same support (falsification evidence).

Every expectation steinb takes is a named moment of MOMENTS, written once
for both supports: integrated in the base coordinate y against g0, with
x = x(y) from the role, or summed against a pmf (see "Expectations").

Note the scale convention: sigma multiplies the coordinate, so the
exponential family has rate lambda = sigma0 and the Gamma family rate
b = sigma0 (larger sigma0 means more concentrated mass).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, ClassVar, NamedTuple, Sequence, Union

from . import config
from .numerics import (
    _EPS,
    Interval,
    NumericsError,
    RealFn,
    integrate,
    integrate_detecting_divergence,
    sum_series,
)
from .records import Record
from .roles import (  # the role classes, the exceptions and sas_transform are re-exported here
    ROLE_KINDS,
    DiscreteTheta,
    InvalidParameter,
    Location,
    ParamRole,
    Scale,
    SkewSAS,
    UnsupportedRole,
    sas_transform,
)
from .vectorquad import integrate_vector_or_eject

SQRT_2PI = math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# Test functions.


class TestFunction(NamedTuple):
    """A function with analytic first (and optionally second) derivative."""

    name: str
    h: RealFn
    h_prime: RealFn
    h_second: RealFn | None = None

    def __call__(self, x: float) -> float:
        return self.h(x)

    def forward_difference(self, x: int) -> float:
        """h(x+1) - h(x)."""
        return self.h(x + 1) - self.h(x)


ONE = TestFunction("one", lambda x: 1.0, lambda x: 0.0, lambda x: 0.0)


def linear() -> TestFunction:
    return TestFunction("linear", lambda x: x, lambda x: 1.0, lambda x: 0.0)


def square() -> TestFunction:
    return TestFunction("square", lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)


def sqrt_fn() -> TestFunction:
    """h(x) = sqrt(x) on x > 0 (extended by 0 to the left, never evaluated there)."""
    return TestFunction(
        "sqrt",
        lambda x: math.sqrt(x) if x > 0 else 0.0,
        lambda x: 0.5 / math.sqrt(x) if x > 0 else 0.0,
        lambda x: -0.25 * x**-1.5 if x > 0 else 0.0,
    )


def polynomial(coeffs: tuple[float, ...] | list[float], name: str | None = None) -> TestFunction:
    """c0 + c1 x + c2 x^2 + ... with exact derivatives."""
    cs = tuple(float(c) for c in coeffs)
    d1 = tuple(k * c for k, c in enumerate(cs))[1:]
    d2 = tuple(k * c for k, c in enumerate(d1))[1:]

    def horner(coeficients: tuple[float, ...], x: float) -> float:
        acc = 0.0
        for c in reversed(coeficients):
            acc = acc * x + c
        return acc

    return TestFunction(
        name or f"poly{cs}",
        lambda x: horner(cs, x),
        lambda x: horner(d1, x),
        lambda x: horner(d2, x),
    )


NAMED_TEST_FUNCTIONS: dict[str, Callable[[], TestFunction]] = {
    "one": lambda: ONE,
    "linear": linear,
    "square": square,
    "sqrt": sqrt_fn,
}


def named_test_function(name: str) -> TestFunction:
    try:
        return NAMED_TEST_FUNCTIONS[name]()
    except KeyError:
        raise KeyError(f"unknown test function {name!r}; known: {sorted(NAMED_TEST_FUNCTIONS)}")


def scaled(tf: TestFunction, c: float) -> TestFunction:
    return TestFunction(
        f"{c}*{tf.name}",
        lambda x: c * tf.h(x),
        lambda x: c * tf.h_prime(x),
        (lambda x: c * tf.h_second(x)) if tf.h_second is not None else None,
    )


def shifted(tf: TestFunction, c: float) -> TestFunction:
    return TestFunction(
        f"{tf.name}+{c}",
        lambda x: tf.h(x) + c,
        tf.h_prime,
        tf.h_second,
    )


def bump_terms(radius: float) -> Callable[[float], tuple[float, float]]:
    """The value and slope at x of ``bump(radius)``, from one exp."""
    R = float(radius)

    def terms(x: float) -> tuple[float, float]:
        u = x / R
        w = 1.0 - u * u
        if w <= 1e-12:
            return 0.0, 0.0
        e = math.exp(1.0 - 1.0 / w)
        return e, e * (-2.0 * u / R) / (w * w)

    return terms


def bump(radius: float) -> TestFunction:
    """Smooth compactly supported bump exp(1 - 1/(1 - (x/R)^2)) on |x| < R."""
    R = float(radius)
    terms = bump_terms(R)

    def b(x: float) -> float:
        u = x / R
        w = 1.0 - u * u
        return 0.0 if w <= 1e-12 else math.exp(1.0 - 1.0 / w)

    return TestFunction(f"bump(R={R:g})", b, lambda x: terms(x)[1])


def product(f: TestFunction, g: TestFunction, name: str | None = None) -> TestFunction:
    second = None
    if f.h_second is not None and g.h_second is not None:
        second = lambda x: (
            f.h_second(x) * g.h(x) + 2.0 * f.h_prime(x) * g.h_prime(x) + f.h(x) * g.h_second(x)
        )
    return TestFunction(
        name or f"{f.name}*{g.name}",
        lambda x: f.h(x) * g.h(x),
        lambda x: f.h_prime(x) * g.h(x) + f.h(x) * g.h_prime(x),
        second,
    )


# --------------------------------------------------------------------------
# The regularized incomplete gamma function, for the gamma and quartic base
# tails.  (Here and not in ``numerics.py``: when no bytecode cache exists,
# compiling numerics.py sets the peak memory of an import, and every line it
# gains raises that peak.)


def regularized_gamma(a: float, x: float) -> tuple[float, float]:
    """The regularized incomplete gamma functions (P(a, x), Q(a, x)), a > 0.

    Below x = a + 1 the power series gives P and Q = 1 - P; above it the
    continued fraction (modified Lentz) gives Q and P = 1 - Q (Numerical
    Recipes ``gser``/``gcf``).  The one computed directly is the smaller tail
    or close to it, so both keep their relative accuracy in their own tails.
    """
    if not a > 0:
        raise ValueError(f"regularized_gamma needs a > 0, got {a}")
    if not x > 0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        # sum_n x^n / (a (a+1) ... (a+n)); the ratio x / (a+n) is below 1
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * _EPS:
            n += 1.0
            term *= x / n
            total += term
        p = total * prefactor
        return p, 1.0 - p
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 100_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1.0) <= _EPS:
            break
    else:
        raise NumericsError(f"incomplete gamma continued fraction stalled at a={a}, x={x}")
    q = h * prefactor
    return 1.0 - q, q


# --------------------------------------------------------------------------
# Continuous families.


class _Structural(Record):
    __slots__ = ()

    def structural_value(self, key: str) -> float:
        for k, v in self.structural:
            if k == key:
                return v
        raise KeyError(key)


class ContinuousFamily(_Structural):
    _fields = ("name", "base_density", "log_density_derivative", "base_support", "role", "base_sf",
               "base_cdf", "log_density_second_derivative", "structural")
    __slots__ = _fields + ("_density",)

    is_discrete: ClassVar[bool] = False

    def __init__(
        self,
        name: str,
        base_density: RealFn,                  # g0, with its indicator built in
        log_density_derivative: RealFn,        # L = g0'/g0 on the interior
        base_support: Interval,
        role: ParamRole,
        base_sf: RealFn,                       # P(Y > y) under g0, accurate in the right tail
        base_cdf: RealFn,                      # P(Y < y) under g0, accurate in the left tail
        log_density_second_derivative: RealFn,  # L' = (log g0)''
        structural: tuple[tuple[str, float], ...] = (),
    ) -> None:
        super().__init__(name, base_density, log_density_derivative, base_support, role, base_sf,
                         base_cdf, log_density_second_derivative, structural)
        # g(.; theta0), bound once: pdf runs once per integrand evaluation.
        object.__setattr__(self, "_density", role.density(base_density, role.value))

    @property
    def support(self) -> Interval:
        """Support of g(.; theta0) in x-space."""
        return self.role.support(self.base_support)

    def pdf(self, x: float) -> float:
        return self._density(x)


# --- factories ---


def _gaussian_base(width: float) -> dict[str, object]:
    """The ContinuousFamily fields of a centred normal base of standard deviation width."""
    s2 = width * width
    root2_width = math.sqrt(2.0) * width

    def g0(y: float) -> float:
        return math.exp(-y * y / (2.0 * s2)) / (width * SQRT_2PI)

    return dict(
        base_density=g0,
        log_density_derivative=lambda y: -y / s2,
        log_density_second_derivative=lambda y: -1.0 / s2,
        base_support=Interval.real_line(),
        base_sf=lambda y: 0.5 * math.erfc(y / root2_width),
        base_cdf=lambda y: 0.5 * math.erfc(-y / root2_width),
    )


def gaussian(role: ParamRole, *, sigma: float = 1.0) -> ContinuousFamily:
    """Normal base density of standard deviation ``sigma`` (default standard normal)."""
    _require_kind("gaussian", role.kind)
    if not 0 < sigma < math.inf:
        raise InvalidParameter(f"gaussian width must be finite and > 0, got {sigma}")
    return ContinuousFamily(
        name="gaussian", role=role, structural=(("sigma", float(sigma)),), **_gaussian_base(sigma)
    )


def exponential(role: ParamRole) -> ContinuousFamily:
    """Rate-1 exponential base e^{-y} on [0, inf).

    Under the location role the density is positive at the moving left edge,
    so the bound machinery rejects the pair and the operator has an atom there.
    """
    _require_kind("exponential", role.kind)

    def g0(y: float) -> float:
        return math.exp(-y) if y >= 0.0 else 0.0

    return ContinuousFamily(
        name="exponential",
        base_density=g0,
        log_density_derivative=lambda y: -1.0,
        base_support=Interval.half_line(0.0),
        role=role,
        base_sf=lambda y: math.exp(-y) if y > 0.0 else 1.0,
        base_cdf=lambda y: -math.expm1(-y) if y > 0.0 else 0.0,
        log_density_second_derivative=lambda y: 0.0,
    )


def gamma(role: ParamRole, *, shape: float) -> ContinuousFamily:
    """Gamma base y^{a-1} e^{-y} / Gamma(a) on (0, inf); shape is structural.

    The location role needs a > 1 (density vanishing at the edge); location
    Fisher information additionally diverges for a <= 2, which surfaces at
    bound time as an infinite value, not here.
    """
    _require_kind("gamma", role.kind)
    a = float(shape)
    if not 0 < a < math.inf:
        raise InvalidParameter(f"gamma shape must be finite and > 0, got {a}")
    if isinstance(role, Location) and not a > 1:
        raise InvalidParameter(f"gamma location role needs shape > 1, got {a}")
    lg = math.lgamma(a)

    def g0(y: float) -> float:
        if y <= 0.0:
            return 0.0
        return math.exp((a - 1.0) * math.log(y) - y - lg)

    return ContinuousFamily(
        name="gamma",
        base_density=g0,
        log_density_derivative=lambda y: (a - 1.0) / y - 1.0,
        base_support=Interval.half_line(0.0),
        role=role,
        base_sf=lambda y: regularized_gamma(a, y)[1],
        base_cdf=lambda y: regularized_gamma(a, y)[0],
        log_density_second_derivative=lambda y: -(a - 1.0) / (y * y),
        structural=(("shape", a),),
    )


def sas_gaussian(delta0: float = 0.0) -> ContinuousFamily:
    """Sinh-arcsinh-skewed standard Gaussian; delta0 = 0 recovers the normal."""
    return ContinuousFamily(name="sas-gaussian", role=SkewSAS(float(delta0)), **_gaussian_base(1.0))


def quartic(mu0: float = 0.0) -> ContinuousFamily:
    """Density proportional to exp(-x^4/4): unimodal but not *strongly* unimodal.

    (log g)'' = -3x^2 vanishes at the origin, so no Poincare constant of the
    form 1/eps exists; used to exercise that failure path.
    """
    z = 2.0 * math.exp(math.lgamma(1.25)) * 4.0**0.25

    def g0(y: float) -> float:
        return math.exp(-y**4 / 4.0) / z

    def sf(y: float) -> float:
        # Y^4/4 is Gamma(1/4)-distributed, and each sign of Y carries half the mass.
        y2 = y * y
        p, q = regularized_gamma(0.25, 0.25 * y2 * y2)
        return 0.5 * q if y >= 0.0 else 0.5 + 0.5 * p

    return ContinuousFamily(
        name="quartic",
        base_density=g0,
        log_density_derivative=lambda y: -y**3,
        base_support=Interval.real_line(),
        role=Location(float(mu0)),
        base_sf=sf,
        base_cdf=lambda y: sf(-y),
        log_density_second_derivative=lambda y: -3.0 * y * y,
    )


# --------------------------------------------------------------------------
# Discrete families on {0, ..., N}.


class DiscreteFamily(_Structural):
    __slots__ = _fields = ("name", "role", "support_max", "pmf_fn", "exchange_fn", "score_fn",
                           "theta_domain", "structural", "mode")

    is_discrete: ClassVar[bool] = True

    def __init__(
        self,
        name: str,
        role: DiscreteTheta,
        support_max: float,                    # int or math.inf
        pmf_fn: Callable[[int, float], float],
        exchange_fn: RealFn,                   # f-tilde for f0 = 1, continuous in x
        score_fn: RealFn,                      # d/dtheta log g(x;theta0), continuous in x
        theta_domain: Interval = Interval.real_line(),
        structural: tuple[tuple[str, float], ...] = (),
        mode: int = 0,                         # where g(.; theta0) peaks
    ) -> None:
        super().__init__(name, role, support_max, pmf_fn, exchange_fn, score_fn, theta_domain,
                         structural, mode)

    def pmf(self, x: int) -> float:
        return self.role.mass(self, x, self.role.theta0)


def poisson(lam: float) -> DiscreteFamily:
    """Poisson(lambda) on the nonnegative integers."""
    if not 0 < lam < math.inf:
        raise InvalidParameter(f"poisson rate must be finite and > 0, got {lam}")

    def pmf_fn(x: int, theta: float) -> float:
        return math.exp(-theta + x * math.log(theta) - math.lgamma(x + 1))

    return DiscreteFamily(
        name="poisson",
        role=DiscreteTheta(float(lam)),
        support_max=math.inf,
        pmf_fn=pmf_fn,
        exchange_fn=lambda x, theta=float(lam): -x / theta,
        score_fn=lambda x, theta=float(lam): x / theta - 1.0,
        theta_domain=Interval(0.0, math.inf),
        mode=math.floor(lam),
    )


def geometric(p: float) -> DiscreteFamily:
    """Geometric(p) counting failures before the first success: g(x) = (1-p)^x p."""
    if not 0 < p < 1:
        raise InvalidParameter(f"geometric parameter must lie in (0, 1), got {p}")

    def pmf_fn(x: int, theta: float) -> float:
        return math.exp(x * math.log1p(-theta)) * theta

    return DiscreteFamily(
        name="geometric",
        role=DiscreteTheta(float(p)),
        support_max=math.inf,
        pmf_fn=pmf_fn,
        exchange_fn=lambda x, theta=float(p): x / (theta * (1.0 - theta)),
        score_fn=lambda x, theta=float(p): 1.0 / theta - x / (1.0 - theta),
        theta_domain=Interval(0.0, 1.0),
    )


def binomial(n: int, p: float) -> DiscreteFamily:
    """Binomial(n, p) on {0, ..., n}; n is structural, p the parameter of interest."""
    if not 1 <= n < math.inf or int(n) != n:
        raise InvalidParameter(f"binomial count must be a positive integer, got {n}")
    if not 0 < p < 1:
        raise InvalidParameter(f"binomial parameter must lie in (0, 1), got {p}")
    n = int(n)

    def pmf_fn(x: int, theta: float) -> float:
        return math.comb(n, x) * theta**x * (1.0 - theta) ** (n - x)

    return DiscreteFamily(
        name="binomial",
        role=DiscreteTheta(float(p)),
        support_max=float(n),
        pmf_fn=pmf_fn,
        exchange_fn=lambda x, theta=float(p): -x / theta,
        score_fn=lambda x, theta=float(p): x / theta - (n - x) / (1.0 - theta),
        theta_domain=Interval(0.0, 1.0),
        structural=(("n", float(n)),),
        mode=min(math.floor((n + 1) * p), n),
    )


Family = Union[ContinuousFamily, DiscreteFamily]

# --------------------------------------------------------------------------
# The family table.


def _exponential_perturbed(fam: ContinuousFamily) -> ContinuousFamily:
    # Twice the rate keeps the half-line [0, inf).
    if fam.support.lo != 0.0:
        raise UnsupportedRole("no same-support perturbation for a shifted exponential")
    rate = fam.role.sigma0 if isinstance(fam.role, Scale) else 1.0
    return exponential(Scale(rate * 2.0))


class FamilyEntry(NamedTuple):
    """One catalogue family.

    ``build(role, **structural)`` constructs it; ``perturb`` gives a different
    law on the same support (falsification evidence).
    """

    build: Callable[..., Family]
    kinds: tuple[str, ...]
    perturb: Callable[[Family], Family]
    required: tuple[str, ...] = ()    # structural constants without a default
    optional: tuple[str, ...] = ()


FAMILIES: dict[str, FamilyEntry] = {
    "gaussian": FamilyEntry(
        build=gaussian,
        kinds=("location", "scale", "skew"),
        perturb=lambda fam: gaussian(fam.role, sigma=fam.structural_value("sigma") * math.sqrt(2.0)),
        optional=("sigma",),
    ),
    "exponential": FamilyEntry(
        build=exponential,
        kinds=("location", "scale"),
        perturb=_exponential_perturbed,
    ),
    "gamma": FamilyEntry(
        build=gamma,
        kinds=("location", "scale"),
        perturb=lambda fam: gamma(fam.role, shape=fam.structural_value("shape") + 1.0),
        required=("shape",),
    ),
    "sas-gaussian": FamilyEntry(
        build=lambda role: sas_gaussian(role.delta0),
        kinds=("skew",),
        perturb=lambda fam: sas_gaussian(fam.role.delta0 + 0.7),
    ),
    "poisson": FamilyEntry(
        build=lambda role: poisson(role.theta0),
        kinds=("theta",),
        perturb=lambda fam: poisson(fam.role.theta0 * 2.0),
    ),
    "geometric": FamilyEntry(
        build=lambda role: geometric(role.theta0),
        kinds=("theta",),
        perturb=lambda fam: geometric(fam.role.theta0 / 2.0),
    ),
    "binomial": FamilyEntry(
        build=lambda role, n: binomial(n, role.theta0),
        kinds=("theta",),
        perturb=lambda fam: binomial(fam.structural_value("n"), fam.role.theta0 / 2.0),
        required=("n",),
    ),
}

FAMILY_IDS = tuple(FAMILIES)


def make_family(name: str, kind: str, value: float, **structural: float) -> Family:
    """Construct a catalogue family from its string id, role kind, and parameter value."""
    entry = FAMILIES.get(name)
    if entry is None:
        raise InvalidParameter(f"unknown family {name!r}; known: {FAMILY_IDS}")
    _require_kind(name, kind)
    for key in entry.required:
        if key not in structural:
            raise InvalidParameter(f"{name} requires a structural {key!r}")
    unexpected = sorted(set(structural) - set(entry.required) - set(entry.optional))
    if unexpected:
        raise InvalidParameter(f"unexpected structural constants: {unexpected}")
    return entry.build(ROLE_KINDS[kind](float(value)), **structural)


def _require_kind(name: str, kind: str) -> None:
    kinds = FAMILIES[name].kinds
    if kind not in kinds:
        raise InvalidParameter(f"{name} supports the {'/'.join(kinds)} role, not {kind!r}")


# --------------------------------------------------------------------------
# Expectations: the moment table.
#
# Every expectation steinb takes is E[m(X)] for a named moment m of MOMENTS,
# a function of one node: the base coordinate y, x, h(x), h'(x), h''(x),
# dx/dy, dy/dtheta, the score phi and dphi/dy.  In y, f-tilde (of f0 = 1) is
# dy/dtheta dx/dy and phi'(x) is (dphi/dy) / (dx/dy), so no integrand maps x
# back to y.  At an integer x of a discrete family the node is y = x,
# dx/dy = 1, h' the backward difference h(x) - h(x - 1) = D+h(x - 1),
# dy/dtheta the registered f-tilde and phi the registered score; so "lower"
# is the summation-by-parts numerator sum_x D+h(x - 1) f-tilde(x) g(x).
#
# A request names its moments, each with how it is taken alone: True as by
# ``expectation_or_inf`` (a divergent integral is +-inf), False as by
# ``expectation``.  Two or more of them are one shared run in y over the base
# support (``integrate_vector_or_eject``) or one walk over the pmf
# (``discrete_sums``); a moment that run ejects, every moment of a run or
# walk that raises, and a lone moment are each taken alone (``_alone``) on
# first lookup, so each value, +-inf verdict and error is that path's.

Integrand = Callable[[float, float, float, float, float, float, float, float, float], float]


class Moment(NamedTuple):
    integrand: Integrand       # (y, x, h, h', h'', dx/dy, dy/dtheta, phi, dphi/dy) -> m
    reads: tuple[str, ...]     # of "h", "hp", "hpp", "dy" (dy/dtheta), "phi", "slope"
    series_tol: float = math.inf  # a walk sums it to min(tol, series_tol)


MOMENTS: dict[str, Moment] = {
    "h2": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: h ** 2, ("h",)),
    "h": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: h, ("h",)),
    # h' f-tilde and h'^2 f-tilde / (-phi').
    "lower": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp * (dy * j), ("hp", "dy"),
                    series_tol=1e-13),
    "upper": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp * hp * (j * j) * dy / -s,
                    ("hp", "dy", "slope")),
    "hp": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp, ("hp",)),
    "hp2": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp ** 2, ("hp",)),
    "x_hp2": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: x * hp ** 2, ("hp",)),
    "x_hp_hpp": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: x * hp * hpp, ("hp", "hpp")),
    # (x - x(0)) h' for an affine role whose base support starts at y = 0
    # (the gamma roles): x - x(0) = y dx/dy.
    "edge_hp": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: y * j * hp, ("hp",)),
    "phi": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: phi, ("phi",)),
    "h_phi": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: h * phi, ("h", "phi")),
    # The Fisher information of a law without an ``operators.FISHER`` entry.
    "phi2": Moment(lambda y, x, h, hp, hpp, j, dy, phi, s: phi ** 2, ("phi",), series_tol=1e-13),
}

Request = dict[str, bool]


def _read(names: Sequence[str]) -> tuple[list[Integrand], frozenset[str]]:
    """The integrands of the named moments and what any of them reads."""
    ms = [MOMENTS[name] for name in names]
    return [m.integrand for m in ms], frozenset().union(*(m.reads for m in ms))


def _integrand(fam: ContinuousFamily, h: TestFunction, names: str | Sequence[str]) -> Callable:
    """The integrand in y of the named moments, m(node) g0(y): a float for
    one name, a list for a sequence of them, that list times ``scale``, the
    Jacobian of the shared run's change of variable.  g0, from_base, the
    role's terms and slope and h, h', h'' are each read once per node, and
    only when some moment reads them (x and dx/dy only with h, h' or h'')."""
    integrands, reads = _read([names] if isinstance(names, str) else names)
    one = integrands[0] if isinstance(names, str) else None
    zero = 0.0 if one is not None else [0.0] * len(integrands)
    g0 = fam.base_density
    from_base = fam.role.from_base if not reads.isdisjoint(("h", "hp", "hpp")) else None
    hf = h.h if "h" in reads else None
    hpf = h.h_prime if "hp" in reads else None
    hppf = h.h_second if "hpp" in reads else None
    terms = fam.role.base_terms(fam) if not reads.isdisjoint(("dy", "phi")) else None
    slopef = fam.role.base_slope(fam) if "slope" in reads else None

    def integrand(y: float, scale: float = 1.0) -> float | list[float]:
        w = g0(y)
        if w == 0.0:
            return zero
        x, j = from_base(y) if from_base is not None else (y, 1.0)
        hx = hf(x) if hf is not None else 0.0
        hp = hpf(x) if hpf is not None else 0.0
        hpp = hppf(x) if hppf is not None else 0.0
        dy, phi = terms(y) if terms is not None else (0.0, 0.0)
        s = slopef(y) if slopef is not None else 0.0
        if one is not None:
            return one(y, x, hx, hp, hpp, j, dy, phi, s) * w
        w *= scale
        # Loops, not comprehensions, which would make every local a cell.
        row = []
        try:
            for m in integrands:
                row.append(m(y, x, hx, hp, hpp, j, dy, phi, s) * w)
        except ArithmeticError:
            # Each moment on its own, as numerics._eval_raw: inf where it raised.
            row = []
            for m in integrands:
                row.append(_eval_moment(m, w, (y, x, hx, hp, hpp, j, dy, phi, s)))
        return row

    return integrand


def _eval_moment(m: Integrand, w: float, node: tuple[float, ...]) -> float:
    try:
        return m(*node) * w
    except ArithmeticError:
        return math.inf


def _terms(fam: DiscreteFamily, h: TestFunction, names: Sequence[str]) -> Callable[[int], list[float]]:
    """The terms m(node) g(x) of the named moments at the integers x of one
    walk from 0 up: h(x - 1), which h' reads, is carried from the term
    before.  h, the registered f-tilde and the score are each read once per
    term, and each only when some moment reads it."""
    ms, reads = _read(names)
    hf = h.h if not reads.isdisjoint(("h", "hp")) else None
    backward = "hp" in reads
    exchange = fam.exchange_fn if "dy" in reads else None
    score = fam.score_fn if "phi" in reads else None
    below: float | None = None

    def terms(x: int) -> list[float]:
        nonlocal below
        hx = hf(x) if hf is not None else 0.0
        g = fam.pmf(x)
        hp = 0.0
        if backward:
            hp = hx - (hf(x - 1) if below is None else below)
            below = hx
        dy = exchange(x) if exchange is not None else 0.0
        phi = score(x) if score is not None else 0.0
        row = []
        for m in ms:
            row.append(m(x, x, hx, hp, 0.0, 1.0, dy, phi, 0.0) * g)
        return row

    return terms


def discrete_sums(fam: DiscreteFamily, terms: Callable[[int], Sequence[float]],
                  tols: Sequence[float]) -> list[float]:
    """The n sums over the support of a discrete family of terms(k), which
    returns n terms (each already weighted by a pmf), in one walk over k:
    ``math.fsum`` of each over {0, ..., N}, or ``sum_series`` with the n
    tolerances ``tols`` up to the mode of the family's law."""
    if math.isfinite(fam.support_max):
        return [math.fsum(column) for column in zip(*map(terms, range(int(fam.support_max) + 1)))]
    return sum_series(terms, 0, tols, quiet_from=fam.mode)


def _alone(fam: Family, h: TestFunction, name: str, or_inf: bool, tol: float) -> float:
    """One moment alone: a walk over the pmf, or a one-component quadrature
    in y over the base support, with or without divergence detection."""
    if fam.is_discrete:
        return discrete_sums(fam, _terms(fam, h, [name]), (min(tol, MOMENTS[name].series_tol),))[0]
    if or_inf:
        return integrate_detecting_divergence(_integrand(fam, h, name), fam.base_support, tol)
    return integrate(_integrand(fam, h, name), fam.base_support, tol).value


def _expectations(fam: Family, h: TestFunction, request: Request, tol: float) -> Callable[[str], float]:
    """The moments of ``request`` against the family's law, as a lookup by
    name: two or more in one shared run or one walk, the rest alone on
    first lookup (see above)."""
    names = list(request)
    known: dict[str, float] = {}
    if len(names) > 1 and fam.is_discrete:
        try:
            tols = [min(tol, MOMENTS[name].series_tol) for name in names]
            known = dict(zip(names, discrete_sums(fam, _terms(fam, h, names), tols)))
        except NumericsError:
            pass
    elif len(names) > 1:
        results = integrate_vector_or_eject(
            lambda live: _integrand(fam, h, [names[k] for k in live]), len(names), fam.base_support, tol)
        known = {name: r.value for name, r in zip(names, results) if r is not None}

    def lookup(name: str) -> float:
        if name not in known:
            known[name] = _alone(fam, h, name, request[name], tol)
        return known[name]

    return lookup


def expectation(fam: Family, fn: RealFn, tol: float = 1e-12) -> float:
    """E[fn(X)] by quadrature in the base coordinate (continuous) or series
    (discrete): the lone moment "h" of fn."""
    return _expectations(fam, TestFunction("fn", fn, None), {"h": False}, tol)("h")


def expectation_or_inf(fam: Family, fn: RealFn, tol: float = 1e-12) -> float:
    """E[fn(X)] as ``expectation``, except that a divergent integral returns
    +-inf instead of raising NonConvergence."""
    return _expectations(fam, TestFunction("fn", fn, None), {"h": True}, tol)("h")


# --------------------------------------------------------------------------
# Family specs and bulk radii.


def family_spec(fam: Family) -> tuple:
    """What a catalogue family is built from: its name, its role (as its repr,
    which tells -0.0 from 0.0) and its structural constants.  Everything
    computed from the law alone is a function of this key."""
    return fam.name, repr(fam.role), fam.structural


@functools.lru_cache(maxsize=None)
def bulk_radius(fam: Family, eps: float = 1e-8) -> float:
    """Radius R with at most eps of the mass outside [-R, R] in the base
    coordinate y (continuous) or outside {0, ..., R - 1} (discrete).

    The operators evaluate test functions at y, so a bump of this radius,
    centred at y = 0, straddles the whole bulk under every role.  R is found
    by doubling from 1, then 30 bisection steps; continuous families read
    the mass outside from their closed-form base tails at +-r, discrete ones
    sum the pmf up to the series term cap ``config.SERIES.max_terms``.
    """
    if fam.is_discrete:
        total = 0.0
        x = 0
        cap = fam.support_max if math.isfinite(fam.support_max) else config.SERIES.max_terms
        while x <= cap:
            total += fam.pmf(x)
            if total >= 1.0 - eps:
                return float(x + 1)
            x += 1
        return float(cap)

    def tail_outside(r: float) -> float:
        return fam.base_sf(r) + fam.base_cdf(-r)

    r = 1.0
    while tail_outside(r) > eps:
        r *= 2.0
        if r > 1e9:
            raise InvalidParameter(f"could not locate the bulk of {fam.name}")
    lo_r, hi_r = r / 2.0, r
    for _ in range(30):
        mid = 0.5 * (lo_r + hi_r)
        if tail_outside(mid) > eps:
            lo_r = mid
        else:
            hi_r = mid
    return hi_r
