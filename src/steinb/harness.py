"""End-to-end verification: identity checks, falsification evidence and
scenario orchestration.

An identity check sums or integrates T(f0) against the family's own law and
passes when the expectation vanishes to tolerance (1e-8 continuous, 1e-9
discrete).  A whole suite is one run for all its test functions: for a
continuous family one vector quadrature in the base coordinate y to
``quad_tol`` (the CLI's --tol) over the builtin bump's window [-R, R],
outside which every builtin test function vanishes (a single check runs
over the whole base support); for a discrete family one walk over k to
min(quad_tol, 1e-13).  Falsification checks evaluate the same operator on
the same path under a perturbed law of the same support, and are expected to
produce a clearly nonzero value: evidence for, not a proof of, the converse
characterization.

Built-in test functions are polynomials (degree <= 4) multiplied by a smooth
compact bump, plus Hermite-weighted variants for the Gaussian location
family.  All are functions of y, and the bump's window [-R, R] is sized in y:
R is the bulk radius plus 2, so at most 1e-8 of the base mass lies outside.

A scenario takes one path, ``run_scenario``: build the law, check its
identity suite, then, unless ``with_report`` is off (``steinb check``),
compute its bound report; an expected failure becomes an error row.
``run_laws`` runs the scenarios of one command with one ``Laws`` memo, and
``result_to_dict`` writes every kind of row: checks only, report, or error.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, NamedTuple, Optional, Sequence

from . import config
# DivergentMoment and ground_truth_variance are re-exported here.
from .bounds import BoundReport, DivergentMoment, bound_report, ground_truth_variance
from .families import (
    FAMILIES,
    ContinuousFamily,
    DiscreteFamily,
    Family,
    TestFunction,
    bulk_radius,
    bump,
    bump_terms,
    discrete_sums,
    family_spec,
    make_family,
    named_test_function,
    polynomial,
    product,
)
from .numerics import Interval, NumericsError, QuadResult, integrate
from .operators import (
    BoundaryViolation,
    Laws,
    UnsupportedRole,
    hermite_test_function,
    require_score,
)
from .roles import BaseTerms

CONTINUOUS_IDENTITY_TOL = 1e-8
DISCRETE_IDENTITY_TOL = 1e-9


# What a scenario may end in instead of a report: recorded as a typed error
# row, so one extreme scenario never takes the rest of a matrix down.
SCENARIO_ERRORS = (
    UnsupportedRole, BoundaryViolation, DivergentMoment, ValueError, NumericsError, ArithmeticError,
)


class IdentityCheck(NamedTuple):
    family: str
    role: str
    test_function: str
    expectation_value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.expectation_value) <= self.tolerance


class ScenarioResult(NamedTuple):
    scenario_id: str
    report: BoundReport | None
    identity_checks: tuple[IdentityCheck, ...]
    wall_time: float           # diagnostics only; never serialized
    error: str | None = None


# --------------------------------------------------------------------------
# Operator expectations.

# f0(k) for each f0, for a discrete family's walk, which reads no
# derivative; or None where every one of them vanishes.
Bank = Callable[[float], Optional[Sequence[float]]]
# The continuous operator's values times a weight at a base coordinate y:
# rows(y, terms, w, j) is ((f0'(y) dy/dtheta + f0(y) phi) w) j for each f0,
# with (dy/dtheta, phi) = terms(y) read only where some f0 or f0' is not
# zero, or None where every one of them vanishes.
Rows = Callable[[float, BaseTerms, float, float], Optional[Sequence[float]]]


def _bank(f0s: Sequence[TestFunction]) -> Bank:
    """The walk's bank of arbitrary test functions, each evaluated on its own."""
    hs = [f0.h for f0 in f0s]
    return lambda y: [h(y) for h in hs]


def _rows(f0s: Sequence[TestFunction]) -> Rows:
    """The operator rows of arbitrary test functions, each evaluated on its own."""
    pairs = [(f0.h, f0.h_prime) for f0 in f0s]

    def rows(y: float, terms: BaseTerms, w: float, j: float) -> list[float]:
        dy, phi = terms(y)
        return [(hp(y) * dy + h(y) * phi) * w * j for h, hp in pairs]

    return rows


def operator_integrals(
    fam: ContinuousFamily, law: ContinuousFamily | None, rows: Rows, n: int, radius: float = math.inf,
    tol: float = config.QUAD.request_tol,
) -> Sequence[QuadResult]:
    """The integrals of T(f0) g_law for the n test functions of ``rows``,
    with T the continuous family's operator, in one vector quadrature over
    the base coordinate y:

        integral of [f0'(y) dy/dtheta + f0(y) phi] w(y) dy

    over [-radius, radius] (where the test functions live) intersected with
    the base support, and under another law cut at that law's support edge
    in y where it falls inside.  The weight w is g0(y) under the family's
    own law (``law`` None) and law.pdf(x(y)) dx/dy under another.  A bounded
    window that starts at a support edge is graded toward it, as the
    half-line maps of ``numerics`` are (every base support here is the real
    line or a half-line [lo, inf)); ``rows`` multiplies in the map's
    Jacobian.  The weight, the role's terms and the test functions are
    evaluated once per node for all n.  Any Dirac atom is not included."""
    role = fam.role
    terms = role.base_terms(fam)
    if law is None:
        weight = fam.base_density
    else:
        pdf, from_base = law.pdf, role.from_base

        def weight(y: float) -> float:
            x, dx_dy = from_base(y)
            return pdf(x) * dx_dy

    zeros = [0.0] * n

    def integrand(y: float, j: float = 1.0) -> Sequence[float]:
        w = weight(y)
        if w == 0.0:
            return zeros
        row = rows(y, terms, w, j)
        return zeros if row is None else row

    lo, hi = max(-radius, fam.base_support.lo), min(radius, fam.base_support.hi)
    if law is not None:
        # The weight vanishes below the law's support edge in y: cut there.
        cut = role.to_base(law.support.lo, role.value)
        if lo < cut < hi:
            lo = cut
    if lo == -radius or hi == math.inf:
        return integrate(integrand, Interval(lo, hi), tol, n=n)
    # Graded toward the support edge lo, y = lo + width s^2: an edge factor
    # (y - lo)^alpha becomes s^(2 alpha + 1).
    width = hi - lo
    return integrate(lambda s: integrand(lo + width * (s * s), 2.0 * width * s), Interval(0.0, 1.0), tol, n=n)


def operator_sums(fam: DiscreteFamily, law: DiscreteFamily | None, bank: Bank, n: int,
                  tol: float) -> list[float]:
    """The sums of T(f0)(k) g_law(k) for the n test functions of ``bank``,
    with T the discrete family's operator, in one walk over k
    (``discrete_sums`` over the law's support, each to tol) on the role's
    ``walk``: pmf_fn and the bank run once per k.  The weight is g(k)
    itself under the family's own law (``law`` None) and law.pmf(k) under
    another."""
    walk = fam.role.walk(fam, bank, n)

    def terms(k: int) -> list[float]:
        g, values = walk(k)
        mass = g if law is None else law.pmf(k)
        return [q * mass for q in values]

    return discrete_sums(fam if law is None else law, terms, (tol,) * n)


def _checks(fam: Family, f0s: Sequence[TestFunction], law: Family | None, tol: float | None,
            quad_tol: float, bank: Bank | Rows | None = None, radius: float = math.inf) -> list[IdentityCheck]:
    """The checks of E[T(f0)(X)] = 0 under ``law`` (None: the family's own)
    for each f0, against ``tol`` (by default the family type's), with any
    Dirac atom folded in as coefficient * density(atom location), all from
    one run: continuous, operator_integrals over [-radius, radius] to
    quad_tol; discrete, operator_sums' one walk to min(quad_tol, 1e-13).
    ``bank`` evaluates the f0s (``Rows`` for a continuous family), by default
    one by one."""
    if fam.is_discrete:
        bank = bank if bank is not None else _bank(f0s)
        values = operator_sums(fam, law, bank, len(f0s), min(quad_tol, 1e-13))
        default = DISCRETE_IDENTITY_TOL
    else:
        under = fam if law is None else law
        rows = bank if bank is not None else _rows(f0s)
        values = [r.value for r in operator_integrals(fam, law, rows, len(f0s), radius, quad_tol)]
        for j, f0 in enumerate(f0s):
            atom = fam.role.atom(fam, f0)
            if atom is not None:
                values[j] += atom.coefficient * under.pdf(atom.location)
        default = CONTINUOUS_IDENTITY_TOL
    label = fam.name if law is None else f"{fam.name}|under:{law.name}"
    return [
        IdentityCheck(family=label, role=fam.role.kind, test_function=f0.name,
                      expectation_value=value, tolerance=tol if tol is not None else default)
        for f0, value in zip(f0s, values)
    ]


def check_identity(fam: Family, f0: TestFunction, *, tol: float | None = None) -> IdentityCheck:
    """E[T(f0)(X)] = 0 under the family's own law, to the stated tolerance."""
    return _checks(fam, [f0], None, tol, config.QUAD.request_tol)[0]


def falsify_identity(
    fam: Family,
    f0: TestFunction,
    wrong_law: Family,
    *,
    tol: float | None = None,
    quad_tol: float = config.QUAD.request_tol,
) -> IdentityCheck:
    """Evaluate the family's operator under a different law of the same
    support; a nonzero expectation is falsification evidence."""
    return _checks(fam, [f0], wrong_law, tol, quad_tol)[0]


def perturbed_law(fam: Family) -> Family:
    """A different law on the same support, used for falsification evidence."""
    entry = FAMILIES.get(fam.name)
    if entry is None:
        raise UnsupportedRole(f"{fam.name} is not in the family table")
    return entry.perturb(fam)


# --------------------------------------------------------------------------
# Built-in test function family.

# The Hermite polynomials H_1 .. H_n (times the same bump) that join the
# identity suite of a continuous (family id, role kind) pair.
HERMITE_EXTRAS: dict[tuple[str, str], int] = {("gaussian", "location"): 3}

DEGREE = 4  # the builtin polynomials are x^0, ..., x^DEGREE


def _builtin_suite(fam: Family) -> tuple[list[TestFunction], Bank | Rows, float]:
    """The builtin test functions, a bank that evaluates them together: for
    a continuous family its operator ``Rows``, with the bump's value and
    slope from one exp per node, x^k and k x^(k-1), then H_n and n H_(n-1),
    by recurrence; for a discrete family, whose walk reads f0 alone, the
    bump and x^k only; and the bump's radius in y, outside which every one
    of them vanishes."""
    radius = bulk_radius(fam) + 2.0
    window = bump(radius)
    orders = HERMITE_EXTRAS.get((fam.name, fam.role.kind), 0)
    f0s = [product(polynomial([0.0] * k + [1.0], name=f"x^{k}"), window) for k in range(DEGREE + 1)]
    f0s.extend(product(hermite_test_function(n), window) for n in range(1, orders + 1))
    b_h, b_terms = window.h, bump_terms(radius)

    def values(y: float) -> list[float] | None:
        b = b_h(y)
        if b == 0.0:
            return None
        hs = []
        power = 1.0  # y^k
        for _ in range(DEGREE + 1):
            hs.append(power * b)
            power *= y
        return hs

    def rows(y: float, terms: BaseTerms, w: float, j: float) -> list[float] | None:
        b, bp = b_terms(y)
        if b == 0.0:
            return None  # the bump's derivative vanishes with it
        dy, phi = terms(y)
        row = []
        power, slope = 1.0, 0.0  # y^k and k y^(k-1)
        for k in range(1, DEGREE + 2):
            row.append(((slope * b + power * bp) * dy + power * b * phi) * w * j)
            power, slope = power * y, k * power
        value, below = y, 1.0  # H_n and H_(n-1)
        for n in range(1, orders + 1):
            row.append(((n * below * b + value * bp) * dy + value * b * phi) * w * j)
            value, below = y * value - n * below, value
        return row

    return f0s, values if fam.is_discrete else rows, radius


def builtin_test_functions(fam: Family) -> list[TestFunction]:
    """Polynomials x^k (k <= 4) times a smooth bump covering the family's
    bulk, then the family/role's HERMITE_EXTRAS times the same bump.

    Operators evaluate f0 in base coordinates (x - mu0, sigma0 * x, or the
    skew image), so the bump is centred at y = 0 and sized from the bulk
    radius, which reads the base tails at +-r.
    """
    return _builtin_suite(fam)[0]


def identity_suite(fam: Family, *, tol: float | None = None, law: Family | None = None,
                   quad_tol: float = config.QUAD.request_tol) -> list[IdentityCheck]:
    """The identity checks of every builtin test function, under the family's
    own law or, for falsification evidence, under ``law``.  A continuous
    family's checks come from one vector quadrature to quad_tol; ``tol`` is
    the pass/fail threshold."""
    f0s, bank, radius = _builtin_suite(fam)
    return _checks(fam, f0s, law, tol, quad_tol, bank, radius)


# --------------------------------------------------------------------------
# Scenarios.


class Scenario(NamedTuple):
    """One (family, role, test function) cell of the verification matrix.

    law_value, when set, makes the identity checks evaluate the operator
    under the same family at that parameter instead of the operator's own:
    a deliberately wrong parameter that the checks are expected to expose.
    """

    scenario_id: str
    family: str
    kind: str
    value: float
    structural: tuple[tuple[str, float], ...] = ()
    test_function: str | tuple[float, ...] = "linear"
    identity_tol: float | None = None
    law_value: float | None = None

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Scenario":
        role = raw["role"]
        tf_spec = raw.get("test_function", {"name": "linear"})
        if "name" in tf_spec:
            tf: str | tuple[float, ...] = str(tf_spec["name"])
        else:
            tf = tuple(float(c) for c in tf_spec["coefficients"])
        known = {"id", "family", "role", "test_function", "tolerances", "law"}
        structural = tuple(
            sorted((k, float(v)) for k, v in raw.items() if k not in known)
        )
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise TypeError(f"tolerances must be an object, got {tolerances!r}")
        identity_tol = tolerances.get("identity")
        if identity_tol is not None:
            identity_tol = float(identity_tol)
            if not 0 < identity_tol < math.inf:
                raise ValueError(f"tolerances.identity must be finite and > 0, got {identity_tol}")
        law = raw.get("law", {})
        return cls(
            scenario_id=str(raw["id"]),
            family=str(raw["family"]),
            kind=str(role["kind"]),
            value=float(role["value"]),
            structural=structural,
            test_function=tf,
            identity_tol=identity_tol,
            law_value=float(law["value"]) if "value" in law else None,
        )

    def build_family(self) -> Family:
        return make_family(self.family, self.kind, self.value, **dict(self.structural))

    def build_law(self) -> Family | None:
        if self.law_value is None:
            return None
        return make_family(self.family, self.kind, self.law_value, **dict(self.structural))

    def build_test_function(self) -> TestFunction:
        if isinstance(self.test_function, str):
            return named_test_function(self.test_function)
        return polynomial(self.test_function)


def run_scenario(scenario: Scenario, *, tol: float = config.QUAD.request_tol,
                 laws: Laws | None = None, with_report: bool = True) -> ScenarioResult:
    """Build the scenario, reject a family/role pair with no score
    (``require_score``) before any quadrature, run its identity checks to
    quadrature tolerance tol (under the deliberately wrong law when it names
    one), then, ``with_report``, its bound report (else ``report`` stays
    None).  A SCENARIO_ERRORS exception anywhere becomes the result's error,
    so a matrix always completes.  What depends on the law alone, its
    identity suite included, comes from ``laws`` when given."""
    laws = laws or Laws()
    started = time.perf_counter()
    try:
        fam = scenario.build_family()
        h = scenario.build_test_function()
        law = scenario.build_law()
        require_score(fam)
        threshold = scenario.identity_tol
        key = ("suite", family_spec(fam), None if law is None else family_spec(law), threshold, tol)
        checks = laws.once(key, lambda: tuple(identity_suite(fam, tol=threshold, law=law, quad_tol=tol)))
        report = bound_report(fam, h, tol=tol, laws=laws) if with_report else None
        return ScenarioResult(scenario.scenario_id, report, checks,
                              wall_time=time.perf_counter() - started)
    except SCENARIO_ERRORS as exc:
        return ScenarioResult(scenario.scenario_id, None, (), wall_time=time.perf_counter() - started,
                              error=f"{type(exc).__name__}: {exc}")


def run_laws(scenarios: Sequence[Scenario], *, tol: float = config.QUAD.request_tol,
             with_report: bool = True) -> list[ScenarioResult]:
    """``run_scenario`` of each scenario, in order, sharing one ``Laws``
    memo: a law's identity suite, score profile and exchanging pair are
    computed once however many scenarios it has.  Each result equals the
    scenario's run alone."""
    laws = Laws()
    return [run_scenario(s, tol=tol, laws=laws, with_report=with_report) for s in scenarios]


def builtin_scenarios() -> list[Scenario]:
    """The default verification matrix used by the CLI and the test suite."""
    return [
        Scenario("gauss-loc-h-linear", "gaussian", "location", 0.0),
        Scenario("gauss-sca-h-square", "gaussian", "scale", 1.0, test_function="square"),
        Scenario("gauss-skew-h-linear", "sas-gaussian", "skew", 0.0),
        Scenario("exp-sca-h-linear", "exponential", "scale", 1.0),
        Scenario("exp-sca-h-sqrt", "exponential", "scale", 1.0, test_function="sqrt"),
        Scenario("gamma3-sca-h-linear", "gamma", "scale", 1.0, structural=(("shape", 3.0),)),
        Scenario("gamma3-loc-h-linear", "gamma", "location", 0.0, structural=(("shape", 3.0),)),
        Scenario("gamma1.5-loc-h-linear", "gamma", "location", 0.0, structural=(("shape", 1.5),)),
        Scenario("poisson2-h-linear", "poisson", "theta", 2.0),
        Scenario("poisson1-h-square", "poisson", "theta", 1.0, test_function="square"),
        Scenario("geometric-h-linear", "geometric", "theta", 0.25),
        Scenario("binomial4-h-linear", "binomial", "theta", 0.5, structural=(("n", 4.0),)),
    ]


# --------------------------------------------------------------------------
# Report serialization (schema shared with the CLI).


def _number(x: float) -> float | str:
    return "inf" if math.isinf(x) else x


def result_to_dict(result: ScenarioResult) -> dict[str, Any]:
    """Project a ScenarioResult onto the machine report schema: every row has
    its scenario and identity checks (none for an error row), the error when
    one is set, and the report's fields when it has a report.

    Deliberately excludes wall_time so that repeated runs are byte-identical.
    """
    row: dict[str, Any] = {
        "scenario": result.scenario_id,
        "identity_checks": [
            {"f0": c.test_function, "value": c.expectation_value, "pass": c.passed}
            for c in result.identity_checks
        ],
    }
    if result.error is not None:
        row["error"] = result.error
    rep = result.report
    if rep is not None:
        row.update(
            lower=_number(rep.lower),
            variance=_number(rep.variance_truth),
            upper=_number(rep.upper),
            flags=list(rep.flags),
            comparators=[
                {"name": c.name, "kind": c.kind, "value": _number(c.value)} for c in rep.comparators
            ],
        )
    return row
