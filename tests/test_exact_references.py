"""Reported values against exact references, with the error measured in ulps.

Every float is a rational number, so moments of the gamma and exponential
laws (rising factorials over rate^k) and their Fisher informations have exact
values in the scenario's own floats; ``fractions.Fraction`` computes them.
The exponential h = sqrt chain needs pi, taken as the float ``math.pi``.  The
identity suites under another law have no closed form: their references
are 40-digit mpmath quadratures of the same integrals in y, hard-coded.

Each path class has an ulp budget: the largest error seen, rounded up to a
power of two with room to spare.  A case that misses its budget is a finding,
not a reason to loosen it.
"""

import math
from fractions import Fraction

import pytest

from steinb.bounds import bound_report, ground_truth_variance
from steinb.families import Location, Scale, expectation, exponential, gamma, linear, sqrt_fn
from steinb.harness import builtin_scenarios, identity_suite, run_scenario
from steinb.operators import score_profile

F = Fraction


def ulps(got: float, exact: Fraction) -> float:
    """|got - exact| in units of the last place of exact rounded to a float."""
    return float(abs(F(got) - exact) / F(math.ulp(float(exact))))


def rising(a: Fraction, k: int) -> Fraction:
    out = F(1)
    for j in range(k):
        out *= a + j
    return out


def gamma_moment(a: Fraction, rate: Fraction, mu: Fraction, k: int) -> Fraction:
    """E[(Y/rate + mu)^k] for Y ~ Gamma(a): the shifted rising factorials."""
    return sum(math.comb(k, j) * mu ** (k - j) * rising(a, j) / rate**j for j in range(k + 1))


# (label, family, shape, rate, shift): exponential is shape 1.
LAWS = [
    ("exp-sca1", exponential(Scale(1.0)), F(1), F(1), F(0)),
    ("exp-sca1.5", exponential(Scale(1.5)), F(1), F(3, 2), F(0)),
    ("gamma3-sca1", gamma(Scale(1.0), shape=3.0), F(3), F(1), F(0)),
    ("gamma3-sca2", gamma(Scale(2.0), shape=3.0), F(3), F(2), F(0)),
    ("gamma1.5-sca1", gamma(Scale(1.0), shape=1.5), F(3, 2), F(1), F(0)),
    ("gamma0.5-sca1", gamma(Scale(1.0), shape=0.5), F(1, 2), F(1), F(0)),
    ("gamma1.5-loc0", gamma(Location(0.0), shape=1.5), F(3, 2), F(1), F(0)),
    ("gamma3-loc0.5", gamma(Location(0.5), shape=3.0), F(3), F(1), F(1, 2)),
]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("label,fam,a,rate,mu", LAWS, ids=[law[0] for law in LAWS])
def test_moments(label, fam, a, rate, mu, k):
    # Seen: at most 3 ulps.
    got = expectation(fam, lambda x: x**k)
    assert ulps(got, gamma_moment(a, rate, mu, k)) <= 8


@pytest.mark.parametrize(
    "fam,exact",
    [
        (exponential(Scale(1.0)), F(1)),                     # 1/lambda^2
        (exponential(Scale(1.5)), 1 / F(3, 2) ** 2),
        (gamma(Scale(1.0), shape=3.0), F(3)),                # a/sigma0^2
        (gamma(Scale(2.0), shape=3.0), F(3, 4)),
        (gamma(Scale(1.0), shape=1.5), F(3, 2)),
        (gamma(Location(0.0), shape=3.0), F(1)),             # 1/(a - 2)
        (gamma(Location(0.0), shape=4.5), F(2, 5)),
    ],
    ids=["exp-sca1", "exp-sca1.5", "gamma3-sca1", "gamma3-sca2", "gamma1.5-sca1", "gamma3-loc0",
         "gamma4.5-loc0"],
)
def test_fisher_information(fam, exact):
    # Seen: at most 3.6 ulps.
    assert ulps(score_profile(fam).fisher, exact) <= 8


@pytest.mark.parametrize(
    "scenario",
    [s for s in builtin_scenarios()
     if s.family in ("gamma", "exponential") and s.test_function == "linear"],
    ids=lambda s: s.scenario_id,
)
def test_variance_of_the_identity(scenario):
    # Var X = a / rate^2, the same under location; seen: at most 4 ulps.
    fam = scenario.build_family()
    a = F(dict(fam.structural).get("shape", 1.0))
    rate = F(fam.role.sigma0) if fam.role.kind == "scale" else F(1)
    assert ulps(ground_truth_variance(fam, linear()), a / rate**2) <= 8


@pytest.mark.parametrize("lam", [1.0, 1.5])
def test_exponential_sqrt_chain(lam):
    # pi/16 <= 1 - pi/4 <= 1/4 at rate 1, each over lambda at rate lambda.
    # Seen: at most 8 ulps (the variance, E[X]/lambda - E[sqrt X]^2).
    rep = bound_report(exponential(Scale(lam)), sqrt_fn())
    pi, rate = F(math.pi), F(lam)
    assert ulps(rep.lower, pi / 16 / rate) <= 16
    assert ulps(rep.variance_truth, (1 - pi / 4) / rate) <= 16
    assert ulps(rep.upper, 1 / (4 * rate)) <= 16


# The builtin suite of each family under the law at a moved parameter: the
# x^0 ... x^4 bump integrals of T(f0) g_law in y, by 40-digit mpmath
# quadrature over the law's support in y (the same on 16 and 40 panels).
WRONG_LAW_ORACLES = [
    (gamma(Location(0.0), shape=1.5), gamma(Location(0.25), shape=1.5),
     ("0.54525488637067849529", "0.24944972697958436441", "0.18617115799623838408",
      "0.26101404622052199928", "0.61591949798059919756")),
    (gamma(Location(0.0), shape=3.0), gamma(Location(0.25), shape=3.0),
     ("0.16536624765535536638", "0.24738447006373565847", "0.55172133648088308032",
      "1.710524995285696716", "6.8856741741137708722")),
    (gamma(Scale(1.0), shape=3.0), gamma(Scale(1.25), shape=3.0),
     ("0.58857148092847317367", "1.8647771316021629915", "7.3683900783282336237",
      "34.852552699882006813", "191.81783352691608664")),
    (gamma(Scale(1.0), shape=1.5), gamma(Scale(1.25), shape=1.5),
     ("0.29649207287165628934", "0.58727815865995218714", "1.6235341617228937768",
      "5.7514137046181024039", "24.811393262785874792")),
]


@pytest.mark.parametrize(
    "fam,law,oracles", WRONG_LAW_ORACLES,
    ids=["gamma1.5-loc|0.25", "gamma3-loc|0.25", "gamma3-sca|1.25", "gamma1.5-sca|1.25"],
)
def test_identity_suite_under_another_law(fam, law, oracles):
    # Seen: at most 16.4 ulps (x^4*bump); ungraded, 520 ulps at shape 1.5.
    checks = identity_suite(fam, law=law)
    assert len(checks) == len(oracles)
    for check, oracle in zip(checks, oracles):
        assert ulps(check.expectation_value, F(oracle)) <= 32, check.test_function


# The builtin continuous reports against their exact values.  The paper's
# bounds are equalities for a linear h under the gaussian and gamma laws,
# and the comparators have closed forms; gamma1.5-loc's lower bound is the
# vacuous 0 (its Fisher information diverges).
PI = F(math.pi)
REPORT_REFERENCES = {
    "gauss-loc-h-linear": {"lower": F(1), "variance": F(1), "upper": F(1),
                           "chernoff_lower": F(1), "chernoff_upper": F(1)},
    "gauss-sca-h-square": {"lower": F(2), "variance": F(2)},
    "exp-sca-h-linear": {"lower": F(1), "variance": F(1), "upper": F(1), "cacoullos_upper": F(1),
                         "klaassen_exp_upper": F(4), "exp_rewrite_upper": F(1)},
    "exp-sca-h-sqrt": {"lower": PI / 16, "variance": 1 - PI / 4, "upper": F(1, 4)},
    "gamma3-sca-h-linear": {"lower": F(3), "variance": F(3), "upper": F(3), "klaassen_gamma_lower": F(3)},
    "gamma3-loc-h-linear": {"lower": F(1), "variance": F(3), "upper": F(6), "klaassen_gamma_lower": F(3)},
    "gamma1.5-loc-h-linear": {"variance": F(3, 2), "upper": F(15, 2), "klaassen_gamma_lower": F(3, 2)},
}
# Ulp budget per path class.  Seen: lower 2, variance 8 (exp-sca-h-sqrt),
# upper 2, comparators 4, both with each expectation integrated alone and
# with a report's expectations on one shared mesh.
REPORT_BUDGETS = {"lower": 4, "variance": 16, "upper": 4}
COMPARATOR_BUDGET = 8


@pytest.mark.parametrize("scenario", [s for s in builtin_scenarios() if s.scenario_id in REPORT_REFERENCES],
                         ids=lambda s: s.scenario_id)
def test_builtin_report(scenario):
    rep = run_scenario(scenario).report
    got = {"lower": rep.lower, "variance": rep.variance_truth, "upper": rep.upper}
    got.update((c.name, c.value) for c in rep.comparators)
    for name, exact in REPORT_REFERENCES[scenario.scenario_id].items():
        assert ulps(got[name], exact) <= REPORT_BUDGETS.get(name, COMPARATOR_BUDGET), name
