import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from steinb import families, harness
from steinb.cli import load_scenarios
from steinb.families import (
    DiscreteFamily,
    Location,
    ONE,
    Scale,
    SkewSAS,
    binomial,
    bulk_radius,
    expectation,
    exponential,
    gamma,
    gaussian,
    geometric,
    linear,
    UnsupportedRole,
    make_family,
    poisson,
    sas_gaussian,
    sas_transform,
    sqrt_fn,
    square,
)
from steinb.harness import (
    DivergentMoment,
    Scenario,
    _bank,
    _rows,
    _builtin_suite,
    builtin_scenarios,
    builtin_test_functions,
    check_identity,
    falsify_identity,
    ground_truth_variance,
    identity_suite,
    operator_integrals,
    operator_sums,
    perturbed_law,
    result_to_dict,
    run_scenario,
)
from steinb.numerics import NonConvergence, sum_series
from steinb.operators import make_operator
from steinb.vectorquad import integrate_vector
from x_space_reference import x_space_score

REPO = Path(__file__).resolve().parent.parent

ALL_FAMILIES = [
    gaussian(Location(0.0)),
    gaussian(Scale(1.0)),
    sas_gaussian(0.0),
    exponential(Location(0.0)),
    exponential(Scale(1.5)),
    gamma(Scale(1.0), shape=3.0),
    gamma(Location(0.0), shape=3.0),
    poisson(1.0),
    geometric(0.25),
    binomial(4, 0.5),
]


class TestCheckIdentity:
    def test_gaussian_location_linear(self):
        check = check_identity(gaussian(Location(0.0)), linear())
        assert abs(check.expectation_value) < 1e-10
        assert check.passed and check.tolerance == 1e-8

    def test_exponential_scale_constant(self):
        check = check_identity(exponential(Scale(1.0)), ONE)
        assert abs(check.expectation_value) < 1e-10

    def test_poisson_constant(self):
        check = check_identity(poisson(1.0), ONE)
        assert abs(check.expectation_value) < 1e-10
        assert check.tolerance == 1e-9

    def test_exponential_location_with_vanishing_atom(self):
        check = check_identity(exponential(Location(0.0)), linear())
        assert abs(check.expectation_value) < 1e-10

    def test_exponential_location_atom_contributes(self):
        # with f0 = 1 the atom carries weight -1; the identity only balances
        # because the expectation routine adds it back
        check = check_identity(exponential(Location(0.0)), ONE)
        assert abs(check.expectation_value) < 1e-10


def _sweep_scenarios():
    """(seed, scenario) for every sweep-mixed scenario of seeds 1-3, from the
    benchmark's own generator."""
    sweep = importlib.util.spec_from_file_location("perfbench_sweep", REPO / "perfbench" / "sweep.py")
    module = importlib.util.module_from_spec(sweep)
    sweep.loader.exec_module(module)
    return [(seed, Scenario.from_dict(item["scenario"])) for seed in (1, 2, 3) for item in module.generate(seed)]


def _parity_scenarios():
    scenarios = builtin_scenarios() + load_scenarios(REPO / "scripts" / "scenarios_demo.jsonl")
    return scenarios + [scenario for _, scenario in _sweep_scenarios()]


def _target(result):
    return max(1e-12, 100 * 2.0**-52 * result.mass)


# dy/dtheta as a function of x and theta0 under each continuous role.
X_SPACE_DY_DTHETA = {
    "location": lambda x, theta0: -1.0,
    "scale": lambda x, theta0: x,
    "skew": lambda x, theta0: sas_transform(x, theta0)[1],
}


def _x_space_terms(fam):
    """x -> (y, dy/dtheta, phi(x)) at theta0, or None off the support, with
    phi the x-space score as first written: the terms the operator was first
    built on."""
    role = fam.role
    theta0, phi, dy_dtheta = role.value, x_space_score(fam)[0], X_SPACE_DY_DTHETA[role.kind]
    lo, hi = fam.base_support.lo, fam.base_support.hi

    def terms(x):
        y = role.to_base(x, theta0)
        if y < lo or y > hi:
            return None
        dy = dy_dtheta(x, theta0)
        if dy == 0.0:
            # Only at x = 0 under scale, where phi = 1/sigma0.
            return y, dy, 1.0 / theta0
        return y, dy, phi(x)

    return terms


def _x_space_operator_integrals(fam, law, f0s):
    """The suites' quadrature before it moved to base coordinates, kept as the
    reference: T(f0) g_law integrated in x over the law's whole support, with
    the x-space terms of ``_x_space_terms``, each f0 evaluated on its own."""
    n = len(f0s)
    terms = _x_space_terms(fam)
    pdf = law.pdf
    zeros = [0.0] * n

    def integrand(x):
        w = pdf(x)
        if w == 0.0:
            return zeros
        t = terms(x)
        if t is None:
            return zeros
        y, dy, phi = t
        return [(f0.h_prime(y) * dy + f0.h(y) * phi) * w for f0 in f0s]

    return integrate_vector(integrand, n, law.support)


def _law_runs(scenario, fam):
    """(law, checks): the suite under the family's own law (None), under the
    same family at a moved parameter (a scenario's ``law``), and under its
    falsification law where it has one."""
    yield None, identity_suite(fam, tol=scenario.identity_tol)
    moved = scenario._replace(law_value=fam.role.value + 0.25)
    yield moved.build_law(), run_scenario(moved, with_report=False).identity_checks
    try:
        wrong = perturbed_law(fam)
    except UnsupportedRole:
        return
    yield wrong, identity_suite(fam, tol=scenario.identity_tol, law=wrong)


# Exact values of the law runs where the x-space reference misses its target,
# keyed by scenario, f0 and the law's role (40-digit mpmath quadrature of the
# same integral in y, the same on 16 and 40 panels of the bump's window).
LAW_RUN_ORACLES = {
    ("sas-gaussian-skew-002", "x^3*bump(R=7.73073)", SkewSAS(-0.695951 + 0.7)): -53.13836247649513533,
    ("sas-gaussian-skew-002", "x^4*bump(R=7.73073)", SkewSAS(-0.695951 + 0.7)): 212.6259509398148307,
}


def test_base_coordinates_match_the_x_space_reference():
    # The suites integrate in the base coordinate y over the bump's window,
    # the reference in x over the law's whole support.  They approximate the
    # same integrals: under every law they agree within the sum of both
    # runs' targets max(tol, 100 eps mass), and no check passes on one path
    # and fails on the other.  Where they do not agree, the reference missed
    # its own target and the suite did not, measured from the exact value:
    # 0 under the family's own law, LAW_RUN_ORACLES under another.
    compared, reference_misses = 0, []
    for scenario in _parity_scenarios():
        fam = scenario.build_family()
        if fam.is_discrete:
            continue  # TestDiscreteWalk compares the discrete suites
        f0s, bank, radius = _builtin_suite(fam)
        for law, checks in _law_runs(scenario, fam):
            under = fam if law is None else law
            atoms = [fam.role.atom(fam, f0) for f0 in f0s]
            atom_mass = [0.0 if a is None else a.coefficient * under.pdf(a.location) for a in atoms]
            suite = operator_integrals(fam, law, bank, len(f0s), radius)
            reference = _x_space_operator_integrals(fam, under, f0s)
            assert [c.expectation_value for c in checks] == [r.value + m for r, m in zip(suite, atom_mass)]
            for f0, check, new, old, extra in zip(f0s, checks, suite, reference, atom_mass):
                where = (scenario.scenario_id, f0.name, under.role, dict(under.structural))
                assert check.passed == (abs(old.value + extra) <= check.tolerance), where
                compared += 1
                if abs(new.value - old.value) <= _target(new) + _target(old):
                    continue
                if law is None:
                    exact = -extra
                else:
                    key = (scenario.scenario_id, f0.name, under.role)
                    assert key in LAW_RUN_ORACLES, where
                    exact = LAW_RUN_ORACLES[key]
                assert abs(new.value - exact) <= _target(new) < abs(old.value - exact) - _target(old), where
                reference_misses.append(where)
    assert compared > 5_000
    # Seen: gamma-location-013 (seed 1) under its own law, whose x - mu0
    # cancels near the edge, and sas-gaussian-skew-002 (seed 1), x^3*bump and
    # x^4*bump under its falsification law.
    assert len(reference_misses) <= 3, reference_misses


@pytest.mark.parametrize("fam,base_law", [
    (exponential(Scale(4.0)), stats.expon()),
    (gaussian(Scale(3.9), sigma=3.0), stats.norm(scale=3.0)),
    (sas_gaussian(1.0), stats.norm()),
    (sas_gaussian(-1.0), stats.norm()),
], ids=["exponential-scale-4", "gaussian-scale-3.9", "skew+1", "skew-1"])
def test_builtin_bump_leaves_at_most_1e8_of_the_base_mass_outside(fam, base_law):
    # The operators evaluate f0 at y, so the bump's window [-R, R] is a
    # window in y; oracle: scipy's tails of the base law g0.
    radius = _builtin_suite(fam)[2]
    assert base_law.sf(radius) + base_law.cdf(-radius) <= 1e-8


def test_single_checks_are_one_component_runs():
    # check_identity and falsify_identity take the suite's path with n = 1,
    # over the whole base support (a single f0 has no known window).
    for fam in ALL_FAMILIES:
        if fam.is_discrete:
            continue
        law = perturbed_law(fam) if fam.role.atom(fam, ONE) is None else fam
        for f0 in builtin_test_functions(fam)[:2] + [linear()]:
            atom = fam.role.atom(fam, f0)
            for check, under in ((check_identity(fam, f0), None), (falsify_identity(fam, f0, law), law)):
                extra = 0.0 if atom is None else atom.coefficient * (under or fam).pdf(atom.location)
                assert check.expectation_value == operator_integrals(fam, under, _rows([f0]), 1)[0].value + extra


def test_identity_values_near_a_support_edge_keep_their_digits():
    # sweep-mixed seed 1 gamma-location-013: in x, the quadrature near the
    # edge at mu0 = 4.241574 computed x - mu0 with few digits left, and
    # x^0*bump read 3.0e-12.  In base coordinates the edge sits at y = 0.
    scenario = Scenario("gamma-location-013", "gamma", "location", 4.241574, structural=(("shape", 1.75359),))
    checks = run_scenario(scenario, with_report=False).identity_checks
    assert checks[0].test_function == "x^0*bump(R=22.8274)"
    assert max(abs(c.expectation_value) for c in checks) <= 1e-13


# Discrete laws whose mass sits far from 0: a discrete operator that kept a
# factor 1/g(0; theta0) (e^theta for Poisson) read |E| of 1.6e4, 7.9e13 and
# 2.3e77 at Poisson rates 38, 60 and 200.
FAR_FROM_THE_ORIGIN = [
    poisson(38.0), poisson(60.0), poisson(200.0), binomial(86, 0.05), geometric(0.05), geometric(0.95),
]


@pytest.mark.parametrize("fam", ALL_FAMILIES + FAR_FROM_THE_ORIGIN, ids=lambda f: f"{f.name}-{f.role}")
def test_identity_suite_passes(fam):
    checks = identity_suite(fam)
    assert len(checks) >= 5
    for check in checks:
        assert check.passed, (check.test_function, check.expectation_value)


# Binomial sweep-mixed scenarios whose x^4*bump check misses the fixed 1e-9
# by rounding alone: x^4*bump reaches about 1e8 on their support, so a
# threshold scaled by the |T f0| g mass would judge them.
BINOMIAL_ROUNDING_MISSES = {
    (1, "binomial-theta-000"), (1, "binomial-theta-008"), (1, "binomial-theta-013"),
    (2, "binomial-theta-002"), (2, "binomial-theta-009"),
    (3, "binomial-theta-000"), (3, "binomial-theta-011"),
}


def test_discrete_sweep_identity_checks():
    # Every Poisson and geometric scenario of sweep-mixed seeds 1-3 passes,
    # every binomial check is within 1e-7, and a binomial check that misses
    # 1e-9 is x^4*bump of a scenario listed above.
    misses, discrete = set(), 0
    for seed, scenario in _sweep_scenarios():
        if scenario.kind != "theta":
            continue
        discrete += 1
        result = run_scenario(scenario, with_report=False)
        assert result.error is None and len(result.identity_checks) == 5, (seed, scenario.scenario_id)
        for check in result.identity_checks:
            where = (seed, scenario.scenario_id, check.test_function, check.expectation_value)
            if scenario.family != "binomial":
                assert check.passed, where
                continue
            assert abs(check.expectation_value) < 1e-7, where
            if not check.passed:
                assert check.test_function.startswith("x^4*bump"), where
                misses.add((seed, scenario.scenario_id))
    assert discrete == 153
    assert misses <= BINOMIAL_ROUNDING_MISSES, misses - BINOMIAL_ROUNDING_MISSES


@pytest.mark.parametrize(
    "fam",
    ALL_FAMILIES + [gaussian(Location(1.0), sigma=2.0), make_family("gaussian", "skew", 0.2)],
    ids=lambda f: f"{f.name}-{f.role}",
)
def test_hermite_extras_only_for_gaussian_location(fam):
    names = [f0.name for f0 in builtin_test_functions(fam)]
    hermite = [n for n in names if n.startswith("hermite")]
    expected = 3 if (fam.name, fam.role.kind) == ("gaussian", "location") else 0
    assert len(names) == 5 + expected
    assert len(hermite) == expected


class TestFalsification:
    def test_gaussian_wrong_variance_detected(self):
        # the location operator of the standard normal, tested under a
        # variance-2 normal: E[-1 + X^2] = 1
        fam = gaussian(Location(0.0))
        check = falsify_identity(fam, linear(), perturbed_law(fam))
        assert check.expectation_value == pytest.approx(1.0, abs=1e-9)
        assert not check.passed

    def test_poisson_wrong_rate_detected(self):
        # g(0; 1) = e^-1 times the defining quotient's -e
        check = falsify_identity(poisson(1.0), ONE, poisson(2.0))
        assert check.expectation_value == pytest.approx(-1.0, abs=1e-10)

    def test_same_law_control(self):
        for fam in ALL_FAMILIES:
            f0 = builtin_test_functions(fam)[1]
            control = falsify_identity(fam, f0, fam)
            assert control.passed, fam.name

    @pytest.mark.parametrize("fam", ALL_FAMILIES, ids=lambda f: f"{f.name}-{f.role}")
    def test_perturbed_law_detected(self, fam):
        wrong = perturbed_law(fam)
        strongest = max(
            abs(falsify_identity(fam, f0, wrong).expectation_value)
            for f0 in builtin_test_functions(fam)
        )
        tolerance = 1e-9 if fam.is_discrete else 1e-8
        assert strongest > 10 * tolerance


def _outcome(run):
    """What a call ends in: its value, or the type and text of its exception."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


# A test function that vanishes past k = 2: its operator terms go quiet long
# before those of the builtin polynomials.
EARLY = families.TestFunction("early", lambda x: 1.0 / (1.0 + x) if x <= 2 else 0.0, lambda x: 0.0)


class TestDiscreteWalk:
    """A discrete family's suite is one walk over k; each of its components
    must end exactly as the operator's own series under the same law does."""

    @pytest.mark.parametrize("fam", [poisson(2.5), geometric(0.3), binomial(12, 0.4), poisson(800.0)],
                             ids=lambda f: f"{f.name}-{f.role.theta0:g}")
    @pytest.mark.parametrize("perturbed", [False, True], ids=["own-law", "perturbed-law"])
    def test_each_component_ends_as_summed_alone(self, fam, perturbed):
        law = perturbed_law(fam) if perturbed else None
        under = law or fam
        builtin, bank, _ = _builtin_suite(fam)
        tol = 1e-13
        for f0s, walk_bank in ((builtin, bank), ([EARLY, *builtin], _bank([EARLY, *builtin]))):
            alone = [_outcome(lambda f0=f0: expectation(under, make_operator(fam, f0), tol)) for f0 in f0s]
            walked = _outcome(lambda: operator_sums(fam, law, walk_bank, len(f0s), tol))
            failed = [o for o in alone if isinstance(o, tuple)]
            assert walked == (failed[0] if failed else alone)
        if fam.role.theta0 == 800.0:
            assert walked == (ZeroDivisionError, "float division by zero")

    def test_a_poisson_suite_evaluates_the_pmf_once_per_k(self, monkeypatch):
        calls, walked = [0], [0]

        def pmf_fn(x, theta):
            calls[0] += 1
            return math.exp(-theta + x * math.log(theta) - math.lgamma(x + 1))

        def counting_sum_series(f, *args, **kwargs):
            def counted(k):
                walked[0] += 1
                return f(k)
            return sum_series(counted, *args, **kwargs)

        base = poisson(3.0)
        fam = DiscreteFamily(base.name, base.role, base.support_max, pmf_fn, base.exchange_fn,
                             base.score_fn, base.theta_domain, base.structural, base.mode)
        bulk_radius(fam)  # the bump's radius sums the pmf too; cached from here on
        monkeypatch.setattr(families, "sum_series", counting_sum_series)
        calls[0] = 0
        checks = identity_suite(fam)
        assert len(checks) == 5 and all(c.passed for c in checks)
        # g(0), then g(k + 1) at every k walked; five series of g(k), g(k + 1)
        # and the weight took 15 per k.
        assert walked[0] > 64 and calls[0] == walked[0] + 1

    def test_a_discrete_suite_evaluates_no_derivative(self, monkeypatch):
        # The walk reads f0(j) alone; the builtin bank computes the bump's
        # slope only when it is read, as a continuous suite's rows do (with
        # the bump's value, from one exp).
        reads = []

        def counting_bump(radius):
            window = families.bump(radius)

            def b_prime(y):
                reads.append(y)
                return window.h_prime(y)

            return window._replace(h_prime=b_prime)

        def counting_bump_terms(radius):
            terms = families.bump_terms(radius)

            def value_and_slope(y):
                reads.append(y)
                return terms(y)

            return value_and_slope

        monkeypatch.setattr(harness, "bump", counting_bump)
        monkeypatch.setattr(harness, "bump_terms", counting_bump_terms)
        assert all(c.passed for c in identity_suite(poisson(3.0)))
        assert reads == []
        assert all(c.passed for c in identity_suite(gaussian(Location(0.0))))
        assert reads


class TestGroundTruth:
    def test_gaussian_linear(self):
        assert ground_truth_variance(gaussian(Location(0.0)), linear()) == pytest.approx(
            1.0, abs=1e-11
        )

    def test_exponential_sqrt(self):
        # oracle: Var = E[X] - E[sqrt(X)]^2 = 1 - pi/4
        value = ground_truth_variance(exponential(Scale(1.0)), sqrt_fn())
        assert value == pytest.approx(1.0 - math.pi / 4.0, abs=1e-11)

    def test_poisson_square(self):
        # oracle: independent truncated series with exact rational terms
        lam = 1.0
        pmf = lambda x: math.exp(-lam + x * math.log(lam) - math.lgamma(x + 1))
        e4 = sum(x**4 * pmf(x) for x in range(80))
        e2 = sum(x**2 * pmf(x) for x in range(80))
        expected = e4 - e2 * e2
        value = ground_truth_variance(poisson(1.0), square())
        assert value == pytest.approx(expected, abs=1e-10)
        assert value == pytest.approx(11.0, abs=1e-10)

    def test_divergent_moment(self):
        heavy = lambda x: x ** (-0.75) if x > 0 else 0.0
        from steinb.families import TestFunction

        h = TestFunction("x^-3/4", heavy, lambda x: -0.75 * x**-1.75 if x > 0 else 0.0)
        with pytest.raises(DivergentMoment):
            ground_truth_variance(exponential(Scale(1.0)), h)

    @pytest.mark.parametrize("fam", [gamma(Location(3.035287), shape=9.840662), poisson(38.449775)],
                             ids=["gamma-location", "poisson"])
    def test_a_constant_has_variance_zero(self, fam):
        # sweep-mixed seed 1 gamma-location-001 and poisson-theta-006: for
        # h = 1, E[h^2] - E[h]^2 rounds to -1.8e-15 and -4.0e-15.
        second, first = expectation(fam, lambda x: 1.0), expectation(fam, lambda x: 1.0)
        assert second - first * first < 0.0
        assert ground_truth_variance(fam, ONE) == 0.0
        assert run_scenario(Scenario("one", fam.name, fam.role.kind, fam.role.value, fam.structural,
                                     "one")).report.variance_truth == 0.0


class TestScenarios:
    def test_builtin_ids_unique(self):
        ids = [s.scenario_id for s in builtin_scenarios()]
        assert len(ids) == len(set(ids))

    def test_roundtrip_through_dict(self):
        for scenario in builtin_scenarios():
            clone = Scenario.from_dict(scenario_to_dict(scenario))
            assert clone == scenario

    def test_run_scenario_deterministic(self):
        scenario = builtin_scenarios()[4]  # exp-sca-h-sqrt
        first = json.dumps(result_to_dict(run_scenario(scenario)), sort_keys=True)
        second = json.dumps(result_to_dict(run_scenario(scenario)), sort_keys=True)
        assert first == second

    def test_tolerance_halving_stability(self):
        scenario = builtin_scenarios()[5]  # gamma3-sca-h-linear
        rep1 = run_scenario(scenario, tol=1e-10).report
        rep2 = run_scenario(scenario, tol=5e-11).report
        for a, b in [
            (rep1.lower, rep2.lower),
            (rep1.variance_truth, rep2.variance_truth),
            (rep1.upper, rep2.upper),
        ]:
            assert b == pytest.approx(a, rel=1e-8)

    def test_failure_recorded_not_raised(self):
        bad = Scenario("exp-loc", "exponential", "location", 0.0)
        result = run_scenario(bad)
        assert result.report is None
        assert "UnsupportedRole" in result.error

    def test_checks_alone_match_run_scenario(self):
        for scenario in builtin_scenarios():
            alone, full = run_scenario(scenario, with_report=False), run_scenario(scenario)
            assert alone.report is None and alone.error is None
            assert alone.identity_checks == full.identity_checks

    def test_checks_alone_skip_a_failing_bound_report(self, monkeypatch):
        # A bound stage that fails makes run_scenario an error row; without
        # the report it never runs, so the identity checks converge, and pass.
        def failing_report(*args, **kwargs):
            raise NonConvergence("bound stage failed", 0.0, 1.0, 0)

        monkeypatch.setattr(harness, "bound_report", failing_report)
        scenario = Scenario("gamma1.75-loc", "gamma", "location", 4.242,
                            structural=(("shape", 1.754),))
        assert run_scenario(scenario).error == "NonConvergence: bound stage failed"
        checks = run_scenario(scenario, with_report=False)
        assert checks.error is None
        assert len(checks.identity_checks) == 5
        assert all(c.passed for c in checks.identity_checks)

    def test_divergent_fisher_near_a_shifted_edge_is_a_vacuous_lower_bound(self):
        # Shape 1.754 < 2, so the Fisher information diverges.  Its integral
        # runs in y, where the support edge sits at 0 whatever mu0 and the
        # divergence probe's shells keep their digits.
        scenario = Scenario("gamma1.75-loc", "gamma", "location", 4.242,
                            structural=(("shape", 1.754),))
        result = run_scenario(scenario)
        assert result.error is None
        assert result.report.lower == 0.0
        assert "vacuous-lower" in result.report.flags
        assert result.report.lower <= result.report.variance_truth <= result.report.upper

    def test_checks_alone_reject_a_role_without_score(self, count_cells):
        # The pair is rejected before its identity suite, so neither path
        # spends a quadrature cell on checks it would discard.
        for law_value in (None, 0.5):
            scenario = Scenario("exp-loc", "exponential", "location", 0.0, law_value=law_value)
            result = run_scenario(scenario, with_report=False)
            assert result.identity_checks == ()
            assert result.error.startswith("UnsupportedRole")
            assert result.error == run_scenario(scenario).error
        assert count_cells() == 0

    # Upper bounds on quadrature work, in GK15 cells of either kernel: the
    # counts when they were pinned.  Lower them when refinement gets
    # cheaper; never raise them silently.

    def test_builtin_matrix_gk15_cells(self, count_cells):
        for scenario in builtin_scenarios():
            run_scenario(scenario)
        assert count_cells() <= 758

    def test_builtin_identity_suite_gk15_cells(self, count_cells):
        # One shared mesh per suite, in base coordinates over the bump's
        # window graded toward its support edge; ungraded it took 316 cells,
        # over the law's support in x 432, and at one run per test function
        # 1,434.
        for scenario in builtin_scenarios():
            run_scenario(scenario, with_report=False)
        assert count_cells() <= 156

    def test_edge_factors_cost_no_cascade(self, count_cells):
        # y^(1/2) g0 at the edge of the gamma shape-1.5 suite and x^(-1/2) in
        # the exponential E[h'] for h = sqrt: 174 and 202 cells before the
        # maps were graded toward the support edge.
        scenario = Scenario("gamma1.5-loc", "gamma", "location", 0.0, structural=(("shape", 1.5),))
        run_scenario(scenario, with_report=False)
        assert count_cells() <= 14
        families.expectation_or_inf(exponential(Scale(1.0)), sqrt_fn().h_prime)
        assert count_cells() <= 14 + 10

    def test_wall_time_not_serialized(self):
        result = run_scenario(builtin_scenarios()[0])
        assert result.wall_time > 0
        assert "wall_time" not in result_to_dict(result)

    def test_report_dict_schema(self):
        result = run_scenario(builtin_scenarios()[4])
        d = result_to_dict(result)
        assert set(d) == {"scenario", "lower", "variance", "upper", "flags",
                          "comparators", "identity_checks"}
        assert all(set(c) == {"name", "kind", "value"} for c in d["comparators"])
        assert all(set(c) == {"f0", "value", "pass"} for c in d["identity_checks"])

    def test_row_kinds_have_exact_key_sets(self):
        scenario = builtin_scenarios()[4]
        checks = result_to_dict(run_scenario(scenario, with_report=False))
        assert set(checks) == {"scenario", "identity_checks"}
        assert len(checks["identity_checks"]) == 5
        report = result_to_dict(run_scenario(scenario))
        assert set(report) == {"scenario", "identity_checks", "lower", "variance", "upper", "flags",
                               "comparators"}
        assert report["identity_checks"] == checks["identity_checks"]
        for with_report in (True, False):
            error = result_to_dict(run_scenario(Scenario("exp-loc", "exponential", "location", 0.0),
                                                with_report=with_report))
            assert set(error) == {"scenario", "identity_checks", "error"}
            assert error["identity_checks"] == []
            assert error["error"].startswith("UnsupportedRole: ")

    @pytest.mark.parametrize(
        "scenario,flags",
        [
            # The skew score's slope vanishes at y = 0, so the report reads
            # the scan's witness x(0) = sinh(-0.5) and runs no upper integral.
            pytest.param(Scenario("sas-skew0.5-h-linear", "sas-gaussian", "skew", 0.5),
                         ["upper-infinite", f"score-not-monotone-witness={math.sinh(-0.5)!r}"],
                         id="sas-skew0.5-h-linear"),
            pytest.param(Scenario("gamma0.3-sca-h-sqrt", "gamma", "scale", 1.0,
                                  structural=(("shape", 0.3),), test_function="sqrt"),
                         ["upper-divergent"], id="gamma0.3-sca-h-sqrt"),
        ],
    )
    def test_overflowing_upper_integral_is_divergent(self, scenario, flags):
        # every refinement level of the upper-bound integral overflows; the
        # detector must return the infinite verdict rather than fail
        fam, h = scenario.build_family(), scenario.build_test_function()
        assert families._alone(fam, h, "upper", True, 1e-12) == math.inf
        d = result_to_dict(run_scenario(scenario))
        assert d["upper"] == "inf"
        assert d["flags"][:len(flags)] == flags
        assert d["lower"] <= d["variance"]

    def test_inf_encoding_roundtrip(self):
        result = run_scenario(Scenario("skew", "sas-gaussian", "skew", 0.0))
        d = result_to_dict(result)
        assert d["upper"] == "inf"
        parsed = dict_to_result_fields(json.loads(json.dumps(d)))
        assert math.isinf(parsed["upper"])
        assert parsed["lower"] == d["lower"]


def scenario_to_dict(scenario):
    """The scenario-file line that ``Scenario.from_dict`` reads back as ``scenario``."""
    out = {
        "id": scenario.scenario_id,
        "family": scenario.family,
        "role": {"kind": scenario.kind, "value": scenario.value},
        **dict(scenario.structural),
    }
    if isinstance(scenario.test_function, str):
        out["test_function"] = {"name": scenario.test_function}
    else:
        out["test_function"] = {"coefficients": list(scenario.test_function)}
    if scenario.identity_tol is not None:
        out["tolerances"] = {"identity": scenario.identity_tol}
    if scenario.law_value is not None:
        out["law"] = {"value": scenario.law_value}
    return out


def dict_to_result_fields(raw):
    """Parse a report dict back into plain numeric fields ("inf" -> inf)."""
    def num(v):
        return math.inf if v == "inf" else float(v)

    out = dict(raw)
    for key in ("lower", "variance", "upper"):
        if key in out:
            out[key] = num(out[key])
    if "comparators" in out:
        out["comparators"] = [
            {**c, "value": num(c["value"])} for c in out["comparators"]
        ]
    return out


# Test-only sampler: a draw of the base law, mapped into x-space by the
# inverse of the role's base coordinate at theta0.
BASE_DRAWS = {
    "gaussian": lambda fam, rng, n: rng.normal(0.0, fam.structural_value("sigma"), n),
    "sas-gaussian": lambda fam, rng, n: rng.standard_normal(n),
    "exponential": lambda fam, rng, n: rng.exponential(1.0, n),
    "gamma": lambda fam, rng, n: rng.gamma(fam.structural_value("shape"), 1.0, n),
    "poisson": lambda fam, rng, n: rng.poisson(fam.role.theta0, n),
    "geometric": lambda fam, rng, n: rng.geometric(fam.role.theta0, n) - 1,  # failures
    "binomial": lambda fam, rng, n: rng.binomial(int(fam.structural_value("n")), fam.role.theta0, n),
}
FROM_BASE = {
    "location": lambda y, mu0: y + mu0,
    "scale": lambda y, sigma0: y / sigma0,
    "skew": lambda y, delta0: np.sinh(np.arcsinh(y) - delta0),
    "theta": lambda y, theta0: y,
}


def monte_carlo_variance(fam, h, n, seed):
    rng = np.random.default_rng(seed)
    xs = FROM_BASE[fam.role.kind](BASE_DRAWS[fam.name](fam, rng, n), fam.role.value)
    return float(np.var([h.h(float(x)) for x in xs]))


class TestMonteCarloDiagnostic:
    @pytest.mark.parametrize(
        "fam,h,expected",
        [
            (gaussian(Location(0.0)), linear(), 1.0),
            (exponential(Scale(1.0)), linear(), 1.0),
            (gamma(Scale(1.0), shape=3.0), linear(), 3.0),
            (poisson(2.0), linear(), 2.0),
            (geometric(0.25), linear(), 12.0),
            (binomial(4, 0.5), linear(), 1.0),
            (sas_gaussian(0.5), linear(), None),  # cross-check against quadrature
        ],
    )
    def test_agrees_loosely_with_quadrature(self, fam, h, expected):
        if expected is None:
            expected = ground_truth_variance(fam, h)
        estimate = monte_carlo_variance(fam, h, n=60_000, seed=20130819)
        assert estimate == pytest.approx(expected, rel=0.08)
