import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinb import config, families, vectorquad
from steinb.bounds import (
    COMPARATORS,
    NotApplicable,
    NotStronglyUnimodal,
    PoincareConstant,
    bound_report,
    literature_bounds,
    lower_bound,
    poincare_constant,
    tightness_residual,
    upper_bound,
)
from steinb.families import (
    FAMILIES,
    Location,
    ONE,
    Scale,
    binomial,
    exponential,
    gamma,
    gaussian,
    geometric,
    linear,
    make_family,
    poisson,
    quartic,
    sas_gaussian,
    scaled,
    shifted,
    sqrt_fn,
    square,
)
from steinb.harness import DivergentMoment, Scenario, builtin_scenarios, ground_truth_variance, run_scenario
from steinb.numerics import _EPS, NonConvergence, NonFinite, scan_grid
from steinb.operators import BoundaryViolation, Laws, UnsupportedRole, exchanging_pair, score_profile
from steinb.vectorquad import integrate_vector_or_eject
from x_space_reference import x_space_f_tilde

KAPPA = 3 - math.sqrt(math.e * math.pi / 2) * math.erfc(1 / math.sqrt(2))
# oracle: E[sqrt(1+X^2)] under the standard normal by scipy.integrate.quad
E_SQRT_1PX2 = 1.3545308064813153


class TestLowerBound:
    def test_gaussian_location_linear(self):
        assert lower_bound(gaussian(Location(0.0)), h=linear()) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_scale_square(self):
        # equality case: h = x^2 is affine in the score (1 - x^2)
        assert lower_bound(gaussian(Scale(1.0)), h=square()) == pytest.approx(2.0, abs=1e-10)

    def test_exponential_sqrt(self):
        # oracle: (E[sqrt(X)]/2)^2 = pi/16 via E[sqrt(X)] = sqrt(pi)/2
        value = lower_bound(exponential(Scale(1.0)), h=sqrt_fn())
        assert value == pytest.approx(math.pi / 16, abs=1e-10)

    def test_sas_linear(self):
        value = lower_bound(sas_gaussian(0.0), h=linear())
        assert value == pytest.approx(E_SQRT_1PX2**2 / KAPPA, abs=1e-9)

    def test_vacuous_when_fisher_diverges(self):
        assert lower_bound(gamma(Location(0.0), shape=1.5), h=linear()) == 0.0


class TestUpperBound:
    def test_gaussian_location_linear(self):
        assert upper_bound(gaussian(Location(0.0)), h=linear()) == pytest.approx(1.0, abs=1e-10)

    def test_exponential_sqrt(self):
        # oracle: (1/lambda) E[X / (4X)] = 1/4, the integrand is smooth
        assert upper_bound(exponential(Scale(1.0)), h=sqrt_fn()) == pytest.approx(0.25, abs=1e-10)

    def test_gamma_scale_linear_equality(self):
        assert upper_bound(gamma(Scale(1.0), shape=3), h=linear()) == pytest.approx(3.0, abs=1e-9)

    def test_gaussian_scale_infinite(self):
        assert math.isinf(upper_bound(gaussian(Scale(1.0)), h=linear()))
        assert math.isinf(upper_bound(gaussian(Scale(1.0)), h=square()))

    def test_sas_infinite_with_witness(self):
        fam, laws = sas_gaussian(0.0), Laws()
        assert math.isinf(upper_bound(fam, h=linear(), laws=laws))
        assert laws.profile(fam, 1e-12).monotonicity.witness == 0.0  # the profile upper_bound read

    def test_positive_integrand_when_monotone(self):
        # f-tilde / (-phi') g is nonnegative wherever the score is monotone:
        # at x(y), f-tilde = dy/dtheta dx/dy, phi' = (dphi/dy) / (dx/dy) and
        # g = g0(y) / (dx/dy).
        for fam in (gaussian(Location(0.0)), exponential(Scale(1.0)), gamma(Scale(1.0), shape=3)):
            assert score_profile(fam).monotonicity.strictly_monotone
            exchanging_pair(fam)
            terms, slope = fam.role.base_terms(fam), fam.role.base_slope(fam)
            for y in scan_grid(fam.base_support, 64):
                w, dx_dy = fam.base_density(y), fam.role.from_base(y)[1]
                if w == 0.0:
                    continue
                value = terms(y)[0] * dx_dy / (-slope(y) / dx_dy) * (w / dx_dy)
                assert value >= -1e-12

    def test_a_discrete_law_has_no_upper_bound(self):
        with pytest.raises(UnsupportedRole, match="no discrete upper bound is available"):
            upper_bound(poisson(2.0), linear())


class TestDiscreteLowerBound:
    def test_poisson_linear_equality(self):
        assert lower_bound(poisson(2.0), linear()) == pytest.approx(2.0, abs=1e-9)

    def test_poisson_square_shifted_weights(self):
        # oracle: independent truncated series (moments 2, 5, 15 at rate 1)
        bound = lower_bound(poisson(1.0), square())
        var = ground_truth_variance(poisson(1.0), square())
        assert bound == pytest.approx(9.0, abs=1e-8)
        assert var == pytest.approx(11.0, abs=1e-8)
        assert bound <= var

    def test_constant_h_gives_zero(self):
        assert lower_bound(poisson(1.0), ONE) == 0.0

    def test_geometric_equality(self):
        p = 0.25
        assert lower_bound(geometric(p), linear()) == pytest.approx(
            (1 - p) / p**2, abs=1e-9
        )

    def test_binomial_equality(self):
        assert lower_bound(binomial(4, 0.5), linear()) == pytest.approx(1.0, abs=1e-10)


# Every catalogue Location law the Poincare constant reads, at two centres:
# its exact (epsilon, d), or the exact NotStronglyUnimodal message.
_GAUSSIAN_POINCARE = {
    1e-4: (1e8, 1e-8), 0.5: (4.0, 0.25), 1.0: (1.0, 1.0),
    2.14: (0.2183596820683029, 4.5796), 3.0: (0.1111111111111111, 9.0), 1e4: (1e-8, 1e8),
}
# Gamma's curvature (a - 1)/y^2 decays toward the grid's far end, y ~ 1e9.
_GAMMA_POINCARE_INF = {
    1.0025: "2.500e-21", 1.5: "5.000e-19", 2.0: "1.000e-18",
    3.0: "2.000e-18", 5.0: "4.000e-18", 33.0: "3.200e-17",
}


def _not_strongly_unimodal(inf: str, name: str) -> str:
    return f"inf of -(log g)'' is {inf}; {name} is not strongly unimodal"


def _poincare_pins():
    for mu0 in (0.0, -3.1):
        for s, pinned in _GAUSSIAN_POINCARE.items():
            yield pytest.param(functools.partial(gaussian, Location(mu0), sigma=s), pinned,
                               id=f"gaussian-{s:g}-at-{mu0:g}")
    for mu0 in (0.0, 1.5):
        yield pytest.param(functools.partial(exponential, Location(mu0)),
                           _not_strongly_unimodal("-0.000e+00", "exponential"), id=f"exponential-at-{mu0:g}")
    for mu0 in (0.0, 2.0):
        for a, inf in _GAMMA_POINCARE_INF.items():
            yield pytest.param(functools.partial(gamma, Location(mu0), shape=a),
                               _not_strongly_unimodal(inf, "gamma"), id=f"gamma-{a:g}-at-{mu0:g}")
    for mu0 in (0.0, -1.0):
        yield pytest.param(functools.partial(quartic, mu0),
                           _not_strongly_unimodal("0.000e+00", "quartic"), id=f"quartic-at-{mu0:g}")


class TestPoincare:
    @pytest.mark.parametrize("build, pinned", list(_poincare_pins()))
    def test_catalogue_location_laws(self, build, pinned):
        if isinstance(pinned, str):
            with pytest.raises(NotStronglyUnimodal) as raised:
                poincare_constant(build())
            assert str(raised.value) == pinned
        else:
            pc = poincare_constant(build())
            assert (pc.epsilon, pc.d) == pinned

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_gaussian(self, s):
        pc = poincare_constant(gaussian(Location(0.0), sigma=s))
        assert pc.d == pytest.approx(s * s, abs=1e-6)
        assert pc.epsilon == pytest.approx(1.0 / s**2, rel=1e-9)

    def test_requires_positive_epsilon(self):
        with pytest.raises(ValueError):
            PoincareConstant(epsilon=0.0, d=math.inf)

    @pytest.mark.parametrize("build", [functools.partial(gaussian, Scale(1.0)), functools.partial(sas_gaussian, 0.5)],
                             ids=["gaussian-scale", "sas-gaussian-skew"])
    def test_only_location_roles_have_one(self, build):
        with pytest.raises(UnsupportedRole, match="computed for location families"):
            poincare_constant(build())


class TestLiteratureBounds:
    def test_exponential_sqrt_divergences(self):
        comps = {c.name: c for c in literature_bounds(exponential(Scale(1.0)), sqrt_fn())}
        assert math.isinf(comps["klaassen_exp_upper"].value)
        assert math.isinf(comps["cacoullos_upper"].value)
        assert comps["klaassen_exp_upper"].kind == "upper"

    def test_exponential_linear_rewrite_matches_upper(self):
        comps = {c.name: c.value for c in literature_bounds(exponential(Scale(1.0)), linear())}
        ours = upper_bound(exponential(Scale(1.0)), h=linear())
        assert comps["exp_rewrite_upper"] == pytest.approx(1.0, abs=1e-10)
        assert comps["exp_rewrite_upper"] == pytest.approx(ours, abs=1e-10)
        assert comps["klaassen_exp_upper"] == pytest.approx(4.0, abs=1e-10)

    def test_gamma_lower(self):
        comps = {c.name: c.value for c in literature_bounds(gamma(Scale(1.0), shape=3), linear())}
        # oracle: max(1 * 1, (1/3) * 9) = 3
        assert comps["klaassen_gamma_lower"] == pytest.approx(3.0, abs=1e-9)

    def test_gaussian_chernoff(self):
        comps = {c.name: c.value for c in literature_bounds(gaussian(Location(0.0)), linear())}
        assert comps["chernoff_lower"] == pytest.approx(1.0, abs=1e-10)
        assert comps["chernoff_upper"] == pytest.approx(1.0, abs=1e-10)

    def test_gamma_divergent_lower_is_vacuous(self):
        # E[h'] = E[1 / (2 sqrt X)] diverges for shape 0.3; Var[sqrt X] is about 0.1485
        comps = {c.name: c.value for c in literature_bounds(gamma(Scale(1.0), shape=0.3), sqrt_fn())}
        assert comps["klaassen_gamma_lower"] == 0.0

    @pytest.mark.parametrize("fam", [gamma(Scale(1.3), shape=1.7), gamma(Location(-0.4), shape=1.7)],
                             ids=["scale", "location"])
    def test_gamma_lower_of_a_constant_h_is_positive_zero(self, fam):
        # h' = 0 makes both of Klaassen's terms zero, the first (a - 2) * 0 = -0.0
        # for a < 2: the vacuous comparator reads 0.0, never -0.0.
        (comp,) = literature_bounds(fam, ONE)
        assert comp.value == 0.0 and math.copysign(1.0, comp.value) == 1.0

    def test_comparators_exactly_for_catalogued_pairs(self):
        catalogued = {("gaussian", "location"), ("exponential", "scale"),
                      ("gamma", "location"), ("gamma", "scale")}
        assert {key for key, entry in COMPARATORS.items() if entry.compute} == catalogued
        values = {"location": 0.0, "scale": 1.0, "skew": 0.0, "theta": 0.3}
        structural = {"gamma": {"shape": 3.0}, "binomial": {"n": 4}}
        for name, entry in FAMILIES.items():
            for kind in entry.kinds:
                fam = make_family(name, kind, values[kind], **structural.get(name, {}))
                if (name, kind) in catalogued:
                    assert literature_bounds(fam, linear()), (name, kind)
                else:
                    with pytest.raises(NotApplicable):
                        literature_bounds(fam, linear())

    def test_not_applicable(self):
        with pytest.raises(NotApplicable):
            literature_bounds(poisson(1.0), linear())
        with pytest.raises(NotApplicable):
            literature_bounds(sas_gaussian(0.0), linear())

    @pytest.mark.parametrize(
        "h", [linear(), square(), shifted(scaled(square(), 0.5), 1.0)], ids=lambda t: t.name
    )
    def test_upper_dominates_cacoullos(self, h):
        # our exponential upper bound never exceeds the Cacoullos comparator
        fam = exponential(Scale(1.0))
        ours = upper_bound(fam, h=h)
        comps = {c.name: c.value for c in literature_bounds(fam, h)}
        assert ours <= comps["cacoullos_upper"] + 1e-9


# Parameters per comparator pair, away from the standard law: sigma != 1,
# mu0 != 0 and scale parameters other than 1.
SANDWICH_PARAMETERS = {
    ("gaussian", "location"): [(0.0, {}), (1.5, {"sigma": 2.0}), (-0.7, {"sigma": 0.5})],
    ("exponential", "scale"): [(1.0, {}), (0.5, {}), (3.0, {})],
    ("gamma", "location"): [(0.0, {"shape": 3.0}), (3.0, {"shape": 3.0}), (-1.5, {"shape": 4.5})],
    ("gamma", "scale"): [(1.0, {"shape": 3.0}), (2.0, {"shape": 2.5}), (0.5, {"shape": 5.0})],
}


@pytest.mark.parametrize("pair", sorted(SANDWICH_PARAMETERS), ids="-".join)
@pytest.mark.parametrize("h", [linear(), square()], ids=lambda t: t.name)
def test_comparators_sandwich_the_variance(pair, h):
    assert set(SANDWICH_PARAMETERS) == {key for key, entry in COMPARATORS.items() if entry.compute}
    for value, structural in SANDWICH_PARAMETERS[pair]:
        fam = make_family(*pair, value, **structural)
        variance = ground_truth_variance(fam, h)
        slack = 1e-9 * abs(variance) + 1e-12
        for c in literature_bounds(fam, h):
            where = (pair, value, structural, h.name, c.name, c.value, variance)
            if c.kind == "lower":
                assert c.value <= variance + slack, where
            else:
                assert c.value >= variance - slack, where


class TestBoundReport:
    def test_sandwich_across_matrix(self):
        for scenario in builtin_scenarios():
            rep = run_scenario(scenario).report
            assert rep is not None, scenario.scenario_id
            assert rep.lower >= 0.0
            assert rep.lower <= rep.variance_truth + 1e-8, scenario.scenario_id
            if not math.isinf(rep.upper):
                assert rep.variance_truth <= rep.upper + 2e-8, scenario.scenario_id

    def test_equality_cases_tight(self):
        cases = [
            (gaussian(Location(0.0)), linear(), True),
            (gaussian(Scale(1.0)), square(), False),
            (exponential(Scale(1.0)), linear(), True),
            (gamma(Scale(1.0), shape=3), linear(), True),
            (poisson(2.0), linear(), False),
        ]
        for fam, h, expect_upper in cases:
            rep = bound_report(fam, h)
            assert abs(rep.lower - rep.variance_truth) <= 1e-7
            if expect_upper:
                assert abs(rep.upper - rep.variance_truth) <= 1e-7
            assert tightness_residual(fam, h, score_profile(fam), rep.variance_truth) <= 1e-9

    def test_tightness_residual_detects_mismatch(self):
        fam, h = exponential(Scale(1.0)), sqrt_fn()
        rep = bound_report(fam, h)
        assert tightness_residual(fam, h, score_profile(fam), rep.variance_truth) > 1e-3

    def test_tightness_residual_is_the_lower_bounds_slack(self):
        # The exchange identity E[h phi] = -E[h' f-tilde] makes the lower
        # bound Cov(h, phi)^2 / Var(phi), so the residual (its own three
        # integrals) is the report's relative lower slack; a drift in
        # f-tilde or phi breaks the equality.
        for scenario in builtin_scenarios():
            fam, h = scenario.build_family(), scenario.build_test_function()
            rep = bound_report(fam, h, with_comparators=False)
            if not (math.isfinite(rep.variance_truth) and rep.variance_truth > 0.0):
                continue
            residual = tightness_residual(fam, h, score_profile(fam), rep.variance_truth)
            expected = max(rep.lower_slack / rep.variance_truth, 0.0)
            assert residual == pytest.approx(expected, rel=0.0, abs=1e-12), scenario.scenario_id

    def test_vacuous_flag(self):
        rep = bound_report(gamma(Location(0.0), shape=1.5), linear())
        assert rep.lower == 0.0
        assert "vacuous-lower" in rep.flags

    def test_discrete_flags(self):
        rep = bound_report(poisson(1.0), square())
        assert math.isinf(rep.upper)
        assert "discrete-no-upper" in rep.flags
        assert "poisson-display-suspected-typo" in rep.flags

    @pytest.mark.parametrize("delta0,lower,variance", [
        (0.0, 0.7826377574676655, 1.0),
        (0.615901, 1.119008909217392, 1.5008130956417047),  # sweep seed 1 sas-gaussian-skew-007
        (-0.3, 0.8552137987143551, 1.1080563291385297),
    ], ids=["delta0=0", "delta0=0.615901", "delta0=-0.3"])
    def test_witness_flag(self, delta0, lower, variance):
        # dphi/dy vanishes at y = 0 for every delta0, and the scan in y
        # samples it: the witness is x(0) = sinh(-delta0).
        fam = sas_gaussian(delta0)
        rep = bound_report(fam, linear())
        witness = fam.role.from_base(0.0)[0]
        assert (rep.lower, rep.variance_truth, rep.upper, rep.upper_witness) == (lower, variance, math.inf, witness)
        assert rep.flags == ("upper-infinite", f"score-not-monotone-witness={witness!r}")

    def test_slacks(self):
        rep = bound_report(exponential(Scale(1.0)), sqrt_fn())
        assert rep.lower_slack == pytest.approx(rep.variance_truth - rep.lower)

    @settings(max_examples=10, deadline=None)
    @given(c=st.floats(0.25, 4.0))
    def test_scale_equivariance(self, c):
        fam = exponential(Scale(1.0))
        base = bound_report(fam, linear(), with_comparators=False)
        rep = bound_report(fam, scaled(linear(), c), with_comparators=False)
        assert rep.lower == pytest.approx(c * c * base.lower, rel=1e-9)
        assert rep.variance_truth == pytest.approx(c * c * base.variance_truth, rel=1e-9)
        assert rep.upper == pytest.approx(c * c * base.upper, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(offset=st.floats(-5.0, 5.0))
    def test_shift_invariance(self, offset):
        fam = gamma(Scale(1.0), shape=3)
        base = bound_report(fam, linear(), with_comparators=False)
        rep = bound_report(fam, shifted(linear(), offset), with_comparators=False)
        assert rep.lower == pytest.approx(base.lower, rel=1e-9)
        assert rep.variance_truth == pytest.approx(base.variance_truth, rel=1e-9, abs=1e-9)
        assert rep.upper == pytest.approx(base.upper, rel=1e-9)


# h = 3^x: under Poisson(1) its E[h^2] series has not stopped after 100
# terms, while E[h], the Fisher information and the lower bound's numerator
# have.
THREE_TO_THE_X = families.TestFunction("3^x", lambda x: 3.0**x, lambda x: math.log(3.0) * 3.0**x)


class TestDiscreteReportWalk:
    """A discrete report sums E[h^2], E[h] and the lower bound's numerator in
    one walk; it must report what summing each alone gives."""

    @pytest.mark.parametrize("fam", [poisson(2.5), geometric(0.3), binomial(12, 0.4)],
                             ids=lambda f: f"{f.name}-{f.role.theta0:g}")
    @pytest.mark.parametrize("h", [ONE, linear(), square(), sqrt_fn(), families.polynomial((1.0, -2.0, 0.5))],
                             ids=lambda h: h.name)
    def test_one_walk_reports_each_sum_alone(self, fam, h):
        rep = bound_report(fam, h)
        assert rep.variance_truth == ground_truth_variance(fam, h)
        assert rep.lower == lower_bound(fam, h)

    def test_a_failing_series_leaves_each_sum_to_itself(self, monkeypatch):
        monkeypatch.setattr(config, "SERIES", config.SERIES._replace(max_terms=100))
        fam = poisson(1.0)
        rep = bound_report(fam, THREE_TO_THE_X)
        assert math.isinf(rep.variance_truth)  # E[h^2] hit the term cap
        assert rep.lower == lower_bound(fam, THREE_TO_THE_X) > 0.0

    def test_a_report_is_one_walk(self, walks):
        fam, laws = poisson(2.5), Laws()
        laws.profile(fam, 1e-12)  # the Fisher information, a walk of its own
        laws.pair(fam)
        walks.clear()
        bound_report(fam, square(), laws=laws)
        assert walks == [3]  # E[h^2], E[h] and the lower bound's numerator

    def test_the_equality_poisson_residual_is_one_walk(self, walks):
        # The paper table's equality-poisson row (poisson2-h-linear): its
        # three expectations, each summed alone, give the same residual.
        fam, h = poisson(2.0), linear()
        prof = score_profile(fam)
        variance = ground_truth_variance(fam, h)
        e_phi, e_h_phi, e_h = (families.expectation(fam, fn)
                               for fn in (fam.score_fn, lambda x: h(x) * fam.score_fn(x), h))
        cov = e_h_phi - e_h * e_phi
        alone = max((variance - cov * cov / (prof.fisher - e_phi**2)) / variance, 0.0)
        walks.clear()
        assert tightness_residual(fam, h, prof, variance) == alone
        assert walks == [3]


@pytest.fixture
def walks(monkeypatch):
    """The number of sums of each ``discrete_sums`` walk from here on."""
    seen = []
    real = families.discrete_sums

    def counted(fam, terms, tols):
        seen.append(len(tols))
        return real(fam, terms, tols)

    monkeypatch.setattr(families, "discrete_sums", counted)
    return seen


def _leaky_poisson(lam: float) -> families.DiscreteFamily:
    """Poisson(lam) with f-tilde lifted so that f-tilde(0) g(0) = 1e-10."""
    base = poisson(lam)
    fields = dict(zip(base._fields, base._values()))
    lift = 1e-10 / base.pmf(0)
    fields["exchange_fn"] = lambda x: base.exchange_fn(x) + lift
    return families.DiscreteFamily(**fields)


class TestOriginBoundary:
    """Summation by parts drops the x = 0 term D+h(-1) f-tilde(0) g(0), so a
    discrete law's f-tilde g must vanish at the origin to 1e-12, well below
    the 1e-9 the endpoint check allows."""

    def test_exchanging_pair_raises(self):
        fam = _leaky_poisson(2.0)
        assert 1e-12 < abs(fam.exchange_fn(0.0) * fam.pmf(0)) < 1e-9
        with pytest.raises(BoundaryViolation, match="does not vanish at the origin"):
            exchanging_pair(fam)

    def test_bound_report_raises(self):
        with pytest.raises(BoundaryViolation, match="does not vanish at the origin"):
            bound_report(_leaky_poisson(2.0), linear())

    def test_run_scenario_makes_an_error_row(self, monkeypatch):
        entry = FAMILIES["poisson"]
        leaky = entry._replace(build=lambda role: _leaky_poisson(role.theta0))
        monkeypatch.setitem(FAMILIES, "poisson", leaky)
        result = run_scenario(Scenario("leaky-poisson", "poisson", "theta", 2.0))
        assert result.report is None
        assert result.error == "BoundaryViolation: f-tilde * g does not vanish at the origin"


EXP_HALF = families.TestFunction("exp(x/2)", lambda x: math.exp(0.5 * x), lambda x: 0.5 * math.exp(0.5 * x),
                                 lambda x: 0.25 * math.exp(0.5 * x))


class TestSharedRun:
    """A continuous report integrates its expectations together in y; a
    moment that does not converge with the others is integrated alone, with
    that run's value, verdict and error."""

    REPORT = ["h2", "h", "lower", "upper", "hp2", "hp", "x_hp2", "x_hp_hpp"]

    def test_divergent_moments_leave_the_run_with_the_scalar_verdict(self):
        # exp-sca-h-sqrt: E[h'^2] and E[x h' h''] diverge at 0.
        fam, h = exponential(Scale(1.0)), sqrt_fn()
        names = self.REPORT
        results = integrate_vector_or_eject(
            lambda live: families._integrand(fam, h, [names[k] for k in live]), len(names), fam.base_support)
        assert [n for n, r in zip(names, results) if r is None] == ["hp2", "x_hp_hpp"]
        e = families._expectations(fam, h, dict.fromkeys(names, True), 1e-12)
        assert e("hp2") == math.inf == families.expectation_or_inf(fam, lambda x: h.h_prime(x) ** 2)
        assert e("x_hp_hpp") == -math.inf == families.expectation_or_inf(
            fam, lambda x: x * h.h_prime(x) * h.h_second(x))
        for name, r in zip(names, results):
            if r is not None:
                assert e(name) == r.value
                assert r.abs_error_estimate <= max(1e-12, 100 * _EPS * r.mass), name

    def test_an_ejected_moment_raises_as_the_scalar_path_does(self, monkeypatch):
        # h' = 1/x^2 makes the lower bound's numerator E[h' f-tilde] = E[1/X]
        # under the rate-1 exponential: log-divergent, and integrated without
        # divergence detection, so it ends as NonConvergence, with levels.
        monkeypatch.setattr(config, "QUAD", config.QUAD._replace(max_subdivisions=200))
        fam = exponential(Scale(1.0))
        h = families.TestFunction("-1/x", lambda x: -1.0 / x, lambda x: x**-2.0)
        e = families._expectations(fam, h, {"lower": False, "phi": False}, 1e-12)
        assert abs(e("phi")) <= 1e-12
        with pytest.raises(NonConvergence) as shared:
            e("lower")
        f_tilde = x_space_f_tilde(fam, ONE)
        with pytest.raises(NonConvergence) as alone:
            families.expectation(fam, lambda x: h.h_prime(x) * f_tilde(x))
        assert str(shared.value) == str(alone.value)
        assert shared.value.levels == alone.value.levels and len(alone.value.levels) == 2

    def test_a_moment_that_stays_non_finite_leaves_the_others_on_the_mesh(self):
        # sas-gaussian-skew-007 (sweep seed 1): the upper bound's integrand
        # is not finite at y = 0, where dphi/dy vanishes.
        fam, h = sas_gaussian(0.615901), linear()
        names = ["h2", "h", "lower", "upper"]
        results = integrate_vector_or_eject(
            lambda live: families._integrand(fam, h, [names[k] for k in live]), len(names), fam.base_support)
        assert [n for n, r in zip(names, results) if r is None] == ["upper"]
        e = families._expectations(fam, h, {"h2": True, "h": True, "lower": False, "upper": True}, 1e-12)
        assert e("upper") == math.inf == families._alone(fam, h, "upper", True, 1e-12)

    def test_a_stuck_moment_leaves_after_one_restart(self, monkeypatch):
        # The same input, as one request: the row kernel's NonFinite at
        # y ~ -4.07e-9 names "upper" (position 3) alone, and the other three
        # moments finish on one more run, which reuses its cells and gives
        # the report's values.
        ends = []
        adapt = vectorquad._adapt

        def recording(cell, n, *args):
            try:
                results = adapt(cell, n, *args)
            except NonFinite as exc:
                ends.append((n, exc.components))
                raise
            ends.append((n, None))
            return results

        monkeypatch.setattr(vectorquad, "_adapt", recording)
        fam, h = sas_gaussian(0.615901), linear()
        e = families._expectations(fam, h, {"h2": True, "h": True, "lower": False, "upper": True}, 1e-12)
        assert ends == [(4, (3,)), (3, None)]
        assert e("upper") == math.inf
        rep = bound_report(fam, h)
        assert ends[2:] == [(3, None)]  # the report's run has no "upper": no restart
        assert (rep.lower, rep.variance_truth) == (e("lower") ** 2 / score_profile(fam).fisher,
                                                   max(e("h2") - e("h") ** 2, 0.0))

    def test_a_discrete_lower_bound_is_the_summed_one(self):
        fam, h = poisson(2.0), square()
        numerator = families.expectation(fam, lambda x: h.forward_difference(x - 1) * fam.exchange_fn(x), 1e-13)
        summed = numerator * numerator / score_profile(fam).fisher
        assert lower_bound(fam, h) == summed == bound_report(fam, h).lower

    def test_lone_bounds_run_on_the_scalar_kernel(self, monkeypatch):
        fam, laws = gamma(Scale(1.0), shape=3.0), Laws()
        laws.profile(fam, 1e-12)
        laws.pair(fam)

        def no_row_cells(*args):
            raise AssertionError("a lone bound ran on the row kernel")

        monkeypatch.setattr(vectorquad, "_gk15_vector", no_row_cells)
        assert lower_bound(fam, linear(), laws=laws) == pytest.approx(3.0, rel=1e-12)
        assert upper_bound(fam, linear(), laws=laws) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("scenario", [s for s in builtin_scenarios() if not s.build_family().is_discrete],
                             ids=lambda s: s.scenario_id)
    def test_a_report_moves_by_rounding_only_from_lone_runs(self, scenario):
        fam, h = scenario.build_family(), scenario.build_test_function()
        rep = bound_report(fam, h)
        alone = {name: families._alone(fam, h, name, True, 1e-12) for name in ("h2", "h")}
        variance = max(alone["h2"] - alone["h"] ** 2, 0.0)
        pairs = [(rep.variance_truth, variance), (rep.lower, lower_bound(fam, h)), (rep.upper, upper_bound(fam, h))]
        for got, expected in pairs:
            assert got == expected or abs(got - expected) <= 1e-11 + 1e-10 * abs(expected), scenario.scenario_id

    def test_the_variance_error_comes_before_the_profile_error(self):
        # The exponential location law has no score profile (UnsupportedRole),
        # and this h is not finite beyond x = 1: as when each stage ran alone
        # in turn, the variance's NonFinite is the report's error.
        fam = exponential(Location(0.0))
        h = families.TestFunction("nan-past-1", lambda x: x if x < 1.0 else math.nan, lambda x: 1.0)
        with pytest.raises(NonFinite):
            bound_report(fam, h)
        with pytest.raises(UnsupportedRole):
            bound_report(fam, linear())
        with pytest.raises(UnsupportedRole):
            bound_report(fam, EXP_HALF)  # E[h^2] diverges: a variance of +inf raises nothing

    def test_a_divergent_second_moment_is_an_infinite_variance(self):
        # E[e^X] under the rate-1 exponential diverges at the far end.
        fam = exponential(Scale(1.0))
        rep = bound_report(fam, EXP_HALF)
        assert math.isinf(rep.variance_truth) and math.isinf(rep.upper) and math.isfinite(rep.lower)
        with pytest.raises(DivergentMoment):
            ground_truth_variance(fam, EXP_HALF)

    # Cells of both kernels of a whole report, the score profile included:
    # the counts since the divergence probe integrates only its 8 deciding
    # shells (296 and 242 before the shared run, 252 and 176 before the
    # probe's tail).

    def test_divergent_comparators_cost_no_more_cells(self, count_cells):
        bound_report(exponential(Scale(1.0)), sqrt_fn())
        assert count_cells() <= 188

    def test_a_gamma_location_report_below_shape_2_5_costs_no_more_cells(self, count_cells):
        # sweep-mixed seed 1 gamma-location-009.
        bound_report(gamma(Location(-0.72322), shape=2.371224), families.polynomial((1.315738, -0.408811)))
        assert count_cells() <= 144
