import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinb.families import (
    Location,
    ONE,
    Scale,
    TestFunction as TF,
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
    sas_transform,
    square,
)
from steinb.harness import builtin_test_functions
from steinb.numerics import Verdict, derivative
from steinb.operators import (
    Atom,
    BoundaryViolation,
    UnsupportedRole,
    comparison_grid,
    exchanging_pair,
    generic_operator_value,
    hermite,
    hermite_test_function,
    make_operator,
    score_profile,
)
from x_space_reference import x_space_f_tilde, x_space_score

KAPPA = 3 - math.sqrt(math.e * math.pi / 2) * math.erfc(1 / math.sqrt(2))  # ~2.34432


def sas_lifted(f1):
    """f0(x) = sqrt(1+x^2) f1(x); turns the plain SAS operator into its polynomial variant."""
    def h(x):
        return math.sqrt(1.0 + x * x) * f1.h(x)

    def hp(x):
        r = math.sqrt(1.0 + x * x)
        return x / r * f1.h(x) + r * f1.h_prime(x)

    return TF(f"sqrt1px2*{f1.name}", h, hp)


class TestHermite:
    @pytest.mark.parametrize("n,x,expected", [(0, 7.3, 1.0), (2, 0.0, -1.0), (3, 2.0, 2.0)])
    def test_examples(self, n, x, expected):
        assert hermite(n, x) == pytest.approx(expected, abs=1e-12)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            hermite(31, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 10), x=st.floats(-4, 4))
    def test_derivative_recursion(self, n, x):
        # H_{n+1} = -H_n' + x H_n.  Finite differences confirm the derivative
        # relation H_n' = n H_{n-1} (to the accuracy a difference quotient of
        # a polynomial of this size can reach); the recursion itself then
        # holds to 1e-9 relative to the polynomial magnitudes.
        analytic = n * hermite(n - 1, x) if n > 0 else 0.0
        fd = derivative(lambda t: hermite(n, t), x)
        fd_scale = max(1.0, abs(hermite(n, x)), abs(analytic))
        assert abs(fd - analytic) <= 1e-5 * fd_scale
        scale = max(1.0, abs(hermite(n + 1, x)))
        assert abs(-analytic + x * hermite(n, x) - hermite(n + 1, x)) <= 1e-9 * scale

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("x", [-2.3, -0.9, 0.4, 1.1, 2.6])
    def test_derivative_recursion_low_order_absolute(self, n, x):
        # at low orders the difference quotient is clean enough for the
        # literal 1e-9
        hn_prime = derivative(lambda t: hermite(n, t), x)
        assert -hn_prime + x * hermite(n, x) == pytest.approx(hermite(n + 1, x), abs=1e-9)


class TestLocationOperator:
    def test_gaussian_constant(self):
        op = make_operator(gaussian(Location(0.0)), ONE)
        assert op(2.0) == pytest.approx(2.0)
        assert op.atom is None

    def test_gaussian_hermite_weight(self):
        # with f = H_1 * 1 the operator value at 0 is H_2(0) = -1
        op = make_operator(gaussian(Location(0.0)), hermite_test_function(1))
        assert op(0.0) == pytest.approx(-1.0)

    def test_exponential_atom(self):
        op = make_operator(exponential(Location(0.0)), linear())
        assert op(3.0) == pytest.approx(2.0)
        assert op.atom.location == 0.0 and op.atom.coefficient == 0.0
        op1 = make_operator(exponential(Location(0.0)), ONE)
        assert op1.atom.coefficient == -1.0

    def test_gamma_has_no_atom(self):
        assert make_operator(gamma(Location(0.0), shape=3), ONE).atom is None

    @pytest.mark.parametrize("shape", [1.01, 1.03, 1.05])
    def test_gamma_near_unit_shape_has_no_atom(self, shape):
        # the density vanishes at the edge however steeply it rises after it
        assert make_operator(gamma(Location(0.0), shape=shape), ONE).atom is None

    def test_shifted_exponential_atom_sits_at_the_edge(self):
        op = make_operator(exponential(Location(1.5)), ONE)
        assert op.atom == Atom(location=1.5 + 0.0, coefficient=-ONE.h(0.0))


class TestScaleOperator:
    @pytest.mark.parametrize(
        "fam,x,expected",
        [
            (gaussian(Scale(1.0)), 2.0, -3.0),
            (exponential(Scale(1.0)), 1.0, 0.0),
            (gamma(Scale(1.0), shape=3), 3.0, 0.0),
        ],
    )
    def test_unit_scale_closed_forms(self, fam, x, expected):
        assert make_operator(fam, ONE)(x) == pytest.approx(expected, abs=1e-12)


class TestSkewOperator:
    def test_variant_form(self):
        fam = sas_gaussian(0.0)
        op = make_operator(fam, sas_lifted(ONE))
        assert op(1.0) == pytest.approx(0.0, abs=1e-12)
        assert op(2.0) == pytest.approx(-6.0, abs=1e-12)

    def test_plain_form(self):
        op = make_operator(sas_gaussian(0.0), ONE)
        assert op(1.0) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)


class TestDiscreteOperator:
    # The operator is g(0; theta0) times the defining quotient:
    # e^-1 (-e) for Poisson(1), 0.5 (-2) for geometric(0.5) and 0.25 (-32)
    # for binomial(2, 0.5).

    def test_poisson(self):
        op = make_operator(poisson(1.0), ONE)
        assert op(2.0) == pytest.approx(-1.0, abs=1e-12)

    def test_geometric_sign_follows_defining_quotient(self):
        # The defining quotient fixes the sign as d/dp (1-p)^x < 0; the often
        # quoted form is its negative.  Scaling by g(0; p) > 0 keeps it.
        op = make_operator(geometric(0.5), ONE)
        assert op(0.0) == pytest.approx(-1.0, abs=1e-12)
        assert op(0.0) == pytest.approx(generic_operator_value(geometric(0.5), ONE, 0.0), rel=1e-7)

    def test_binomial(self):
        op = make_operator(binomial(2, 0.5), ONE)
        assert op(2.0) == pytest.approx(-8.0, abs=1e-10)


ALL_NINE = [
    gaussian(Location(0.0)),
    gaussian(Scale(1.0)),
    sas_gaussian(0.0),
    exponential(Location(0.0)),
    exponential(Scale(1.0)),
    gamma(Scale(1.0), shape=3.0),
    poisson(1.0),
    geometric(0.25),
    binomial(4, 0.5),
]


# Poisson rates 38 and 60: a discrete operator that kept a factor
# 1/g(0; theta0) = e^theta drifted from the quotient by a relative 5.6e4 and
# 4.9e4.  (Not geometric(0.05): the central-difference reference itself
# misses 1e-6 there.)
@pytest.mark.parametrize("fam", ALL_NINE + [poisson(38.0), poisson(60.0)], ids=lambda f: f"{f.name}-{f.role}")
@pytest.mark.parametrize("f0", [ONE, linear(), square()], ids=lambda t: t.name)
def test_closed_form_matches_generic_quotient(fam, f0):
    op = make_operator(fam, f0)
    for x in comparison_grid(fam, 200):
        closed = op(x)
        generic = generic_operator_value(fam, f0, x)
        assert abs(closed - generic) <= 1e-6 * (1.0 + abs(closed))


def _closed_form(fam, f0):
    """The per-role closed forms the one continuous operator replaced, kept as
    its reference: location, scale and SAS skew as written for each role."""
    role, L = fam.role, fam.log_density_derivative
    lo, hi = fam.base_support.lo, fam.base_support.hi
    if isinstance(role, Location):
        def op(x):
            y = x - role.mu0
            if y < lo or y > hi:
                return 0.0
            return -f0.h_prime(y) - f0.h(y) * L(y)
    elif isinstance(role, Scale):
        def op(x):
            y = role.sigma0 * x
            if y < lo or y > hi:
                return 0.0
            base = f0.h(y) / role.sigma0
            if x == 0.0:
                return base
            return base + x * f0.h_prime(y) + x * f0.h(y) * L(y)
    else:
        def op(x):
            s, c = sas_transform(x, role.delta0)
            return c * f0.h_prime(s) + (s / c + c * L(s)) * f0.h(s)
    return op


CONTINUOUS_OPERATOR_CASES = [
    gaussian(Location(0.0)),
    gaussian(Location(-1.3), sigma=2.0),
    gaussian(Scale(1.0)),
    gaussian(Scale(0.4), sigma=1.7),
    sas_gaussian(0.0),
    sas_gaussian(0.6),
    make_family("gaussian", "skew", -0.3),
    exponential(Location(0.0)),
    exponential(Location(2.5)),
    exponential(Scale(1.0)),
    exponential(Scale(3.0)),
    gamma(Scale(1.0), shape=3.0),
    gamma(Scale(0.5), shape=1.5),
    gamma(Location(0.0), shape=3.0),
    gamma(Location(-2.0), shape=2.4),
    quartic(0.7),
]


@pytest.mark.parametrize("fam", CONTINUOUS_OPERATOR_CASES, ids=lambda f: f"{f.name}-{f.role}")
def test_one_operator_matches_the_role_closed_forms(fam):
    # T f0(x) = f0'(y) dy/dtheta + f0(y) phi, with dy/dtheta and phi read in
    # y, regroups the scale closed form's terms and computes the skew C as
    # hypot(1, S) rather than cosh(asinh x + delta), so both agree to
    # rounding: within 1e-14 of the terms' magnitude.  Location keeps its
    # arithmetic exactly.
    f0s = [ONE, linear(), square(), *builtin_test_functions(fam)]
    grid = comparison_grid(fam, 200)
    if isinstance(fam.role, Scale):
        grid.append(0.0)  # the y = 0 guard
    for f0 in f0s:
        op, reference = make_operator(fam, f0), _closed_form(fam, f0)
        assert op.atom == fam.role.atom(fam, f0)
        for x in grid:
            y = fam.role.to_base(x, fam.role.value)
            scale = abs(f0.h_prime(y)) * max(1.0, abs(x)) + abs(f0.h(y)) * abs(fam.role.score(fam)[0](x)) \
                if x != 0.0 else abs(f0.h(y))
            assert abs(op(x) - reference(x)) <= 1e-14 * max(scale, 1e-300), (f0.name, x)
            if isinstance(fam.role, Location):  # the same operations, in the same order
                assert op(x) == reference(x), (f0.name, x)


@pytest.mark.parametrize("fam", CONTINUOUS_OPERATOR_CASES, ids=lambda f: f"{f.name}-{f.role}")
def test_derived_score_and_f_tilde_match_the_x_space_reference(fam):
    # phi(y(x)), (dphi/dy) / (dx/dy) and f0(y) dy/dtheta dx/dy regroup the
    # x-space formulas each role once stated, so they agree to rounding:
    # within 1e-14 of the terms' magnitude.  Location keeps its arithmetic
    # exactly.
    role = fam.role
    phi, phi_prime = role.score(fam)
    ref_phi, ref_phi_prime = x_space_score(fam)
    L, Lp = fam.log_density_derivative, fam.log_density_second_derivative
    f0s = [ONE, linear(), square(), *builtin_test_functions(fam)]
    for x in comparison_grid(fam, 200):
        y = role.to_base(x, role.value)
        if isinstance(role, Location):
            phi_scale = slope_scale = 1.0
        elif isinstance(role, Scale):
            phi_scale = 1.0 / role.sigma0 + abs(x * L(y))
            slope_scale = abs(L(y)) + abs(y * Lp(y))
        else:
            c = math.hypot(1.0, y)
            phi_scale = abs(y / c) + abs(c * L(y))
            slope_scale = (1.0 / c**2 + abs(y * L(y)) + c * c * abs(Lp(y))) / math.hypot(1.0, x)
        pairs = [(phi(x), ref_phi(x), phi_scale), (phi_prime(x), ref_phi_prime(x), slope_scale)]
        for f0 in f0s:
            reference = x_space_f_tilde(fam, f0)(x)
            pairs.append((role.f_tilde(fam, f0)(x), reference, abs(reference)))
        for derived, reference, scale in pairs:
            if isinstance(role, Location):  # the same operations, in the same order
                assert derived == reference, x
            else:
                assert abs(derived - reference) <= 1e-14 * max(scale, 1e-300), x


class TestScoreProfile:
    def test_gaussian_location(self):
        prof = score_profile(gaussian(Location(0.0)))
        assert prof.fisher == pytest.approx(1.0, abs=1e-10)
        assert prof.phi(1.3) == pytest.approx(1.3)
        assert prof.monotonicity.verdict is Verdict.INCREASING
        assert abs(prof.zero_crossing) < 1e-9

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_gaussian_scale(self, s):
        prof = score_profile(gaussian(Scale(s)))
        assert prof.fisher == pytest.approx(2.0 / s**2, abs=1e-9)
        assert prof.phi(0.0) == pytest.approx(1.0 / s)
        assert prof.monotonicity.verdict is Verdict.NOT_MONOTONE

    def test_sas_kappa(self):
        prof = score_profile(sas_gaussian(0.0))
        # oracle: closed form quoted for E[X^6/(1+X^2)] under the standard normal
        assert prof.fisher == pytest.approx(KAPPA, abs=1e-9)
        assert prof.fisher == pytest.approx(2.34432, abs=1e-4)
        assert prof.phi(1.0) == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
        assert prof.monotonicity.verdict is Verdict.NOT_MONOTONE
        assert prof.monotonicity.witness == 0.0

    @pytest.mark.parametrize("a,expected", [(3.0, 1.0), (5.0, 1.0 / 3.0)])
    def test_gamma_location(self, a, expected):
        prof = score_profile(gamma(Location(0.0), shape=a))
        assert prof.fisher == pytest.approx(expected, abs=1e-7)
        assert prof.phi(2.0) == pytest.approx((2.0 - (a - 1.0)) / 2.0)
        assert prof.monotonicity.verdict is Verdict.INCREASING

    def test_gamma_location_divergent_fisher(self):
        prof = score_profile(gamma(Location(0.0), shape=1.5))
        assert math.isinf(prof.fisher)

    def test_gamma_scale(self):
        prof = score_profile(gamma(Scale(2.0), shape=3.0))
        assert prof.fisher == pytest.approx(3.0 / 4.0, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_poisson(self, lam):
        prof = score_profile(poisson(lam))
        assert prof.fisher == pytest.approx(1.0 / lam, abs=1e-10)
        assert prof.phi(3.0) == pytest.approx(3.0 / lam - 1.0)
        assert prof.zero_crossing == pytest.approx(lam, abs=1e-9)

    def test_exponential_location_rejected(self):
        with pytest.raises(UnsupportedRole) as err:
            score_profile(exponential(Location(0.0)))
        assert str(err.value) == (
            "exponential with a location role: support depends on the "
            "parameter and the density is positive at its edge"
        )

    def test_exponential_scale(self):
        prof = score_profile(exponential(Scale(2.0)))
        assert prof.fisher == pytest.approx(0.25, abs=1e-10)
        assert prof.monotonicity.verdict is Verdict.DECREASING
        assert prof.zero_crossing == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("fam,expected", [
        # gamma location 1/(a - 2), inf for a < 2: the integral runs in y,
        # where the support edge sits at 0 whatever mu0.
        (gamma(Location(-0.72322), shape=2.371224), 1.0 / (2.371224 - 2.0)),
        (gamma(Location(4.5), shape=2.2), 1.0 / (2.2 - 2.0)),
        (gamma(Location(4.242), shape=1.754), math.inf),
        (gaussian(Location(4.9)), 1.0),
        (gaussian(Location(-4.9), sigma=0.3), 1.0 / 0.09),
        (gamma(Scale(0.25), shape=3.0), 3.0 / 0.25**2),
        (gamma(Scale(4.0), shape=2.5), 2.5 / 4.0**2),
        (exponential(Scale(0.25)), 1.0 / 0.25**2),
        (exponential(Scale(4.0)), 1.0 / 4.0**2),
    ], ids=lambda v: f"{v.name}-{v.role}" if hasattr(v, "role") else None)
    def test_closed_form_fisher_in_shifted_and_scaled_coordinates(self, fam, expected):
        fisher = score_profile(fam).fisher
        if math.isinf(expected):
            assert fisher == expected
        else:
            assert abs(fisher - expected) <= 1e-12 * expected

    def test_fisher_stable_under_tolerance_halving(self):
        for fam in (gaussian(Scale(1.0)), gamma(Location(0.0), shape=3.0), sas_gaussian(0.0)):
            coarse = score_profile(fam, tol=1e-10).fisher
            fine = score_profile(fam, tol=5e-11).fisher
            assert coarse > 0.0
            assert fine == pytest.approx(coarse, rel=1e-6)


class TestExchangingPair:
    def test_gaussian_location(self):
        pair = exchanging_pair(gaussian(Location(0.0)))
        assert pair.f_tilde(3.7) == -1.0
        assert max(map(abs, pair.boundary_values)) < 1e-9

    def test_exponential_scale(self):
        lam = 2.0
        pair = exchanging_pair(exponential(Scale(lam)))
        assert pair.f_tilde(3.0) == pytest.approx(3.0 / lam)
        assert max(map(abs, pair.boundary_values)) < 1e-9

    def test_poisson_exchange_identity_exact(self):
        lam = 2.0
        fam = poisson(lam)
        pair = exchanging_pair(fam)
        w = lambda j: pair.f_tilde(float(j)) * fam.pmf(j)
        for x in range(0, 61):
            lhs = fam.pmf(x) * (x / lam - 1.0)  # d/dlambda of the pmf
            assert abs(lhs - (w(x + 1) - w(x))) < 1e-9

    @pytest.mark.parametrize(
        "fam",
        [geometric(0.25), binomial(6, 0.3)],
        ids=lambda f: f.name,
    )
    def test_discrete_exchange_identity_generic(self, fam):
        theta = fam.role.theta0
        pair = exchanging_pair(fam)
        top = 40 if math.isinf(fam.support_max) else int(fam.support_max)
        w = lambda j: pair.f_tilde(float(j)) * fam.pmf_fn(j, theta) if j <= fam.support_max else 0.0
        for x in range(top + 1):
            step = 1e-7
            lhs = (fam.pmf_fn(x, theta + step) - fam.pmf_fn(x, theta - step)) / (2 * step)
            assert abs(lhs - (w(x + 1) - w(x))) < 1e-8

    @pytest.mark.parametrize(
        "fam",
        [gaussian(Location(0.0)), gaussian(Scale(1.0)), exponential(Scale(1.0)),
         sas_gaussian(0.0), gamma(Scale(1.0), shape=3.0)],
        ids=lambda f: f"{f.name}-{f.role}",
    )
    def test_continuous_exchange_identity(self, fam):
        pair = exchanging_pair(fam)
        theta0 = fam.role.value
        density_at = lambda theta: fam.role.density(fam.base_density, theta)
        for x in (0.3, 0.9, 1.7, 2.5):
            lhs = (density_at(theta0 + 1e-6)(x) - density_at(theta0 - 1e-6)(x)) / 2e-6
            rhs = derivative(lambda y: pair.f_tilde(y) * fam.pdf(y), x)
            assert abs(lhs - rhs) <= 1e-6

    def test_exponential_location_boundary_violation(self):
        # f-tilde * g = -1 at the moving left edge, where the density is positive
        with pytest.raises(BoundaryViolation, match=r"\(-1\.000e\+00, "):
            exchanging_pair(exponential(Location(0.0)), ONE)

    def test_exponential_location_vanishing_f0_passes(self):
        pair = exchanging_pair(exponential(Location(0.0)), linear())
        assert max(map(abs, pair.boundary_values)) < 1e-9
