import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from steinb import config, families
from steinb.families import (
    DiscreteFamily,
    InvalidParameter,
    Location,
    Scale,
    binomial,
    bulk_radius,
    bump,
    bump_terms,
    expectation,
    exponential,
    gamma,
    gaussian,
    geometric,
    linear,
    make_family,
    named_test_function,
    poisson,
    polynomial,
    quartic,
    sas_gaussian,
    sas_transform,
    scaled,
    shifted,
    square,
)
from steinb.numerics import Interval, derivative, integrate, scan_grid, sum_series

CONTINUOUS = [
    gaussian(Location(0.0)),
    gaussian(Location(1.5), sigma=0.7),
    gaussian(Scale(0.5)),
    gaussian(Scale(2.0)),
    exponential(Scale(1.0)),
    exponential(Scale(3.0)),
    exponential(Location(0.0)),
    gamma(Scale(1.0), shape=3.0),
    gamma(Scale(2.0), shape=5.0),
    gamma(Location(0.0), shape=1.5),
    sas_gaussian(0.0),
    sas_gaussian(-0.8),
    quartic(),
]

DISCRETE = [
    poisson(0.5),
    poisson(1.0),
    poisson(2.0),
    geometric(0.1),
    geometric(0.25),
    geometric(0.6),
    binomial(4, 0.5),
    binomial(7, 0.2),
    binomial(3, 0.85),
]


@pytest.mark.parametrize("fam", CONTINUOUS, ids=lambda f: f"{f.name}-{f.role}")
def test_density_normalizes(fam):
    mass = integrate(fam.pdf, fam.support, 1e-12).value
    assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("fam", DISCRETE, ids=lambda f: f"{f.name}-{f.role}")
def test_pmf_normalizes(fam):
    # The quiet rule alone ends the series, past the mode (and past n for the
    # binomial, whose pmf is 0 there); expectation takes the same path.
    total = sum_series(lambda x: fam.pmf(x), 0, 1e-14, quiet_from=fam.mode)
    assert total == pytest.approx(1.0, abs=1e-10)
    assert expectation(fam, lambda x: 1.0, 1e-14) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("rate", [150.0, 200.0, 400.0])
def test_large_poisson_expectations_reach_the_bulk(rate):
    # The left tail below the mode is negligible term by term; it must not
    # end the series before the mass is reached.
    fam = make_family("poisson", "theta", rate)
    assert expectation(fam, lambda x: 1.0) == pytest.approx(1.0, rel=1e-10)
    assert expectation(fam, lambda x: x) == pytest.approx(rate, rel=1e-10)


@pytest.mark.parametrize("fam", CONTINUOUS, ids=lambda f: f"{f.name}-{f.role}")
def test_log_derivative_matches_finite_differences(fam):
    L = fam.log_density_derivative
    log_g0 = lambda y: math.log(fam.base_density(y))
    # stay where the base density is comfortably above the underflow floor
    reach = 4.0 if fam.name == "quartic" else 20.0
    interior = Interval(
        max(fam.base_support.lo, -reach) + 0.3, min(fam.base_support.hi, reach) - 0.3
    )
    for y in scan_grid(interior, 64)[::3][:20]:
        assert L(y) == pytest.approx(derivative(log_g0, y), rel=1e-6, abs=1e-6)


def density_at(fam, x, theta):
    """g(x; theta) under the family's parameter role; 0 outside the support."""
    return fam.role.density(fam.base_density, theta)(x)


def pmf_at(fam, x, theta):
    """g(x; theta), 0 off the support {0, ..., N}."""
    return fam.role.mass(fam, x, theta)


class TestDensityExamples:
    def test_gaussian_mode(self):
        fam = gaussian(Location(0.0))
        assert density_at(fam, 0.0, 0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_exponential_rate_two(self):
        # oracle: direct evaluation of lambda * exp(-lambda * x)
        fam = exponential(Scale(2.0))
        assert density_at(fam, 1.0, 2.0) == pytest.approx(2 * math.exp(-2), abs=1e-15)

    def test_sas_at_zero_skew_is_gaussian(self):
        fam = sas_gaussian(0.0)
        base = gaussian(Location(0.0))
        for x in [i / 7.0 - 4 for i in range(57)]:
            assert abs(density_at(fam, x, 0.0) - base.pdf(x)) < 1e-14

    def test_scale_requires_positive_parameter(self):
        fam = exponential(Scale(1.0))
        with pytest.raises(InvalidParameter):
            density_at(fam, 1.0, -2.0)

    @pytest.mark.parametrize("fam", [gaussian(Location(-0.4), sigma=1.3), gaussian(Scale(0.7)),
                                     sas_gaussian(0.6), exponential(Scale(2.0)),
                                     gamma(Location(1.5), shape=2.5), quartic(0.3)],
                             ids=lambda f: f"{f.name}-{f.role}")
    def test_bound_density_is_the_role_density_at_theta0(self, fam):
        for x in [i / 7.0 - 4 for i in range(57)]:
            assert fam.pdf(x) == density_at(fam, x, fam.role.value)


class TestSasTransform:
    @pytest.mark.parametrize(
        "x,delta,expected",
        [
            (0.0, 0.0, (0.0, 1.0)),
            (1.0, 0.0, (1.0, math.sqrt(2))),
            (0.0, 1.0, (1.1752011936438014, 1.5430806348152437)),  # oracle: sinh(1), cosh(1)
        ],
    )
    def test_examples(self, x, delta, expected):
        s, c = sas_transform(x, delta)
        assert s == pytest.approx(expected[0], abs=1e-12)
        assert c == pytest.approx(expected[1], abs=1e-12)

    def test_hyperbolic_identity_on_grid(self):
        for i in range(40):
            for j in range(25):
                x = -10 + 20 * i / 39
                d = -2 + 4 * j / 24
                s, c = sas_transform(x, d)
                assert abs(c * c - s * s - 1.0) < 1e-12 * max(1.0, c * c)

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(-10, 10), delta=st.floats(-2, 2))
    def test_hyperbolic_identity_property(self, x, delta):
        s, c = sas_transform(x, delta)
        assert c >= 1.0
        assert abs(c * c - s * s - 1.0) < 1e-12 * max(1.0, c * c)


class TestPmfExamples:
    def test_poisson(self):
        assert pmf_at(poisson(1.0), 0, 1.0) == pytest.approx(math.exp(-1), abs=1e-15)

    def test_geometric(self):
        # oracle: (1-p)^2 * p
        assert pmf_at(geometric(0.5), 2, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_binomial(self):
        # oracle: C(4,2) / 16
        assert pmf_at(binomial(4, 0.5), 2, 0.5) == pytest.approx(0.375, abs=1e-15)

    def test_off_support(self):
        assert pmf_at(binomial(4, 0.5), 7, 0.5) == 0.0
        assert pmf_at(poisson(1.0), -1, 1.0) == 0.0

    @pytest.mark.parametrize(
        "ctor,bad",
        [
            (poisson, -1.0),
            (poisson, 0.0),
            (geometric, 0.0),
            (geometric, 1.0),
            (lambda p: binomial(4, p), 1.5),
        ],
    )
    def test_invalid_parameters(self, ctor, bad):
        with pytest.raises(InvalidParameter):
            ctor(bad)


class TestFamilyConstruction:
    def test_gamma_location_needs_shape_above_one(self):
        with pytest.raises(InvalidParameter):
            gamma(Location(0.0), shape=0.8)
        gamma(Scale(1.0), shape=0.8)  # scale role tolerates any positive shape

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_gaussian_rejects_a_width_that_is_not_positive_and_finite(self, sigma):
        with pytest.raises(InvalidParameter, match="gaussian width must be finite and > 0"):
            gaussian(Location(0.0), sigma=sigma)

    def test_a_required_structural_constant_must_be_given(self):
        with pytest.raises(InvalidParameter, match="gamma requires a structural 'shape'"):
            make_family("gamma", "scale", 1.0)
        with pytest.raises(InvalidParameter, match="binomial requires a structural 'n'"):
            make_family("binomial", "theta", 0.5)

    def test_gamma_rejects_nonpositive_shape(self):
        with pytest.raises(InvalidParameter):
            gamma(Scale(1.0), shape=0.0)

    def test_exponential_location_flagged(self):
        fam = exponential(Location(0.0))
        assert fam.role.positive_at_moving_edge(fam)
        fam = exponential(Scale(1.0))
        assert not fam.role.positive_at_moving_edge(fam)

    def test_scale_role_validates(self):
        with pytest.raises(InvalidParameter):
            Scale(-1.0)

    def test_registry_roundtrip(self):
        fam = make_family("gamma", "scale", 2.0, shape=3)
        assert fam.name == "gamma" and fam.role == Scale(2.0)
        fam = make_family("binomial", "theta", 0.5, n=4)
        assert fam.support_max == 4.0
        with pytest.raises(InvalidParameter):
            make_family("gaussian", "theta", 1.0)
        with pytest.raises(InvalidParameter):
            make_family("poisson", "scale", 1.0)
        with pytest.raises(InvalidParameter):
            make_family("nope", "scale", 1.0)
        with pytest.raises(InvalidParameter):
            make_family("gaussian", "location", 0.0, shape=3)


class TestTestFunctions:
    @pytest.mark.parametrize("name", ["linear", "square", "sqrt"])
    def test_derivative_consistency(self, name):
        tf = named_test_function(name)
        for x in [0.3, 0.9, 1.7, 3.1]:
            assert tf.h_prime(x) == pytest.approx(derivative(tf.h, x), rel=1e-6)

    def test_forward_difference_exact(self):
        tf = square()
        for x in range(5):
            assert tf.forward_difference(x) == tf.h(x + 1) - tf.h(x)

    def test_polynomial(self):
        tf = polynomial([1.0, -2.0, 0.0, 3.0])
        assert tf.h(2.0) == 1 - 4 + 24
        assert tf.h_prime(2.0) == -2 + 36
        assert tf.h_second(2.0) == 36.0

    def test_scaled_and_shifted(self):
        tf = shifted(scaled(square(), 2.0), 5.0)
        assert tf.h(3.0) == 23.0
        assert tf.h_prime(3.0) == 12.0

    def test_bump_support_and_smoothness(self):
        b = bump(2.0)
        assert b.h(0.0) == pytest.approx(1.0)
        assert b.h(2.0) == 0.0 and b.h(2.5) == 0.0
        assert b.h_prime(1.99) != 0.0 and b.h_prime(2.01) == 0.0
        for x in (0.5, 1.0, 1.5):
            assert b.h_prime(x) == pytest.approx(derivative(b.h, x), rel=1e-5, abs=1e-9)

    def test_bump_terms_are_the_bumps_value_and_slope(self):
        b, terms = bump(2.0), bump_terms(2.0)
        for x in (-2.5, -2.0, -1.9999999, -1.3, 0.0, 0.4, 1.0, 1.99, 2.0, 3.0):
            assert terms(x) == (b.h(x), b.h_prime(x))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            named_test_function("cubic-spline")


class TestExpectation:
    def test_exponential_mean(self):
        assert expectation(exponential(Scale(1.0)), lambda x: x) == pytest.approx(1.0, abs=1e-11)

    def test_binomial_mean_exact_sum(self):
        assert expectation(binomial(4, 0.5), lambda x: x) == pytest.approx(2.0, abs=1e-14)

    def test_bulk_radius_covers_mass(self):
        fam = gaussian(Location(0.0))
        r = bulk_radius(fam)
        tail = integrate(fam.pdf, Interval(r, math.inf), 1e-12).value
        assert tail <= 1e-8

    def test_a_walk_reads_the_exchanging_function_and_the_score_only_where_read(self, monkeypatch):
        # The Fisher walk ("phi2") reads the score alone, the lower bound's
        # numerator ("lower") f-tilde alone, and a walk of both reads each
        # once per term.  Oracle: under Poisson(3), E[phi^2] = 1/3 and, with
        # f-tilde(x) = -x/3 and h = x, sum D+h(x - 1) f-tilde(x) g(x) = -1.
        base = poisson(3.0)
        calls = {"exchange": 0, "score": 0, "terms": 0}

        def counted(key, f):
            def wrapped(*args):
                calls[key] += 1
                return f(*args)
            return wrapped

        fam = DiscreteFamily(base.name, base.role, base.support_max, base.pmf_fn,
                             counted("exchange", base.exchange_fn), counted("score", base.score_fn),
                             base.theta_domain, base.structural, base.mode)
        monkeypatch.setattr(families, "sum_series",
                            lambda f, *args, **kwargs: sum_series(counted("terms", f), *args, **kwargs))
        for request, reads in (({"phi2": False}, {"score"}), ({"lower": False}, {"exchange"}),
                               ({"lower": False, "phi2": False}, {"exchange", "score"})):
            calls.update(exchange=0, score=0, terms=0)
            lookup = families._expectations(fam, linear(), request, 1e-12)
            exact = {"phi2": 1.0 / 3.0, "lower": -1.0}
            assert [lookup(name) for name in request] == pytest.approx([exact[name] for name in request])
            assert calls["terms"] > 20
            assert calls["exchange"] == (calls["terms"] if "exchange" in reads else 0)
            assert calls["score"] == (calls["terms"] if "score" in reads else 0)

    def test_bulk_radius_walk_stops_at_the_series_cap(self, monkeypatch):
        # 1 - 1e-8 of geometric(1e-3)'s mass needs about 18,400 terms.
        monkeypatch.setattr(config, "SERIES", config.SERIES._replace(max_terms=100))
        assert bulk_radius(geometric(1e-3)) == 100.0


# (family, its base law g0 with scipy's sf / cdf): the radius is read in the
# base coordinate y, so the role's parameter does not enter it.
BULK_LAWS = [
    pytest.param(gaussian(Location(1.5), sigma=0.7), stats.norm(scale=0.7), id="gaussian-loc"),
    pytest.param(gaussian(Scale(0.5), sigma=2.0), stats.norm(scale=2.0), id="gaussian-scale"),
    pytest.param(exponential(Scale(3.0)), stats.expon(), id="exponential-scale"),
    pytest.param(gamma(Location(-1.0), shape=1.5), stats.gamma(1.5), id="gamma1.5-loc"),
    pytest.param(gamma(Location(2.0), shape=9.0), stats.gamma(9.0), id="gamma9-loc"),
    pytest.param(gamma(Scale(2.0), shape=0.3), stats.gamma(0.3), id="gamma0.3-scale"),
    pytest.param(gamma(Scale(1.0), shape=1.5), stats.gamma(1.5), id="gamma1.5-scale"),
    pytest.param(gamma(Scale(0.5), shape=9.0), stats.gamma(9.0), id="gamma9-scale"),
    pytest.param(sas_gaussian(1.0), stats.norm(), id="sas+1"),
    pytest.param(sas_gaussian(-1.0), stats.norm(), id="sas-1"),
    pytest.param(quartic(0.5), stats.gennorm(4.0, scale=4.0**0.25), id="quartic"),
]


@pytest.mark.parametrize("eps", [1e-8, 1e-12])
@pytest.mark.parametrize("fam,law", BULK_LAWS)
def test_bulk_radius_is_the_tightest_bisection_point(fam, law, eps):
    # oracle: scipy.stats tails of the base law at +-r.  R comes from
    # doubling up to a power of two r, then 30 halvings of [r/2, r]; the
    # point just below R is the last one the bisection rejected, so its mass
    # outside must exceed eps.
    radius = bulk_radius(fam, eps)

    def outside(r):
        return law.sf(r) + law.cdf(-r)

    r = 2.0 ** math.ceil(math.log2(radius))
    assert outside(radius) <= eps
    assert outside(radius - r / 2**31) > eps

