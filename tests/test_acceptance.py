"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold (run with -s or -v
to see them).  Tolerances are pinned here and never derived from runtime
configuration.
"""

import json
import math

import pytest

from steinb.bounds import (
    NotStronglyUnimodal,
    discrete_lower_bound,
    poincare_constant,
    tightness_residual,
)
from steinb.families import (
    Location,
    Scale,
    gamma,
    gaussian,
    linear,
    poisson,
    quartic,
    sas_gaussian,
    scaled,
    shifted,
    square,
)
from steinb.harness import (
    builtin_scenarios,
    builtin_test_functions,
    falsify_identity,
    ground_truth_variance,
    perturbed_law,
    run_scenario,
)
from steinb.bounds import bound_report
from steinb.operators import comparison_grid, generic_operator_value, make_operator, score_profile


@pytest.fixture(scope="module")
def matrix():
    """Every builtin scenario, run once at the default tolerance."""
    return {s.scenario_id: run_scenario(s) for s in builtin_scenarios()}


def _ok(label):
    print(f"PASS {label}")


def test_criterion_1_gaussian_fisher():
    assert score_profile(gaussian(Location(0.0))).fisher == pytest.approx(1.0, abs=1e-8)
    for s in (0.5, 1.0, 2.0):
        assert score_profile(gaussian(Scale(s))).fisher == pytest.approx(2.0 / s**2, abs=1e-8)
    kappa = score_profile(sas_gaussian(0.0)).fisher
    assert kappa == pytest.approx(2.34432, abs=1e-4)
    _ok("criterion 1: Gaussian Fisher informations (location 1, scale 2/sigma^2, skew kappa)")


def test_criterion_2_gamma_fisher():
    for a in (3.0, 5.0):
        assert score_profile(gamma(Location(0.0), shape=a)).fisher == pytest.approx(
            1.0 / (a - 2.0), abs=1e-7
        )
    assert math.isinf(score_profile(gamma(Location(0.0), shape=1.5)).fisher)
    for a, b in ((3.0, 1.0), (5.0, 2.0)):
        assert score_profile(gamma(Scale(b), shape=a)).fisher == pytest.approx(a / b**2, abs=1e-8)
    _ok("criterion 2: Gamma Fisher informations (1/(a-2), divergent for a=1.5, a/b^2)")


def test_criterion_3_poisson():
    for lam in (0.5, 1.0, 2.0):
        assert score_profile(poisson(lam)).fisher == pytest.approx(1.0 / lam, abs=1e-9)
        assert discrete_lower_bound(poisson(lam), linear()) == pytest.approx(lam, abs=1e-9)
    bound = discrete_lower_bound(poisson(1.0), square())
    variance = ground_truth_variance(poisson(1.0), square())
    assert bound == pytest.approx(9.0, abs=1e-8)
    assert variance == pytest.approx(11.0, abs=1e-8)
    assert bound <= variance
    _ok("criterion 3: Poisson Fisher 1/lambda and lower bounds (h=x tight, h=x^2 gives 9 <= 11)")


def test_criterion_4_exponential_sqrt_chain(matrix):
    rep = matrix["exp-sca-h-sqrt"].report
    assert rep.lower == pytest.approx(math.pi / 16.0, abs=1e-8)
    assert rep.variance_truth == pytest.approx(1.0 - math.pi / 4.0, abs=1e-8)
    assert rep.upper == pytest.approx(0.25, abs=1e-10)
    comps = {c.name: c.value for c in rep.comparators}
    assert math.isinf(comps["klaassen_exp_upper"])
    assert comps["cacoullos_upper"] >= rep.upper
    _ok("criterion 4: exponential sqrt chain (pi/16, 1-pi/4, 1/4, divergent Klaassen)")


EQUALITY_CASES = (
    ("gauss-loc-h-linear", True),
    ("gauss-sca-h-square", False),
    ("exp-sca-h-linear", True),
    ("gamma3-sca-h-linear", True),
    ("poisson2-h-linear", False),
)


@pytest.mark.parametrize("scenario_id,expect_upper", EQUALITY_CASES)
def test_criterion_5_equality_cases(matrix, scenario_id, expect_upper):
    rep = matrix[scenario_id].report
    assert abs(rep.lower - rep.variance_truth) <= 1e-7
    if expect_upper:
        assert abs(rep.upper - rep.variance_truth) <= 1e-7
    scenario = next(s for s in builtin_scenarios() if s.scenario_id == scenario_id)
    fam, h = scenario.build_family(), scenario.build_test_function()
    assert tightness_residual(fam, h, score_profile(fam), rep.variance_truth) <= 1e-9
    _ok(f"criterion 5: equality case {scenario_id}")


def test_criterion_6_identity_and_falsification(matrix):
    for result in matrix.values():
        assert result.report is not None
        for check in result.identity_checks:
            assert check.passed, (result.scenario_id, check.test_function)
    seen = set()
    for scenario in builtin_scenarios():
        fam = scenario.build_family()
        key = (fam.name, scenario.kind)
        if key in seen:
            continue
        seen.add(key)
        wrong = perturbed_law(fam)
        tolerance = 1e-9 if fam.is_discrete else 1e-8
        fs = builtin_test_functions(fam)
        controls = [falsify_identity(fam, f0, fam) for f0 in fs[:2]]
        assert all(c.passed for c in controls)
        strongest = max(abs(falsify_identity(fam, f0, wrong).expectation_value) for f0 in fs)
        assert strongest > 10.0 * tolerance, key
    _ok("criterion 6: identity suite passes; every family is falsified under a perturbed law")


def test_criterion_7_closed_vs_generic():
    from steinb.families import binomial, exponential, geometric

    cases = [
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
    assert len(cases) == 9
    for fam in cases:
        f0 = builtin_test_functions(fam)[1]
        op = make_operator(fam, f0)
        for x in comparison_grid(fam, 200):
            closed = op(x)
            generic = generic_operator_value(fam, f0, x)
            assert abs(closed - generic) <= 1e-6 * (1.0 + abs(closed)), (fam.name, x)
    _ok("criterion 7: nine registered closed forms match the defining quotient at 1e-6")


def test_criterion_8_poincare():
    for s in (0.5, 1.0, 3.0):
        assert poincare_constant(gaussian(Location(0.0), sigma=s)).d == pytest.approx(
            s * s, abs=1e-6
        )
    with pytest.raises(NotStronglyUnimodal):
        poincare_constant(quartic())
    _ok("criterion 8: Poincare constants sigma^2; quartic density rejected")


def test_criterion_9_invariances():
    c = 2.5
    for scenario in builtin_scenarios():
        fam = scenario.build_family()
        h = scenario.build_test_function()
        base = bound_report(fam, h, with_comparators=False)
        rep_shift = bound_report(fam, shifted(h, 3.0), with_comparators=False)
        rep_scale = bound_report(fam, scaled(h, c), with_comparators=False)
        for get in (lambda r: r.lower, lambda r: r.variance_truth, lambda r: r.upper):
            v0, vs, vc = get(base), get(rep_shift), get(rep_scale)
            if math.isinf(v0):
                assert math.isinf(vs) and math.isinf(vc)
                continue
            assert abs(vs - v0) <= 1e-9 * max(1.0, abs(v0)), scenario.scenario_id
            assert abs(vc - c * c * v0) <= 1e-9 * max(1.0, c * c * abs(v0)), scenario.scenario_id
    _ok("criterion 9: affine-shift invariance and c^2-equivariance across the matrix")


def test_criterion_10_determinism():
    from steinb.papertable import build_rows, row_ids, rows_to_report

    rows = build_rows()
    assert [r.row_id for r in rows] == row_ids()  # --list cannot drift from the table
    first = json.dumps(rows_to_report(rows, 1e-12), sort_keys=True, indent=2)
    second = json.dumps(rows_to_report(build_rows(), 1e-12), sort_keys=True, indent=2)
    assert first == second
    assert json.loads(first)["all_pass"] is True
    _ok("criterion 10: two full paper-table runs emit byte-identical JSON")


def test_paper_table_reuses_its_reports_and_profiles(monkeypatch):
    # The invariance rows read their unshifted reports from the builtin
    # matrix's results, and the table's memo computes one score profile per
    # family spec, which every report and the Fisher, Poisson lower-bound
    # and equality rows read.
    from steinb import bounds, harness, operators, papertable

    reports, profiles = [], []

    def counting(record, fn):
        def wrapper(fam, *args, **kwargs):
            record.append((fam.name, fam.role, fam.structural, args[0].name if args else None))
            return fn(fam, *args, **kwargs)
        return wrapper

    for module in (bounds, harness, papertable):
        monkeypatch.setattr(module, "bound_report", counting(reports, module.bound_report))
    monkeypatch.setattr(operators, "score_profile", counting(profiles, operators.score_profile))
    assert all(row.passed for row in papertable.build_rows())
    scenarios = builtin_scenarios()
    unshifted = [r for r in reports if r[3] in {s.build_test_function().name for s in scenarios}]
    assert len(reports) == 36 and len(unshifted) == len(scenarios)  # the results' own reports only
    # One per distinct spec: the 11 laws of the builtin matrix (whose two
    # exponential scale scenarios share one) and 5 more of the Fisher rows.
    specs = {(name, repr(role), structural) for name, role, structural, _ in profiles}
    assert len(profiles) == len(specs) == 16


def test_criterion_wall_clock(matrix):
    # the scenario matrix itself runs in seconds; guard against regressions
    total = sum(result.wall_time for result in matrix.values())
    assert total < 60.0
    _ok(f"acceptance matrix wall time {total:.1f}s < 60s")
