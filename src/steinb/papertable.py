"""The worked-example acceptance matrix: every headline number reproduced in
one deterministic pass, with a pass/fail verdict per row.

Targets and tolerances are pinned here; loosening the quadrature tolerance
via --tol propagates into the computations but not into the row tolerances,
so a too-coarse run fails honestly.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Callable, NamedTuple

from . import config
from .bounds import (
    NotStronglyUnimodal,
    bound_report,
    discrete_lower_bound,
    ground_truth_variance,
    poincare_constant,
    tightness_residual,
)
from .families import (
    Family,
    Location,
    Scale,
    binomial,
    exponential,
    family_spec,
    gamma,
    gaussian,
    geometric,
    linear,
    poisson,
    quartic,
    sas_gaussian,
    scaled,
    shifted,
    square,
)
from .harness import (
    ScenarioResult,
    builtin_scenarios,
    builtin_test_functions,
    falsify_identity,
    identity_suite,
    perturbed_law,
    run_scenario,
)
from .operators import Laws, ScoreProfile, comparison_grid, generic_operator_value, make_operator

KAPPA_TARGET = 2.34432  # quoted value of the skew Fisher information


class Row(NamedTuple):
    row_id: str
    description: str
    computed: str
    target: str
    passed: bool


def _close(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


class RowSpec(NamedTuple):
    """One row of the table: what it shows, and how to compute it."""

    row_id: str
    description: str
    target: str
    compute: Callable[["_Shared"], tuple[Any, bool]]   # -> (computed, passed)


class _Shared:
    """What several rows read, computed once, on first use.  ``laws`` holds
    what depends on the law alone (``operators.Laws``), for every row: the
    builtin results, the shifted and scaled reports, and the Fisher, Poisson
    lower-bound and equality rows read one score profile per family spec."""

    def __init__(self, tol: float) -> None:
        self.tol = tol
        self.laws = Laws()

    def profile(self, fam: Family) -> ScoreProfile:
        return self.laws.profile(fam, self.tol)

    @functools.cached_property
    def results(self) -> dict[str, ScenarioResult]:
        return {s.scenario_id: run_scenario(s, tol=self.tol, laws=self.laws) for s in builtin_scenarios()}

    @functools.cached_property
    def invariance(self) -> tuple[tuple[float, bool], tuple[float, bool]]:
        """(worst relative change, passed) of the bounds under h + 3 and under 2.5 h,
        against the unshifted reports of ``results``."""
        shift_ok, scale_ok = True, True
        worst_shift, worst_scale = 0.0, 0.0
        c = 2.5
        for scenario in builtin_scenarios():
            fam = scenario.build_family()
            h = scenario.build_test_function()
            base = self.results[scenario.scenario_id].report
            rep_shift, rep_scale = (
                bound_report(fam, h2, tol=self.tol, with_comparators=False, laws=self.laws)
                for h2 in (shifted(h, 3.0), scaled(h, c))
            )
            for get in (lambda r: r.lower, lambda r: r.variance_truth, lambda r: r.upper):
                v0, vs, vc = get(base), get(rep_shift), get(rep_scale)
                if math.isinf(v0):
                    shift_ok = shift_ok and math.isinf(vs)
                    scale_ok = scale_ok and math.isinf(vc)
                    continue
                denom = max(1.0, abs(v0))
                worst_shift = max(worst_shift, abs(vs - v0) / denom)
                worst_scale = max(worst_scale, abs(vc - c * c * v0) / max(1.0, c * c * denom))
        return (worst_shift, shift_ok and worst_shift <= 1e-9), (worst_scale, scale_ok and worst_scale <= 1e-9)


def _fisher(row_id: str, description: str, family: Callable[[], Family], target: str,
            expected: float, tol: float) -> RowSpec:
    def compute(ctx: _Shared) -> tuple[Any, bool]:
        fisher = ctx.profile(family()).fisher
        return fisher, _close(fisher, expected, tol)

    return RowSpec(row_id, description, target, compute)


def _divergent_gamma_fisher(ctx: _Shared) -> tuple[Any, bool]:
    fisher = ctx.profile(gamma(Location(0.0), shape=1.5)).fisher
    return fisher, math.isinf(fisher)


def _poisson_lower_linear(lam: float) -> RowSpec:
    def compute(ctx: _Shared) -> tuple[Any, bool]:
        value = discrete_lower_bound(poisson(lam), linear(), tol=ctx.tol, laws=ctx.laws)
        return value, _close(value, lam, 1e-9)

    return RowSpec(f"poisson-lower-linear-{lam:g}",
                   f"Poisson lower bound h=x equals the variance, rate {lam:g}", f"{lam:g} +- 1e-9", compute)


def _poisson_lower_square(ctx: _Shared) -> tuple[Any, bool]:
    fam = poisson(1.0)
    value = discrete_lower_bound(fam, square(), tol=ctx.tol, laws=ctx.laws)
    var = ground_truth_variance(fam, square(), tol=ctx.tol)
    return (value, var), _close(value, 9.0, 1e-8) and _close(var, 11.0, 1e-8) and value <= var


def _exp_sqrt_chain(ctx: _Shared) -> tuple[Any, bool]:
    rep = ctx.results["exp-sca-h-sqrt"].report
    comps = {c.name: c.value for c in rep.comparators}
    chain_ok = (
        _close(rep.lower, math.pi / 16.0, 1e-8)
        and _close(rep.variance_truth, 1.0 - math.pi / 4.0, 1e-8)
        and _close(rep.upper, 0.25, 1e-10)
        and math.isinf(comps["klaassen_exp_upper"])
        and comps["cacoullos_upper"] >= rep.upper
    )
    return (rep.lower, rep.variance_truth, rep.upper, comps["klaassen_exp_upper"]), chain_ok


def _equality(row_id: str, scenario_id: str, expect_upper: bool) -> RowSpec:
    def compute(ctx: _Shared) -> tuple[Any, bool]:
        rep = ctx.results[scenario_id].report
        scenario = next(s for s in builtin_scenarios() if s.scenario_id == scenario_id)
        prof = ctx.profile(scenario.build_family())
        residual = tightness_residual(prof.family, scenario.build_test_function(), prof,
                                      rep.variance_truth, tol=ctx.tol)
        ok = abs(rep.lower - rep.variance_truth) <= 1e-7 and residual <= 1e-9
        if expect_upper:
            ok = ok and abs(rep.upper - rep.variance_truth) <= 1e-7
        return (rep.lower, rep.variance_truth, rep.upper if expect_upper else None, residual), ok

    return RowSpec(row_id, f"Equality case {scenario_id}: h proportional to the score",
                   "|lower - Var| <= 1e-7" + (", |upper - Var| <= 1e-7" if expect_upper else "")
                   + ", residual <= 1e-9", compute)


def _identity_suite(ctx: _Shared) -> tuple[Any, bool]:
    worst_named: tuple[float, str] = (0.0, "-")
    all_pass = True
    for res in ctx.results.values():
        for c in res.identity_checks:
            if abs(c.expectation_value) > worst_named[0]:
                worst_named = (abs(c.expectation_value), f"{c.family}/{c.test_function}")
            all_pass = all_pass and c.passed
    return worst_named, all_pass


def _falsification(ctx: _Shared) -> tuple[Any, bool]:
    falsify_ok = True
    weakest = math.inf
    # Once per law of the builtin matrix: the verdict is a min and an and.
    for fam in {family_spec(f): f for f in (s.build_family() for s in builtin_scenarios())}.values():
        try:
            wrong = perturbed_law(fam)
        except Exception:
            falsify_ok = False
            continue
        control = falsify_identity(fam, builtin_test_functions(fam)[1], fam, quad_tol=ctx.tol)
        strongest = max(abs(c.expectation_value) for c in identity_suite(fam, law=wrong, quad_tol=ctx.tol))
        weakest = min(weakest, strongest / control.tolerance)
        falsify_ok = falsify_ok and control.passed and strongest > 10.0 * control.tolerance
    return weakest, falsify_ok


def _closed_vs_generic(ctx: _Shared) -> tuple[Any, bool]:
    agreement_cases = [
        ("gauss-loc", gaussian(Location(0.0))),
        ("gauss-sca", gaussian(Scale(1.0))),
        ("gauss-skew", sas_gaussian(0.0)),
        ("exp-loc", exponential(Location(0.0))),
        ("exp-sca", exponential(Scale(1.0))),
        ("gamma-sca", gamma(Scale(1.0), shape=3.0)),
        ("poisson", poisson(1.0)),
        ("geometric", geometric(0.25)),
        ("binomial", binomial(4, 0.5)),
    ]
    worst_overall = 0.0
    agree = True
    for label, fam in agreement_cases:
        f0 = builtin_test_functions(fam)[1]
        op = make_operator(fam, f0)
        worst = max(
            abs((closed := op(x)) - generic_operator_value(fam, f0, x)) / (1.0 + abs(closed))
            for x in comparison_grid(fam, 200)
        )
        worst_overall = max(worst_overall, worst)
        agree = agree and worst <= 1e-6
    return worst_overall, agree


def _poincare_gauss(s: float) -> RowSpec:
    def compute(ctx: _Shared) -> tuple[Any, bool]:
        pc = poincare_constant(gaussian(Location(0.0), sigma=s))
        return pc.d, _close(pc.d, s * s, 1e-6)

    return RowSpec(f"poincare-gauss-{s:g}", f"Log-concavity constant of the width-{s:g} Gaussian",
                   f"{s*s:g} +- 1e-6", compute)


def _poincare_quartic(ctx: _Shared) -> tuple[Any, bool]:
    try:
        poincare_constant(quartic())
        return "finite constant", False
    except NotStronglyUnimodal:
        return "NotStronglyUnimodal", True


def _skew_upper_witness(ctx: _Shared) -> tuple[Any, bool]:
    rep = ctx.results["gauss-skew-h-linear"].report
    witness_ok = math.isinf(rep.upper) and rep.upper_witness is not None and abs(rep.upper_witness) <= 0.05
    return (rep.upper, rep.upper_witness), witness_ok


ROWS: tuple[RowSpec, ...] = (
    # --- Fisher informations
    _fisher("fisher-gauss-loc", "Gaussian location Fisher information",
            lambda: gaussian(Location(0.0)), "1 +- 1e-8", 1.0, 1e-8),
    *(_fisher(f"fisher-gauss-sca-{s:g}", f"Gaussian scale Fisher information, sigma={s:g}",
              lambda s=s: gaussian(Scale(s)), f"{2/s**2:g} +- 1e-8", 2.0 / s**2, 1e-8)
      for s in (0.5, 1.0, 2.0)),
    _fisher("fisher-gauss-skew", "SAS-Gaussian skewness Fisher information",
            lambda: sas_gaussian(0.0), f"{KAPPA_TARGET} +- 1e-4", KAPPA_TARGET, 1e-4),
    *(_fisher(f"fisher-gamma-loc-a{a:g}", f"Gamma location Fisher information, shape {a:g}",
              lambda a=a: gamma(Location(0.0), shape=a), f"{1/(a-2):.9g} +- 1e-7", 1.0 / (a - 2.0), 1e-7)
      for a in (3.0, 5.0)),
    RowSpec("fisher-gamma-loc-a1.5", "Gamma location Fisher information diverges for shape 1.5",
            "inf (vacuous lower bound)", _divergent_gamma_fisher),
    *(_fisher(f"fisher-gamma-sca-a{a:g}-b{b:g}", f"Gamma scale Fisher information, shape {a:g} rate {b:g}",
              lambda a=a, b=b: gamma(Scale(b), shape=a), f"{a/b**2:g} +- 1e-8", a / b**2, 1e-8)
      for a, b in ((3.0, 1.0), (5.0, 2.0))),
    *(_fisher(f"fisher-poisson-{lam:g}", f"Poisson Fisher information, rate {lam:g}",
              lambda lam=lam: poisson(lam), f"{1/lam:g} +- 1e-9", 1.0 / lam, 1e-9)
      for lam in (0.5, 1.0, 2.0)),
    # --- Poisson lower bounds
    *(_poisson_lower_linear(lam) for lam in (0.5, 1.0, 2.0)),
    RowSpec("poisson-lower-square", "Poisson lower bound h=x^2 at rate 1 (shifted-weight form)",
            "(9, 11) +- 1e-8, bound <= variance", _poisson_lower_square),
    # --- Exponential sqrt chain
    RowSpec("exp-sqrt-chain", "Exponential h=sqrt(x): pi/16 <= 1 - pi/4 <= 1/4; Klaassen diverges",
            "(pi/16, 1-pi/4, 0.25, inf)", _exp_sqrt_chain),
    # --- Equality cases
    _equality("equality-gauss-loc", "gauss-loc-h-linear", True),
    _equality("equality-gauss-sca", "gauss-sca-h-square", False),   # lower only
    _equality("equality-exp-sca", "exp-sca-h-linear", True),
    _equality("equality-gamma-sca", "gamma3-sca-h-linear", True),
    _equality("equality-poisson", "poisson2-h-linear", False),      # no discrete upper
    # --- Identity suite and falsification
    RowSpec("identity-suite", "Stein identity E[T f0] = 0 for every registered (family, role, f0)",
            "worst |E| <= 1e-8 (continuous) / 1e-9 (discrete)", _identity_suite),
    RowSpec("falsification", "Perturbed-law expectations exceed 10x tolerance; controls vanish",
            "min over families of max|E| / tol > 10", _falsification),
    # --- Closed form vs generic quotient
    RowSpec("closed-vs-generic", "Registered operator closed forms match the defining quotient (9 operators)",
            "relative deviation <= 1e-6 on 200-point grids", _closed_vs_generic),
    # --- Poincare constants
    *(_poincare_gauss(s) for s in (0.5, 1.0, 3.0)),
    RowSpec("poincare-quartic", "exp(-x^4/4) has no positive curvature infimum",
            "NotStronglyUnimodal", _poincare_quartic),
    # --- Invariance of the bounds under affine changes of h
    RowSpec("invariance-shift", "Adding a constant to h changes no bound value",
            "relative change <= 1e-9", lambda ctx: ctx.invariance[0]),
    RowSpec("invariance-scale", "Replacing h by c*h multiplies all bound values by c^2",
            "relative deviation <= 1e-9", lambda ctx: ctx.invariance[1]),
    # --- Infinite upper bound with witness
    RowSpec("skew-upper-witness", "Skew score not strictly monotone: infinite upper bound, witness at 0",
            "(inf, ~0)", _skew_upper_witness),
)


def build_rows(tol: float = config.QUAD.request_tol) -> list[Row]:
    shared = _Shared(tol)
    rows = []
    for spec in ROWS:
        computed, passed = spec.compute(shared)
        rows.append(Row(spec.row_id, spec.description, repr(computed), spec.target, bool(passed)))
    return rows


def rows_to_report(rows: list[Row], tol: float) -> dict[str, Any]:
    return {
        "tolerance": tol,
        "all_pass": all(r.passed for r in rows),
        "rows": [
            {
                "id": r.row_id,
                "description": r.description,
                "computed": r.computed,
                "target": r.target,
                "pass": r.passed,
            }
            for r in rows
        ],
    }


def row_ids() -> list[str]:
    """Row identifiers without computing anything (--list)."""
    return [spec.row_id for spec in ROWS]
