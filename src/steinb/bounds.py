"""Variance bounds built from score profiles and exchanging pairs.

For a family with score phi, Fisher information I = E[phi^2], and exchanging
function f-tilde (for the constant test function):

    lower:  ( E[h'(X) f-tilde(X)] )^2 / I          -- no monotonicity needed
    upper:  E[ (h'(X))^2 / (-phi'(X)) * f-tilde(X) ]   -- phi strictly monotone

Discrete families get the lower bound only, evaluated by summation by parts:
the numerator is  sum_x D+h(x-1) f-tilde(x) g(x)  with the boundary term
f-tilde(0) g(0) = 0 checked up front.  (Evaluating D+h at unshifted mass
points, as sometimes quoted for the Poisson, overshoots the true variance:
h = x^2 at rate 1 gives 25 > 11.  The shifted form below yields 9 <= 11.)

Also here: the log-concavity Poincare constant and COMPARATORS, the classical
bounds (Chernoff, Cacoullos, Klaassen) and fixed report flags per (family, role).

A report carries the ground-truth variance, both bounds, comparators and flags,
and nothing else; ``tightness_residual`` is the paper table's equality diagnostic.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .families import (
    ContinuousFamily,
    DiscreteFamily,
    Family,
    Location,
    TestFunction,
    discrete_sums,
    expectation,
    expectation_or_inf,
)
from .numerics import NumericsError, TruncationUnsafe, finite_samples, scan_grid
from .operators import BoundaryViolation, Laws, ScoreProfile, UnsupportedRole
from .records import Record


class NotStronglyUnimodal(Exception):
    """-(log g)'' has no positive infimum; no Poincare constant of the 1/eps form."""


class NotApplicable(Exception):
    """No comparator bounds are catalogued for this family/role."""


class DivergentMoment(Exception):
    """E[h^2] does not exist for this family/test function."""


class Comparator(NamedTuple):
    name: str
    kind: str     # "lower" | "upper"
    value: float  # may be +inf


class PoincareConstant(Record):
    """epsilon, the inf of -(log g)'' over the support, and d = 1 / epsilon."""

    __slots__ = _fields = ("epsilon", "d")

    def __init__(self, epsilon: float, d: float) -> None:
        if not epsilon > 0:
            raise ValueError("epsilon must be > 0 for a finite constant")
        super().__init__(epsilon, d)


class BoundReport(NamedTuple):
    """Lower bound, ground-truth variance (+inf when E[h^2] diverges), upper
    bound, comparators and flags of one (family, test function) pair."""

    lower: float
    variance_truth: float
    upper: float                      # +inf allowed
    comparators: tuple[Comparator, ...] = ()
    flags: tuple[str, ...] = ()
    upper_witness: float | None = None   # where monotonicity failed, if it did

    @property
    def lower_slack(self) -> float:
        return self.variance_truth - self.lower


# --------------------------------------------------------------------------
# Continuous bounds.


def lower_bound(
    fam: Family,
    h: TestFunction,
    *,
    tol: float = 1e-12,
    laws: Laws | None = None,
) -> float:
    """(E[h' f-tilde])^2 / Fisher; returns 0 (vacuous) when Fisher diverges.
    The score profile and exchanging pair come from ``laws`` when given."""
    laws = laws or Laws()
    if fam.is_discrete:
        return discrete_lower_bound(fam, h, tol=tol, laws=laws)
    prof = laws.profile(fam, tol)
    if math.isinf(prof.fisher):
        return 0.0
    pair = laws.pair(fam)
    numerator = expectation(fam, lambda x: h.h_prime(x) * pair.f_tilde(x), tol)
    return numerator * numerator / prof.fisher


def upper_bound(
    fam: ContinuousFamily,
    h: TestFunction,
    *,
    tol: float = 1e-12,
    laws: Laws | None = None,
) -> float:
    """E[(h')^2 / (-phi') * f-tilde], or +inf when the score is not strictly
    monotone (witness available on the profile's certificate) or the
    integral itself diverges.  The score profile and exchanging pair come
    from ``laws`` when given."""
    if fam.is_discrete:
        raise UnsupportedRole("no discrete upper bound is available")
    laws = laws or Laws()
    prof = laws.profile(fam, tol)
    if not prof.monotonicity.strictly_monotone:
        return math.inf
    pair = laws.pair(fam)

    def weight(x: float) -> float:
        hp = h.h_prime(x)
        return hp * hp / (-prof.phi_prime(x)) * pair.f_tilde(x)

    return expectation_or_inf(fam, weight, tol)


def discrete_lower_bound(
    fam: DiscreteFamily,
    h: TestFunction,
    *,
    tol: float = 1e-12,
    laws: Laws | None = None,
    numerator: float | None = None,
) -> float:
    """( sum_x D+h(x-1) f-tilde(x) g(x) )^2 / Fisher, by exact summation by
    parts; ``numerator``, when given, is that sum (``bound_report``'s walk).
    The score profile and exchanging pair come from ``laws`` when given."""
    laws = laws or Laws()
    pair = laws.pair(fam)  # verifies f-tilde * g = 0 at the support edges
    if abs(pair.f_tilde(0.0) * fam.pmf(0)) > 1e-12:
        raise BoundaryViolation("f-tilde * g does not vanish at the origin")
    prof = laws.profile(fam, tol)
    # The x = 0 term is D+h(-1) f-tilde(0) g(0) = 0, checked above.
    if numerator is None:
        numerator = expectation(
            fam, lambda x: h.forward_difference(x - 1) * pair.f_tilde(x), min(tol, 1e-13)
        )
    if math.isinf(prof.fisher):
        return 0.0
    return numerator * numerator / prof.fisher


# --------------------------------------------------------------------------
# Poincare constant.


def poincare_constant(fam: ContinuousFamily) -> PoincareConstant:
    """eps = inf of -(log g0)'' over the support, read as its minimum on a
    2049-point grid; d = 1/eps.

    Raises NotStronglyUnimodal when the infimum is not positive, e.g. for
    exp(-x^4/4) where the curvature vanishes at the origin.
    """
    if not isinstance(fam.role, Location):
        raise UnsupportedRole("the Poincare constant is computed for location families")
    curvature = fam.log_density_second_derivative
    # A wide margin pushes unbounded grids far out (|y| ~ 1e9), so families
    # whose curvature only decays toward an endpoint are still caught.
    xs = scan_grid(fam.base_support, 2049, margin=1e-9)
    epsilon = min((v for _, v in finite_samples(lambda y: -curvature(y), xs)), default=None)
    if epsilon is None:
        raise NotStronglyUnimodal(f"-(log g)'' not evaluable on the support of {fam.name}")
    if epsilon <= 1e-12:
        raise NotStronglyUnimodal(
            f"inf of -(log g)'' is {epsilon:.3e}; {fam.name} is not strongly unimodal"
        )
    return PoincareConstant(epsilon=epsilon, d=1.0 / epsilon)


# --------------------------------------------------------------------------
# Literature comparators.


def _chernoff(fam: Family, h: TestFunction, tol: float) -> list[Comparator]:
    """sigma^2 E[h']^2 <= Var h(X) <= sigma^2 E[h'^2] for a normal law of width sigma."""
    s2 = fam.structural_value("sigma") ** 2
    e_hp = expectation_or_inf(fam, lambda x: h.h_prime(x), tol)
    e_hp2 = expectation_or_inf(fam, lambda x: h.h_prime(x) ** 2, tol)
    return [
        Comparator("chernoff_lower", "lower", 0.0 if math.isinf(e_hp) else e_hp**2 * s2),
        Comparator("chernoff_upper", "upper", e_hp2 * s2),
    ]


def _exponential_uppers(fam: Family, h: TestFunction, tol: float) -> list[Comparator]:
    """Cacoullos and Klaassen, plus the rewrite that needs h''."""
    lam = fam.role.sigma0
    e_hp2 = expectation_or_inf(fam, lambda x: h.h_prime(x) ** 2, tol)
    e_hp = expectation_or_inf(fam, lambda x: h.h_prime(x), tol)
    e_xhp2 = expectation_or_inf(fam, lambda x: x * h.h_prime(x) ** 2, tol)
    var_hp = math.inf if math.isinf(e_hp2) or math.isinf(e_hp) else e_hp2 - e_hp**2
    out = [
        Comparator("cacoullos_upper", "upper", var_hp / lam**2 + e_xhp2 / lam),
        Comparator("klaassen_exp_upper", "upper", 4.0 * e_hp2 / lam**2),
    ]
    if h.h_second is not None:
        e_cross = expectation_or_inf(fam, lambda x: x * h.h_prime(x) * h.h_second(x), tol)
        if math.isinf(e_hp2) or math.isinf(e_cross):
            rewrite = math.inf
        else:
            rewrite = (e_hp2 + 2.0 * e_cross) / lam**2
        out.append(Comparator("exp_rewrite_upper", "upper", rewrite))
    return out


def _klaassen_gamma(fam: Family, h: TestFunction, tol: float, b: float = 1.0) -> list[Comparator]:
    """Klaassen's lower bound for the gamma law of shape a and rate b (1 under location)
    starting at mu0, the support's left edge (0 under scale); a vacuous bound is +0.0."""
    a, mu0 = fam.structural_value("shape"), fam.support.lo
    e_hp = expectation_or_inf(fam, lambda x: h.h_prime(x), tol)
    e_xhp = expectation_or_inf(fam, lambda x: (x - mu0) * h.h_prime(x), tol)
    if math.isinf(e_hp) or math.isinf(e_xhp):
        value = 0.0
    else:
        value = max(0.0, (a - 2.0) / b**2 * e_hp**2, e_xhp**2 / a)
    return [Comparator("klaassen_gamma_lower", "lower", value)]


class ComparatorEntry(NamedTuple):
    """One (family id, role kind) pair's comparator bounds, if any, and report flags."""

    compute: Callable[[Family, TestFunction, float], list[Comparator]] | None = None
    flags: tuple[str, ...] = ()


COMPARATORS: dict[tuple[str, str], ComparatorEntry] = {
    ("gaussian", "location"): ComparatorEntry(_chernoff),
    ("exponential", "scale"): ComparatorEntry(_exponential_uppers),
    ("gamma", "location"): ComparatorEntry(_klaassen_gamma),
    ("gamma", "scale"): ComparatorEntry(
        lambda fam, h, tol: _klaassen_gamma(fam, h, tol, fam.role.sigma0)
    ),
    # The shifted summation-by-parts weights are used here; the unshifted
    # display sometimes quoted for this bound overshoots.
    ("poisson", "theta"): ComparatorEntry(flags=("poisson-display-suspected-typo",)),
}


def _comparator_entry(fam: Family) -> ComparatorEntry:
    return COMPARATORS.get((fam.name, fam.role.kind), ComparatorEntry())


def literature_bounds(fam: Family, h: TestFunction, *, tol: float = 1e-12) -> list[Comparator]:
    """The COMPARATORS bounds of this family/role; a divergent constituent integral
    makes an upper comparator +inf and a lower one the vacuous 0."""
    compute = _comparator_entry(fam).compute
    if compute is None:
        raise NotApplicable(f"no comparator bounds catalogued for {fam.name} as {fam.role.kind}")
    return compute(fam, h, tol)


# --------------------------------------------------------------------------
# Ground truth and report assembly.


def ground_truth_variance(
    fam: Family, h: TestFunction, *, tol: float = 1e-12, moments: Sequence[float] | None = None
) -> float:
    """Var[h(X)] by quadrature/series, or from ``moments`` (E[h^2], E[h]) when
    the caller has summed them, clamped at 0 (E[h^2] - E[h]^2 rounds below 0
    for a constant h); raises DivergentMoment when E[h^2] diverges."""
    try:
        second = moments[0] if moments is not None else expectation_or_inf(fam, lambda x: h.h(x) ** 2, tol)
        if math.isinf(second):
            raise DivergentMoment(f"E[h^2] diverges for {fam.name} with h={h.name}")
        first = moments[1] if moments is not None else expectation_or_inf(fam, h.h, tol)
    except TruncationUnsafe as exc:
        raise DivergentMoment(str(exc)) from exc
    return max(second - first * first, 0.0)


def _discrete_sums(fam: DiscreteFamily, h: TestFunction, tol: float) -> list[float] | None:
    """E[h^2], E[h] and the lower bound's numerator in one walk over the pmf,
    term for term as ``ground_truth_variance`` and ``discrete_lower_bound``
    sum them alone; None when a series fails, so that each, summed alone,
    raises its error in its own place."""
    below: list[float] = []  # h(x - 1), carried from the term before

    def terms(x: int) -> tuple[float, float, float]:
        hx = h.h(x)
        square, g = hx ** 2, fam.pmf(x)
        step = hx - (below.pop() if below else h.h(x - 1))
        below.append(hx)
        return square * g, hx * g, step * fam.exchange_fn(x) * g

    try:
        return discrete_sums(fam, terms, (tol, tol, min(tol, 1e-13)))
    except NumericsError:
        return None


def tightness_residual(
    fam: Family, h: TestFunction, prof: ScoreProfile, variance: float, *, tol: float = 1e-12
) -> float:
    """Normalized L2(g) distance of h from the affine span of the score.

    min over (alpha, beta) of E[(h - alpha*phi - beta)^2] / Var[h]; zero
    exactly when h is proportional to phi up to an additive constant, which
    is the equality case of both bounds.  Only the paper table's equality
    rows compute it.  By the exchange identity E[h phi] = -E[h' f-tilde] it
    is, up to quadrature error, max(lower_slack / variance, 0) of the report.
    """
    if variance <= 1e-300:
        return 0.0
    if math.isinf(prof.fisher):
        return 1.0
    e_phi = expectation(fam, prof.phi, tol)
    e_phi2 = prof.fisher
    var_phi = e_phi2 - e_phi**2
    if var_phi <= 1e-300:
        return 1.0
    e_h_phi = expectation(fam, lambda x: h.h(x) * prof.phi(x), tol)
    e_h = expectation(fam, h.h, tol)
    cov = e_h_phi - e_h * e_phi
    residual = (variance - cov * cov / var_phi) / variance
    return max(residual, 0.0)


def bound_report(
    fam: Family,
    h: TestFunction,
    *,
    tol: float = 1e-12,
    with_comparators: bool = True,
    laws: Laws | None = None,
) -> BoundReport:
    """Assemble variance / lower / upper plus comparators and flags for one
    (family, test function) pair; the variance runs first, so its error wins.
    The family's score profile at tol and its exchanging pair come from
    ``laws``, which the other scenarios of the law share, when given."""
    sums = _discrete_sums(fam, h, tol) if fam.is_discrete else None
    try:
        variance = ground_truth_variance(fam, h, tol=tol, moments=None if sums is None else sums[:2])
    except DivergentMoment:
        variance = math.inf
    flags: list[str] = []
    laws = laws or Laws()
    prof = laws.profile(fam, tol)

    lower = (lower_bound(fam, h=h, tol=tol, laws=laws) if sums is None
             else discrete_lower_bound(fam, h, tol=tol, laws=laws, numerator=sums[2]))
    if math.isinf(prof.fisher):
        flags.append("vacuous-lower")

    witness: float | None = None
    if fam.is_discrete:
        upper = math.inf
        flags.append("discrete-no-upper")
    else:
        upper = upper_bound(fam, h=h, tol=tol, laws=laws)
        if math.isinf(upper):
            if not prof.monotonicity.strictly_monotone:
                witness = prof.monotonicity.witness
                flags.append("upper-infinite")
                if witness is not None:
                    flags.append(f"score-not-monotone-witness={witness!r}")
            else:
                flags.append("upper-divergent")
    flags.extend(_comparator_entry(fam).flags)

    comparators: tuple[Comparator, ...] = ()
    if with_comparators:
        try:
            comparators = tuple(literature_bounds(fam, h, tol=tol))
        except NotApplicable:
            pass

    return BoundReport(
        lower=lower,
        variance_truth=variance,
        upper=upper,
        comparators=comparators,
        flags=tuple(flags),
        upper_witness=witness,
    )
