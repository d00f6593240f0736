"""Variance bounds built from score profiles and exchanging pairs.

For a family with score phi, Fisher information I = E[phi^2], and exchanging
function f-tilde (for the constant test function):

    lower:  ( E[h'(X) f-tilde(X)] )^2 / I          -- no monotonicity needed
    upper:  E[ (h'(X))^2 / (-phi'(X)) * f-tilde(X) ]   -- phi strictly monotone

Discrete families get the lower bound only, evaluated by summation by parts:
the numerator is  sum_x D+h(x-1) f-tilde(x) g(x)  with the boundary term
f-tilde(0) g(0) = 0 checked by ``exchanging_pair``.  (Evaluating D+h at
unshifted mass points, as sometimes quoted for the Poisson, overshoots the
true variance: h = x^2 at rate 1 gives 25 > 11.  The shifted form yields
9 <= 11.)

Also here: the log-concavity Poincare constant and COMPARATORS, the classical
bounds (Chernoff, Cacoullos, Klaassen) and fixed report flags per (family, role).

A report carries the ground-truth variance, both bounds, comparators and flags,
and nothing else; ``tightness_residual`` is the paper table's equality diagnostic.

Every expectation here is a named moment of ``families.MOMENTS``, the same
integrand on both supports, taken through ``families._expectations``.  A
report's expectations (E[h^2], E[h], the lower bound's numerator, the upper
bound's integral and the comparators' moments) are one request: one shared
run in y for a continuous family, one walk over the pmf for a discrete one.
A lone bound (``lower_bound``, ``upper_bound``) is a lone moment, taken
alone (a one-component run or a one-sum walk), and so is a moment the run
ejects, so every +-inf verdict, ``levels`` list and error is that path's.
The Fisher information is the score profile's, which the report's law
shares: a closed form for every catalogue law (``operators.FISHER``).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .families import (
    MOMENTS,
    ContinuousFamily,
    DiscreteFamily,
    Family,
    Location,
    Request,
    TestFunction,
    _expectations,
)
from .numerics import TruncationUnsafe, finite_samples, scan_grid
from .operators import Laws, ScoreProfile, UnsupportedRole
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
# The paper's bounds, on both supports.

# How a report takes E[h^2] and E[h] alone (``families._expectations``).
VARIANCE: Request = {"h2": True, "h": True}


def lower_bound(
    fam: Family,
    h: TestFunction,
    *,
    tol: float = 1e-12,
    laws: Laws | None = None,
) -> float:
    """(E[h' f-tilde])^2 / Fisher, the numerator summed by parts on a
    discrete law; returns 0 (vacuous) when Fisher diverges.  The score
    profile and exchanging pair come from ``laws`` when given."""
    laws = laws or Laws()
    prof = laws.profile(fam, tol)
    if math.isinf(prof.fisher):
        return 0.0
    laws.pair(fam)  # verifies f-tilde * g = 0 at the support edges
    numerator = _expectations(fam, h, {"lower": False}, tol)("lower")
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
    if not laws.profile(fam, tol).monotonicity.strictly_monotone:
        return math.inf
    laws.pair(fam)  # verifies f-tilde * g = 0 at the support edges
    return _expectations(fam, h, {"upper": True}, tol)("upper")


def discrete_lower_bound(fam: DiscreteFamily, h: TestFunction, *, tol: float = 1e-12,
                         laws: Laws | None = None) -> float:
    """``lower_bound``, under the name ``perfbench/tracing.py`` wraps as a layer."""
    return lower_bound(fam, h, tol=tol, laws=laws)


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

Lookup = Callable[[str], float]   # a moment's value by name (``_expectations``)


def _chernoff(fam: Family, h: TestFunction, e: Lookup) -> list[Comparator]:
    """sigma^2 E[h']^2 <= Var h(X) <= sigma^2 E[h'^2] for a normal law of width sigma."""
    s2 = fam.structural_value("sigma") ** 2
    e_hp = e("hp")
    e_hp2 = e("hp2")
    return [
        Comparator("chernoff_lower", "lower", 0.0 if math.isinf(e_hp) else e_hp**2 * s2),
        Comparator("chernoff_upper", "upper", e_hp2 * s2),
    ]


def _exponential_uppers(fam: Family, h: TestFunction, e: Lookup) -> list[Comparator]:
    """Cacoullos and Klaassen, plus the rewrite that needs h''."""
    lam = fam.role.sigma0
    e_hp2 = e("hp2")
    e_hp = e("hp")
    e_xhp2 = e("x_hp2")
    var_hp = math.inf if math.isinf(e_hp2) or math.isinf(e_hp) else e_hp2 - e_hp**2
    out = [
        Comparator("cacoullos_upper", "upper", var_hp / lam**2 + e_xhp2 / lam),
        Comparator("klaassen_exp_upper", "upper", 4.0 * e_hp2 / lam**2),
    ]
    if h.h_second is not None:
        e_cross = e("x_hp_hpp")
        if math.isinf(e_hp2) or math.isinf(e_cross):
            rewrite = math.inf
        else:
            rewrite = (e_hp2 + 2.0 * e_cross) / lam**2
        out.append(Comparator("exp_rewrite_upper", "upper", rewrite))
    return out


def _klaassen_gamma(fam: Family, h: TestFunction, e: Lookup, b: float = 1.0) -> list[Comparator]:
    """Klaassen's lower bound for the gamma law of shape a and rate b (1 under location)
    starting at mu0, the support's left edge (0 under scale); a vacuous bound is +0.0."""
    a = fam.structural_value("shape")
    e_hp = e("hp")
    e_xhp = e("edge_hp")  # E[(x - mu0) h']
    if math.isinf(e_hp) or math.isinf(e_xhp):
        value = 0.0
    else:
        value = max(0.0, (a - 2.0) / b**2 * e_hp**2, e_xhp**2 / a)
    return [Comparator("klaassen_gamma_lower", "lower", value)]


class ComparatorEntry(NamedTuple):
    """One (family id, role kind) pair's comparator bounds, if any, the
    moments they read (each integrated as by expectation_or_inf; one that
    reads h'' only when h has it) and report flags."""

    compute: Callable[[Family, TestFunction, Lookup], list[Comparator]] | None = None
    moments: tuple[str, ...] = ()
    flags: tuple[str, ...] = ()

    def request(self, h: TestFunction) -> Request:
        return {name: True for name in self.moments
                if h.h_second is not None or "hpp" not in MOMENTS[name].reads}


COMPARATORS: dict[tuple[str, str], ComparatorEntry] = {
    ("gaussian", "location"): ComparatorEntry(_chernoff, ("hp", "hp2")),
    ("exponential", "scale"): ComparatorEntry(_exponential_uppers, ("hp2", "hp", "x_hp2", "x_hp_hpp")),
    ("gamma", "location"): ComparatorEntry(_klaassen_gamma, ("hp", "edge_hp")),
    ("gamma", "scale"): ComparatorEntry(
        lambda fam, h, e: _klaassen_gamma(fam, h, e, fam.role.sigma0), ("hp", "edge_hp")
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
    entry = _comparator_entry(fam)
    if entry.compute is None:
        raise NotApplicable(f"no comparator bounds catalogued for {fam.name} as {fam.role.kind}")
    return entry.compute(fam, h, _expectations(fam, h, entry.request(h), tol))


# --------------------------------------------------------------------------
# Ground truth and report assembly.


def _variance(fam: Family, h: TestFunction, e: Lookup) -> float:
    """E[h^2] - E[h]^2 clamped at 0 (it rounds below 0 for a constant h),
    from ``e``; DivergentMoment when E[h^2] diverges or its series cannot
    be truncated safely."""
    try:
        second = e("h2")
        if math.isinf(second):
            raise DivergentMoment(f"E[h^2] diverges for {fam.name} with h={h.name}")
        first = e("h")
    except TruncationUnsafe as exc:
        raise DivergentMoment(str(exc)) from exc
    return max(second - first * first, 0.0)


def ground_truth_variance(fam: Family, h: TestFunction, *, tol: float = 1e-12) -> float:
    """Var[h(X)] by quadrature/series, clamped at 0; raises DivergentMoment
    when E[h^2] diverges."""
    return _variance(fam, h, _expectations(fam, h, VARIANCE, tol))


def tightness_residual(
    fam: Family, h: TestFunction, prof: ScoreProfile, variance: float, *, tol: float = 1e-12
) -> float:
    """Normalized L2(g) distance of h from the affine span of the score.

    min over (alpha, beta) of E[(h - alpha*phi - beta)^2] / Var[h]; zero
    exactly when h is proportional to phi up to an additive constant, which
    is the equality case of both bounds.  Only the paper table's equality
    rows compute it.  By the exchange identity E[h phi] = -E[h' f-tilde] it
    is, up to quadrature error, max(lower_slack / variance, 0) of the report.
    Its three expectations are one request: one run or one walk.
    """
    if variance <= 1e-300:
        return 0.0
    if math.isinf(prof.fisher):
        return 1.0
    e = _expectations(fam, h, {"phi": False, "h_phi": False, "h": False}, tol)
    e_phi = e("phi")
    var_phi = prof.fisher - e_phi**2
    if var_phi <= 1e-300:
        return 1.0
    cov = e("h_phi") - e("h") * e_phi
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
    (family, test function) pair.  Errors take precedence as if each stage
    ran alone in turn: the variance, the score profile, the exchanging
    pair, the lower bound, the upper bound, the comparators.  The family's
    score profile at tol and its exchanging pair come from ``laws``, which
    the other scenarios of the law share, when given.

    All the report's expectations (E[h^2], E[h], the lower bound's
    numerator, the upper bound when the score is strictly monotone, and the
    comparators' moments) are one request (``families._expectations``): one
    shared run in y for a continuous family, one walk over the pmf for a
    discrete one, which has no upper bound."""
    laws = laws or Laws()
    entry = _comparator_entry(fam)
    try:
        prof = laws.profile(fam, tol)
        monotone = not fam.is_discrete and prof.monotonicity.strictly_monotone
        if monotone or not math.isinf(prof.fisher):
            laws.pair(fam)  # verifies f-tilde * g = 0 at the support edges
    except Exception:
        try:
            ground_truth_variance(fam, h, tol=tol)  # its error comes first
        except DivergentMoment:
            pass
        raise
    request = dict(VARIANCE)
    if not math.isinf(prof.fisher):
        request["lower"] = False
    if monotone:
        request["upper"] = True
    compare = with_comparators and entry.compute is not None
    if compare:
        request.update(entry.request(h))
    e = _expectations(fam, h, request, tol)
    try:
        variance = _variance(fam, h, e)
    except DivergentMoment:
        variance = math.inf
    if math.isinf(prof.fisher):
        lower = 0.0
    else:
        numerator = e("lower")
        lower = numerator * numerator / prof.fisher
    upper = e("upper") if monotone else math.inf

    flags: list[str] = []
    if math.isinf(prof.fisher):
        flags.append("vacuous-lower")
    witness: float | None = None
    if fam.is_discrete:
        flags.append("discrete-no-upper")
    elif math.isinf(upper):
        if not prof.monotonicity.strictly_monotone:
            witness = prof.monotonicity.witness
            flags.append("upper-infinite")
            if witness is not None:
                flags.append(f"score-not-monotone-witness={witness!r}")
        else:
            flags.append("upper-divergent")
    flags.extend(entry.flags)
    comparators = tuple(entry.compute(fam, h, e)) if compare else ()

    return BoundReport(
        lower=lower,
        variance_truth=variance,
        upper=upper,
        comparators=comparators,
        flags=tuple(flags),
        upper_witness=witness,
    )
