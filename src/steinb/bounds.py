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

Every expectation of a continuous report is an integral in the base
coordinate y against g0, of an integrand (``MOMENTS``) written once, in y:
f-tilde is dy/dtheta dx/dy and phi'(x) is (dphi/dy) / (dx/dy), so the upper
bound's integrand is h'^2 (dx/dy)^2 dy/dtheta / (-dphi/dy) with one
``from_base`` per node.  A report's expectations (E[h^2], E[h], the lower
bound's numerator, the upper bound's integral and the comparators' moments)
are the components of one shared run (``vectorquad.integrate_vector_or_eject``),
which reads g0, from_base, the role's terms and slope and h, h' once per
node for all of them.  A moment that does not converge with the others is
ejected: one still above its target on a cell the run has split 8 times in a
row at one end of its interval, or one that stays non-finite at a node.
It is integrated alone by the scalar path (``numerics.integrate``, or
``integrate_detecting_divergence`` where a divergent integral is +-inf), as
is a lone moment (``lower_bound``, ``upper_bound``), so every +-inf verdict,
``levels`` list and error is that path's.  The Fisher information stays in
the score profile, which the report's law shares.
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
from .numerics import (
    NumericsError,
    TruncationUnsafe,
    finite_samples,
    integrate,
    integrate_detecting_divergence,
    scan_grid,
)
from .operators import BoundaryViolation, Laws, ScoreProfile, UnsupportedRole
from .records import Record
from .vectorquad import integrate_vector_or_eject


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
# The expectations of a report.
#
# Each is E[m(X)] for an integrand m of one node: the base coordinate y, x,
# h(x), h'(x), h''(x), dx/dy, dy/dtheta, the score phi and dphi/dy (at an
# integer x of a discrete family, y = x and only x, h, h' and phi are read).
# In y, f-tilde (of f0 = 1) is dy/dtheta dx/dy and phi'(x) is
# (dphi/dy) / (dx/dy), so no integrand maps x back to y.

Integrand = Callable[[float, float, float, float, float, float, float, float, float], float]


class Moment(NamedTuple):
    integrand: Integrand   # (y, x, h, h', h'', dx/dy, dy/dtheta, phi, dphi/dy) -> m
    reads: frozenset[str]  # of "h", "hp", "hpp", "terms" (dy/dtheta and phi), "slope"


def _moment(integrand: Integrand, *reads: str) -> Moment:
    return Moment(integrand, frozenset(reads))


MOMENTS: dict[str, Moment] = {
    "h2": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: h ** 2, "h"),
    "h": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: h, "h"),
    # h' f-tilde and h'^2 f-tilde / (-phi').
    "lower": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp * (dy * j), "hp", "terms"),
    "upper": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp * hp * (j * j) * dy / -s,
                     "hp", "terms", "slope"),
    "hp": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp, "hp"),
    "hp2": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: hp ** 2, "hp"),
    "x_hp2": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: x * hp ** 2, "hp"),
    "x_hp_hpp": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: x * hp * hpp, "hp", "hpp"),
    # (x - x(0)) h' for an affine role whose base support starts at y = 0
    # (the gamma roles): x - x(0) = y dx/dy.
    "edge_hp": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: y * j * hp, "hp"),
    "phi": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: phi, "terms"),
    "h_phi": _moment(lambda y, x, h, hp, hpp, j, dy, phi, s: h * phi, "h", "terms"),
}

# A request maps moment names to how each is integrated alone: True as by
# expectation_or_inf (a divergent integral is +-inf), False as by expectation.
Request = dict[str, bool]
VARIANCE: Request = {"h2": True, "h": True}


def _integrand(fam: ContinuousFamily, h: TestFunction, names: str | Sequence[str]) -> Callable:
    """The integrand in y of the named moments, m(node) g0(y): a float for
    one name, a list for a sequence of them, that list times ``scale``, the
    Jacobian of the shared run's change of variable.  g0, from_base, the
    role's terms and slope and h, h', h'' are each read once per node, and
    only when some moment reads them."""
    ms = [MOMENTS[names]] if isinstance(names, str) else [MOMENTS[name] for name in names]
    reads = frozenset().union(*(m.reads for m in ms))
    integrands = [m.integrand for m in ms]
    one = integrands[0] if isinstance(names, str) else None
    zero = 0.0 if one is not None else [0.0] * len(ms)
    g0, from_base = fam.base_density, fam.role.from_base
    hf = h.h if "h" in reads else None
    hpf = h.h_prime if "hp" in reads else None
    hppf = h.h_second if "hpp" in reads else None
    terms = fam.role.base_terms(fam) if "terms" in reads else None
    slopef = fam.role.base_slope(fam) if "slope" in reads else None

    def integrand(y: float, scale: float = 1.0) -> float | list[float]:
        w = g0(y)
        if w == 0.0:
            return zero
        x, j = from_base(y)
        hx = hf(x) if hf is not None else 0.0
        hp = hpf(x) if hpf is not None else 0.0
        hpp = hppf(x) if hppf is not None else 0.0
        dy, phi = terms(y) if terms is not None else (0.0, 0.0)
        s = slopef(y) if slopef is not None else 0.0
        if one is not None:
            return one(y, x, hx, hp, hpp, j, dy, phi, s) * w
        w *= scale
        # Loops, not comprehensions, which would make every local a cell.
        row = []
        try:
            for m in integrands:
                row.append(m(y, x, hx, hp, hpp, j, dy, phi, s) * w)
        except ArithmeticError:
            # Each moment on its own, as numerics._eval_raw: inf where it raised.
            row = []
            for m in integrands:
                row.append(_eval_moment(m, w, (y, x, hx, hp, hpp, j, dy, phi, s)))
        return row

    return integrand


def _eval_moment(m: Integrand, w: float, node: tuple[float, ...]) -> float:
    try:
        return m(*node) * w
    except ArithmeticError:
        return math.inf


def _alone(fam: Family, h: TestFunction, name: str, or_inf: bool, tol: float) -> float:
    """One moment by the scalar path: a series over the pmf, or a quadrature
    in y over the base support, with or without divergence detection."""
    if fam.is_discrete:
        m = MOMENTS[name]
        hf, hpf, score, reads = h.h, h.h_prime, fam.score_fn, m.reads

        def fn(x: float) -> float:
            return m.integrand(x, x, hf(x) if "h" in reads else 0.0, hpf(x) if "hp" in reads else 0.0,
                               0.0, 1.0, 0.0, score(x) if "terms" in reads else 0.0, 0.0)

        return (expectation_or_inf if or_inf else expectation)(fam, fn, tol)
    if or_inf:
        return integrate_detecting_divergence(_integrand(fam, h, name), fam.base_support, tol)
    return integrate(_integrand(fam, h, name), fam.base_support, tol).value


def _expectations(fam: Family, h: TestFunction, request: Request, tol: float) -> Callable[[str], float]:
    """The moments of ``request`` against the family's law, as a lookup by name.

    A continuous family integrates two or more of them in one shared run in
    y over the base support (``integrate_vector_or_eject``).  A moment that
    run ejects, every moment of a shared run that raises, a lone moment and
    a discrete family's moments are each integrated alone by the scalar
    path (``_alone``) on first lookup, so each value, +-inf verdict and
    error is that path's.
    """
    names = list(request)
    known: dict[str, float] = {}
    if not fam.is_discrete and len(names) > 1:
        results = integrate_vector_or_eject(
            lambda live: _integrand(fam, h, [names[k] for k in live]), len(names), fam.base_support, tol)
        known = {name: r.value for name, r in zip(names, results) if r is not None}

    def lookup(name: str) -> float:
        if name not in known:
            known[name] = _alone(fam, h, name, request[name], tol)
        return known[name]

    return lookup


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
    """E[h^2] - E[h]^2 clamped at 0, from ``e``; DivergentMoment when E[h^2]
    diverges or its series cannot be truncated safely."""
    try:
        second = e("h2")
        if math.isinf(second):
            raise DivergentMoment(f"E[h^2] diverges for {fam.name} with h={h.name}")
        first = e("h")
    except TruncationUnsafe as exc:
        raise DivergentMoment(str(exc)) from exc
    return max(second - first * first, 0.0)


def ground_truth_variance(
    fam: Family, h: TestFunction, *, tol: float = 1e-12, moments: Sequence[float] | None = None
) -> float:
    """Var[h(X)] by quadrature/series, or from ``moments`` (E[h^2], E[h]) when
    the caller has summed them, clamped at 0 (E[h^2] - E[h]^2 rounds below 0
    for a constant h); raises DivergentMoment when E[h^2] diverges."""
    if moments is not None:
        return _variance(fam, h, dict(zip(VARIANCE, moments)).__getitem__)
    return _variance(fam, h, _expectations(fam, h, VARIANCE, tol))


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
    For a continuous family its three expectations share one run.
    """
    if variance <= 1e-300:
        return 0.0
    if math.isinf(prof.fisher):
        return 1.0
    e = _expectations(fam, h, {"phi": False, "h_phi": False, "h": False}, tol)
    e_phi = e("phi")
    e_phi2 = prof.fisher
    var_phi = e_phi2 - e_phi**2
    if var_phi <= 1e-300:
        return 1.0
    e_h_phi = e("h_phi")
    e_h = e("h")
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
    (family, test function) pair.  Errors take precedence as if each stage
    ran alone in turn: the variance, the score profile, the exchanging
    pair, the lower bound, the upper bound, the comparators.  The family's
    score profile at tol and its exchanging pair come from ``laws``, which
    the other scenarios of the law share, when given.

    A continuous report integrates all its expectations (E[h^2], E[h], the
    lower bound's numerator, the upper bound when the score is strictly
    monotone, and the comparators' moments) in one shared run in y; see
    ``_expectations``.  A discrete report sums E[h^2], E[h] and the lower
    bound's numerator in one walk (``_discrete_sums``)."""
    laws = laws or Laws()
    entry = _comparator_entry(fam)
    compare = with_comparators and entry.compute is not None
    if fam.is_discrete:
        sums = _discrete_sums(fam, h, tol)
        e = _expectations(fam, h, entry.request(h) if compare else {}, tol)
        try:
            variance = ground_truth_variance(fam, h, tol=tol, moments=None if sums is None else sums[:2])
        except DivergentMoment:
            variance = math.inf
        prof = laws.profile(fam, tol)
        lower = discrete_lower_bound(fam, h, tol=tol, laws=laws, numerator=None if sums is None else sums[2])
        upper = math.inf
    else:
        try:
            prof = laws.profile(fam, tol)
            monotone = prof.monotonicity.strictly_monotone
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
