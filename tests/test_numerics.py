import heapq
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from steinb import config, numerics, vectorquad
from steinb.families import (
    Location, Scale, expectation, exponential, gamma, gaussian, geometric, quartic, regularized_gamma,
    sas_gaussian,
)
from steinb.numerics import (
    Interval,
    NonConvergence,
    NonFinite,
    NumericsError,
    QuadResult,
    TruncationUnsafe,
    Verdict,
    derivative,
    integrate,
    integrate_detecting_divergence,
    monotonicity_scan,
    scan_grid,
    sum_series,
)
from steinb.vectorquad import integrate_vector, integrate_vector_or_eject

SQRT_PI = 1.7724538509055159  # oracle: math.sqrt(math.pi)


def _set_budget(monkeypatch, subdivisions):
    monkeypatch.setattr(config, "QUAD", config.QUAD._replace(max_subdivisions=subdivisions))


class TestInterval:
    def test_endpoints(self):
        iv = Interval(-math.inf, math.inf)
        assert not iv.bounded
        assert Interval(0.0, 1.5).bounded

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_rejects_bad_endpoints(self, lo, hi):
        with pytest.raises(ValueError):
            Interval(lo, hi)


class TestIntegrate:
    def test_exponential(self):
        r = integrate(lambda x: math.exp(-x), Interval.half_line(0.0), 1e-12)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        assert r.evaluations > 0

    def test_normal_second_moment(self):
        phi = lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi)
        r = integrate(lambda x: x * x * phi(x), Interval.real_line(), 1e-12)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_integrable_endpoint_singularity(self):
        # Gamma(1/2): cross-checked against the closed form and scipy below.
        r = integrate(lambda x: math.exp(-x) / math.sqrt(x), Interval.half_line(0.0), 1e-10)
        assert r.value == pytest.approx(SQRT_PI, abs=1e-9)

    def test_against_scipy_oracle(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        for fn, iv in [
            (lambda x: math.exp(-x) / math.sqrt(x), (0.0, math.inf)),
            (lambda x: math.exp(-x * x) * math.cos(3 * x), (-math.inf, math.inf)),
            (lambda x: x**3 * math.exp(-2 * x), (0.0, math.inf)),
        ]:
            expected, _ = scipy_integrate.quad(fn, *iv)
            got = integrate(fn, Interval(*iv), 1e-11).value
            assert got == pytest.approx(expected, abs=1e-8)

    def test_nonconvergence_carries_partial_result(self, monkeypatch):
        _set_budget(monkeypatch, 50)
        with pytest.raises(NonConvergence) as err:
            integrate(lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12)
        assert err.value.value > 0
        assert err.value.abs_error_estimate > 1e-12

    def test_nonconvergence_levels_are_shorter_runs(self, monkeypatch):
        # Refinement is deterministic, so the partial results at a quarter and
        # at half of the budget are what runs with those budgets end on.
        f, iv = (lambda x: 1.0 / x), Interval(0.0, 1.0)
        ends = []
        for subdivisions in (12, 25, 50):
            _set_budget(monkeypatch, subdivisions)
            with pytest.raises(NonConvergence) as err:
                integrate(f, iv, 1e-12)
            ends.append((err.value.value, err.value.abs_error_estimate))
        assert len(err.value.levels) == 2
        assert list(err.value.levels) == ends[:2]

    def test_nonfinite_carries_levels_reached(self):
        # Bisection toward 0 reaches x < 1e-250 after the quarter-budget mark
        # (500 splits) and before the half-budget one.
        f = lambda x: math.inf if x < 1e-250 else 1.0 / x
        with pytest.raises(NonFinite) as err:
            integrate(f, Interval(0.0, 1.0), 1e-12)
        assert len(err.value.levels) == 1
        with pytest.raises(NonFinite) as err:
            integrate(lambda x: math.nan, Interval(0.0, 1.0), 1e-12)
        assert err.value.levels == ()

    def test_nonfinite_interior(self):
        bad = lambda x: math.nan if 0.3 < x < 0.6 else 1.0
        with pytest.raises(NonFinite):
            integrate(bad, Interval(0.0, 1.0), 1e-12)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, Interval(0.0, 1.0), 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(-3, 3, allow_nan=False),
        beta=st.floats(-3, 3, allow_nan=False),
    )
    def test_linearity(self, alpha, beta):
        tol = 1e-9
        iv = Interval.half_line(0.0)
        f = lambda x: math.exp(-x)
        g = lambda x: x * math.exp(-2 * x)
        combined = integrate(lambda x: alpha * f(x) + beta * g(x), iv, tol).value
        parts = alpha * integrate(f, iv, tol).value + beta * integrate(g, iv, tol).value
        assert abs(combined - parts) <= 3 * tol

    def test_linearity_on_family_densities(self):
        from steinb.families import Location, Scale, exponential, gamma, gaussian, sas_gaussian

        tol = 1e-10
        pairs = [
            (gaussian(Location(0.0)), sas_gaussian(0.3)),
            (exponential(Scale(1.0)), gamma(Scale(1.0), shape=3.0)),
        ]
        for fam_f, fam_g in pairs:
            iv = fam_f.support
            f, g = fam_f.pdf, fam_g.pdf
            for alpha, beta in ((2.0, -0.5), (-1.25, 3.0)):
                combined = integrate(lambda x: alpha * f(x) + beta * g(x), iv, tol).value
                parts = alpha * integrate(f, iv, tol).value + beta * integrate(g, iv, tol).value
                assert abs(combined - parts) <= 3 * tol


def _reference_safe_eval(f, x, lo, hi):
    """The kernel's node evaluation as a call per node, nudge included."""
    value = numerics._eval_raw(f, x)
    if math.isfinite(value):
        return value
    mid = 0.5 * (lo + hi)
    step = 1e-9 * (hi - lo)
    x2 = x + (step if x < mid else -step)
    value2 = numerics._eval_raw(f, x2)
    if math.isfinite(value2):
        return value2
    raise NonFinite(f"integrand not finite near {x!r}", point=x, observed=value2, components=(0,))


def _reference_gk15(f, lo, hi):
    """The GK15 kernel as first written: center, positive, then negative nodes."""
    xgk, wgk, wg = numerics._XGK, numerics._WGK, numerics._WG
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = _reference_safe_eval(f, center, lo, hi)
    fplus = [_reference_safe_eval(f, center + half * x, lo, hi) for x in xgk[:7]]
    fminus = [_reference_safe_eval(f, center - half * x, lo, hi) for x in xgk[:7]]
    resk = wgk[7] * fc
    resabs = wgk[7] * abs(fc)
    for i in range(7):
        resk += wgk[i] * (fplus[i] + fminus[i])
        resabs += wgk[i] * (abs(fplus[i]) + abs(fminus[i]))
    resg = wg[3] * fc
    for j, i in enumerate((1, 3, 5)):
        resg += wg[j] * (fplus[i] + fminus[i])
    reskh = resk * 0.5
    resasc = wgk[7] * abs(fc - reskh)
    for i in range(7):
        resasc += wgk[i] * (abs(fplus[i] - reskh) + abs(fminus[i] - reskh))
    value = resk * half
    resabs *= abs(half)
    resasc *= abs(half)
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(err, 50.0 * numerics._EPS * resabs)
    return value, err, resabs


def _reference_integrate(f, iv, tol=config.QUAD.request_tol):
    """integrate() as it was before running totals: every cell re-summed with
    math.fsum after every split, and the kernel above."""
    eps = numerics._EPS
    budget = config.QUAD.max_subdivisions
    g, t_lo, t_hi = numerics._transformed(f, iv)
    evaluations = seq = 0
    heap, frozen, levels = [], [], []

    def push(a, b):
        nonlocal evaluations, seq
        v, e, r = _reference_gk15(g, a, b)
        evaluations += 15
        heapq.heappush(heap, (-e, seq, a, b, v, e, r))
        seq += 1

    def totals():
        return tuple(
            math.fsum([c[4 + k] for c in heap] + [cell[k] for cell in frozen]) for k in range(3)
        )

    def target(total_r):
        return max(tol, 100.0 * eps * total_r)

    try:
        width = (t_hi - t_lo) / 8
        for i in range(8):
            push(t_lo + i * width, t_lo + (i + 1) * width)
        splits = 0
        total_v, total_e, total_r = totals()
        while total_e > target(total_r):
            while len(levels) < 2 and splits >= budget * (len(levels) + 1) // 4:
                levels.append((total_v, total_e))
            if not math.isfinite(total_v):
                raise NonConvergence("partial integral overflowed", total_v, total_e, evaluations)
            if splits >= budget:
                raise NonConvergence(
                    f"error {total_e:.3e} above tol {tol:.3e} after {splits} subdivisions",
                    total_v, total_e, evaluations,
                )
            if not heap:
                raise NonConvergence(
                    "interval exhausted below resolution with error above tol",
                    total_v, total_e, evaluations,
                )
            _, _, a, b, v, e, r = heapq.heappop(heap)
            if (b - a) < 1e-300 + 50.0 * eps * max(abs(a), abs(b)):
                frozen.append((v, e, r))
            else:
                mid = 0.5 * (a + b)
                push(a, mid)
                push(mid, b)
                splits += 1
            total_v, total_e, total_r = totals()
    except NumericsError as exc:
        exc.levels = tuple(levels)
        raise
    return QuadResult(value=total_v, abs_error_estimate=total_e, evaluations=evaluations)


def _quad_outcome(quad, f, iv, tol):
    """Everything a caller can see of one run, plus how often f was called,
    as a string: repr makes NaNs compare equal and keeps signed zeros apart."""
    calls = [0]

    def counted(x):
        calls[0] += 1
        return f(x)

    try:
        r = quad(counted, iv, tol)
        seen = ("value", r.value, r.abs_error_estimate, r.evaluations)
    except Exception as exc:  # payload: value, error, evaluations, point, observed, levels
        seen = ("raised", type(exc).__name__, str(exc), sorted(vars(exc).items()))
    return repr((seen, calls[0]))


def _first_cell_node(k):
    """The k-th Kronrod node of the first of the 8 initial cells of (0, 1)."""
    center, half = 0.5 * 0.125, 0.5 * 0.125
    return center + half * numerics._XGK[k]


def _raising_at(node, error, width=0.0):
    def f(x):
        if abs(x - node) <= width:
            raise error("boom")
        return math.exp(-x) / math.sqrt(x)
    return f


class _Inner(NumericsError):
    pass


def _raising_inner(x):
    if x > 0.999:
        raise _Inner("inner integral failed")
    return 1.0 / x


REFERENCE_CASES = [
    # the scipy-oracle integrands
    (lambda x: math.exp(-x) / math.sqrt(x), Interval.half_line(0.0), 1e-11, None),
    (lambda x: math.exp(-x * x) * math.cos(3 * x), Interval.real_line(), 1e-11, None),
    (lambda x: x**3 * math.exp(-2 * x), Interval.half_line(0.0), 1e-11, None),
    # endpoint singularities and divergences
    (lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12, None),
    (lambda x: math.exp(-x) / math.sqrt(x), Interval.half_line(0.0), 1e-10, None),
    (lambda x: math.exp(-x) / (4 * x), Interval.half_line(0.0), 1e-12, None),
    (lambda y: y**-1.5 * math.exp(-y), Interval.half_line(0.0), 1e-12, None),
    (lambda x: math.inf if x < 1e-250 else 1.0 / x, Interval(0.0, 1.0), 1e-12, None),
    (lambda x: math.inf, Interval(0.0, 1.0), 1e-12, None),
    (lambda x: -math.inf, Interval(0.0, 1.0), 1e-12, None),
    (lambda x: math.nan, Interval(0.0, 1.0), 1e-12, None),
    # cancellation: the error mass falls many decades below its start
    (lambda x: math.sin(50 * x), Interval(0.0, 2 * math.pi), 1e-12, None),
    (lambda x: math.sin(50 * x), Interval(0.0, 2 * math.pi), 1e-14, None),
    (lambda x: x * math.exp(-x * x), Interval.real_line(), 1e-12, None),
    (lambda x: x * math.exp(-x * x), Interval.real_line(), 1e-14, None),
    (lambda x: math.sin(50 * x), Interval(0.0, 2 * math.pi), 1e-14, 7),
    (lambda x: x * math.exp(-x * x), Interval.real_line(), 1e-14, 40),
    (lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12, 1),
    (lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12, 3),
    (lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12, 123),
    (lambda x: math.exp(-x) / (4 * x), Interval.half_line(0.0), 1e-12, 0),
    # huge values: the totals overflow, or sit above the running-total guard
    (lambda x: 1e307, Interval(0.0, 1.0), 1e-12, None),
    (lambda x: 1e300 * math.sin(50 * x), Interval(0.0, 2 * math.pi), 1e-12, 60),
    (lambda x: 1e303 / x, Interval(0.0, 1.0), 1e-12, 60),
    # one Kronrod node raises; the nudged retry succeeds, or raises too
    (_raising_at(_first_cell_node(2), OverflowError), Interval(0.0, 1.0), 1e-12, None),
    (_raising_at(_first_cell_node(5), ZeroDivisionError), Interval(0.0, 1.0), 1e-12, None),
    (_raising_at(_first_cell_node(0), ValueError), Interval(0.0, 1.0), 1e-12, None),
    (_raising_at(_first_cell_node(3), OverflowError, 1e-6), Interval(0.0, 1.0), 1e-12, None),
    (_raising_at(_first_cell_node(1), ValueError, 1e-6), Interval(0.0, 1.0), 1e-12, None),
    # a NumericsError of the integrand's own leaves with the run's levels
    (_raising_inner, Interval(0.0, 1.0), 1e-12, None),
]
REFERENCE_IDS = [
    "scipy-sqrt", "scipy-gauss-cos", "scipy-cubic", "reciprocal", "sqrt-singularity", "log",
    "power", "reciprocal-overflowing", "inf", "minus-inf", "nan", "sin50-1e-12", "sin50-1e-14",
    "xgauss-1e-12", "xgauss-1e-14", "sin50-budget7", "xgauss-budget40", "reciprocal-budget1",
    "reciprocal-budget3", "reciprocal-budget123", "log-budget0", "overflowing-total",
    "huge-sin50", "huge-reciprocal", "overflow-node", "zerodiv-node", "valueerror-node",
    "overflow-node-and-nudge", "valueerror-node-and-nudge", "inner-numerics-error",
]


FSUM_CASES = [
    (lambda x: math.sin(50 * x), Interval(0.0, 2 * math.pi), 1e-14),
    (lambda x: x * math.exp(-x * x), Interval.real_line(), 1e-14),
    (lambda x: math.exp(-x * x) * math.cos(3 * x), Interval.real_line(), 1e-12),
    (lambda x: math.exp(-x) / math.sqrt(x), Interval.half_line(0.0), 1e-10),
]


def _assert_totals_are_leaf_fsums(monkeypatch, module, kernel, run):
    """Record every cell of ``module.kernel`` during ``run()``: the value,
    error and mass of each result must be the fsum of its component over
    the leaves of the mesh."""
    cells = {}
    original = getattr(module, kernel)

    def recording(*args):
        lo, hi = args[-2:]
        cells[lo, hi] = original(*args)
        return cells[lo, hi]

    monkeypatch.setattr(module, kernel, recording)
    results = run()
    leaves = [c for (lo, hi), c in cells.items() if (lo, 0.5 * (lo + hi)) not in cells]
    assert len(cells) > 8  # at least one split
    for j, result in enumerate(results):
        assert result.value == math.fsum(c[3 * j] for c in leaves)
        assert result.abs_error_estimate == math.fsum(c[3 * j + 1] for c in leaves)
        assert result.mass == math.fsum(c[3 * j + 2] for c in leaves)
        assert result.evaluations == 15 * len(cells)


class TestRunningTotals:
    @pytest.mark.parametrize("f,iv,tol,budget", REFERENCE_CASES, ids=REFERENCE_IDS)
    def test_same_outcome_as_per_split_fsum(self, monkeypatch, f, iv, tol, budget):
        if budget is not None:
            _set_budget(monkeypatch, budget)
        assert _quad_outcome(integrate, f, iv, tol) == _quad_outcome(_reference_integrate, f, iv, tol)

    @pytest.mark.parametrize("f,iv,tol", FSUM_CASES)
    def test_final_totals_equal_a_full_fsum(self, monkeypatch, f, iv, tol):
        _assert_totals_are_leaf_fsums(monkeypatch, numerics, "_gk15", lambda: [integrate(f, iv, tol)])


def _one_component(f, iv, tol):
    return integrate_vector(lambda x: [f(x)], 1, iv, tol)[0]


class TestVectorKernel:
    @pytest.mark.parametrize("f,iv,tol,budget", REFERENCE_CASES, ids=REFERENCE_IDS)
    def test_one_component_runs_as_integrate(self, monkeypatch, f, iv, tol, budget):
        # Same transforms, rule, heap order, stops, budget and exceptions.
        if budget is not None:
            _set_budget(monkeypatch, budget)
        assert _quad_outcome(_one_component, f, iv, tol) == _quad_outcome(integrate, f, iv, tol)

    @pytest.mark.parametrize("f,iv,tol", FSUM_CASES)
    def test_final_totals_equal_a_full_fsum(self, monkeypatch, f, iv, tol):
        # Two components on the row kernel: f and cos(x) f.
        _assert_totals_are_leaf_fsums(
            monkeypatch, vectorquad, "_gk15_vector",
            lambda: integrate_vector(lambda x: [f(x), math.cos(x) * f(x)], 2, iv, tol))

    @pytest.mark.parametrize("iv", [Interval.real_line(), Interval.half_line(0.5),
                                    Interval(-math.inf, 2.0), Interval(0.0, 1.0)],
                             ids=["real-line", "right-half", "left-half", "bounded"])
    def test_components_match_separate_runs(self, iv):
        fs = [
            lambda x: math.exp(-x * x),
            lambda x: x**4 * math.exp(-x * x),
            lambda x: math.sin(50 * x) * math.exp(-abs(x)),
            lambda x: math.exp(-abs(x)) / (1.0 + x * x),
        ]
        shared = integrate_vector(lambda x: [f(x) for f in fs], len(fs), iv)
        alone = [integrate(f, iv) for f in fs]
        assert {r.evaluations for r in shared} == {shared[0].evaluations}
        assert shared[0].evaluations <= sum(r.evaluations for r in alone)
        for a, b in zip(shared, alone):
            targets = sum(max(1e-12, 100 * numerics._EPS * r.mass) for r in (a, b))
            assert a.abs_error_estimate <= max(1e-12, 100 * numerics._EPS * a.mass)
            assert abs(a.value - b.value) <= targets

    def test_finite_components_keep_their_node_values(self):
        # The center node of the initial cell [0, 0.25] of [-1, 1] is 0.125.
        plain = integrate_vector(lambda x: [x * x, 1.0], 2, Interval(-1.0, 1.0))
        nudged = integrate_vector(lambda x: [x * x, math.inf if x == 0.125 else 1.0], 2, Interval(-1.0, 1.0))
        assert nudged[0] == plain[0]
        assert nudged[1].value == pytest.approx(2.0, abs=1e-14)

    def test_a_component_that_stays_non_finite_raises(self):
        with pytest.raises(NonFinite) as info:
            integrate_vector(lambda x: [1.0, math.nan], 2, Interval(0.0, 1.0))
        assert math.isnan(info.value.observed)

    def test_nonconvergence_names_the_first_unmet_component(self, monkeypatch):
        _set_budget(monkeypatch, 20)
        with pytest.raises(NonConvergence) as info:
            integrate_vector(lambda x: [1.0, 1.0 / x, 1.0 / x], 3, Interval(0.0, 1.0))
        with pytest.raises(NonConvergence) as alone:
            integrate(lambda x: 1.0 / x, Interval(0.0, 1.0))
        assert str(info.value) == str(alone.value)
        assert (info.value.value, info.value.abs_error_estimate) == (alone.value.value, alone.value.abs_error_estimate)
        assert len(info.value.levels) == 2 and info.value.levels == alone.value.levels

    def test_a_total_that_overflows_raises_while_another_component_goes_on(self):
        # resk of the first component overflows to inf in every cell, which
        # meets its (infinite) target; the second, 1/sqrt(x), keeps the run
        # going, so the run raises on the first total that is not finite.
        with pytest.raises(NonConvergence, match="partial integral overflowed") as info:
            integrate_vector(lambda x: [1.5e308, 1.0 / math.sqrt(x)], 2, Interval(0.0, 1.0))
        assert math.isinf(info.value.value)
        # integrate_vector_or_eject leaves both to be integrated alone.
        def rows(live):
            return lambda x, scale=1.0: [(1.5e308, 1.0 / math.sqrt(x))[k] * scale for k in live]

        assert integrate_vector_or_eject(rows, 2, Interval(0.0, 1.0)) == [None, None]

    def test_a_mesh_below_resolution_raises_as_alone(self):
        # A jump inside an interval a few ulps wide: every cell freezes with
        # the jump's error above tol, and the run raises as the jump alone.
        iv = Interval(1.0, 1.0 + 4e-14)

        def jump(x):
            return 1e6 if x > 1.0 + 2e-14 else 0.0

        with pytest.raises(NonConvergence, match="interval exhausted below resolution") as shared:
            integrate_vector(lambda x: [1.0, jump(x)], 2, iv)
        with pytest.raises(NonConvergence, match="interval exhausted below resolution") as alone:
            integrate(jump, iv)
        assert str(shared.value) == str(alone.value)
        assert (shared.value.value, shared.value.abs_error_estimate) == (alone.value.value,
                                                                         alone.value.abs_error_estimate)

    def test_arguments_are_checked(self):
        with pytest.raises(ValueError):
            integrate_vector(lambda x: [1.0], 1, Interval(0.0, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            integrate_vector(lambda x: [], 0, Interval(0.0, 1.0))


def _ladder(f, iv, tol=config.QUAD.request_tol):
    """The three-level detector integrate_detecting_divergence replaced: it ran
    integrate afresh with budgets of a quarter, half and all of the default."""
    full = config.QUAD
    partial_values, partial_errors, last_exc = [], [], None
    try:
        for subdivisions in (full.max_subdivisions // 4, full.max_subdivisions // 2, full.max_subdivisions):
            config.QUAD = full._replace(max_subdivisions=subdivisions)
            try:
                return integrate(f, iv, tol).value
            except NonConvergence as exc:
                partial_values.append(exc.value)
                partial_errors.append(exc.abs_error_estimate)
                last_exc = exc
            except NonFinite as exc:
                if exc.observed is not None and math.isinf(exc.observed):
                    partial_values.append(exc.observed)
                    partial_errors.append(math.inf)
                else:
                    raise
    finally:
        config.QUAD = full
    magnitudes = [abs(v) for v in partial_values]
    growing = (
        magnitudes[0] <= magnitudes[1] <= magnitudes[2]
        and (magnitudes[2] > 1.5 * magnitudes[0] or math.isinf(magnitudes[2]))
    )
    contracted = math.isfinite(partial_errors[2]) and partial_errors[2] <= 0.25 * partial_errors[0]
    if growing and not contracted:
        sign = 1.0
        for v in reversed(partial_values):
            if v != 0.0 and not math.isnan(v):
                sign = math.copysign(1.0, v)
                break
        return sign * math.inf
    raise last_exc


def _outcome(detector, f, iv, tol):
    try:
        return ("value", detector(f, iv, tol))
    except Exception as exc:  # the verdict includes which error ends the call
        return ("raised", type(exc).__name__, str(exc))


def _seen(run):
    """What a caller sees of one integrate() run, apart from its evaluations,
    and the evaluations (None when the outcome carries none)."""
    try:
        r = run()
    except NumericsError as exc:
        payload = dict(vars(exc))
        evaluations = payload.pop("evaluations", None)
        return repr(("raised", type(exc).__name__, str(exc), sorted(payload.items()))), evaluations
    return repr(("value", r.value, r.abs_error_estimate)), r.evaluations


class TestDivergenceDetection:
    @pytest.mark.parametrize(
        "f,iv,tol",
        [
            (lambda x: math.exp(-x) / (4 * x), Interval.half_line(0.0), 1e-12),
            (lambda y: y**-1.5 * math.exp(-y), Interval.half_line(0.0), 1e-12),
            (lambda x: math.exp(-x) / math.sqrt(x), Interval.half_line(0.0), 1e-10),
            (lambda x: math.inf, Interval(0.0, 1.0), 1e-12),
            (lambda x: -math.inf, Interval(0.0, 1.0), 1e-12),
            (lambda x: math.nan, Interval(0.0, 1.0), 1e-12),
            (lambda x: 1.0 / x, Interval(0.0, 1.0), 1e-12),
            (lambda x: math.inf if x < 1e-250 else 1.0 / x, Interval(0.0, 1.0), 1e-12),
            # divergent at the t -> 1 end of the half-line transform
            (lambda x: 1.0 / x, Interval.half_line(1.0), 1e-12),
            (lambda x: -math.exp(-x) / x, Interval.half_line(0.0), 1e-12),
            # convergent: Gamma(0.1), shell ratio 2^-0.1
            (lambda y: y**-0.9 * math.exp(-y), Interval.half_line(0.0), 1e-12),
        ],
        ids=["log", "power", "sqrt-singularity", "inf", "minus-inf", "nan", "reciprocal",
             "reciprocal-overflowing", "reciprocal-half-line", "negative-log", "power-0.9"],
    )
    def test_same_verdict_as_restarted_levels(self, f, iv, tol):
        assert _outcome(integrate_detecting_divergence, f, iv, tol) == _outcome(_ladder, f, iv, tol)

    def test_divergent_call_costs_one_run(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return 1.0 / x

        assert integrate_detecting_divergence(f, Interval(0.0, 1.0), 1e-12) == math.inf
        # The cell at 0 is split from the first split on, so the probe fires
        # on the 30th: 8 initial cells, two per earlier split and the 8
        # deciding shells, 15 Kronrod nodes each; 1/x is finite at every
        # interior node, so there are no nudge retries.
        assert calls[0] <= 15 * (8 + 2 * 29 + 8)

    def test_verdict_carries_its_evaluations(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            return 1.0 / x

        result = integrate(f, Interval(0.0, 1.0), 1e-12, _probe=True)
        assert result.value == math.inf and result.abs_error_estimate == math.inf
        assert result.evaluations == calls[0]

    @pytest.mark.parametrize("shape,fisher", [(1.5, math.inf), (2.0, math.inf), (2.5, 2.0)])
    def test_gamma_location_fisher_information(self, shape, fisher):
        # oracle: the location Fisher information of Gamma(a) is 1/(a - 2)
        # for a > 2 and diverges for a <= 2
        fam = gamma(Location(0.0), shape=shape)
        score = lambda x: (shape - 1.0) / x - 1.0
        integrand = lambda x: score(x) ** 2 * fam.pdf(x)
        got = integrate_detecting_divergence(integrand, fam.support, 1e-12)
        assert got == pytest.approx(fisher, rel=1e-12)
        assert _outcome(integrate_detecting_divergence, integrand, fam.support, 1e-12) == _outcome(
            _ladder, integrand, fam.support, 1e-12
        )

    def test_shells_stop_where_they_meet_the_endpoint(self, monkeypatch):
        # 1 - w/2 rounds to 1 once w <= 2^-53, so from w = 2^-32 on only the
        # 21 shells w = 2^-32 ... 2^-52 are distinct from t = 1; the probe
        # integrates the innermost 8 of them, w = 2^-45 ... 2^-52.
        shells = []
        gk15 = numerics._gk15

        def recording(f, lo, hi):
            shells.append((lo, hi))
            return gk15(f, lo, hi)

        monkeypatch.setattr(numerics, "_gk15", recording)
        _, cells = numerics._probe_endpoint(lambda t: 1.0 / (1.0 - t), 1.0, -1.0, 2.0**-32)
        assert cells == 8
        assert shells == [(1.0 - 2.0**-k, 1.0 - 2.0**-(k + 1)) for k in range(45, 53)]

    def test_only_the_deciding_shells_are_evaluated(self):
        # From w = 2^-32, 40 shells toward t = 0 reach w = 2^-71, and the
        # deciding 8 are w = 2^-64 ... 2^-71.  Here the integrand is not
        # finite beyond t = 2^-60, where only outer shells lie: they are
        # never integrated, so they do not decline the probe.  A deciding
        # shell that raises does.
        outer_nan = lambda t: math.nan if t > 2.0**-60 else 1.0 / t
        assert numerics._probe_endpoint(outer_nan, 0.0, 1.0, 2.0**-32) == (math.inf, 8)
        tail_nan = lambda t: math.nan if t > 2.0**-66 else 1.0 / t
        assert numerics._probe_endpoint(tail_nan, 0.0, 1.0, 2.0**-32) == (None, 1)
        # From w = 2^-50 only 3 shells are distinct from t = 1: too few to
        # decide, so none is integrated.
        assert numerics._probe_endpoint(lambda t: 1.0 / (1.0 - t), 1.0, -1.0, 2.0**-50) == (None, 0)

    @pytest.mark.parametrize(
        "f,iv",
        [
            # x = u^2 makes x^-a shells shrink by 2^(2a - 2) toward t = 0
            # (exp(-x)/sqrt(x) becomes smooth and never calls the probe)
            (lambda x: x**-0.75 * math.exp(-x), Interval.half_line(0.0)),
            (lambda y: y**-0.9 * math.exp(-y), Interval.half_line(0.0)),
            # shells below 1e-15 are 0
            (lambda x: 1.0 / x if x > 1e-15 else 0.0, Interval(0.0, 1.0)),
            # a shell below 1e-15 is not finite, and the run ends NonFinite
            (lambda x: math.inf if x < 1e-15 else 1.0 / x, Interval(0.0, 1.0)),
            # shells toward t = 1 lose their digits before they could decide
            (lambda x: 1.0 / x, Interval.half_line(1.0)),
        ],
        ids=["ratio-0.71", "ratio-0.93", "zero-shell", "nonfinite-shell", "unresolved-shells"],
    )
    def test_declined_probe_leaves_the_run_as_it_was(self, monkeypatch, f, iv):
        probes = []
        probe = numerics._probe_endpoint

        def recording(*args):
            probes.append(probe(*args))
            return probes[-1]

        monkeypatch.setattr(numerics, "_probe_endpoint", recording)
        plain, plain_evaluations = _seen(lambda: integrate(f, iv, 1e-12))
        assert probes == []
        probed, probed_evaluations = _seen(lambda: integrate(f, iv, 1e-12, _probe=True))
        assert len(probes) == 1 and probes[0][0] is None
        assert probed == plain
        if plain_evaluations is not None:
            assert probed_evaluations == plain_evaluations + 15 * probes[0][1]

    def test_log_divergence(self):
        v = integrate_detecting_divergence(
            lambda x: math.exp(-x) / (4 * x), Interval.half_line(0.0), 1e-12
        )
        assert math.isinf(v) and v > 0

    def test_power_divergence(self):
        v = integrate_detecting_divergence(
            lambda y: y**-1.5 * math.exp(-y), Interval.half_line(0.0), 1e-12
        )
        assert math.isinf(v)

    def test_convergent_singularity_returns_value(self):
        v = integrate_detecting_divergence(
            lambda x: math.exp(-x) / math.sqrt(x), Interval.half_line(0.0), 1e-10
        )
        assert v == pytest.approx(SQRT_PI, abs=1e-9)

    @pytest.mark.parametrize("subdivisions", [200, 2000])
    def test_unresolved_convergent_integral_reraises_its_failure(self, monkeypatch, subdivisions):
        # sin(1/x)/x oscillates ever faster toward 0 but converges; no budget
        # resolves it, and the magnitudes of its levels do not grow
        # monotonically, so the run's own NonConvergence comes back.
        _set_budget(monkeypatch, subdivisions)
        f, iv = (lambda x: math.sin(1.0 / x) / x), Interval(-1.0, 1.0)
        with pytest.raises(NonConvergence) as detected:
            integrate_detecting_divergence(f, iv)
        with pytest.raises(NonConvergence) as plain:
            integrate(f, iv)
        got, want = detected.value, plain.value
        assert len(got.levels) == 2
        assert (str(got), got.value, got.abs_error_estimate, got.levels) == (
            str(want), want.value, want.abs_error_estimate, want.levels
        )

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_level_overflowing_gives_signed_inf(self, sign):
        # all three levels end NonFinite(+-inf), with infinite error estimates
        v = integrate_detecting_divergence(lambda x: sign * math.inf, Interval(0.0, 1.0))
        assert v == sign * math.inf


class TestSumSeries:
    def test_poisson_mass(self):
        total = sum_series(lambda x: math.exp(-1 - math.lgamma(x + 1)), 0, 1e-14)
        assert total == pytest.approx(1.0, abs=1e-13)

    def test_poisson_mean(self):
        total = sum_series(
            lambda x: x * math.exp(-2 + x * math.log(2) - math.lgamma(x + 1)), 0, 1e-14
        )
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_geometric_mass_by_the_quiet_rule(self):
        # 64 terms below tol * 1e-3 end the sum; the tail they leave is tiny.
        p = 0.25
        total = sum_series(lambda x: (1 - p) ** x * p, 0, 1e-12)
        assert total == pytest.approx(1.0, abs=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(0.05, 0.95))
    def test_geometric_mass_property(self, p):
        total = sum_series(lambda x: (1 - p) ** x * p, 0, 1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)
        assert expectation(geometric(p), lambda x: 1.0) == pytest.approx(1.0, abs=1e-10)

    def test_truncation_unsafe(self, monkeypatch):
        monkeypatch.setattr(config, "SERIES", config.SERIES._replace(max_terms=10_000))
        with pytest.raises(TruncationUnsafe):
            sum_series(lambda x: 1e-6, 0, 1e-3)

    def test_nonfinite_term(self):
        with pytest.raises(NonFinite):
            sum_series(lambda x: math.nan, 0, 1e-12)


def _ending(run):
    """What a call ends in: its value, or the type and text of its exception."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


# Components for one walk: (term at k, tolerance).  Quiet from the start, so
# it stops after 64 terms, and any term it took past its own stop would move
# its sum; a slow geometric tail; a looser tolerance; NaN from k = 40; +inf
# from k = 20; one that never goes quiet.
_COMPONENTS = (
    (lambda k: 5e-16 * (1.0 + 1.0 / (k + 1)), 1e-12),
    (lambda k: 0.9**k, 1e-14),
    (lambda k: 0.5**k * (k + 1), 1e-8),
    (lambda k: math.nan if k >= 40 else 0.7**k, 1e-14),
    (lambda k: math.inf if k >= 20 else 0.1**k, 1e-14),
    (lambda k: 1e-6, 1e-3),
)


class TestSumSeriesComponents:
    @pytest.fixture(autouse=True)
    def _short_cap(self, monkeypatch):
        monkeypatch.setattr(config, "SERIES", config.SERIES._replace(max_terms=5_000))

    @pytest.mark.parametrize("picked", [
        (0, 1, 2), (1, 0), (2, 1, 0), (0, 3), (3, 0), (4, 3, 1), (3, 4), (1, 5), (5, 1), (0, 4, 5), (2,),
    ])
    def test_a_walk_sums_each_component_as_it_is_summed_alone(self, picked):
        # Each component stops by its own rule at its own tolerance; the walk
        # raises the error of the first component (in index order) that fails.
        terms = [_COMPONENTS[j][0] for j in picked]
        tols = [_COMPONENTS[j][1] for j in picked]
        alone = [_ending(lambda f=f, t=t: sum_series(f, 0, t)) for f, t in zip(terms, tols)]
        walked = _ending(lambda: sum_series(lambda k: [f(k) for f in terms], 0, tols))
        failed = [o for o in alone if isinstance(o, tuple)]
        assert walked == (failed[0] if failed else alone)

    def test_quiet_from_holds_every_component(self):
        terms = (lambda k: 0.0 if k < 100 else 0.5**k, lambda k: 0.5**k)
        walked = sum_series(lambda k: [f(k) for f in terms], 0, (1e-14, 1e-14), quiet_from=120)
        assert walked == [sum_series(f, 0, 1e-14, quiet_from=120) for f in terms]

    def test_an_exception_of_the_terms_propagates(self):
        def terms(k):
            if k == 7:
                raise ZeroDivisionError("float division by zero")
            return (0.5**k, 0.25**k)

        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            sum_series(terms, 0, (1e-14, 1e-14))

    def test_the_scalar_call_is_one_component(self):
        f = _COMPONENTS[1][0]
        assert sum_series(f, 0, 1e-14) == sum_series(lambda k: (f(k),), 0, (1e-14,))[0]
        with pytest.raises(ValueError):
            sum_series(lambda k: (1.0, 1.0), 0, (1e-14, 0.0))


def _relative_error(value, oracle):
    return abs(value - oracle) / oracle


class TestRegularizedGamma:
    SHAPES = (0.25, 0.3, 1.0, 1.5, 2.371, 9.0, 10.0, 50.0)

    @staticmethod
    def _points(a):
        # 1e-3 to a + 60 on a log grid, plus both sides of the a + 1 switch
        n = 80
        grid = [1e-3 * ((a + 60.0) / 1e-3) ** (i / (n - 1)) for i in range(n)]
        switch = a + 1.0
        return grid + [math.nextafter(switch, 0.0), switch, math.nextafter(switch, math.inf)]

    @pytest.mark.parametrize("a", SHAPES)
    def test_matches_scipy(self, a):
        # oracle: scipy.special.gammainc / gammaincc
        for x in self._points(a):
            p, q = regularized_gamma(a, x)
            oracle_p, oracle_q = special.gammainc(a, x), special.gammaincc(a, x)
            assert p + q == pytest.approx(1.0, abs=1e-15)
            # the smaller of the two is a tail value a caller may rely on
            for value, oracle in ((p, oracle_p), (q, oracle_q)):
                if oracle > 1e-300:
                    assert _relative_error(value, oracle) < 1e-12, (a, x, value, oracle)

    def test_edges(self):
        assert regularized_gamma(2.0, 0.0) == (0.0, 1.0)
        assert regularized_gamma(2.0, -1.0) == (0.0, 1.0)
        assert regularized_gamma(2.0, math.inf) == (1.0, 0.0)
        with pytest.raises(ValueError):
            regularized_gamma(0.0, 1.0)


# (family, scipy law of its base coordinate Y, a Y-range reaching far into both tails)
BASE_LAWS = [
    pytest.param(gaussian(Location(0.0)), stats.norm(), (-35.0, 35.0), id="gaussian"),
    pytest.param(gaussian(Scale(1.0), sigma=2.5), stats.norm(scale=2.5), (-85.0, 85.0), id="gaussian-sigma2.5"),
    pytest.param(sas_gaussian(1.0), stats.norm(), (-35.0, 35.0), id="sas-gaussian"),
    pytest.param(exponential(Scale(1.0)), stats.expon(), (-1.0, 650.0), id="exponential"),
    pytest.param(gamma(Scale(1.0), shape=0.3), stats.gamma(0.3), (-1.0, 650.0), id="gamma0.3"),
    pytest.param(gamma(Scale(1.0), shape=1.5), stats.gamma(1.5), (-1.0, 650.0), id="gamma1.5"),
    pytest.param(gamma(Scale(1.0), shape=9.0), stats.gamma(9.0), (-1.0, 650.0), id="gamma9"),
    pytest.param(quartic(), stats.gennorm(4.0, scale=4.0**0.25), (-7.0, 7.0), id="quartic"),
]


class TestBaseTails:
    @pytest.mark.parametrize("fam,law,span", BASE_LAWS)
    def test_tails_match_scipy(self, fam, law, span):
        # oracle: scipy.stats sf / cdf; the relative error is bounded on the
        # tail value itself, which is what bulk_radius compares with eps
        lo, hi = span
        for i in range(401):
            y = lo + (hi - lo) * i / 400
            for value, oracle in ((fam.base_sf(y), law.sf(y)), (fam.base_cdf(y), law.cdf(y))):
                if oracle > 1e-300:
                    assert _relative_error(value, oracle) < 1e-12, (y, value, oracle)
                else:
                    assert value <= 1e-290

    @pytest.mark.parametrize("fam,law,span", BASE_LAWS)
    def test_tails_are_complementary(self, fam, law, span):
        for y in (-3.0, -0.5, 0.0, 0.25, 1.0, 4.0):
            assert fam.base_sf(y) + fam.base_cdf(y) == pytest.approx(1.0, abs=1e-15)


class TestDerivative:
    @pytest.mark.parametrize(
        "fn,x,expected,tol",
        [
            (lambda x: x * x, 3.0, 6.0, 1e-8),
            (math.sinh, 0.0, 1.0, 1e-10),
            (math.log, 2.0, 0.5, 1e-9),
        ],
    )
    def test_examples(self, fn, x, expected, tol):
        assert derivative(fn, x) == pytest.approx(expected, abs=tol)

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(-5, 5), c=st.floats(-2, 2))
    def test_cubic_property(self, x, c):
        f = lambda t: c * t**3 - t
        assert derivative(f, x) == pytest.approx(3 * c * x * x - 1, rel=1e-6, abs=1e-6)

    def test_nonfinite(self):
        with pytest.raises(NonFinite):
            derivative(lambda x: math.sqrt(x), 0.0)


class TestMonotonicityScan:
    def test_increasing(self):
        cert = monotonicity_scan(lambda x: x, lambda x: 1.0, Interval.real_line(), 256)
        assert cert.verdict is Verdict.INCREASING and cert.witness is None

    def test_parabola_witness_near_zero(self):
        cert = monotonicity_scan(lambda x: 1 - x * x, lambda x: -2 * x, Interval.real_line(), 256)
        assert cert.verdict is Verdict.NOT_MONOTONE
        assert abs(cert.witness) < 0.05

    def test_decreasing_half_line(self):
        lam = 2.0
        cert = monotonicity_scan(
            lambda x: (1 - x) / lam, lambda x: -1.0 / lam, Interval.half_line(0.0), 256
        )
        assert cert.verdict is Verdict.DECREASING

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            monotonicity_scan(lambda x: x, lambda x: 1.0, Interval.real_line(), 32)

    def test_all_skipped(self):
        cert = monotonicity_scan(
            lambda x: x, lambda x: math.nan, Interval(0.0, 1.0), 64
        )
        assert cert.verdict is Verdict.NOT_MONOTONE
        assert cert.witness is None and cert.all_skipped

    def test_skipped_samples_recorded(self):
        slope = lambda x: math.nan if x < 0.5 else 1.0
        cert = monotonicity_scan(lambda x: x, slope, Interval(0.0, 1.0), 64)
        assert cert.verdict is Verdict.INCREASING
        assert cert.skipped > 0

    @settings(max_examples=20, deadline=None)
    @given(
        lo=st.floats(-4, 1), width=st.floats(0.5, 4), overlap=st.floats(0.1, 0.4)
    )
    def test_no_contradiction_on_overlaps(self, lo, width, overlap):
        # A globally increasing function must never read as Decreasing on any
        # overlapping pair of subintervals.
        f, fp = (lambda x: x**3 + x), (lambda x: 3 * x * x + 1)
        a = Interval(lo, lo + width)
        b = Interval(lo + overlap * width, lo + (1 + overlap) * width)
        va = monotonicity_scan(f, fp, a, 64).verdict
        vb = monotonicity_scan(f, fp, b, 64).verdict
        assert va is Verdict.INCREASING and vb is Verdict.INCREASING

    def test_fallback_derivative(self):
        cert = monotonicity_scan(lambda x: math.tanh(x), None, Interval(-3.0, 3.0), 64)
        assert cert.verdict is Verdict.INCREASING


class TestFiniteSamples:
    def test_skips_each_failure_and_keeps_grid_order(self):
        failures = {1.0: ZeroDivisionError, 2.0: OverflowError, 3.0: ValueError,
                    4.0: lambda: NonFinite("at 4")}

        def f(x):
            if x in failures:
                raise failures[x]()
            return {5.0: math.nan, 6.0: -math.inf}.get(x, -x)

        xs = [7.0, *(float(i) for i in range(7))]
        assert list(numerics.finite_samples(f, xs)) == [(7.0, -7.0), (0.0, 0.0)]

    def test_other_errors_propagate(self):
        with pytest.raises(TypeError):
            list(numerics.finite_samples(lambda x: x + "", [1.0]))

    @pytest.mark.parametrize(
        "values,bracket",
        [((1.0, 2.0, -1.0, 0.0), (1.0, 2.0)), ((1.0, 2.0, 0.0, -1.0), (2.0, 2.0)),
         ((0.0, 1.0), (0.0, 0.0)), ((-1.0, -2.0, -3.0), None), ((), None)],
    )
    def test_first_sign_change(self, values, bracket):
        assert numerics.first_sign_change(enumerate(values)) == bracket


class TestBisectRoot:
    def test_a_root_at_either_end_is_returned_as_it_is(self):
        assert numerics.bisect_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
        assert numerics.bisect_root(lambda x: x - 3.0, 1.0, 3.0) == 3.0

    def test_a_bracket_without_a_sign_change_is_a_value_error(self):
        with pytest.raises(ValueError, match="root not bracketed"):
            numerics.bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bisection_ends_after_200_halvings(self):
        # From a bracket of width 2e300 the width test needs about 1,050
        # halvings; after the first step's lo = 0, the cap returns the
        # midpoint of [0, 1e300 / 2^199].
        assert numerics.bisect_root(lambda x: x - 1e-20, -1e300, 1e300) == 1e300 / 2**200


class TestScanGrid:
    def test_odd_count_includes_center(self):
        xs = scan_grid(Interval.real_line(), 256)
        assert len(xs) % 2 == 1
        assert 0.0 in xs

    def test_half_line_stays_interior(self):
        xs = scan_grid(Interval.half_line(2.0), 101)
        assert all(x > 2.0 for x in xs)
        assert xs == sorted(xs)


class TestQuadResult:
    def test_invariants(self):
        with pytest.raises(ValueError):
            QuadResult(1.0, -1.0, 10)
        with pytest.raises(ValueError):
            QuadResult(1.0, 0.0, 0)
