"""The paper table's falsification row and its quadrature work."""

import pytest

from steinb import papertable
from steinb.harness import Scenario, builtin_scenarios

GAUSS_LOC = builtin_scenarios()[0]


def test_the_control_is_the_own_law_suites_x1_check(monkeypatch):
    # The row starts no run of its own under the family's law: it reads the
    # x^1*bump check of the suite that the table's results computed.
    monkeypatch.setattr(papertable, "builtin_scenarios", lambda: [GAUSS_LOC])
    ctx = papertable._Shared(1e-10)
    assert papertable._falsification(ctx)[1]
    result = ctx.results[GAUSS_LOC.scenario_id]
    checks = list(result.identity_checks)
    assert checks[1].test_function.startswith("x^1*bump")
    checks[1] = checks[1]._replace(expectation_value=2e-8)  # above the continuous 1e-8
    ctx.results = {GAUSS_LOC.scenario_id: result._replace(identity_checks=tuple(checks))}
    assert not papertable._falsification(ctx)[1]


@pytest.mark.parametrize("mu0", [1.0, 0.0], ids=["no-perturbation", "perturbed"])
def test_a_law_without_an_own_law_suite_fails_the_row(monkeypatch, mu0):
    # The exponential location law has no score, so its scenario is an error
    # row with no identity checks; shifted off 0 it has no same-support
    # perturbation either (UnsupportedRole).  The row then fails; it does
    # not raise.
    exp_loc = Scenario("exp-loc", "exponential", "location", mu0)
    monkeypatch.setattr(papertable, "builtin_scenarios", lambda: [GAUSS_LOC, exp_loc])
    ctx = papertable._Shared(1e-10)
    assert ctx.results["exp-loc"].error.startswith("UnsupportedRole")
    weakest, passed = papertable._falsification(ctx)
    assert passed is False and weakest > 10.0


def test_paper_table_gk15_cells(count_cells):
    # Cells of both kernels over every row: 1,784 when the falsification
    # control was a run of its own per law and the divergence probe
    # integrated all of its shells.  Lower it when refinement gets cheaper;
    # never raise it silently.
    assert all(row.passed for row in papertable.build_rows())
    assert count_cells() <= 1_518
