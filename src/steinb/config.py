"""Default numeric settings, collected so tests and the CLI can override them in one place:
the quadrature's request tolerance and subdivision budget, and the series term cap
(numerics reads the budget and the cap, and families.bulk_radius the cap, when called)."""

from __future__ import annotations

import math
import os
from typing import NamedTuple


class QuadratureDefaults(NamedTuple):
    """Tolerances and budgets for the adaptive quadrature."""

    request_tol: float = 1e-12      # tolerance handed to integrate() by default
    max_subdivisions: int = 2000    # bisection budget before NonConvergence


class SeriesDefaults(NamedTuple):
    """The term cap of infinite-series summation and of the discrete bulk walk."""

    max_terms: int = 10_000_000     # hard cap -> TruncationUnsafe


QUAD = QuadratureDefaults()
SERIES = SeriesDefaults()

TOL_ENV_VAR = "STEINB_TOL"


def resolve_tol(flag_value: float | None = None) -> float:
    """Effective quadrature tolerance: --tol beats STEINB_TOL beats the
    default.  Raises ValueError unless it is a finite number > 0."""
    if flag_value is not None:
        source, tol = "--tol", float(flag_value)
    elif os.environ.get(TOL_ENV_VAR):
        source = TOL_ENV_VAR
        try:
            tol = float(os.environ[TOL_ENV_VAR])
        except ValueError:
            raise ValueError(f"{TOL_ENV_VAR} must be a number, got {os.environ[TOL_ENV_VAR]!r}") from None
    else:
        return QUAD.request_tol
    if not 0 < tol < math.inf:
        raise ValueError(f"{source} must be finite and > 0, got {tol}")
    return tol
