"""The x-space score, its derivative and f-tilde as first written for each
continuous role, before the roles derived them from the coordinate map and
the base terms.  Tests keep them as an independent reference."""

import math

from steinb.families import sas_transform


def x_space_score(fam):
    """(phi, phi') as functions of x, from L and L' of the base density."""
    L, Lp, theta0 = fam.log_density_derivative, fam.log_density_second_derivative, fam.role.value
    if fam.role.kind == "location":
        return (lambda x: -L(x - theta0)), (lambda x: -Lp(x - theta0))
    if fam.role.kind == "scale":
        return (
            lambda x: 1.0 / theta0 + x * L(theta0 * x),
            lambda x: L(theta0 * x) + theta0 * x * Lp(theta0 * x),
        )

    def phi(x):
        s, c = sas_transform(x, theta0)
        return s / c + c * L(s)

    def phi_prime(x):
        s, c = sas_transform(x, theta0)
        return (1.0 / (c * c) + s * L(s) + c * c * Lp(s)) / math.sqrt(1.0 + x * x)

    return phi, phi_prime


def x_space_f_tilde(fam, f0):
    """f-tilde as a function of x, with f(x; theta) = f0(y(x; theta))."""
    theta0 = fam.role.value
    if fam.role.kind == "location":
        return lambda x: -f0.h(x - theta0)
    if fam.role.kind == "scale":
        return lambda x: (x / theta0) * f0.h(theta0 * x)

    def f_tilde(x):
        s, _ = sas_transform(x, theta0)
        return math.sqrt(1.0 + x * x) * f0.h(s)

    return f_tilde
