#!/usr/bin/env python3
"""
recurrence_theorem.py

The central implication of the toolkit: a chart whose concircular tensor is
recurrent, nabla C = lambda (x) C with C != 0, is automatically recurrent in
the classical sense, nabla R = lambda (x) R with the SAME one-form, and that
one-form is closed.  Equivalently, the second form mu = (dr - r lambda)/(n(n-1))
vanishes and the chart is semisymmetric.

Two instances:

  ppwave_recurrent  a plane-wave metric where C-recurrence holds with
                    lambda = du.  Its scalar curvature is 0, so C is R node
                    for node and mu is built as ZERO: the chain holds, but
                    trivially.
  dx^2 + x^4 dy^2 + dz^2
                    the case the theorem is about.  r = -4/x^2 is nowhere
                    zero, so C is not R and mu is a nonzero expression; mu
                    vanishes at every point only because lambda_C is
                    d ln|r| = -(2/x) dx.  The chart is built here from
                    expression strings, as a metric file would give it.
"""

import numpy as np

import concirc.expressions as ex
from concirc import (
    MetricChart,
    compute_mu,
    curvature_bundle_at,
    fit_recurrence_form,
    get_builtin,
    verify_theorem,
)

SEED = 5
SAMPLES = 12


def show_one_form(chart, lam):
    parts = []
    for name, comp in zip(chart.coordinates, lam.components):
        # simplified for display only: the form itself is kept as built
        comp = ex.simplify(comp)
        if comp is not ex.ZERO:
            parts.append(f"d{name}" if comp is ex.ONE else f"({ex.to_string(comp)}) d{name}")
    return " + ".join(parts) if parts else "0"


def c_differs_from_r(b):
    """How many components of C are not R's own interned node."""
    pairs = zip(b.concircular.components.flat, b.riemann.components.flat)
    return sum(c is not r for c, r in pairs)


def show_chain(b, pts):
    rep = verify_theorem(b, pts)
    for name, check in rep.checks.items():
        print(f"  {name:<32} max residual {check.max_residual:.2e}  "
              f"{'ok' if check.passed else 'FAILED'}")
    print(f"theorem verified: {rep.passed}")
    return rep


def ppwave():
    print("== ppwave_recurrent: concircular recurrence where r = 0 ==")
    b = curvature_bundle_at(get_builtin("ppwave_recurrent").chart)
    pts = b.chart.sample_points(SEED, SAMPLES)

    fit = fit_recurrence_form(b, "C", pts)
    print(f"fit nabla C = lambda (x) C: residual {fit.max_residual:.2e}, "
          f"{fit.excluded_count} points excluded")
    print(f"lambda = {show_one_form(b.chart, fit.lam)}")
    print(f"r = {ex.to_string(b.scalar_curvature)}; "
          f"C differs from R in {c_differs_from_r(b)} of {b.riemann.components.size} components")

    mu = compute_mu(b, fit.lam)
    print(f"mu = (dr - r lambda)/(n(n-1)) has components "
          f"{[ex.to_string(c) for c in mu.mu.components]}")
    assert show_chain(b, pts).passed


def surface_x4_times_line():
    print("== dx^2 + x^4 dy^2 + dz^2: concircular recurrence where C != R ==")
    coords = ("x", "y", "z")
    g = np.empty((3, 3), dtype=object)
    g[:] = ex.ZERO
    for i, text in enumerate(("1", "x^4", "1")):
        g[i, i] = ex.parse(text, coords)
    chart = MetricChart(
        "surface_x4_times_line", coords, g, {"x": (0.5, 3.0), "y": (-2.0, 2.0), "z": (-2.0, 2.0)}
    )
    b = curvature_bundle_at(chart)
    pts = chart.sample_points(SEED, SAMPLES)

    fit = fit_recurrence_form(b, "C", pts)
    print(f"fit nabla C = lambda (x) C: residual {fit.max_residual:.2e}, "
          f"{fit.excluded_count} points excluded")
    adm = fit.admitted_points
    lamv = b.field_values(fit.lam, adm)
    x = np.array([p["x"] for p in adm])
    gap = np.max(np.abs(lamv - np.stack([-2.0 / x, 0 * x, 0 * x], axis=1)))
    print(f"lambda_C = -(2/x) dx at every sample point: max gap {gap:.2e}")

    print(f"r = {ex.to_string(b.scalar_curvature)}; "
          f"C differs from R in {c_differs_from_r(b)} of {b.riemann.components.size} components")
    mu = compute_mu(b, fit.lam)
    built = sum(c is not ex.ZERO for c in mu.mu.components)
    muv = b.field_values(mu.mu, adm)
    print(f"mu has {built} component(s) not built as ZERO, "
          f"yet max |mu| at the points is {np.max(np.abs(muv)):.2e}")
    rep = show_chain(b, pts)

    np.testing.assert_allclose(gap, 0.0, atol=1e-9)
    assert c_differs_from_r(b) > 0 and built > 0 and rep.passed


def main():
    ppwave()
    print()
    surface_x4_times_line()


if __name__ == "__main__":
    main()
