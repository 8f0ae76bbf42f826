"""The theorem's chain on charts where C is not R: surfaces times flat factors.

On a surface R = (r/2) G, so where r != 0, nabla R = d ln|r| (x) R. A flat
factor keeps that, and C = R - r G / (n(n-1)) is r times a parallel tensor,
so nabla C = lambda (x) C with the same lambda = dr / r, while r != 0 and
C != R. mu = (dr - r lambda) / (n(n-1)) vanishes only by cancellation.
Walker showed that a Riemannian recurrent space that is not locally
symmetric is locally such a product (A. G. Walker, "On Ruse's spaces of
recurrent curvature", Proc. London Math. Soc. (2) 52 (1950) 36-64).

The family is kept here, out of the catalog's builtins.
"""

from fractions import Fraction

import numpy as np
import pytest

import concirc.expressions as ex
from concirc import recurrence
from concirc.catalog import get_builtin
from concirc.geometry import MetricChart, curvature_bundle_at
from concirc.recurrence import (
    _recurrence_form,
    check_lambda_closed,
    check_mu_structure,
    classify,
    compute_mu,
    fit_recurrence_form,
    verify_theorem,
)
from reference import exterior_derivative_one_form_at

X_RANGE = (0.5, 3.0)


def _chart(name, coords, diagonal, domain=None):
    """Diagonal metric from expression strings; x in X_RANGE, the rest in (-2, 2)."""
    n = len(coords)
    g = np.empty((n, n), dtype=object)
    g[:] = ex.ZERO
    for i, text in enumerate(diagonal):
        g[i, i] = ex.parse(text, coords)
    if domain is None:
        domain = {c: X_RANGE if c == "x" else (-2.0, 2.0) for c in coords}
    return MetricChart(name, tuple(coords), g, domain)


def _quadratic_warp(rng):
    """h = a + b x + c x^2 with exact-rational coefficients, c != 0 and
    h >= 1/2 on X_RANGE, so K = -2c/h is nowhere zero there."""
    c = Fraction(int(rng.choice([-2, -1, 1, 2])), int(rng.integers(1, 4)))
    b = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
    lo, hi = (Fraction(v).limit_denominator() for v in X_RANGE)
    candidates = [lo, hi] + ([-b / (2 * c)] if lo < -b / (2 * c) < hi else [])
    low = min(b * x + c * x * x for x in candidates)
    a = Fraction(1, 2) - low + int(rng.integers(0, 3))
    return f"({a}) + ({b})*x + ({c})*x^2"


def warped_product(seed: int) -> MetricChart:
    """dx^2 + h(x)^2 dy^2 times a flat factor of dimension 1 or 2; every
    third seed, from 0, has a timelike flat coordinate t instead."""
    rng = np.random.default_rng(seed)
    warp = f"({_quadratic_warp(rng)})^2"
    if seed % 3 == 0:
        return _chart(f"warped_{seed}", ("t", "x", "y"), ("-1", "1", warp))
    flat = ("z", "w")[: int(rng.integers(1, 3))]
    return _chart(f"warped_{seed}", ("x", "y") + flat, ("1", warp) + ("1",) * len(flat))


def _named_witnesses() -> dict:
    return {
        "x4": _chart("x4", "xyz", ("1", "x^4", "1")),
        "x4_flat2": _chart("x4_flat2", "xyzw", ("1", "x^4", "1", "1")),
        "x4_lorentz": _chart("x4_lorentz", "txy", ("-1", "1", "x^4")),
        "sincos": _chart(
            "sincos", "xyz", ("1", "(2 + sin(x)*cos(y))^2", "1"),
            domain={c: (-2.0, 2.0) for c in "xyz"},
        ),
    }


WITNESSES = list(_named_witnesses()) + [f"seed{s}" for s in range(6)]


def _witness(name):
    if name.startswith("seed"):
        return warped_product(int(name[4:]))
    return _named_witnesses()[name]


def test_the_family_covers_both_signatures_and_both_flat_sizes():
    charts = [warped_product(s) for s in range(6)]
    assert {c.n for c in charts} == {3, 4}
    assert sum(c.coordinates[0] == "t" for c in charts) == 2
    for c in charts:
        y = c.coordinates.index("y")
        assert ex.variables(c.metric[y, y]) == {"x"}


@pytest.mark.parametrize("name", WITNESSES)
def test_the_chain_holds_where_c_is_not_r(name):
    b = curvature_bundle_at(_witness(name))
    pts = b.chart.sample_points(42, 12)

    verdict = classify(b, pts)
    assert verdict.verdict == "recurrent", verdict.evidence
    assert not verdict.theorem_violation
    rep = verify_theorem(b, pts)
    assert not rep.skipped, rep.reason
    assert rep.passed, str(rep)
    assert np.all(rep.c_fit.admitted)

    # the case the theorem is about: r != 0, so C is not R and mu is not
    # built as ZERO; it vanishes by cancellation
    riemann, conc = b.riemann.components.flat, b.concircular.components.flat
    assert any(c is not r for c, r in zip(conc, riemann))
    mu = compute_mu(b, rep.c_fit.lam)
    assert any(c is not ex.ZERO for c in mu.mu.components.flat)

    # lambda_C = dr / r
    adm = rep.c_fit.admitted_points
    lamv = b.field_values(rep.c_fit.lam, adm)
    drv = b.field_values(mu.dscalar, adm)
    r = b.values_at(adm)["scalar"]
    np.testing.assert_allclose(lamv, drv / r[:, None], rtol=1e-9, atol=1e-12)


def _symbolic_d(monkeypatch):
    """Make the checks read d omega from exterior_derivative_one_form_at's
    field values instead of from nabla omega's."""
    real = recurrence._nabla_values

    def nabla_values(bundle, omega, points):
        gv, _ = real(bundle, omega, points)
        return gv, bundle.field_values(exterior_derivative_one_form_at(bundle, omega), points)

    monkeypatch.setattr(recurrence, "_nabla_values", nabla_values)


@pytest.mark.parametrize("name", list(_named_witnesses()) + ["perturbed_flat"])
def test_d_from_nabla_values_is_the_symbolic_exterior_derivative(monkeypatch, name):
    chart = get_builtin(name).chart if name == "perturbed_flat" else _witness(name)
    b = curvature_bundle_at(chart)
    pts = chart.sample_points(42, 12)
    lam = _recurrence_form(b, "C")
    mu = compute_mu(b, lam).mu

    def reports():
        return check_lambda_closed(b, lam, pts), check_mu_structure(b, lam, mu, pts)

    got = reports()
    _symbolic_d(monkeypatch)
    ref = reports()
    for new, old in zip(got, ref):
        np.testing.assert_array_equal(new.residuals, old.residuals)
        np.testing.assert_array_equal(new.scales, old.scales)


def test_each_one_form_compiles_one_derivative_tape():
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    pts = b.chart.sample_points(1, 6)
    lam = fit_recurrence_form(b, "C", pts).lam  # compiles the core, nabla C and lambda
    before = len(b._tapes)
    check_lambda_closed(b, lam, pts)
    assert len(b._tapes) == before + 1  # nabla lambda
    mu = compute_mu(b, lam).mu
    check_mu_structure(b, lam, mu, pts)
    assert len(b._tapes) == before + 3  # mu and nabla mu


def test_x4_chart_is_exactly_a_witness():
    # mu = 0 and d lambda_C = 0 as identities, not only at sample points
    sympy = pytest.importorskip("sympy")
    b = curvature_bundle_at(_witness("x4"))
    symbols = sympy.symbols(b.chart.coordinates)
    x = symbols[0]
    names = dict(zip(b.chart.coordinates, symbols), ln=sympy.log, abs=sympy.Abs)

    def to_sympy(e):
        return sympy.sympify(ex.to_string(e).replace("^", "**"), locals=names)

    lam = [to_sympy(c) for c in _recurrence_form(b, "C").components]
    assert [sympy.simplify(c) for c in lam] == [-2 / x, 0, 0]
    for i in range(3):
        for j in range(i + 1, 3):
            d = sympy.diff(lam[j], symbols[i]) - sympy.diff(lam[i], symbols[j])
            assert sympy.simplify(d) == 0
    mu = compute_mu(b, _recurrence_form(b, "C")).mu
    assert any(c is not ex.ZERO for c in mu.components)
    assert all(sympy.simplify(to_sympy(c)) == 0 for c in mu.components)


def test_a_perturbed_flat_factor_breaks_the_hypothesis():
    # the near miss: the same surface times a flat factor bent by 1/100
    chart = _chart("x4_bent", "xyzw", ("1", "x^4", "1 + sin(z)*cos(w)/100", "1"))
    b = curvature_bundle_at(chart)
    pts = chart.sample_points(42, 12)
    assert classify(b, pts).verdict == "generic"
    rep = verify_theorem(b, pts)
    assert rep.skipped
    assert "hypothesis not met" in rep.reason
