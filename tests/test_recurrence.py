"""Recurrence fitting, the derived 1-forms, classification, theorem checks."""

import dataclasses
import math

import numpy as np
import pytest

import concirc.expressions as ex
from concirc import geometry, recurrence
from concirc.catalog import get_builtin
from concirc.geometry import (
    GeometryError,
    MetricChart,
    TensorField,
    curvature_bundle_at,
    exterior_derivative_one_form_at,
    wedge_two_one_forms_at,
)
from concirc.identities import (
    HypothesisError,
    _per_point_max,
    _report,
    random_curvature_like,
)
from concirc.recurrence import (
    VERDICTS,
    RecurrenceFit,
    _recurrence_form,
    check_extended_recurrence,
    check_lambda_closed,
    check_mu_structure,
    check_proj_einstein_chain,
    classify,
    compute_mu,
    fit_mu_pointwise,
    fit_recurrence_form,
    verify_theorem,
    zero_one_form,
)
from test_identities import _action_arrays_by_einsum

_BUNDLES = {}


def bundle_for(name):
    if name not in _BUNDLES:
        _BUNDLES[name] = curvature_bundle_at(get_builtin(name).chart)
    return _BUNDLES[name]


def _const_one_form(bundle, values):
    comps = np.array([ex.const(v) for v in values], dtype=object)
    return TensorField(bundle.n, 1, comps)


# -- the least-squares estimator on synthetic data ------------------------------


def test_fit_formula_recovers_synthetic_lambda_exactly():
    """Pure linear algebra: gradT := lambda0 (x) T must give back lambda0."""
    rng = np.random.default_rng(17)
    for dim in (3, 4):
        for _ in range(20):
            t = random_curvature_like(rng, dim)
            lam0 = rng.standard_normal(dim)
            grad = np.einsum("a,wxyz->awxyz", lam0, t)
            den = np.sum(t * t)
            lam = np.einsum("awxyz,wxyz->a", grad, t) / den
            np.testing.assert_allclose(lam, lam0, rtol=0, atol=1e-12)


# -- fits on the catalog charts ---------------------------------------------------


def test_surface_power_riemann_fit():
    """ds^2 = dx^2 + x^4 dy^2 has nabla R = d(ln|r|) (x) R with r = -4/x^2."""
    b = bundle_for("surface_power")
    pts = b.chart.sample_points(42, 12)
    fit = fit_recurrence_form(b, "R", pts, tol=1e-8)
    assert fit.passed
    assert fit.excluded_count == 0
    assert fit.max_residual <= 1e-10

    lamv = b.field_values(fit.lam, pts)
    for p, lv in zip(pts, lamv):
        np.testing.assert_allclose(lv[0], -2.0 / p["x"], rtol=1e-10)
        np.testing.assert_allclose(lv[1], 0.0, rtol=0, atol=1e-12)

    # the recurrence form equals d ln|r| pointwise
    r = b.scalar_curvature
    dlnr = [ex.div(ex.differentiate(r, c), r) for c in b.chart.coordinates]
    for p, lv in zip(pts, lamv):
        want = [ex.evaluate(d, p) for d in dlnr]
        np.testing.assert_allclose(lv, want, rtol=0, atol=1e-10)


def test_ppwave_concircular_fit_gives_du():
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(42, 12)
    fit = fit_recurrence_form(b, "C", pts, tol=1e-8)
    assert fit.passed
    assert fit.excluded_count == 0
    assert fit.max_residual <= 1e-12
    lamv = b.field_values(fit.lam, pts)
    np.testing.assert_allclose(lamv[:, 0], 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lamv[:, 1:], 0.0, rtol=0, atol=1e-12)


def test_sphere_riemann_fit_gives_zero_lambda():
    b = bundle_for("sphere_3")
    pts = b.chart.sample_points(42, 8)
    fit = fit_recurrence_form(b, "R", pts, tol=1e-9)
    assert fit.passed
    lamv = b.field_values(fit.lam, pts)
    np.testing.assert_allclose(lamv, 0.0, rtol=0, atol=1e-12)
    assert fit.max_residual <= 1e-12


# C on sphere_3 is cancellation noise: its fit excludes every point, so
# lambda_C is never evaluated there
@pytest.mark.parametrize(
    "name, target",
    [
        ("perturbed_flat", "R"),
        ("perturbed_flat", "C"),
        ("ppwave_recurrent", "R"),
        ("ppwave_recurrent", "C"),
        ("sphere_3", "R"),
    ],
)
def test_unsimplified_lambda_matches_its_simplified_form(name, target):
    b = bundle_for(name)
    pts = b.chart.sample_points(61, 20)
    lam = _recurrence_form(b, target)
    simplified = TensorField(b.n, 1, np.array([ex.simplify(c) for c in lam.components]))
    got = b.field_values(lam, pts)
    ref = b.field_values(simplified, pts)
    atol = 1e-12 * (1.0 + np.max(np.abs(ref)))
    np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


def test_hyperbolic_riemann_fit_gives_zero_lambda():
    # as on sphere_3 above: lambda is an unsimplified quotient, so it
    # vanishes to rounding rather than exactly
    b = bundle_for("hyperbolic_2")
    pts = b.chart.sample_points(42, 8)
    fit = fit_recurrence_form(b, "R", pts)
    assert fit.passed
    assert np.max(np.abs(b.field_values(fit.lam, pts))) <= 1e-12


def test_fit_rejects_identically_zero_target():
    b = bundle_for("flat_euclidean_3")
    with pytest.raises(HypothesisError):
        fit_recurrence_form(b, "R", b.chart.sample_points(1, 4))


def test_fit_rejects_numerically_zero_target():
    # C on a constant-curvature chart is cancellation noise at every point
    b = bundle_for("sphere_3")
    with pytest.raises(HypothesisError):
        fit_recurrence_form(b, "C", b.chart.sample_points(1, 6))


def test_fit_rejects_unknown_target():
    b = bundle_for("sphere_2")
    with pytest.raises(GeometryError):
        fit_recurrence_form(b, "Q", b.chart.sample_points(1, 2))


def test_recurrence_form_is_built_once_per_bundle():
    b = curvature_bundle_at(get_builtin("ppwave_recurrent").chart)
    for target in ("R", "C"):
        first = fit_recurrence_form(b, target, b.chart.sample_points(1, 4))
        second = fit_recurrence_form(b, target, b.chart.sample_points(2, 6))
        assert second.lam is first.lam


def test_fit_report_shape():
    b = bundle_for("surface_power")
    pts = b.chart.sample_points(3, 5)
    fit = fit_recurrence_form(b, "R", pts)
    assert fit.target == "R"
    assert fit.points == tuple(pts)
    assert len(fit.residuals) == 5
    assert len(fit.admitted_points) == 5
    assert "surface_power" in str(fit)
    assert "pass" in str(fit)


def test_fit_passes_per_point():
    # residual <= tol at admitted points; an excluded point never passes
    fit = RecurrenceFit(
        target="R",
        chart="synthetic",
        lam=zero_one_form(2),
        points=({}, {}, {}),
        magnitudes=np.ones(3),
        admitted=np.array([True, True, False]),
        residuals=np.array([1e-9, 1e-7, np.nan]),
        tol=1e-8,
    )
    np.testing.assert_array_equal(fit.passes, [True, False, False])
    assert not fit.passed
    ok = dataclasses.replace(fit, residuals=np.array([1e-9, 1e-8, np.nan]))
    np.testing.assert_array_equal(ok.passes, [True, True, False])
    assert ok.passed
    none = dataclasses.replace(fit, admitted=np.zeros(3, dtype=bool))
    assert not none.passes.any()
    assert not none.passed


# -- mu ---------------------------------------------------------------------------


def test_mu_vanishes_structurally_when_r_is_zero():
    b = bundle_for("ppwave_recurrent")
    assert b.scalar_curvature is ex.ZERO
    lam = _const_one_form(b, [2.0, -1.0, 0.5, 0.0])
    mu = compute_mu(b, lam)
    assert all(c is ex.ZERO for c in mu.mu.components.ravel())


def test_mu_vanishes_for_zero_lambda_on_constant_scalar():
    # r = 6 only after trig identities the simplifier does not apply, so the
    # zero here is numeric, not structural
    b = bundle_for("sphere_3")
    mu = compute_mu(b, zero_one_form(3))
    pts = b.chart.sample_points(3, 6)
    np.testing.assert_allclose(b.field_values(mu.mu, pts), 0.0, rtol=0, atol=1e-12)


def test_mu_direct_substitution_on_sphere():
    """r = 6 constant, lambda = da: mu = (0 - 6 da)/6 = -da."""
    b = bundle_for("sphere_3")
    lam = _const_one_form(b, [1.0, 0.0, 0.0])
    mu = compute_mu(b, lam)
    pts = b.chart.sample_points(2, 6)
    muv = b.field_values(mu.mu, pts)
    np.testing.assert_allclose(muv[:, 0], -1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(muv[:, 1:], 0.0, rtol=0, atol=1e-12)


def test_mu_rejects_wrong_rank():
    b = bundle_for("sphere_2")
    with pytest.raises(GeometryError):
        compute_mu(b, b.ricci)


def test_pointwise_mu_matches_closed_form():
    # wherever the extended condition holds, the least-squares mu agrees
    b = bundle_for("sphere_3")
    lam = _const_one_form(b, [1.0, 0.0, 0.0])
    mu = compute_mu(b, lam)
    pts = b.chart.sample_points(8, 6)
    fitted = fit_mu_pointwise(b, lam, pts)
    closed = b.field_values(mu.mu, pts)
    np.testing.assert_allclose(fitted, closed, rtol=0, atol=1e-8)

    b = bundle_for("ppwave_recurrent")
    fit = fit_recurrence_form(b, "C", b.chart.sample_points(42, 6))
    pts = fit.admitted_points
    fitted = fit_mu_pointwise(b, fit.lam, pts)
    np.testing.assert_allclose(fitted, 0.0, rtol=0, atol=1e-10)


# -- the extended condition and its equivalences ----------------------------------


def test_extended_recurrence_identity_any_lambda():
    """nabla C - lam (x) C == nabla R - lam (x) R - mu (x) G for every lambda.

    The two conditions are algebraically the same statement; the residual
    arrays must coincide even on a chart where neither condition holds.
    """
    b = bundle_for("perturbed_flat")
    pts = b.chart.sample_points(19, 4)
    lam = _const_one_form(b, [0.7, -0.3, 1.1])
    mu = compute_mu(b, lam)

    nc = b.field_values(b.nabla_concircular(), pts)
    cv = b.field_values(b.concircular, pts)
    nr = b.field_values(b.nabla_riemann(), pts)
    rv = b.field_values(b.riemann, pts)
    gv = b.field_values(b.gtensor, pts)
    lamv = b.field_values(lam, pts)
    muv = b.field_values(mu.mu, pts)

    lhs = nc - np.einsum("pa,pwxyz->pawxyz", lamv, cv)
    rhs = (
        nr
        - np.einsum("pa,pwxyz->pawxyz", lamv, rv)
        - np.einsum("pa,pwxyz->pawxyz", muv, gv)
    )
    scale = 1.0 + np.max(np.abs(lhs))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


def test_extended_recurrence_with_zero_mu_equals_r_fit():
    b = bundle_for("surface_power")
    pts = b.chart.sample_points(42, 10)
    fit = fit_recurrence_form(b, "R", pts)
    rep = check_extended_recurrence(b, fit.lam, zero_one_form(2), pts)
    np.testing.assert_allclose(rep.residuals, fit.residuals, rtol=0, atol=1e-10)


def test_extended_recurrence_passes_on_theorem_instance():
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(42, 8)
    fit = fit_recurrence_form(b, "C", pts)
    mu = compute_mu(b, fit.lam)
    rep = check_extended_recurrence(b, fit.lam, mu.mu, pts, tol=1e-8)
    assert rep.passed
    assert rep.max_residual <= 1e-10


def test_extended_recurrence_trivial_on_constant_curvature():
    b = bundle_for("sphere_3")
    pts = b.chart.sample_points(4, 6)
    rep = check_extended_recurrence(b, zero_one_form(3), zero_one_form(3), pts, tol=1e-9)
    assert rep.passed


# -- closedness and the mu structure equation --------------------------------------


def test_lambda_closed_for_fitted_forms():
    for name, target in (("surface_power", "R"), ("ppwave_recurrent", "C")):
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 8)
        fit = fit_recurrence_form(b, target, pts)
        rep = check_lambda_closed(b, fit.lam, pts, tol=1e-10)
        assert rep.passed, f"{name}: {rep}"
        assert rep.max_residual <= 1e-10


def test_lambda_closed_detects_non_closed_form():
    b = bundle_for("flat_euclidean_3")
    # omega = x0 dx1 has d omega != 0
    omega = TensorField(
        3, 1, np.array([ex.ZERO, ex.var(b.chart.coordinates[0]), ex.ZERO], dtype=object)
    )
    pts = b.chart.sample_points(1, 5)
    rep = check_lambda_closed(b, omega, pts, tol=1e-10)
    assert not rep.passed
    np.testing.assert_allclose(rep.residuals, 0.5, rtol=0, atol=1e-14)


def test_mu_structure_on_theorem_instance():
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(42, 8)
    fit = fit_recurrence_form(b, "C", pts)
    mu = compute_mu(b, fit.lam)
    rep = check_mu_structure(b, fit.lam, mu.mu, pts, tol=1e-8)
    assert rep.passed
    assert rep.max_residual <= 1e-10


def test_mu_structure_trivial_on_sphere():
    b = bundle_for("sphere_3")
    pts = b.chart.sample_points(5, 6)
    rep = check_mu_structure(b, zero_one_form(3), zero_one_form(3), pts, tol=1e-9)
    assert rep.passed


def test_mu_structure_reduces_to_semisymmetry_for_zero_mu():
    # with mu = 0 the second contraction is exactly R(U,V).R; a generic
    # chart must therefore fail
    b = bundle_for("perturbed_flat")
    pts = b.chart.sample_points(23, 5)
    rep = check_mu_structure(b, zero_one_form(3), zero_one_form(3), pts, tol=1e-8)
    assert not rep.passed


def _reference_mu_structure(bundle, lam, mu, points, tol=1e-8):
    """check_mu_structure by the symbolic route: d mu + mu ^ lambda built as
    one 2-form field from exterior_derivative_one_form_at and
    wedge_two_one_forms_at, then evaluated, and the display compared on
    every n^6 slot of the einsum reference action."""
    form = TensorField(
        bundle.n,
        2,
        exterior_derivative_one_form_at(bundle, mu).components
        + wedge_two_one_forms_at(mu, lam).components,
    )
    fv = form.evaluate_block(points)
    gmv = np.abs(geometry.covariant_derivative_at(bundle, mu).evaluate_block(points))
    muv, lamv = np.abs(mu.evaluate_block(points)), np.abs(lam.evaluate_block(points))
    scale1 = 0.5 * (gmv + np.einsum("pij->pji", gmv)) + 0.5 * (
        np.einsum("pi,pj->pij", muv, lamv) + np.einsum("pj,pi->pij", muv, lamv)
    )
    res1 = _per_point_max(fv) / (1.0 + _per_point_max(scale1))
    vals = bundle.values_at(points)
    acted, acted_abs = _action_arrays_by_einsum(vals["riemann_13"], vals["riemann"])
    gv = vals["gtensor"]
    rhs = 2.0 * np.einsum("puv,pwxyz->puvwxyz", fv, gv)
    rhs_abs = 2.0 * np.einsum("puv,pwxyz->puvwxyz", np.abs(fv), np.abs(gv))
    res2 = _per_point_max(acted - rhs) / (1.0 + _per_point_max(acted_abs + rhs_abs))
    residuals = np.maximum(res1, res2)
    return _report("mu-structure", bundle, points, residuals, np.zeros(len(points)), tol)


@pytest.mark.parametrize("name", ["ppwave_recurrent", "perturbed_flat"])
@pytest.mark.parametrize("form", ["lambda_C", "constant"])
def test_mu_structure_matches_the_symbolic_wedge(name, form):
    # mu ^ lambda is read from the values of mu and lambda; the symbolic
    # wedge pins its sign and its 1/2
    b = curvature_bundle_at(get_builtin(name).chart)
    pts = b.chart.sample_points(3, 8)
    if form == "lambda_C":
        lam = _recurrence_form(b, "C")
    else:
        lam = _const_one_form(b, [0.5, -1.0, 2.0, 0.25][: b.n])
    mu = compute_mu(b, lam).mu
    got = check_mu_structure(b, lam, mu, pts)
    ref = _reference_mu_structure(b, lam, mu, pts)
    np.testing.assert_allclose(got.residuals, ref.residuals, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got.passes, ref.passes)


# -- the contraction chain ----------------------------------------------------------


def test_proj_einstein_chain_on_constant_curvature():
    for name in ("sphere_3", "flat_euclidean_3", "minkowski_4"):
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 8)
        rep = check_proj_einstein_chain(b, pts, tol=1e-9)
        assert rep.proj.passes.all(), name
        assert rep.einstein.passes.all(), name
        assert rep.constcurv.passes.all(), name
        assert rep.chain_holds


def test_proj_einstein_chain_hypothesis_fails_on_ppwave():
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(42, 8)
    rep = check_proj_einstein_chain(b, pts, tol=1e-8)
    assert np.all(rep.proj.residuals > 0.1 * rep.proj.scales)
    assert not rep.proj.passes.any()
    assert rep.chain_holds  # vacuously: P = 0 never fires


def test_proj_einstein_chain_einstein_tensor_value():
    """The -(1/n) g-trace of P must equal S - (r/n) g."""
    b = bundle_for("perturbed_flat")
    pts = b.chart.sample_points(29, 4)
    v = b.values_at(pts)
    n = b.n
    gs1 = np.einsum("puy,pxz->puxyz", v["metric"], v["ricci"])
    gs2 = np.einsum("puz,pxy->puxyz", v["metric"], v["ricci"])
    proj = (n - 1) * v["riemann"] + gs1 - gs2
    einstein = -np.einsum("pxz,puxyz->puy", v["inverse_metric"], proj) / n
    direct = v["ricci"] - (v["scalar"] / n)[:, None, None] * v["metric"]
    np.testing.assert_allclose(einstein, direct, rtol=0, atol=1e-12)


def test_proj_einstein_chain_rejects_dim_two():
    b = bundle_for("sphere_2")
    with pytest.raises(GeometryError):
        check_proj_einstein_chain(b, b.chart.sample_points(1, 2))


# -- classification -----------------------------------------------------------------


def test_verdict_list_is_published():
    assert VERDICTS == (
        "flat",
        "constant-curvature",
        "locally-symmetric",
        "recurrent",
        "concircularly-recurrent",
        "generic",
    )


def test_classify_catalog_verdicts():
    expected = {
        "flat_euclidean_3": "flat",
        "minkowski_4": "flat",
        "sphere_2": "constant-curvature",
        "sphere_3": "constant-curvature",
        "hyperbolic_2": "constant-curvature",
        "surface_power": "recurrent",
        "ppwave_recurrent": "recurrent",
        "perturbed_flat": "generic",
    }
    for name, verdict in expected.items():
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 10)
        got = classify(b, pts, tol=1e-8)
        assert got.verdict == verdict, f"{name}: {got}"
        assert not got.theorem_violation
        assert got.verdict in VERDICTS


def test_classify_locally_symmetric_product():
    # S^2 x R: parallel curvature, but C != 0 so not constant curvature
    coords = ("theta", "phi", "w")
    comps = np.empty((3, 3), dtype=object)
    comps[:] = ex.ZERO
    comps[0, 0] = ex.ONE
    comps[1, 1] = ex.parse("sin(theta)^2", coords)
    comps[2, 2] = ex.ONE
    chart = MetricChart(
        "sphere_cross_line",
        coords,
        comps,
        {"theta": (0.2, 2.9), "phi": (0.0, 2 * math.pi), "w": (-1.0, 1.0)},
        (ex.parse("sin(theta)", coords),),
    )
    b = curvature_bundle_at(chart)
    pts = chart.sample_points(42, 8)
    got = classify(b, pts)
    assert got.verdict == "locally-symmetric"


def test_classify_evidence_recorded():
    b = bundle_for("perturbed_flat")
    got = classify(b, b.chart.sample_points(42, 6))
    assert "riemann_max" in got.evidence
    assert "riemann_fit_residual" in got.evidence
    assert got.evidence["riemann_fit_residual"] > 1e-3


# -- the theorem --------------------------------------------------------------------


def test_verify_theorem_on_ppwave():
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(42, 10)
    rep = verify_theorem(b, pts, tol=1e-8)
    assert not rep.skipped
    assert rep.passed
    assert rep.mu_check.max_residual <= 1e-10
    assert rep.recurrence_check.max_residual <= 1e-8
    assert rep.closed_check.max_residual <= 1e-10
    assert rep.semisymmetry_check.max_residual <= 1e-8
    assert set(rep.checks) == {
        "mu-vanishes",
        "riemann-recurrence-same-form",
        "lambda-closed",
        "semisymmetry",
    }
    assert "pass" in str(rep)


def test_verify_theorem_builds_its_forms_once_per_bundle(monkeypatch):
    # mu, nabla lambda and d lambda live on the bundle with lambda itself;
    # compute_mu is called every time, but differentiates r only once
    b = curvature_bundle_at(get_builtin("ppwave_recurrent").chart)
    assert verify_theorem(b, b.chart.sample_points(1, 6)).passed
    builds = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            builds.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for module, name in (
        (geometry, "covariant_derivative_at"),
        (recurrence, "covariant_derivative_at"),
        (recurrence, "exterior_derivative_one_form_at"),
        (ex, "differentiate"),
    ):
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    assert verify_theorem(b, b.chart.sample_points(2, 6)).passed
    assert builds == []


def _top_level_simplify_calls(monkeypatch):
    """List that records every simplify call not made from inside another."""
    calls, depth = [], [0]
    real = ex.simplify

    def counting(e):
        if depth[0] == 0:
            calls.append(e)
        depth[0] += 1
        try:
            return real(e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ex, "simplify", counting)
    monkeypatch.setattr(geometry, "simplify", counting)
    return calls


def test_verify_theorem_simplifies_nothing(monkeypatch):
    # mu, its inputs and the derivatives of lambda are only evaluated
    b = curvature_bundle_at(get_builtin("ppwave_recurrent").chart)
    pts = b.chart.sample_points(1, 6)
    classify(b, pts)
    calls = _top_level_simplify_calls(monkeypatch)
    assert verify_theorem(b, pts).passed
    assert calls == []


def test_forms_of_lambda_and_mu_are_not_simplified(monkeypatch):
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    pts = b.chart.sample_points(1, 4)
    lam = _recurrence_form(b, "C")
    calls = _top_level_simplify_calls(monkeypatch)
    counts = {}
    check_lambda_closed(b, lam, pts)
    counts["check_lambda_closed"] = len(calls)
    mu = compute_mu(b, lam).mu
    counts["compute_mu"] = len(calls) - counts["check_lambda_closed"]
    check_mu_structure(b, lam, mu, pts)
    counts["check_mu_structure"] = len(calls) - sum(counts.values())
    assert counts == dict.fromkeys(counts, 0)


def test_derived_forms_are_built_once_per_bundle_and_input(monkeypatch):
    b = curvature_bundle_at(get_builtin("ppwave_recurrent").chart)
    lam = _recurrence_form(b, "C")
    # an equal 1-form held in another TensorField finds the same forms
    twin = TensorField(b.n, 1, lam.components.copy())
    pts = b.chart.sample_points(1, 5)
    mu = compute_mu(b, lam)
    assert compute_mu(b, twin) is mu
    first = (check_lambda_closed(b, lam, pts), check_mu_structure(b, lam, mu.mu, pts))
    builds = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            builds.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("covariant_derivative_at", "exterior_derivative_one_form_at"):
        monkeypatch.setattr(recurrence, name, counting(getattr(recurrence, name)))
    again = (check_lambda_closed(b, twin, pts), check_mu_structure(b, twin, mu.mu, pts))
    assert builds == []
    for old, new in zip(first, again):
        np.testing.assert_array_equal(old.residuals, new.residuals)
    # another lambda gets forms of its own
    other = _const_one_form(b, [1.0, 0.0, 0.0, 0.0])
    assert compute_mu(b, other) is not mu
    check_lambda_closed(b, other, pts)
    assert builds == ["covariant_derivative_at", "exterior_derivative_one_form_at"]


@pytest.mark.parametrize("name", ["perturbed_flat", "ppwave_recurrent"])
def test_classify_and_verify_theorem_read_core_fields_from_the_core_tape(monkeypatch, name):
    b = curvature_bundle_at(get_builtin(name).chart)
    core = {
        field: tuple(tf.components.ravel())
        for field, tf in (("R", b.riemann), ("G", b.gtensor), ("C", b.concircular))
    }
    roots = []

    class RecordingTape(ex._Tape):
        __slots__ = ()

        def __init__(self, exprs):
            roots.append(tuple(exprs))
            super().__init__(exprs)

    monkeypatch.setattr(ex, "_Tape", RecordingTape)
    pts = b.chart.sample_points(42, 8)
    classify(b, pts)
    verify_theorem(b, pts)
    assert roots  # the core block and the derived fields were compiled here
    assert [field for field, comps in core.items() if comps in roots] == []


def test_verify_theorem_skips_on_constant_curvature():
    b = bundle_for("sphere_3")
    rep = verify_theorem(b, b.chart.sample_points(42, 6))
    assert rep.skipped
    assert rep.passed  # a skip is not a failure
    assert rep.reason
    assert "skip" in str(rep)


def test_verify_theorem_skips_on_generic_chart():
    b = bundle_for("perturbed_flat")
    rep = verify_theorem(b, b.chart.sample_points(42, 5))
    assert rep.skipped
    assert rep.c_fit is not None
    assert "hypothesis" in rep.reason


def test_zero_one_form():
    z = zero_one_form(4)
    assert z.rank == 1 and z.dim == 4
    assert all(c is ex.ZERO for c in z.components.ravel())
