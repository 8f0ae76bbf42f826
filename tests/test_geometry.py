"""Geometry layer: charts, Christoffel symbols, curvature tensors, derivatives."""

import math

import numpy as np
import pytest

import concirc.expressions as ex
from concirc.catalog import get_builtin, random_perturbed_flat
from concirc.geometry import (
    CurvatureBundle,
    GeometryError,
    MetricChart,
    SingularMetricError,
    TensorField,
    _curvature_slot,
    christoffel_at,
    covariant_derivative_at,
    curvature_action_at,
    curvature_action_from_second_derivative,
    curvature_bundle_at,
    exterior_derivative_one_form_at,
    metric_determinant,
    wedge_two_one_forms_at,
)
from concirc.identities import check_semisymmetry_at, check_walker_at
from concirc.recurrence import classify, verify_theorem


def _obj(rows):
    arr = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            arr[i, j] = entry
    return arr


def _chart(name, coords, rows, domain, exclusions=()):
    parsed = [[ex.parse(s, coords) if isinstance(s, str) else s for s in row] for row in rows]
    return MetricChart(name, tuple(coords), _obj(parsed), domain, tuple(exclusions))


def sphere2():
    return _chart(
        "s2",
        ("theta", "phi"),
        [["1", "0"], ["0", "sin(theta)^2"]],
        {"theta": (0.15, 2.99), "phi": (0.0, 2 * math.pi)},
        exclusions=(ex.parse("sin(theta)", ("theta", "phi")),),
    )


def hyperbolic2():
    # upper half plane, K = -1
    return _chart(
        "h2",
        ("x", "y"),
        [["1/y^2", "0"], ["0", "1/y^2"]],
        {"x": (-2.0, 2.0), "y": (0.5, 3.0)},
    )


def dense3():
    c = ("x", "y", "z")
    return _chart(
        "dense3",
        c,
        [
            ["1 + sin(x)*cos(y)/10", "sin(x + z)/20", "0"],
            ["sin(x + z)/20", "1 + sin(y)*cos(z)/10", "0"],
            ["0", "0", "1 + sin(z)*cos(x)/10"],
        ],
        {k: (-2.0, 2.0) for k in c},
    )


# -- chart validation --------------------------------------------------------


def test_chart_rejects_asymmetric_metric():
    with pytest.raises(GeometryError) as err:
        _chart("bad", ("x", "y"), [["1", "x"], ["y", "1"]], {"x": (0, 1), "y": (0, 1)})
    assert "symmetric" in str(err.value)


def test_chart_symmetry_check_is_structural():
    # x + y vs y + x must be recognized as the same entry
    c = _chart(
        "ok",
        ("x", "y"),
        [["2", "x + y"], ["y + x", "2"]],
        {"x": (0.0, 1.0), "y": (0.0, 1.0)},
    )
    assert c.metric[0, 1] is c.metric[1, 0]


def test_chart_rejects_undeclared_variable():
    with pytest.raises(GeometryError) as err:
        MetricChart(
            "bad",
            ("x", "y"),
            _obj([[ex.var("t"), ex.ZERO], [ex.ZERO, ex.ONE]]),
            {"x": (0, 1), "y": (0, 1)},
        )
    assert "undeclared" in str(err.value)


def test_chart_rejects_bad_domains():
    with pytest.raises(GeometryError):
        _chart("bad", ("x", "y"), [["1", "0"], ["0", "1"]], {"x": (0, 1)})
    with pytest.raises(GeometryError):
        _chart("bad", ("x", "y"), [["1", "0"], ["0", "1"]], {"x": (1, 1), "y": (0, 1)})
    with pytest.raises(GeometryError):
        _chart("bad", ("x",), [["1"]], {"x": (0, 1)})


def test_tensor_field_shape_validation():
    comps = np.empty((2, 3), dtype=object)
    comps[:] = ex.ZERO
    with pytest.raises(GeometryError):
        TensorField(2, 2, comps)


# -- sampling ----------------------------------------------------------------


def test_sample_points_deterministic_and_in_domain():
    c = sphere2()
    pts1 = c.sample_points(42, 15)
    pts2 = c.sample_points(42, 15)
    assert pts1 == pts2
    for p in pts1:
        assert 0.15 <= p["theta"] <= 2.99
        assert 0.0 <= p["phi"] <= 2 * math.pi
        assert abs(math.sin(p["theta"])) >= 1e-3
    assert c.sample_points(43, 15) != pts1


def test_sample_points_degenerate_metric_names_witness():
    c = _chart("dg", ("x", "y"), [["1", "1"], ["1", "1"]], {"x": (0, 1), "y": (0, 1)})
    with pytest.raises(SingularMetricError) as err:
        c.sample_points(42, 3)
    assert "dg" in str(err.value)
    assert err.value.point  # witness point is reported


def test_metric_determinant_matches_numpy():
    c = dense3()
    det = metric_determinant(c.metric)
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = {k: float(rng.uniform(-2, 2)) for k in c.coordinates}
        g = np.array([[ex.evaluate(c.metric[i, j], p) for j in range(3)] for i in range(3)])
        np.testing.assert_allclose(ex.evaluate(det, p), np.linalg.det(g), rtol=1e-12)


# -- Christoffel symbols against the sphere oracle ---------------------------


def test_christoffel_sphere_oracle():
    """Unit sphere: Gamma^theta_phi,phi = -sin cos, Gamma^phi_theta,phi = cot."""
    c = sphere2()
    gamma = christoffel_at(c)
    p = {"theta": 0.7, "phi": 1.2}
    st, ct = math.sin(0.7), math.cos(0.7)

    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -st * ct          # Gamma^theta_{phi phi}
    expected[1, 0, 1] = expected[1, 1, 0] = ct / st  # Gamma^phi_{theta phi}

    got = np.array(
        [[[ex.evaluate(gamma[k, i, j], p) for j in range(2)] for i in range(2)] for k in range(2)]
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_christoffel_symmetric_in_lower_indices():
    c = dense3()
    gamma = christoffel_at(c)
    for k in range(3):
        for i in range(3):
            for j in range(i + 1, 3):
                assert gamma[k, i, j] is gamma[k, j, i]


def test_christoffel_vanishes_for_constant_metric():
    c = _chart(
        "mink",
        ("t", "x"),
        [["-1", "0"], ["0", "1"]],
        {"t": (-1.0, 1.0), "x": (-1.0, 1.0)},
    )
    gamma = christoffel_at(c)
    assert all(gamma[idx] is ex.ZERO for idx in np.ndindex(2, 2, 2))


# -- curvature on constant-curvature oracles ---------------------------------


def test_sphere_curvature_tensors():
    """Unit 2-sphere: R = G (K = 1), Ricci = g, r = 2."""
    b = curvature_bundle_at(sphere2())
    pts = b.chart.sample_points(42, 10)
    v = b.values_at(pts)
    np.testing.assert_allclose(v["riemann"], v["gtensor"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(v["ricci"], v["metric"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(v["scalar"], 2.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(v["concircular"], 0.0, rtol=0, atol=1e-12)


def test_hyperbolic_curvature_tensors():
    """Upper half plane: R = -G (K = -1), r = -2."""
    b = curvature_bundle_at(hyperbolic2())
    pts = b.chart.sample_points(42, 10)
    v = b.values_at(pts)
    np.testing.assert_allclose(v["riemann"], -v["gtensor"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(v["scalar"], -2.0, rtol=0, atol=1e-12)


def test_riemann_is_lowered_riemann_13():
    b = curvature_bundle_at(dense3())
    pts = b.chart.sample_points(1, 5)
    v = b.values_at(pts)
    lowered = np.einsum("pijkl,plm->pijkm", v["riemann_13"], v["metric"])
    np.testing.assert_allclose(v["riemann"], lowered, rtol=0, atol=1e-12)


def test_ricci_is_trace_of_riemann_13():
    b = curvature_bundle_at(dense3())
    pts = b.chart.sample_points(2, 5)
    v = b.values_at(pts)
    traced = np.einsum("pijki->pjk", v["riemann_13"])
    np.testing.assert_allclose(v["ricci"], traced, rtol=0, atol=1e-12)


def test_riemann_symmetries_numeric():
    b = curvature_bundle_at(dense3())
    pts = b.chart.sample_points(3, 8)
    r = b.values_at(pts)["riemann"]
    scale = np.max(np.abs(r))
    assert scale > 1e-4  # the chart is genuinely curved
    np.testing.assert_allclose(r, -np.einsum("pwxyz->pxwyz", r), atol=1e-12 * scale)
    np.testing.assert_allclose(r, -np.einsum("pwxyz->pwxzy", r), atol=1e-12 * scale)
    np.testing.assert_allclose(r, np.einsum("pwxyz->pyzwx", r), atol=1e-12 * scale)
    cyc = r + np.einsum("pwxyz->pxywz", r) + np.einsum("pwxyz->pywxz", r)
    np.testing.assert_allclose(cyc, 0.0, atol=1e-12 * scale)


def test_gtensor_of_flat_metric_is_constant_curvature_model():
    # for g = identity, G(i,j,k,l) = delta_jk delta_il - delta_ik delta_jl
    c = _chart(
        "flat2",
        ("x", "y"),
        [["1", "0"], ["0", "1"]],
        {"x": (0.0, 1.0), "y": (0.0, 1.0)},
    )
    b = curvature_bundle_at(c)
    g = b.gtensor.evaluate({"x": 0.3, "y": 0.4})
    expected = np.einsum("jk,il->ijkl", np.eye(2), np.eye(2)) - np.einsum(
        "ik,jl->ijkl", np.eye(2), np.eye(2)
    )
    np.testing.assert_allclose(g, expected, rtol=0, atol=0)


def test_bundle_tensors_match_their_formulas_in_every_slot():
    # G, C and R are built once per symmetry orbit; every slot must still
    # equal the defining formula evaluated independently
    b = curvature_bundle_at(dense3())
    pts = b.chart.sample_points(5, 6)
    v = b.values_at(pts)
    g = v["metric"]
    gt = np.einsum("pjk,pil->pijkl", g, g) - np.einsum("pik,pjl->pijkl", g, g)
    np.testing.assert_allclose(v["gtensor"], gt, rtol=0, atol=1e-12)
    conc = v["riemann"] - (v["scalar"] / 6.0)[:, None, None, None, None] * v["gtensor"]
    np.testing.assert_allclose(v["concircular"], conc, rtol=0, atol=1e-12)


# -- symmetry-orbit reduction ---------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_slot_orbits_cover_every_slot(n):
    m = n * (n - 1) // 2
    reps = set()
    orbit_sizes = {}
    for idx in np.ndindex(*(n,) * 4):
        hit = _curvature_slot(idx)
        i, j, k, l = idx
        if hit is None:
            assert i == j or k == l
            continue
        rep, sign = hit
        assert sign in (1, -1)
        assert rep <= idx  # built before the slots that reuse it
        assert _curvature_slot(rep) == (rep, 1)
        reps.add(rep)
        orbit_sizes[rep] = orbit_sizes.get(rep, 0) + 1
    assert len(reps) == m * (m + 1) // 2
    zeros = sum(1 for idx in np.ndindex(*(n,) * 4) if idx[0] == idx[1] or idx[2] == idx[3])
    assert sum(orbit_sizes.values()) + zeros == n**4
    # leading slots (the derivative index) pass through unchanged
    assert _curvature_slot((2, 1, 0, 1, 0)) == ((2, 0, 1, 0, 1), 1)
    assert _curvature_slot((0, 1, 1, 0, 2)) is None


@pytest.mark.parametrize("chart", ["dense3", "perturbed_flat"])
def test_reduced_nabla_matches_unreduced_build(chart):
    # the same covariant derivative built slot by slot from an untagged copy
    b = curvature_bundle_at(dense3() if chart == "dense3" else get_builtin(chart).chart)
    pts = b.chart.sample_points(11, 6)
    for field, reduced in ((b.riemann, b.nabla_riemann()), (b.concircular, b.nabla_concircular())):
        assert reduced.symmetry == "riemann-like"
        plain = covariant_derivative_at(b, TensorField(b.n, 4, field.components, symmetry="none"))
        assert plain.symmetry == "none"
        ref = b.field_values(plain, pts)
        scale = 1.0 + np.max(np.abs(ref))
        np.testing.assert_allclose(b.field_values(reduced, pts), ref, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("name, expected", [("perturbed_flat", 59), ("minkowski_4", 181)])
def test_bundle_simplifies_riemann_once_per_orbit(monkeypatch, name, expected):
    # R is simplified once per orbit (6 at n=3, 21 at n=4), the inverse
    # metric and Ricci once per symmetric pair; riemann_13, raised from R,
    # is not simplified
    chart = get_builtin(name).chart
    calls = []

    def counting(e):
        calls.append(e)
        return ex.simplify(e)

    monkeypatch.setattr("concirc.geometry.simplify", counting)
    CurvatureBundle(chart)
    assert len(calls) == expected


@pytest.mark.parametrize(
    "name, riemann, concircular, ricci, scalar_zero",
    [
        ("flat_euclidean_3", 81, 81, 9, True),
        ("hyperbolic_2", 12, 16, 2, False),
        ("minkowski_4", 256, 256, 16, True),
        ("perturbed_flat", 45, 45, 0, False),
        ("ppwave_recurrent", 248, 248, 16, True),
        ("sphere_2", 12, 16, 2, False),
        ("sphere_3", 69, 69, 6, False),
        ("surface_power", 12, 16, 2, False),
    ],
)
def test_exact_zero_components_per_builtin(name, riemann, concircular, ricci, scalar_zero):
    # the exact zeros the checks and the classifier rely on: C vanishes in
    # dimension 2, r on the flat charts and the pp-wave, Ricci on the pp-wave
    b = CurvatureBundle(get_builtin(name).chart)

    def zeros(field):
        return sum(c is ex.ZERO for c in field.components.ravel())

    assert zeros(b.riemann) == riemann
    assert zeros(b.concircular) == concircular
    assert zeros(b.ricci) == ricci
    assert (b.scalar_curvature is ex.ZERO) == scalar_zero


def test_nabla_riemann_builds_one_node_per_orbit():
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    comps = b.nabla_riemann().components.ravel()
    assert len(comps) == 243
    distinct = {frozenset((c, ex.neg(c))) for c in comps if c is not ex.ZERO}
    assert 0 < len(distinct) <= 18


def test_nabla_of_curvature_tensors_is_not_simplified(monkeypatch):
    # nabla R and nabla C are only ever evaluated, so they stay shared DAGs
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    calls = []

    def counting(e):
        calls.append(e)
        return ex.simplify(e)

    monkeypatch.setattr("concirc.geometry.simplify", counting)
    for build in (b.nabla_riemann, b.nabla_concircular):
        calls.clear()
        build()
        assert calls == []


# -- covariant differentiation ------------------------------------------------


def test_covariant_derivative_of_metric_vanishes():
    # structural zero on the diagonal sphere metric
    b = curvature_bundle_at(sphere2())
    gfield = TensorField(2, 2, b.chart.metric, symmetry="symmetric-2")
    ng = covariant_derivative_at(b, gfield)
    assert all(c is ex.ZERO for c in ng.components.ravel())
    # numeric zero on a dense metric whose inverse does not fold symbolically
    b = curvature_bundle_at(dense3())
    gfield = TensorField(3, 2, b.chart.metric, symmetry="symmetric-2")
    ng = covariant_derivative_at(b, gfield)
    pts = b.chart.sample_points(9, 6)
    np.testing.assert_allclose(b.field_values(ng, pts), 0.0, atol=1e-13)


def test_covariant_derivative_hand_formula():
    """New index first: (nabla w)[a, i] = d_a w_i - Gamma^m_ai w_m."""
    b = curvature_bundle_at(sphere2())
    coords = b.chart.coordinates
    w = TensorField(
        2,
        1,
        np.array([ex.parse("sin(theta)", coords), ex.parse("theta*phi", coords)], dtype=object),
    )
    grad = covariant_derivative_at(b, w)
    p = {"theta": 0.9, "phi": 0.4}
    wv = w.evaluate(p)
    gam = np.array(
        [[[ex.evaluate(b.christoffel[k, i, j], p) for j in range(2)] for i in range(2)] for k in range(2)]
    )
    dw = np.array(
        [[ex.evaluate(ex.differentiate(w.components[i], coords[a]), p) for i in range(2)] for a in range(2)]
    )
    expected = dw - np.einsum("mai,m->ai", gam, wv)
    np.testing.assert_allclose(grad.evaluate(p), expected, rtol=0, atol=1e-14)


def test_second_covariant_derivative_shape_and_flat_case():
    c = _chart(
        "flat2",
        ("x", "y"),
        [["1", "0"], ["0", "1"]],
        {"x": (0.0, 1.0), "y": (0.0, 1.0)},
    )
    b = curvature_bundle_at(c)
    w = TensorField(2, 1, np.array([ex.parse("x^2*y", c.coordinates), ex.ZERO], dtype=object))
    second = covariant_derivative_at(b, covariant_derivative_at(b, w))
    assert second.rank == 3
    # flat chart: nabla^2 = plain second partials, symmetric in (a, b)
    p = {"x": 0.7, "y": 0.3}
    v = second.evaluate(p)
    np.testing.assert_allclose(v, np.einsum("abi->bai", v), rtol=0, atol=1e-14)
    np.testing.assert_allclose(v[0, 0, 0], 2 * 0.3, rtol=1e-14)


def test_covariant_derivative_rejects_wrong_dimension():
    b = curvature_bundle_at(sphere2())
    w = TensorField(3, 1, np.array([ex.ZERO] * 3, dtype=object))
    with pytest.raises(GeometryError):
        covariant_derivative_at(b, w)


# -- curvature action ----------------------------------------------------------


def test_action_routes_agree_on_sphere():
    b = curvature_bundle_at(sphere2())
    pts = b.chart.sample_points(42, 8)
    a1 = b.field_values(curvature_action_at(b, b.riemann), pts)
    a2 = b.field_values(curvature_action_from_second_derivative(b, b.riemann), pts)
    scale = 1.0 + np.max(np.abs(a1))
    np.testing.assert_allclose(a1, a2, rtol=0, atol=1e-10 * scale)


def test_action_on_gtensor_vanishes():
    """The curvature operator annihilates anything built from g alone."""
    b = curvature_bundle_at(dense3())
    pts = b.chart.sample_points(4, 5)
    acted = b.field_values(curvature_action_at(b, b.gtensor), pts)
    scale = 1.0 + np.max(np.abs(b.values_at(pts)["riemann"]))
    np.testing.assert_allclose(acted, 0.0, atol=1e-12 * scale)


def test_action_requires_rank_four():
    b = curvature_bundle_at(sphere2())
    w = TensorField(2, 1, np.array([ex.ZERO, ex.ZERO], dtype=object))
    with pytest.raises(GeometryError):
        curvature_action_at(b, w)


# -- exterior derivative and wedge ---------------------------------------------


def test_exterior_derivative_of_gradient_vanishes():
    b = curvature_bundle_at(dense3())
    coords = b.chart.coordinates
    f = ex.parse("sin(x)*cos(y) + exp(z/2)", coords)
    df = TensorField(
        3, 1, np.array([ex.differentiate(f, c) for c in coords], dtype=object)
    )
    ddf = exterior_derivative_one_form_at(b, df)
    pts = b.chart.sample_points(6, 6)
    vals = b.field_values(ddf, pts)
    np.testing.assert_allclose(vals, 0.0, atol=1e-13)


def test_exterior_derivative_half_normalization():
    # omega = x dy on flat 2-space: (d omega)(d_x, d_y) = 1/2
    c = _chart(
        "flat2",
        ("x", "y"),
        [["1", "0"], ["0", "1"]],
        {"x": (0.0, 1.0), "y": (0.0, 1.0)},
    )
    b = curvature_bundle_at(c)
    omega = TensorField(2, 1, np.array([ex.ZERO, ex.var("x")], dtype=object))
    d = exterior_derivative_one_form_at(b, omega)
    v = d.evaluate({"x": 0.2, "y": 0.9})
    np.testing.assert_allclose(v, [[0.0, 0.5], [-0.5, 0.0]], rtol=0, atol=0)


def test_wedge_of_form_with_itself_is_zero():
    lam = TensorField(
        2, 1, np.array([ex.parse("sin(x)", ("x", "y")), ex.var("y")], dtype=object)
    )
    w = wedge_two_one_forms_at(lam, lam)
    assert all(c is ex.ZERO for c in w.components.ravel())


def test_wedge_antisymmetry_and_value():
    x, y = ex.var("x"), ex.var("y")
    mu = TensorField(2, 1, np.array([x, ex.ZERO], dtype=object))
    lam = TensorField(2, 1, np.array([ex.ZERO, y], dtype=object))
    w = wedge_two_one_forms_at(mu, lam)
    v = w.evaluate({"x": 3.0, "y": 5.0})
    # (mu ^ lam)(d_x, d_y) = (mu_x lam_y - mu_y lam_x) / 2
    np.testing.assert_allclose(v, [[0.0, 7.5], [-7.5, 0.0]], rtol=0, atol=0)
    wr = wedge_two_one_forms_at(lam, mu)
    np.testing.assert_allclose(wr.evaluate({"x": 3.0, "y": 5.0}), -v, rtol=0, atol=0)


# -- evaluation plumbing --------------------------------------------------------


def test_constant_field_block_evaluation_broadcasts():
    comps = np.empty((3,), dtype=object)
    comps[:] = ex.ONE
    f = TensorField(3, 1, comps)
    pts = [{"x": 0.1, "y": 0.2, "z": 0.3}, {"x": 0.4, "y": 0.5, "z": 0.6}]
    block = f.evaluate_block(pts)
    assert block.shape == (2, 3)
    np.testing.assert_allclose(block, 1.0, rtol=0, atol=0)
    assert f.evaluate_block([]).shape == (0, 3)


def test_values_at_caches_per_point_set():
    b = curvature_bundle_at(sphere2())
    pts = b.chart.sample_points(42, 4)
    assert b.values_at(pts) is b.values_at(pts)


def _point_set_results(b, pts):
    """Verdict and evidence, plus every residual and scale array, in the
    order a dense block asks for them."""
    walker = check_walker_at(b, pts)
    semi = check_semisymmetry_at(b, pts)
    verdict = classify(b, pts)
    theorem = verify_theorem(b, pts)
    reports = [walker, semi, *theorem.checks.values()]
    arrays = [a for rep in reports for a in (rep.residuals, rep.scales)]
    arrays += [theorem.c_fit.residuals, b.field_values(theorem.c_fit.lam, pts)]
    return (verdict.verdict, verdict.evidence), arrays


def test_point_set_store_is_bounded_and_history_free():
    chart = get_builtin("ppwave_recurrent").chart
    b = curvature_bundle_at(chart)
    point_sets = [chart.sample_points(seed, 6) for seed in range(10)]
    served = [_point_set_results(b, pts) for pts in point_sets]
    assert len(b._blocks) <= 2
    # an evicted point set and the most recent one read the same as on a
    # bundle that never saw any other point set
    for k in (0, 9):
        fresh = _point_set_results(curvature_bundle_at(chart), point_sets[k])
        for got in (served[k], _point_set_results(b, point_sets[k])):
            assert got[0] == fresh[0]
            assert all(np.array_equal(x, y) for x, y in zip(got[1], fresh[1]))
    assert len(b._blocks) <= 2


def test_field_values_cache_distinguishes_fields():
    b = curvature_bundle_at(sphere2())
    pts = b.chart.sample_points(42, 4)
    v1 = b.field_values(b.riemann, pts)
    v2 = b.field_values(b.gtensor, pts)
    # sphere has R = G so values agree, but they must come from separate entries
    np.testing.assert_allclose(v1, v2, rtol=0, atol=1e-12)
    z = TensorField(2, 4, np.full((2, 2, 2, 2), ex.ZERO, dtype=object))
    np.testing.assert_allclose(b.field_values(z, pts), 0.0, rtol=0, atol=0)


def test_bundle_builds_each_tape_once_across_point_sets(monkeypatch):
    chart = get_builtin("ppwave_recurrent").chart
    point_sets = [chart.sample_points(seed, 6) for seed in range(3)]
    built = []

    class CountingTape(ex._Tape):
        __slots__ = ()

        def __init__(self, exprs):
            super().__init__(exprs)
            built.append(self.roots)

    monkeypatch.setattr(ex, "_Tape", CountingTape)
    b = curvature_bundle_at(chart)
    _point_set_results(b, point_sets[0])
    first = len(built)
    for pts in point_sets[1:]:
        _point_set_results(b, pts)
    assert first >= 5  # core, nabla R, nabla C, lambda, mu, ...
    assert len(built) == first
    assert len(set(built)) == len(built)
    assert len(b._tapes) == first


def _nabla_riemann_tape(chart):
    b = curvature_bundle_at(chart)
    nr = b.nabla_riemann()
    b.field_values(nr, chart.sample_points(0, 3))
    return b._tapes[tuple(nr.components.ravel())]


def test_nabla_riemann_tape_reuses_slots():
    # a dim-4 chart, whose nabla R still has thousands of distinct nodes
    tape = _nabla_riemann_tape(random_perturbed_flat(1, dim=4))
    nodes = len(tape.ops)
    assert nodes > 2000
    assert 4 * tape.size < nodes


def test_nabla_riemann_tape_stays_small():
    # R's quadratic part is built from first-kind Christoffel symbols, so
    # its simplified form carries one det g denominator, not det g^2; the
    # tape of nabla R on perturbed_flat had 2250 ops when it carried two
    assert len(_nabla_riemann_tape(get_builtin("perturbed_flat").chart).ops) <= 1300


def _reference_sample_points(chart, seed, count):
    """sample_points as it was before block evaluation: one candidate at a
    time through scalar evaluate."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    det = metric_determinant(chart.metric)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise GeometryError(
                f"chart '{chart.name}': sampling rejected too many points; "
                "exclusion loci may fill the box"
            )
        p = {
            c: float(rng.uniform(chart.domain[c][0], chart.domain[c][1]))
            for c in chart.coordinates
        }
        if any(abs(ex.evaluate(excl, p)) < 1e-3 for excl in chart.exclusions):
            continue
        d = ex.evaluate(det, p)
        if abs(d) <= 1e-12:
            raise SingularMetricError(chart.name, p, d)
        points.append(p)
    return points


def _sampling_outcome(sample, chart, seed, count):
    """Points or error of one sampling call; after points, the generator's
    next draw too, which shows that no candidate was drawn in excess."""
    rng = np.random.default_rng(seed)
    try:
        return sample(chart, rng, count), rng.random()
    except (ex.DomainError, GeometryError) as err:
        # a round is drawn whole before it is tested, so after an error the
        # generator may be past the failing candidate
        return type(err), str(err)


def test_sample_points_draws_and_admits_as_the_one_at_a_time_loop():
    from concirc.catalog import builtin_names, random_perturbed_flat

    charts = [(get_builtin(name).chart, range(10)) for name in builtin_names()]
    charts += [(random_perturbed_flat(s), range(5)) for s in range(8)]
    # a block that raises (ln of a negative coordinate, or det g at points
    # the scalar loop never reached) falls back to scalar evaluation; a locus that fills the box exhausts the attempts; a
    # degenerate metric raises at its first admitted point
    charts.append((_chart("ln", ("x", "y"), [["1", "0"], ["0", "1"]],
                          {"x": (-0.2, 3.0), "y": (0.0, 1.0)},
                          exclusions=(ex.parse("ln(x) + 5", ("x", "y")),)), range(5)))
    charts.append((_chart("masked", ("x", "y"), [["1", "0"], ["0", "sqrt(x)^2 + 1"]],
                          {"x": (-1.0, 1.0), "y": (0.0, 1.0)},
                          exclusions=(ex.parse("x + abs(x)", ("x", "y")),)), range(5)))
    charts.append((_chart("full", ("x", "y"), [["1", "0"], ["0", "1"]],
                          {"x": (0.0, 1.0), "y": (0.0, 1.0)},
                          exclusions=(ex.parse("x - x", ("x", "y")),)), range(2)))
    charts.append((_chart("flat", ("x", "y"), [["x^2 - x^2", "0"], ["0", "1"]],
                          {"x": (0.0, 1.0), "y": (0.0, 1.0)}), range(2)))
    for chart, seeds in charts:
        for seed in seeds:
            want = _sampling_outcome(_reference_sample_points, chart, seed, 25)
            got = _sampling_outcome(type(chart).sample_points, chart, seed, 25)
            assert got == want, (chart.name, seed)


def test_sample_points_builds_its_tapes_once_per_chart(monkeypatch):
    # the ln chart's blocks raise, so its rounds are decided point by point:
    # through the block tape, one tape for the exclusion and one for det g
    built = []

    class CountingTape(ex._Tape):
        __slots__ = ()

        def __init__(self, exprs):
            built.append(exprs)
            super().__init__(exprs)

    monkeypatch.setattr(ex, "_Tape", CountingTape)
    chart = _chart("ln", ("x", "y"), [["1", "0"], ["0", "1"]],
                   {"x": (-0.2, 3.0), "y": (0.0, 1.0)},
                   exclusions=(ex.parse("ln(x) + 5", ("x", "y")),))
    for seed in range(5):
        _sampling_outcome(type(chart).sample_points, chart, seed, 25)
    assert len(built) == 3


def test_an_empty_point_list_is_refused_by_every_numeric_read():
    from concirc.identities import check_bianchi_at
    from concirc.recurrence import check_proj_einstein_chain, fit_recurrence_form

    calls = {
        "walker": lambda b: check_walker_at(b, []),
        "bianchi-first": lambda b: check_bianchi_at(b, "first", []),
        "bianchi-second": lambda b: check_bianchi_at(b, "second", []),
        "semisymmetry": lambda b: check_semisymmetry_at(b, []),
        "classify": lambda b: classify(b, []),
        "fit-R": lambda b: fit_recurrence_form(b, "R", []),
        "fit-C": lambda b: fit_recurrence_form(b, "C", []),
        "verify-theorem": lambda b: verify_theorem(b, []),
        "values": lambda b: b.values_at([]),
        "field": lambda b: b.field_values(b.nabla_riemann(), []),
    }
    for name in ("sphere_2", "ppwave_recurrent", "perturbed_flat"):
        b = curvature_bundle_at(get_builtin(name).chart)
        chain = {"chain": lambda b: check_proj_einstein_chain(b, [])} if b.n >= 3 else {}
        for what, call in {**calls, **chain}.items():
            with pytest.raises(GeometryError, match="the point list is empty") as err:
                call(b)
            assert type(err.value) is GeometryError, (name, what)


def test_tensor_field_evaluate_is_its_block_row_on_every_builtin():
    from concirc.catalog import builtin_names
    from concirc.recurrence import _recurrence_form

    for name in builtin_names():
        b = curvature_bundle_at(get_builtin(name).chart)
        fields = [b.riemann, b.ricci, b.gtensor, b.concircular,
                  b.nabla_riemann(), b.nabla_concircular()]
        if any(c is not ex.ZERO for c in b.riemann.components.ravel()):
            fields.append(_recurrence_form(b, "R"))
        pts = b.chart.sample_points(3, 3)
        for tf in fields:
            block = tf.evaluate_block(pts)
            for i, p in enumerate(pts):
                np.testing.assert_array_equal(tf.evaluate(p), block[i], err_msg=name)
