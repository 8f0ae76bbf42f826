"""Geometry layer: charts, Christoffel symbols, curvature tensors, derivatives."""

import math
import operator

import numpy as np
import pytest

import concirc.expressions as ex
from concirc import geometry
from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat
from concirc.geometry import (
    CurvatureBundle,
    GeometryError,
    MetricChart,
    ResourceLimitError,
    SingularMetricError,
    TensorField,
    _curvature_slot,
    _symmetric_pair,
    christoffel_at,
    covariant_derivative_at,
    curvature_bundle_at,
    metric_determinant,
)
from concirc.identities import check_semisymmetry_at, check_walker_at
from concirc.recurrence import classify, verify_theorem
from reference import (
    curvature_action_at,
    curvature_action_from_second_derivative,
    exterior_derivative_one_form_at,
    field_at,
    field_block,
    inverse_by_expansion,
    wedge_two_one_forms_at,
)


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
    # both entries are named, as the metric-file loader reports them
    assert "entry [0][1] = 'x' but [1][0] = 'y'" in str(err.value)


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


def test_chart_rejects_an_exclusion_with_an_undeclared_variable():
    refused = r"exclusions\[1\] uses undeclared variable\(s\) \['w'\]"
    with pytest.raises(GeometryError, match=refused):
        MetricChart(
            "bad",
            ("x", "y"),
            _obj([[ex.ONE, ex.ZERO], [ex.ZERO, ex.ONE]]),
            {"x": (0, 1), "y": (0, 1)},
            (ex.var("x"), ex.sub(ex.var("w"), ex.var("y"))),
        )


def test_chart_rejects_bad_domains():
    with pytest.raises(GeometryError):
        _chart("bad", ("x", "y"), [["1", "0"], ["0", "1"]], {"x": (0, 1)})
    with pytest.raises(GeometryError):
        _chart("bad", ("x", "y"), [["1", "0"], ["0", "1"]], {"x": (1, 1), "y": (0, 1)})
    with pytest.raises(GeometryError):
        _chart("bad", ("x",), [["1"]], {"x": (0, 1)})
    # sampling needs a finite box: each bound and the width hi - lo
    for bounds in ((-math.inf, math.inf), (0.0, math.inf), (-1e308, 1e308)):
        with pytest.raises(GeometryError, match="not finite"):
            _chart("bad", ("x", "y"), [["1", "0"], ["0", "1"]], {"x": bounds, "y": (0, 1)})


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


@pytest.mark.parametrize("dim", [0, 3, 4, 5, 6])
def test_the_inverse_shares_its_minors_and_keeps_every_node(dim):
    # each minor is expanded once per inverse; interning makes a shared
    # minor the node its own expansion would give, so det g and g^-1 are
    # the expansion's node for node (dim 0: the builtins)
    if dim:
        charts = [random_perturbed_flat(seed, dim=dim) for seed in range(8)]
    else:
        charts = [get_builtin(name).chart for name in builtin_names()]
    for chart in charts:
        det, inverse = inverse_by_expansion(chart.metric)
        assert metric_determinant(chart.metric) is det, chart.name
        got = geometry._inverse_metric(chart.metric)
        assert all(map(operator.is_, got.flat, inverse.flat)), chart.name


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
    g = field_at(b.gtensor, {"x": 0.3, "y": 0.4})
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


@pytest.mark.parametrize("name, expected", [("perturbed_flat", 52), ("minkowski_4", 135)])
def test_bundle_simplifies_riemann_once_per_orbit(monkeypatch, name, expected):
    # R is simplified once per orbit (6 at n=3, 21 at n=4), the inverse
    # metric and Ricci once per symmetric pair, and det g and the cofactors
    # once per distinct minor (9 at n=3, 32 at n=4); riemann_13, raised
    # from R, and C, built as its definition, are not simplified
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


def _zero_slots(components) -> list:
    return [c is ex.ZERO for c in components.flat]


def _charts(dim):
    """The builtins (dim 0), or random_perturbed_flat seeds 0-7 at dim."""
    if dim:
        return [random_perturbed_flat(seed, dim=dim) for seed in range(8)]
    return [get_builtin(name).chart for name in builtin_names()]


@pytest.mark.parametrize("dim", [0, 2])
def test_concircular_is_zero_in_dimension_2(dim):
    # R = (r/2) G on a surface, so C is ZERO by construction, node for node;
    # simplify left rounding noise in 4 of 16 slots on seeds 0, 1 and 6
    # (dim 0: the dim-2 builtins)
    charts = [chart for chart in _charts(dim) if chart.n == 2]
    assert len(charts) == (3 if dim == 0 else 8)
    for chart in charts:
        b = curvature_bundle_at(chart)
        assert all(_zero_slots(b.concircular.components)), chart.name
        assert all(_zero_slots(b.nabla_concircular().components)), chart.name


@pytest.mark.parametrize("dim", [0, 3, 4, 5, 6])
def test_concircular_keeps_the_zero_slots_of_its_simplified_form(dim):
    # C = R - (r / (n(n-1))) G as built: its ZERO slots are those simplify
    # would give it (dim 0: the builtins)
    for chart in _charts(dim):
        comps = curvature_bundle_at(chart).concircular.components
        simplified = np.vectorize(ex.simplify, otypes=[object])(comps)
        assert _zero_slots(comps) == _zero_slots(simplified), chart.name


@pytest.mark.parametrize("name", ["ppwave_recurrent", "minkowski_4", "flat_euclidean_3"])
def test_concircular_is_riemann_where_the_scalar_is_zero(name):
    b = curvature_bundle_at(get_builtin(name).chart)
    assert b.scalar_curvature is ex.ZERO
    assert all(map(operator.is_, b.concircular.key, b.riemann.key))


def test_nabla_riemann_builds_one_node_per_orbit():
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    comps = b.nabla_riemann().components.ravel()
    assert len(comps) == 243
    distinct = {frozenset((c, ex.neg(c))) for c in comps if c is not ex.ZERO}
    assert 0 < len(distinct) <= 18


def test_nabla_of_curvature_tensors_is_not_simplified(monkeypatch):
    # nabla R and nabla C are only ever evaluated, so they stay shared DAGs;
    # nabla g is ZERO by metric compatibility, not by simplify
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    metric = TensorField(b.n, 2, b.chart.metric, symmetry="symmetric-2")
    calls = []

    def counting(e):
        calls.append(e)
        return ex.simplify(e)

    monkeypatch.setattr("concirc.geometry.simplify", counting)
    for build in (b.nabla_riemann, b.nabla_concircular,
                  lambda: covariant_derivative_at(b, metric)):
        calls.clear()
        build()
        assert calls == []


# -- covariant differentiation ------------------------------------------------


def test_covariant_derivative_of_metric_vanishes():
    # metric compatibility: ZERO in every slot, on the diagonal sphere metric
    # and on a dense metric whose inverse does not fold symbolically
    for chart in (sphere2(), dense3()):
        b = curvature_bundle_at(chart)
        gfield = TensorField(b.n, 2, b.chart.metric, symmetry="symmetric-2")
        ng = covariant_derivative_at(b, gfield)
        assert ng.components.shape == (b.n,) * 3
        assert all(_zero_slots(ng.components)), chart.name


@pytest.mark.parametrize("dim", [0, 3, 4])
def test_covariant_derivative_of_the_chart_metric_is_zero(dim):
    # by metric compatibility: simplify left 18 of 27 slots non-ZERO on
    # perturbed_flat (dim 0: the builtins)
    for chart in _charts(dim):
        b = curvature_bundle_at(chart)
        ng = covariant_derivative_at(b, TensorField(b.n, 2, chart.metric, symmetry="symmetric-2"))
        assert all(_zero_slots(ng.components)), chart.name


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
    wv = field_at(w, p)
    gam = np.array(
        [[[ex.evaluate(b.christoffel[k, i, j], p) for j in range(2)] for i in range(2)] for k in range(2)]
    )
    dw = np.array(
        [[ex.evaluate(ex.differentiate(w.components[i], coords[a]), p) for i in range(2)] for a in range(2)]
    )
    expected = dw - np.einsum("mai,m->ai", gam, wv)
    np.testing.assert_allclose(field_at(grad, p), expected, rtol=0, atol=1e-14)


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
    v = field_at(second, p)
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
    v = field_at(d, {"x": 0.2, "y": 0.9})
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
    v = field_at(w, {"x": 3.0, "y": 5.0})
    # (mu ^ lam)(d_x, d_y) = (mu_x lam_y - mu_y lam_x) / 2
    np.testing.assert_allclose(v, [[0.0, 7.5], [-7.5, 0.0]], rtol=0, atol=0)
    wr = wedge_two_one_forms_at(lam, mu)
    np.testing.assert_allclose(field_at(wr, {"x": 3.0, "y": 5.0}), -v, rtol=0, atol=0)


# -- evaluation plumbing --------------------------------------------------------


def test_constant_field_block_evaluation_broadcasts():
    comps = np.empty((3,), dtype=object)
    comps[:] = ex.ONE
    f = TensorField(3, 1, comps)
    b = curvature_bundle_at(get_builtin("flat_euclidean_3").chart)
    x, y, z = b.chart.coordinates
    pts = [{x: 0.1, y: 0.2, z: 0.3}, {x: 0.4, y: 0.5, z: 0.6}]
    block = b.field_values(f, pts)
    assert block.shape == (2, 3)
    np.testing.assert_allclose(block, 1.0, rtol=0, atol=0)
    with pytest.raises(GeometryError, match="point list is empty"):
        b.field_values(f, [])


def _first_past(components, rep, limit):
    """Index of the first orbit representative, in build order, whose
    simplified component has more than limit distinct nodes."""
    return next(idx for idx in np.ndindex(*components.shape)
                if rep(idx) == (idx, 1) and ex.node_count(components[idx]) > limit)


@pytest.mark.parametrize("name, what", [
    ("sphere_2", "christoffel"), ("perturbed_flat", "christoffel"), ("perturbed_flat", "riemann"),
])
def test_a_component_past_the_node_limit_raises_naming_it(name, what, monkeypatch):
    chart = get_builtin(name).chart
    built = curvature_bundle_at(chart)
    # a limit below the largest Christoffel symbol stops the build there;
    # one at it lets every symbol through and stops at the first larger R
    big = max(ex.node_count(e) for e in built.christoffel.ravel())
    if what == "christoffel":
        limit, index = big - 1, _first_past(built.christoffel, _symmetric_pair, big - 1)
    else:
        limit, index = big, _first_past(built.riemann.components, _curvature_slot, big)
    monkeypatch.setattr(geometry, "COMPONENT_NODE_LIMIT", limit)
    with pytest.raises(ResourceLimitError) as err:
        curvature_bundle_at(chart)
    assert (err.value.what, err.value.index) == (what, index)
    assert str(err.value) == (
        f"simplification blow-up in {what}{list(index)}: {limit + 1}+ distinct nodes"
    )


@pytest.mark.parametrize("name", ["perturbed_flat", "sphere_3"])
def test_a_bundle_builds_when_only_the_union_of_its_components_passes_the_node_limit(
    name, monkeypatch
):
    chart = get_builtin(name).chart
    built = curvature_bundle_at(chart)
    guarded = [*built.christoffel.ravel(), *built.riemann.components.ravel()]
    limit = max(ex.node_count(e) for e in guarded)
    assert len(ex._order(guarded)[0]) > limit
    monkeypatch.setattr(geometry, "COMPONENT_NODE_LIMIT", limit)
    again = curvature_bundle_at(chart)
    assert all(a is b for a, b in zip(again.riemann.components.ravel(),
                                      built.riemann.components.ravel()))


def test_values_at_caches_per_point_set():
    b = curvature_bundle_at(sphere2())
    pts = b.chart.sample_points(42, 4)
    assert b.values_at(pts) is b.values_at(pts)


@pytest.mark.parametrize("name", ["ppwave_recurrent", "perturbed_flat", "sphere_3"])
def test_a_check_run_makes_one_record_per_point_list_and_keeps_distinct_rows(name, monkeypatch):
    made = []
    real = geometry._PointSet.__new__

    def counting(cls, *args, **kwargs):
        made.append(None)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(geometry._PointSet, "__new__", staticmethod(counting))
    b = curvature_bundle_at(get_builtin(name).chart)
    pts = b.chart.sample_points(1, 200)
    classify(b, pts)
    verify_theorem(b, pts)
    (store,) = b._blocks.values()
    subsets = {v[1].tobytes() for k, v in store.items()
               if isinstance(k, tuple) and k[0] == "fit" and v[1].any() and not v[1].all()}
    assert len(made) == 1 + len(subsets)
    # every stored field is its tape's distinct rows, never one row per root
    for entry, value in store.items():
        if entry in b._tapes:
            rows = value.rows if entry == "core" else value
            assert rows.shape == (len(b._tapes[entry].outputs), len(pts))
    if name == "ppwave_recurrent":
        tape = b._tapes[b.nabla_riemann().key]
        assert len(tape.outputs) == 3 < len(tape.roots) == 1024


def test_a_point_set_record_equals_its_list_and_keeps_one_record_per_subset():
    chart = get_builtin("perturbed_flat").chart
    pts = chart.sample_points(3, 6)
    listed = list(pts)
    # sample_points keeps its draws' rows; converting the dicts gives the same bytes
    assert geometry._PointSet(listed, chart.coordinates).key == pts.key
    assert pts == listed and listed == pts and not pts != listed
    assert pts == tuple(listed) and tuple(pts) == tuple(listed)
    assert pts != listed[:5] and pts != chart.sample_points(4, 6)
    mask = np.array([True, False, True, True, False, True])
    kept = pts.subset(mask)
    assert kept is pts.subset(mask.copy())
    assert pts.subset(np.ones(6, dtype=bool)) is pts
    assert kept == [p for p, ok in zip(listed, mask) if ok]
    fresh = geometry._PointSet(kept, chart.coordinates)
    assert kept.key == fresh.key
    for c in chart.coordinates:
        assert kept.columns[c].tobytes() == fresh.columns[c].tobytes()


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


@pytest.mark.parametrize("first_x", [-0.0, 0.0])
def test_a_point_set_at_minus_zero_is_not_the_one_at_plus_zero(first_x):
    # -0.0 == +0.0, but perturbed_flat's Christoffel symbols carry the sign
    # of x's zero, so the two point sets must not share a store entry
    chart = get_builtin("perturbed_flat").chart
    first, second = ({"x": x, "y": 0.3, "z": -0.4} for x in (first_x, -first_x))

    def results(b, p):
        return {**b.values_at([p]), "nabla_riemann": b.field_values(b.nabla_riemann(), [p])}

    b = curvature_bundle_at(chart)
    for p in (first, second):
        got, want = results(b, p), results(curvature_bundle_at(chart), p)
        assert [k for k in want if got[k].tobytes() != want[k].tobytes()] == []


def test_field_values_cache_distinguishes_fields():
    b = curvature_bundle_at(sphere2())
    pts = b.chart.sample_points(42, 4)
    # the unit sphere has R = G node for node: one key, so one entry serves both
    assert b.riemann.key == b.gtensor.key
    assert b.field_values(b.riemann, pts).tobytes() == b.field_values(b.gtensor, pts).tobytes()
    # other nodes are another key, with values of their own
    twice = np.array([ex.mul(ex.const(2), c) for c in b.riemann.key], dtype=object)
    twice = TensorField(2, 4, twice.reshape(b.riemann.components.shape))
    np.testing.assert_array_equal(b.field_values(twice, pts), 2 * b.field_values(b.riemann, pts))
    z = TensorField(2, 4, np.full((2, 2, 2, 2), ex.ZERO, dtype=object))
    np.testing.assert_allclose(b.field_values(z, pts), 0.0, rtol=0, atol=0)


def test_block_domain_error_names_its_field_and_component():
    box = {"x": (0.5, 3.0), "y": (-2.0, 2.0), "z": (-2.0, 2.0)}
    rows = [["1", "0", "0"], ["0", "x^4", "0"], ["0", "0", "1"]]
    b = curvature_bundle_at(_chart("x4", ("x", "y", "z"), rows, box))
    at_zero = [{"x": 0.0, "y": 0.1, "z": 0.2}]
    where = "non-finite value in block evaluation at point 0 (x=0, y=0.1, z=0.2)"
    # the core block names the field from its spans: g^yy = 1/x^4 is the
    # first field that fails, ahead of the scalar r = -4/x^2 built from it
    with pytest.raises(ex.DomainError) as err:
        b.values_at(at_zero)
    assert str(err.value).startswith(f"inverse_metric[1, 1]: {where} in subexpression")
    assert err.value.subexpression is b.inverse_metric[1, 1]
    # field_values names the component index
    nabla = b.nabla_riemann()
    with pytest.raises(ex.DomainError) as err:
        b.field_values(nabla, at_zero)
    name, _, rest = str(err.value).partition(": ")
    assert name.startswith("component[") and rest.startswith(where)
    index = tuple(int(i) for i in name[len("component[") : -1].split(", "))
    assert nabla.components[index] is err.value.subexpression


def test_bundle_builds_each_tape_once_across_point_sets(monkeypatch):
    chart = get_builtin("ppwave_recurrent").chart
    point_sets = [chart.sample_points(seed, 6) for seed in range(3)]
    built = []

    class CountingTape(ex._Tape):
        __slots__ = ()

        def __init__(self, exprs, loads=()):
            super().__init__(exprs, loads)
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
    return b._tapes[nr.key]


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


def _scalar_draw_sample_points(chart, rng, count):
    """sample_points with one scalar uniform call per coordinate, candidate
    by candidate, and each candidate decided at once by the chart's scalar
    tapes; the rule is the block's, only the draws are scalar."""
    *exclusions, det = chart._scalar_tapes
    points = []
    while len(points) < count:
        p = {c: float(rng.uniform(*chart.domain[c])) for c in chart.coordinates}
        if any(abs(t.at(p)[0]) < 1e-3 for t in exclusions):
            continue
        d = float(det.at(p)[0])
        if abs(d) <= 1e-12:
            raise SingularMetricError(chart.name, p, d)
        points.append(p)
    return points


def test_sample_points_draws_as_one_scalar_uniform_per_coordinate():
    from concirc.catalog import builtin_names

    charts = [(get_builtin(name).chart, range(5)) for name in builtin_names()]
    charts += [(random_perturbed_flat(s), range(5)) for s in range(8)]
    for chart, seeds in charts:
        for seed in seeds:
            want = _sampling_outcome(_scalar_draw_sample_points, chart, seed, 64)
            got = _sampling_outcome(type(chart).sample_points, chart, seed, 64)
            # the same points, and the generator left where the scalar loop leaves it
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


def test_a_one_point_tape_run_is_its_field_values_row_on_every_builtin():
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
            block = b.field_values(tf, pts)
            for i, p in enumerate(pts):
                np.testing.assert_array_equal(field_at(tf, p), block[i], err_msg=name)
