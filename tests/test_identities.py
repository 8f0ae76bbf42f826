"""Identity checks: Walker, Bianchi, semisymmetry, and the kernel lemma."""

import numpy as np
import pytest

from concirc.catalog import builtin_names, get_builtin
from concirc.geometry import (
    GeometryError,
    curvature_action_at,
    curvature_action_from_second_derivative,
    curvature_bundle_at,
)
from concirc.identities import (
    HypothesisError,
    IdentityReport,
    _action_arrays,
    _per_point_max,
    check_bianchi_at,
    check_semisymmetry_at,
    check_walker_at,
    random_curvature_like,
    walker_lemma_kernel,
)
from concirc.recurrence import verify_theorem

_BUNDLES = {}


def bundle_for(name):
    if name not in _BUNDLES:
        _BUNDLES[name] = curvature_bundle_at(get_builtin(name).chart)
    return _BUNDLES[name]


# -- the universal identities over the catalog ---------------------------------


def test_walker_identity_on_all_builtins():
    for name in builtin_names():
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 10)
        rep = check_walker_at(b, pts, tol=1e-8)
        assert rep.passed, f"{name}: {rep}"
        assert rep.identity == "walker"
        assert len(rep.residuals) == len(pts)


def test_bianchi_identities_on_all_builtins():
    for name in builtin_names():
        b = bundle_for(name)
        pts = b.chart.sample_points(7, 6)
        for kind in ("first", "second"):
            rep = check_bianchi_at(b, kind, pts, tol=1e-9)
            assert rep.passed, f"{name} {kind}: {rep}"


def test_bianchi_rejects_unknown_kind():
    b = bundle_for("sphere_2")
    with pytest.raises(GeometryError):
        check_bianchi_at(b, "third", b.chart.sample_points(1, 2))


def test_semisymmetry_holds_where_expected():
    # locally symmetric and 2-dimensional charts are all semisymmetric,
    # and so is the pp-wave
    for name in (
        "flat_euclidean_3",
        "minkowski_4",
        "sphere_2",
        "sphere_3",
        "hyperbolic_2",
        "surface_power",
        "ppwave_recurrent",
    ):
        b = bundle_for(name)
        pts = b.chart.sample_points(11, 6)
        rep = check_semisymmetry_at(b, pts, tol=1e-9)
        assert rep.passed, f"{name}: {rep}"


def test_semisymmetry_fails_on_generic_chart():
    b = bundle_for("perturbed_flat")
    pts = b.chart.sample_points(5, 8)
    rep = check_semisymmetry_at(b, pts, tol=1e-8)
    assert not rep.passed
    assert rep.max_residual > 1e-6


def test_semisymmetry_routes_agree():
    # the check's derivation hooks against the symbolic Ricci-identity route
    for name in ("sphere_2", "ppwave_recurrent", "perturbed_flat"):
        b = bundle_for(name)
        pts = b.chart.sample_points(3, 5)
        rep = check_semisymmetry_at(b, pts)
        field = curvature_action_from_second_derivative(b, b.riemann)
        reference = _per_point_max(b.field_values(field, pts))
        np.testing.assert_allclose(
            rep.residuals, reference, rtol=0, atol=1e-9 * (1.0 + np.max(rep.scales))
        )


def _max_over_components(arr):
    return np.max(np.abs(arr), axis=tuple(range(1, arr.ndim)))


@pytest.mark.parametrize("name", ["ppwave_recurrent", "perturbed_flat", "sphere_3"])
def test_check_arrays_match_the_sums_written_out(name):
    # each check's residuals and scales, recomputed from the evaluated fields
    # with every cyclic sum spelled out, agree bit for bit
    b = bundle_for(name)
    pts = b.chart.sample_points(17, 6)
    v = b.values_at(pts)
    acted, acted_abs = _action_arrays(v["riemann_13"], v["riemann"])
    rv, ra = v["riemann"], np.abs(v["riemann"])
    nr = b.field_values(b.nabla_riemann(), pts)
    na = np.abs(nr)
    expected = {
        "walker": (
            check_walker_at(b, pts),
            acted
            + np.einsum("pwxyzuv->puvwxyz", acted)
            + np.einsum("pyzuvwx->puvwxyz", acted),
            acted_abs
            + np.einsum("pwxyzuv->puvwxyz", acted_abs)
            + np.einsum("pyzuvwx->puvwxyz", acted_abs),
        ),
        "bianchi-first": (
            check_bianchi_at(b, "first", pts),
            rv + np.einsum("pxywz->pwxyz", rv) + np.einsum("pywxz->pwxyz", rv),
            ra + np.einsum("pxywz->pwxyz", ra) + np.einsum("pywxz->pwxyz", ra),
        ),
        "bianchi-second": (
            check_bianchi_at(b, "second", pts),
            nr + np.einsum("pwxayz->pawxyz", nr) + np.einsum("pxawyz->pawxyz", nr),
            na + np.einsum("pwxayz->pawxyz", na) + np.einsum("pxawyz->pawxyz", na),
        ),
        "semisymmetry": (check_semisymmetry_at(b, pts), acted, acted_abs),
    }
    for identity, (rep, total, scale) in expected.items():
        assert rep.identity == identity
        assert rep.points == tuple(pts)
        np.testing.assert_array_equal(rep.residuals, _max_over_components(total), err_msg=identity)
        np.testing.assert_array_equal(rep.scales, _max_over_components(scale), err_msg=identity)


def test_action_arrays_match_symbolic_route():
    for name in ("sphere_3", "ppwave_recurrent"):
        b = bundle_for(name)
        pts = b.chart.sample_points(13, 5)
        v = b.values_at(pts)
        acted, scale = _action_arrays(v["riemann_13"], v["riemann"])
        symbolic = b.field_values(curvature_action_at(b, b.riemann), pts)
        np.testing.assert_allclose(
            acted, symbolic, rtol=0, atol=1e-12 * (1 + np.max(scale)), err_msg=name
        )
        assert np.all(scale >= 0)


def _action_arrays_by_einsum(r13, tv):
    """Reference: one plain einsum per derivation hook."""
    hooks = (
        ("puvwm,pmxyz->puvwxyz", tv),
        ("puvxm,pwmyz->puvwxyz", tv),
        ("puvym,pwxmz->puvwxyz", tv),
        ("puvzm,pwxym->puvwxyz", tv),
    )
    acted = sum(np.einsum(spec, r13, t) for spec, t in hooks)
    scale = sum(np.einsum(spec, np.abs(r13), np.abs(t)) for spec, t in hooks)
    return -acted, scale


@pytest.mark.parametrize("n", [2, 3, 4])
def test_action_arrays_match_einsum_reference(n):
    # unsymmetric inputs, so a hook that contracts the wrong slot shows
    rng = np.random.default_rng(100 + n)
    r13 = rng.standard_normal((7,) + (n,) * 4)
    tv = rng.standard_normal((7,) + (n,) * 4)
    acted, scale = _action_arrays(r13, tv)
    ref_acted, ref_scale = _action_arrays_by_einsum(r13, tv)
    atol = 1e-12 * (1 + np.max(ref_scale))
    assert acted.shape == ref_acted.shape == (7,) + (n,) * 6
    np.testing.assert_allclose(acted, ref_acted, rtol=0, atol=atol)
    np.testing.assert_allclose(scale, ref_scale, rtol=0, atol=atol)


def test_curvature_action_computed_once_per_point_set(monkeypatch):
    calls = []

    def counting(r13, tv):
        calls.append(r13.shape[0])
        return _action_arrays(r13, tv)

    monkeypatch.setattr("concirc.identities._action_arrays", counting)
    b = curvature_bundle_at(get_builtin("ppwave_recurrent").chart)
    pts = b.chart.sample_points(5, 8)
    assert check_walker_at(b, pts).passed
    assert check_semisymmetry_at(b, pts).passed
    theorem = verify_theorem(b, pts)
    assert theorem.passed and len(theorem.semisymmetry_check.points) == len(pts)
    assert calls == [len(pts)]


def test_identity_report_pass_rule():
    rep = IdentityReport(
        identity="demo",
        chart="c",
        points=({"x": 0.0},) * 3,
        residuals=np.array([0.0, 5e-9, 2e-7]),
        scales=np.array([0.0, 0.0, 100.0]),
        tol=1e-8,
    )
    # third point passes only because its scale loosens the bound
    assert rep.passes.tolist() == [True, True, True]
    assert rep.passed
    assert rep.max_residual == 2e-7
    assert "demo" in str(rep)
    failing = IdentityReport("demo", "c", ({},), np.array([1e-3]), np.array([0.0]), 1e-8)
    assert not failing.passed
    assert "FAIL" in str(failing)


# -- the kernel lemma -----------------------------------------------------------


def test_kernel_is_trivial_for_random_curvature_like():
    rng = np.random.default_rng(42)
    for dim in (3, 4, 5):
        for _ in range(10):
            b = random_curvature_like(rng, dim)
            rep = walker_lemma_kernel(dim, b)
            assert rep.kernel_dimension == 0, dim
            assert rep.basis.shape == (0, dim, dim)
            n_forms = dim * (dim - 1) // 2
            assert len(rep.singular_values) == n_forms


def test_kernel_is_trivial_for_catalog_curvatures():
    for name in ("sphere_3", "minkowski_4"):
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 1)
        v = b.values_at(pts)
        source = v["riemann"][0] if name == "sphere_3" else v["gtensor"][0]
        rep = walker_lemma_kernel(b.n, source)
        assert rep.kernel_dimension == 0, name


def test_kernel_map_matches_direct_cyclic_sum():
    """Independent oracle: image of a random 2-form computed by loops."""
    rng = np.random.default_rng(3)
    dim = 3
    b = random_curvature_like(rng, dim)
    d = rng.standard_normal((dim, dim))
    d = d - d.T

    direct = np.zeros((dim,) * 6)
    for u, v, w, x, y, z in np.ndindex(*(dim,) * 6):
        direct[u, v, w, x, y, z] = (
            d[u, v] * b[w, x, y, z] + d[w, x] * b[y, z, u, v] + d[y, z] * b[u, v, w, x]
        )
    via_einsum = (
        np.einsum("uv,wxyz->uvwxyz", d, b)
        + np.einsum("wx,yzuv->uvwxyz", d, b)
        + np.einsum("yz,uvwx->uvwxyz", d, b)
    )
    np.testing.assert_allclose(via_einsum, direct, rtol=0, atol=1e-12)
    # a trivial kernel means this image cannot vanish for d != 0
    assert np.max(np.abs(direct)) > 1e-3


def test_kernel_rejects_zero_tensor():
    with pytest.raises(HypothesisError):
        walker_lemma_kernel(3, np.zeros((3, 3, 3, 3)))
    with pytest.raises(HypothesisError):
        walker_lemma_kernel(3, np.full((3, 3, 3, 3), 1e-12))


def test_kernel_rejects_wrong_shape():
    with pytest.raises(GeometryError):
        walker_lemma_kernel(3, np.zeros((3, 3)))
    with pytest.raises(GeometryError):
        walker_lemma_kernel(4, np.ones((3, 3, 3, 3)))


def test_kernel_detects_degenerate_pairing():
    """A tensor with no pair structure at all can admit a kernel.

    B supported on a single slot pattern that never overlaps the cyclic
    partners of some 2-form direction; this guards the rank computation
    itself rather than the lemma's hypothesis.
    """
    dim = 3
    b = np.zeros((dim,) * 4)
    b[0, 1, 0, 1] = 1.0  # not antisymmetrized: e_01 x e_01 only
    rep = walker_lemma_kernel(dim, b)
    # the full map still has positive rank and a sane SVD
    assert rep.singular_values[0] > 0
    assert 0 <= rep.kernel_dimension < dim * (dim - 1) // 2 + 1


def test_hypothesis_error_is_geometry_error():
    assert issubclass(HypothesisError, GeometryError)


def test_random_curvature_like_symmetries():
    rng = np.random.default_rng(0)
    for dim in (3, 4, 5):
        t = random_curvature_like(rng, dim)
        assert np.max(np.abs(t)) > 0.1
        np.testing.assert_allclose(t, -np.einsum("wxyz->xwyz", t), atol=1e-12)
        np.testing.assert_allclose(t, -np.einsum("wxyz->wxzy", t), atol=1e-12)
        np.testing.assert_allclose(t, np.einsum("wxyz->yzwx", t), atol=1e-12)
        cyc = t + np.einsum("wxyz->xywz", t) + np.einsum("wxyz->ywxz", t)
        np.testing.assert_allclose(cyc, 0.0, atol=1e-12)


def test_random_curvature_like_is_seed_deterministic():
    a = random_curvature_like(np.random.default_rng(9), 4)
    b = random_curvature_like(np.random.default_rng(9), 4)
    np.testing.assert_array_equal(a, b)
