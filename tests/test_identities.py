"""Identity checks: Walker, Bianchi, semisymmetry, and the kernel lemma."""

import itertools

import numpy as np
import pytest

from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat
from concirc.geometry import (
    GeometryError,
    curvature_action_at,
    curvature_action_from_second_derivative,
    curvature_bundle_at,
)
from concirc.identities import (
    HypothesisError,
    IdentityReport,
    _curvature_action,
    _per_point_max,
    check_bianchi_at,
    check_semisymmetry_at,
    check_walker_at,
    random_curvature_like,
    walker_lemma_kernel,
)
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
    # the check's pair-space action against the symbolic Ricci-identity route
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


def _on_pairs(arr):
    """The (u<v, w<x, y<z) slots of a (p, n^6) array, as (p, N, N, N)."""
    i, j = np.triu_indices(arr.shape[1], 1)
    return arr[:, i, j][:, :, i, j][:, :, :, i, j]


@pytest.mark.parametrize("name", ["ppwave_recurrent", "perturbed_flat", "sphere_3"])
def test_check_arrays_match_the_sums_written_out(name):
    # each check's residuals and scales, recomputed from the evaluated fields
    # with every cyclic sum spelled out, agree bit for bit
    b = bundle_for(name)
    pts = b.chart.sample_points(17, 6)
    v = b.values_at(pts)
    acted, acted_abs, diag = _curvature_action(v["riemann_13"], v["riemann"])
    rv, ra = v["riemann"], np.abs(v["riemann"])
    nr = b.field_values(b.nabla_riemann(), pts)
    na = np.abs(nr)
    expected = {
        "walker": (
            check_walker_at(b, pts),
            acted
            + np.einsum("pWQU->pUWQ", acted)
            + np.einsum("pQUW->pUWQ", acted),
            np.maximum(
                _max_over_components(
                    acted_abs
                    + np.einsum("pWQU->pUWQ", acted_abs)
                    + np.einsum("pQUW->pUWQ", acted_abs)
                ),
                _max_over_components(diag + np.einsum("pQUw->pUQw", diag)),
            ),
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
        "semisymmetry": (
            check_semisymmetry_at(b, pts),
            acted,
            np.maximum(_max_over_components(acted_abs), _max_over_components(diag)),
        ),
    }
    for identity, (rep, total, scale) in expected.items():
        assert rep.identity == identity
        assert rep.points == tuple(pts)
        # a (npoints,) scale is already the per-point maximum, and passes through
        np.testing.assert_array_equal(rep.residuals, _max_over_components(total), err_msg=identity)
        np.testing.assert_array_equal(rep.scales, _max_over_components(scale), err_msg=identity)


def test_action_arrays_match_symbolic_route():
    for name in ("sphere_3", "ppwave_recurrent"):
        b = bundle_for(name)
        pts = b.chart.sample_points(13, 5)
        v = b.values_at(pts)
        acted, scale, diag = _curvature_action(v["riemann_13"], v["riemann"])
        symbolic = b.field_values(curvature_action_at(b, b.riemann), pts)
        np.testing.assert_allclose(
            acted, _on_pairs(symbolic), rtol=0, atol=1e-12 * (1 + np.max(scale)), err_msg=name
        )
        assert np.all(scale >= 0) and np.all(diag >= 0)


def _action_arrays_by_einsum(r13, tv):
    """Reference: the n^6 action and its scale, one plain einsum per
    derivation hook."""
    hooks = (
        ("puvwm,pmxyz->puvwxyz", tv),
        ("puvxm,pwmyz->puvwxyz", tv),
        ("puvym,pwxmz->puvwxyz", tv),
        ("puvzm,pwxym->puvwxyz", tv),
    )
    acted = sum(np.einsum(spec, r13, t) for spec, t in hooks)
    scale = sum(np.einsum(spec, np.abs(r13), np.abs(t)) for spec, t in hooks)
    return -acted, scale


def _pair_symmetric(rng, npts, n):
    """Random (npts, n^4) arrays antisymmetric in each index pair and
    symmetric under the pair swap, with no first Bianchi projection, so a
    slot mix-up still shows."""
    t = rng.standard_normal((npts,) + (n,) * 4)
    t = t - np.einsum("pwxyz->pxwyz", t)
    t = t - np.einsum("pwxyz->pwxzy", t)
    return t + np.einsum("pwxyz->pyzwx", t)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_action_arrays_match_einsum_reference(n):
    rng = np.random.default_rng(100 + n)
    r13 = rng.standard_normal((7,) + (n,) * 4)
    r13 = r13 - np.einsum("puvwm->pvuwm", r13)
    tv = _pair_symmetric(rng, 7, n)
    acted, scale, diag = _curvature_action(r13, tv)
    ref_acted, ref_scale = _action_arrays_by_einsum(r13, tv)
    npairs = n * (n - 1) // 2
    assert acted.shape == scale.shape == (7,) + (npairs,) * 3
    assert diag.shape == (7, npairs, npairs, n)
    atol = 1e-12 * (1 + np.max(ref_scale))
    np.testing.assert_allclose(acted, _on_pairs(ref_acted), rtol=0, atol=atol)
    np.testing.assert_allclose(scale, _on_pairs(ref_scale), rtol=0, atol=atol)
    # every other slot of the reference is a signed mirror of a pair slot,
    # a w = x (or y = z) diagonal, or zero
    pair = {(a, b): k for k, (a, b) in enumerate(zip(*np.triu_indices(n, 1)))}

    def index(a, b):
        return (pair[a, b], 1.0) if a < b else (pair[b, a], -1.0)

    want, want_abs = np.zeros_like(ref_acted), np.zeros_like(ref_scale)
    for u, v, w, x, y, z in itertools.product(range(n), repeat=6):
        if u == v or (w == x and y == z):
            continue
        U, su = index(u, v)
        if w == x:
            want_abs[:, u, v, w, x, y, z] = diag[:, U, index(y, z)[0], w]
        elif y == z:
            want_abs[:, u, v, w, x, y, z] = diag[:, U, index(w, x)[0], y]
        else:
            (W, sw), (Q, sq) = index(w, x), index(y, z)
            want[:, u, v, w, x, y, z] = su * sw * sq * acted[:, U, W, Q]
            want_abs[:, u, v, w, x, y, z] = scale[:, U, W, Q]
    np.testing.assert_allclose(ref_acted, want, rtol=0, atol=atol)
    np.testing.assert_allclose(ref_scale, want_abs, rtol=0, atol=atol)


def test_walker_and_semisymmetry_match_einsum_reference_in_dimension_5():
    b = curvature_bundle_at(random_perturbed_flat(1, dim=5))
    pts = b.chart.sample_points(3, 6)
    v = b.values_at(pts)
    acted, acted_abs = _action_arrays_by_einsum(v["riemann_13"], v["riemann"])
    cycle = ("pwxyzuv->puvwxyz", "pyzuvwx->puvwxyz")
    walker = (
        acted + np.einsum(cycle[0], acted) + np.einsum(cycle[1], acted),
        acted_abs + np.einsum(cycle[0], acted_abs) + np.einsum(cycle[1], acted_abs),
    )
    for rep, (total, scale) in (
        (check_walker_at(b, pts), walker),
        (check_semisymmetry_at(b, pts), (acted, acted_abs)),
    ):
        ref_scales = _max_over_components(scale)
        atol = 1e-12 * (1 + ref_scales)
        assert np.all(np.abs(rep.scales - ref_scales) <= atol), rep.identity
        assert np.all(np.abs(rep.residuals - _max_over_components(total)) <= atol), rep.identity
    assert check_walker_at(b, pts).passed


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
