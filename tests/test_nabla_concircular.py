"""nabla C from nabla R's rows, against the covariant derivative of C.

``CurvatureBundle.nabla_concircular`` builds nabla C = nabla R - (dr/(n(n-1))) G
with d_a r = g^jk g^mi (nabla_a R)_ijkm, which holds because nabla g = 0.
Its oracle is ``covariant_derivative_at(bundle, bundle.concircular)``, the
route it replaced: the values agree to rounding on every builtin, on random
charts and on the theorem's witness family, where r is not constant.
"""

import numpy as np
import pytest

import concirc.expressions as ex
from concirc import geometry
from concirc.catalog import builtin_names, get_builtin
from concirc.geometry import covariant_derivative_at, curvature_bundle_at
from reference import support
from test_structural_support import CHARTS, _chart

TOL = 1e-14


@pytest.fixture(scope="module", params=CHARTS)
def case(request):
    b = curvature_bundle_at(_chart(request.param))
    return request.param, b, b.chart.sample_points(42, 20)


def test_nabla_c_matches_the_covariant_derivative_of_c(case):
    label, b, pts = case
    new = b.nabla_concircular()
    old = covariant_derivative_at(b, b.concircular)
    got, want = b.field_values(new, pts), b.field_values(old, pts)
    bound = TOL * (1.0 + np.max(np.abs(b.field_values(b.nabla_riemann(), pts))))
    assert np.max(np.abs(got - want)) <= bound
    new_support, old_support = support(new), support(old)
    if label.startswith(("builtin:", "random:")):
        np.testing.assert_array_equal(new_support, old_support)
    else:
        # where r varies along a warped factor, the old route leaves
        # non-ZERO nodes that cancel to rounding at slots where nabla R and
        # G are both ZERO; the identity makes those slots ZERO
        assert np.isin(new_support, old_support).all()
        off = np.setdiff1d(old_support, new_support)
        assert np.max(np.abs(want.reshape(len(pts), -1)[:, off]), initial=0.0) <= bound


def test_nabla_c_is_nabla_r_node_for_node_where_r_is_zero():
    seen = 0
    for name in builtin_names():
        b = curvature_bundle_at(get_builtin(name).chart)
        if b.scalar_curvature is ex.ZERO:
            seen += 1
            nr, nc = b.nabla_riemann(), b.nabla_concircular()
            assert all(map(lambda c, r: c is r, nc.key, nr.key)), name
            assert nc.key not in b._loads  # no tape loads its own key
    assert seen == 3


def test_nabla_c_is_all_zero_on_the_dim_2_builtins():
    names = [name for name in builtin_names() if get_builtin(name).chart.n == 2]
    assert len(names) == 3
    for name in names:
        b = curvature_bundle_at(get_builtin(name).chart)
        assert all(c is ex.ZERO for c in b.concircular.key)
        nc = b.nabla_concircular()
        assert nc.components.shape == (2,) * 5
        assert all(c is ex.ZERO for c in nc.key), name
        assert support(nc).size == 0


def test_nabla_c_loads_nabla_r_g_and_the_inverse_metric(monkeypatch):
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    nc = b.nabla_concircular()
    assert b._loads[nc.key] == (b.nabla_riemann(), b.gtensor, b._inverse)
    b.field_values(nc, b.chart.sample_points(1, 5))
    tape = b._tapes[nc.key]
    assert sum(fn is not None for _, fn, _, _ in tape.ops) <= 130
    # nabla C builds no covariant derivative of its own
    fresh = curvature_bundle_at(b.chart)
    fresh.nabla_riemann()
    monkeypatch.setattr(geometry, "covariant_derivative_at", None)
    assert fresh.nabla_concircular().key == nc.key
