"""Independent oracle for the curvature fields: SymPy, by the Christoffel route.

The bundle builds R from the metric's second derivatives and first-kind
Christoffel symbols. The oracle parses each metric from its printed form,
forms Gamma from g^-1 and dg, riemann_13 from d Gamma and Gamma Gamma, then
R by lowering the last index with g, Ricci by the trace, r = g^jk S_jk and
C = R - r G / (n(n-1)), and compares at sample points through lambdify. The
numeric comparisons call no SymPy simplification; the exact-zero contracts
are checked with ``sympy.simplify`` on the oracle's own expressions.
"""

import functools

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

import concirc.expressions as ex  # noqa: E402
from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat  # noqa: E402
from concirc.geometry import (  # noqa: E402
    TensorField,
    covariant_derivative_at,
    curvature_bundle_at,
)

_FUNCTIONS = {"ln": sympy.log, "abs": sympy.Abs}


def _sympy_metric(chart):
    symbols = sympy.symbols(chart.coordinates)
    names = dict(zip(chart.coordinates, symbols), **_FUNCTIONS)
    n = chart.n

    def entry(i, j):
        return sympy.sympify(ex.to_string(chart.metric[i, j]).replace("^", "**"), locals=names)

    g = sympy.Matrix(n, n, entry)
    return symbols, g


def _curvature_by_christoffel(symbols, g) -> dict:
    """Gamma, R, Ricci, r, C and nabla g, each a dict from index tuple to
    SymPy expression, keyed as the fields of the core block."""
    n = len(symbols)
    idx = functools.partial(np.ndindex, *(n,) * 4)
    ginv = g.adjugate() / g.det(method="berkowitz")
    dg = [[[sympy.diff(g[i, j], symbols[a]) for j in range(n)] for i in range(n)] for a in range(n)]
    gamma = {
        (k, i, j): sum(ginv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(n)) / 2
        for k, i, j in np.ndindex(n, n, n)
    }
    r13 = {
        (i, j, k, l): sympy.diff(gamma[l, j, k], symbols[i])
        - sympy.diff(gamma[l, i, k], symbols[j])
        + sum(gamma[m, j, k] * gamma[l, i, m] - gamma[m, i, k] * gamma[l, j, m] for m in range(n))
        for i, j, k, l in idx()
    }
    riemann = {
        (i, j, k, m): sum(r13[i, j, k, l] * g[l, m] for l in range(n)) for i, j, k, m in idx()
    }
    ricci = {(j, k): sum(r13[i, j, k, i] for i in range(n)) for j, k in np.ndindex(n, n)}
    scalar = sum(ginv[j, k] * ricci[j, k] for j, k in np.ndindex(n, n))
    scale = scalar / (n * (n - 1))
    concircular = {
        (i, j, k, l): riemann[i, j, k, l] - scale * (g[j, k] * g[i, l] - g[i, k] * g[j, l])
        for i, j, k, l in idx()
    }
    nabla_metric = {
        (a, i, j): dg[a][i][j]
        - sum(gamma[k, a, i] * g[k, j] + gamma[k, a, j] * g[i, k] for k in range(n))
        for a, i, j in np.ndindex(n, n, n)
    }
    return {
        "nabla_metric": nabla_metric,
        "christoffel": gamma,
        "riemann": riemann,
        "ricci": ricci,
        "scalar": {(): scalar},
        "concircular": concircular,
    }


@functools.lru_cache(maxsize=None)
def _oracle(name):
    chart = get_builtin(name).chart
    symbols, g = _sympy_metric(chart)
    return chart, symbols, _curvature_by_christoffel(symbols, g)


def _compare(chart, symbols, oracle, fields):
    """Our core block against the oracle's fields at five sample points."""
    flat = [oracle[f][i] for f in fields for i in sorted(oracle[f])]
    values = sympy.lambdify(symbols, flat, "numpy", cse=True)
    points = chart.sample_points(2026, 5)
    ours = curvature_bundle_at(chart).values_at(points)
    for p, point in enumerate(points):
        want = np.broadcast_to(
            np.array(values(*(point[c] for c in chart.coordinates)), dtype=float), (len(flat),)
        )
        start = 0
        for f in fields:
            got = np.ravel(ours[f][p])
            part = want[start : start + got.size]
            start += got.size
            atol = 1e-12 * (1.0 + np.max(np.abs(part)))
            np.testing.assert_allclose(
                got, part, rtol=0, atol=atol, err_msg=f"{chart.name} {f} point {p}"
            )


@pytest.mark.parametrize("name", builtin_names())
def test_riemann_matches_sympy_christoffel_route(name):
    _compare(*_oracle(name), ("riemann",))


@pytest.mark.parametrize("name", builtin_names())
def test_christoffel_ricci_scalar_and_concircular_match_sympy(name):
    _compare(*_oracle(name), ("christoffel", "ricci", "scalar", "concircular"))


@pytest.mark.parametrize("seed", [1, 6])
def test_riemann_matches_sympy_on_random_charts(seed):
    # two charts of the sweep_random benchmark panel, off-diagonal terms included
    chart = random_perturbed_flat(seed)
    symbols, g = _sympy_metric(chart)
    oracle = _curvature_by_christoffel(symbols, g)
    _compare(chart, symbols, oracle, ("riemann",))


@pytest.mark.parametrize(
    "name, field",
    [
        ("hyperbolic_2", "concircular"),
        ("sphere_2", "concircular"),
        ("surface_power", "concircular"),
        ("flat_euclidean_3", "scalar"),
        ("minkowski_4", "scalar"),
        ("ppwave_recurrent", "scalar"),
        ("ppwave_recurrent", "ricci"),
        ("sphere_2", "nabla_metric"),
        ("sphere_3", "nabla_metric"),
    ],
)
def test_exact_zero_contracts_are_identities(name, field):
    # the field is ZERO in every component of ours, and sympy.simplify shows
    # that the oracle's unsimplified expression vanishes identically
    chart, _, oracle = _oracle(name)
    b = curvature_bundle_at(chart)
    ours = {
        "concircular": b.concircular.components,
        "ricci": b.ricci.components,
        "scalar": np.array(b.scalar_curvature),
        "nabla_metric": covariant_derivative_at(
            b, TensorField(b.n, 2, chart.metric, symmetry="symmetric-2")
        ).components,
    }[field]
    assert all(c is ex.ZERO for c in ours.ravel())
    for index, expr in oracle[field].items():
        assert sympy.simplify(expr) == 0, (name, field, index)
