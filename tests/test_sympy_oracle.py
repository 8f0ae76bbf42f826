"""Independent oracle for the (0,4) curvature: SymPy, by the Christoffel route.

The bundle builds R from the metric's second derivatives. The oracle parses
each builtin metric from its printed form, forms Gamma and riemann_13 from
d Gamma and Gamma Gamma, lowers the last index with g and compares at sample
points. It calls no SymPy simplification, and evaluates through lambdify.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

import concirc.expressions as ex  # noqa: E402
from concirc.catalog import builtin_names, get_builtin  # noqa: E402
from concirc.geometry import curvature_bundle_at  # noqa: E402

_FUNCTIONS = {"ln": sympy.log, "abs": sympy.Abs}


def _sympy_metric(chart):
    symbols = sympy.symbols(chart.coordinates)
    names = dict(zip(chart.coordinates, symbols), **_FUNCTIONS)
    n = chart.n

    def entry(i, j):
        return sympy.sympify(ex.to_string(chart.metric[i, j]).replace("^", "**"), locals=names)

    g = sympy.Matrix(n, n, entry)
    return symbols, g


def _riemann_by_christoffel(symbols, g):
    n = len(symbols)
    ginv = g.adjugate() / g.det(method="berkowitz")
    dg = [[[sympy.diff(g[i, j], symbols[a]) for j in range(n)] for i in range(n)] for a in range(n)]
    gamma = [
        [
            [
                sum(ginv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in range(n)) / 2
                for j in range(n)
            ]
            for i in range(n)
        ]
        for k in range(n)
    ]
    r13 = {}
    for i, j, k, l in np.ndindex(n, n, n, n):
        r13[i, j, k, l] = (
            sympy.diff(gamma[l][j][k], symbols[i])
            - sympy.diff(gamma[l][i][k], symbols[j])
            + sum(
                gamma[m][j][k] * gamma[l][i][m] - gamma[m][i][k] * gamma[l][j][m]
                for m in range(n)
            )
        )
    return [
        sum(r13[i, j, k, l] * g[l, m] for l in range(n)) for i, j, k, m in np.ndindex(n, n, n, n)
    ]


@pytest.mark.parametrize("name", builtin_names())
def test_riemann_matches_sympy_christoffel_route(name):
    chart = get_builtin(name).chart
    symbols, g = _sympy_metric(chart)
    oracle = sympy.lambdify(symbols, _riemann_by_christoffel(symbols, g), "numpy", cse=True)
    bundle = curvature_bundle_at(chart)
    points = chart.sample_points(2026, 5)
    ours = bundle.values_at(points)["riemann"]
    n = chart.n
    for p, point in enumerate(points):
        want = np.broadcast_to(
            np.array(oracle(*(point[c] for c in chart.coordinates)), dtype=float), (n**4,)
        ).reshape((n,) * 4)
        atol = 1e-12 * (1.0 + np.max(np.abs(want)))
        np.testing.assert_allclose(ours[p], want, rtol=0, atol=atol, err_msg=f"{name} point {p}")
