"""`simplify` returns the node its reference route returns.

``reference.simplify_by_nodes`` is `simplify` as written before its term
handling was made cheaper: every like-term key and denominator rebuilt as a
node and decomposed again, coefficients as Fractions. Node identity is
structural equality, so `is` checks that every output is the same tree,
factor order and coefficient forms included. The two routes keep separate
memos, so this also rests on canonical form not depending on what was
simplified before (``test_simplify_properties.py`` checks that).
"""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import concirc.expressions as ex  # noqa: E402
from concirc import geometry  # noqa: E402
from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat  # noqa: E402
from reference import simplify_by_nodes  # noqa: E402
from test_simplify_properties import RATIONALS, SETTINGS, STEP, TERMS, X, Y, _build_dag  # noqa: E402

FIELDS = ("inverse_metric", "christoffel", "riemann", "riemann_13", "ricci",
          "scalar_curvature", "gtensor", "concircular")


@SETTINGS
@given(st.lists(STEP, min_size=1, max_size=12))
def test_simplify_returns_the_reference_node(steps):
    for node in _build_dag(steps):
        assert ex.simplify(node) is simplify_by_nodes(node), ex.to_string(node)


# numerators and denominators that reach every route of a sum over shared
# denominators: sums and powers of sums as factors, powers of powers, of
# negations and of constants, negative powers inside quotients, and x/0
HALF = Fraction(1, 2)
ROOT = ex.pow_(X, HALF)
NUMERATORS = TERMS + (
    ex.add(X, ex.cos(Y)), ex.neg(Y), ex.pow_(ex.add(X, Y), HALF), ex.pow_(ROOT, 3), ROOT,
    ex.pow_(Y, -1), ex.mul(ROOT, ex.sub(Y, X)), ex.pow_(ex.neg(Y), HALF),
    ex.pow_(ex.const(2), HALF), ex.pow_(ROOT, HALF), ex.pow_(ROOT, Fraction(3, 2)),
)
DENOMINATORS = (
    X, ex.add(X, Y), ex.mul(X, ex.sin(X)), ex.pow_(Y, 2), ex.pow_(X, HALF),
    ex.div(X, Y), ex.mul(ex.const(3), ex.sub(X, Y)), ex.ZERO,
)


@SETTINGS
@given(st.lists(st.tuples(RATIONALS, st.sampled_from(NUMERATORS), st.sampled_from(DENOMINATORS)),
                min_size=2, max_size=6))
def test_a_sum_over_shared_denominators_is_the_reference_node(quotients):
    # a numerator is the product of the term's and the next term's numerators
    nums = [n for _, n, _ in quotients]
    e = ex.esum(ex.div(ex.mul(ex.const(q), ex.mul(n, nums[i - 1])), d)
                for i, (q, n, d) in enumerate(quotients))
    assert ex.simplify(e) is simplify_by_nodes(e), ex.to_string(e)


def _twice(base, other):
    """5 t, given as 3 t + 2 t, with t = (b^(1/2) o)^(1/2) (b^(1/2) o)^(1/2) b^(1/2):
    the sum decomposes t to {b: 1, o: 1}, the key of which has the piece b."""
    half_other = ex.mul(ex.pow_(base, HALF), other)
    t = ex.mul(ex.mul(ex.pow_(half_other, HALF), ex.pow_(half_other, HALF)), ex.pow_(base, HALF))
    return ex.add(ex.mul(3, t), ex.mul(2, t))


Z = ex.var("z")


@pytest.mark.parametrize("e, printed", [
    # the first numerator's factors are {x^(1/2): 2}: rebuilt, they give
    # (x^(1/2))^2, which simplifying the numerators' sum turns into x, unless
    # an earlier simplify call returned (x^(1/2))^2 and so marked it simplified
    (ex.add(ex.div(ex.mul(3, ex.mul(ex.pow_(ROOT, HALF), ex.pow_(ROOT, Fraction(3, 2)))), Y),
            ex.div(ex.mul(5, ex.sin(X)), Y)), None),
    # a base that is a */neg chain or a constant: decomposing the key
    # flattens its piece or takes it into the coefficient
    (_twice(ex.mul(X, Y), Z), "5*x*y*z"),
    (_twice(ex.div(X, Y), Z), "5*x*z/y"),
    (_twice(ex.neg(X), Z), "-(5*x*z)"),
    (_twice(ex.const(2), ex.add(X, Y)), "10*(x + y)"),
])
def test_factors_that_do_not_come_back_from_their_rebuild_give_the_reference_node(e, printed):
    assert ex.simplify(e) is simplify_by_nodes(e)
    assert printed is None or ex.to_string(ex.simplify(e)) == printed


def _nodes(bundle):
    """Every node of the chart's metric and of the bundle's fields, in order."""
    out = list(bundle.chart.metric.ravel())
    for name in FIELDS:
        value = getattr(bundle, name)
        value = getattr(value, "components", value)
        out.extend(np.asarray(value, dtype=object).ravel())
    return out


def _chart(case):
    name, dim = case
    return get_builtin(name).chart if dim is None else random_perturbed_flat(name, dim=dim)


CHARTS = [(name, None) for name in builtin_names()] + [
    (seed, dim) for dim in (2, 3, 4) for seed in range(8)
]


@pytest.mark.parametrize("case", CHARTS, ids=lambda c: c[0] if c[1] is None else f"seed{c[0]}-dim{c[1]}")
def test_bundle_fields_are_the_reference_nodes(case, monkeypatch):
    # the chart too: MetricChart simplifies each metric entry
    with monkeypatch.context() as patched:
        patched.setattr(geometry, "simplify", simplify_by_nodes)
        want = _nodes(geometry.CurvatureBundle(_chart(case)))
    got = _nodes(geometry.CurvatureBundle(_chart(case)))
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))
