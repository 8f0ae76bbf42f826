"""Property tests for `simplify`: soundness, zero recognition, canonical form.

Expressions are random DAGs over x, y, sin(x) and cos(y): each step combines
earlier nodes, so subtrees are shared the way tensor components share them.
Canonical form includes build order: a sum or a product of the same nodes
simplifies to one node whatever order it was built in.
The same DAGs check the printer against the parser and `differentiate`
against the forward-mode `evaluate_dual`, and seeded ones check that the
simplified forms do not depend on the hash seed or on process history.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import numpy as np  # noqa: E402

import concirc.expressions as ex  # noqa: E402
from reference import evaluate_dual  # noqa: E402

X, Y = ex.var("x"), ex.var("y")
ATOMS = (X, Y, ex.sin(X), ex.cos(Y))
TERMS = ATOMS + (ex.ONE, ex.mul(X, Y), ex.pow_(X, 2), ex.mul(ex.sin(X), ex.cos(Y)))
POINTS = ({"x": 0.3, "y": -1.1}, {"x": -1.7, "y": 0.4}, {"x": 1.2, "y": 2.3})

RATIONALS = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=6)
)
STEP = st.tuples(
    st.sampled_from(["add", "sub", "mul", "pow", "neg", "scale"]),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=-2, max_value=3),
    RATIONALS,
)
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _build_dag(steps):
    """All nodes of the DAG, atoms first; the last one is the root."""
    nodes = list(ATOMS)
    for op, i, j, power, q in steps:
        a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
        if op == "add":
            nodes.append(ex.add(a, b))
        elif op == "sub":
            nodes.append(ex.sub(a, b))
        elif op == "mul":
            nodes.append(ex.mul(a, b))
        elif op == "pow":
            nodes.append(ex.pow_(a, power))
        elif op == "neg":
            nodes.append(ex.neg(a))
        else:
            nodes.append(ex.mul(ex.const(q), a))
    return nodes


def _value(e, point):
    try:
        v = ex.evaluate(e, point)
    except ex.DomainError:
        return None
    return v if math.isfinite(v) else None


@SETTINGS
@given(st.lists(STEP, min_size=1, max_size=12))
def test_simplify_is_pointwise_equal_to_its_input(steps):
    nodes = _build_dag(steps)
    root = nodes[-1]
    simplified = ex.simplify(root)
    for point in POINTS:
        want, got = _value(root, point), _value(simplified, point)
        if want is None or got is None:
            continue
        # rounding grows with the largest intermediate the input evaluates
        values = [v for v in (_value(n, point) for n in nodes) if v is not None]
        scale = max(abs(v) for v in values)
        if scale > 1e8:
            continue
        assert abs(want - got) <= 1e-9 * (1.0 + scale), (ex.to_string(root), point)


SUM = st.lists(st.tuples(RATIONALS, st.sampled_from(TERMS)), min_size=1, max_size=5)


@SETTINGS
@given(st.lists(st.tuples(RATIONALS, SUM), min_size=1, max_size=4))
def test_linear_combinations_of_sums_reduce_to_zero(combination):
    # sum_i c_i * S_i - sum_ij (c_i * k_ij) * t_ij, with S_i = sum_j k_ij * t_ij
    scaled = ex.esum(
        ex.mul(ex.const(c), ex.esum(ex.mul(ex.const(k), t) for k, t in terms))
        for c, terms in combination
    )
    expanded = ex.esum(
        ex.mul(ex.const(Fraction(c) * k), t) for c, terms in combination for k, t in terms
    )
    assert ex.simplify(ex.sub(scaled, expanded)) is ex.ZERO


@SETTINGS
@given(st.lists(STEP, min_size=1, max_size=12))
def test_simplify_is_idempotent(steps):
    simplified = ex.simplify(_build_dag(steps)[-1])
    assert ex.simplify(simplified) is simplified, ex.to_string(simplified)


@SETTINGS
@given(
    st.lists(STEP, min_size=1, max_size=12),
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=5),
    st.data(),
)
def test_simplified_sum_does_not_depend_on_term_order(steps, picks, data):
    nodes = _build_dag(steps)
    terms = [nodes[i % len(nodes)] for i in picks]
    shuffled = data.draw(st.permutations(terms))
    want = ex.simplify(ex.esum(terms))
    assert ex.simplify(ex.esum(shuffled)) is want, ex.to_string(want)


@SETTINGS
@given(
    st.lists(STEP, min_size=1, max_size=12),
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)
def test_simplified_product_does_not_depend_on_factor_order(steps, i, j):
    nodes = _build_dag(steps)
    a, b = nodes[i % len(nodes)], nodes[j % len(nodes)]
    want = ex.simplify(ex.mul(a, b))
    assert ex.simplify(ex.mul(b, a)) is want, ex.to_string(want)


@SETTINGS
@given(st.lists(STEP, min_size=1, max_size=12))
def test_print_then_parse_gives_the_same_node(steps):
    for node in _build_dag(steps):
        for e in (node, ex.simplify(node)):
            text = ex.to_string(e)
            assert ex.parse(text, ("x", "y")) is e, text


def _derivative(e, point, name):
    try:
        v = evaluate_dual(e, point, {name: 1.0}).deriv
    except ex.DomainError:
        return None
    return v if math.isfinite(v) else None


@SETTINGS
@given(st.lists(STEP, min_size=1, max_size=12))
def test_differentiate_agrees_with_dual_numbers(steps):
    root = _build_dag(steps)[-1]
    for name in ("x", "y"):
        symbolic = ex.differentiate(root, name)
        for point in POINTS:
            want, got = _derivative(root, point, name), _value(symbolic, point)
            value = _value(root, point)
            if want is None or got is None or value is None:
                continue
            if max(abs(want), abs(got), abs(value)) > 1e6:
                continue
            assert abs(want - got) <= 1e-7 * max(1.0, abs(want), abs(got)), (
                ex.to_string(root),
                name,
                point,
            )


_HASH_SEED_SCRIPT = """
import json, sys
from fractions import Fraction
if sys.argv[1] == "warm":
    from concirc.catalog import builtin_names, get_builtin
    from concirc.geometry import curvature_bundle_at
    for name in builtin_names():
        curvature_bundle_at(get_builtin(name).chart)
import concirc.expressions as ex
from test_simplify_properties import ATOMS, _build_dag
for steps in json.loads(sys.stdin.read()):
    nodes = _build_dag([(op, i, j, power, Fraction(*q)) for op, i, j, power, q in steps])
    print(" ; ".join(ex.to_string(ex.simplify(node)) for node in nodes[len(ATOMS):]))
"""


def test_simplified_dags_do_not_depend_on_hash_seed_or_history():
    # shared DAGs, not printed trees: each is built node by node in the
    # process that simplifies it, after the builtin bundles in the warm one
    rng = np.random.default_rng(37)
    ops = ("add", "sub", "mul", "pow", "neg", "scale")
    dags = [
        [(ops[rng.integers(6)], int(rng.integers(64)), int(rng.integers(64)),
          int(rng.integers(-2, 4)), (int(rng.integers(-12, 13)), int(rng.integers(1, 7))))
         for _ in range(12)]
        for _ in range(40)
    ]
    src = str(Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join((src, str(Path(__file__).resolve().parent)))
    outputs = []
    for hash_seed, history in (("0", "cold"), ("1", "warm")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT, history],
                              input=json.dumps(dags), capture_output=True, text=True,
                              env=env, check=True)
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(dags)
    assert outputs[0] == outputs[1]
