"""Expression engine: parsing, printing, differentiation, evaluation."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import concirc.expressions as ex
from concirc.catalog import get_builtin
from concirc.geometry import TensorField, curvature_bundle_at
from concirc.recurrence import _recurrence_form
from reference import evaluate_dual, field_at

COORDS = ("x", "y", "z")


def _random_expr(rng, depth=4):
    """Random expression over COORDS, biased toward well-behaved values."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return ex.const(Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5))))
        return ex.var(str(rng.choice(COORDS)))
    op = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "fn"])
    a = _random_expr(rng, depth - 1)
    if op == "neg":
        return ex.neg(a)
    if op == "fn":
        name = rng.choice(["sin", "cos", "exp", "sinh", "cosh", "tan"])
        return ex.func(str(name), a)
    b = _random_expr(rng, depth - 1)
    if op == "add":
        return ex.add(a, b)
    if op == "sub":
        return ex.sub(a, b)
    if op == "mul":
        return ex.mul(a, b)
    if op == "div":
        # keep denominators bounded away from zero
        return ex.div(a, ex.add(ex.const(3), ex.mul(ex.sin(b), ex.sin(b))))
    return ex.pow_(a, ex.const(int(rng.integers(0, 4))))


def _random_point(rng):
    return {c: float(rng.uniform(0.3, 1.7)) for c in COORDS}


def test_interning_gives_identical_nodes():
    a = ex.parse("sin(x) + y^2", COORDS)
    b = ex.parse("sin(x) + y^2", COORDS)
    assert a is b
    assert ex.add(ex.var("x"), ex.ONE) is ex.add(ex.var("x"), ex.ONE)


def test_operator_overloads_match_factories():
    x, y = ex.var("x"), ex.var("y")
    assert x + y is ex.add(x, y)
    assert x - y is ex.sub(x, y)
    assert x * y is ex.mul(x, y)
    assert x / y is ex.div(x, y)
    assert x ** 2 is ex.pow_(x, ex.const(2))
    assert -x is ex.neg(x)
    assert 1 + x is ex.add(ex.ONE, x)


def test_constant_folding_is_exact():
    e = ex.parse("1/3 + 1/6", COORDS)
    assert e is ex.const(Fraction(1, 2))
    assert ex.parse("2*3", COORDS) is ex.const(6)
    assert ex.parse("2^10", COORDS) is ex.const(1024)


def test_a_constant_payload_is_an_int_when_integral_and_a_fraction_otherwise():
    assert type(ex.const(2).payload) is int
    assert ex.const(Fraction(6, 3)) is ex.const(2)
    assert ex.const(2.0) is ex.const(2)
    assert ex.const(True) is ex.ONE
    assert type(ex.const(np.int64(-4)).payload) is int
    assert type(ex.const(0.5).payload) is Fraction


def test_no_float_leaks_through_division_or_a_negative_power():
    third = ex.div(ex.const(1), ex.const(3)).payload
    assert type(third) is Fraction and third == Fraction(1, 3)
    quarter = ex.pow_(ex.const(2), ex.const(-2)).payload
    assert type(quarter) is Fraction and quarter == Fraction(1, 4)
    # 3 ** -2 as a float is not a dyadic rational, so it would not convert back
    assert ex.pow_(ex.const(3), ex.const(-2)) is ex.const(Fraction(1, 9))
    x = ex.var("x")
    third_x = ex.simplify(x / 3)
    assert third_x is ex.mul(ex.const(Fraction(1, 3)), x)
    assert type(third_x.args[0].payload) is Fraction
    two_x = ex.simplify(ex.parse("6*x/3", COORDS))
    assert two_x is ex.mul(ex.const(2), x)
    assert type(two_x.args[0].payload) is int


def test_every_interned_constant_has_its_canonical_payload():
    from concirc.catalog import builtin_names, random_perturbed_flat
    charts = [get_builtin(name).chart for name in builtin_names()]
    for chart in charts + [random_perturbed_flat(seed) for seed in range(3)]:
        b = curvature_bundle_at(chart)
        b.nabla_riemann()
        b.nabla_concircular()
    payloads = [n.payload for n in list(ex._INTERN.values()) if n.kind == "const"]
    assert any(type(q) is Fraction for q in payloads)
    for q in payloads:
        assert type(q) in (int, Fraction), repr(q)
        assert (type(q) is int) == (q.denominator == 1), repr(q)


def test_identity_folds():
    x = ex.var("x")
    assert ex.add(x, ex.ZERO) is x
    assert ex.mul(x, ex.ONE) is x
    assert ex.mul(x, ex.ZERO) is ex.ZERO
    assert ex.sub(x, x) is ex.ZERO
    assert ex.pow_(x, ex.ONE) is x


def test_print_parse_round_trip_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        e = _random_expr(rng)
        s = ex.to_string(e)
        assert ex.parse(s, COORDS) is e, s


def test_print_parse_round_trip_handpicked():
    cases = [
        "x + y*z",
        "(x + y)*z",
        "x - (y - z)",
        "x/y/z",
        "x^2^3",
        "-x^2",
        "(-x)^2",
        "2*sin(x)*cos(y) - exp(-z)",
        "1/2*x",
        "cot(x) + sinh(y)*cosh(z)",
        "sqrt(x^2 + 1)",
        "abs(x - y)",
    ]
    for s in cases:
        e = ex.parse(s, COORDS)
        assert ex.parse(ex.to_string(e), COORDS) is e, s


def test_parse_errors_carry_position():
    with pytest.raises(ex.ParseError) as err:
        ex.parse("x + * y", COORDS)
    assert err.value.position == 4

    with pytest.raises(ex.ParseError) as err:
        ex.parse("(x + y", COORDS)
    assert "(" in str(err.value) or "closing" in str(err.value)

    with pytest.raises(ex.ParseError) as err:
        ex.parse("x + y)", COORDS)
    assert err.value.position == 5

    with pytest.raises(ex.UnknownIdentifierError) as err:
        ex.parse("x + q", COORDS)
    assert err.value.name == "q"
    assert err.value.position == 4

    with pytest.raises(ex.UnknownIdentifierError):
        ex.parse("foo(x)", COORDS)

    with pytest.raises(ex.ParseError):
        ex.parse("", COORDS)

    with pytest.raises(ex.ParseError):
        ex.parse("sin x", COORDS)


def test_variables_and_node_count():
    e = ex.parse("sin(x)*y + sin(x)", COORDS)
    assert ex.variables(e) == frozenset({"x", "y"})
    assert ex.variables(ex.const(5)) == frozenset()
    assert ex.node_count(ex.var("x")) == 1
    # shared subtrees are counted once per distinct node
    assert ex.node_count(e) <= 7


def test_evaluate_known_values():
    e = ex.parse("sin(x)^2 + cos(x)^2", COORDS)
    v = ex.evaluate(e, {"x": 0.37, "y": 0.0, "z": 0.0})
    np.testing.assert_allclose(v, 1.0, rtol=0, atol=1e-15)
    e = ex.parse("exp(ln(x))", COORDS)
    np.testing.assert_allclose(ex.evaluate(e, {"x": 2.5}), 2.5, rtol=1e-15)


def test_evaluate_domain_errors():
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("1/x", COORDS), {"x": 0.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("ln(x)", COORDS), {"x": -1.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("sqrt(x)", COORDS), {"x": -4.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x^(1/2)", COORDS), {"x": -4.0})
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("cot(x)", COORDS), {"x": 0.0})
    # missing coordinate
    with pytest.raises(ex.DomainError):
        ex.evaluate(ex.parse("x + y", COORDS), {"x": 1.0})


def test_domain_error_names_subexpression():
    e = ex.parse("1 + ln(x - 2)", COORDS)
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"x": 1.0})
    assert "ln" in str(err.value)
    assert err.value.subexpression is ex.ln(ex.parse("x - 2", COORDS))


def test_block_domain_error_message_is_bounded():
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    comp = max(b.nabla_riemann().components.ravel(), key=lambda c: ex.node_count(c, 1000))
    assert ex.node_count(comp, 200) > 200
    # a NaN coordinate makes the whole component non-finite
    columns = {c: np.array([np.nan]) for c in b.chart.coordinates}
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate_block([comp], columns)
    assert err.value.subexpression is comp
    assert len(str(err.value)) < 1024
    assert str(err.value).endswith("... (truncated)'")


def test_domain_error_message_bounds_a_small_dag_that_prints_large():
    # lambda_C of sphere_3 is a quotient of cancellation noise with under 200
    # distinct nodes that prints to tens of kB as a tree; one point is 0/0
    b = curvature_bundle_at(get_builtin("sphere_3").chart)
    lam = _recurrence_form(b, "C")
    with pytest.raises(ex.DomainError) as err:
        b.field_values(lam, b.chart.sample_points(61, 20))
    sub = err.value.subexpression
    message = str(err.value)
    assert len(message) < 1024
    assert message.endswith("... (truncated)'")
    # the leading text is the subexpression's own, and its full string is
    # neither built nor cached
    assert sub._str is None
    head = message.split("subexpression '", 1)[1][:100]
    assert ex.to_string(sub).startswith(head)
    assert len(ex.to_string(sub)) > 10_000


def test_print_stops_at_its_budget():
    e = ex.parse("sin(x)*y + cos(x)^2 - (y - x)/3", COORDS)
    full = ex.to_string(e)
    assert full == "sin(x)*y + cos(x)^2 - (y - x)/3"
    for limit in range(len(full) + 2):
        assert ex._to_string(e, limit) == full[: limit + 1]


def test_simplify_reduces_linear_combinations_of_sums_to_zero():
    # a rational multiple of a sum is distributed over its terms, so these
    # cancel exactly
    for text in (
        "2*(x + y) - 2*x - 2*y",
        "1/2*(2*cos(z)^2 - 2*sin(z)^2) - cos(z)^2 + sin(z)^2",
        "-(3/4)*(x - sin(y)) + 3/4*x - 3/4*sin(y)",
    ):
        assert ex.simplify(ex.parse(text, COORDS)) is ex.ZERO, text


def test_simplify_does_not_expand_products_of_sums():
    # only c*S distributes inside a sum; c*S*x stays one product term
    e = ex.simplify(ex.parse("x + 2*(x + y)*z", COORDS))
    assert ex.to_string(e) == "2*(x + y)*z + x"


def test_differentiate_basic_rules():
    x = ex.var("x")
    assert ex.differentiate(ex.sin(x), "x") is ex.cos(x)
    assert ex.differentiate(x * x, "y") is ex.ZERO
    assert ex.differentiate(ex.const(7), "x") is ex.ZERO
    d = ex.differentiate(ex.parse("x^3", COORDS), "x")
    np.testing.assert_allclose(ex.evaluate(d, {"x": 2.0}), 12.0, rtol=1e-15)


def test_differentiate_matches_dual_oracle():
    """Symbolic derivative against forward-mode dual numbers, 1000 samples."""
    rng = np.random.default_rng(20260814)
    checked = 0
    while checked < 1000:
        e = _random_expr(rng)
        names = sorted(ex.variables(e))
        if not names:
            continue
        point = _random_point(rng)
        name = str(rng.choice(names))
        d = ex.differentiate(e, name)
        try:
            sym = ex.evaluate(d, point)
            dual = evaluate_dual(e, point, {name: 1.0})
        except ex.DomainError:
            continue
        if not (math.isfinite(sym) and math.isfinite(dual.deriv)):
            continue
        if max(abs(sym), abs(dual.deriv)) > 1e6:
            continue  # ill-conditioned sample, relative error meaningless
        assert abs(sym - dual.deriv) <= 1e-12 * (1.0 + abs(dual.deriv)), (
            ex.to_string(e),
            name,
            point,
        )
        checked += 1


def test_dual_value_arithmetic():
    e = ex.parse("x^2 * y", COORDS)
    out = evaluate_dual(e, {"x": 3.0, "y": 5.0}, {"x": 1.0})
    np.testing.assert_allclose(out.value, 45.0, rtol=1e-15)
    np.testing.assert_allclose(out.deriv, 30.0, rtol=1e-15)
    # direction with two active components: derivative is the directional one
    out = evaluate_dual(e, {"x": 3.0, "y": 5.0}, {"x": 1.0, "y": 2.0})
    np.testing.assert_allclose(out.deriv, 30.0 + 9.0 * 2.0, rtol=1e-15)


def test_simplify_preserves_value():
    rng = np.random.default_rng(11)
    for _ in range(200):
        e = _random_expr(rng)
        s = ex.simplify(e)
        for _ in range(3):
            point = _random_point(rng)
            try:
                v0 = ex.evaluate(e, point)
                v1 = ex.evaluate(s, point)
            except ex.DomainError:
                continue
            if not (math.isfinite(v0) and math.isfinite(v1)):
                continue
            assert abs(v0 - v1) <= 1e-10 * (1.0 + abs(v0)), ex.to_string(e)


def test_simplify_cancels_structurally():
    e = ex.parse("sin(x)*y - y*sin(x)", COORDS)
    assert ex.simplify(e) is ex.ZERO
    e = ex.parse("(x + y) - x - y", COORDS)
    assert ex.simplify(e) is ex.ZERO
    e = ex.parse("2*x + 3*x", COORDS)
    assert ex.simplify(e) is ex.simplify(ex.parse("5*x", COORDS))
    e = ex.parse("x*y/x", COORDS)
    assert ex.simplify(e) is ex.var("y")


def test_simplify_is_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(100):
        s = ex.simplify(_random_expr(rng))
        assert ex.simplify(s) is s


def test_simplify_never_prints(monkeypatch):
    def refuse(e):
        raise AssertionError("simplify printed an expression")

    monkeypatch.setattr(ex, "to_string", refuse)
    monkeypatch.setattr(ex, "_to_string", refuse)
    rng = np.random.default_rng(29)
    for _ in range(100):
        ex.simplify(_random_expr(rng))
    b = curvature_bundle_at(get_builtin("perturbed_flat").chart)
    b.nabla_riemann()


_CANONICAL_SCRIPT = """
import sys
import concirc.expressions as ex
if sys.argv[1] == "warm":
    from concirc.catalog import builtin_names, get_builtin
    from concirc.geometry import curvature_bundle_at
    for name in builtin_names():
        curvature_bundle_at(get_builtin(name).chart)
for text in sys.argv[2:]:
    print(ex.to_string(ex.simplify(ex.parse(text, ("x", "y", "z")))))
"""


def test_canonical_form_ignores_process_history_and_hash_seed():
    rng = np.random.default_rng(31)
    texts = [ex.to_string(_random_expr(rng)) for _ in range(30)] + [
        "z*y + y*x + x*z - 2*x*y",
        "sin(y)*cos(x) + x^2*y/(1 + x) + y/(1 + x) - cos(x)*sin(y)",
        "(x + y)^2*(z - x)/(3 + y^2) + exp(z)*x - x*exp(z)/2",
        "1/x + 1/y + x/y + 2*y/x + z/(x*y)",
        "sqrt(x*y)*ln(z + 2) - ln(2 + z)*sqrt(y*x)/3",
    ]
    src = str(Path(ex.__file__).resolve().parents[1])
    outputs = []
    for hash_seed, history in (("0", "cold"), ("1", "warm")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _CANONICAL_SCRIPT, history, *texts],
                              capture_output=True, text=True, env=env, check=True)
        outputs.append(proc.stdout.splitlines())
    assert len(outputs[0]) == len(texts)
    assert outputs[0] == outputs[1]


def test_evaluate_block_matches_scalar_evaluate():
    rng = np.random.default_rng(3)
    exprs = [_random_expr(rng) for _ in range(10)]
    pts = [_random_point(rng) for _ in range(6)]
    columns = {c: np.array([p[c] for p in pts]) for c in COORDS}
    blocks = ex.evaluate_block(exprs, columns)
    for e, col in zip(exprs, blocks):
        assert col.shape == (6,)
        for i, p in enumerate(pts):
            try:
                v = ex.evaluate(e, p)
            except ex.DomainError:
                continue
            np.testing.assert_allclose(col[i], v, rtol=1e-12, atol=1e-300)


def test_evaluate_block_rejects_domain_violation():
    with pytest.raises(ex.DomainError):
        ex.evaluate_block([ex.parse("1/x", COORDS)], {"x": np.array([1.0, 0.0])})


def _reference_evaluate_block(exprs, columns: dict) -> list:
    """The per-node block evaluator the tape replaced, kept as a reference:
    one walk with results in a dict keyed by id, one broadcast, copy and
    finiteness check per output."""
    npts = len(next(iter(columns.values()))) if columns else 1
    cache: dict = {}
    unary = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
             "sinh": np.sinh, "cosh": np.cosh, "abs": np.abs}

    def ev(root):
        stack = [(root, False)]
        while stack:
            n, expanded = stack.pop()
            if id(n) in cache:
                continue
            if not expanded:
                stack.append((n, True))
                stack.extend((a, False) for a in n.args if id(a) not in cache)
                continue
            k = n.kind
            args = [cache[id(a)] for a in n.args]
            if k == "const":
                v = float(n.payload)
            elif k == "var":
                v = columns[n.payload]
            elif k == "+":
                v = args[0] + args[1]
            elif k == "-":
                v = args[0] - args[1]
            elif k == "neg":
                v = -args[0]
            elif k == "*":
                v = args[0] * args[1]
            elif k == "/":
                v = args[0] / args[1]
            elif k == "^":
                v = args[0] ** args[1]
            elif k == "ln":
                v = np.log(args[0])
            elif k == "sqrt":
                v = np.sqrt(args[0])
            elif k == "cot":
                v = np.cos(args[0]) / np.sin(args[0])
            else:
                v = unary[k](args[0])
            cache[id(n)] = v

    out = []
    with np.errstate(all="ignore"):
        for e in exprs:
            ev(e)
        for e in exprs:
            v = cache[id(e)]
            arr = np.broadcast_to(np.asarray(v, dtype=float), (npts,)).copy() \
                if np.ndim(v) == 0 else np.asarray(v, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ex.DomainError("non-finite value in block evaluation", e)
            out.append(arr)
    return out


def _random_dag_roots(rng, size=60, nroots=12):
    """Roots drawn from a pool where every new node reuses earlier ones."""
    pool = [ex.var(c) for c in COORDS]
    pool += [ex.const(Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))) for _ in range(3)]
    names = ["sin", "cos", "tan", "cot", "exp", "ln", "sinh", "cosh", "sqrt", "abs"]
    while len(pool) < size:
        a = pool[int(rng.integers(len(pool)))]
        b = pool[int(rng.integers(len(pool)))]
        op = int(rng.integers(8))
        if op == 0:
            node = ex.add(a, b)
        elif op == 1:
            node = ex.sub(a, b)
        elif op == 2:
            node = ex.mul(a, b)
        elif op == 3:
            node = ex.div(a, ex.add(ex.const(2), ex.mul(b, b)))
        elif op == 4:
            node = ex.pow_(a, ex.const(int(rng.integers(-2, 4))))
        elif op == 5:
            node = ex.neg(a)
        else:
            node = ex.func(names[int(rng.integers(len(names)))], a)
        pool.append(node)
    return [pool[int(rng.integers(len(pool)))] for _ in range(nroots)]


def _assert_block_parity(exprs, columns):
    try:
        want = _reference_evaluate_block(exprs, columns)
    except ex.DomainError as err:
        with pytest.raises(ex.DomainError) as got:
            ex.evaluate_block(exprs, columns)
        assert got.value.subexpression is err.subexpression
        return False
    except ZeroDivisionError:
        # the reference raised computing 0^-k on Python floats; the tape's
        # constants are np.float64, so that node is inf and its roots read
        # whatever inf makes of them; see the constants-never-escape test
        return False
    got = ex.evaluate_block(exprs, columns)
    assert got.shape == (len(exprs), len(next(iter(columns.values()))))
    assert all(np.array_equal(row, col) for row, col in zip(got, want))
    return True


def test_block_tape_matches_the_per_node_evaluator_on_random_dags():
    rng = np.random.default_rng(11)
    finite = 0
    for _ in range(150):
        exprs = _random_dag_roots(rng)
        columns = {c: rng.uniform(-1.5, 1.5, size=7) for c in COORDS}
        finite += _assert_block_parity(exprs, columns)
    # both outcomes are exercised
    assert 30 < finite < 150


def test_block_tape_matches_the_per_node_evaluator_on_every_builtin():
    from concirc.catalog import builtin_names

    for name in builtin_names():
        b = curvature_bundle_at(get_builtin(name).chart)
        columns = b.chart.sample_points(5, 12).columns
        fields = [
            [b.scalar_curvature, *b.chart.metric.ravel(), *b.inverse_metric.ravel(),
             *b.christoffel.ravel(),
             *b.riemann_13.ravel(), *b.riemann.components.ravel(),
             *b.ricci.components.ravel(), *b.gtensor.components.ravel(),
             *b.concircular.components.ravel()],
            list(b.nabla_riemann().components.ravel()),
            list(b.nabla_concircular().components.ravel()),
        ]
        if any(c is not ex.ZERO for c in b.riemann.components.ravel()):
            fields.append(list(_recurrence_form(b, "R").components.ravel()))
        for exprs in fields:
            assert _assert_block_parity(exprs, columns), name


def test_block_values_come_back_as_one_row_per_expression():
    x, y = ex.var("x"), ex.var("y")
    columns = {"x": np.array([1.0, 2.0, 3.0]), "y": np.array([0.5, 0.5, 0.5])}
    out = ex.evaluate_block([x * y, ex.const(2), x, x * y], columns)
    assert out.shape == (4, 3) and out.dtype == float
    np.testing.assert_array_equal(out[0], [0.5, 1.0, 1.5])
    np.testing.assert_array_equal(out[1], [2.0, 2.0, 2.0])
    rows = list(out)
    np.testing.assert_array_equal(rows[2], columns["x"])
    np.testing.assert_array_equal(rows[3], rows[0])
    assert ex.evaluate_block([], columns).shape == (0, 3)
    empty = {"x": np.array([]), "y": np.array([])}
    assert ex.evaluate_block([x / y, ex.ONE], empty).shape == (2, 0)
    assert ex.evaluate_block([], empty).shape == (0, 0)


def test_block_reuses_slots_once_a_node_is_read_for_the_last_time():
    # a chain of 200 sums needs a handful of slots, not one per node
    x = ex.var("x")
    e = x
    for k in range(200):
        e = ex.add(ex.mul(e, ex.sin(x)), ex.const(k + 1))
    tape = ex._Tape([e])
    assert len(tape.ops) == ex.node_count(e)
    assert tape.size <= 4
    np.testing.assert_array_equal(
        tape.run({"x": np.array([0.3])})[0], [ex.evaluate(e, {"x": 0.3})]
    )


def test_a_tape_stops_at_its_loads_and_reads_their_rows():
    x, y = ex.var("x"), ex.var("y")
    inner = ex.add(ex.mul(ex.sin(x), ex.exp(y)), ex.div(x, ex.cosh(y)))
    outer = ex.mul(ex.add(inner, x), ex.sub(inner, ex.const(3)))
    columns = {"x": np.array([0.3, -1.2, 2.5]), "y": np.array([0.7, 0.1, -0.4])}
    plain = ex._Tape([outer])
    loaded = ex._Tape([outer], [inner])
    # inner's subexpressions are not compiled; x is, being read above inner too
    assert len(loaded.ops) == len(plain.ops) - (ex.node_count(inner) - 2)
    rows = ex._Tape([inner]).run(columns)
    np.testing.assert_array_equal(loaded.run(columns, list(rows)), plain.run(columns))


@pytest.mark.parametrize("text", ["1/0", "0^(0-1)*x", "x*10^400"])
def test_constants_never_escape_block_evaluation_as_python_errors(text):
    e = ex.parse(text, COORDS)
    with pytest.raises(ex.DomainError):
        ex.evaluate_block([e], {"x": np.array([1.0, 2.0])})
    with pytest.raises(ex.DomainError):
        ex.evaluate(e, {"x": 1.0})


def test_out_of_range_constant_is_a_domain_error_in_every_evaluator():
    e = ex.parse("x*10^400", COORDS)
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(e, {"x": 1.0})
    assert err.value.subexpression is ex.const(10**400)
    with pytest.raises(ex.DomainError):
        evaluate_dual(e, {"x": 1.0}, {"x": 1.0})


def test_block_domain_error_names_the_first_bad_point():
    e = ex.parse("y/x", COORDS)
    columns = {"x": np.array([1.0, 2.0, 0.0, 0.0]), "y": np.array([1.0, 1.0, 3.0, 4.0])}
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate_block([ex.var("x"), e], columns)
    assert err.value.subexpression is e
    assert "at point 2 (x=0, y=3)" in str(err.value)


def test_esum_builds_balanced_sums():
    xs = [ex.var("x")] * 5
    e = ex.esum(xs)
    np.testing.assert_allclose(ex.evaluate(e, {"x": 2.0}), 10.0, rtol=1e-15)
    assert ex.esum([]) is ex.ZERO


def _dag_nodes(roots) -> set:
    """ids of every node reachable from roots."""
    seen: set = set()
    stack = list(roots)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(n.args)
    return seen


def test_scalar_evaluate_is_a_block_column_or_names_a_non_finite_node():
    rng = np.random.default_rng(17)
    returned = raised = 0
    for _ in range(120):
        roots = _random_dag_roots(rng)
        columns = {c: rng.uniform(-1.5, 1.5, size=3) for c in COORDS}
        with np.errstate(all="ignore"):
            block = ex._Tape(roots).values(columns)
        nodes = _dag_nodes(roots)
        for i in range(3):
            point = {c: float(col[i]) for c, col in columns.items()}
            for j, e in enumerate(roots):
                try:
                    v = ex.evaluate(e, point)
                except ex.DomainError as err:
                    sub = err.subexpression
                    assert id(sub) in nodes
                    with np.errstate(all="ignore"):
                        assert not np.isfinite(ex._Tape([sub]).values(columns)[0, i])
                    raised += 1
                else:
                    assert v == block[j, i], (ex.to_string(e), point)
                    returned += 1
    # both outcomes are exercised
    assert returned > 2000 and raised > 200


@pytest.mark.parametrize(
    "text, x, message",
    [
        ("1/x", 0.0, "division by zero"),
        ("0^(0-2)*x", 1.0, "zero base with negative exponent"),
        ("(x - 5)^(1/2)", 1.0, "negative base with non-integer exponent"),
        ("x*x", 1e200, "overflow"),
        ("exp(x)^400", 3.0, "overflow"),
        ("ln(x - 5)", 1.0, "ln of non-positive value"),
        ("sqrt(x - 5)", 1.0, "sqrt of negative value"),
        ("cot(x)", 0.0, "cot at a zero of sin"),
        ("x + y", 1.0, "coordinate 'y' not assigned"),
        ("x + 1", math.nan, "coordinate 'x' is not finite"),
    ],
)
def test_scalar_domain_error_says_why(text, x, message):
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(ex.parse(text, COORDS), {"x": x})
    assert str(err.value).startswith(message + " in subexpression")


def test_evaluation_and_variables_on_a_deep_sum():
    x = ex.var("x")
    e = ex.esum(ex.mul(ex.const(k), x) for k in range(1, 1201))
    assert ex.evaluate(e, {"x": 0.5}) == 720600 * 0.5
    assert ex.variables(e) == frozenset({"x"})
    comps = np.empty(2, dtype=object)
    comps[0], comps[1] = e, ex.sin(e)
    got = field_at(TensorField(2, 1, comps), {"x": 0.5})
    np.testing.assert_array_equal(got, ex.evaluate_block(list(comps), {"x": np.array([0.5])})[:, 0])


@pytest.mark.parametrize("text", ["x/0 + y", "1/0 + x", "x*(1/0) + y", "0^(0-2) - tan(5/2)"])
def test_simplify_keeps_a_term_over_zero(text):
    e = ex.parse(text, COORDS)
    s = ex.simplify(e)
    assert ex.simplify(s) is s
    with pytest.raises(ex.DomainError) as err:
        ex.evaluate(s, {"x": 1.0, "y": 2.0})
    assert str(err.value).startswith("division by zero")


def test_differentiate_and_dual_oracle_agree_on_a_deep_sum():
    # 1200 terms chained by esum: deeper than Python's default recursion limit
    x = ex.var("x")
    e = ex.esum(ex.mul(ex.const(k), ex.sin(ex.mul(ex.const(k), x))) for k in range(1, 1201))
    d = ex.differentiate(e, "x")
    assert ex.differentiate(e, "x") is d
    for p in (0.3, -1.7):
        dual = evaluate_dual(e, {"x": p}, {"x": 1.0})
        assert dual.value == ex.evaluate(e, {"x": p})
        want = sum(k * k * math.cos(k * p) for k in range(1, 1201))
        assert abs(dual.deriv - want) <= 1e-9 * (1.0 + abs(want))
        assert abs(ex.evaluate(d, {"x": p}) - dual.deriv) <= 1e-12 * (1.0 + abs(dual.deriv))
