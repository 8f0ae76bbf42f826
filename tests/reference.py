"""Reference routes: a second way to compute what the package computes.

The package computes each quantity by one route, and these are kept only
so the tests can compare that route against an independent one:

    evaluate_dual, DualValue, _dual
        forward-mode dual numbers on Python floats, against
        ``expressions.differentiate``
    curvature_action_at
        R(d_u, d_v) T as a symbolic field by the derivation property, against
        the numeric pair action ``identities._curvature_action``
    curvature_action_from_second_derivative
        the same action by the Ricci identity, as the antisymmetrized second
        covariant derivative
    exterior_derivative_one_form_at
        d omega as a symbolic field, against the antisymmetric part of
        nabla omega's values that ``recurrence`` reads
    wedge_two_one_forms_at
        mu ^ lam as a simplified symbolic field, against the outer product
        of values that ``check_mu_structure`` forms
    fit_mu_pointwise
        a per-point least-squares mu from the extended recurrence condition,
        against the closed form of ``recurrence.compute_mu``
    bianchi_full, fit_values_full, extended_recurrence_full
        the Bianchi cyclic sums, the recurrence fit and the extended
        recurrence residual over the full component arrays, against the
        package's routes, which read one slot per distinct combination of
        nodes (``CurvatureBundle._one_per_node``)
    inverse_by_expansion
        det g and g^-1 with every minor expanded afresh, against
        ``geometry._inverse_metric``, which expands each minor once
    support
        the flat slots of a field that are not the exact ZERO node, which
        the tests use to name where a field is structurally non-zero
    field_at, field_block
        a field's values at one point and at many, by its own unloaded tape
        outside any bundle store, against ``CurvatureBundle.field_values``
    simplify_by_nodes
        ``simplify`` as it was written before its term handling carried
        coefficients as integers and reused decompositions: every like-term
        key and denominator is rebuilt as a node and decomposed again. It
        memoises in its own dict, keyed by node id, and never touches
        ``Expr._simplified``; the tests require the node it returns to be
        the package's

No CLI path, demo, check or benchmark workload calls them. Tests import them
as ``from reference import ...``; pytest puts this directory on sys.path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from concirc import expressions as ex
from concirc.expressions import (
    _ADD,
    _CONST,
    _DIV,
    _MUL,
    _NEG,
    _POW,
    _SUB,
    _VAR,
    FUNCTIONS,
    ONE,
    ZERO,
    DomainError,
    Expr,
    ExpressionError,
    _constant,
    _node,
    _order,
    simplify,
)
from concirc.geometry import (
    CurvatureBundle,
    GeometryError,
    TensorField,
    _antisymmetric_pair,
    _curvature_slot,
    _fill,
    _symmetric_pair,
    covariant_derivative_at,
)
from concirc.recurrence import ZERO_THRESHOLD, _recurrence_form, _target_fields

__all__ = [
    "DualValue",
    "evaluate_dual",
    "curvature_action_at",
    "curvature_action_from_second_derivative",
    "exterior_derivative_one_form_at",
    "wedge_two_one_forms_at",
    "fit_mu_pointwise",
    "bianchi_full",
    "fit_values_full",
    "extended_recurrence_full",
    "inverse_by_expansion",
    "support",
    "field_at",
    "field_block",
    "simplify_by_nodes",
]


@dataclass(frozen=True)
class DualValue:
    """First-order dual number: value + derivative along a fixed direction."""

    value: float
    deriv: float


def evaluate_dual(e: Expr, point: dict, direction: dict) -> DualValue:
    """Forward-mode directional derivative; independent of `differentiate`.

    direction maps coordinate names to the components of the tangent vector
    along which the derivative is taken (missing names mean 0).
    """
    nodes, argpos, _ = _order((e,))
    values: list[DualValue] = []
    for n, ia in zip(nodes, argpos):
        values.append(_dual(n, [values[q] for q in ia], point, direction))
    return values[-1]


def _dual(n: Expr, args: list, point: dict, direction: dict) -> DualValue:
    """Dual value of one node from the dual values of its arguments."""
    x, y = (args[0], args[-1]) if args else (None, None)
    k = n.kind
    if k == _CONST:
        out = DualValue(_constant(n), 0.0)
    elif k == _VAR:
        try:
            v = float(point[n.payload])
        except KeyError:
            raise DomainError(f"coordinate '{n.payload}' not assigned", n) from None
        out = DualValue(v, float(direction.get(n.payload, 0.0)))
    elif k == _ADD:
        out = DualValue(x.value + y.value, x.deriv + y.deriv)
    elif k == _SUB:
        out = DualValue(x.value - y.value, x.deriv - y.deriv)
    elif k == _NEG:
        out = DualValue(-x.value, -x.deriv)
    elif k == _MUL:
        out = DualValue(x.value * y.value, x.deriv * y.value + x.value * y.deriv)
    elif k == _DIV:
        if y.value == 0.0:
            raise DomainError("division by zero", n)
        out = DualValue(
            x.value / y.value,
            (x.deriv * y.value - x.value * y.deriv) / (y.value * y.value),
        )
    elif k == _POW:
        ise = n.args[1].kind == _CONST
        if x.value == 0.0 and y.value < 0:
            raise DomainError("zero base with negative exponent", n)
        if x.value < 0 and y.value != int(y.value):
            raise DomainError("negative base with non-integer exponent", n)
        v = x.value ** y.value
        if ise:
            dv = y.value * (x.value ** (y.value - 1.0)) * x.deriv if y.value != 0 else 0.0
        else:
            if x.value <= 0:
                raise DomainError("non-constant exponent needs positive base", n)
            dv = v * (y.deriv * math.log(x.value) + y.value * x.deriv / x.value)
        out = DualValue(v, dv)
    elif k == "sin":
        out = DualValue(math.sin(x.value), math.cos(x.value) * x.deriv)
    elif k == "cos":
        out = DualValue(math.cos(x.value), -math.sin(x.value) * x.deriv)
    elif k == "tan":
        t = math.tan(x.value)
        out = DualValue(t, (1.0 + t * t) * x.deriv)
    elif k == "cot":
        s = math.sin(x.value)
        if s == 0.0:
            raise DomainError("cot at a zero of sin", n)
        c = math.cos(x.value) / s
        out = DualValue(c, -(1.0 + c * c) * x.deriv)
    elif k == "exp":
        v = math.exp(x.value)
        out = DualValue(v, v * x.deriv)
    elif k == "ln":
        if x.value <= 0.0:
            raise DomainError("ln of non-positive value", n)
        out = DualValue(math.log(x.value), x.deriv / x.value)
    elif k == "sinh":
        out = DualValue(math.sinh(x.value), math.cosh(x.value) * x.deriv)
    elif k == "cosh":
        out = DualValue(math.cosh(x.value), math.sinh(x.value) * x.deriv)
    elif k == "sqrt":
        if x.value < 0.0:
            raise DomainError("sqrt of negative value", n)
        v = math.sqrt(x.value)
        if v == 0.0 and x.deriv != 0.0:
            raise DomainError("sqrt derivative at zero", n)
        out = DualValue(v, x.deriv / (2.0 * v) if x.deriv != 0.0 else 0.0)
    elif k == "abs":
        s = -1.0 if x.value < 0 else 1.0
        out = DualValue(abs(x.value), s * x.deriv)
    else:
        raise ExpressionError(f"cannot evaluate node kind {k!r}")
    return out


def curvature_action_at(bundle: CurvatureBundle, tensor: TensorField) -> TensorField:
    """(R(d_u, d_v) T)(d_w, d_x, d_y, d_z) for a rank-4 field, via the
    derivation property: minus the sum of T with R(d_u,d_v) hooked into each
    slot. Independent of covariant differentiation. As in
    covariant_derivative_at, a "riemann-like" input is built once per orbit
    of the last four slots and any other input slot by slot; the action is
    only ever evaluated, so every component is kept as built."""
    n = bundle.n
    if tensor.rank != 4 or tensor.dim != n:
        raise GeometryError("curvature action expects a rank-4 field on the same chart")
    riem13 = bundle.riemann_13
    comp = tensor.components

    reduce = tensor.symmetry == "riemann-like"

    def build(idx):
        u, v, w, x, y, z = idx
        acc = ex.ZERO
        for m in range(n):
            acc = ex.add(acc, ex.mul(riem13[u, v, w, m], comp[m, x, y, z]))
            acc = ex.add(acc, ex.mul(riem13[u, v, x, m], comp[w, m, y, z]))
            acc = ex.add(acc, ex.mul(riem13[u, v, y, m], comp[w, x, m, z]))
            acc = ex.add(acc, ex.mul(riem13[u, v, z, m], comp[w, x, y, m]))
        return ex.neg(acc)

    out = _fill((n,) * 6, build, _curvature_slot if reduce else None)
    return TensorField(n, 6, out, symmetry=tensor.symmetry if reduce else "none")


def curvature_action_from_second_derivative(
    bundle: CurvatureBundle, tensor: TensorField
) -> TensorField:
    """Same action computed as the antisymmetrized second covariant
    derivative, nabla^2_{u,v} T - nabla^2_{v,u} T (the Ricci identity route),
    where nabla^2_{u,v} = nabla_u nabla_v - nabla_{nabla_u v} is
    covariant_derivative_at applied twice.

    The difference is only evaluated, so like a "riemann-like" nabla^2 T it
    is left unsimplified: both branches share one interned DAG. It is
    antisymmetric in (u, v), so it is built for u < v only.
    """
    n = bundle.n
    comp = covariant_derivative_at(bundle, covariant_derivative_at(bundle, tensor)).components

    def build(idx):
        u, v, rest = idx[0], idx[1], idx[2:]
        return ex.sub(comp[idx], comp[(v, u) + rest])

    out = _fill((n,) * (tensor.rank + 2), build, _antisymmetric_pair)
    return TensorField(n, tensor.rank + 2, out, symmetry="none")


def exterior_derivative_one_form_at(bundle: CurvatureBundle, omega: TensorField) -> TensorField:
    """d omega for a 1-form, with (d w)(U,V) = ((nabla_U w)(V) - (nabla_V w)(U)) / 2,
    kept as built like nabla omega."""
    if omega.rank != 1 or omega.dim != bundle.n:
        raise GeometryError("exterior derivative expects a 1-form on the same chart")
    n = bundle.n
    grad = covariant_derivative_at(bundle, omega).components  # [a, i] = (nabla_a w)_i
    half = ex.const(1) / 2

    def build(idx):
        i, j = idx
        return ex.mul(half, ex.sub(grad[i, j], grad[j, i]))

    out = _fill((n, n), build, _antisymmetric_pair)
    return TensorField(n, 2, out, symmetry="antisymmetric-2")


def wedge_two_one_forms_at(mu: TensorField, lam: TensorField) -> TensorField:
    """mu wedge lam with the 1/2 normalization matching the exterior derivative,
    simplified, so lam ^ lam is an exact zero."""
    if mu.rank != 1 or lam.rank != 1 or mu.dim != lam.dim:
        raise GeometryError("wedge expects two 1-forms of equal dimension")
    n = mu.dim
    m, l = mu.components, lam.components
    half = ex.const(1) / 2

    def build(idx):
        i, j = idx
        return simplify(ex.mul(half, ex.sub(ex.mul(m[i], l[j]), ex.mul(m[j], l[i]))))

    out = _fill((n, n), build, _antisymmetric_pair)
    return TensorField(n, 2, out, symmetry="antisymmetric-2")


def fit_mu_pointwise(bundle: CurvatureBundle, lam: TensorField, points) -> np.ndarray:
    """Numeric per-point least-squares mu from nabla R - lambda (x) R = mu (x) G.

    Returns an (npoints, n) array; used to cross-check the closed form of
    compute_mu against the extended recurrence condition.
    """
    vals = bundle.values_at(points)
    rv, gv = vals["riemann"], vals["gtensor"]
    nr = bundle.field_values(bundle.nabla_riemann(), points)
    lamv = bundle.field_values(lam, points)
    lhs = nr - np.einsum("pa,pwxyz->pawxyz", lamv, rv)
    num = np.einsum("pawxyz,pwxyz->pa", lhs, gv)
    den = np.einsum("pwxyz,pwxyz->p", gv, gv)
    return num / den[:, None]


def _per_point_max(arr: np.ndarray) -> np.ndarray:
    return np.abs(arr).reshape(arr.shape[0], -1).max(axis=1)


def bianchi_full(bundle: CurvatureBundle, kind: str, points) -> tuple:
    """(residuals, scales) of ``check_bianchi_at``, each cyclic sum formed
    as the full array plus its two permutations."""
    if kind == "first":
        arr = bundle.values_at(points)["riemann"]
        first, second = "pxywz->pwxyz", "pywxz->pwxyz"
    else:
        arr = bundle.field_values(bundle.nabla_riemann(), points)
        first, second = "pwxayz->pawxyz", "pxawyz->pawxyz"
    absolute = np.abs(arr)
    total = arr + np.einsum(first, arr) + np.einsum(second, arr)
    scale = absolute + np.einsum(first, absolute) + np.einsum(second, absolute)
    return _per_point_max(total), _per_point_max(scale)


def fit_values_full(bundle: CurvatureBundle, target: str, points) -> tuple:
    """(magnitudes, admitted, residuals) of ``fit_recurrence_form``, from the
    full arrays of T, G and nabla T - lambda (x) T."""
    tensor, grad = _target_fields(bundle, target)
    lam = _recurrence_form(bundle, target)
    vals = bundle.values_at(points)
    tv = bundle.field_values(tensor, points)
    magnitudes = _per_point_max(tv)
    g_scale = 1.0 + float(np.max(np.abs(vals["gtensor"])))
    admitted = magnitudes > ZERO_THRESHOLD * max(float(np.max(magnitudes)), g_scale)
    residuals = np.full(len(points), np.nan)
    if np.any(admitted):
        adm_pts = tuple(p for p, ok in zip(points, admitted) if ok)
        gv = bundle.field_values(grad, adm_pts)
        lamv = bundle.field_values(lam, adm_pts)
        diff = gv - np.einsum("pa,p...->pa...", lamv, tv[admitted])
        residuals[admitted] = _per_point_max(diff) / (1.0 + magnitudes[admitted])
    return magnitudes, admitted, residuals


def extended_recurrence_full(
    bundle: CurvatureBundle, lam: TensorField, mu: TensorField, points
) -> np.ndarray:
    """Residuals of ``check_extended_recurrence``, from the full array of
    nabla R - lambda (x) R - mu (x) G; an all-ZERO mu adds no term."""
    vals = bundle.values_at(points)
    rv = vals["riemann"]
    nr = bundle.field_values(bundle.nabla_riemann(), points)
    diff = nr - np.einsum("pa,pwxyz->pawxyz", bundle.field_values(lam, points), rv)
    if any(c is not ex.ZERO for c in mu.components.flat):
        muv = bundle.field_values(mu, points)
        diff = diff - np.einsum("pa,pwxyz->pawxyz", muv, vals["gtensor"])
    return _per_point_max(diff) / (1.0 + _per_point_max(rv))


def inverse_by_expansion(g: np.ndarray) -> tuple:
    """(det g, g^-1 as adjugate / det), each determinant a minor expansion
    along the first row that rebuilds every minor it meets."""

    def det(m):
        if m.shape[0] == 1:
            return m[0, 0]
        total = ex.ZERO
        for j in range(m.shape[0]):
            term = ex.mul(m[0, j], det(np.delete(np.delete(m, 0, axis=0), j, axis=1)))
            total = ex.add(total, term) if j % 2 == 0 else ex.sub(total, term)
        return simplify(total)

    d = det(g)

    def build(idx):
        i, j = idx
        cof = det(np.delete(np.delete(g, j, axis=0), i, axis=1))
        return simplify(ex.div(ex.neg(cof) if (i + j) % 2 else cof, d))

    return d, _fill(g.shape, build, _symmetric_pair)


def support(tf: TensorField) -> np.ndarray:
    """Flat indices of tf's components that are not the exact ZERO node."""
    return np.flatnonzero([c is not ex.ZERO for c in tf.key])


def field_at(tf: TensorField, point: dict) -> np.ndarray:
    """Values of a field at one point: one checked tape run over all its
    components (``expressions._Tape.at``), so a DomainError names the first
    non-finite subexpression."""
    return ex._Tape(tf.components.ravel()).at(point).reshape(tf.components.shape)


def field_block(tf: TensorField, points) -> np.ndarray:
    """(npoints, *shape) values of a field by one tape of its own
    components, with no loads and no store; every coordinate of the points
    is a column, so a constant field still has one row per point."""
    points = list(points)
    columns = {c: np.array([float(p[c]) for p in points]) for c in sorted(points[0])}
    rows = ex.evaluate_block(list(tf.components.ravel()), columns)
    return rows.T.reshape((len(points),) + tf.components.shape)


# node id -> simplified node; interned nodes live as long as the process
_BY_NODES: dict[int, Expr] = {}


def _structural(e: Expr) -> tuple:
    return e._key


def simplify_by_nodes(e: Expr) -> Expr:
    """``simplify`` with every key rebuilt as a node (see the module text)."""
    hit = _BY_NODES.get(id(e))
    if hit is not None:
        return hit
    k = e.kind
    if k in (_CONST, _VAR):
        out = e
    elif k in FUNCTIONS:
        out = ex.func(k, simplify_by_nodes(e.args[0]))
    elif k in (_ADD, _SUB, _NEG):
        out = _sum_by_nodes(e)
    elif k in (_MUL, _DIV):
        out = _product_by_nodes(*_term_by_nodes(e, simplify_by_nodes))
    elif k == _POW:
        base = simplify_by_nodes(e.args[0])
        expo = simplify_by_nodes(e.args[1])
        if (
            expo.kind == _CONST
            and expo.payload.denominator == 1
            and base.kind == _POW
            and base.args[1].kind == _CONST
        ):
            out = ex.pow_(base.args[0], ex.const(base.args[1].payload * expo.payload))
        else:
            out = ex.pow_(base, expo)
    else:
        raise ExpressionError(f"cannot simplify node kind {k!r}")
    _BY_NODES[id(e)] = out
    _BY_NODES[id(out)] = out
    return out


def _term_by_nodes(t: Expr, operand=None) -> tuple:
    """(coeff, {base: expo}) of a non-sum term, the */neg chain flattened."""
    coeff = 1
    factors: dict = {}
    stack = [(t, False)]
    while stack:
        node, invert = stack.pop()
        k = node.kind
        if k == _MUL:
            stack.append((node.args[1], invert))
            stack.append((node.args[0], invert))
        elif k == _DIV:
            stack.append((node.args[1], not invert))
            stack.append((node.args[0], invert))
        elif k == _NEG:
            coeff = -coeff
            stack.append((node.args[0], invert))
        elif operand is not None and (f := operand(node)) is not node:
            stack.append((f, invert))
        elif k == _CONST:
            q = node.payload
            if invert:
                if q == 0:
                    factors[node] = factors.get(node, 0) - 1
                else:
                    coeff = Fraction(coeff, q)
            else:
                coeff *= q
        elif k == _POW and node.args[1].kind == _CONST:
            expo = node.args[1].payload
            base = node.args[0]
            factors[base] = factors.get(base, 0) + (-expo if invert else expo)
        else:
            factors[node] = factors.get(node, 0) + (-1 if invert else 1)
    return coeff, factors


def _product_by_nodes(coeff, factors: dict) -> Expr:
    """sign(coeff) * [coeff] * sorted factors / sorted den."""
    if coeff == 0:
        return ZERO
    num_parts = []
    den_parts = []
    for base in sorted(factors, key=_structural):
        expo = factors[base]
        if expo == 0:
            continue
        if base is ZERO and expo < 0:
            den_parts.append(ZERO)
            continue
        (num_parts if expo > 0 else den_parts).append(ex.pow_(base, ex.const(abs(expo))))
    sign = coeff < 0
    coeff = abs(coeff)
    num = None
    if coeff != 1 or not num_parts:
        num = ex.const(coeff)
    for p in num_parts:
        num = p if num is None else ex.mul(num, p)
    out = num
    if den_parts:
        den = den_parts[0]
        for p in den_parts[1:]:
            den = ex.mul(den, p)
        out = _node(_DIV, None, (out, den)) if den is ZERO else ex.div(out, den)
    return ex.neg(out) if sign else out


def _sum_by_nodes(e: Expr) -> Expr:
    """A +- chain flattened, like terms collected, equal denominators combined."""
    raw = []
    stack = [(e, 1)]
    while stack:
        node, sign = stack.pop()
        k = node.kind
        if k == _ADD:
            stack.append((node.args[1], sign))
            stack.append((node.args[0], sign))
            continue
        if k == _SUB:
            stack.append((node.args[1], -sign))
            stack.append((node.args[0], sign))
            continue
        if k == _NEG:
            stack.append((node.args[0], -sign))
            continue
        t = simplify_by_nodes(node)
        if t.kind in (_ADD, _SUB, _NEG):
            stack.append((t, sign))
            continue
        if t.kind == _MUL and t.args[0].kind == _CONST and t.args[1].kind in (_ADD, _SUB):
            stack.append((t.args[1], sign * t.args[0].payload))
            continue
        raw.append((sign, t))

    groups: dict = {}
    for sign, t in raw:
        c, fs = _term_by_nodes(t)
        num = {b: q for b, q in fs.items() if q > 0}
        den_key = _product_by_nodes(1, {b: -q for b, q in fs.items() if q < 0})
        groups.setdefault(den_key, []).append((sign * c, num, fs))

    const_acc = 0
    collected: dict = {}

    def take(coeff, factors):
        nonlocal const_acc
        if coeff == 0:
            return
        key = _product_by_nodes(1, factors)
        if key.kind == _CONST:
            const_acc += coeff * key.payload
        else:
            collected[key] = collected.get(key, 0) + coeff

    for den_key, entries in groups.items():
        if den_key is ONE or len(entries) == 1:
            for c, num, fs in entries:
                if den_key is ONE or den_key is ZERO:
                    take(c, fs)
                    continue
                dc, dfs = _term_by_nodes(den_key)
                merged = dict(num)
                for b, q in dfs.items():
                    merged[b] = merged.get(b, 0) - q
                take(Fraction(c, dc), merged)
            continue
        num_sum = ZERO
        for c, num, _ in entries:
            num_sum = ex.add(num_sum, _product_by_nodes(c, num))
        num_sum = simplify_by_nodes(num_sum)
        combined = simplify_by_nodes(ex.div(num_sum, den_key))
        if combined.kind in (_ADD, _SUB):
            collected[combined] = collected.get(combined, 0) + 1
        else:
            c, fs = _term_by_nodes(combined)
            take(c, fs)

    pieces = []
    for key in sorted(collected, key=_structural):
        coeff = collected[key]
        if coeff == 0:
            continue
        if coeff == 1:
            pieces.append(key)
        elif coeff == -1:
            pieces.append(ex.neg(key))
        else:
            c, fs = _term_by_nodes(key)
            pieces.append(_product_by_nodes(coeff * c, fs))
    acc = None
    for piece in pieces:
        if acc is None:
            acc = piece
        elif piece.kind == _NEG:
            acc = ex.sub(acc, piece.args[0])
        else:
            acc = ex.add(acc, piece)
    if acc is None:
        return ex.const(const_acc)
    if const_acc > 0:
        return ex.add(acc, ex.const(const_acc))
    if const_acc < 0:
        return ex.sub(acc, ex.const(-const_acc))
    return acc
