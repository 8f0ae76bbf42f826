"""Symbolic scalar expressions over chart coordinates.

Expression trees are immutable and interned (hash-consed): structurally equal
trees are the same Python object, so `is` comparison, dict lookups and
per-node caches are all O(1), and shared subtrees are stored once no matter
how often they recur in a tensor component. Construction goes through the
factory helpers (`add`, `mul`, ..., or operator overloading), which fold
constant-only subtrees exactly. A constant's payload is an `int` when it is
integral and a `fractions.Fraction` otherwise, one canonical type per value,
so no precision is lost at parse time or during folding, and the integral
coefficients and exponents that `simplify` mostly handles cost plain integer
arithmetic.

Grammar accepted by `parse`:

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := base ('^' exponent)?      # exponent := factor, right associative
    base     := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Simplification is conservative: constant folding, 0/1 identities, flattening
of sum/product chains with like-term and like-factor collection. Rewrites only
ever produce trees pointwise equal to the input on the input's domain. The
canonical order of terms and factors comes from a structural key, the nested
tuple (kind, payload key, *child keys), built once per interned node: it never
prints a tree and is the same in every process, whatever PYTHONHASHSEED is.

Memo tables live on the node they describe (printed string, simplified form,
derivatives by variable), so they share the node's lifetime.

Every value comes from one evaluation tape: the roots' union DAG in
children-first order, one numpy operation per distinct node with slots
reused once a value is dead (Griewank & Walther, Evaluating Derivatives,
2008; Poletto & Sarkar, linear-scan allocation, 1999). `evaluate_block`
runs it at many points and checks finiteness once on the result.
`evaluate` runs it at one point on one-element columns, so its values are
a block column's bit for bit, and checks each value as it is made: the
first non-finite one raises DomainError naming its subexpression.
The independent check of `differentiate`, a dual-number evaluator on
Python floats, is the tests' reference in ``tests/reference.py``.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Expr",
    "ExpressionError",
    "ParseError",
    "UnknownIdentifierError",
    "DomainError",
    "FUNCTIONS",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "pow_",
    "neg",
    "func",
    "sin",
    "cos",
    "tan",
    "cot",
    "exp",
    "ln",
    "sinh",
    "cosh",
    "sqrt",
    "abs_",
    "esum",
    "parse",
    "to_string",
    "variables",
    "differentiate",
    "simplify",
    "evaluate",
    "evaluate_block",
    "node_count",
]

FUNCTIONS = ("sin", "cos", "tan", "cot", "exp", "ln", "sinh", "cosh", "sqrt", "abs")

_CONST = "const"
_VAR = "var"
_ADD = "+"
_SUB = "-"
_MUL = "*"
_DIV = "/"
_POW = "^"
_NEG = "neg"


class ExpressionError(Exception):
    """Base class for expression engine errors."""


class ParseError(ExpressionError):
    """Syntax error; carries the 0-based position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    """Identifier that is neither a declared coordinate nor a known function."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


_MESSAGE_CHARS = 500  # printed subexpressions are cut here: a component can print to megabytes
_TRUNCATED = "... (truncated)"


class DomainError(ExpressionError):
    """Evaluation left the domain (division by zero, ln of non-positive, ...)."""

    def __init__(self, message: str, subexpression: "Expr | None" = None):
        if subexpression is not None:
            text = _to_string(subexpression, _MESSAGE_CHARS)
            if len(text) > _MESSAGE_CHARS:
                text = text[:_MESSAGE_CHARS] + _TRUNCATED
            message = f"{message} in subexpression '{text}'"
        super().__init__(message)
        self.subexpression = subexpression


class Expr:
    """One interned node of an expression tree. Build via the factories."""

    __slots__ = ("kind", "payload", "args", "_key", "_str", "_simplified", "_diff")

    kind: str
    payload: object  # int or Fraction for constants, str for variables, else None
    args: tuple
    _key: tuple  # structural sort key: (kind, payload key, *child keys)

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __repr__(self):
        return to_string(self)

    def __str__(self):
        return to_string(self)


# Interning table. Keys identify nodes structurally: children are already
# interned, so their ids pin them down, and the kind fixes how many follow.
# Structural equality == identity.
_INTERN: dict[tuple, Expr] = {}


def _node(kind: str, payload, args: tuple) -> Expr:
    if payload is None:
        key = (kind, id(args[0]), id(args[1])) if len(args) == 2 else (kind, id(args[0]))
    else:  # a Fraction hashes slowly, so a constant is keyed by its two ints
        key = (kind, payload.numerator, payload.denominator) if kind == _CONST else (kind, payload)
    hit = _INTERN.get(key)
    if hit is None:
        hit = object.__new__(Expr)
        hit.kind = kind
        hit.payload = payload
        hit.args = args
        pkey = key[1:] if kind == _CONST else payload if kind == _VAR else ""
        kids = (args[0]._key, args[1]._key) if len(args) == 2 else (args[0]._key,) if args else ()
        # child keys are the children's own tuples, so a node adds O(1) memory
        hit._key = (kind, pkey, *kids)
        hit._str = hit._simplified = hit._diff = None
        _INTERN[key] = hit
    return hit


# ---------------------------------------------------------------------------
# construction factories (exact constant folding + 0/1 identities)
# ---------------------------------------------------------------------------


def const(value) -> Expr:
    """Exact rational constant: an int payload when integral, else a Fraction.

    Floats are converted exactly (dyadic rationals); bools and numpy
    numbers go through Fraction like them.
    """
    if type(value) is not int:
        if isinstance(value, Expr):
            if value.kind != _CONST:
                raise ExpressionError(f"not a constant: {value}")
            return value
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value.denominator == 1:
            value = int(value.numerator)
    return _node(_CONST, value, ())


ZERO = const(0)
ONE = const(1)


def var(name: str) -> Expr:
    if not name or not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
        raise ExpressionError(f"invalid variable name {name!r}")
    return _node(_VAR, name, ())


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float, Fraction)):
        return const(x)
    raise ExpressionError(f"cannot use {type(x).__name__} as an expression")


def add(a, b) -> Expr:
    if type(a) is not Expr:
        a = _coerce(a)
    if type(b) is not Expr:
        b = _coerce(b)
    if a.kind == _CONST and b.kind == _CONST:
        return const(a.payload + b.payload)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return _node(_ADD, None, (a, b))


def sub(a, b) -> Expr:
    if type(a) is not Expr:
        a = _coerce(a)
    if type(b) is not Expr:
        b = _coerce(b)
    if a.kind == _CONST and b.kind == _CONST:
        return const(a.payload - b.payload)
    if a is b:
        return ZERO
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    return _node(_SUB, None, (a, b))


def mul(a, b) -> Expr:
    if type(a) is not Expr:
        a = _coerce(a)
    if type(b) is not Expr:
        b = _coerce(b)
    if a.kind == _CONST and b.kind == _CONST:
        return const(a.payload * b.payload)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    return _node(_MUL, None, (a, b))


def div(a, b) -> Expr:
    if type(a) is not Expr:
        a = _coerce(a)
    if type(b) is not Expr:
        b = _coerce(b)
    if b.kind == _CONST and b is not ZERO:
        if a.kind == _CONST:
            return const(Fraction(a.payload, b.payload))  # int / int is a float
        if b is ONE:
            return a
    if a is ZERO and b is not ZERO:
        return ZERO
    return _node(_DIV, None, (a, b))


def pow_(a, b) -> Expr:
    if type(a) is not Expr:
        a = _coerce(a)
    if type(b) is not Expr:
        b = _coerce(b)
    if b.kind == _CONST:
        q = b.payload
        if q == 1:
            return a
        if q == 0:
            return ONE  # 0^0 == 1 by the evaluation convention below
        if a.kind == _CONST and type(q) is int:
            base = a.payload
            if q > 0:
                return const(base ** q)
            if base != 0:
                return const(Fraction(base) ** q)  # int ** -k is a float
    if a is ONE:
        return ONE
    return _node(_POW, None, (a, b))


def neg(a) -> Expr:
    if type(a) is not Expr:
        a = _coerce(a)
    if a.kind == _CONST:
        return const(-a.payload)
    if a.kind == _NEG:
        return a.args[0]
    return _node(_NEG, None, (a,))


def func(name: str, a) -> Expr:
    if name not in FUNCTIONS:
        raise ExpressionError(f"unknown function '{name}'")
    return _node(name, None, (_coerce(a),))


def sin(a):
    return func("sin", a)


def cos(a):
    return func("cos", a)


def tan(a):
    return func("tan", a)


def cot(a):
    return func("cot", a)


def exp(a):
    return func("exp", a)


def ln(a):
    return func("ln", a)


def sinh(a):
    return func("sinh", a)


def cosh(a):
    return func("cosh", a)


def sqrt(a):
    return func("sqrt", a)


def abs_(a):
    return func("abs", a)


def esum(terms) -> Expr:
    """Sum of an iterable of expressions (empty sum is 0)."""
    acc = ZERO
    for t in terms:
        acc = add(acc, t)
    return acc


def variables(e: Expr) -> frozenset[str]:
    """Set of variable names appearing in the tree."""
    return frozenset(n.payload for n in _order((e,))[0] if n.kind == _VAR)


def node_count(e: Expr, limit: int | None = None) -> int:
    """Number of distinct nodes in the DAG rooted at e (early exit past limit)."""
    seen: set[int] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if limit is not None and len(seen) > limit:
            return len(seen)
        stack.extend(n.args)
    return len(seen)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        i = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], coordinates):
        self.tokens = tokens
        self.i = 0
        self.coordinates = frozenset(coordinates)

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, text: str):
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise ParseError(f"expected '{text}', found {t.text!r}", t.pos)

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.factor()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def factor(self) -> Expr:
        b = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.next()
            return pow_(b, self.factor())
        return b

    def base(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return const(Fraction(t.text))
        if t.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if t.text not in FUNCTIONS:
                    raise UnknownIdentifierError(t.text, t.pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return func(t.text, arg)
            if t.text in self.coordinates:
                return var(t.text)
            if t.text in FUNCTIONS:
                raise ParseError(f"function '{t.text}' needs an argument list", t.pos)
            raise UnknownIdentifierError(t.text, t.pos)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if t.kind == "op" and t.text == "-":
            return neg(self.base())
        raise ParseError(f"unexpected {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse(text: str, coordinates) -> Expr:
    """Parse an expression over the given coordinate names."""
    p = _Parser(_tokenize(text), coordinates)
    e = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.pos)
    return e


# ---------------------------------------------------------------------------
# printing (inverse of parse: print-then-parse reproduces the tree)
# ---------------------------------------------------------------------------

_ATOM = "atom"
_CAT_FRAC = "frac"
_CAT_POW = "pow"
_CAT_NEG = "neg"
_CAT_PROD = "prod"
_CAT_SUM = "sum"


def _category(e: Expr) -> str:
    if e.kind == _CONST:
        q: int | Fraction = e.payload
        if q.denominator != 1:
            return _CAT_FRAC
        return _ATOM if q >= 0 else _CAT_NEG
    if e.kind in (_VAR,) or e.kind in FUNCTIONS:
        return _ATOM
    if e.kind == _POW:
        return _CAT_POW
    if e.kind == _NEG:
        return _CAT_NEG
    if e.kind in (_MUL, _DIV):
        return _CAT_PROD
    return _CAT_SUM


def _wrap(e: Expr, cats) -> list:
    return ["(", e, ")"] if _category(e) in cats else [e]


def to_string(e: Expr) -> str:
    """Render with exactly the parentheses the grammar needs to round-trip."""
    if e._str is None:
        e._str = _to_string(e)
    return e._str


def _to_string(e: Expr, limit: int | None = None) -> str:
    """Printed form of e, stopped once it is longer than limit characters.

    Walks the tree expansion of the DAG with an explicit stack, so a bounded
    print costs O(limit) however large e prints in full. Only the root's
    string is ever cached (by to_string); a node that already has one is
    copied from it.
    """
    out: list[str] = []
    size = 0
    stack: list = [e]
    while stack:
        item = stack.pop()
        if isinstance(item, Expr):
            if item._str is None:
                stack.extend(reversed(_layout(item)))
                continue
            item = item._str
        if limit is not None and size + len(item) > limit:
            out.append(item[: limit + 1 - size])
            break
        out.append(item)
        size += len(item)
    return "".join(out)


def _layout(e: Expr) -> list:
    """One node's printed form as strings and child nodes, in print order."""
    k = e.kind
    if k == _CONST:
        q: int | Fraction = e.payload
        return [str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"]
    if k == _VAR:
        return [e.payload]
    if k in FUNCTIONS:
        return [f"{k}(", e.args[0], ")"]
    if k == _NEG:
        return ["-", *_wrap(e.args[0], (_CAT_SUM, _CAT_PROD, _CAT_FRAC, _CAT_POW))]
    if k in (_ADD, _SUB):
        return [e.args[0], f" {k} ", *_wrap(e.args[1], (_CAT_SUM,))]
    if k in (_MUL, _DIV):
        return [
            *_wrap(e.args[0], (_CAT_SUM,)),
            k,
            *_wrap(e.args[1], (_CAT_SUM, _CAT_PROD, _CAT_FRAC)),
        ]
    if k == _POW:
        ex = e.args[1]
        bare = (
            _category(ex) == _ATOM
            or ex.kind == _NEG
            or ex.kind == _POW
            or (ex.kind == _CONST and ex.payload.denominator == 1)
        )
        left = _wrap(e.args[0], (_CAT_SUM, _CAT_PROD, _CAT_FRAC, _CAT_POW, _CAT_NEG))
        return [*left, "^", *([ex] if bare else ["(", ex, ")"])]
    raise ExpressionError(f"unprintable node kind {k!r}")


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, name: str) -> Expr:
    """Partial derivative with respect to the named variable.

    Each node keeps its derivatives in its ``_diff`` table. The nodes below e
    whose derivative is not yet there are differentiated children first, by
    an explicit stack, so the depth of e costs no recursion.
    """
    stack = [e]
    while stack:
        n = stack[-1]
        table = n._diff
        if table is None:
            table = n._diff = {}
        elif name in table:
            stack.pop()  # cached, or pushed again from another parent
            continue
        size = len(stack)
        for a in n.args:
            if a._diff is None or name not in a._diff:
                stack.append(a)
        if len(stack) == size:
            stack.pop()
            table[name] = _differentiate_node(n, name)
    return e._diff[name]


def _differentiate_node(e: Expr, name: str) -> Expr:
    """Derivative of e from the derivatives already in its children's tables."""
    k = e.kind
    if k == _CONST:
        return ZERO
    if k == _VAR:
        return ONE if e.payload == name else ZERO
    u = e.args[0]
    du = u._diff[name]
    if len(e.args) == 2:
        v = e.args[1]
        dv = v._diff[name]
        if k == _ADD:
            return add(du, dv)
        if k == _SUB:
            return sub(du, dv)
        if k == _MUL:
            return add(mul(du, v), mul(u, dv))
        if k == _DIV:
            return div(sub(mul(du, v), mul(u, dv)), pow_(v, 2))
        if k == _POW:
            if v.kind == _CONST:
                p = v.payload
                return mul(mul(const(p), pow_(u, const(p - 1))), du)
            return mul(e, add(mul(dv, ln(u)), div(mul(v, du), u)))
    if k == _NEG:
        return neg(du)
    if k == "sin":
        return mul(cos(u), du)
    if k == "cos":
        return mul(neg(sin(u)), du)
    if k == "tan":
        return mul(add(ONE, pow_(tan(u), 2)), du)
    if k == "cot":
        return mul(neg(add(ONE, pow_(cot(u), 2))), du)
    if k == "exp":
        return mul(e, du)
    if k == "ln":
        return div(du, u)
    if k == "sinh":
        return mul(cosh(u), du)
    if k == "cosh":
        return mul(sinh(u), du)
    if k == "sqrt":
        return div(du, mul(const(2), e))
    if k == "abs":
        # sign(u) * u' away from u = 0, written abs-free of new primitives
        return mul(div(u, e), du)
    raise ExpressionError(f"cannot differentiate node kind {k!r}")


# ---------------------------------------------------------------------------
# conservative simplification
# ---------------------------------------------------------------------------

# deterministic total order on interned nodes (canonical output order)
_sort_key = operator.attrgetter("_key")


def simplify(e: Expr) -> Expr:
    """Constant folding, 0/1 identities, like-term/like-factor collection.

    Sums and products are flattened with factors and terms put in a canonical
    order, repeated factors merge into powers, terms sharing an identical
    denominator combine over it. Every rewrite is pointwise equal to the
    input on the input's domain; nothing depends on sign assumptions.
    Each node is simplified once (the ``_simplified`` slot); the cost is in
    the per-term work of sums (``_sum_of``).
    """
    if e._simplified is not None:
        return e._simplified
    k = e.kind
    if k in (_ADD, _SUB, _NEG):
        out = _simplify_sum(e)
    elif k in (_MUL, _DIV):
        out = _rebuild_product(*_decompose_term(e, simplify))
    elif k in (_CONST, _VAR):
        out = e
    elif k in FUNCTIONS:
        out = func(k, simplify(e.args[0]))
    elif k == _POW:
        base = simplify(e.args[0])
        expo = simplify(e.args[1])
        if (
            expo.kind == _CONST
            and expo.payload.denominator == 1
            and base.kind == _POW
            and base.args[1].kind == _CONST
        ):
            # (x^p)^m -> x^(p*m) for integer m: valid wherever x^p is defined
            out = pow_(base.args[0], const(base.args[1].payload * expo.payload))
        else:
            out = pow_(base, expo)
    else:
        raise ExpressionError(f"cannot simplify node kind {k!r}")
    e._simplified = out
    out._simplified = out
    return out


def _decompose_term(
    t: Expr, operand=None
) -> tuple[int | Fraction, dict[Expr, int | Fraction]]:
    """Write a non-sum term as coeff * prod(base^expo).

    The */ and negation chain is flattened; every other node is passed
    through operand first, if given, and a result that is itself such a
    chain is flattened in turn. Pass `simplify` to flatten an unsimplified
    product. The coefficient is carried as integer numerator and denominator,
    an int when integral, else one Fraction; exponents are exact rationals.
    """
    num = den = 1
    factors: dict[Expr, int | Fraction] = {}
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
            num = -num
            stack.append((node.args[0], invert))
        elif operand is not None and (f := operand(node)) is not node:
            stack.append((f, invert))
        elif k == _CONST:
            q = node.payload
            if not invert:
                num *= q.numerator
                den *= q.denominator
            elif q:
                num *= q.denominator
                den *= q.numerator
            else:
                factors[node] = factors.get(node, 0) - 1
        elif k == _POW and node.args[1].kind == _CONST:
            base = node.args[0]
            expo = node.args[1].payload
            factors[base] = factors.get(base, 0) + (-expo if invert else expo)
        else:
            factors[node] = factors.get(node, 0) + (-1 if invert else 1)
    return (num if den == 1 else num // den if num % den == 0 else Fraction(num, den)), factors


def _rebuild_product(coeff: int | Fraction, factors: dict[Expr, int | Fraction]) -> Expr:
    """Canonical product: sign(coeff) * [coeff] * sorted factors / sorted den."""
    if coeff == 0:
        return ZERO
    sign = coeff < 0
    if sign:
        coeff = -coeff
    num = None if coeff == 1 else const(coeff)
    den = None
    for base in sorted(factors, key=_sort_key) if len(factors) > 1 else factors:
        expo = factors[base]
        if expo > 0:
            p = base if expo == 1 else pow_(base, const(expo))
            num = p if num is None else mul(num, p)
        elif expo < 0:
            # x/0 keeps one ZERO factor, so it stays a domain error
            p = base if expo == -1 or base is ZERO else pow_(base, const(-expo))
            den = p if den is None else mul(den, p)
    out = ONE if num is None else num
    if den is not None:
        out = _node(_DIV, None, (out, den)) if den is ZERO else div(out, den)
    return neg(out) if sign else out


def _stable(factors: dict) -> bool:
    """Whether c * factors, rebuilt, gives c and these factors back when
    decomposed, and with positive exponents when simplified as a sum's term
    (bases of simplified terms are simplified): no base is a constant or a
    */neg chain, no x^q with constant q has an integral exponent, and the
    factors are not one sum to the first power."""
    if len(factors) == 1 and all(q == 1 and b.kind in (_ADD, _SUB) for b, q in factors.items()):
        return False
    return all(b.kind not in (_MUL, _DIV, _NEG, _CONST) and not (
        b.kind == _POW and b.args[1].kind == _CONST and q.denominator == 1
    ) for b, q in factors.items())


def _simplify_sum(e: Expr) -> Expr:
    """Flatten a +- chain and decompose each term once; `_sum_of` collects.

    A term that simplifies to c*S, with c a rational constant and S a sum,
    contributes S's terms scaled by c, so linear combinations of sums cancel
    (2*(a + b) - 2*a - 2*b is 0). Products with any other factor are not
    expanded: distributing over c*S*x is full expansion and can swell.
    """
    raw: list[tuple[int | Fraction, Expr]] = []
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
        t = simplify(node)
        if t.kind in (_ADD, _SUB, _NEG):
            stack.append((t, sign))
            continue
        if t.kind == _MUL and t.args[0].kind == _CONST and t.args[1].kind in (_ADD, _SUB):
            stack.append((t.args[1], sign * t.args[0].payload))
            continue
        c, fs = _decompose_term(t)
        raw.append((c if sign == 1 else sign * c, fs))
    # raw is in source order: the stack pops reversed the pushes
    return _sum_of(raw)


def _sum_of(terms: list) -> Expr:
    """The simplified sum of terms given as (coeff, factors), in order. Each
    like-term key, a coefficient-free product, is built once and kept with
    its factors, which rebuild a piece whose coefficient is not +-1;
    numerators over one denominator are summed here, not built and then
    simplified; both while the factors are `_stable`. Pieces go in key order.
    """
    groups: dict[Expr, list[tuple[int | Fraction, dict]]] = {}
    for c, fs in terms:
        den = {b: -q for b, q in fs.items() if q < 0}
        groups.setdefault(_rebuild_product(1, den) if den else ONE, []).append((c, fs))

    const_acc = 0
    collected: dict[Expr, list] = {}  # key -> [coefficient, factors it was built from]

    def take(coeff: int | Fraction, factors: dict):
        nonlocal const_acc
        if coeff == 0:
            return
        key = _rebuild_product(1, factors)
        if key.kind == _CONST:
            const_acc += coeff * key.payload
        elif (slot := collected.get(key)) is None:
            collected[key] = [coeff, factors]
        else:
            slot[0] += coeff

    for den_key, entries in groups.items():
        if den_key is ONE or len(entries) == 1:
            for c, fs in entries:
                if den_key is ONE or den_key is ZERO:
                    # 0 has no factors to divide by, so x/0 keeps its own
                    take(c, fs)
                    continue
                # the key's factors flatten a denominator that is a quotient
                dc, dfs = _decompose_term(den_key)
                merged = {b: q for b, q in fs.items() if q > 0}
                for b, q in dfs.items():
                    merged[b] = merged.get(b, 0) - q
                take(Fraction(c, dc), merged)
            continue
        # several terms over one identical denominator: combine numerators
        nums = [(c, {b: q for b, q in fs.items() if q > 0}) for c, fs in entries]
        if all(_stable(fs) for _, fs in nums):
            num_sum = _sum_of(nums)
            num_sum._simplified = num_sum  # as simplify marks what it returns
        else:
            num_sum = simplify(esum(_rebuild_product(c, fs) for c, fs in nums))
        combined = simplify(div(num_sum, den_key))
        if combined.kind in (_ADD, _SUB):
            # numerator stayed a sum; keep the fraction as one opaque term
            take(1, {combined: 1})
        else:
            take(*_decompose_term(combined))

    acc: Expr | None = None
    for key in sorted(collected, key=_sort_key):
        coeff, fs = collected[key]
        if coeff == 0:
            continue
        if coeff == 1:
            piece = key
        elif coeff == -1:
            piece = neg(key)
        else:
            if not _stable(fs):  # the key does not give these factors back
                c, fs = _decompose_term(key)
                coeff *= c
            piece = _rebuild_product(coeff, fs)
        if acc is None:
            acc = piece
        elif piece.kind == _NEG:
            acc = sub(acc, piece.args[0])
        else:
            acc = add(acc, piece)
    if acc is None:
        return const(const_acc)
    if const_acc > 0:
        return add(acc, const(const_acc))
    if const_acc < 0:
        return sub(acc, const(-const_acc))
    return acc


# ---------------------------------------------------------------------------
# evaluation: the tape (one point, checked; a block, vectorized), dual numbers
# ---------------------------------------------------------------------------


def _constant(n: Expr) -> float:
    """A constant node's value as a float; DomainError when out of range."""
    try:
        return float(n.payload)
    except OverflowError:
        raise DomainError("constant out of float range", n) from None


def _order(roots, leaves=()) -> tuple[list, list, dict]:
    """The union DAG of roots children first: the nodes, the positions of
    each node's arguments and each node's position by id. Roots are taken
    in turn, first arguments first, so the order depends on the roots alone.
    A node whose id is in leaves is taken as a leaf: the walk stops there."""
    position: dict[int, int] = {}
    nodes: list[Expr] = []
    argpos: list[tuple] = []
    for root in roots:
        if id(root) in position:
            continue
        # everything above a node on the stack is its descendant, so no
        # node is pushed twice
        stack = [root]
        while stack:
            n = stack[-1]
            args = () if id(n) in leaves else n.args
            if args:
                p0 = position.get(id(args[0]))
                if p0 is None:
                    stack.append(args[0])
                    continue
                if len(args) == 2:
                    p1 = position.get(id(args[1]))
                    if p1 is None:
                        stack.append(args[1])
                        continue
                    ia = (p0, p1)
                else:
                    ia = (p0,)
            else:
                ia = ()
            stack.pop()
            position[id(n)] = len(nodes)
            nodes.append(n)
            argpos.append(ia)
    return nodes, argpos, position


def _why(n: Expr, x: float, y: float) -> str:
    """Why n's value is not finite, given its finite operand values x, y."""
    k = n.kind
    if k == _VAR:
        return f"coordinate '{n.payload}' is not finite"
    if k == _DIV and y == 0.0:
        return "division by zero"
    if k == _POW and x == 0.0 and y < 0:
        return "zero base with negative exponent"
    if k == _POW and x < 0 and y != int(y):
        return "negative base with non-integer exponent"
    if k == "ln" and x <= 0.0:
        return "ln of non-positive value"
    if k == "sqrt" and x < 0.0:
        return "sqrt of negative value"
    if k == "cot" and math.sin(x) == 0.0:
        return "cot at a zero of sin"
    return "overflow"


def evaluate(e: Expr, point: dict) -> float:
    """Evaluate at a point, raising DomainError with the offending subexpression.

    One checked tape run (`_Tape.at`): the value is `evaluate_block`'s at that
    point, and the error names the first node whose value is not finite.
    """
    return float(_Tape((e,)).at(point)[0])


def _cot(a):
    return np.cos(a) / np.sin(a)


_BINARY_NP = {
    _ADD: operator.add,
    _SUB: operator.sub,
    _MUL: operator.mul,
    _DIV: operator.truediv,
    _POW: operator.pow,
}
_UNARY_NP = {
    _NEG: operator.neg,
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "cot": _cot,
    "exp": np.exp,
    "ln": np.log,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}


class _Tape:
    """Straight-line evaluation program for a fixed tuple of root expressions.

    The union DAG of the roots is put in children-first order (`_order`),
    once, and each node becomes one entry (slot, fn, a, b): regs[slot] =
    fn(regs[a], regs[b]), or fn(regs[a]) when b is None. Constants,
    variables and loads are leaf entries, with fn None and a the constant's
    np.float64 value, the coordinate's name or the load's index. Loads are
    nodes whose rows the caller has already evaluated for the same points
    and passes to `run`, in the order given here; the walk stops at them,
    so their subexpressions are not compiled. A node's slot is handed to a
    later node once its last reader has run (linear-scan reuse), so the tape
    needs as many slots as values are live at once, not one per node; root
    slots stay live to the end. The tape holds floats, names, numpy
    functions, the roots and the loads, but no interior node: entry p is
    node p of `_order`, recomputed only to name a failing node. `run` checks
    a block's values once at the end; `at`, for a tape without loads, checks
    each value at one point as it is made.

    Only the loads some entry reaches are read: ``reads`` lists their
    indices in ``loads``, ascending, and a load entry's a is its position in
    ``reads``. Roots often share a node (every ZERO component is one), so a
    block run fills one row per distinct root slot (``outputs``): root i's
    values are row ``expand[i]``. `run` returns those distinct rows, which
    is what the bundle's store keeps; `values` and `evaluate_block` expand
    them to one row per root.
    """

    __slots__ = ("roots", "loads", "reads", "size", "ops", "outputs", "expand")

    def __init__(self, exprs, loads=()):
        self.roots = roots = tuple(exprs)
        self.loads = tuple(loads)
        load_index = {id(n): k for k, n in enumerate(self.loads)}
        nodes, argpos, position = _order(roots, load_index)

        # linear scan run backwards: a value is live from its definition to
        # its last reader, so it takes a slot at the last reader (the first
        # met going backwards) and gives it back at its definition
        slot_of = [-1] * len(nodes)
        free: list[int] = []
        size = 0
        for root in roots:
            p = position[id(root)]
            if slot_of[p] < 0:
                slot_of[p] = size
                size += 1
        ops: list = [None] * len(nodes)
        load_entries: list[int] = []
        for p in range(len(nodes) - 1, -1, -1):
            slot = slot_of[p]
            free.append(slot)
            n = nodes[p]
            ia = argpos[p]
            for q in ia:
                if slot_of[q] < 0:
                    if free:
                        slot_of[q] = free.pop()
                    else:
                        slot_of[q] = size
                        size += 1
            if not ia:
                value = load_index.get(id(n))
                if value is None:
                    value = np.float64(_constant(n)) if n.kind == _CONST else n.payload
                else:
                    load_entries.append(p)
                ops[p] = (slot, None, value, None)
            elif len(ia) == 2:
                ops[p] = (slot, _BINARY_NP[n.kind], slot_of[ia[0]], slot_of[ia[1]])
            else:
                fn = _UNARY_NP.get(n.kind)
                if fn is None:
                    raise ExpressionError(f"cannot evaluate node kind {n.kind!r}")
                ops[p] = (slot, fn, slot_of[ia[0]], None)
        self.reads = tuple(sorted({ops[p][2] for p in load_entries}))
        read_pos = {k: r for r, k in enumerate(self.reads)}
        for p in load_entries:
            ops[p] = (ops[p][0], None, read_pos[ops[p][2]], None)
        self.size = size
        self.ops = tuple(ops)
        root_slots = [slot_of[position[id(r)]] for r in roots]
        row_of = {}
        self.expand = np.array(
            [row_of.setdefault(slot, len(row_of)) for slot in root_slots], dtype=np.intp
        )
        self.outputs = tuple(row_of)

    def at(self, point: dict) -> np.ndarray:
        """Values of the roots at one point, each value checked as it is made.

        The entries run as in `values`, on one-element columns, so every value
        is a block column's bit for bit. The first non-finite value, or a
        coordinate missing from point, raises DomainError naming its node.
        """
        regs = [None] * self.size
        with np.errstate(all="ignore"):
            for p, (slot, fn, a, b) in enumerate(self.ops):
                if b is not None:
                    x, y = regs[a], regs[b]
                    v = fn(x, y)
                elif fn is not None:
                    x = y = regs[a]
                    v = fn(x)
                elif isinstance(a, str):
                    if a not in point:
                        raise DomainError(f"coordinate '{a}' not assigned", var(a))
                    x = y = v = np.array([point[a]], dtype=float)
                else:
                    x = y = v = a
                if not math.isfinite(v.item()):
                    n = _order(self.roots)[0][p]
                    raise DomainError(_why(n, x.item(), y.item()), n)
                regs[slot] = v
        return np.array([regs[slot].item() for slot in self.outputs])[self.expand]

    def _distinct(self, columns: dict, loaded) -> np.ndarray:
        """(outputs, npoints) values of the distinct root slots, unchecked."""
        npts = len(next(iter(columns.values()))) if columns else 1
        regs = [None] * self.size
        for slot, fn, a, b in self.ops:
            if b is not None:
                regs[slot] = fn(regs[a], regs[b])
            elif fn is not None:
                regs[slot] = fn(regs[a])
            elif isinstance(a, str):
                regs[slot] = columns[a]
            elif isinstance(a, int):
                regs[slot] = loaded[a]
            else:
                regs[slot] = a
        out = np.empty((len(self.outputs), npts))
        for j, slot in enumerate(self.outputs):
            out[j] = regs[slot]
        return out

    def values(self, columns: dict, loaded=()) -> np.ndarray:
        """Run the tape under the caller's errstate; no finiteness check.

        loaded holds one row per entry of ``reads``, each evaluated at the
        columns' points.
        """
        return self._distinct(columns, loaded)[self.expand]

    def run(self, columns: dict, loaded=()) -> np.ndarray:
        """(outputs, npoints) distinct rows of the roots at the points,
        checked for finiteness; root i's values are row ``expand[i]``.

        The error names the first root, in root order, whose row has a
        non-finite value, which is the first root of the first such
        distinct row.
        """
        with np.errstate(all="ignore"):
            out = self._distinct(columns, loaded)
        finite = np.isfinite(out)
        if not finite.all():
            bad = ~finite
            d = int(bad.any(axis=1).argmax())
            j = int((self.expand == d).argmax())
            i = int(bad[d].argmax())
            where = ", ".join(f"{c}={float(col[i]):.6g}" for c, col in columns.items())
            if len(where) > _MESSAGE_CHARS:
                where = where[:_MESSAGE_CHARS] + _TRUNCATED
            raise DomainError(
                f"non-finite value in block evaluation at point {i} ({where})",
                self.roots[j],
            )
        return out


def evaluate_block(exprs, columns: dict) -> np.ndarray:
    """Evaluate many expressions at many points in one shared-DAG pass.

    columns maps coordinate name -> 1-d float array (all the same length).
    Returns a (len(exprs), npoints) float array whose row i holds exprs[i]
    at every point. The roots are compiled into a tape (`_Tape`): one
    numpy operation per distinct node, in a children-first order, with a
    node's slot reused once its last reader has run. Finiteness is checked
    once on the whole array: a non-finite value raises DomainError naming
    the first root that has one and the first point where it does; use
    `evaluate` to pinpoint the subexpression.
    """
    tape = _Tape(exprs)
    return tape.run(columns)[tape.expand]
