"""Metric charts, tensor fields, and the curvature apparatus.

Index conventions (fixed; all tests are written against them):

* ``christoffel[k, i, j]`` is Gamma^k_ij of the Levi-Civita connection,
  Gamma^k_ij = (1/2) g^kl (d_i g_jl + d_j g_il - d_l g_ij).
* The curvature operator is R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y];
  ``riemann_13[i, j, k, l]`` is the coefficient of d_l in R(d_i, d_j) d_k.
* The (0,4) curvature is R(W,X,Y,Z) = g(R(W,X)Y, Z), stored with slots in
  that order: ``riemann[w, x, y, z]``.
* Ricci is the trace S(Y,Z) = trace(X -> R(X,Y)Z), i.e.
  ``ricci[j, k] = riemann_13[i, j, k, i]`` summed over i; the scalar
  curvature is r = g^jk S_jk. With these conventions a constant-curvature
  metric of sectional curvature K satisfies R = K*G, S = (n-1)K*g,
  r = n(n-1)K, where G is the curvature-like tensor of the metric:
  G(W,X,Y,Z) = g(X,Y) g(W,Z) - g(W,Y) g(X,Z).
* The concircular tensor is C = R - (r / (n(n-1))) * G.
* Covariant derivatives put the new (derivative) index FIRST:
  ``(nabla T)[a, i1, ..., ik]``; the second covariant derivative is the
  covariant derivative of the first, so slot order is (a, b, i1, ..., ik)
  and nabla^2_{a,b} = nabla_a nabla_b - nabla_{nabla_a b}.
* The exterior derivative of a 1-form and the wedge of two 1-forms carry
  the 1/2 normalization: (d w)(U,V) = ((nabla_U w)(V) - (nabla_V w)(U)) / 2
  and (m ^ l)(U,V) = (m(U) l(V) - m(V) l(U)) / 2.

All tensor components are symbolic expressions; numeric work happens by
evaluating component arrays at sample points and contracting with numpy.

``simplify`` runs where a check or a test needs an exact symbolic zero, and
only there: on the metric, its minors and inverse, Gamma, R, Ricci, r and G,
and nowhere in the derivative layer. Two exact zeros come from identities
instead. C is built as its definition, unsimplified, and is ZERO in
dimension 2, where R = (r/2) G (where r is the ZERO node, C is R node for
node). nabla g is ZERO by the metric compatibility of the Levi-Civita
connection (``covariant_derivative_at``). R is built from the metric's
second derivatives and the first-kind symbols
Gamma_l,ij = (1/2)(d_i g_jl + d_j g_il - d_l g_ij), which have no
denominator,
R[i,j,k,m] = (1/2)(d_k d_i g_mj + d_m d_j g_ki - d_k d_j g_mi - d_m d_i g_kj)
             + g^ab (Gamma_a,ki Gamma_b,mj - Gamma_a,kj Gamma_b,mi),
so each term of the quadratic part carries one det g denominator, not the
det g^2 of g_ef Gamma^e_ki Gamma^f_mj; riemann_13 is R with its last index
raised. riemann_13 and every other covariant derivative (nabla R,
nabla C, nabla^2 R, nabla of a 1-form) are only ever evaluated or summed
into a simplified field, so they are kept as built: shared DAGs that cost
less to build and to evaluate than their simplified forms. nabla C is not
differentiated at all: nabla g = 0 makes G parallel and d_a r the trace
g^jk g^mi (nabla_a R)_ijkm, so
nabla C = nabla R - (dr / (n(n-1))) (x) G, and its tape loads the rows of
nabla R, G and g^-1 already evaluated for the same points. Numeric values
are stored as each tape's distinct rows, every point list is one
point-set record (see ``CurvatureBundle``), and a check reads one slot per
distinct combination of nodes (``CurvatureBundle._one_per_node``). No
exterior derivative, wedge or curvature-action field is built here:
``recurrence`` reads d of a 1-form from nabla's values and ``identities``
computes the action from values. Their symbolic routes are the tests'
references, in ``tests/reference.py``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expressions as ex
from .expressions import Expr, simplify, differentiate

__all__ = [
    "GeometryError",
    "SingularMetricError",
    "ResourceLimitError",
    "MetricChart",
    "TensorField",
    "CurvatureBundle",
    "christoffel_at",
    "curvature_bundle_at",
    "covariant_derivative_at",
    "metric_determinant",
]

EXCLUSION_MARGIN = 1e-3
DEGENERACY_FLOOR = 1e-12
COMPONENT_NODE_LIMIT = 2_000_000
# classify and verify_theorem alternate between the sample points and their
# admitted subset; values for older point sets are recomputed on demand
_POINT_SETS_KEPT = 2


class GeometryError(Exception):
    """Base class for chart and curvature pipeline errors."""


class SingularMetricError(GeometryError):
    """Metric determinant vanished (numerically) at an admitted point."""

    def __init__(self, chart_name: str, point: dict, det: float):
        coords = ", ".join(f"{k}={v:.6g}" for k, v in point.items())
        super().__init__(
            f"metric '{chart_name}' is degenerate at ({coords}): |det g| = {abs(det):.3e}"
        )
        self.point = dict(point)
        self.det = det


class ResourceLimitError(GeometryError):
    """A simplified component grew past the node budget."""

    def __init__(self, what: str, index: tuple, count: int):
        super().__init__(
            f"simplification blow-up in {what}{list(index)}: {count}+ distinct nodes"
        )
        self.what = what
        self.index = index


def _object_array(shape) -> np.ndarray:
    return np.empty(shape, dtype=object)


class _Key(tuple):
    """A field's interned component nodes, as the store keys it, hashed once."""

    def __new__(cls, nodes):
        self = super().__new__(cls, nodes)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


class _PointSet(tuple):
    """The caller's points as a tuple, with their (npoints, n) float64
    coordinate array, converted once: its bytes are the bundle store's key
    and its columns are what every tape run reads. ``sample_points``
    returns one, and a public call given a plain list converts it once
    (``CurvatureBundle._points``); every store read and tape run below
    reuses both. Keying by the bytes the tapes read, not by the values,
    keeps -0.0 and +0.0 apart, which compare equal but can give zeros of
    different sign.

    A record compares equal to a list or a tuple of the same points, as
    the list ``sample_points`` used to return did. ``subset`` makes the
    record of some of its points once per mask, so a fit's admitted points
    are one record however often they are read.
    """

    def __new__(cls, points, coordinates, coords=None):
        self = super().__new__(cls, points)
        self.coordinates = coordinates
        if coords is None:
            n = len(coordinates)
            # charts have n >= 2 coordinates, so itemgetter always gives tuples
            rows = itertools.chain.from_iterable(map(operator.itemgetter(*coordinates), self))
            coords = np.fromiter(rows, float, len(self) * n).reshape(len(self), n)
        self.key = coords.tobytes()
        self.columns = dict(zip(coordinates, coords.T))
        self._coords = coords
        self._subsets = {}
        return self

    def __eq__(self, other):
        return tuple.__eq__(self, tuple(other) if isinstance(other, list) else other)

    def __ne__(self, other):
        return not self == other

    def subset(self, mask: np.ndarray) -> "_PointSet":
        """The points where the boolean mask is set, as a record: this one
        when it keeps them all, else one made once per mask."""
        if mask.all():
            return self
        key = mask.tobytes()
        if key not in self._subsets:
            self._subsets[key] = _PointSet(
                itertools.compress(self, mask), self.coordinates, self._coords[mask]
            )
        return self._subsets[key]


class _CoreBlock(Mapping):
    """``values_at``'s result: the core tape's distinct rows, (rows,
    npoints), and per field the index of each component's row. Reading a
    field makes its full (npoints, *shape) array from them, each time;
    only the distinct rows are kept."""

    def __init__(self, rows: np.ndarray, layout: dict):
        self.rows = rows
        self.layout = layout  # name -> (row index per component, shape)

    def __getitem__(self, name) -> np.ndarray:
        index, shape = self.layout[name]
        return _expand(self.rows, index, shape)

    def __iter__(self):
        return iter(self.layout)

    def __len__(self) -> int:
        return len(self.layout)

    def part(self, start: int, stop: int) -> "_CoreBlock":
        """The same fields at the points start:stop, sharing these rows."""
        return _CoreBlock(self.rows[:, start:stop], self.layout)


def _expand(rows: np.ndarray, index: np.ndarray, shape: tuple) -> np.ndarray:
    """Full (npoints, *shape) values of the components whose distinct rows
    index picks, laid out as the tape's expanded rows were."""
    return rows[index].T.reshape((rows.shape[1],) + shape)


@dataclass(frozen=True)
class MetricChart:
    """A coordinate chart with a symbolic metric and a sampling box.

    ``metric`` is an (n, n) object array of expressions; it must be
    structurally symmetric after simplification. ``domain`` maps every
    coordinate to a (lo, hi) interval and ``exclusions`` lists expressions
    whose near-zero loci are rejected during sampling.
    """

    name: str
    coordinates: tuple
    metric: np.ndarray
    domain: dict
    exclusions: tuple = ()

    def __post_init__(self):
        n = len(self.coordinates)
        if n < 2:
            raise GeometryError(f"chart '{self.name}': need at least 2 coordinates, got {n}")
        if self.metric.shape != (n, n):
            raise GeometryError(
                f"chart '{self.name}': metric shape {self.metric.shape} != ({n}, {n})"
            )
        simplified = _object_array((n, n))
        for idx in np.ndindex(n, n):
            simplified[idx] = simplify(ex._coerce(self.metric[idx]))
        named = [(f"metric[{i}][{j}]", simplified[i, j]) for i, j in np.ndindex(n, n)]
        for what, e in named + [(f"exclusions[{k}]", e) for k, e in enumerate(self.exclusions)]:
            loose = ex.variables(e).difference(self.coordinates)
            if loose:
                raise GeometryError(
                    f"chart '{self.name}': {what} uses undeclared variable(s) {sorted(loose)}"
                )
        for i in range(n):
            for j in range(i + 1, n):
                if simplified[i, j] is not simplified[j, i]:
                    raise GeometryError(
                        f"chart '{self.name}': metric is not symmetric: entry [{i}][{j}] = "
                        f"{ex.to_string(simplified[i, j])!r} but [{j}][{i}] = "
                        f"{ex.to_string(simplified[j, i])!r}"
                    )
        object.__setattr__(self, "metric", simplified)
        missing = [c for c in self.coordinates if c not in self.domain]
        if missing:
            raise GeometryError(f"chart '{self.name}': no domain interval for {missing}")
        for c in self.coordinates:
            lo, hi = self.domain[c]
            if not lo < hi:
                raise GeometryError(f"chart '{self.name}': empty interval for '{c}'")
            # sampling draws uniform(lo, hi), which needs a finite width
            if not math.isfinite(hi - lo):
                raise GeometryError(
                    f"chart '{self.name}': interval for '{c}' is not finite: [{lo}, {hi}]"
                )

    @property
    def n(self) -> int:
        return len(self.coordinates)

    def sample_points(self, seed, count: int) -> _PointSet:
        """Draw `count` admitted points, uniform over the box, as one
        point-set record (a tuple of point dicts that equals the list of them).

        Points within EXCLUSION_MARGIN of an exclusion locus are rejected and
        redrawn; an admitted point with |det g| <= DEGENERACY_FLOOR raises
        SingularMetricError. All randomness flows from the given seed.

        Candidates are drawn in rounds of as many as are still missing, and
        each round's exclusions and determinant are evaluated as one block.
        A round whose block raises a floating-point error is decided point
        by point, through one tape per exclusion and one for the
        determinant, as `expressions.evaluate` would, so the points drawn,
        the points admitted and every error are those of testing each
        candidate in turn. Only after an error can a passed-in Generator
        have advanced further, by the rest of the failing round.
        """
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        tape = self._sampling_tape
        lo, hi = np.array([self.domain[c] for c in self.coordinates], dtype=float).T
        points = []
        kept = [np.empty((0, self.n))]  # the admitted rows of each round
        attempts = 0
        while len(points) < count:
            draws = min(count - len(points), 1000 * count - attempts)
            if draws == 0:
                raise GeometryError(
                    f"chart '{self.name}': sampling rejected too many points; "
                    "exclusion loci may fill the box"
                )
            attempts += draws
            # one draw per coordinate, candidate by candidate, in row-major
            # order: the scalars a uniform call per coordinate would draw
            drawn = rng.uniform(lo, hi, size=(draws, self.n))
            batch = [dict(zip(self.coordinates, row)) for row in drawn.tolist()]
            columns = dict(zip(self.coordinates, np.ascontiguousarray(drawn.T)))
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    values = tape.values(columns)
            except FloatingPointError:
                values = None
            else:
                excluded = np.any(np.abs(values[:-1]) < EXCLUSION_MARGIN, axis=0)
            taken = []
            for k, p in enumerate(batch):
                if values is None:
                    *exclusions, det = self._scalar_tapes
                    if any(abs(t.at(p)[0]) < EXCLUSION_MARGIN for t in exclusions):
                        continue
                    d = float(det.at(p)[0])
                elif excluded[k]:
                    continue
                else:
                    d = float(values[-1, k])
                if abs(d) <= DEGENERACY_FLOOR:
                    raise SingularMetricError(self.name, p, d)
                points.append(p)
                taken.append(k)
            kept.append(drawn[taken])
        return _PointSet(points, self.coordinates, np.concatenate(kept))

    @cached_property
    def _sampling_tape(self):
        """Tape of (*exclusions, det g), the values sample_points tests."""
        return ex._Tape((*self.exclusions, metric_determinant(self.metric)))

    @cached_property
    def _scalar_tapes(self):
        """One tape per root of _sampling_tape, for the point-by-point rounds."""
        return tuple(ex._Tape((e,)) for e in self._sampling_tape.roots)


@dataclass(frozen=True)
class TensorField:
    """All-lower-index tensor field: an object array of expressions.

    symmetry is a declared tag ("none", "symmetric-2", "antisymmetric-2",
    "riemann-like"). "riemann-like" means curvature-like in the last four
    slots: antisymmetric within each of the pairs (i1, i2) and (i3, i4) and
    symmetric under swapping the pairs. covariant_derivative_at reads that
    tag: it builds one component per orbit of those four slots, fills the
    rest by sign and keeps the tag on its result, so nabla R and nabla^2 R
    are reduced too (nabla C, built from nabla R, is reduced the same way).
    For any other tag it builds every component and tags the result "none".
    The other tags are descriptive only, and no tag decides whether a
    component is simplified. No tag is used to reduce by the first Bianchi
    identity, which the identity checks verify numerically.

    ``key``, the interned component nodes as a tuple hashed once, is the
    field's identity: the bundle keys its values, tape, loads and read plans
    by it. A field's values are read through ``CurvatureBundle.field_values``.
    """

    dim: int
    rank: int
    components: np.ndarray
    symmetry: str = "none"

    def __post_init__(self):
        expected = (self.dim,) * self.rank
        if self.components.shape != expected:
            raise GeometryError(
                f"tensor components shape {self.components.shape} != {expected}"
            )

    @cached_property
    def key(self) -> _Key:
        return _Key(self.components.ravel())


def metric_determinant(g: np.ndarray) -> Expr:
    """Symbolic determinant by minor expansion (dimensions here are small)."""
    every = tuple(range(g.shape[0]))
    return _minor(g, every, every, {})


def _minor(g: np.ndarray, rows: tuple, cols: tuple, memo: dict) -> Expr:
    """Determinant of g at these rows and columns, expanded along the first
    row. memo maps the index sets of each minor expanded so far to its node,
    for one caller: nodes are interned, so a minor met again is that node."""
    key = (rows, cols)
    if key not in memo:
        if len(rows) == 1:
            memo[key] = g[rows[0], cols[0]]
        else:
            total = ex.ZERO
            for k, col in enumerate(cols):
                term = ex.mul(g[rows[0], col], _minor(g, rows[1:], cols[:k] + cols[k + 1 :], memo))
                total = ex.add(total, term) if k % 2 == 0 else ex.sub(total, term)
            memo[key] = simplify(total)
    return memo[key]


def _inverse_metric(g: np.ndarray) -> np.ndarray:
    """Symbolic inverse via adjugate / determinant, built for i <= j; the
    determinant and the cofactors share their minors within this call."""
    every = tuple(range(g.shape[0]))
    memo: dict = {}
    det = _minor(g, every, every, memo)

    def build(idx):
        i, j = idx
        cof = _minor(g, every[:j] + every[j + 1 :], every[:i] + every[i + 1 :], memo)
        return simplify(ex.div(ex.neg(cof) if (i + j) % 2 else cof, det))

    return _fill((len(every),) * 2, build, _symmetric_pair)


def _guard(what: str, index: tuple, e: Expr, seen: set):
    """Refuse a component past COMPONENT_NODE_LIMIT distinct nodes. seen, the
    node ids of the components guarded so far, makes one walk of their union;
    only when the union passes the limit is a component counted on its own."""
    stack = [e]
    while stack and len(seen) <= COMPONENT_NODE_LIMIT:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack.extend(n.args)
    count = ex.node_count(e, COMPONENT_NODE_LIMIT) if len(seen) > COMPONENT_NODE_LIMIT else 0
    if count > COMPONENT_NODE_LIMIT:
        raise ResourceLimitError(what, index, count)


def _curvature_slot(idx: tuple):
    """Orbit of a slot under the symmetries of its last four indices.

    The last four indices are taken as a curvature-like tensor's: antisymmetric
    within each pair, symmetric under swapping the pairs. Returns
    (representative, sign), where the component at idx is sign times the one
    at the representative, or None where antisymmetry makes it vanish. The
    representative is the smallest index of its orbit in row-major order.
    """
    i, j, k, l = idx[-4:]
    if i == j or k == l:
        return None
    sign = 1
    if i > j:
        i, j, sign = j, i, -sign
    if k > l:
        k, l, sign = l, k, -sign
    if (i, j) > (k, l):
        i, j, k, l = k, l, i, j
    return idx[:-4] + (i, j, k, l), sign


def _symmetric_pair(idx: tuple):
    """Orbit of a slot under swapping its last two indices, as _curvature_slot."""
    return idx[:-2] + tuple(sorted(idx[-2:])), 1


def _antisymmetric_pair(idx: tuple):
    """Orbit of a slot under swapping its first two indices with a sign
    change, as _curvature_slot: None on the diagonal."""
    i, j = idx[:2]
    if i == j:
        return None
    return (idx, 1) if i < j else ((j, i) + idx[2:], -1)


def _fill(shape: tuple, build, slot=None) -> np.ndarray:
    """Object array of the given shape with build(idx) called once per orbit.

    slot maps an index to (representative, sign) or to None, as
    _curvature_slot does; without it every index is its own representative.
    A slot of sign +1 shares its representative's node, a slot of sign -1
    gets its negation and a None slot is ZERO. Representatives come first in
    row-major order, so each is built before its orbit reuses it.
    """
    out = _object_array(shape)
    for idx in np.ndindex(*shape):
        hit = (idx, 1) if slot is None else slot(idx)
        if hit is None:
            out[idx] = ex.ZERO
        elif hit[0] == idx:
            out[idx] = build(idx)
        else:
            rep, sign = hit
            out[idx] = out[rep] if sign > 0 else ex.neg(out[rep])
    return out


def christoffel_at(chart: MetricChart, inverse: np.ndarray | None = None) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij as an (n, n, n) object array [k, i, j]."""
    return _christoffel(chart, _inverse_metric(chart.metric) if inverse is None else inverse, set())


def _christoffel(chart: MetricChart, ginv: np.ndarray, seen: set) -> np.ndarray:
    n = chart.n
    g = chart.metric
    coords = chart.coordinates

    # dg[a, i, j] = d_a g_ij
    dg = _fill((n, n, n), lambda idx: differentiate(g[idx[1:]], coords[idx[0]]), _symmetric_pair)

    half = ex.const(1) / 2

    def build(idx):
        k, i, j = idx
        acc = ex.ZERO
        for l in range(n):
            inner = ex.add(dg[i, j, l], ex.sub(dg[j, i, l], dg[l, i, j]))
            acc = ex.add(acc, ex.mul(ginv[k, l], inner))
        out = simplify(ex.mul(half, acc))
        _guard("christoffel", idx, out, seen)
        return out

    # symmetric in the lower pair: build i <= j only
    return _fill((n, n, n), build, _symmetric_pair)


class CurvatureBundle:
    """Everything curvature-related for one chart, built symbolically once.

    Fields: inverse_metric, christoffel (Gamma^k_ij at [k,i,j]), riemann_13
    (R(d_i,d_j)d_k coefficient of d_l at [i,j,k,l]), riemann (0,4), ricci,
    scalar_curvature, gtensor (the curvature-like tensor of the metric),
    concircular. Each component is built once per symmetry orbit and the
    rest of its orbit shares that node or its negation: the inverse metric
    and Ricci are built for i <= j, Gamma for i <= j in its lower pair,
    riemann_13 for i < j, and riemann, gtensor and concircular (tagged
    "riemann-like") for one slot per orbit of the pair symmetries.
    riemann's quadratic part is g^ab Gamma_a,ki Gamma_b,mj, from the
    first-kind symbols Gamma_l,ij (built for i <= j, not kept, and not
    simplified on their own), so it has one det g denominator.
    Gamma, riemann, ricci, the scalar and gtensor are simplified;
    riemann_13 is raised from riemann by g^-1 and left unsimplified.
    concircular is its definition R - (r / (n(n-1))) G, unsimplified, and
    ZERO in dimension 2, where R = (r/2) G. The first Bianchi identity is
    not used to reduce R; it stays a numeric check. Ricci's symmetry, which follows from it, does
    reduce Ricci's build; simplify gives S_jk and S_kj as one node anyway.
    nabla R and nabla C are built on first use, reduced the same way but
    left unsimplified, and kept in ``_derived`` ("nabla_riemann",
    "nabla_concircular"), where ``recurrence`` keeps the forms it builds,
    each built once. nabla R is the covariant derivative of R; nabla C is
    nabla R - (dr / (n(n-1))) (x) G, read off nabla R's rows
    (``_build_nabla_concircular``), not a second derivative tape.

    Numeric results are kept per point set (``_cached``), and this store is
    the one place where results that several checks share live: the core
    block of ``values_at``, each field's values, and the per-point
    reductions and fits that ``identities`` and ``recurrence`` keep there.
    Only the two most recently used point sets are kept; evaluation is
    deterministic, so a point set evicted and asked for again gets the same
    values. An empty point list raises GeometryError.

    Each evaluated root set is compiled once into an evaluation tape
    (``expressions._Tape``), kept in ``_tapes`` under the same entry as its
    values: "core" for ``values_at`` and the field's ``key``, its node
    tuple, for ``field_values``. A new point set reruns the tape; the tapes
    live as long as the bundle. The store keeps what a run returns, the
    tape's distinct rows, never one row per component: on a sparse field
    most components share the ZERO row. ``field_values`` gathers the
    components a reader asks for through the tape's ``expand`` index,
    either all of them as the full (npoints, *shape) array that
    contractions and callers read, or the slots a check reads, one per
    distinct combination of nodes (``_one_per_node``); ``values_at`` makes
    a core field's full array when it is read. ``field_values`` reads g^-1,
    R, Ricci, G and C from the core block, so no other tape is compiled over
    them. A field may name, in ``_loads``, the fields its tape loads
    (``_declare_loads``): their
    components are loads of the tape, and every run reads the rows the
    tape reaches through ``field_values`` for the point set being run.

    A point list is one point-set record (``_PointSet``), whose store key,
    the bytes of its float64 coordinates, and coordinate columns are built
    once: ``MetricChart.sample_points`` returns one, a public call given a
    plain list converts it once (``_points``), and a fit's admitted points
    are one record, kept by the record they were taken from.
    """

    def __init__(self, chart: MetricChart):
        self.chart = chart
        n = chart.n
        coords = chart.coordinates
        g = chart.metric

        self.inverse_metric = _inverse_metric(g)
        seen: set = set()  # ids of the nodes guarded so far: Gamma's, then R's
        self.christoffel = _christoffel(chart, self.inverse_metric, seen)
        ginv = self.inverse_metric
        half = ex.const(1) / 2

        def dg(a, p, q):  # d_a g_pq
            return differentiate(g[p, q], coords[a])

        def ddg(a, b, p, q):  # d_a d_b g_pq
            return differentiate(dg(b, p, q), coords[a])

        def build_gamma1(idx):  # Gamma_l,ij = (d_i g_jl + d_j g_il - d_l g_ij) / 2
            l, i, j = idx
            return ex.mul(half, ex.sub(ex.add(dg(i, j, l), dg(j, i, l)), dg(l, i, j)))

        # first-kind symbols at [l, i, j]: no denominator, and left
        # unsimplified, being linear in dg; R's simplify absorbs them
        gamma1 = _fill((n, n, n), build_gamma1, _symmetric_pair)

        def build_riemann(idx):
            i, j, k, m = idx
            second = ex.sub(
                ex.add(ddg(k, i, m, j), ddg(m, j, k, i)),
                ex.add(ddg(k, j, m, i), ddg(m, i, k, j)),
            )
            quad = ex.esum(
                ex.mul(
                    ginv[a, b],
                    ex.sub(
                        ex.mul(gamma1[a, k, i], gamma1[b, m, j]),
                        ex.mul(gamma1[a, k, j], gamma1[b, m, i]),
                    ),
                )
                for a in range(n)
                for b in range(n)
            )
            out = simplify(ex.add(ex.mul(half, second), quad))
            _guard("riemann", idx, out, seen)
            return out

        riem = _fill((n,) * 4, build_riemann, _curvature_slot)
        self.riemann = TensorField(n, 4, riem, symmetry="riemann-like")

        def build_riemann_13(idx):
            i, j, k, l = idx
            return ex.esum(ex.mul(riem[i, j, k, m], ginv[m, l]) for m in range(n))

        riem13 = _fill((n,) * 4, build_riemann_13, _antisymmetric_pair)
        self.riemann_13 = riem13

        ric = _fill(
            (n, n),
            lambda idx: simplify(ex.esum(riem13[(i,) + idx + (i,)] for i in range(n))),
            _symmetric_pair,
        )
        self.ricci = TensorField(n, 2, ric, symmetry="symmetric-2")

        self.scalar_curvature = simplify(
            ex.esum(
                ex.mul(self.inverse_metric[j, k], ric[j, k])
                for j in range(n)
                for k in range(n)
            )
        )

        def build_gtensor(idx):
            i, j, k, l = idx
            return simplify(ex.sub(ex.mul(g[j, k], g[i, l]), ex.mul(g[i, k], g[j, l])))

        gt = _fill((n,) * 4, build_gtensor, _curvature_slot)
        self.gtensor = TensorField(n, 4, gt, symmetry="riemann-like")

        # C = R - (r / (n(n-1))) G, as defined; in dimension 2, R = (r/2) G,
        # so C is ZERO there, and where r is the ZERO node C is R
        scale = ex.div(self.scalar_curvature, ex.const(n * (n - 1)))
        conc = _fill(
            (n,) * 4,
            lambda idx: ex.ZERO if n == 2 else ex.sub(riem[idx], ex.mul(scale, gt[idx])),
            _curvature_slot,
        )
        self.concircular = TensorField(n, 4, conc, symmetry="riemann-like")
        # g^-1 as a field, so that a tape can load it from the core block
        self._inverse = TensorField(n, 2, self.inverse_metric, symmetry="symmetric-2")

        self._derived: dict = {}
        # point key -> {entry: values}, least recently used first
        self._blocks: OrderedDict = OrderedDict()
        # entry -> evaluation tape of its expressions, built on first use
        self._tapes: dict = {}
        # field key -> the fields its tape loads
        self._loads: dict = {}
        # field key -> the core block entry that holds its values
        self._core = {tf.key: name for name, tf in (
            ("inverse_metric", self._inverse), ("riemann", self.riemann),
            ("ricci", self.ricci), ("gtensor", self.gtensor),
            ("concircular", self.concircular))}

    @property
    def n(self) -> int:
        return self.chart.n

    # -- lazily built derived fields ----------------------------------------

    def _derive(self, key, build):
        """The symbolic field stored under key, built by build() on first use."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def nabla_riemann(self) -> TensorField:
        return self._derive(
            "nabla_riemann", lambda: covariant_derivative_at(self, self.riemann)
        )

    def nabla_concircular(self) -> TensorField:
        return self._derive("nabla_concircular", self._build_nabla_concircular)

    def _build_nabla_concircular(self) -> TensorField:
        """nabla C from nabla R's rows: nabla g = 0 makes G parallel and
        d_a r = g^jk g^mi (nabla_a R)_ijkm, so
        (nabla C)_a = (nabla R)_a - (d_a r / (n(n-1))) G.

        Built once per orbit of the last four slots, unsimplified; its tape
        loads nabla R, G and g^-1. Where C is ZERO node for node, so is
        nabla C; where r is the ZERO node, C is R and nabla C is nabla R
        itself, which no load of its own key may stand for.
        """
        n = self.n
        if all(c is ex.ZERO for c in self.concircular.key):
            zero = _object_array((n,) * 5)
            zero[:] = ex.ZERO
            return TensorField(n, 5, zero, symmetry="riemann-like")
        nabla_r = self.nabla_riemann()
        if self.scalar_curvature is ex.ZERO:
            return nabla_r
        ginv, nr, gt = self.inverse_metric, nabla_r.components, self.gtensor.components
        denom = ex.const(n * (n - 1))
        # rate[a] = d_a r / (n(n-1)), the factor of G in (nabla C)_a
        rate = [
            ex.div(ex.esum(
                ex.mul(ex.mul(ginv[j, k], ginv[m, i]), nr[a, i, j, k, m])
                for i, j, k, m in np.ndindex(n, n, n, n)
            ), denom)
            for a in range(n)
        ]
        out = _fill(
            (n,) * 5,
            lambda idx: ex.sub(nr[idx], ex.mul(rate[idx[0]], gt[idx[1:]])),
            _curvature_slot,
        )
        field = TensorField(n, 5, out, symmetry="riemann-like")
        self._declare_loads(field, (nabla_r, self.gtensor, self._inverse))
        return field

    def _one_per_node(self, reads: list) -> np.ndarray:
        """Positions that keep one of each distinct combination of nodes read.

        This is the one read plan of the checks over a field's components:
        the Bianchi sums, the recurrence gaps and the per-point maxima.
        reads is a list of (field, flat slots) pairs whose slot arrays have
        one length; position p reads the node at slots[p] of each field.
        Nodes are interned, so identity is structural equality and the nodes
        themselves key the combinations. Slots holding one node are one tape
        row, so positions with the same nodes read the same values, and a
        per-point maximum of absolute values over the kept positions is the
        one over all of them. Plans run over every slot: where each node
        read is ZERO, or ZERO times a factor such as lambda_a, the value is
        +-0 (tapes refuse non-finite values), so those positions keep one
        combination per distinct factor and move no maximum.
        """
        nodes = zip(*([tf.key[s] for s in slots.tolist()] for tf, slots in reads))
        first: dict = {}
        for position, combination in enumerate(nodes):
            first.setdefault(combination, position)
        return np.fromiter(first.values(), np.intp, len(first))

    # -- numeric evaluation, cached for the most recent point sets -----------

    def _points(self, points) -> _PointSet:
        """points as a point-set record of this chart, built unless it is one."""
        if isinstance(points, _PointSet) and points.coordinates is self.chart.coordinates:
            return points
        return _PointSet(points, self.chart.coordinates)

    def _cached(self, points: _PointSet, entry, compute):
        """Values stored under entry for this point set, from compute() on a miss.

        Using a point set makes it the most recent; a new point set evicts
        the least recently used one beyond the last _POINT_SETS_KEPT. Every
        numeric read goes through here, so an empty point list is refused
        here, with a GeometryError.
        """
        key = points.key
        if not key:
            raise GeometryError(f"chart '{self.chart.name}': the point list is empty")
        store = self._blocks.get(key)
        if store is None:
            store = self._blocks[key] = {}
            while len(self._blocks) > _POINT_SETS_KEPT:
                self._blocks.popitem(last=False)
        else:
            self._blocks.move_to_end(key)
        if entry not in store:
            store[entry] = compute()
        return store[entry]

    def _declare_loads(self, tf: TensorField, sources: tuple):
        """Let tf's tape load the components of the fields in sources instead
        of compiling them. The first declaration for tf's key stands, as the
        tape compiled from it does."""
        self._loads.setdefault(tf.key, sources)

    def _evaluate(self, entry, fields: dict, points: _PointSet) -> np.ndarray:
        """(distinct rows, npoints) values of fields, component arrays by
        name, through the tape kept under entry, whose ``expand`` gives each
        component's row; a non-finite value raises DomainError naming its
        field and component.

        The rows of the tape's loads are read through ``field_values`` for
        these points, so they are never another point set's; only the rows
        the tape reaches (``_Tape.reads``) are passed to it.
        """
        sources = self._loads.get(entry, ())
        tape = self._tapes.get(entry)
        if tape is None:
            exprs = [e for arr in fields.values() for e in arr.flat]
            tape = self._tapes[entry] = ex._Tape(exprs, [e for s in sources for e in s.key])
        reads, loaded, start = np.array(tape.reads, dtype=np.intp), [], 0
        for src in sources:
            size = len(src.key)
            picked = reads[(reads >= start) & (reads < start + size)] - start
            loaded.extend(self.field_values(src, points, picked).T)
            start += size
        try:
            return tape.run(points.columns, loaded)
        except ex.DomainError as e:  # its subexpression is the first failing row
            rows = [f"{name}{list(idx) if idx else ''}"
                    for name, arr in fields.items() for idx in np.ndindex(arr.shape)]
            e.args = (f"{rows[tape.roots.index(e.subexpression)]}: {e}",)
            raise

    def values_at(self, points) -> Mapping:
        """Numeric component arrays of the core fields at the given points.

        Returns a mapping with keys metric, inverse_metric, christoffel,
        riemann_13, riemann, ricci, scalar, gtensor, concircular; each value
        has a leading point axis and is made from the core tape's distinct
        rows when it is read (``_CoreBlock``).
        """
        points = self._points(points)
        return self._cached(points, "core", lambda: self._evaluate_core(points))

    def _evaluate_core(self, points) -> _CoreBlock:
        fields = {
            "metric": self.chart.metric,
            "inverse_metric": self.inverse_metric,
            "christoffel": self.christoffel,
            "riemann_13": self.riemann_13,
            "riemann": self.riemann.components,
            "ricci": self.ricci.components,
            "gtensor": self.gtensor.components,
            "concircular": self.concircular.components,
            "scalar": np.array(self.scalar_curvature, dtype=object),
        }
        rows = self._evaluate("core", fields, points)
        expand, layout, start = self._tapes["core"].expand, {}, 0
        for name, arr in fields.items():
            layout[name] = (expand[start : start + arr.size], arr.shape)
            start += arr.size
        return _CoreBlock(rows, layout)

    def field_values(self, tf: TensorField, points, slots=None) -> np.ndarray:
        """Numeric values of one field, (npoints, *shape), or with slots,
        (npoints, len(slots)) values at those flat component slots.

        The store keeps a field's distinct rows per (field key, point set),
        and each read gathers the components it asks for through the tape's
        ``expand`` index. g^-1, R, Ricci, G and C are read from the core
        block (``values_at``); any other field is run through its own tape.
        The key is the interned component nodes themselves, so two
        structurally different fields never collide.
        """
        points = self._points(points)
        core = self._core.get(tf.key)
        if core is not None:
            block = self.values_at(points)
            rows, index = block.rows, block.layout[core][0]
        else:
            rows = self._cached(points, tf.key, lambda: self._evaluate(
                tf.key, {"component": tf.components}, points))
            index = self._tapes[tf.key].expand
        if slots is None:
            return _expand(rows, index, tf.components.shape)
        return rows[index[slots]].T


def curvature_bundle_at(chart: MetricChart) -> CurvatureBundle:
    """Build the full symbolic curvature apparatus for a chart."""
    return CurvatureBundle(chart)


def covariant_derivative_at(bundle: CurvatureBundle, tensor: TensorField) -> TensorField:
    """Covariant derivative of an all-lower tensor field; new index first.

    A "riemann-like" input gives a "riemann-like" result built once per orbit
    of its last four slots, any other input a "none" result. Components are
    kept as built and never simplified. The chart metric's own nodes are the
    one exception: the Levi-Civita connection is metric compatible, so
    nabla g is ZERO in every slot, by that identity and not by simplifying.
    """
    n = bundle.n
    if tensor.dim != n:
        raise GeometryError(f"tensor dimension {tensor.dim} != chart dimension {n}")
    coords = bundle.chart.coordinates
    gamma = bundle.christoffel
    rank = tensor.rank
    comp = tensor.components
    g = bundle.chart.metric

    reduce = tensor.symmetry == "riemann-like"
    # nodes are interned, so this is structural equality with the metric
    metric = comp.shape == g.shape and all(map(operator.is_, comp.flat, g.flat))

    def build(full):
        if metric:
            return ex.ZERO
        a, idx = full[0], full[1:]
        acc = differentiate(comp[idx], coords[a])
        for s in range(rank):
            for m in range(n):
                swapped = idx[:s] + (m,) + idx[s + 1 :]
                acc = ex.sub(acc, ex.mul(gamma[m, a, idx[s]], comp[swapped]))
        return acc

    out = _fill((n,) * (rank + 1), build, _curvature_slot if reduce else None)
    return TensorField(n, rank + 1, out, symmetry=tensor.symmetry if reduce else "none")
