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

``simplify`` runs where a check or a test needs an exact symbolic zero: the
metric, its inverse, Gamma, R, Ricci, r, G and C (C vanishes identically in
dimension 2), nabla g (metric compatibility, the one exact zero a
covariant derivative owes) and the wedge. R is built from the metric's
second derivatives and the first-kind symbols
Gamma_l,ij = (1/2)(d_i g_jl + d_j g_il - d_l g_ij), which have no
denominator,
R[i,j,k,m] = (1/2)(d_k d_i g_mj + d_m d_j g_ki - d_k d_j g_mi - d_m d_i g_kj)
             + g^ab (Gamma_a,ki Gamma_b,mj - Gamma_a,kj Gamma_b,mi),
so each term of the quadratic part carries one det g denominator, not the
det g^2 of g_ef Gamma^e_ki Gamma^f_mj; riemann_13 is R with its last index
raised. riemann_13, every other covariant derivative (nabla R, nabla C,
nabla^2 R, nabla of a 1-form), the exterior derivative of a 1-form and the
curvature action are only ever evaluated or summed into a simplified
field, so they are kept as built: shared DAGs that cost less to build and
to evaluate than their simplified forms.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
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
    "curvature_action_at",
    "curvature_action_from_second_derivative",
    "exterior_derivative_one_form_at",
    "wedge_two_one_forms_at",
    "metric_determinant",
    "points_to_columns",
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


def points_to_columns(points, coordinates) -> dict:
    """Turn a list of point dicts into coordinate-name -> column-array."""
    return {c: np.array([float(p[c]) for p in points]) for c in coordinates}


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
        declared = frozenset(self.coordinates)
        for i in range(n):
            for j in range(n):
                g = simplify(ex._coerce(self.metric[i, j]))
                loose = ex.variables(g) - declared
                if loose:
                    raise GeometryError(
                        f"chart '{self.name}': metric[{i}][{j}] uses undeclared "
                        f"variable(s) {sorted(loose)}"
                    )
                simplified[i, j] = g
        for i in range(n):
            for j in range(i + 1, n):
                if simplified[i, j] is not simplified[j, i]:
                    raise GeometryError(
                        f"chart '{self.name}': metric is not symmetric at "
                        f"[{i}][{j}] vs [{j}][{i}]"
                    )
        object.__setattr__(self, "metric", simplified)
        missing = [c for c in self.coordinates if c not in self.domain]
        if missing:
            raise GeometryError(f"chart '{self.name}': no domain interval for {missing}")
        for c in self.coordinates:
            lo, hi = self.domain[c]
            if not lo < hi:
                raise GeometryError(f"chart '{self.name}': empty interval for '{c}'")

    @property
    def n(self) -> int:
        return len(self.coordinates)

    def sample_points(self, seed, count: int) -> list:
        """Draw `count` admitted points, uniform over the box.

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
        points = []
        attempts = 0
        while len(points) < count:
            draws = min(count - len(points), 1000 * count - attempts)
            if draws == 0:
                raise GeometryError(
                    f"chart '{self.name}': sampling rejected too many points; "
                    "exclusion loci may fill the box"
                )
            attempts += draws
            batch = [
                {
                    c: float(rng.uniform(self.domain[c][0], self.domain[c][1]))
                    for c in self.coordinates
                }
                for _ in range(draws)
            ]
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    values = tape.values(points_to_columns(batch, self.coordinates))
            except (FloatingPointError, KeyError):  # KeyError: a non-coordinate variable
                values = None
            else:
                excluded = np.any(np.abs(values[:-1]) < EXCLUSION_MARGIN, axis=0)
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
        return points

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
    symmetric under swapping the pairs. covariant_derivative_at and
    curvature_action_at read that tag: they build one component per orbit
    of those four slots, fill the rest by sign and keep the tag on their
    result, so nabla R, nabla C and nabla^2 R are reduced too. For any other
    tag they build every component and tag the result "none". The other
    tags are descriptive only, and no tag decides whether a component is
    simplified. No tag is used to reduce by the first Bianchi identity,
    which the identity checks verify numerically.
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

    def evaluate(self, point: dict) -> np.ndarray:
        """Values at one point: one checked tape run over all components
        (`expressions._Tape.at`), so shared subexpressions are read once and
        a DomainError names the first non-finite subexpression."""
        return ex._Tape(self.components.ravel()).at(point).reshape(self.components.shape)

    def evaluate_block(self, points) -> np.ndarray:
        """Evaluate at many points at once; returns shape (npoints, dim^rank...)."""
        points = list(points)
        if not points:
            return np.zeros((0,) + self.components.shape)
        # all point coordinates, not just the ones appearing in components,
        # so constant fields still broadcast to the right number of rows
        columns = points_to_columns(points, sorted(points[0]))
        rows = ex.evaluate_block(list(self.components.ravel()), columns)
        return rows.T.reshape((len(points),) + self.components.shape)


def metric_determinant(g: np.ndarray) -> Expr:
    """Symbolic determinant by minor expansion (dimensions here are small)."""
    n = g.shape[0]
    if n == 1:
        return g[0, 0]
    total = ex.ZERO
    for j in range(n):
        minor = np.delete(np.delete(g, 0, axis=0), j, axis=1)
        term = ex.mul(g[0, j], metric_determinant(minor))
        total = ex.add(total, term) if j % 2 == 0 else ex.sub(total, term)
    return simplify(total)


def _inverse_metric(g: np.ndarray) -> np.ndarray:
    """Symbolic inverse via adjugate / determinant, built for i <= j."""
    n = g.shape[0]
    det = metric_determinant(g)

    def build(idx):
        i, j = idx
        cof = metric_determinant(np.delete(np.delete(g, j, axis=0), i, axis=1))
        return simplify(ex.div(ex.neg(cof) if (i + j) % 2 else cof, det))

    return _fill((n, n), build, _symmetric_pair)


def _guard(what: str, index: tuple, e: Expr):
    count = ex.node_count(e, COMPONENT_NODE_LIMIT)
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
    n = chart.n
    g = chart.metric
    ginv = _inverse_metric(g) if inverse is None else inverse
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
        _guard("christoffel", idx, out)
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
    Gamma, riemann, ricci, the scalar, gtensor and concircular are
    simplified; riemann_13 is raised from riemann by g^-1 and left
    unsimplified. The first Bianchi identity is not used to reduce R; it
    stays a numeric check. Ricci's symmetry, which follows from it, does
    reduce Ricci's build; simplify gives S_jk and S_kj as one node anyway.
    nabla R and nabla C are built on first use, reduced the same way but
    left unsimplified, and kept in ``_derived`` ("nabla_riemann",
    "nabla_concircular"), where ``recurrence`` keeps the forms it builds,
    each built once.

    Numeric values are kept per point set: the core block of ``values_at``
    and each ``field_values`` result. Only the two most recently used point
    sets are kept; evaluation is deterministic, so a point set evicted and
    asked for again gets the same values. An empty point list raises
    GeometryError.

    Each evaluated root set is compiled once into an evaluation tape
    (``expressions._Tape``), kept in ``_tapes`` under the same entry as its
    values: "core" for ``values_at`` and the component tuple for
    ``field_values``. A new point set reruns the tape; the tapes live as
    long as the bundle. R, G and C are read from the core block, so no
    other tape is compiled over them.
    """

    def __init__(self, chart: MetricChart):
        self.chart = chart
        n = chart.n
        coords = chart.coordinates
        g = chart.metric

        self.inverse_metric = _inverse_metric(g)
        self.christoffel = christoffel_at(chart, self.inverse_metric)
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
            _guard("riemann", idx, out)
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

        scale = ex.div(self.scalar_curvature, ex.const(n * (n - 1)))
        conc = _fill(
            (n,) * 4,
            lambda idx: simplify(ex.sub(riem[idx], ex.mul(scale, gt[idx]))),
            _curvature_slot,
        )
        self.concircular = TensorField(n, 4, conc, symmetry="riemann-like")

        self._derived: dict = {}
        # point key -> {entry: values}, least recently used first
        self._blocks: OrderedDict = OrderedDict()
        # entry -> evaluation tape of its expressions, built on first use
        self._tapes: dict = {}

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
        return self._derive(
            "nabla_concircular", lambda: covariant_derivative_at(self, self.concircular)
        )

    # -- numeric evaluation, cached for the most recent point sets -----------

    def _point_key(self, points) -> tuple:
        # charts have n >= 2 coordinates, so itemgetter always gives tuples
        return tuple(map(operator.itemgetter(*self.chart.coordinates), points))

    def _cached(self, points, entry, compute):
        """Values stored under entry for this point set, from compute() on a miss.

        Using a point set makes it the most recent; a new point set evicts
        the least recently used one beyond the last _POINT_SETS_KEPT. Every
        numeric read goes through here, so an empty point list is refused
        here, with a GeometryError.
        """
        key = self._point_key(points)
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

    def _evaluate(self, entry, exprs, points) -> np.ndarray:
        """(len(exprs), npoints) values, through the tape kept under entry."""
        tape = self._tapes.get(entry)
        if tape is None:
            tape = self._tapes[entry] = ex._Tape(exprs)
        return tape.run(points_to_columns(points, self.chart.coordinates))

    def values_at(self, points) -> dict:
        """Numeric component arrays of the core fields at the given points.

        Returns a dict with keys metric, inverse_metric, christoffel,
        riemann_13, riemann, ricci, scalar, gtensor, concircular; each value
        has a leading point axis.
        """
        return self._cached(points, "core", lambda: self._evaluate_core(points))

    def _evaluate_core(self, points) -> dict:
        named = {
            "metric": self.chart.metric,
            "inverse_metric": self.inverse_metric,
            "christoffel": self.christoffel,
            "riemann_13": self.riemann_13,
            "riemann": self.riemann.components,
            "ricci": self.ricci.components,
            "gtensor": self.gtensor.components,
            "concircular": self.concircular.components,
        }
        exprs = [self.scalar_curvature]
        spans = []
        for name, arr in named.items():
            flat = list(arr.ravel())
            spans.append((name, len(exprs), len(flat), arr.shape))
            exprs.extend(flat)
        block = self._evaluate("core", exprs, points).T  # (npts, nexprs)
        out = {"scalar": block[:, 0]}
        for name, start, size, shape in spans:
            out[name] = block[:, start : start + size].reshape((len(points),) + shape)
        return out

    def field_values(self, tf: TensorField, points) -> np.ndarray:
        """Numeric values of one derived field, cached per (field, point set).

        The cache entry is keyed on the interned component nodes themselves,
        so two structurally different fields never collide.
        """
        entry = tuple(tf.components.ravel())

        def compute():
            rows = self._evaluate(entry, entry, points)
            return rows.T.reshape((len(points),) + tf.components.shape)

        return self._cached(points, entry, compute)


def curvature_bundle_at(chart: MetricChart) -> CurvatureBundle:
    """Build the full symbolic curvature apparatus for a chart."""
    return CurvatureBundle(chart)


def covariant_derivative_at(bundle: CurvatureBundle, tensor: TensorField) -> TensorField:
    """Covariant derivative of an all-lower tensor field; new index first.

    A "riemann-like" input gives a "riemann-like" result built once per orbit
    of its last four slots, any other input a "none" result. Components are
    kept as built, except for the chart metric's own nodes: metric
    compatibility makes nabla g an exact zero, so those are simplified.
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
        a, idx = full[0], full[1:]
        acc = differentiate(comp[idx], coords[a])
        for s in range(rank):
            for m in range(n):
                swapped = idx[:s] + (m,) + idx[s + 1 :]
                acc = ex.sub(acc, ex.mul(gamma[m, a, idx[s]], comp[swapped]))
        return simplify(acc) if metric else acc

    out = _fill((n,) * (rank + 1), build, _curvature_slot if reduce else None)
    return TensorField(n, rank + 1, out, symmetry=tensor.symmetry if reduce else "none")


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
