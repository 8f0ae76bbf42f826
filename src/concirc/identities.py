"""Residual checks for the universal curvature identities.

Every check shares one pass rule: at each sample point the identity's
residual (max absolute component of the contraction that should vanish)
is compared against ``tol * (1 + scale)``, where the scale is the same
contraction evaluated with every addend replaced by its absolute value.
Where the scale is well above 1 that makes the tolerance relative to the
amount of cancellation actually demanded; where it is below 1 the ``1 +``
dominates and the rule is an absolute bound of about ``tol``, so a chart
whose curvature is small everywhere is held to a looser relative standard
than one of unit curvature.  Every check, here and in ``recurrence`` (the
three links of its contraction chain included), builds its report through
``_report``; each cyclic sum is written once, in ``_cyclic``, and applied
to the values and to their absolute values alike.

Both Bianchi sums read their field, R or nabla R, through
``CurvatureBundle.field_values``, which serves R from the core block.  The
index triples of a sum come from its einsum specs applied to an arange of
flat indices (``_cycle``), so the additions are those of the full sum, in
the same order.  Of those triples one per distinct triple of nodes is
kept, worked out once per bundle (``CurvatureBundle._one_per_node``, which
says why the per-point maximum is then the full array's bit for bit), and
only the kept addends' slots are gathered from the field's stored
distinct rows.  The curvature action, a contraction, is planned by its
terms instead, as below.

The curvature action R(d_u, d_v) R is evaluated here numerically from the
already-evaluated curvature values, on index pairs: R(X,Y).R is a
symmetric form on 2-forms, so it is computed for u < v, w < x and y < z
only, every other slot being a mirror or an exact zero.  Walker's cyclic
sum is then a cyclic transpose of that pair array.  The scale keeps every
slot of the full contraction: where w = x the action cancels term by term
but its absolute-value contraction does not, so that diagonal is returned
alongside.  Which hook products R_13 x R can be non-zero is read off their
nodes once per bundle (``_ActionPlan``): a product with a ZERO node is +-0,
so a sparse plan multiplies only the others (2 of 2,304 on the pp-wave)
and forms each later step at the slots they reach, with the dense arrays'
addends in their order, so every maximum is the dense route's bit for
bit.  Where more than ``_DENSE_SHARE`` of the products are kept, the dense
einsum of ``_curvature_action`` is faster and the plan uses it.  Either
way the action is computed once per point set, over blocks of points whose
largest array holds at most ``_ACTION_VALUES`` values: every step is per
point, so the maxima are those of one action over all the points, while
the arrays stay bounded.  The bundle's store keeps only the per-point
maxima that Walker and semisymmetry report, the residual and scale of
each, never the action arrays themselves; ``recurrence``'s mu-structure
check forms the dense arrays with ``_curvature_action``, over point blocks
that ``_action_parts`` sizes for its hooks.  The symbolic
routes, by the derivation property and by the Ricci identity, stay the
reference implementation the tests compare against, in
``tests/reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expressions as ex
from .geometry import CurvatureBundle, GeometryError

__all__ = [
    "HypothesisError",
    "IdentityReport",
    "KernelReport",
    "check_walker_at",
    "check_bianchi_at",
    "check_semisymmetry_at",
    "walker_lemma_kernel",
    "random_curvature_like",
]

KERNEL_RANK_THRESHOLD = 1e-10
ZERO_TENSOR_FLOOR = 1e-10
# values in the largest array of one block of the curvature action: on a
# dense plan the hooks, points x N n n N values (N = n(n-1)/2 index pairs),
# on a sparse one the kept products or a later step's slots; every step is
# per point, so forming it block by block bounds a Walker check's memory
# whatever the point count
_ACTION_VALUES = 1 << 14
# share of the hook products kept above which the dense einsum forms the
# action: at 200 points the sparse route was the faster up to ~1/3 of them
# at n = 3 and ~0.17-0.2 at n = 4 and 5 (random masks of every share on
# random_perturbed_flat(1)); the random charts keep 59-83%
_DENSE_SHARE = 0.15


class HypothesisError(GeometryError):
    """A check was invoked on data violating its stated hypothesis."""


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity check over a set of sample points."""

    identity: str
    chart: str
    points: tuple
    residuals: np.ndarray
    scales: np.ndarray
    tol: float

    @property
    def passes(self) -> np.ndarray:
        return self.residuals <= self.tol * (1.0 + self.scales)

    @property
    def passed(self) -> bool:
        return bool(np.all(self.passes))

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if len(self.residuals) else 0.0

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.identity} on {self.chart}: max residual "
            f"{self.max_residual:.3e} over {len(self.points)} points [{verdict}]"
        )


@dataclass(frozen=True)
class KernelReport:
    """Kernel of the cyclic pairing map d -> sum_cyc d(.,.) B(.,.,.,.)."""

    dim: int
    kernel_dimension: int
    basis: np.ndarray
    singular_values: np.ndarray


def _per_point_max(arr: np.ndarray) -> np.ndarray:
    # collapse every axis except the leading point axis; |x| >= 0, so the
    # initial 0 changes no maximum and is the maximum of no slot at all
    return np.abs(arr).reshape(arr.shape[0], -1).max(axis=1, initial=0.0)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple:
    """The index pairs (i < j) of n indices, as np.triu_indices(n, 1) gives
    them; made once per n, as the action asks for them per block, and
    read-only, as every caller shares them."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _curvature_action(r13: np.ndarray, riemann: np.ndarray):
    """R(d_u, d_v) R on index pairs, with its cancellation scale, by one
    einsum over every hook product: a dense plan's route.

    With pairs P = (i < j) from ``_pairs``, returns (A, A_abs, diag):
    A[p, U, W, Q] = (R(d_u,d_v) R)(d_w,d_x,d_y,d_z) for U = (u,v),
    W = (w,x) and Q = (y,z) in P; A_abs the same contraction of absolute
    values; diag[p, U, Q, w] that absolute-value contraction at w = x,
    where the action itself cancels term by term.
    """
    i, j = _pairs(r13.shape[1])
    # a[p, U, w, m] is R(d_u, d_v) as a matrix; t[p, m, x, Q] is R(., ., d_y, d_z)
    a, t = r13[:, i, j], riemann[..., i, j]
    # the hook of R(d_u, d_v) into the first slot, at every (w, x)
    h = np.einsum("pUwm,pmxQ->pUwxQ", a, t)
    h_abs = np.einsum("pUwm,pmxQ->pUwxQ", np.abs(a), np.abs(t))
    # R is antisymmetric in its first pair, so the hooks into both of its
    # slots sum to h minus its (w, x) transpose; by pair symmetry the hooks
    # into the second pair are that sum with W and Q swapped
    f = (h - h.swapaxes(2, 3))[:, :, i, j]
    both_abs = h_abs + h_abs.swapaxes(2, 3)
    f_abs = both_abs[:, :, i, j]
    return (
        -(f + f.swapaxes(2, 3)),
        f_abs + f_abs.swapaxes(2, 3),
        both_abs.diagonal(axis1=2, axis2=3),
    )


def _report(identity: str, bundle: CurvatureBundle, points, total, scale, tol) -> IdentityReport:
    """The pass-rule report: per-point max of |total| against that of |scale|.

    A check that normalises its own residual passes those per-point values
    and a zero scale, and one whose scale spans several arrays passes its
    per-point maximum; _per_point_max returns a non-negative (npoints,)
    array unchanged.
    """
    return IdentityReport(
        identity=identity,
        chart=bundle.chart.name,
        points=tuple(points),
        residuals=_per_point_max(total),
        scales=_per_point_max(scale),
        tol=tol,
    )


def _cycle(shape: tuple, specs: tuple) -> tuple:
    """Flat index triples (i0, i1, i2) of a cyclic sum over arrays of the
    given component shape: slot i0 of the sum adds the components at i0, i1
    and i2. The two cyclic permutations are the einsum specs, applied to an
    arange of flat indices.
    """
    flat = np.arange(math.prod(shape)).reshape((1,) + shape)
    return (flat.ravel(), *(np.einsum(spec, flat).ravel() for spec in specs))


def _cycle_reads(bundle: CurvatureBundle, field, specs: tuple) -> tuple:
    """The index triples of field's cyclic sum (``_cycle``), one per
    distinct triple of nodes: such triples add the same values."""
    cycle = _cycle(field.components.shape, specs)
    keep = bundle._one_per_node([(field, i) for i in cycle])
    return tuple(i[keep] for i in cycle)


def _cyclic(arr: np.ndarray, triples: tuple) -> np.ndarray:
    """The cyclic sum of arr, flattened after its point axis, at the slots
    of triples (three index arrays or slices): the addends at i0 and i1
    first, then i2's."""
    i0, i1, i2 = triples
    flat = arr.reshape(len(arr), -1)
    total = flat[:, i0] + flat[:, i1]
    total += flat[:, i2]
    return total


def _live(nodes: np.ndarray) -> np.ndarray:
    """Which of an object array's nodes are not the ZERO node."""
    live = np.fromiter((e is not ex.ZERO for e in nodes.flat), bool, nodes.size)
    return live.reshape(nodes.shape)


def _step(present: np.ndarray, size: int, *addends) -> tuple:
    """(outputs, row maps) of one step of a sparse action.

    The step's input holds one row per slot of present, sorted flat slots
    in a space of the given size, then a row of zeros. addends holds one
    flat slot array per addend of the step, over its output slots. Outputs
    are the output slots where some addend is present; each map gives its
    addend's input row at those slots, the zero row where it is absent,
    and ends with the zero row, so the step's result ends in zeros too.
    """
    zero = len(present)
    row = np.full(size, zero)
    row[present] = np.arange(zero)
    maps = [row[slots] for slots in addends]
    outputs = np.flatnonzero(np.logical_or.reduce([m < zero for m in maps]))
    return outputs, tuple(np.append(m[outputs], zero) for m in maps)


class _ActionPlan:
    """Which hook products of the curvature action can be non-zero, worked
    out once per bundle from the nodes of R_13 and R (``_action_parts``).

    Term (U, w, m, x, Q) is the product a[U, w, m] t[m, x, Q] summed by
    ``_curvature_action``'s einsum. It is kept when both of its nodes,
    riemann_13[i_U, j_U, w, m] and riemann[m, x, i_Q, j_Q], are not ZERO:
    any other product is +-0, as tapes refuse non-finite values, and adding
    it moves no float. ``terms`` counts the kept terms, of ``total``. Where
    more than _DENSE_SHARE of them are kept, the plan is dense and each
    block is that einsum. Else it is sparse: the products of the kept terms
    are summed into the hooks h in m order, as the einsum sums them, and
    every later step (f = h - h^T on pairs, the action -(f + f^T), its
    cyclic sum, the w = x diagonal and its transpose) is formed only at the
    slots some kept term reaches, with the dense arrays' addends in their
    order (``_step``). A missing addend is an exact zero there, so every
    value, up to the sign of a zero, and every per-point maximum is the
    dense route's bit for bit.
    ``width`` is the number of values per point of a block's largest array.
    """

    def __init__(self, bundle: CurvatureBundle):
        self.n = n = bundle.n
        i, j = _pairs(n)
        pairs = len(i)
        a = _live(bundle.riemann_13)[i, j]  # [U, w, m]
        t = _live(bundle.riemann.components)[..., i, j]  # [m, x, Q]
        self.terms = int(a.sum(axis=(0, 1)) @ t.sum(axis=(1, 2)))
        self.total = pairs * n**3 * pairs
        self.sparse = self.terms <= _DENSE_SHARE * self.total
        cycle = _cycle((pairs,) * 3, ("pWQU->pUWQ", "pQUW->pUWQ"))
        if not self.sparse:
            self.cycle, self.width = cycle, self.total // n
            return

        def hook_slot(u, w, x, q):
            return ((u * n + w) * n + x) * pairs + q

        # the kept terms by hook slot (U, w, x, Q), then by m
        u, w, x, q, m = np.nonzero(a[:, :, None, None, :] & t.transpose(1, 2, 0))
        self.a = ((i[u] * n + j[u]) * n + w) * n + m  # slots of riemann_13
        self.t = ((m * n + x) * n + i[q]) * n + j[q]  # slots of riemann
        hook = hook_slot(u, w, x, q)  # sorted: np.nonzero runs in row-major order
        starts = np.diff(hook, prepend=-1) > 0
        first = np.flatnonzero(starts)  # each hook's first term
        self.hooks, row = hook[first], np.cumsum(starts) - 1
        # the k-th term of each hook is added in round k
        rank = np.arange(len(hook)) - first[row]
        self.rounds = [(row[rank == k], np.flatnonzero(rank == k))
                       for k in range(int(rank.max(initial=-1)) + 1)]

        hooks = pairs * n * n * pairs
        u, v, q = np.indices((pairs,) * 3).reshape(3, -1)  # (U, W, Q) slots
        space = len(u)
        fs, self.f = _step(self.hooks, hooks,
                           hook_slot(u, i[v], j[v], q), hook_slot(u, j[v], i[v], q))
        self.slots, self.acted = _step(fs, space, np.arange(space), (u * pairs + q) * pairs + v)
        _, self.cycle = _step(self.slots, space, *cycle)
        u, q, w = np.indices((pairs, pairs, n)).reshape(3, -1)  # (U, Q, w) slots
        self.diag_slots, (self.diag,) = _step(self.hooks, hooks, hook_slot(u, w, w, q))
        _, self.walker_diag = _step(self.diag_slots, len(u), np.arange(len(u)),
                                    (q * pairs + u) * n + w)
        # the products, then each step's rows; the hooks and the diagonal
        # have at most as many as the products
        self.width = max(len(self.a), *(len(step[0]) for step in (
            self.f, self.acted, self.cycle, self.walker_diag)))

    def _at_slots(self, part) -> tuple:
        """(acted, acted_abs, diag) of the points of a core block at this
        plan's slots, (npoints, slots + 1) each, the last column zero."""
        rows = part.rows
        prod = (rows[part.layout["riemann_13"][0][self.a]]
                * rows[part.layout["riemann"][0][self.t]])
        prod_abs = np.abs(prod)
        h = np.zeros((len(self.hooks) + 1, rows.shape[1]))
        h_abs = np.zeros_like(h)
        for dst, src in self.rounds:
            h[dst] += prod[src]
            h_abs[dst] += prod_abs[src]
        first, second = self.f
        f, f_abs = h[first] - h[second], h_abs[first] + h_abs[second]
        first, second = self.acted
        acted, acted_abs = -(f[first] + f[second]), f_abs[first] + f_abs[second]
        diag = h_abs[self.diag]
        return acted.T, acted_abs.T, (diag + diag).T

    def maxima(self, part) -> tuple:
        """Per-point (residual, scale) of Walker, then of semisymmetry, at
        the points of a core block."""
        if self.sparse:
            acted, acted_abs, diag = self._at_slots(part)
            first, second = self.walker_diag
            walker_diag = diag[:, first] + diag[:, second]
        else:
            acted, acted_abs, diag = _curvature_action(part["riemann_13"], part["riemann"])
            walker_diag = diag + diag.swapaxes(1, 2)
        # at w = x the cycle's (W, Q, U) term vanishes, scale and all; the
        # other two are diag and its U, Q transpose
        walker_scale = np.maximum(
            _per_point_max(_cyclic(acted_abs, self.cycle)), _per_point_max(walker_diag)
        )
        semi_scale = np.maximum(_per_point_max(acted_abs), _per_point_max(diag))
        return (_per_point_max(_cyclic(acted, self.cycle)), walker_scale,
                _per_point_max(acted), semi_scale)


def _action_parts(bundle: CurvatureBundle, block, count: int, width: int = 0) -> tuple:
    """The bundle's action plan, made on first use, and (points, block)
    pairs that split the count points of a core block so that the
    action's largest array, or one of width values per point, holds at
    most _ACTION_VALUES values per block."""
    plan = bundle._derive("action plan", lambda: _ActionPlan(bundle))
    size = max(1, _ACTION_VALUES // max(plan.width, width))
    return plan, [(slice(start, start + size), block.part(start, start + size))
                  for start in range(0, count, size)]


def _action_maxima(bundle: CurvatureBundle, points) -> dict:
    """Per-point (residual, scale) of Walker and of semisymmetry, from one
    curvature action per point set, kept in the bundle's store. Each value
    is a per-point one, so the maxima over blocks of points are those of
    one action over all points."""

    def compute():
        plan, parts = _action_parts(bundle, bundle.values_at(points), len(points))
        maxima = [plan.maxima(part) for _, part in parts]
        walker, walker_scale, semi, semi_scale = map(np.concatenate, zip(*maxima))
        return {"walker": (walker, walker_scale), "semisymmetry": (semi, semi_scale)}

    return bundle._cached(bundle._points(points), "action", compute)


def check_walker_at(bundle: CurvatureBundle, points, tol: float = 1e-8) -> IdentityReport:
    """Cyclic pair sum of the curvature action on R itself.

    (R(U,V)R)(W,X,Y,Z) + (R(W,X)R)(Y,Z,U,V) + (R(Y,Z)R)(U,V,W,X) vanishes
    on every pseudo-Riemannian manifold; this must pass on any valid chart.
    """
    residual, scale = _action_maxima(bundle, points)["walker"]
    return _report("walker", bundle, points, residual, scale, tol)


def check_bianchi_at(
    bundle: CurvatureBundle, kind: str, points, tol: float = 1e-8
) -> IdentityReport:
    """First or second Bianchi identity residuals at the sample points.

    first:  R(W,X,Y,Z) + R(X,Y,W,Z) + R(Y,W,X,Z) = 0.
    second: (nabla_A R)(W,X,Y,Z) + (nabla_W R)(X,A,Y,Z)
            + (nabla_X R)(A,W,Y,Z) = 0.
    """
    points = bundle._points(points)
    if kind == "first":
        field, specs = bundle.riemann, ("pxywz->pwxyz", "pywxz->pwxyz")
    elif kind == "second":
        field, specs = bundle.nabla_riemann(), ("pwxayz->pawxyz", "pxawyz->pawxyz")
    else:
        raise GeometryError(f"kind must be 'first' or 'second', got {kind!r}")
    cycle = bundle._derive(("cycle", field.key, specs), lambda: _cycle_reads(bundle, field, specs))
    # the three addends' slots, read side by side: addend t of kept triple s
    # is column t * k + s
    arr = bundle.field_values(field, points, np.concatenate(cycle))
    k = len(cycle[0])
    gathered = (slice(0, k), slice(k, 2 * k), slice(2 * k, 3 * k))
    total = _cyclic(arr, gathered)
    # arr is this call's own gather, so its absolute values may replace it
    scale = _cyclic(np.abs(arr, out=arr), gathered)
    return _report(f"bianchi-{kind}", bundle, points, total, scale, tol)


def check_semisymmetry_at(bundle: CurvatureBundle, points, tol: float = 1e-8) -> IdentityReport:
    """Max component of R(U,V).R over the points; a verdict, not a theorem.

    The action is computed on index pairs through the bundle's action plan
    (``_ActionPlan``), once per point set with Walker's; the symbolic
    ``curvature_action_from_second_derivative`` of ``tests/reference.py``
    is its reference.
    """
    residual, scale = _action_maxima(bundle, points)["semisymmetry"]
    return _report("semisymmetry", bundle, points, residual, scale, tol)


def _antisymmetric_basis(n: int) -> np.ndarray:
    """Basis e_(i,j) (i<j) of antisymmetric n x n arrays, shape (N, n, n)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    basis = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        basis[k, i, j] = 1.0
        basis[k, j, i] = -1.0
    return basis


def walker_lemma_kernel(dim: int, bvals: np.ndarray) -> KernelReport:
    """Kernel of d -> d(U,V)B(W,X,Y,Z) + d(W,X)B(Y,Z,U,V) + d(Y,Z)B(U,V,W,X).

    d ranges over antisymmetric 2-index arrays; B is a fixed rank-4 array
    with curvature-like pair structure.  For B != 0 the expected kernel is
    {0}: no nonzero antisymmetric form can pair with a nonzero curvature-like
    tensor to a vanishing cyclic sum.

    Rank is decided by singular values above 1e-10 times the largest one.
    Raises HypothesisError when B vanishes (the lemma assumes B != 0).
    """
    b = np.asarray(bvals, dtype=float)
    if b.shape != (dim,) * 4:
        raise GeometryError(f"B must have shape {(dim,) * 4}, got {b.shape}")
    bmax = float(np.max(np.abs(b)))
    if bmax <= ZERO_TENSOR_FLOOR:
        raise HypothesisError(
            "walker lemma assumes a nonvanishing tensor; max |B| = "
            f"{bmax:.3e} is below {ZERO_TENSOR_FLOOR:.0e}"
        )
    basis = _antisymmetric_basis(dim)
    images = (
        np.einsum("kuv,wxyz->kuvwxyz", basis, b)
        + np.einsum("kwx,yzuv->kuvwxyz", basis, b)
        + np.einsum("kyz,uvwx->kuvwxyz", basis, b)
    )
    matrix = images.reshape(len(basis), -1).T  # map matrix, columns = basis images
    _, s, vt = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.sum(s > KERNEL_RANK_THRESHOLD * s[0]))
    kdim = len(basis) - rank
    if kdim:
        kernel_vecs = vt[rank:]
        kernel_basis = np.einsum("qk,kuv->quv", kernel_vecs, basis)
    else:
        kernel_basis = np.zeros((0, dim, dim))
    return KernelReport(
        dim=dim,
        kernel_dimension=kdim,
        basis=kernel_basis,
        singular_values=s,
    )


def random_curvature_like(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random rank-4 array with the full algebraic curvature symmetries.

    Antisymmetric in each index pair, symmetric under pair swap, and with
    the cyclic (first Bianchi) part projected out.
    """
    t = rng.standard_normal((dim,) * 4)
    t = t - np.einsum("wxyz->xwyz", t)
    t = t - np.einsum("wxyz->wxzy", t)
    t = t + np.einsum("wxyz->yzwx", t)
    # remove the cyclic part; on pair-(anti)symmetric arrays the cyclic sum
    # operator satisfies c(c(t)) = 3 c(t), so t - c(t)/3 is Bianchi-flat
    cyc = t + np.einsum("wxyz->xywz", t) + np.einsum("wxyz->ywxz", t)
    return t - cyc / 3.0
