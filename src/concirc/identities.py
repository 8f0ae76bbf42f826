"""Residual checks for the universal curvature identities.

Every check shares one pass rule: at each sample point the identity's
residual (max absolute component of the contraction that should vanish)
is compared against ``tol * (1 + scale)``, where the scale is the same
contraction evaluated with every addend replaced by its absolute value.
That makes the tolerance relative to the amount of cancellation actually
demanded, so charts with wildly different curvature magnitudes are judged
uniformly.  Every check, here and in ``recurrence`` (the three links of
its contraction chain included), builds its report through ``_report``;
each cyclic sum is written once, in ``_cyclic``, and applied to the values
and to their absolute values alike.

The curvature action R(d_u, d_v) R is evaluated here numerically from the
already-evaluated curvature arrays, on index pairs: R(X,Y).R is a
symmetric form on 2-forms, so it is computed for u < v, w < x and y < z
only, every other slot being a mirror or an exact zero.  Walker's cyclic
sum is then a cyclic transpose of that pair array.  The scale keeps every
slot of the full contraction: where w = x the action cancels term by term
but its absolute-value contraction does not, so that diagonal is returned
alongside.  The symbolic routes in ``geometry`` stay the reference
implementation, which the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    # collapse every axis except the leading point axis
    return np.abs(arr).reshape(arr.shape[0], -1).max(axis=1)


def _curvature_action(r13: np.ndarray, riemann: np.ndarray):
    """R(d_u, d_v) R on index pairs, with its cancellation scale.

    With pairs P = (i < j) from np.triu_indices, returns (A, A_abs, diag):
    A[p, U, W, Q] = (R(d_u,d_v) R)(d_w,d_x,d_y,d_z) for U = (u,v),
    W = (w,x) and Q = (y,z) in P; A_abs the same contraction of absolute
    values; diag[p, U, Q, w] that absolute-value contraction at w = x,
    where the action itself cancels term by term.
    """
    i, j = np.triu_indices(r13.shape[1], 1)
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


def _cyclic(arr: np.ndarray, specs: tuple) -> np.ndarray:
    """arr plus its two cyclic permutations, given as einsum specs."""
    first, second = specs
    # one expression, so numpy sums the second permutation into the first
    # sum's temporary instead of allocating another full array
    return arr + np.einsum(first, arr) + np.einsum(second, arr)


def check_walker_at(bundle: CurvatureBundle, points, tol: float = 1e-8) -> IdentityReport:
    """Cyclic pair sum of the curvature action on R itself.

    (R(U,V)R)(W,X,Y,Z) + (R(W,X)R)(Y,Z,U,V) + (R(Y,Z)R)(U,V,W,X) vanishes
    on every pseudo-Riemannian manifold; this must pass on any valid chart.
    """
    vals = bundle.values_at(points)
    acted, acted_abs, diag = _curvature_action(vals["riemann_13"], vals["riemann"])
    cycle = ("pWQU->pUWQ", "pQUW->pUWQ")
    # at w = x the cycle's (W, Q, U) term vanishes, scale and all; the
    # other two are diag and its U, Q transpose
    scale = np.maximum(
        _per_point_max(_cyclic(acted_abs, cycle)), _per_point_max(diag + diag.swapaxes(1, 2))
    )
    return _report("walker", bundle, points, _cyclic(acted, cycle), scale, tol)


def check_bianchi_at(
    bundle: CurvatureBundle, kind: str, points, tol: float = 1e-8
) -> IdentityReport:
    """First or second Bianchi identity residuals at the sample points.

    first:  R(W,X,Y,Z) + R(X,Y,W,Z) + R(Y,W,X,Z) = 0.
    second: (nabla_A R)(W,X,Y,Z) + (nabla_W R)(X,A,Y,Z)
            + (nabla_X R)(A,W,Y,Z) = 0.
    """
    if kind == "first":
        arr = bundle.values_at(points)["riemann"]
        cycle = ("pxywz->pwxyz", "pywxz->pwxyz")
    elif kind == "second":
        arr = bundle.field_values(bundle.nabla_riemann(), points)
        cycle = ("pwxayz->pawxyz", "pxawyz->pawxyz")
    else:
        raise GeometryError(f"kind must be 'first' or 'second', got {kind!r}")
    total, scale = _cyclic(arr, cycle), _cyclic(np.abs(arr), cycle)
    return _report(f"bianchi-{kind}", bundle, points, total, scale, tol)


def check_semisymmetry_at(bundle: CurvatureBundle, points, tol: float = 1e-8) -> IdentityReport:
    """Max component of R(U,V).R over the points; a verdict, not a theorem.

    The action is computed on index pairs by ``_curvature_action``; the
    symbolic ``geometry.curvature_action_from_second_derivative`` is its
    reference.
    """
    vals = bundle.values_at(points)
    acted, acted_abs, diag = _curvature_action(vals["riemann_13"], vals["riemann"])
    scale = np.maximum(_per_point_max(acted_abs), _per_point_max(diag))
    return _report("semisymmetry", bundle, points, acted, scale, tol)


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
