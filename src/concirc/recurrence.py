"""Recurrence-form fitting, derived 1-forms, and chart classification.

A tensor field T is recurrent when nabla T = lambda (x) T for a 1-form
lambda.  The fitting here is least squares per derivative slot:

    lambda_a = <nabla_a T, T> / <T, T>

with <.,.> the componentwise inner product over all n^rank entries.  The
quotient is built symbolically so that the closedness of lambda can later
be tested by symbolic differentiation; points where the target magnitude
falls below a relative zero threshold are excluded from the fit (a tensor
that is recurrent in the strict sense has no zeros).  lambda, mu and the
forms built from them are only ever evaluated, so none is simplified, as
nabla R and nabla C are not; where lambda is zero (R on a constant-curvature
chart) it evaluates to rounding noise rather than to an exact zero.  Every
field is read through ``CurvatureBundle.field_values``, which serves R, G
and C from the core block, never from a tape of their own.

Every symbolic form is built once per bundle and kept on it: lambda_R and
lambda_C, mu, and nabla omega of each 1-form omega the checks test, keyed
by the keys (``TensorField.key``) of the 1-forms they are built from.  d omega
and mu ^ lambda are formed from values, d omega as the antisymmetric part of
nabla omega; the symbolic d omega and mu ^ lambda, and a per-point
least-squares mu that cross-checks compute_mu, are the tests' references in
``tests/reference.py``.
lambda's tape loads the fields T and nabla T, whose rows it reads through
``field_values`` for the point set being run, so it compiles only the
quotient above them.  A fit's numbers are kept in the bundle's
per-point-set store under the keys of T and nabla T, so
verify_theorem reuses the C-fit of classify, and its R-fit where C is R
node for node.  verify_theorem calls those public functions, so it shares
their forms.  Every check, the three links of the projective-to-Einstein
contraction chain included, reports through the pass rule of
``identities._report``.

The fits, the extended recurrence residual, the magnitudes, the |R| scale
and classify's global maxima of R, G, C and nabla R take fields, never
their values, and read each field through ``CurvatureBundle.field_values``
at one slot (or combination of slots) per distinct combination of the
nodes read, worked out once per bundle (``CurvatureBundle._one_per_node``,
which says why each maximum is then the full array's bit for bit).  The
projective-to-Einstein chain is a contraction and keeps its full arrays;
the mu-structure display reads the curvature action through the bundle's
action plan, block by block, as Walker and semisymmetry do
(``identities._ActionPlan``).

The second recurrence form is mu = (dr - r lambda) / (n(n-1)); together
the pair (lambda, mu) turns concircular recurrence into the extended
condition nabla R = lambda (x) R + mu (x) G, and the implication chain
checked by verify_theorem says mu must vanish, lambda must be closed and
the manifold must be semisymmetric and plainly recurrent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .geometry import (
    CurvatureBundle,
    GeometryError,
    TensorField,
    covariant_derivative_at,
)
from .identities import (
    HypothesisError,
    IdentityReport,
    _action_parts,
    _curvature_action,
    _pairs,
    _per_point_max,
    _report,
    check_semisymmetry_at,
)

__all__ = [
    "ZERO_THRESHOLD",
    "VERDICTS",
    "RecurrenceFit",
    "MuForm",
    "Classification",
    "TheoremReport",
    "zero_one_form",
    "fit_recurrence_form",
    "compute_mu",
    "check_extended_recurrence",
    "check_lambda_closed",
    "check_mu_structure",
    "check_proj_einstein_chain",
    "ProjEinsteinReport",
    "classify",
    "verify_theorem",
]

ZERO_THRESHOLD = 1e-8
# tolerance of the checks that a 1-form vanishes or is closed (mu, d lambda)
FORM_TOL = 1e-10


def zero_one_form(n: int) -> TensorField:
    comps = np.empty((n,), dtype=object)
    comps[:] = ex.ZERO
    return TensorField(n, 1, comps, symmetry="none")


@dataclass(frozen=True)
class RecurrenceFit:
    """Least-squares recurrence form for one target tensor.

    points is the point-set record the fit ran on (``geometry._PointSet``,
    a tuple of point dicts); residuals is aligned with it and holds NaN at
    excluded points; magnitudes is the per-point max absolute target
    component. passes is residual <= tol at admitted points and False at
    excluded ones; recurrent, every point admitted and passing, is the
    one rule of a fit: classify and verify_theorem decide by it, and the
    fit command's summary passes exactly when it holds.
    """

    target: str
    chart: str
    lam: TensorField
    points: tuple
    magnitudes: np.ndarray
    admitted: np.ndarray
    residuals: np.ndarray
    tol: float

    @property
    def admitted_points(self) -> tuple:
        """The admitted points, as the one record of them that ``points``
        (a point-set record) keeps."""
        return self.points.subset(self.admitted)

    @property
    def excluded_count(self) -> int:
        return int(np.sum(~self.admitted))

    @property
    def max_residual(self) -> float:
        vals = self.residuals[self.admitted]
        return float(np.max(vals)) if len(vals) else float("nan")

    @property
    def passes(self) -> np.ndarray:
        return self.admitted & (self.residuals <= self.tol)

    @property
    def recurrent(self) -> bool:
        return bool(np.all(self.passes))

    def __str__(self) -> str:
        verdict = "pass" if self.recurrent else "FAIL"
        return (
            f"{self.target}-recurrence fit on {self.chart}: max residual "
            f"{self.max_residual:.3e}, {self.excluded_count} excluded [{verdict}]"
        )


@dataclass(frozen=True)
class MuForm:
    """mu = (dr - r lambda) / (n(n-1)) and dr; d mu is not built, but read
    from nabla mu's values by check_mu_structure."""

    mu: TensorField
    dscalar: TensorField


@dataclass(frozen=True)
class Classification:
    """Chart verdict plus the residuals that backed the decision."""

    chart: str
    verdict: str
    evidence: dict
    theorem_violation: bool = False

    def __str__(self) -> str:
        flag = "  [THEOREM VIOLATION]" if self.theorem_violation else ""
        return f"{self.chart}: {self.verdict}{flag}"


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of the main implication chain on one chart.

    When the concircular-recurrence hypothesis fails the report is a skip,
    not a failure; the theorem asserts nothing there.
    """

    chart: str
    skipped: bool
    reason: str | None
    c_fit: RecurrenceFit | None
    mu_check: IdentityReport | None
    recurrence_check: IdentityReport | None
    closed_check: IdentityReport | None
    semisymmetry_check: IdentityReport | None

    @property
    def checks(self) -> dict:
        return {
            "mu-vanishes": self.mu_check,
            "riemann-recurrence-same-form": self.recurrence_check,
            "lambda-closed": self.closed_check,
            "semisymmetry": self.semisymmetry_check,
        }

    @property
    def passed(self) -> bool:
        if self.skipped:
            return True
        return all(rep.passed for rep in self.checks.values())

    def __str__(self) -> str:
        if self.skipped:
            return f"theorem on {self.chart}: skipped ({self.reason})"
        verdict = "pass" if self.passed else "FAIL"
        parts = ", ".join(
            f"{name} {rep.max_residual:.2e}" for name, rep in self.checks.items()
        )
        return f"theorem on {self.chart}: {parts} [{verdict}]"


def _target_fields(bundle: CurvatureBundle, target: str):
    """(symbolic field, its covariant derivative) of a target."""
    if target == "R":
        return bundle.riemann, bundle.nabla_riemann()
    if target == "C":
        return bundle.concircular, bundle.nabla_concircular()
    raise GeometryError(f"target must be 'R' or 'C', got {target!r}")


def _form_key(name: str, *forms: TensorField) -> tuple:
    """Bundle key of a form built from the given fields: their keys, as
    ``CurvatureBundle.field_values`` keys its entries."""
    return (name,) + tuple(f.key for f in forms)


def _recurrence_form(bundle: CurvatureBundle, target: str) -> TensorField:
    """lambda_a = <nabla_a T, T> / <T, T>, built once per bundle and target.

    Its tape loads T's and nabla T's rows through ``field_values``, for
    the point set being run, instead of compiling them again.
    """

    def build():
        tensor, grad = _target_fields(bundle, target)
        comp = tensor.components
        gcomp = grad.components
        den = ex.esum(ex.mul(comp[idx], comp[idx]) for idx in np.ndindex(*comp.shape))
        if den is ex.ZERO:
            raise HypothesisError(
                f"target {target} vanishes identically on {bundle.chart.name}; "
                "no recurrence form exists"
            )
        lam_comps = np.empty((bundle.n,), dtype=object)
        for a in range(bundle.n):
            num = ex.esum(
                ex.mul(gcomp[(a,) + idx], comp[idx]) for idx in np.ndindex(*comp.shape)
            )
            lam_comps[a] = ex.div(num, den)
        lam = TensorField(bundle.n, 1, lam_comps, symmetry="none")
        bundle._declare_loads(lam, (tensor, grad))
        return lam

    return bundle._derive(f"lambda_{target}", build)


def _field_max(bundle: CurvatureBundle, field: TensorField, points) -> np.ndarray:
    """Per-point max |field| at the points, read at one slot per distinct
    node."""
    slots = bundle._derive(("max slots", field.key), lambda: bundle._one_per_node(
        [(field, np.arange(field.components.size))]))
    return _per_point_max(bundle.field_values(field, points, slots))


def _recurrence_gap(bundle: CurvatureBundle, grad: TensorField, points, terms: list) -> np.ndarray:
    """Per-point max |nabla T - omega (x) S - ...| at the points.

    terms is a sequence of (omega, S) fields, subtracted in turn as
    ``gv - einsum(...) - einsum(...)`` would, at one slot per distinct
    combination of the nodes read (``_gap_reads``).
    """
    key = ("gap", grad.key) + tuple((omega.key, field.key) for omega, field in terms)
    slots, a, s = bundle._derive(key, lambda: _gap_reads(bundle, grad, terms))
    diff = bundle.field_values(grad, points, slots)
    for omega, field in terms:
        product = bundle.field_values(omega, points, a) * bundle.field_values(field, points, s)
        diff = diff - product
    return _per_point_max(diff)


def _gap_reads(bundle: CurvatureBundle, grad: TensorField, terms: list) -> tuple:
    """(slots of nabla T, derivative index a, slots of S) that
    ``_recurrence_gap`` reads: one of nabla T's slots per distinct
    combination of the nodes read."""
    size = grad.components[0].size
    slots = np.arange(grad.components.size)
    a, s = np.divmod(slots, size)
    reads = [(grad, slots)] + [r for omega, field in terms for r in ((omega, a), (field, s))]
    keep = bundle._one_per_node(reads)
    return keep, a[keep], s[keep]


def _fit_values(
    bundle: CurvatureBundle, tensor: TensorField, grad: TensorField, lam: TensorField, points
):
    """(magnitudes, admitted, residuals) of the fit of nabla T = lambda (x) T;
    residuals are NaN where excluded. T's values at the admitted points come
    from their own core block, which lambda's loads evaluate anyway; the
    admitted points are one record, kept by the point set's record."""
    magnitudes = _field_max(bundle, tensor, points)
    zmax = float(np.max(magnitudes))
    # the zero threshold is relative to the largest target magnitude, but
    # never below the chart's own curvature scale 1 + max |G|: a target that
    # is pure cancellation noise (e.g. C on a constant-curvature chart) must
    # exclude every point rather than fit the noise
    g_scale = 1.0 + float(np.max(_field_max(bundle, bundle.gtensor, points)))
    admitted = magnitudes > ZERO_THRESHOLD * max(zmax, g_scale)
    residuals = np.full(len(points), np.nan)
    if np.any(admitted):
        gap = _recurrence_gap(bundle, grad, points.subset(admitted), [(lam, tensor)])
        residuals[admitted] = gap / (1.0 + magnitudes[admitted])
    return magnitudes, admitted, residuals


def fit_recurrence_form(
    bundle: CurvatureBundle, target: str, points, tol: float = 1e-8
) -> RecurrenceFit:
    """Fit nabla T = lambda (x) T for T = R or T = C.

    lambda is assembled symbolically as <nabla_a T, T> / <T, T> and kept on
    the bundle.  The fit residual at an admitted point is
    max |nabla_a T - lambda_a T| divided by 1 + max |T|.  Points whose
    target magnitude is below ZERO_THRESHOLD times the larger of the
    chart-wide target maximum and the curvature scale 1 + max |G| are
    excluded; if every point is excluded the recurrence hypothesis is empty
    and HypothesisError is raised.

    The magnitudes, admitted mask and residuals depend on the point set and
    on the nodes of T and nabla T alone (tol only decides ``passes``), so
    they are kept in the bundle's store under those nodes: a target whose
    fields are another's node for node (C = R where r vanishes identically)
    reuses that fit, and the fit returned names the target asked for and
    carries its own lambda.
    """
    points = bundle._points(points)
    bundle.values_at(points)  # an empty point list is refused before any build
    tensor, grad = _target_fields(bundle, target)
    lam = _recurrence_form(bundle, target)
    magnitudes, admitted, residuals = bundle._cached(
        points,
        _form_key("fit", tensor, grad),
        lambda: _fit_values(bundle, tensor, grad, lam, points),
    )
    if not np.any(admitted):
        raise HypothesisError(
            f"target {target} is numerically zero at every sample point of "
            f"{bundle.chart.name}; no recurrence form exists"
        )
    return RecurrenceFit(
        target=target,
        chart=bundle.chart.name,
        lam=lam,
        points=points,
        magnitudes=magnitudes,
        admitted=admitted,
        residuals=residuals,
        tol=tol,
    )


def compute_mu(bundle: CurvatureBundle, lam: TensorField) -> MuForm:
    """Second recurrence form mu = (dr - r lambda) / (n(n-1)), built once
    per bundle and lambda."""
    n = bundle.n
    if lam.rank != 1 or lam.dim != n:
        raise GeometryError("lambda must be a 1-form on the same chart")

    def build():
        r = bundle.scalar_curvature
        denom = ex.const(n * (n - 1))
        dr = np.empty((n,), dtype=object)
        mu = np.empty((n,), dtype=object)
        for a, name in enumerate(bundle.chart.coordinates):
            dr[a] = ex.differentiate(r, name)
            mu[a] = ex.div(ex.sub(dr[a], ex.mul(r, lam.components[a])), denom)
        return MuForm(
            mu=TensorField(n, 1, mu, symmetry="none"),
            dscalar=TensorField(n, 1, dr, symmetry="none"),
        )

    return bundle._derive(_form_key("mu", lam), build)


def check_extended_recurrence(
    bundle: CurvatureBundle,
    lam: TensorField,
    mu: TensorField,
    points,
    tol: float = 1e-8,
) -> IdentityReport:
    """Residual of nabla R - lambda (x) R - mu (x) G at the points.

    The residual is normalized by 1 + max |R| at each point, exactly like
    the fit residual, so with mu = 0 it coincides with the R-fit residual
    for the same lambda.  The report's scale field is therefore zero.  A mu
    whose every component is the exact ZERO adds no mu (x) G term: x - 0.0
    is x, and G is finite.
    """
    points = bundle._points(points)
    scale = 1.0 + _field_max(bundle, bundle.riemann, points)
    terms = [(lam, bundle.riemann)]
    if any(c is not ex.ZERO for c in mu.components.flat):
        terms.append((mu, bundle.gtensor))
    residuals = _recurrence_gap(bundle, bundle.nabla_riemann(), points, terms) / scale
    return _report("extended-recurrence", bundle, points, residuals, np.zeros(len(points)), tol)


def _nabla_values(bundle: CurvatureBundle, omega: TensorField, points):
    """Values of nabla omega, built once per bundle and 1-form omega, and of
    d omega, read from them as (nabla_i omega_j - nabla_j omega_i) / 2."""
    key = _form_key("nabla", omega)
    grad = bundle._derive(key, lambda: covariant_derivative_at(bundle, omega))
    gv = bundle.field_values(grad, points)
    return gv, 0.5 * (gv - np.einsum("pij->pji", gv))


def check_lambda_closed(
    bundle: CurvatureBundle, lam: TensorField, points, tol: float = FORM_TOL
) -> IdentityReport:
    """Residual of d lambda at the points.

    d lambda is read from the values of nabla lambda, the one derivative
    field built for lambda.  The scale is the symmetrized |nabla lambda|,
    i.e. how much cancellation d lambda = 0 actually demands.
    """
    gv, dv = _nabla_values(bundle, lam, points)
    gv = np.abs(gv)
    scale = 0.5 * (gv + np.einsum("pij->pji", gv))
    return _report("lambda-closed", bundle, points, dv, scale, tol)


def check_mu_structure(
    bundle: CurvatureBundle,
    lam: TensorField,
    mu: TensorField,
    points,
    tol: float = 1e-8,
) -> IdentityReport:
    """Residuals of d mu + mu ^ lambda and of its curvature-action form.

    Two contractions are tested at each point: the 2-form d mu + mu ^ lambda
    itself, and the display it reduces, R(U,V).R - 2 (d mu + mu ^ lambda)(U,V) G.
    Each is normalized by its own cancellation scale; the reported residual
    is the larger of the two (so the scale field is zero).  With mu = 0 the
    second contraction is exactly the semisymmetry check, and like it is
    compared on index pairs (u < v, w < x, y < z).  The action is the dense
    ``_curvature_action``, formed over blocks of points that ``_action_parts``
    sizes for its hooks, so memory stays bounded.  nabla mu is the one
    derivative field built for mu; d mu and mu ^ lambda come from values.
    """
    gradmu, dmu = _nabla_values(bundle, mu, points)
    muv, lamv = bundle.field_values(mu, points), bundle.field_values(lam, points)
    outer = np.einsum("pi,pj->pij", muv, lamv)
    fv = dmu + 0.5 * (outer - np.einsum("pij->pji", outer))
    bound = np.abs(gradmu) + np.abs(outer)
    scale1 = 0.5 * (bound + np.einsum("pij->pji", bound))
    res1 = _per_point_max(fv) / (1.0 + _per_point_max(scale1))

    vals = bundle.values_at(points)
    # on index pairs: the 2-form's N values and G's N x N pair matrix
    i, j = _pairs(bundle.n)
    form, gram = fv[:, i, j], vals["gtensor"][:, i, j][..., i, j]
    res2 = np.empty(len(points))
    # each block is the dense action, whose hooks hold N n n N values per point
    _, parts = _action_parts(bundle, vals, len(points), (len(i) * bundle.n) ** 2)
    for at, part in parts:
        acted, acted_abs, diag = _curvature_action(part["riemann_13"], part["riemann"])
        rhs = 2.0 * np.einsum("pU,pWQ->pUWQ", form[at], gram[at])
        rhs_abs = 2.0 * np.einsum("pU,pWQ->pUWQ", np.abs(form[at]), np.abs(gram[at]))
        # where w = x the right-hand side vanishes and the action's scale is diag
        scale2 = np.maximum(_per_point_max(acted_abs + rhs_abs), _per_point_max(diag))
        res2[at] = _per_point_max(acted - rhs) / (1.0 + scale2)
    residuals = np.maximum(res1, res2)
    return _report("mu-structure", bundle, points, residuals, np.zeros(len(points)), tol)


@dataclass(frozen=True)
class ProjEinsteinReport:
    """The contraction chain P -> Einstein -> constant curvature, one
    pass-rule report per link.

    P(U,X,Y,Z) = (n-1) R(U,X,Y,Z) + g(U,Y) S(X,Z) - g(U,Z) S(X,Y) is
    ``proj``; ``einstein`` is its literal -(1/n) g-trace over the (X,Z)
    pair, and ``constcurv`` the concircular tensor itself.
    """

    proj: IdentityReport
    einstein: IdentityReport
    constcurv: IdentityReport

    @property
    def chain_holds(self) -> bool:
        """Wherever P vanishes, Einstein and constant curvature must follow."""
        p = self.proj.passes
        return bool(np.all(~p | (self.einstein.passes & self.constcurv.passes)))


def check_proj_einstein_chain(
    bundle: CurvatureBundle, points, tol: float = 1e-8
) -> ProjEinsteinReport:
    """Evaluate the dimension >= 3 contraction chain at the points."""
    n = bundle.n
    if n < 3:
        raise GeometryError(
            "the projective-to-Einstein contraction chain needs dimension >= 3"
        )
    vals = bundle.values_at(points)
    gv, ginv = vals["metric"], vals["inverse_metric"]
    rv, sv = vals["riemann"], vals["ricci"]
    scal, gt, cv = vals["scalar"], vals["gtensor"], vals["concircular"]

    gs1 = np.einsum("puy,pxz->puxyz", gv, sv)
    gs2 = np.einsum("puz,pxy->puxyz", gv, sv)
    proj = (n - 1) * rv + gs1 - gs2
    proj_scale = (n - 1) * np.abs(rv) + np.abs(gs1) + np.abs(gs2)

    einstein = -np.einsum("pxz,puxyz->puy", ginv, proj) / n
    einstein_scale = np.abs(sv) + np.abs(scal)[:, None, None] * np.abs(gv) / n

    cc_scale = np.abs(rv) + (np.abs(scal) / (n * (n - 1)))[
        :, None, None, None, None
    ] * np.abs(gt)

    return ProjEinsteinReport(
        proj=_report("projective", bundle, points, proj, proj_scale, tol),
        einstein=_report("einstein", bundle, points, einstein, einstein_scale, tol),
        constcurv=_report("constant-curvature", bundle, points, cv, cc_scale, tol),
    )


VERDICTS = (
    "flat",
    "constant-curvature",
    "locally-symmetric",
    "recurrent",
    "concircularly-recurrent",
    "generic",
)


def classify(bundle: CurvatureBundle, points, tol: float = 1e-8) -> Classification:
    """First verdict that matches, in the fixed precedence order.

    flat, constant-curvature, locally-symmetric, recurrent,
    concircularly-recurrent, generic.  A concircularly-recurrent verdict
    that was not already caught by recurrent contradicts the main theorem
    and is flagged, not silently reported.
    """
    points = bundle._points(points)
    vals = bundle.values_at(points)
    n = bundle.n
    ev: dict = {}

    def global_max(field) -> float:
        return float(np.max(_field_max(bundle, field, points)))

    r_max = global_max(bundle.riemann)
    g_scale = global_max(bundle.gtensor)
    ev["riemann_max"] = r_max
    if r_max <= tol * (1.0 + g_scale):
        return Classification(bundle.chart.name, "flat", ev)

    if n >= 3:
        c_max = global_max(bundle.concircular)
        cc_scale = r_max + float(
            np.max(np.abs(vals["scalar"])) / (n * (n - 1)) * g_scale
        )
        ev["concircular_max"] = c_max
        if c_max <= tol * (1.0 + cc_scale):
            return Classification(bundle.chart.name, "constant-curvature", ev)
    else:
        scal = vals["scalar"]
        spread = float(np.max(np.abs(scal - scal.mean())))
        ev["scalar_spread"] = spread
        if spread <= tol * (1.0 + float(np.max(np.abs(scal)))):
            return Classification(bundle.chart.name, "constant-curvature", ev)

    nr_max = global_max(bundle.nabla_riemann())
    ev["nabla_riemann_max"] = nr_max
    if nr_max <= tol * (1.0 + r_max):
        return Classification(bundle.chart.name, "locally-symmetric", ev)

    try:
        rfit = fit_recurrence_form(bundle, "R", points, tol)
        ev["riemann_fit_residual"] = rfit.max_residual
        ev["riemann_fit_excluded"] = rfit.excluded_count
        if rfit.recurrent:
            return Classification(bundle.chart.name, "recurrent", ev)
    except HypothesisError:
        ev["riemann_fit_residual"] = float("nan")

    try:
        cfit = fit_recurrence_form(bundle, "C", points, tol)
        ev["concircular_fit_residual"] = cfit.max_residual
        ev["concircular_fit_excluded"] = cfit.excluded_count
        if cfit.recurrent:
            # forbidden by the main theorem: concircular recurrence without
            # plain recurrence; surfaced as a violation, not a verdict
            return Classification(
                bundle.chart.name,
                "concircularly-recurrent",
                ev,
                theorem_violation=True,
            )
    except HypothesisError:
        ev["concircular_fit_residual"] = float("nan")

    return Classification(bundle.chart.name, "generic", ev)


def verify_theorem(bundle: CurvatureBundle, points, tol: float = 1e-8) -> TheoremReport:
    """Check the implication chain on a chart satisfying the hypothesis.

    Hypothesis: the concircular tensor is recurrent (the C-fit admits and
    passes every point, ``RecurrenceFit.recurrent``, as in classify).
    Conclusion, checked at the same points: mu vanishes,
    nabla R = lambda (x) R with the same lambda, d lambda = 0, and the
    curvature action on R vanishes (semisymmetry).  mu = 0 and d lambda = 0
    are held to FORM_TOL, the rest to tol.  A chart that fails the
    hypothesis yields a skip.
    """
    name = bundle.chart.name
    points = bundle._points(points)
    try:
        cfit = fit_recurrence_form(bundle, "C", points, tol)
    except HypothesisError as e:
        return TheoremReport(name, True, str(e), None, None, None, None, None)
    if not cfit.recurrent:
        # the residuals of the admitted points, each within tol or not
        if cfit.max_residual <= tol:
            reason = (
                f"concircular recurrence fit admits {int(np.sum(cfit.admitted))} "
                f"of {len(points)} points; hypothesis not met"
            )
        else:
            reason = (
                f"concircular recurrence fit residual {cfit.max_residual:.3e} "
                f"exceeds {tol:.1e}; hypothesis not met"
            )
        return TheoremReport(name, True, reason, cfit, None, None, None, None)

    lam = cfit.lam
    mu_form = compute_mu(bundle, lam)

    n = bundle.n
    muv = bundle.field_values(mu_form.mu, points)
    drv = bundle.field_values(mu_form.dscalar, points)
    lamv = bundle.field_values(lam, points)
    rv = bundle.values_at(points)["scalar"]
    mu_scale = (
        _per_point_max(drv) + np.abs(rv) * _per_point_max(lamv)
    ) / (n * (n - 1))
    mu_check = _report("mu-vanishes", bundle, points, muv, mu_scale, FORM_TOL)

    recurrence_check = check_extended_recurrence(
        bundle, lam, zero_one_form(n), points, tol
    )
    closed_check = check_lambda_closed(bundle, lam, points)
    semi_check = check_semisymmetry_at(bundle, points, tol)
    return TheoremReport(
        chart=name,
        skipped=False,
        reason=None,
        c_fit=cfit,
        mu_check=mu_check,
        recurrence_check=recurrence_check,
        closed_check=closed_check,
        semisymmetry_check=semi_check,
    )
