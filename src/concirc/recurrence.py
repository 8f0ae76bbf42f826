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
chart) it evaluates to rounding noise rather than to an exact zero.  R, G
and C are read from the bundle's core block (``values_at``), never from a
tape of their own.

Every symbolic form is built once per bundle and kept on it: lambda_R and
lambda_C, and the inputs that compute_mu, check_lambda_closed and
check_mu_structure build, keyed by the interned component nodes of the
1-forms they are built from; mu ^ lambda is formed from values, not built.
verify_theorem calls those public functions, so it shares their forms.
Every check, the three links of the projective-to-Einstein contraction
chain included, reports through the pass rule of ``identities._report``.

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
from .expressions import Expr
from .geometry import (
    CurvatureBundle,
    GeometryError,
    TensorField,
    covariant_derivative_at,
    exterior_derivative_one_form_at,
)
from .identities import (
    HypothesisError,
    IdentityReport,
    _curvature_action,
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
    "fit_mu_pointwise",
    "check_extended_recurrence",
    "check_lambda_closed",
    "check_mu_structure",
    "check_proj_einstein_chain",
    "ProjEinsteinReport",
    "classify",
    "verify_theorem",
]

ZERO_THRESHOLD = 1e-8


def zero_one_form(n: int) -> TensorField:
    comps = np.empty((n,), dtype=object)
    comps[:] = ex.ZERO
    return TensorField(n, 1, comps, symmetry="none")


@dataclass(frozen=True)
class RecurrenceFit:
    """Least-squares recurrence form for one target tensor.

    residuals is aligned with points and holds NaN at excluded points;
    magnitudes is the per-point max absolute target component. passes is
    residual <= tol at admitted points and False at excluded ones.
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
        return tuple(p for p, ok in zip(self.points, self.admitted) if ok)

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
    def passed(self) -> bool:
        return bool(np.any(self.admitted) and np.all(self.passes[self.admitted]))

    def __str__(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.target}-recurrence fit on {self.chart}: max residual "
            f"{self.max_residual:.3e}, {self.excluded_count} excluded [{verdict}]"
        )


@dataclass(frozen=True)
class MuForm:
    """mu = (dr - r lambda) / (n(n-1)) together with its inputs."""

    mu: TensorField
    scalar: Expr
    dscalar: TensorField
    lam: TensorField


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
    """(core block name, symbolic field, its covariant derivative) of a target."""
    if target == "R":
        return "riemann", bundle.riemann, bundle.nabla_riemann()
    if target == "C":
        return "concircular", bundle.concircular, bundle.nabla_concircular()
    raise GeometryError(f"target must be 'R' or 'C', got {target!r}")


def _form_key(name: str, *forms: TensorField) -> tuple:
    """Bundle key of a form built from the given fields: their interned
    component nodes, as ``CurvatureBundle.field_values`` keys its entries."""
    return (name,) + tuple(tuple(f.components.ravel()) for f in forms)


def _recurrence_form(bundle: CurvatureBundle, target: str) -> TensorField:
    """lambda_a = <nabla_a T, T> / <T, T>, built once per bundle and target."""

    def build():
        _, tensor, grad = _target_fields(bundle, target)
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
        return TensorField(bundle.n, 1, lam_comps, symmetry="none")

    return bundle._derive(f"lambda_{target}", build)


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
    """
    vals = bundle.values_at(points)
    name, _, grad = _target_fields(bundle, target)
    lam = _recurrence_form(bundle, target)

    tv = vals[name]
    magnitudes = _per_point_max(tv)
    zmax = float(np.max(magnitudes))
    # the zero threshold is relative to the largest target magnitude, but
    # never below the chart's own curvature scale 1 + max |G|: a target that
    # is pure cancellation noise (e.g. C on a constant-curvature chart) must
    # exclude every point rather than fit the noise
    g_scale = 1.0 + float(np.max(np.abs(vals["gtensor"])))
    admitted = magnitudes > ZERO_THRESHOLD * max(zmax, g_scale)
    if not np.any(admitted):
        raise HypothesisError(
            f"target {target} is numerically zero at every sample point of "
            f"{bundle.chart.name}; no recurrence form exists"
        )

    adm_pts = tuple(p for p, ok in zip(points, admitted) if ok)
    gv = bundle.field_values(grad, adm_pts)
    tva = tv[admitted]
    lamv = bundle.field_values(lam, adm_pts)
    diff = gv - np.einsum("pa,p...->pa...", lamv, tva)
    res_adm = _per_point_max(diff) / (1.0 + magnitudes[admitted])
    residuals = np.full(len(points), np.nan)
    residuals[admitted] = res_adm
    return RecurrenceFit(
        target=target,
        chart=bundle.chart.name,
        lam=lam,
        points=tuple(points),
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
            scalar=r,
            dscalar=TensorField(n, 1, dr, symmetry="none"),
            lam=lam,
        )

    return bundle._derive(_form_key("mu", lam), build)


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
    for the same lambda.  The report's scale field is therefore zero.
    """
    vals = bundle.values_at(points)
    rv, gv = vals["riemann"], vals["gtensor"]
    nr = bundle.field_values(bundle.nabla_riemann(), points)
    lamv = bundle.field_values(lam, points)
    muv = bundle.field_values(mu, points)
    diff = (
        nr
        - np.einsum("pa,pwxyz->pawxyz", lamv, rv)
        - np.einsum("pa,pwxyz->pawxyz", muv, gv)
    )
    residuals = _per_point_max(diff) / (1.0 + _per_point_max(rv))
    return _report("extended-recurrence", bundle, points, residuals, np.zeros(len(points)), tol)


def check_lambda_closed(
    bundle: CurvatureBundle, lam: TensorField, points, tol: float = 1e-10
) -> IdentityReport:
    """Residual of d lambda at the points.

    The scale is the antisymmetrized covariant derivative with absolute
    values, i.e. how much cancellation d lambda = 0 actually demands.
    nabla lambda and d lambda are built once per bundle and lambda.
    """

    def build():
        return covariant_derivative_at(bundle, lam), exterior_derivative_one_form_at(bundle, lam)

    grad, dlam = bundle._derive(_form_key("closedness", lam), build)
    dv = bundle.field_values(dlam, points)
    gv = np.abs(bundle.field_values(grad, points))
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
    compared on index pairs (u < v, w < x, y < z).  d mu and nabla mu are
    built once per bundle and mu; mu ^ lambda is formed from their values.
    """

    def build():
        return exterior_derivative_one_form_at(bundle, mu), covariant_derivative_at(bundle, mu)

    dmu, gradmu = bundle._derive(_form_key("mu-structure", mu), build)
    muv, lamv = bundle.field_values(mu, points), bundle.field_values(lam, points)
    outer = np.einsum("pi,pj->pij", muv, lamv)
    fv = bundle.field_values(dmu, points) + 0.5 * (outer - np.einsum("pij->pji", outer))
    bound = np.abs(bundle.field_values(gradmu, points)) + np.abs(outer)
    scale1 = 0.5 * (bound + np.einsum("pij->pji", bound))
    res1 = _per_point_max(fv) / (1.0 + _per_point_max(scale1))

    vals = bundle.values_at(points)
    acted, acted_abs, diag = _curvature_action(vals["riemann_13"], vals["riemann"])
    # on index pairs: the 2-form's N values and G's N x N pair matrix
    i, j = np.triu_indices(bundle.n, 1)
    form, gram = fv[:, i, j], vals["gtensor"][:, i, j][..., i, j]
    rhs = 2.0 * np.einsum("pU,pWQ->pUWQ", form, gram)
    rhs_abs = 2.0 * np.einsum("pU,pWQ->pUWQ", np.abs(form), np.abs(gram))
    # where w = x the right-hand side vanishes and the action's scale is diag
    scale2 = np.maximum(_per_point_max(acted_abs + rhs_abs), _per_point_max(diag))
    res2 = _per_point_max(acted - rhs) / (1.0 + scale2)
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
    vals = bundle.values_at(points)
    n = bundle.n
    ev: dict = {}

    r_max = float(np.max(np.abs(vals["riemann"])))
    g_scale = float(np.max(np.abs(vals["gtensor"])))
    ev["riemann_max"] = r_max
    if r_max <= tol * (1.0 + g_scale):
        return Classification(bundle.chart.name, "flat", ev)

    if n >= 3:
        c_max = float(np.max(np.abs(vals["concircular"])))
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

    nr_max = float(np.max(np.abs(bundle.field_values(bundle.nabla_riemann(), points))))
    ev["nabla_riemann_max"] = nr_max
    if nr_max <= tol * (1.0 + r_max):
        return Classification(bundle.chart.name, "locally-symmetric", ev)

    try:
        rfit = fit_recurrence_form(bundle, "R", points, tol)
        ev["riemann_fit_residual"] = rfit.max_residual
        ev["riemann_fit_excluded"] = rfit.excluded_count
        if rfit.passed and bool(np.all(rfit.admitted)):
            return Classification(bundle.chart.name, "recurrent", ev)
    except HypothesisError:
        ev["riemann_fit_residual"] = float("nan")

    try:
        cfit = fit_recurrence_form(bundle, "C", points, tol)
        ev["concircular_fit_residual"] = cfit.max_residual
        ev["concircular_fit_excluded"] = cfit.excluded_count
        if cfit.passed and bool(np.all(cfit.admitted)):
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


def verify_theorem(
    bundle: CurvatureBundle, points, tol: float = 1e-8, form_tol: float = 1e-10
) -> TheoremReport:
    """Check the implication chain on a chart satisfying the hypothesis.

    Hypothesis: the concircular tensor is recurrent (C-fit passes at the
    admitted points).  Conclusion, checked at those points: mu vanishes,
    nabla R = lambda (x) R with the same lambda, d lambda = 0, and the
    curvature action on R vanishes (semisymmetry).  A chart that fails the
    hypothesis yields a skip.
    """
    name = bundle.chart.name
    try:
        cfit = fit_recurrence_form(bundle, "C", points, tol)
    except HypothesisError as e:
        return TheoremReport(name, True, str(e), None, None, None, None, None)
    if not cfit.passed:
        reason = (
            f"concircular recurrence fit residual {cfit.max_residual:.3e} "
            f"exceeds {tol:.1e}; hypothesis not met"
        )
        return TheoremReport(name, True, reason, cfit, None, None, None, None)

    adm = cfit.admitted_points
    lam = cfit.lam
    mu_form = compute_mu(bundle, lam)

    n = bundle.n
    muv = bundle.field_values(mu_form.mu, adm)
    drv = bundle.field_values(mu_form.dscalar, adm)
    lamv = bundle.field_values(lam, adm)
    rv = bundle.values_at(adm)["scalar"]
    mu_scale = (
        _per_point_max(drv) + np.abs(rv) * _per_point_max(lamv)
    ) / (n * (n - 1))
    mu_check = _report("mu-vanishes", bundle, adm, muv, mu_scale, form_tol)

    recurrence_check = check_extended_recurrence(
        bundle, lam, zero_one_form(n), adm, tol
    )
    closed_check = check_lambda_closed(bundle, lam, adm, form_tol)
    semi_check = check_semisymmetry_at(bundle, adm, tol)
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
