"""Curvature toolkit for pseudo-Riemannian metrics given in coordinates.

Computes the full curvature apparatus of a coordinate metric symbolically
(Christoffel symbols, Riemann/Ricci/scalar curvature, the curvature-like
tensor built from the metric, the concircular tensor), checks the classical
curvature identities numerically at sampled points, fits recurrence 1-forms,
and classifies charts by curvature type.
"""

from .expressions import (
    DomainError,
    Expr,
    ExpressionError,
    ParseError,
    UnknownIdentifierError,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_string,
)
from .geometry import (
    CurvatureBundle,
    GeometryError,
    MetricChart,
    SingularMetricError,
    TensorField,
    christoffel_at,
    covariant_derivative_at,
    curvature_bundle_at,
)
from .identities import (
    HypothesisError,
    IdentityReport,
    KernelReport,
    check_bianchi_at,
    check_semisymmetry_at,
    check_walker_at,
    random_curvature_like,
    walker_lemma_kernel,
)
from .recurrence import (
    Classification,
    MuForm,
    ProjEinsteinReport,
    RecurrenceFit,
    TheoremReport,
    VERDICTS,
    check_extended_recurrence,
    check_lambda_closed,
    check_mu_structure,
    check_proj_einstein_chain,
    classify,
    compute_mu,
    fit_recurrence_form,
    verify_theorem,
    zero_one_form,
)
from .catalog import (
    CatalogEntry,
    MetricFileError,
    builtin_names,
    get_builtin,
    load_metric_spec,
    random_perturbed_flat,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Expr",
    "ExpressionError",
    "ParseError",
    "UnknownIdentifierError",
    "differentiate",
    "evaluate",
    "parse",
    "simplify",
    "to_string",
    "CurvatureBundle",
    "GeometryError",
    "MetricChart",
    "SingularMetricError",
    "TensorField",
    "christoffel_at",
    "covariant_derivative_at",
    "curvature_bundle_at",
    "HypothesisError",
    "IdentityReport",
    "KernelReport",
    "check_bianchi_at",
    "check_semisymmetry_at",
    "check_walker_at",
    "random_curvature_like",
    "walker_lemma_kernel",
    "Classification",
    "MuForm",
    "ProjEinsteinReport",
    "RecurrenceFit",
    "TheoremReport",
    "VERDICTS",
    "check_extended_recurrence",
    "check_lambda_closed",
    "check_mu_structure",
    "check_proj_einstein_chain",
    "classify",
    "compute_mu",
    "fit_recurrence_form",
    "verify_theorem",
    "zero_one_form",
    "CatalogEntry",
    "MetricFileError",
    "builtin_names",
    "get_builtin",
    "load_metric_spec",
    "random_perturbed_flat",
    "__version__",
]
