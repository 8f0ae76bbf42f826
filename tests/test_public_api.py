"""The public surface: every exported name resolves, and the reference
routes the tests compare against live in ``tests/reference.py``, not in the
package."""

import importlib

import pytest

import reference

MODULES = (
    "concirc",
    "concirc.catalog",
    "concirc.cli",
    "concirc.expressions",
    "concirc.geometry",
    "concirc.identities",
    "concirc.recurrence",
    "concirc.report",
)
REFERENCE_ROUTES = (
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
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_reference_routes_are_not_in_the_package(name):
    module = importlib.import_module(name)
    assert [n for n in REFERENCE_ROUTES + ("_dual",) if hasattr(module, n)] == []


def test_reference_module_exports_the_routes():
    assert set(reference.__all__) == set(REFERENCE_ROUTES)
    assert all(callable(getattr(reference, n)) for n in REFERENCE_ROUTES)
