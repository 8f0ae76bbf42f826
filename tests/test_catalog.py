"""Builtin charts, their published expectations, and the metric file loader."""

import json

import numpy as np
import pytest

import concirc.expressions as ex
from concirc.catalog import (
    CatalogEntry,
    MetricFileError,
    builtin_names,
    get_builtin,
    load_metric_spec,
    random_perturbed_flat,
)
from concirc.geometry import GeometryError, curvature_bundle_at
from concirc.recurrence import classify, fit_recurrence_form, verify_theorem

_BUNDLES = {}


def bundle_for(name):
    if name not in _BUNDLES:
        _BUNDLES[name] = curvature_bundle_at(get_builtin(name).chart)
    return _BUNDLES[name]


def _write(tmp_path, doc, fname="metric.json"):
    p = tmp_path / fname
    p.write_text(json.dumps(doc) if isinstance(doc, dict) else doc)
    return str(p)


def _valid_doc():
    return {
        "name": "round_trip_sphere",
        "dim": 2,
        "coordinates": ["theta", "phi"],
        "metric": [["1", "0"], ["0", "sin(theta)^2"]],
        "domain": {"theta": [0.15, 2.99], "phi": [0.0, 6.28]},
        "exclusions": ["sin(theta)"],
    }


# -- builtins ------------------------------------------------------------------


def test_builtin_names_is_stable_contract():
    assert builtin_names() == (
        "flat_euclidean_3",
        "hyperbolic_2",
        "minkowski_4",
        "perturbed_flat",
        "ppwave_recurrent",
        "sphere_2",
        "sphere_3",
        "surface_power",
    )


def test_get_builtin_unknown_lists_known_names():
    with pytest.raises(GeometryError) as err:
        get_builtin("torus")
    assert "sphere_2" in str(err.value)


def test_every_entry_is_well_formed():
    for name in builtin_names():
        entry = get_builtin(name)
        assert isinstance(entry, CatalogEntry)
        assert entry.chart.name == name
        assert entry.note
        assert entry.expected_verdict in (
            "flat",
            "constant-curvature",
            "recurrent",
            "generic",
        )


def test_expected_verdicts_rederived_by_pipeline():
    for name in builtin_names():
        entry = get_builtin(name)
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 10)
        got = classify(b, pts, tol=1e-8)
        assert got.verdict == entry.expected_verdict, f"{name}: {got}"


def test_expected_scalars_rederived_by_pipeline():
    for name in builtin_names():
        entry = get_builtin(name)
        if entry.expected_scalar is None:
            continue
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 10)
        scal = b.values_at(pts)["scalar"]
        np.testing.assert_allclose(
            scal, entry.expected_scalar, rtol=0, atol=1e-10, err_msg=name
        )


def test_expected_lambdas_rederived_by_pipeline():
    for name in builtin_names():
        entry = get_builtin(name)
        if entry.expected_lambda is None:
            continue
        b = bundle_for(name)
        pts = b.chart.sample_points(42, 10)
        fit = fit_recurrence_form(b, "R", pts, tol=1e-8)
        assert fit.recurrent, name
        lamv = b.field_values(fit.lam, fit.admitted_points)
        coords = b.chart.coordinates
        want = np.column_stack(
            [
                [ex.evaluate(ex.parse(entry.expected_lambda[c], coords), p)
                 for p in fit.admitted_points]
                for c in coords
            ]
        )
        np.testing.assert_allclose(lamv, want, rtol=0, atol=1e-10, err_msg=name)


def test_ppwave_satisfies_the_theorem():
    b = bundle_for("ppwave_recurrent")
    rep = verify_theorem(b, b.chart.sample_points(42, 10))
    assert not rep.skipped
    assert rep.passed


def test_negative_control_fit_residuals_are_large():
    b = bundle_for("perturbed_flat")
    pts = b.chart.sample_points(42, 20)
    fit = fit_recurrence_form(b, "R", pts, tol=1e-8)
    assert not fit.recurrent
    big = fit.residuals[fit.admitted] > 1e-3
    assert np.mean(big) >= 0.9


# -- the random family -----------------------------------------------------------


def test_random_perturbed_flat_is_seed_deterministic():
    a = random_perturbed_flat(7)
    b = random_perturbed_flat(7)
    assert a.name == b.name == "perturbed_flat_7"
    assert all(x is y for x, y in zip(a.metric.ravel(), b.metric.ravel()))
    c = random_perturbed_flat(8)
    assert any(x is not y for x, y in zip(a.metric.ravel(), c.metric.ravel()))


def test_random_perturbed_flat_charts_are_usable():
    for seed in (0, 1, 2):
        chart = random_perturbed_flat(seed)
        assert chart.n == 3
        pts = chart.sample_points(42, 5)
        assert len(pts) == 5
        b = curvature_bundle_at(chart)
        v = b.values_at(pts)
        # near flat: metric close to identity, curvature small but present
        assert np.max(np.abs(v["metric"] - np.eye(3))) < 0.02


def test_random_perturbed_flat_other_dims():
    chart = random_perturbed_flat(3, dim=4)
    assert chart.n == 4
    chart.sample_points(1, 3)


# -- the loader -------------------------------------------------------------------


def test_loader_round_trip(tmp_path):
    path = _write(tmp_path, _valid_doc())
    chart = load_metric_spec(path)
    assert chart.name == "round_trip_sphere"
    builtin = get_builtin("sphere_2").chart
    # expressions are interned: equality of structure is identity
    assert all(a is b for a, b in zip(chart.metric.ravel(), builtin.metric.ravel()))
    assert chart.sample_points(42, 5) == chart.sample_points(42, 5)


def test_loader_missing_file():
    with pytest.raises(MetricFileError) as err:
        load_metric_spec("/nonexistent/metric.json")
    assert "/nonexistent/metric.json" in str(err.value)


def test_loader_bad_json_reports_line_and_column(tmp_path):
    path = _write(tmp_path, '{"name": "x",\n  "dim": }')
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(path)
    msg = str(err.value)
    assert "line 2" in msg and "column" in msg and path in msg


def test_loader_missing_keys(tmp_path):
    doc = _valid_doc()
    del doc["metric"]
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(_write(tmp_path, doc))
    assert "'metric'" in str(err.value)


def test_loader_validates_dim_and_coordinates(tmp_path):
    doc = _valid_doc()
    doc["dim"] = 1
    with pytest.raises(MetricFileError):
        load_metric_spec(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["coordinates"] = ["theta"]
    with pytest.raises(MetricFileError):
        load_metric_spec(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["coordinates"] = ["theta", "theta"]
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(_write(tmp_path, doc))
    assert "duplicate" in str(err.value)


def test_loader_rejects_asymmetric_metric(tmp_path):
    doc = _valid_doc()
    doc["metric"] = [["1", "theta"], ["phi", "1"]]
    path = _write(tmp_path, doc)
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(path)
    # the chart's own check, wrapped with the path
    assert str(err.value) == (
        f"{path}: chart 'round_trip_sphere': metric is not symmetric: "
        "entry [0][1] = 'theta' but [1][0] = 'phi'"
    )


def test_loader_symmetry_is_structural(tmp_path):
    doc = _valid_doc()
    doc["metric"] = [["2", "theta + phi"], ["phi + theta", "2"]]
    doc["exclusions"] = []
    chart = load_metric_spec(_write(tmp_path, doc))
    assert chart.metric[0, 1] is chart.metric[1, 0]


def test_loader_bad_expression_reports_entry_and_position(tmp_path):
    doc = _valid_doc()
    doc["metric"][1][1] = "sin(theta"
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(_write(tmp_path, doc))
    msg = str(err.value)
    assert "metric[1][1]" in msg and "position" in msg


def test_loader_rejects_unknown_identifier(tmp_path):
    doc = _valid_doc()
    doc["metric"][0][0] = "r^2"
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(_write(tmp_path, doc))
    assert "'r'" in str(err.value)


def test_loader_degenerate_metric_names_witness(tmp_path):
    doc = _valid_doc()
    doc["metric"] = [["1", "1"], ["1", "1"]]
    doc["exclusions"] = []
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(_write(tmp_path, doc))
    msg = str(err.value)
    assert "degenerate" in msg or "singular" in msg.lower()
    assert "theta" in msg  # witness point in chart coordinates


def test_loader_prefixes_a_sampling_domain_error_with_the_path(tmp_path):
    doc = _valid_doc()
    doc["metric"][1][1] = "1/0 + sin(theta)^2"
    path = _write(tmp_path, doc)
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(path)
    assert str(err.value) == f"{path}: division by zero in subexpression '1/0'"


def test_loader_validates_domain(tmp_path):
    doc = _valid_doc()
    doc["domain"] = {"theta": [0.15, 2.99]}
    with pytest.raises(MetricFileError):
        load_metric_spec(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["domain"]["phi"] = [1.0, 1.0]
    with pytest.raises(MetricFileError):
        load_metric_spec(_write(tmp_path, doc))
    doc = _valid_doc()
    doc["domain"]["phi"] = [0.0, "six"]
    with pytest.raises(MetricFileError):
        load_metric_spec(_write(tmp_path, doc))
    # JSON booleans are not bounds, though Python counts them as ints
    doc["domain"]["phi"] = [False, True]
    with pytest.raises(MetricFileError, match="must be"):
        load_metric_spec(_write(tmp_path, doc))
    for bounds in ("[-Infinity, Infinity]", "[-1e308, 1e308]", "[0, 1" + "0" * 400 + "]"):
        text = json.dumps(_valid_doc()).replace("[0.0, 6.28]", bounds)
        with pytest.raises(MetricFileError, match="not finite"):
            load_metric_spec(_write(tmp_path, text))


def test_loader_validates_exclusions(tmp_path):
    doc = _valid_doc()
    doc["exclusions"] = ["sin(q)"]
    with pytest.raises(MetricFileError) as err:
        load_metric_spec(_write(tmp_path, doc))
    assert "exclusions[0]" in str(err.value)


def test_loader_rejects_non_object_top_level(tmp_path):
    with pytest.raises(MetricFileError):
        load_metric_spec(_write(tmp_path, "[1, 2, 3]"))
