"""Command-line interface: exit codes, JSON schema, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from concirc.catalog import builtin_names
from concirc.cli import run
from concirc.report import CAVEAT
from test_recurrence import weak_metric_file

DOC_KEYS = ["metric", "dim", "seed", "tolerance", "points", "classification", "summary", "caveat"]
POINT_KEYS = ["coords", "scalar_curvature", "checks", "lambda", "mu_norm"]


def run_json(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out), out


# -- basics ----------------------------------------------------------------------


def test_a_component_past_the_node_limit_exits_2_with_one_error_line(capsys, monkeypatch):
    from concirc import geometry

    monkeypatch.setattr(geometry, "COMPONENT_NODE_LIMIT", 3)
    rc = run(["classify", "--builtin", "sphere_2", "--samples", "2"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("concirc: error: simplification blow-up in christoffel[")



def test_list_builtins(capsys):
    assert run(["list-builtins"]) == 0
    out = capsys.readouterr().out
    assert tuple(out.split()) == builtin_names()


def test_json_document_key_order(capsys):
    rc, _, out = run_json(capsys, ["classify", "--builtin", "sphere_2", "--samples", "3"])
    assert rc == 0
    ordered = json.loads(out, object_pairs_hook=lambda ps: [k for k, _ in ps])
    assert ordered == DOC_KEYS


def test_point_entry_key_order(capsys):
    _, _, out = run_json(capsys, ["check", "--builtin", "sphere_2", "--identity", "walker", "--samples", "2"])

    def keys_of(pairs):
        return [k for k, _ in pairs] if pairs and isinstance(pairs[0], tuple) else pairs

    doc = json.loads(out, object_pairs_hook=lambda ps: dict(ps))
    raw = json.loads(out, object_pairs_hook=lambda ps: ps)
    points = dict(raw)["points"]
    for entry in points:
        assert [k for k, _ in entry] == POINT_KEYS
    checks = dict(points[0])["checks"]
    assert [k for k, _ in checks[0]] == ["name", "residual", "scale", "pass"]
    assert doc["summary"]["all_pass"] is True


def test_caveat_is_always_present(capsys):
    for argv in (
        ["classify", "--builtin", "sphere_2", "--samples", "2"],
        ["fit", "--builtin", "sphere_3", "--target", "C", "--samples", "2"],
    ):
        _, doc, _ = run_json(capsys, argv)
        assert doc["caveat"] == CAVEAT


# -- subcommand behavior ------------------------------------------------------------


def test_check_walker_sphere_3(capsys):
    rc, doc, _ = run_json(
        capsys,
        ["check", "--builtin", "sphere_3", "--identity", "walker", "--samples", "20", "--seed", "42"],
    )
    assert rc == 0
    assert doc["metric"] == "sphere_3"
    assert doc["dim"] == 3
    assert doc["classification"] == "constant-curvature"
    assert len(doc["points"]) == 20
    residuals = [p["checks"][0]["residual"] for p in doc["points"]]
    assert max(residuals) <= 1e-9
    assert doc["summary"] == {"all_pass": True, "skipped": 0}


def test_check_all_identity_names(capsys):
    for flag, name in (
        ("walker", "walker"),
        ("bianchi1", "bianchi-first"),
        ("bianchi2", "bianchi-second"),
        ("semisym", "semisymmetry"),
    ):
        rc, doc, _ = run_json(
            capsys, ["check", "--builtin", "sphere_2", "--identity", flag, "--samples", "2"]
        )
        assert rc == 0
        assert doc["points"][0]["checks"][0]["name"] == name


def test_classify_flat(capsys):
    rc, doc, _ = run_json(capsys, ["classify", "--builtin", "flat_euclidean_3", "--samples", "5"])
    assert rc == 0
    assert doc["classification"] == "flat"
    for p in doc["points"]:
        assert p["checks"][0]["name"] == "classification"
        assert p["checks"][0]["pass"] is True


def test_fit_reports_lambda(capsys):
    rc, doc, _ = run_json(
        capsys, ["fit", "--builtin", "surface_power", "--target", "R", "--samples", "4"]
    )
    assert rc == 0
    for p in doc["points"]:
        assert p["checks"][0]["name"] == "fit-R"
        np.testing.assert_allclose(p["lambda"]["x"], -2.0 / p["coords"]["x"], rtol=1e-9)
        np.testing.assert_allclose(p["lambda"]["y"], 0.0, atol=1e-12)


def test_fit_skips_when_hypothesis_empty(capsys):
    rc, doc, _ = run_json(
        capsys, ["fit", "--builtin", "sphere_3", "--target", "C", "--samples", "4"]
    )
    assert rc == 0
    assert doc["summary"] == {"all_pass": True, "skipped": 4}
    for p in doc["points"]:
        assert p["checks"] == []
        assert p["lambda"] is None


def test_fit_fails_at_the_points_a_weak_chart_excludes(capsys, tmp_path):
    # the C-fit admits 3 of 20 points and passes at each; it is not
    # recurrent, as classify and verify-theorem read it, so each excluded
    # point is a failed check with a null residual and the run exits 1
    rc, doc, _ = run_json(capsys, ["fit", "--metric", weak_metric_file(tmp_path), "--target", "C"])
    assert rc == 1
    assert doc["classification"] == "generic"
    assert doc["summary"] == {"all_pass": False, "skipped": 0}
    admitted = [p["lambda"] is not None for p in doc["points"]]
    assert sum(admitted) == 3
    for ok, p in zip(admitted, doc["points"]):
        (check,) = p["checks"]
        assert check["name"] == "fit-C" and check["pass"] is ok
        assert (check["residual"] is None) is not ok
    assert run(["fit", "--metric", weak_metric_file(tmp_path), "--target", "C", "--text"]) == 1
    text = capsys.readouterr().out
    assert text.count("fit-C: residual nan") == 17 and "all_pass=false skipped=0" in text


def test_verify_theorem_ppwave(capsys):
    rc, doc, _ = run_json(
        capsys, ["verify-theorem", "--builtin", "ppwave_recurrent", "--samples", "5"]
    )
    assert rc == 0
    assert doc["classification"] == "recurrent"
    for p in doc["points"]:
        names = [c["name"] for c in p["checks"]]
        assert names == [
            "mu-vanishes",
            "riemann-recurrence-same-form",
            "lambda-closed",
            "semisymmetry",
        ]
        assert all(c["pass"] for c in p["checks"])
        np.testing.assert_allclose(p["lambda"]["u"], 1.0, atol=1e-12)
        assert p["mu_norm"] <= 1e-12
    assert doc["summary"]["all_pass"] is True


def test_verify_theorem_skip_path(capsys):
    rc, doc, _ = run_json(capsys, ["verify-theorem", "--builtin", "sphere_3", "--samples", "4"])
    assert rc == 0
    assert doc["summary"] == {
        "all_pass": True,
        "skipped": 4,
        "skip_reason": "target C is numerically zero at every sample point of sphere_3; "
        "no recurrence form exists",
    }
    assert all(p["checks"] == [] for p in doc["points"])


@pytest.mark.parametrize("source, reason", [
    ("weak", "concircular recurrence fit admits 3 of 20 points; hypothesis not met"),
    ("minkowski_4", "target C vanishes identically on minkowski_4; no recurrence form exists"),
    ("ppwave_recurrent", None),
])
def test_verify_theorem_says_why_it_skipped(capsys, tmp_path, source, reason):
    if source == "weak":
        argv = ["verify-theorem", "--metric", weak_metric_file(tmp_path)]
    else:
        argv = ["verify-theorem", "--builtin", source]
    rc, doc, _ = run_json(capsys, argv)
    assert rc == 0
    assert doc["summary"]["skip_reason"] == reason
    assert doc["summary"]["skipped"] == (0 if reason is None else 20)
    assert run(argv + ["--text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    reason_lines = [line for line in lines if line.startswith("skip reason:")]
    assert reason_lines == ([] if reason is None else [f"skip reason: {reason}"])


@pytest.mark.parametrize("argv", [
    ["classify", "--builtin", "minkowski_4"],
    ["fit", "--builtin", "minkowski_4", "--target", "C"],
])
def test_only_verify_theorem_reports_a_skip_reason(capsys, argv):
    _, doc, _ = run_json(capsys, argv + ["--samples", "3"])
    assert list(doc["summary"]) == ["all_pass", "skipped"]
    assert run(argv + ["--samples", "3", "--text"]) == 0
    assert "skip reason" not in capsys.readouterr().out


def test_compute_default_and_explicit_point(capsys):
    rc, doc, _ = run_json(capsys, ["compute", "--builtin", "sphere_2", "--samples", "3"])
    assert rc == 0
    assert len(doc["points"]) == 1
    comp = doc["points"][0]["components"]
    assert set(comp) == {
        "metric",
        "inverse_metric",
        "christoffel",
        "riemann",
        "riemann_13",
        "ricci",
        "scalar_curvature",
        "gtensor",
        "concircular",
    }
    np.testing.assert_allclose(comp["scalar_curvature"], 2.0, rtol=1e-10)

    rc, doc, _ = run_json(
        capsys, ["compute", "--builtin", "sphere_2", "--point", "theta=0.7,phi=1.2"]
    )
    assert rc == 0
    assert doc["points"][0]["coords"] == {"theta": 0.7, "phi": 1.2}
    g = doc["points"][0]["components"]["metric"]
    np.testing.assert_allclose(g[1][1], np.sin(0.7) ** 2, rtol=1e-12)


def test_metric_file_source(capsys, tmp_path):
    doc = {
        "name": "file_surface",
        "dim": 2,
        "coordinates": ["x", "y"],
        "metric": [["1", "0"], ["0", "x^4"]],
        "domain": {"x": [0.5, 3.0], "y": [-1.0, 1.0]},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    rc, out, _ = run_json(capsys, ["classify", "--metric", str(path), "--samples", "5"])
    assert rc == 0
    assert out["metric"] == "file_surface"
    assert out["classification"] == "recurrent"


# -- exit codes -----------------------------------------------------------------------


def test_exit_code_one_on_failed_check(capsys):
    rc, doc, _ = run_json(
        capsys,
        ["check", "--builtin", "perturbed_flat", "--identity", "semisym", "--samples", "4"],
    )
    assert rc == 1
    assert doc["summary"]["all_pass"] is False
    assert any(not c["pass"] for p in doc["points"] for c in p["checks"])


def test_exit_code_two_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    # a term over a literal 0 simplifies, then fails at the first sample point
    over_zero = tmp_path / "over_zero.json"
    over_zero.write_text(json.dumps({
        "name": "over_zero", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["x/0 + y", "0"], ["0", "1"]],
        "domain": {"x": [0.5, 1.0], "y": [0.5, 1.0]},
    }))
    cases = [
        ["classify", "--builtin", "nope"],
        ["classify", "--metric", str(tmp_path / "missing.json")],
        ["classify", "--metric", str(bad)],
        ["classify", "--metric", str(over_zero)],
        ["classify", "--builtin", "sphere_2", "--samples", "0"],
        ["classify", "--builtin", "sphere_2", "--tol", "-1"],
        ["compute", "--builtin", "sphere_2", "--point", "theta=0.7"],
        ["compute", "--builtin", "sphere_2", "--point", "q=1,theta=1,phi=1"],
        ["compute", "--builtin", "sphere_2", "--point", "theta=abc,phi=1"],
        ["check", "--builtin", "sphere_2"],  # missing --identity
        ["check", "--builtin", "sphere_2", "--identity", "warp"],
        ["fit", "--builtin", "sphere_2", "--target", "S"],
        ["classify"],  # no source
        ["classify", "--builtin", "sphere_2", "--metric", "x.json"],  # both sources
        ["classify", "--builtin", "sphere_2", "--point", "theta=1,phi=1"],  # compute only
        ["frobnicate"],
        [],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--builtin", "sphere_2", "--seed", "-1"],
        ["fit", "--target", "R", "--builtin", "perturbed_flat", "--samples", "3", "--tol", "inf"],
        ["fit", "--target", "R", "--builtin", "perturbed_flat", "--samples", "3", "--tol", "1e400"],
        ["classify", "--builtin", "sphere_2", "--samples", "2", "--tol", "nan"],
        ["compute", "--builtin", "sphere_2", "--point", "theta=1,theta=2,phi=0"],
    ],
    ids=["negative-seed", "tol-inf", "tol-overflow", "tol-nan", "point-twice"],
)
def test_rejected_input_exits_two_with_a_message(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("concirc: error: ")
    assert "Traceback" not in captured.err


def test_metric_file_with_unbounded_domain_exits_two(capsys, tmp_path):
    doc = {
        "name": "unbounded", "dim": 2, "coordinates": ["x", "y"],
        "metric": [["1", "0"], ["0", "1"]],
        "domain": {"x": [0.5, 3.0], "y": [-1.0, 1.0]},
    }
    for bounds in ([-math.inf, math.inf], [0.0, math.inf], [-1e308, 1e308]):
        doc["domain"]["y"] = bounds
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(doc))
        assert run(["classify", "--metric", str(path), "--samples", "2"]) == 2, bounds
        err = capsys.readouterr().err
        assert err.startswith("concirc: error: ") and "not finite" in err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "concirc" in capsys.readouterr().out


# -- tolerance plumbing ------------------------------------------------------------------


def test_tolerance_flag_sets_the_pass_rule(capsys):
    argv = ["check", "--builtin", "perturbed_flat", "--identity", "semisym", "--samples", "4"]
    assert run(argv) == 1
    capsys.readouterr()

    rc, doc, _ = run_json(capsys, argv + ["--tol", "1e6"])
    assert rc == 0
    assert doc["tolerance"] == 1e6

    rc, doc, _ = run_json(capsys, argv + ["--tol", "1e-8"])
    assert rc == 1
    assert doc["tolerance"] == 1e-8


# -- determinism ----------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["verify-theorem", "--builtin", "ppwave_recurrent", "--samples", "6", "--seed", "11"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_json_file_output_matches_stdout(capsys, tmp_path):
    argv = ["check", "--builtin", "surface_power", "--identity", "walker", "--samples", "5"]
    run(argv)
    stdout = capsys.readouterr().out
    path = tmp_path / "report.json"
    rc = run(argv + ["--json", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == stdout


def test_seed_changes_the_point_set(capsys):
    _, doc1, _ = run_json(capsys, ["classify", "--builtin", "sphere_2", "--samples", "3"])
    _, doc2, _ = run_json(capsys, ["classify", "--builtin", "sphere_2", "--samples", "3", "--seed", "1"])
    assert doc1["points"][0]["coords"] != doc2["points"][0]["coords"]
    assert doc1["seed"] == 42 and doc2["seed"] == 1


def test_text_output_is_prose(capsys):
    rc = run(["classify", "--builtin", "sphere_2", "--samples", "2", "--text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "classification: constant-curvature" in out
    assert not out.lstrip().startswith("{")


def test_main_wires_exit_code():
    code = (
        "import sys; sys.argv = ['concirc', 'list-builtins'];"
        "from concirc.cli import main; main()"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "sphere_3" in proc.stdout


def test_module_entry_point_runs_main():
    # `python -m concirc.cli` must behave like the console script
    import concirc

    src = str(Path(concirc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "concirc.cli", "list-builtins"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert tuple(proc.stdout.split()) == builtin_names()
    assert len(builtin_names()) == 8
