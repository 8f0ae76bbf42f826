"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They start real concirc processes, so they take about half a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import gate  # noqa: E402
import run  # noqa: E402

SPHERE = {"verdict": "constant-curvature", "lambda": None}


def test_gate_passes_a_correct_op():
    op, _, _ = run.cli_op(["classify", "--builtin", "sphere_2", "--seed", "3"], SPHERE,
                          False, 3)
    assert op["ok"], op["problem"]


def test_gate_fails_an_op_with_a_wrong_expected_verdict():
    wrong = {"verdict": "flat", "lambda": None}
    op, _, _ = run.cli_op(["classify", "--builtin", "sphere_2", "--seed", "3"], wrong,
                          False, 3)
    assert not op["ok"]
    assert "expected 'flat'" in op["problem"]


def test_gate_fails_an_op_with_a_wrong_expected_lambda():
    expect = {"verdict": "recurrent", "lambda": {"u": 2.0, "v": 0.0, "x": 0.0, "y": 0.0}}
    argv = ["verify-theorem", "--builtin", "ppwave_recurrent", "--samples", "3", "--seed", "3"]
    op, _, _ = run.cli_op(argv, expect, False, 3)
    assert not op["ok"]
    assert "lambda[u]" in op["problem"]


@pytest.mark.parametrize("rc, stdout", [(0, b""), (0, b"{not json"), (2, b"{}"),
                                        (0, b'{"points": []}')])
def test_gate_fails_missing_or_broken_reports(rc, stdout):
    assert gate.cli_problem("classify", rc, stdout, SPHERE) is not None


def test_gate_accepts_exit_1_from_a_failing_fit():
    doc = b'{"classification": "generic", "points": [], "summary": {"all_pass": false}}'
    assert gate.cli_problem("fit", 1, doc, {"verdict": "generic", "lambda": None}) is None
    assert gate.cli_problem("classify", 1, doc, {"verdict": "generic", "lambda": None})


def _counts(spans):
    table = run.layer_table(spans)
    return {name: (row["calls"], row["nodes"], row["admitted"])
            for name, row in table.items() if name != "trace.count"}


def test_counts_repeat_exactly_on_the_sweep(monkeypatch):
    monkeypatch.setattr(run, "SWEEP_PANEL", (3,))
    _, first = run.run_sweep_random(5, 0, True)
    _, second = run.run_sweep_random(5, 0, True)
    assert all(op["ok"] for op in first.ops + second.ops)
    counts = _counts(first.spans)
    assert counts["geometry.nabla_riemann"][1] > 0
    assert counts == _counts(second.spans)


def test_counts_repeat_exactly_on_dense_points(monkeypatch):
    monkeypatch.setattr(run, "DENSE_CHILDREN", 1)
    monkeypatch.setattr(run, "DENSE_POINTS", 10)
    _, first = run.run_dense_points(5, 0, True)
    _, second = run.run_dense_points(5, 0, True)
    assert all(op["ok"] for op in first.ops + second.ops)
    counts = _counts(first.spans)
    assert counts["recurrence.fit_C"][2] > 0
    assert counts["geometry.nabla_concircular"][1] > 0
    assert counts == _counts(second.spans)


def test_counts_repeat_exactly_on_a_cli_fit():
    argv = ["fit", "--target", "C", "--builtin", "ppwave_recurrent", "--seed", "5"]
    expect = {"verdict": "recurrent", "lambda": None}
    runs = [run.cli_op(argv, expect, True, 5) for _ in range(2)]
    for op, _, spans in runs:
        assert op["ok"], op["problem"]
        for rec in spans:
            rec.update({"proc": 0, "pass": 0})
    (_, out1, spans1), (_, out2, spans2) = runs
    assert out1 == out2
    assert _counts(spans1)["recurrence.fit_C"][2] > 0
    assert _counts(spans1) == _counts(spans2)


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail(list(range(30)))
    assert (value, n) == (19, 30)
    assert sum(x > value for x in range(30)) == 10
    assert pct == pytest.approx(100 * 20 / 30)
