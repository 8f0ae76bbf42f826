"""Output gate: every op of every workload passes through one of these.

Each function returns ``None`` for a correct op, or a short reason for a
failed one.  The harness counts a failed op into ``error_rate``.
"""

from __future__ import annotations

import json
import math

# verdict the classifier reports when a chart would contradict the theorem
VIOLATION = "concircularly-recurrent"
LAMBDA_TOL = 1e-6


def _lambda_problem(lam, expected) -> str | None:
    for coord, want in expected.items():
        got = lam.get(coord)
        if got is None or not abs(got - want) <= LAMBDA_TOL * (1.0 + abs(want)):
            return f"lambda[{coord}] = {got}, expected {want}"
    return None


def cli_problem(sub: str, rc: int, stdout: bytes, expect: dict) -> str | None:
    """Check one ``concirc`` invocation.

    ``expect`` has ``verdict`` (the catalog's expected verdict, or None for
    the generated metric file) and ``lambda`` (coordinate -> constant, for
    charts whose expected recurrence form is constant, else None).  Exit
    code 1 is a legitimate outcome of ``fit`` and ``verify-theorem``; a
    check, classify or compute op must exit 0.
    """
    if rc not in (0, 1):
        return f"exit code {rc}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "report missing or not JSON"
    if not isinstance(doc, dict) or not all(
        k in doc for k in ("classification", "points", "summary")
    ):
        return "report lacks classification, points or summary"
    verdict = doc["classification"]
    if verdict == VIOLATION:
        return "classify flagged a theorem violation"
    if expect["verdict"] is not None and verdict != expect["verdict"]:
        return f"verdict {verdict!r}, expected {expect['verdict']!r}"
    if sub in ("compute", "check", "classify") and rc != 0:
        return f"{sub} exited {rc}"
    if sub == "verify-theorem" and expect.get("lambda"):
        if rc != 0 or doc["summary"]["skipped"]:
            return "verify-theorem skipped or failed"
        for pt in doc["points"]:
            if pt.get("lambda") is None:
                return "verify-theorem left a point without a fitted lambda"
            problem = _lambda_problem(pt["lambda"], expect["lambda"])
            if problem:
                return problem
    return None


def _finite(*reports) -> bool:
    return all(
        all(math.isfinite(float(r)) for r in rep.residuals) for rep in reports
    )


def sweep_problem(walker, bianchi1, bianchi2) -> str | None:
    """Walker and both Bianchi identities hold on every valid chart."""
    for rep in (walker, bianchi1, bianchi2):
        if not rep.passed:
            return f"{rep.identity} failed: max residual {rep.max_residual:.3e}"
    return None


def dense_problem(expect, walker, bianchi1, bianchi2, semisym, verdict,
                  theorem, lam_values) -> str | None:
    """One chart of one point block.

    ``lam_values`` maps coordinate -> array of fitted lambda values at the
    admitted points, or is None when verify_theorem skipped.
    """
    problem = sweep_problem(walker, bianchi1, bianchi2)
    if problem:
        return problem
    if not _finite(semisym):
        return "semisymmetry residual not finite"
    if verdict.theorem_violation:
        return "classify flagged a theorem violation"
    if verdict.verdict != expect["verdict"]:
        return f"verdict {verdict.verdict!r}, expected {expect['verdict']!r}"
    if expect.get("lambda"):
        if theorem.skipped or not theorem.passed:
            return f"verify_theorem skipped or failed: {theorem.reason}"
        if not semisym.passed:
            return "semisymmetry failed on a chart the theorem covers"
        for coord, values in lam_values.items():
            for v in values:
                problem = _lambda_problem({coord: float(v)},
                                          {coord: expect["lambda"][coord]})
                if problem:
                    return problem
    elif not theorem.skipped and not theorem.passed:
        return "verify_theorem ran and failed"
    return None
