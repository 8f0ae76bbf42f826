"""End-to-end acceptance run: ten criteria, one pass/fail line each.

Each test prints `criterion NN [label]: PASS|FAIL` before asserting, so a
`pytest -v -s tests/test_acceptance.py` run shows the full scoreboard.
"""

import json
import math

import numpy as np
import pytest

import concirc.expressions as ex
from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat
from concirc.cli import run
from concirc.geometry import curvature_bundle_at
from concirc.identities import (
    HypothesisError,
    check_walker_at,
    random_curvature_like,
    walker_lemma_kernel,
)
from concirc.recurrence import (
    check_proj_einstein_chain,
    classify,
    fit_recurrence_form,
    verify_theorem,
)
from reference import (
    curvature_action_at,
    curvature_action_from_second_derivative,
    evaluate_dual,
)

SAMPLES = 20
SEED = 42
RANDOM_FAMILY_SEEDS = tuple(range(50))

_BUNDLES = {}
_RANDOM_BUNDLES = {}
_CLASSIFICATIONS = []  # every verdict this module produces, for criterion 9


def bundle_for(name):
    if name not in _BUNDLES:
        _BUNDLES[name] = curvature_bundle_at(get_builtin(name).chart)
    return _BUNDLES[name]


def random_bundle(seed):
    if seed not in _RANDOM_BUNDLES:
        _RANDOM_BUNDLES[seed] = curvature_bundle_at(random_perturbed_flat(seed))
    return _RANDOM_BUNDLES[seed]


def classify_tracked(bundle, pts):
    verdict = classify(bundle, pts, tol=1e-8)
    _CLASSIFICATIONS.append(verdict)
    return verdict


def report(num, label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def test_criterion_01_walker_identity_catalog_and_random_family():
    worst = 0.0
    ok = True
    for name in builtin_names():
        b = bundle_for(name)
        pts = b.chart.sample_points(SEED, SAMPLES)
        rep = check_walker_at(b, pts, tol=1e-8)
        worst = max(worst, float(np.max(rep.residuals / (1.0 + rep.scales))))
        ok = ok and rep.passed
    for seed in RANDOM_FAMILY_SEEDS:
        b = random_bundle(seed)
        pts = b.chart.sample_points(SEED, SAMPLES)
        rep = check_walker_at(b, pts, tol=1e-8)
        worst = max(worst, float(np.max(rep.residuals / (1.0 + rep.scales))))
        ok = ok and rep.passed
    report(1, "walker identity", ok, f"max relative residual {worst:.2e} <= 1e-8")


def test_criterion_02_symbolic_vs_dual_derivative_oracle():
    rng = np.random.default_rng(20260202)
    coords = ("x", "y", "z")

    def random_expr(depth=4):
        if depth == 0 or rng.random() < 0.25:
            if rng.random() < 0.4:
                return ex.const(int(rng.integers(-5, 6)))
            return ex.var(str(rng.choice(coords)))
        op = rng.choice(["add", "sub", "mul", "div", "pow", "neg", "fn"])
        a = random_expr(depth - 1)
        if op == "neg":
            return ex.neg(a)
        if op == "fn":
            return ex.func(str(rng.choice(["sin", "cos", "exp", "sinh", "cosh"])), a)
        b = random_expr(depth - 1)
        if op == "add":
            return ex.add(a, b)
        if op == "sub":
            return ex.sub(a, b)
        if op == "mul":
            return ex.mul(a, b)
        if op == "div":
            return ex.div(a, ex.add(ex.const(3), ex.mul(ex.sin(b), ex.sin(b))))
        return ex.pow_(a, ex.const(int(rng.integers(0, 4))))

    checked = 0
    worst = 0.0
    while checked < 1000:
        e = random_expr()
        names = sorted(ex.variables(e))
        if not names:
            continue
        point = {c: float(rng.uniform(0.3, 1.6)) for c in coords}
        name = str(rng.choice(names))
        try:
            sym = ex.evaluate(ex.differentiate(e, name), point)
            dual = evaluate_dual(e, point, {name: 1.0}).deriv
        except ex.DomainError:
            continue
        if not (math.isfinite(sym) and math.isfinite(dual)) or abs(dual) > 1e6:
            continue
        worst = max(worst, abs(sym - dual) / (1.0 + abs(dual)))
        checked += 1
    report(2, "derivative oracle", worst <= 1e-12,
           f"1000 samples, max relative deviation {worst:.2e} <= 1e-12")


def test_criterion_03_constant_curvature_values():
    b3 = bundle_for("sphere_3")
    pts = b3.chart.sample_points(SEED, SAMPLES)
    v = b3.values_at(pts)
    r_dev = float(np.max(np.abs(v["scalar"] - 6.0)))
    scale = np.abs(v["riemann"]).reshape(len(pts), -1).max(axis=1) + (
        np.abs(v["scalar"]) / 6.0
    ) * np.abs(v["gtensor"]).reshape(len(pts), -1).max(axis=1)
    c_rel = float(np.max(np.abs(v["concircular"]).reshape(len(pts), -1).max(axis=1) / scale))
    ok = r_dev <= 1e-9 and c_rel <= 1e-9

    b2 = bundle_for("sphere_2")
    pts2 = b2.chart.sample_points(SEED, SAMPLES)
    r2_dev = float(np.max(np.abs(b2.values_at(pts2)["scalar"] - 2.0)))
    c2_structural = all(c is ex.ZERO for c in b2.concircular.components.ravel())
    ok = ok and r2_dev <= 1e-10 and c2_structural
    report(3, "constant curvature", ok,
           f"sphere_3 r dev {r_dev:.1e}, |C| rel {c_rel:.1e}; "
           f"sphere_2 r dev {r2_dev:.1e}, C identically zero: {c2_structural}")


def test_criterion_04_surface_recurrence_with_log_derivative_form():
    b = bundle_for("surface_power")
    pts = b.chart.sample_points(SEED, SAMPLES)
    r = b.scalar_curvature
    dlnr = np.array(
        [ex.simplify(ex.div(ex.differentiate(r, c), r)) for c in b.chart.coordinates],
        dtype=object,
    )
    from concirc.geometry import TensorField

    lam = TensorField(2, 1, dlnr)
    nr = b.field_values(b.nabla_riemann(), pts)
    rv = b.field_values(b.riemann, pts)
    lamv = b.field_values(lam, pts)
    diff = nr - np.einsum("pa,pwxyz->pawxyz", lamv, rv)
    per_point = np.abs(diff).reshape(len(pts), -1).max(axis=1) / (
        1.0 + np.abs(rv).reshape(len(pts), -1).max(axis=1)
    )
    worst = float(np.max(per_point))
    report(4, "nabla R = d ln|r| (x) R", worst <= 1e-8,
           f"max residual {worst:.2e} <= 1e-8 at {len(pts)} points")


def test_criterion_05_theorem_instance_on_ppwave():
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(SEED, SAMPLES)
    fit = fit_recurrence_form(b, "C", pts, tol=1e-8)
    rep = verify_theorem(b, pts, tol=1e-8)
    ok = (
        fit.recurrent
        and fit.max_residual <= 1e-8
        and not rep.skipped
        and rep.mu_check.max_residual <= 1e-10
        and rep.recurrence_check.max_residual <= 1e-8
        and rep.closed_check.max_residual <= 1e-10
        and rep.semisymmetry_check.max_residual <= 1e-8
    )
    report(5, "theorem instance", ok,
           f"C-fit {fit.max_residual:.1e}, mu {rep.mu_check.max_residual:.1e}, "
           f"R-rec {rep.recurrence_check.max_residual:.1e}, "
           f"d-lambda {rep.closed_check.max_residual:.1e}, "
           f"semisym {rep.semisymmetry_check.max_residual:.1e}")


def test_criterion_06_walker_lemma_kernel_is_trivial():
    ok = True
    for dim in (3, 4, 5):
        rng = np.random.default_rng(600 + dim)
        for _ in range(100):
            b = random_curvature_like(rng, dim)
            rep = walker_lemma_kernel(dim, b)
            ok = ok and rep.kernel_dimension == 0
    report(6, "walker lemma kernel", ok, "dims 3, 4, 5 x 100 random B: kernel {0}")


def test_criterion_07_projective_to_einstein_chain():
    ok = True
    details = []
    for name in ("flat_euclidean_3", "minkowski_4", "sphere_3"):
        b = bundle_for(name)
        pts = b.chart.sample_points(SEED, SAMPLES)
        rep = check_proj_einstein_chain(b, pts, tol=1e-9)
        good = bool(
            rep.proj.passes.all()
            and rep.einstein.passes.all()
            and rep.constcurv.passes.all()
            and rep.chain_holds
        )
        ok = ok and good
        details.append(f"{name} P {np.max(rep.proj.residuals):.1e}")
    b = bundle_for("ppwave_recurrent")
    pts = b.chart.sample_points(SEED, SAMPLES)
    rep = check_proj_einstein_chain(b, pts, tol=1e-8)
    hyp_fails = bool(np.all(rep.proj.residuals > 0.1 * rep.proj.scales))
    ok = ok and hyp_fails and rep.chain_holds
    details.append(f"ppwave min P/scale {np.min(rep.proj.residuals / rep.proj.scales):.2f} > 0.1")
    report(7, "Einstein chain", ok, "; ".join(details))


def test_criterion_08_action_route_cross_check():
    worst = 0.0
    for name in builtin_names():
        b = bundle_for(name)
        pts = b.chart.sample_points(SEED, SAMPLES)
        a1 = b.field_values(curvature_action_at(b, b.riemann), pts)
        a2 = b.field_values(curvature_action_from_second_derivative(b, b.riemann), pts)
        rel = float(np.max(np.abs(a1 - a2)) / (1.0 + np.max(np.abs(a1))))
        worst = max(worst, rel)
    report(8, "action route agreement", worst <= 1e-8,
           f"max relative disagreement {worst:.2e} <= 1e-8 on all builtins")


def test_criterion_09_negative_control_and_forbidden_verdict():
    b = bundle_for("perturbed_flat")
    pts = b.chart.sample_points(SEED, SAMPLES)
    verdict = classify_tracked(b, pts)
    generic = verdict.verdict == "generic"

    rfit = fit_recurrence_form(b, "R", pts, tol=1e-8)
    r_fails = not rfit.recurrent
    big = float(np.mean(rfit.residuals[rfit.admitted] > 1e-3))
    try:
        cfit = fit_recurrence_form(b, "C", pts, tol=1e-8)
        c_fails = not cfit.recurrent
    except HypothesisError:
        c_fails = True

    for name in builtin_names():
        bb = bundle_for(name)
        classify_tracked(bb, bb.chart.sample_points(SEED, SAMPLES))

    forbidden = [
        c for c in _CLASSIFICATIONS
        if c.theorem_violation or c.verdict == "concircularly-recurrent"
    ]
    ok = generic and r_fails and big >= 0.9 and c_fails and not forbidden
    report(9, "negative control", ok,
           f"perturbed_flat {verdict.verdict}; R-fit residual > 1e-3 at "
           f"{100 * big:.0f}% of points; forbidden verdicts over "
           f"{len(_CLASSIFICATIONS)} runs: {len(forbidden)}")


def test_criterion_10_byte_identical_reports(capsys):
    argvs = [
        ["check", "--builtin", "sphere_3", "--identity", "walker",
         "--samples", str(SAMPLES), "--seed", str(SEED)],
        ["verify-theorem", "--builtin", "ppwave_recurrent",
         "--samples", str(SAMPLES), "--seed", str(SEED)],
        ["fit", "--builtin", "surface_power", "--target", "R",
         "--samples", str(SAMPLES), "--seed", str(SEED)],
    ]
    ok = True
    for argv in argvs:
        rc1 = run(argv)
        out1 = capsys.readouterr().out
        rc2 = run(argv)
        out2 = capsys.readouterr().out
        doc = json.loads(out1)
        ok = ok and rc1 == rc2 == 0 and out1 == out2
        ok = ok and doc["classification"] != "concircularly-recurrent"
    with capsys.disabled():
        report(10, "deterministic reports", ok,
               f"{len(argvs)} argv sets, two runs each, byte-identical")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
