"""The checks read as over the full arrays.

The Bianchi sums, the recurrence fits, the extended recurrence residual and
the global maxima of ``classify`` read one slot per distinct combination of
nodes (``CurvatureBundle._one_per_node``, which says why that leaves every
maximum unchanged). Each must equal, byte for byte, the same formula over
the full arrays (``tests/reference.py``): on every builtin (the flat ones
are ZERO node for node), on random charts and on the theorem's witness
family, where mu is not ZERO.
"""

import numpy as np
import pytest

import concirc.expressions as ex
from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat
from concirc.geometry import TensorField, curvature_bundle_at
from concirc.identities import HypothesisError, _cycle, check_bianchi_at
from concirc.recurrence import (
    _field_max,
    _gap_reads,
    _recurrence_form,
    _target_fields,
    check_extended_recurrence,
    classify,
    compute_mu,
    fit_recurrence_form,
    zero_one_form,
)
from reference import bianchi_full, extended_recurrence_full, fit_values_full, support
from test_theorem_witness import WITNESSES, _witness
from test_theorem_witness import _chart as _witness_chart

CHARTS = (
    [f"builtin:{name}" for name in builtin_names()]
    + [f"random:{seed}" for seed in range(8)]
    + [f"witness:{name}" for name in WITNESSES]
    + ["narrow:x4"]
)


def _narrow_x4():
    """dx^2 + x^4 dy^2 + dz^2 near x = 1/2, where |C| is largest at slots
    such as (x, z, x, z), where R is the ZERO node: C there is -r/6 G."""
    return _witness_chart("x4_narrow", "xyz", ("1", "x^4", "1"),
                          domain={"x": (0.5, 0.6), "y": (-2.0, 2.0), "z": (-2.0, 2.0)})


def _chart(label):
    kind, name = label.split(":")
    if kind == "builtin":
        return get_builtin(name).chart
    if kind == "random":
        return random_perturbed_flat(int(name))
    if kind == "narrow":
        return _narrow_x4()
    return _witness(name)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module", params=CHARTS)
def case(request):
    b = curvature_bundle_at(_chart(request.param))
    return b, b.chart.sample_points(42, 20)


def test_bianchi_sums_match_the_full_arrays(case):
    b, pts = case
    for kind in ("first", "second"):
        rep = check_bianchi_at(b, kind, pts)
        residuals, scales = bianchi_full(b, kind, pts)
        _same(rep.residuals, residuals)
        _same(rep.scales, scales)


def test_fits_match_the_full_arrays(case):
    b, pts = case
    for target in ("R", "C"):
        try:
            magnitudes, admitted, residuals = fit_values_full(b, target, pts)
        except HypothesisError:  # the target is ZERO node for node
            with pytest.raises(HypothesisError, match="vanishes identically"):
                fit_recurrence_form(b, target, pts)
            continue
        if not admitted.any():
            with pytest.raises(HypothesisError, match="numerically zero"):
                fit_recurrence_form(b, target, pts)
            continue
        fit = fit_recurrence_form(b, target, pts)
        _same(fit.magnitudes, magnitudes)
        _same(fit.admitted, admitted)
        _same(fit.residuals, residuals)


def test_extended_recurrence_matches_the_full_arrays(case):
    b, pts = case
    n = b.n
    zero = zero_one_form(n)
    # sin(0) is not the ZERO node, so it takes the mu (x) G path
    vanishing = TensorField(n, 1, np.array([ex.sin(ex.ZERO)] * n, dtype=object))
    # lambda = 0 runs on every chart, flat ones included; a fitted lambda
    # at the points its fit admits, where it is finite
    forms = [(zero, pts)]
    for target in ("R", "C"):
        try:
            fit = fit_recurrence_form(b, target, pts)
        except HypothesisError:
            continue
        forms.append((fit.lam, fit.admitted_points))
    for lam, at in forms:
        for mu in (zero, vanishing, compute_mu(b, lam).mu):
            rep = check_extended_recurrence(b, lam, mu, at)
            _same(rep.residuals, extended_recurrence_full(b, lam, mu, at))
            _same(rep.scales, np.zeros(len(at)))


def test_classify_maxima_match_the_full_arrays(case):
    b, pts = case
    vals = b.values_at(pts)
    full = {
        "riemann_max": np.max(np.abs(vals["riemann"])),
        "concircular_max": np.max(np.abs(vals["concircular"])),
        "nabla_riemann_max": np.max(np.abs(b.field_values(b.nabla_riemann(), pts))),
    }
    evidence = classify(b, pts).evidence
    assert "riemann_max" in evidence
    for key, want in full.items():
        if key in evidence:
            assert np.float64(evidence[key]).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "name, size",
    [("flat_euclidean_3", 0), ("minkowski_4", 0), ("ppwave_recurrent", 8), ("perturbed_flat", 108)],
)
def test_the_builtins_cover_empty_sparse_and_dense_supports(name, size):
    b = curvature_bundle_at(get_builtin(name).chart)
    assert support(b.nabla_riemann()).size == size


def test_the_narrow_chart_has_its_largest_c_outside_r_support():
    b = curvature_bundle_at(_narrow_x4())
    pts = b.chart.sample_points(42, 20)
    c = np.abs(b.values_at(pts)["concircular"]).reshape(len(pts), -1)
    assert np.unravel_index(c.argmax(), c.shape)[1] not in support(b.riemann)


def _read_plans(b, pts):
    """(reads over every position, kept positions) of each read plan the
    checks make on b: the maxima of R, G, C and nabla R, both Bianchi
    cycles, and the R- and C-fit gaps where the target is not ZERO."""
    plans = []
    for field in (b.riemann, b.gtensor, b.concircular, b.nabla_riemann()):
        _field_max(b, field, pts)
        every = np.arange(field.components.size)
        plans.append(([(field, every)], b._derived[("max slots", field.key)]))
    for kind, field in (("first", b.riemann), ("second", b.nabla_riemann())):
        check_bianchi_at(b, kind, pts)
        (_, _, specs), kept = next((key, value) for key, value in b._derived.items()
                                   if key[:2] == ("cycle", field.key))
        cycle = _cycle(field.components.shape, specs)
        plans.append(([(field, i) for i in cycle], kept[0]))
    for target in ("R", "C"):
        tensor, grad = _target_fields(b, target)
        try:
            lam = _recurrence_form(b, target)
        except HypothesisError:  # the target is ZERO node for node
            continue
        every = np.arange(grad.components.size)
        a, s = np.divmod(every, tensor.components.size)
        kept = _gap_reads(b, grad, [(lam, tensor)])[0]
        plans.append(([(grad, every), (lam, a), (tensor, s)], kept))
    return plans


@pytest.mark.parametrize("label", [f"builtin:{name}" for name in builtin_names()]
                         + [f"random:{seed}" for seed in range(3)])
def test_each_read_plan_keeps_one_position_per_node_combination(label):
    b = curvature_bundle_at(_chart(label))
    plans = _read_plans(b, b.chart.sample_points(42, 20))
    assert len(plans) >= 6
    for reads, kept in plans:
        combinations = list(zip(*([tf.key[i] for i in slots.tolist()] for tf, slots in reads)))
        read = [combinations[p] for p in kept.tolist()]
        assert len(set(read)) == len(read)  # no two kept positions read the same nodes
        assert set(read) == set(combinations)  # and every combination is read
