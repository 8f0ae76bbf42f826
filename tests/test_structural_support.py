"""The checks over their structural support read as over the full arrays.

The Bianchi sums, the recurrence fits, the extended recurrence residual and
the global maxima of ``classify`` run only over the component slots where
some input is not the exact ZERO node; everywhere else every addend is 0.0.
Each must equal, byte for byte, the same formula over the full arrays
(``tests/reference.py``): on every builtin (the flat ones have an empty
support), on random charts and on the theorem's witness family, where mu
is not ZERO.
"""

import numpy as np
import pytest

import concirc.expressions as ex
from concirc.catalog import builtin_names, get_builtin, random_perturbed_flat
from concirc.geometry import TensorField, curvature_bundle_at
from concirc.identities import HypothesisError, _cycle, _cyclic, check_bianchi_at
from concirc.recurrence import (
    check_extended_recurrence,
    classify,
    compute_mu,
    fit_recurrence_form,
    zero_one_form,
)
from reference import bianchi_full, extended_recurrence_full, fit_values_full
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
    assert b._support(b.nabla_riemann()).size == size


def test_the_narrow_chart_has_its_largest_c_outside_r_support():
    b = curvature_bundle_at(_narrow_x4())
    pts = b.chart.sample_points(42, 20)
    c = np.abs(b.values_at(pts)["concircular"]).reshape(len(pts), -1)
    assert np.unravel_index(c.argmax(), c.shape)[1] not in b._support(b.riemann)


@pytest.mark.parametrize("seed", range(4))
def test_a_cyclic_sum_over_a_support_is_the_full_sum(seed):
    # random values that do not satisfy the identity, on a random support,
    # so every kept slot can decide the maximum
    rng = np.random.default_rng(seed)
    shape = (3, 3, 3, 3)
    support = np.flatnonzero(rng.random(81) < 0.1)
    arr = np.zeros((5, 81))
    arr[:, support] = rng.standard_normal((5, len(support)))
    arr = arr.reshape((5,) + shape)
    specs = ("pxywz->pwxyz", "pywxz->pwxyz")
    full = (arr + np.einsum(specs[0], arr) + np.einsum(specs[1], arr)).reshape(5, -1)
    cycle = _cycle(shape, specs, support)
    _same(_cyclic(arr.reshape(5, -1), cycle), full[:, cycle[0]])
    assert not full[:, np.setdiff1d(np.arange(81), cycle[0])].any()
