"""Builtin charts covering every classification branch, plus the file loader.

Expected values attached to the entries are re-derived by the test suite;
they document what the pipeline must reproduce, they are never fed back
into the computation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import expressions as ex
from .geometry import GeometryError, MetricChart

__all__ = [
    "CatalogEntry",
    "MetricFileError",
    "builtin_names",
    "get_builtin",
    "load_metric_spec",
    "random_perturbed_flat",
]

LOADER_SAMPLE_SEED = 42
LOADER_SAMPLE_COUNT = 20


class MetricFileError(GeometryError):
    """A metric specification file failed to parse or validate."""


@dataclass(frozen=True)
class CatalogEntry:
    """A chart plus the values the pipeline is expected to reproduce.

    expected_scalar is the constant scalar curvature where there is one;
    expected_lambda maps coordinate names to expression strings for the
    recurrence form of charts that have a known one.
    """

    chart: MetricChart
    expected_verdict: str
    expected_scalar: float | None
    expected_lambda: dict | None
    note: str


def _chart(name, coords, entries, domain, exclusions=()):
    n = len(coords)
    g = np.empty((n, n), dtype=object)
    g[:] = ex.ZERO
    for (i, j), s in entries.items():
        g[i, j] = ex.parse(s, coords)
        if i != j:
            g[j, i] = g[i, j]
    excl = tuple(ex.parse(s, coords) for s in exclusions)
    return MetricChart(name, tuple(coords), g, domain, excl)


def _box(coords, lo=-2.0, hi=2.0):
    return {c: (lo, hi) for c in coords}


def _build_catalog() -> dict:
    entries = {}

    coords = ("x", "y", "z")
    entries["flat_euclidean_3"] = CatalogEntry(
        chart=_chart("flat_euclidean_3", coords, {(0, 0): "1", (1, 1): "1", (2, 2): "1"},
                     _box(coords)),
        expected_verdict="flat",
        expected_scalar=0.0,
        expected_lambda=None,
        note="identity metric; every curvature quantity vanishes",
    )

    coords = ("t", "x", "y", "z")
    entries["minkowski_4"] = CatalogEntry(
        chart=_chart("minkowski_4", coords,
                     {(0, 0): "-1", (1, 1): "1", (2, 2): "1", (3, 3): "1"},
                     _box(coords)),
        expected_verdict="flat",
        expected_scalar=0.0,
        expected_lambda=None,
        note="constant indefinite metric; flat with signature (-,+,+,+)",
    )

    coords = ("theta", "phi")
    entries["sphere_2"] = CatalogEntry(
        chart=_chart("sphere_2", coords, {(0, 0): "1", (1, 1): "sin(theta)^2"},
                     {"theta": (0.15, 2.99), "phi": (0.0, 6.28)},
                     exclusions=("sin(theta)",)),
        expected_verdict="constant-curvature",
        expected_scalar=2.0,
        expected_lambda=None,
        note="unit round sphere; K = 1 so r = n(n-1)K = 2",
    )

    coords = ("a", "b", "c")
    entries["sphere_3"] = CatalogEntry(
        chart=_chart("sphere_3", coords,
                     {(0, 0): "1", (1, 1): "sin(a)^2", (2, 2): "sin(a)^2*sin(b)^2"},
                     {"a": (0.2, 2.9), "b": (0.2, 2.9), "c": (0.0, 6.28)},
                     exclusions=("sin(a)", "sin(b)")),
        expected_verdict="constant-curvature",
        expected_scalar=6.0,
        expected_lambda=None,
        note="unit round 3-sphere; K = 1 so r = n(n-1)K = 6",
    )

    coords = ("x", "y")
    entries["hyperbolic_2"] = CatalogEntry(
        chart=_chart("hyperbolic_2", coords,
                     {(0, 0): "1/y^2", (1, 1): "1/y^2"},
                     {"x": (-2.0, 2.0), "y": (0.5, 3.0)}),
        expected_verdict="constant-curvature",
        expected_scalar=-2.0,
        expected_lambda=None,
        note="upper half-plane; K = -1 so r = -2",
    )

    coords = ("x", "y")
    entries["surface_power"] = CatalogEntry(
        chart=_chart("surface_power", coords, {(0, 0): "1", (1, 1): "x^4"},
                     {"x": (0.5, 3.0), "y": (-2.0, 2.0)}),
        expected_verdict="recurrent",
        expected_scalar=None,
        expected_lambda={"x": "-(2/x)", "y": "0"},
        note="surface with r = -4/x^2, nonvanishing and nonconstant on the "
             "domain; realizes the recurrence form d(ln|r|)",
    )

    coords = ("u", "v", "x", "y")
    entries["ppwave_recurrent"] = CatalogEntry(
        chart=_chart("ppwave_recurrent", coords,
                     {(0, 0): "exp(u)*(x^2 - y^2)", (0, 1): "1",
                      (2, 2): "1", (3, 3): "1"},
                     {"u": (-1.5, 1.5), "v": (-1.5, 1.5),
                      "x": (-1.5, 1.5), "y": (-1.5, 1.5)}),
        expected_verdict="recurrent",
        expected_scalar=0.0,
        expected_lambda={"u": "1", "v": "0", "x": "0", "y": "0"},
        note="plane-fronted wave with H = e^u (x^2 - y^2): Ricci-flat, "
             "recurrent with form du; the classical nonsymmetric recurrent "
             "family",
    )

    coords = ("x", "y", "z")
    entries["perturbed_flat"] = CatalogEntry(
        chart=_chart("perturbed_flat", coords,
                     {(0, 0): "1 + 1/100*sin(x)*cos(y)",
                      (1, 1): "1 + 1/100*sin(y)*cos(z)",
                      (2, 2): "1 + 1/100*sin(z)*cos(x)",
                      (0, 1): "1/200*sin(x + z)"},
                     _box(coords)),
        expected_verdict="generic",
        expected_scalar=None,
        expected_lambda=None,
        note="flat metric plus epsilon = 1/100 smooth bumps; negative "
             "control, no recurrence structure",
    )
    return entries


_CATALOG = _build_catalog()


def builtin_names() -> tuple:
    """Stable, sorted public list of builtin chart names."""
    return tuple(sorted(_CATALOG))


def get_builtin(name: str) -> CatalogEntry:
    entry = _CATALOG.get(name)
    if entry is None:
        known = ", ".join(builtin_names())
        raise GeometryError(f"unknown builtin metric {name!r}; known: {known}")
    return entry


def random_perturbed_flat(
    seed: int, dim: int = 3, epsilon: Fraction = Fraction(1, 100)
) -> MetricChart:
    """Flat metric plus small exact-rational trigonometric bumps.

    Each diagonal entry gets 1 + epsilon sin(x_a) cos(x_b) for randomly
    chosen coordinates; each off-diagonal pair is included with
    probability one half as (epsilon/2) sin(x_a + x_b).  All coefficients
    are exact rationals so charts round-trip through printing.
    """
    rng = np.random.default_rng(seed)
    coords = tuple(f"x{i}" for i in range(dim))
    eps = ex.const(epsilon)
    half_eps = ex.const(epsilon / 2)
    g = np.empty((dim, dim), dtype=object)
    g[:] = ex.ZERO
    for i in range(dim):
        a, b = rng.integers(0, dim, size=2)
        bump = ex.mul(eps, ex.mul(ex.sin(ex.var(coords[a])), ex.cos(ex.var(coords[b]))))
        g[i, i] = ex.add(ex.ONE, bump)
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.5:
                a, b = rng.integers(0, dim, size=2)
                arg = ex.add(ex.var(coords[a]), ex.var(coords[b]))
                g[i, j] = g[j, i] = ex.mul(half_eps, ex.sin(arg))
    return MetricChart(
        f"perturbed_flat_{seed}", coords, g, {c: (-2.0, 2.0) for c in coords}
    )


def _require(cond, msg):
    if not cond:
        raise MetricFileError(msg)


def load_metric_spec(path) -> MetricChart:
    """Load and validate a metric chart from a JSON file.

    The upper triangle of the metric is authoritative; any lower-triangle
    entry must simplify to the same expression.  Nondegeneracy is probed at
    20 seeded sample points and a degenerate point is reported verbatim.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as e:
        raise MetricFileError(f"{path}: cannot read file ({e})") from e
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise MetricFileError(
            f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e

    _require(isinstance(doc, dict), f"{path}: top level must be an object")
    for key in ("name", "dim", "coordinates", "metric", "domain"):
        _require(key in doc, f"{path}: missing required key {key!r}")
    name = doc["name"]
    _require(isinstance(name, str) and name, f"{path}: 'name' must be a nonempty string")
    dim = doc["dim"]
    _require(isinstance(dim, int) and dim >= 2, f"{path}: 'dim' must be an integer >= 2")
    coords = doc["coordinates"]
    _require(
        isinstance(coords, list) and len(coords) == dim
        and all(isinstance(c, str) for c in coords),
        f"{path}: 'coordinates' must list {dim} names",
    )
    _require(len(set(coords)) == dim, f"{path}: duplicate coordinate names")

    rows = doc["metric"]
    _require(
        isinstance(rows, list) and len(rows) == dim
        and all(isinstance(r, list) and len(r) == dim for r in rows),
        f"{path}: 'metric' must be a {dim}x{dim} matrix of expression strings",
    )

    def parse_entry(i, j):
        s = rows[i][j]
        _require(isinstance(s, str), f"{path}: metric[{i}][{j}] must be a string")
        try:
            return ex.parse(s, coords)
        except (ex.ParseError, ex.UnknownIdentifierError) as e:
            raise MetricFileError(f"{path}: metric[{i}][{j}]: {e}") from e

    g = np.empty((dim, dim), dtype=object)
    for i in range(dim):
        for j in range(dim):
            g[i, j] = parse_entry(i, j)

    domain_doc = doc["domain"]
    _require(isinstance(domain_doc, dict), f"{path}: 'domain' must be an object")
    domain = {}
    for c in coords:
        _require(c in domain_doc, f"{path}: no domain interval for coordinate {c!r}")
        iv = domain_doc[c]
        _require(
            isinstance(iv, list) and len(iv) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in iv)
            and iv[0] < iv[1],
            f"{path}: domain[{c!r}] must be two numbers [lo, hi] with lo < hi",
        )
        try:
            domain[c] = (float(iv[0]), float(iv[1]))
        except OverflowError:  # an integer literal beyond the float range
            raise MetricFileError(f"{path}: domain[{c!r}] is not finite") from None

    exclusions = []
    for k, s in enumerate(doc.get("exclusions", [])):
        _require(isinstance(s, str), f"{path}: exclusions[{k}] must be a string")
        try:
            exclusions.append(ex.parse(s, coords))
        except (ex.ParseError, ex.UnknownIdentifierError) as e:
            raise MetricFileError(f"{path}: exclusions[{k}]: {e}") from e

    try:
        chart = MetricChart(name, tuple(coords), g, domain, tuple(exclusions))
        chart.sample_points(LOADER_SAMPLE_SEED, LOADER_SAMPLE_COUNT)
    except MetricFileError:
        raise
    except (GeometryError, ex.DomainError) as e:
        raise MetricFileError(f"{path}: {e}") from e
    return chart
