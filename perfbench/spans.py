"""Span recorder that times calls into concirc's public API from outside.

Nothing in ``src/`` is changed.  ``install`` swaps every binding of a
public function (in the module that defines it and in every concirc module
that imported it by name) and a few ``CurvatureBundle``/``MetricChart``
methods for wrappers that open a span around the call.  A span records its
name, parent, op, start and end (``time.perf_counter``), and ``ru_maxrss``
before and after.  Spans stay in memory until the worker sends them to the
harness at the end.

Node counts walk ``.args`` of the built tensors.  The walk runs in a
``trace.count`` span of its own, so it is never charged to a layer.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager, nullcontext


def maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "rss0": maxrss_kb(),
            "start": time.perf_counter(),
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["rss1"] = maxrss_kb()
            self._stack.pop()


def span(rec: Recorder | None, name: str):
    """A span when tracing, otherwise a no-op context."""
    return nullcontext({}) if rec is None else rec.span(name)


def count_nodes(exprs) -> int:
    """Distinct Expr nodes reachable from ``exprs`` through ``.args``."""
    seen: set[int] = set()
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node.args)
    return len(seen)


def _bundle_exprs(bundle):
    for arr in (
        bundle.chart.metric,
        bundle.inverse_metric,
        bundle.christoffel,
        bundle.riemann_13,
        bundle.riemann.components,
        bundle.ricci.components,
        bundle.gtensor.components,
        bundle.concircular.components,
    ):
        yield from arr.ravel()
    yield bundle.scalar_curvature


def _counted(rec, target, key, exprs):
    with rec.span("trace.count"):
        target[key] = count_nodes(exprs)


def install(rec: Recorder) -> None:
    """Open a span around each public call that the layers make."""
    import concirc
    from concirc import catalog, cli, geometry, identities, recurrence, report

    modules = (concirc, catalog, cli, geometry, identities, recurrence, report)

    def plain(name):
        def wrap(fn):
            def wrapped(*args, **kwargs):
                with rec.span(name):
                    return fn(*args, **kwargs)
            return wrapped
        return wrap

    def bundle_wrap(fn):
        def wrapped(*args, **kwargs):
            with rec.span("geometry.bundle") as s:
                bundle = fn(*args, **kwargs)
            _counted(rec, s, "nodes", _bundle_exprs(bundle))
            return bundle
        return wrapped

    def bianchi_wrap(fn):
        def wrapped(bundle, kind, *args, **kwargs):
            name = "identities.bianchi1" if kind == "first" else "identities.bianchi2"
            with rec.span(name):
                return fn(bundle, kind, *args, **kwargs)
        return wrapped

    def fit_wrap(fn):
        def wrapped(bundle, target, *args, **kwargs):
            with rec.span(f"recurrence.fit_{target}") as s:
                fit = fn(bundle, target, *args, **kwargs)
                s["admitted"] = int(fit.admitted.sum())
            return fit
        return wrapped

    def dumps_wrap(fn):
        def wrapped(*args, **kwargs):
            with rec.span("report.dumps") as s:
                text = fn(*args, **kwargs)
            s["bytes"] = len(text.encode("utf-8"))
            return text
        return wrapped

    functions = {
        catalog.get_builtin: plain("catalog.chart"),
        catalog.load_metric_spec: plain("catalog.chart"),
        catalog.random_perturbed_flat: plain("catalog.chart"),
        geometry.curvature_bundle_at: bundle_wrap,
        identities.check_walker_at: plain("identities.walker"),
        identities.check_bianchi_at: bianchi_wrap,
        identities.check_semisymmetry_at: plain("identities.semisym"),
        recurrence.fit_recurrence_form: fit_wrap,
        recurrence.classify: plain("recurrence.classify"),
        recurrence.verify_theorem: plain("recurrence.verify_theorem"),
        report.dumps: dumps_wrap,
    }
    wrapped = {fn: make(fn) for fn, make in functions.items()}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            # report.dumps recurses through its module global; only the
            # outer call from another module is a layer boundary
            if mod is report and value is report.dumps:
                continue
            if callable(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])

    chart_cls = geometry.MetricChart
    chart_cls.sample_points = plain("geometry.sample")(chart_cls.sample_points)
    bundle_cls = geometry.CurvatureBundle
    bundle_cls.values_at = plain("geometry.values_at")(bundle_cls.values_at)
    bundle_cls.field_values = plain("geometry.field_values")(bundle_cls.field_values)

    def nabla_wrap(method, key):
        # only the call that builds the derivative is a span; later calls
        # are dictionary lookups on the bundle
        def wrapped(self):
            if key in self._derived:
                return method(self)
            with rec.span(f"geometry.{key}") as s:
                field = method(self)
            _counted(rec, s, "nodes", field.components.ravel())
            return field
        return wrapped

    bundle_cls.nabla_riemann = nabla_wrap(bundle_cls.nabla_riemann, "nabla_riemann")
    bundle_cls.nabla_concircular = nabla_wrap(
        bundle_cls.nabla_concircular, "nabla_concircular"
    )
