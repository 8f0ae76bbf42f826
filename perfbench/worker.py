"""Child process of the concirc benchmark; started by run.py.

    python3 perfbench/worker.py '<job as JSON>'

Modes:
  prepare  write the generated metric file, report the catalog's expectations
  cli      one ``concirc`` invocation through ``concirc.cli.run``, traced
  sweep    one pass over the random-chart panel in a warm process
  dense    build the dense charts, then evaluate fresh point blocks

The worker prints JSON lines on stdout: ``{"event": "ready"}`` when set-up
is done, one ``{"event": "op"}`` per timed op, and ``{"event": "end"}`` with
the spans last.  With ``"trace": true`` every public call is spanned (see
spans.py); without it no wrapper is installed.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

import gate
from spans import Recorder, install, maxrss_kb, span

DENSE_CHARTS = ("ppwave_recurrent", "perturbed_flat")
# Dim-3 members of the family cost 1-8 s and 0.2-6.8 GB per classify,
# depending on the seed; dim 2 keeps the generated chart's cost steady and
# the builtin perturbed_flat carries the dim-3 symbolic load.
METRIC_FILE_DIM = 2


def metric_file_chart(seed: int, catalog, ex):
    """First dim-2 family member from ``seed`` on that has its off-diagonal
    bump, so that every seed gives a chart of the same shape and cost."""
    while True:
        chart = catalog.random_perturbed_flat(seed, dim=METRIC_FILE_DIM)
        if chart.metric[0, 1] is not ex.ZERO:
            return chart
        seed += 1


def emit(**msg) -> None:
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def constant_lambda(entry, ex):
    """Expected recurrence form as numbers, when it is constant."""
    if entry.expected_lambda is None:
        return None
    out = {}
    for coord, text in entry.expected_lambda.items():
        e = ex.parse(text, entry.chart.coordinates)
        if ex.variables(e):
            return None
        out[coord] = ex.evaluate(e, {})
    return out


def run_prepare(job, rec) -> None:
    import numpy as np
    from concirc import catalog
    from concirc import expressions as ex

    chart = metric_file_chart(job["seed"], catalog, ex)
    n = chart.n
    spec = {
        "name": chart.name,
        "dim": n,
        "coordinates": list(chart.coordinates),
        "metric": [[ex.to_string(chart.metric[i, j]) for j in range(n)] for i in range(n)],
        "domain": {c: list(chart.domain[c]) for c in chart.coordinates},
        "exclusions": [],
    }
    with open(job["metric_path"], "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
    loaded = catalog.load_metric_spec(job["metric_path"])
    if any(loaded.metric[i, j] is not chart.metric[i, j]
           for i in range(n) for j in range(n)):
        raise SystemExit("metric file does not round-trip")
    expect = {
        name: {"verdict": catalog.get_builtin(name).expected_verdict,
               "lambda": constant_lambda(catalog.get_builtin(name), ex)}
        for name in catalog.builtin_names()
    }
    emit(event="ready", chart=chart.name, expect=expect,
         numpy=np.__version__)


def run_cli(job, rec) -> None:
    from concirc import cli

    emit(event="ready")
    out = io.StringIO()
    t0 = time.perf_counter()
    with span(rec, "cli.run"), redirect_stdout(out):
        rc = cli.run(job["argv"])
    emit(event="op", k=0, t=time.perf_counter() - t0, rc=rc,
         stdout=out.getvalue(), rss_kb=maxrss_kb())


def run_sweep(job, rec) -> None:
    import numpy as np
    from concirc import catalog, geometry, identities

    emit(event="ready", numpy=np.__version__)
    for k, chart_seed in enumerate(job["panel"]):
        if rec:
            rec.op = k
        t0 = time.perf_counter()
        with span(rec, "op"):
            chart = catalog.random_perturbed_flat(chart_seed)
            bundle = geometry.curvature_bundle_at(chart)
            points = chart.sample_points(
                np.random.default_rng([job["seed"], chart_seed]), job["samples"]
            )
            walker = identities.check_walker_at(bundle, points)
            b1 = identities.check_bianchi_at(bundle, "first", points)
            bundle.nabla_riemann()
            b2 = identities.check_bianchi_at(bundle, "second", points)
        dt = time.perf_counter() - t0
        emit(event="op", k=k, label=chart.name, t=dt, rss_kb=maxrss_kb(),
             problem=gate.sweep_problem(walker, b1, b2))


def run_dense(job, rec) -> None:
    import numpy as np
    from concirc import catalog, geometry, identities, recurrence
    from concirc import expressions as ex

    charts = []
    for name in DENSE_CHARTS:
        entry = catalog.get_builtin(name)
        bundle = geometry.curvature_bundle_at(entry.chart)
        bundle.nabla_riemann()
        bundle.nabla_concircular()
        expect = {"verdict": entry.expected_verdict,
                  "lambda": constant_lambda(entry, ex)}
        charts.append((entry.chart, bundle, expect))

    def block(k):
        """Run one block; the gate runs after the timed work."""
        t0 = time.perf_counter()
        outs = []
        for chart, bundle, expect in charts:
            rng = np.random.default_rng([job["seed"], job["child"], k])
            points = chart.sample_points(rng, job["points"])
            outs.append((
                bundle, expect,
                identities.check_walker_at(bundle, points),
                identities.check_bianchi_at(bundle, "first", points),
                identities.check_bianchi_at(bundle, "second", points),
                identities.check_semisymmetry_at(bundle, points),
                recurrence.classify(bundle, points),
                recurrence.verify_theorem(bundle, points),
            ))
        dt = time.perf_counter() - t0
        problems = []
        for bundle, expect, w, b1, b2, semi, verdict, theorem in outs:
            lam = None
            if not theorem.skipped:
                fit = theorem.c_fit
                values = bundle.field_values(fit.lam, fit.admitted_points)
                coords = bundle.chart.coordinates
                lam = {c: values[:, a] for a, c in enumerate(coords)}
            problem = gate.dense_problem(expect, w, b1, b2, semi, verdict, theorem, lam)
            if problem:
                problems.append(f"{bundle.chart.name}: {problem}")
        return dt, "; ".join(problems) or None

    # the first block pays the symbolic recurrence quotients and fills the
    # simplifier's caches; it is set-up, not an op
    _, problem = block(0)
    emit(event="ready", problem=problem, numpy=np.__version__)
    t_ready = time.perf_counter()
    k = 0
    while True:
        if "ops" in job:
            if k >= job["ops"]:
                break
        elif k and time.perf_counter() - t_ready >= job["budget"]:
            break
        k += 1
        if rec:
            rec.op = k
        with span(rec, "op"):
            dt, problem = block(k)
        emit(event="op", k=k, t=dt, rss_kb=maxrss_kb(), problem=problem)


MODES = {"prepare": run_prepare, "cli": run_cli, "sweep": run_sweep, "dense": run_dense}


def main() -> None:
    job = json.loads(sys.argv[1])
    rec = Recorder() if job["trace"] else None
    with span(rec, "catalog.import"):
        import concirc
        import concirc.cli  # noqa: F401  (the CLI module is part of the package import)
    src = os.path.realpath(job["src"])
    if not os.path.realpath(concirc.__file__).startswith(src + os.sep):
        raise SystemExit(f"concirc imported from {concirc.__file__}, not from {src}")
    if rec:
        install(rec)
    MODES[job["mode"]](job, rec)
    emit(event="end", spans=rec.records if rec else [])


if __name__ == "__main__":
    main()
