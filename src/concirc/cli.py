"""Command-line front end.

Subcommands
    compute         curvature components at one point
    check           one identity (walker | bianchi1 | bianchi2 | semisym)
    fit             recurrence-form fit for R or C
    classify        chart verdict
    verify-theorem  the concircular-recurrence implication chain
    list-builtins   published builtin chart names

A verify-theorem report's summary also says why the theorem was skipped
(``skip_reason``, null when it was not).

Exit codes: 0 all checks passed or were skipped, 1 at least one check
failed, 2 bad input or configuration.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import expressions as ex
from .catalog import MetricFileError, builtin_names, get_builtin, load_metric_spec
from .geometry import GeometryError, curvature_bundle_at
from .identities import check_bianchi_at, check_semisymmetry_at, check_walker_at
from .recurrence import (
    HypothesisError,
    classify,
    fit_recurrence_form,
    verify_theorem,
)
from .report import CAVEAT, dumps, render_text

__all__ = ["main", "run"]

DEFAULT_TOL = 1e-8
_IDENTITY_CHECKS = {
    "walker": lambda bundle, pts, tol: check_walker_at(bundle, pts, tol),
    "bianchi1": lambda bundle, pts, tol: check_bianchi_at(bundle, "first", pts, tol),
    "bianchi2": lambda bundle, pts, tol: check_bianchi_at(bundle, "second", pts, tol),
    "semisym": lambda bundle, pts, tol: check_semisymmetry_at(bundle, pts, tol),
}


class _CliError(Exception):
    """Configuration or input problem; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concirc",
        description="curvature, recurrence and concircular-recurrence checks "
        "for coordinate metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_point=False):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--builtin", metavar="NAME", help="builtin chart name")
        src.add_argument("--metric", metavar="PATH", help="metric specification file")
        p.add_argument("--samples", type=int, default=20, metavar="N",
                       help="number of sample points (default 20)")
        p.add_argument("--seed", type=int, default=42, metavar="N",
                       help="sampling seed, >= 0 (default 42)")
        p.add_argument("--tol", type=float, default=DEFAULT_TOL, metavar="X",
                       help="tolerance, positive and finite (default 1e-8)")
        out = p.add_mutually_exclusive_group()
        out.add_argument("--json", metavar="PATH", default=None,
                         help="write the JSON report to PATH instead of stdout")
        out.add_argument("--text", action="store_true",
                         help="print a human-readable report instead of JSON")
        if with_point:
            p.add_argument("--point", metavar="ASSIGNS", default=None,
                           help='evaluation point, e.g. "x=1.0,y=2.0" '
                           "(default: first sampled point)")

    add_common(sub.add_parser("compute", help="curvature components at a point"),
               with_point=True)
    pc = sub.add_parser("check", help="run one identity check")
    add_common(pc)
    pc.add_argument("--identity", required=True, choices=sorted(_IDENTITY_CHECKS),
                    help="which identity to check")
    pf = sub.add_parser("fit", help="fit a recurrence form")
    add_common(pf)
    pf.add_argument("--target", required=True, choices=("R", "C"),
                    help="tensor to fit (curvature R or concircular C)")
    add_common(sub.add_parser("classify", help="classify the chart"))
    add_common(sub.add_parser("verify-theorem",
                              help="check the concircular-recurrence chain"))
    sub.add_parser("list-builtins", help="list builtin chart names")
    return parser


def _resolve_chart(args):
    if args.builtin is not None:
        return get_builtin(args.builtin).chart
    return load_metric_spec(args.metric)


def _parse_point(spec: str, chart) -> dict:
    point = {}
    for part in spec.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if not _ or name not in chart.coordinates:
            raise _CliError(
                f"bad point assignment {part.strip()!r}; coordinates are "
                f"{', '.join(chart.coordinates)}"
            )
        if name in point:
            raise _CliError(f"coordinate {name!r} is assigned twice in the point")
        try:
            point[name] = float(value)
        except ValueError:
            raise _CliError(f"bad number in point assignment {part.strip()!r}")
    missing = [c for c in chart.coordinates if c not in point]
    if missing:
        raise _CliError(f"point is missing coordinates {missing}")
    return point


def _point_entry(coords_dict, scalar, components=None):
    """A point's report entry with no checks; each command fills in its own."""
    entry = {
        "coords": {k: float(v) for k, v in coords_dict.items()},
        "scalar_curvature": float(scalar),
        "checks": [],
        "lambda": None,
        "mu_norm": None,
    }
    if components is not None:
        entry["components"] = components
    return entry


def _check_entry(name, residual, scale, ok):
    return {"name": name, "residual": float(residual), "scale": float(scale),
            "pass": bool(ok)}


def _admitted(bundle, fit, entries) -> list:
    """(k, i) for the k-th point fit admitted, sample i, in order, each
    entries[i] given its lambda; none when fit is None."""
    if fit is None:
        return []
    lamv = bundle.field_values(fit.lam, fit.admitted_points)
    index = [i for i, ok in enumerate(fit.admitted) if ok]
    for k, i in enumerate(index):
        entries[i]["lambda"] = {
            c: float(lamv[k, j]) for j, c in enumerate(bundle.chart.coordinates)
        }
    return list(enumerate(index))


def _assemble(chart, args, tol, points, point_entries, classification) -> dict:
    all_checks = [c for p in point_entries for c in p["checks"]]
    skipped = sum(1 for p in point_entries if not p["checks"])
    return {
        "metric": chart.name,
        "dim": chart.n,
        "seed": args.seed,
        "tolerance": tol,
        "points": point_entries,
        "classification": classification,
        "summary": {
            "all_pass": all(c["pass"] for c in all_checks),
            "skipped": skipped,
        },
        "caveat": CAVEAT,
    }


def _emit(doc, args) -> int:
    if getattr(args, "text", False):
        sys.stdout.write(render_text(doc))
    elif getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dumps(doc) + "\n")
    else:
        sys.stdout.write(dumps(doc) + "\n")
    return 0 if doc["summary"]["all_pass"] else 1


def _run_chart_command(args) -> int:
    chart = _resolve_chart(args)
    if args.samples < 1:
        raise _CliError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise _CliError(f"--seed must be >= 0, got {args.seed}")
    tol = args.tol
    if not (tol > 0 and math.isfinite(tol)):
        raise _CliError(f"--tol must be positive and finite, got {tol}")
    bundle = curvature_bundle_at(chart)
    points = chart.sample_points(args.seed, args.samples)
    scalars = bundle.values_at(points)["scalar"]
    verdict = classify(bundle, points, tol)
    entries = [_point_entry(p, s) for p, s in zip(points, scalars)]

    if args.command == "compute":
        target = _parse_point(args.point, chart) if args.point else points[0]
        vals = bundle.values_at([target])
        components = {
            "metric": vals["metric"][0].tolist(),
            "inverse_metric": vals["inverse_metric"][0].tolist(),
            "christoffel": vals["christoffel"][0].tolist(),
            "riemann": vals["riemann"][0].tolist(),
            "riemann_13": vals["riemann_13"][0].tolist(),
            "ricci": vals["ricci"][0].tolist(),
            "scalar_curvature": float(vals["scalar"][0]),
            "gtensor": vals["gtensor"][0].tolist(),
            "concircular": vals["concircular"][0].tolist(),
        }
        entries = [
            _point_entry(target, vals["scalar"][0], components=components)
        ]

    elif args.command == "check":
        rep = _IDENTITY_CHECKS[args.identity](bundle, points, tol)
        for i, entry in enumerate(entries):
            checks = [_check_entry(rep.identity, rep.residuals[i], rep.scales[i], rep.passes[i])]
            entry["checks"] = checks

    elif args.command == "fit":
        try:
            fit = fit_recurrence_form(bundle, args.target, points, tol)
        except HypothesisError:
            fit = None
        if fit is not None:
            _admitted(bundle, fit, entries)
            # every point is checked, an excluded one failing with a null
            # residual, so the summary passes exactly when the fit is recurrent
            for i, entry in enumerate(entries):
                entry["checks"] = [
                    _check_entry(f"fit-{args.target}", fit.residuals[i], 0.0, fit.passes[i])
                ]

    elif args.command == "classify":
        ok = not verdict.theorem_violation
        for entry in entries:
            entry["checks"] = [
                {"name": "classification", "residual": 0.0, "scale": 0.0, "pass": ok}
            ]

    elif args.command == "verify-theorem":
        rep = verify_theorem(bundle, points, tol)
        for k, i in _admitted(bundle, None if rep.skipped else rep.c_fit, entries):
            entries[i]["checks"] = [
                _check_entry(name, sub.residuals[k], sub.scales[k], sub.passes[k])
                for name, sub in rep.checks.items()
            ]
            entries[i]["mu_norm"] = float(rep.mu_check.residuals[k])

    doc = _assemble(chart, args, tol, points, entries, verdict.verdict)
    if args.command == "verify-theorem":
        doc["summary"]["skip_reason"] = rep.reason
    return _emit(doc, args)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 2

    try:
        if args.command == "list-builtins":
            for name in builtin_names():
                sys.stdout.write(name + "\n")
            return 0
        return _run_chart_command(args)
    except (_CliError, MetricFileError, GeometryError, ex.ExpressionError) as e:
        sys.stderr.write(f"concirc: error: {e}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
