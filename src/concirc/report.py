"""Deterministic report serialization.

JSON is emitted by hand so that float formatting (17 significant digits)
and key order are stable across runs and platforms; byte-identical output
for identical inputs is part of the command-line contract.
"""

from __future__ import annotations

import math

__all__ = ["CAVEAT", "dumps", "render_text"]

CAVEAT = (
    "verdicts and residuals are evidence at the sampled points only; "
    "a finite sample cannot certify global statements about a chart"
)


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(float(x), ".17g")


def _escape(s: str) -> str:
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def dumps(obj, indent: int = 0) -> str:
    """Serialize to JSON with stable key order and fixed float format."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{inner}"{_escape(str(k))}": {dumps(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{inner}{dumps(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    # numpy scalars and anything float-like fall through here
    try:
        return _fmt_float(float(obj))
    except (TypeError, ValueError):
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def render_text(doc: dict) -> str:
    """Human-readable rendering of a report document."""
    lines = []
    lines.append(f"metric: {doc['metric']}  (dim {doc['dim']})")
    lines.append(
        f"seed: {doc['seed']}  tolerance: {_fmt_float(doc['tolerance'])}"
    )
    lines.append(f"classification: {doc['classification']}")
    for i, pt in enumerate(doc.get("points", [])):
        coords = ", ".join(f"{k}={v:.6g}" for k, v in pt["coords"].items())
        lines.append(f"point {i}: ({coords})  r = {pt['scalar_curvature']:.6g}")
        if pt.get("lambda") is not None:
            lam = ", ".join(f"{k}={v:.6g}" for k, v in pt["lambda"].items())
            lines.append(f"  lambda: {lam}")
        if pt.get("mu_norm") is not None:
            lines.append(f"  |mu| = {pt['mu_norm']:.3e}")
        if pt.get("components") is not None:
            for name, val in pt["components"].items():
                lines.append(f"  {name}: {val}")
        if not pt["checks"]:
            lines.append("  (no checks at this point)")
        for ch in pt["checks"]:
            status = "pass" if ch["pass"] else "FAIL"
            lines.append(
                f"  {ch['name']}: residual {ch['residual']:.3e} "
                f"(scale {ch['scale']:.3e}) [{status}]"
            )
    summary = doc["summary"]
    lines.append(
        f"summary: all_pass={str(summary['all_pass']).lower()} "
        f"skipped={summary['skipped']}"
    )
    if summary.get("skip_reason") is not None:
        lines.append(f"skip reason: {summary['skip_reason']}")
    lines.append(f"note: {doc['caveat']}")
    return "\n".join(lines) + "\n"
