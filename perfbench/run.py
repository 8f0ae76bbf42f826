"""Benchmark harness for concirc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The package is imported from ``src/``.
Each workload is a closed loop with one client and one child process at a
time:

  cli_catalog   fresh ``concirc`` processes: five subcommands over the eight
                builtins and one generated metric file
  sweep_random  warm processes, each running a fixed panel of random charts
  dense_points  warm processes that evaluate fresh point blocks on two charts

With ``--trace 0`` the last line of stdout is a JSON object that holds the
end-to-end metrics of BENCHMARK.json. With ``--trace 1`` each unit of work
runs untraced and then traced, and the object holds the per-layer metrics.
A fuller record of each run goes to perfbench/results/. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SUBCOMMANDS = (
    ("compute",),
    ("check", "--identity", "bianchi2"),
    ("fit", "--target", "C"),
    ("classify",),
    ("verify-theorem",),
)
METRIC_FILE = "metric-file"
SWEEP_PANEL = tuple(range(8))  # family seeds of random_perturbed_flat
SWEEP_SAMPLES = 20
DENSE_CHILDREN = 3
DENSE_POINTS = 200
PREPARE_REPEATS = 5
OP_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 100.0
TAIL_BEYOND = 10
# One pass of cli_catalog and of sweep_random on the reference machine (see
# README.md). A run is a fixed number of whole passes sized from --seconds.
CLI_PASS_S = 6.5
SWEEP_PASS_S = 11.0
# spans whose self time and RSS growth the cli_catalog breakdown reports
BUILD_AND_FIT = ("geometry.nabla_riemann", "geometry.nabla_concircular",
                 "recurrence.fit_R", "recurrence.fit_C")


class Child:
    """One child process: stdout read as JSON lines, stderr to a file,
    peak RSS from wait4's rusage of that child alone."""

    unreaped: set = set()  # children started and not yet waited for

    def __init__(self, argv, timeout):
        RESULTS.mkdir(exist_ok=True)
        self.err = tempfile.TemporaryFile(dir=RESULTS)
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.start = time.perf_counter()
        self.deadline = self.start + timeout
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=self.err,
                                     env=env, cwd=ROOT)
        Child.unreaped.add(self)
        self.buf = b""
        self.eof = False

    def _fill(self) -> bool:
        left = self.deadline - time.perf_counter()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            self.proc.kill()
            self.eof = True
            return False
        chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
        self.eof = not chunk
        self.buf += chunk
        return bool(chunk)

    def message(self):
        """Next JSON line and the time it arrived; None at end of output."""
        while b"\n" not in self.buf:
            if self.eof or not self._fill():
                return None, time.perf_counter()
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line), time.perf_counter()

    def messages(self):
        """Yield (message, arrival time) until end of output."""
        while True:
            msg, t = self.message()
            if msg is None:
                return
            yield msg, t

    def read_all(self) -> bytes:
        while not self.eof and self._fill():
            pass
        return self.buf

    def finish(self):
        """Reap the child: (exit code, peak RSS in KB, end time, stderr tail)."""
        self.read_all()
        _, status, usage = os.wait4(self.proc.pid, 0)
        end = time.perf_counter()
        Child.unreaped.discard(self)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.seek(0)
        err = self.err.read().decode("utf-8", "replace")[-2000:].strip()
        self.err.close()
        return self.proc.returncode, usage.ru_maxrss, end, err


def worker(mode, seed, trace, timeout=CHILD_TIMEOUT_S, **job) -> Child:
    job.update(mode=mode, seed=seed, trace=bool(trace), src=str(SRC))
    return Child([sys.executable, str(HERE / "worker.py"), json.dumps(job)], timeout)


class Run:
    """What one untraced or traced run of a workload measured."""

    def __init__(self, peak_rule=statistics.median):
        self.ops = []        # label, t, ok, problem, rss_kb
        self.setups = []     # seconds from child start to its ready message
        self.peaks_kb = []   # peak RSS of each child that did ops
        self.peak_rule = peak_rule
        self.window_s = 0.0  # time spent in ops
        self.spans = []      # span records of every traced child
        self.procs = 0
        self.notes = {}

    def op(self, label, t, problem, rss_kb):
        self.ops.append({"label": label, "t": t, "ok": problem is None,
                         "problem": problem, "rss_kb": rss_kb})

    def add_spans(self, spans, pass_index, op=None):
        for rec in spans:
            rec["proc"] = self.procs
            rec["pass"] = pass_index
            if op is not None:
                rec["op"] = op
        self.procs += 1
        self.spans.extend(spans)


def stderr_tail(err: str) -> str:
    return err.splitlines()[-1][:200] if err else ""


# ---------------------------------------------------------------------------
# cli_catalog
# ---------------------------------------------------------------------------


def prepare(seed: int, run: Run):
    """Write the metric file in fresh processes; set-up is the median of five."""
    path = RESULTS / f"metric_seed{seed}.json"
    info = None
    for _ in range(PREPARE_REPEATS):
        child = worker("prepare", seed, False, metric_path=str(path))
        msg, t_ready = child.message()
        rc, _, _, err = child.finish()
        if msg is None or rc != 0:
            raise RuntimeError(f"metric-file set-up failed (exit {rc}): {err}")
        run.setups.append(t_ready - child.start)
        info = msg
    return path.relative_to(ROOT), info


def passes(seconds: float, pass_s: float) -> int:
    """Whole passes that take about ``seconds`` on the reference machine.

    Fixed work rather than a clock: stopping at a time made the number of
    passes, and with it the op mix and the tail percentile, flip from run
    to run as this machine's speed drifted.
    """
    return max(1, round(seconds / pass_s))


def cli_argv(chart, sub, seed, metric_path):
    source = ["--metric", str(metric_path)] if chart == METRIC_FILE else ["--builtin", chart]
    return [*sub, *source, "--seed", str(seed)]


def cli_op(argv, expect, trace, seed):
    """One concirc invocation: (op record, report bytes, spans)."""
    if trace:
        child = worker("cli", seed, True, timeout=OP_TIMEOUT_S, argv=argv)
        got = {msg["event"]: msg for msg, _ in child.messages()}
        rc, peak, t_end, err = child.finish()
        op_msg = got.get("op")
        stdout = op_msg["stdout"].encode("utf-8") if op_msg else b""
        code = op_msg["rc"] if op_msg else rc
        spans = got["end"]["spans"] if "end" in got else []
    else:
        child = Child([sys.executable, "-c", "from concirc.cli import main; main()", *argv],
                      OP_TIMEOUT_S)
        stdout = child.read_all()
        code, peak, t_end, err = child.finish()
        spans = []
    problem = gate.cli_problem(argv[0], code, stdout, expect)
    if problem and err:
        problem += f" (stderr: {stderr_tail(err)})"
    op = {"label": " ".join(argv[:-2]), "t": t_end - child.start, "ok": problem is None,
          "problem": problem, "rss_kb": peak}
    return op, stdout, spans


def run_cli_catalog(seed, seconds, trace):
    base = Run(peak_rule=max)
    traced = Run(peak_rule=max) if trace else None
    metric_path, info = prepare(seed, base)
    base.notes.update(metric_chart=info["chart"], numpy=info["numpy"])
    expect = dict(info["expect"])
    expect[METRIC_FILE] = {"verdict": None, "lambda": None}
    charts = sorted(info["expect"]) + [METRIC_FILE]
    # Pass q gives chart i the subcommand (i + q) mod 5: every pass holds
    # every chart, and over five passes each chart meets each subcommand.
    for q in range(passes(seconds, CLI_PASS_S)):
        for i, chart in enumerate(charts):
            argv = cli_argv(chart, SUBCOMMANDS[(i + q) % len(SUBCOMMANDS)], seed, metric_path)
            for run in filter(None, (base, traced)):
                op, stdout, spans = cli_op(argv, expect[chart], run is traced, seed)
                op["chart"] = chart
                run.add_spans(spans, q, op=len(run.ops))
                run.ops.append(op)
                run.peaks_kb.append(op["rss_kb"])
                run.window_s += op["t"]
                run.notes.setdefault("outputs", []).append(stdout)
    return base, traced


# ---------------------------------------------------------------------------
# sweep_random
# ---------------------------------------------------------------------------


def sweep_panel(seed: int, q: int):
    """The panel in an order drawn from (seed, pass)."""
    return sorted(SWEEP_PANEL,
                  key=lambda c: hashlib.sha256(f"{seed}:{q}:{c}".encode()).digest())


def sweep_pass(run: Run, seed: int, q: int, trace: bool) -> None:
    """One pass over the panel in a fresh process."""
    panel = sweep_panel(seed, q)
    child = worker("sweep", seed, trace, panel=panel, samples=SWEEP_SAMPLES)
    t_ready = t_last = None
    done = 0
    for msg, t in child.messages():
        if msg["event"] == "ready":
            t_ready = t_last = t
            run.notes["numpy"] = msg["numpy"]
        elif msg["event"] == "op":
            run.op(msg["label"], msg["t"], msg["problem"], msg["rss_kb"])
            done += 1
            t_last = t
        elif msg["event"] == "end":
            run.add_spans(msg["spans"], q)
    rc, peak, _, err = child.finish()
    for c in panel[done:]:
        run.op(f"perturbed_flat_{c}", math.nan, f"child exited {rc}: {stderr_tail(err)}", 0)
    if t_ready is not None:
        run.setups.append(t_ready - child.start)
        run.window_s += t_last - t_ready
    run.peaks_kb.append(peak)


def run_sweep_random(seed, seconds, trace):
    base, traced = Run(), (Run() if trace else None)
    for q in range(passes(seconds, SWEEP_PASS_S)):
        sweep_pass(base, seed, q, False)
        if traced:
            sweep_pass(traced, seed, q, True)
    return base, traced


# ---------------------------------------------------------------------------
# dense_points
# ---------------------------------------------------------------------------


def dense_child(run: Run, seed: int, index: int, trace: bool, **limit) -> int:
    """Set up in a fresh process, then run blocks until ``limit`` (``budget``
    seconds or ``ops`` blocks); returns the number of blocks run."""
    child = worker("dense", seed, trace, child=index, points=DENSE_POINTS, **limit)
    t_ready = t_last = None
    done = 0
    ended = False
    for msg, t in child.messages():
        if msg["event"] == "ready":
            t_ready = t_last = t
            run.notes["numpy"] = msg["numpy"]
            if msg["problem"]:
                run.op("warm-up block", math.nan, msg["problem"], 0)
        elif msg["event"] == "op":
            run.op(f"block {index}.{msg['k']}", msg["t"], msg["problem"], msg["rss_kb"])
            done += 1
            t_last = t
        elif msg["event"] == "end":
            run.add_spans(msg["spans"], index)
            ended = True
    rc, peak, _, err = child.finish()
    if not ended or rc != 0:
        run.op(f"block {index}.{done + 1}", math.nan, f"child exited {rc}: {stderr_tail(err)}", 0)
    if t_ready is not None:
        run.setups.append(t_ready - child.start)
        run.window_s += t_last - t_ready
    run.peaks_kb.append(peak)
    return done


def run_dense_points(seed, seconds, trace):
    base, traced = Run(), (Run() if trace else None)
    for index in range(DENSE_CHILDREN):
        done = dense_child(base, seed, index, False, budget=seconds / DENSE_CHILDREN)
        if traced:
            dense_child(traced, seed, index, True, ops=done)
    return base, traced


WORKLOADS = {
    "cli_catalog": run_cli_catalog,
    "sweep_random": run_sweep_random,
    "dense_points": run_dense_points,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(times):
    """(value, percentile, samples) at the highest percentile that has at
    least TAIL_BEYOND samples beyond it; the minimum when there are fewer."""
    xs = sorted(times)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def end_to_end(run: Run):
    times = [op["t"] for op in run.ops if op["ok"]] or [math.nan]
    attempted = len(run.ops)
    failed = sum(not op["ok"] for op in run.ops)
    t_tail, pct, n = tail(times)
    metrics = {
        "ops_per_s": (attempted - failed) / run.window_s if run.window_s else math.nan,
        "op_p50_s": statistics.median(times),
        "op_tail_s": t_tail,
        "peak_rss_mb": run.peak_rule(run.peaks_kb) / 1024.0 if run.peaks_kb else math.nan,
        "setup_s": statistics.median(run.setups) if run.setups else math.nan,
        "success_rate": 1.0 - failed / attempted if attempted else 0.0,
    }
    extra = {"error_rate": failed / attempted if attempted else 1.0,
             "op_tail_percentile": pct, "op_samples": n, "window_s": run.window_s}
    return metrics, attempted, failed, extra


def self_times(spans):
    """Self time and self peak-RSS growth of each span: its own minus what
    its child spans cover."""
    child_t, child_kb = {}, {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["proc"], s["parent"])
            child_t[key] = child_t.get(key, 0.0) + s["end"] - s["start"]
            child_kb[key] = child_kb.get(key, 0) + s["rss1"] - s["rss0"]
    return [
        (s["end"] - s["start"] - child_t.get((s["proc"], s["id"]), 0.0),
         s["rss1"] - s["rss0"] - child_kb.get((s["proc"], s["id"]), 0))
        for s in spans
    ]


def layer_table(spans):
    """Per span name: calls, self time, ru_maxrss after, counts of the first pass."""
    table = {}
    for s, (self_s, self_kb) in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "self_rss_growth_mb": 0.0,
                                           "rss_mb": 0.0, "nodes": 0, "admitted": 0,
                                           "bytes": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["self_rss_growth_mb"] += self_kb / 1024.0
        row["rss_mb"] = max(row["rss_mb"], s["rss1"] / 1024.0)
        row["bytes"] += s.get("bytes", 0)
        if s["pass"] == 0:
            row["nodes"] += s.get("nodes", 0)
            row["admitted"] += s.get("admitted", 0)
    for row in table.values():
        row["mean_self_s"] = row["self_s"] / row["calls"]
    return table


def per_layer(spec, table, overhead_s):
    """Per-layer metrics named in BENCHMARK.json, read off the span table.

    ``<span>_s`` is the mean self time per call, ``<span>_nodes`` the
    distinct nodes built in the first pass, ``<span>.rss_mb`` the largest
    ru_maxrss seen right after the span.
    """
    out, missing = {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead_s":
            value = overhead_s
        elif name.endswith(".rss_mb"):
            value = table.get(name[: -len(".rss_mb")], {}).get("rss_mb")
        elif name.endswith("_nodes"):
            value = table.get(name[: -len("_nodes")], {}).get("nodes")
        else:
            value = table.get(name[: -len("_s")], {}).get("mean_self_s")
        if value is None:
            missing.append(name)
            value = 0.0
        out[name] = value
    return out, missing


def cli_breakdown(run: Run):
    """Share of op time and of RSS growth in nabla builds and fits, per chart."""
    selfs = dict(zip(((s["proc"], s["id"]) for s in run.spans), self_times(run.spans)))
    rows = {}
    for k, op in enumerate(run.ops):
        spans = [s for s in run.spans if s["op"] == k]
        if not spans:
            continue
        after_import = min(s["rss1"] for s in spans if s["name"] == "catalog.import")
        row = rows.setdefault(op["chart"], {"ops": 0, "op_s": 0.0, "build_fit_s": 0.0,
                                            "growth_mb": 0.0, "build_fit_growth_mb": 0.0})
        row["ops"] += 1
        row["op_s"] += op["t"]
        row["growth_mb"] += (op["rss_kb"] - after_import) / 1024.0
        for s in spans:
            if s["name"] in BUILD_AND_FIT:
                t, kb = selfs[(s["proc"], s["id"])]
                row["build_fit_s"] += t
                row["build_fit_growth_mb"] += kb / 1024.0
    for row in rows.values():
        row["time_share"] = row["build_fit_s"] / row["op_s"] if row["op_s"] else 0.0
        row["rss_share"] = (row["build_fit_growth_mb"] / row["growth_mb"]
                            if row["growth_mb"] > 0 else 0.0)
    return rows


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout's own .git, read from its files; None without one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed, numpy_version):
    digest = hashlib.sha256()
    for path in sorted((SRC / "concirc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "concirc" / "cli.py").is_file():
        print(f"perfbench: no concirc sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        return report(args, spec)
    finally:
        for child in list(Child.unreaped):
            child.proc.kill()
            os.wait4(child.proc.pid, 0)


def report(args, spec) -> int:
    """Run the workload, with --trace 1 also traced, and print the result."""
    run_workload = WORKLOADS[args.workload]

    # with --trace 1 every unit of work (a CLI op, a sweep pass, a dense
    # process) runs untraced and then traced, so drift in machine speed
    # falls on both sides of the tracing overhead alike
    base, traced = run_workload(args.seed, args.seconds, bool(args.trace))
    e2e, attempted, failed, extra = end_to_end(base)
    env = environment(args.seed, base.notes.get("numpy"))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "end_to_end": e2e, **extra,
              "setups_s": base.setups, "peaks_mb": [kb / 1024.0 for kb in base.peaks_kb],
              "ops": base.ops,
              "notes": {k: v for k, v in base.notes.items() if k != "outputs"}}
    lines = [f"{args.workload} seed={args.seed}: {len(base.ops)} ops, {failed} failed"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    if traced:
        overhead = sum(op["t"] for op in traced.ops) - sum(op["t"] for op in base.ops)
        if args.workload == "cli_catalog":
            # tracing must not change a report's bytes
            for op, a, b in zip(traced.ops, base.notes["outputs"], traced.notes["outputs"]):
                if op["ok"] and a != b:
                    op.update(ok=False, problem="traced report differs from untraced")
            record["cli_breakdown"] = cli_breakdown(traced)
        attempted += len(traced.ops)
        failed += sum(not op["ok"] for op in traced.ops)
        table = layer_table(traced.spans)
        metrics, missing = per_layer(spec, table, overhead)
        record.update(per_layer=metrics, layers=table, traced_ops=traced.ops,
                      missing_layers=missing)
        env["tracing_overhead_s"] = overhead
        for name, row in sorted(table.items()):
            lines.append(f"  span {name}: {row['calls']} calls, mean self "
                         f"{row['mean_self_s']:.6f} s, rss after <= {row['rss_mb']:.1f} MB")
        for chart, row in sorted(record.get("cli_breakdown", {}).items()):
            lines.append(f"  {chart}: nabla+fit {100 * row['time_share']:.0f}% of op time, "
                         f"{100 * row['rss_share']:.0f}% of RSS growth over {row['ops']} ops")
    else:
        metrics, missing = e2e, []
        env["tracing_overhead_s"] = None  # measured only by --trace 1 runs
    lines.append(f"  error_rate = {extra['error_rate']:.4f}; op_tail_s at "
                 f"p{extra['op_tail_percentile']:.1f} of {extra['op_samples']} ops")
    for name, value in {**e2e, **metrics}.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))
    print("\n".join(lines))
    for op in base.ops + record.get("traced_ops", []):
        if not op["ok"]:
            print(f"  FAILED {op['label']}: {op['problem']}")
    correct = failed == 0 and not missing and all(
        math.isfinite(v) for v in metrics.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
