"""Benchmark for ``sigdef maxdef`` and the desk-scale oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up generates the workload's inputs from ``--seed`` and writes
them as ``.sg`` files under ``.bench_work/``.  The timed loop then drives the
program only through ``sigdef.cli.main([...])`` in this process, one call at
a time (a closed loop with one client), capturing stdout.  It cycles through
the input pool until ``--seconds`` have elapsed and at least three cycles
ran.  Every call's report is checked by ``check.py``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` untraced and traced passes over a prefix of the pool alternate
for ``--seconds``, and it carries the per-layer metrics (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
from tracer import LADDER_STEPS, Tracer  # noqa: E402

MIN_CYCLES = 3
PAIR_STEPS = (4, 6, 7, 8, 9, 12)  # the steps whose trace entries remove pairs
SETUP_RUNS = 15
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import sigdef.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Call:
    """One CLI invocation of the pool and what its answer must be."""

    argv: tuple[str, ...]
    path: Path
    edges: int
    expected: int

    def judge(self, code: int, stdout: str) -> str | None:
        """None when the answer is right, else the reason it is wrong."""
        g = check.read_sg(self.path.read_text(encoding="utf-8"))
        return check.verdict(self.argv[0], g, self.expected, code, stdout)


def _calls_for(g: gen.Graph, path: Path, commands: tuple[str, ...]) -> list[Call]:
    path.write_text(g.to_sg(), encoding="utf-8")
    reference = check.two_sat_value(check.Parsed(g.labels, g.pos, g.neg))
    if g.expected is not None and g.expected != reference:
        raise RuntimeError(f"{path.name}: construction says {g.expected}, "
                           f"2-SAT reference says {reference}")
    flags = ("--assume-chromatic-3",) if len(g.labels) > 12 else ()
    return [Call((cmd, str(path)) + (flags if cmd == "maxdef" else ()),
                 path, g.edge_count, reference) for cmd in commands]


@dataclass(frozen=True)
class Workload:
    """``graphs`` inputs drawn i.i.d. by ``make`` from the seeded generator;
    each goes through every command in ``commands``.  The end-to-end loop
    cycles through them; a traced pass is the first ``traced_graphs``."""

    graphs: int
    traced_graphs: int
    make: Callable[[random.Random], gen.Graph]
    commands: tuple[str, ...] = ("maxdef",)


# At least 100 inputs each, so that 10 lie beyond the p90.
WORKLOADS = {
    "planted": Workload(100, 24, lambda rng: gen.planted(150, rng)),
    "dense-zero": Workload(100, 12, lambda rng: gen.dense_zero(200, rng, 0.05)),
    "components": Workload(100, 40, lambda rng: gen.components(
        [rng.randint(20, 100) for _ in range(40)], rng)),
    "desk": Workload(512, 64, lambda rng: gen.desk(
        rng.choice((10, 11, 12)), rng, rng.uniform(0.2, 0.35)),
        ("maxdef", "deficiency")),
}


def build_pool(workload: str, seed: int, workdir: Path, graphs: int | None = None) -> list[Call]:
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    pool: list[Call] = []
    for i in range(w.graphs if graphs is None else graphs):
        pool += _calls_for(w.make(rng), workdir / f"g{i:03d}.sg", w.commands)
    return pool


def measure_setup() -> float:
    """Median seconds to ``import sigdef.cli`` in a fresh interpreter; one
    untimed import first so that bytecode caches exist, as for a user."""
    samples = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def timed_call(cli, call: Call) -> tuple[int, str | None]:
    """Nanoseconds one CLI call took, and why its answer is wrong (None
    when it is right).  An exception escaping the CLI is a wrong answer."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        started = time.perf_counter_ns()
        try:
            code = cli.main(list(call.argv))
            reason = None
        except Exception as exc:  # noqa: BLE001 - the loop must go on
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - started
    if reason is None:
        reason = call.judge(code, out.getvalue())
    return elapsed, None if reason is None else f"{' '.join(call.argv)}: {reason}"


def run_pass(cli, pool: list[Call]) -> tuple[list[int], list[str]]:
    """One call per pool entry: per-call nanoseconds and failure reasons."""
    times, failures = [], []
    for call in pool:
        elapsed, reason = timed_call(cli, call)
        times.append(elapsed)
        if reason is not None:
            failures.append(reason)
    return times, failures


def end_to_end(cli, pool: list[Call], seconds: float):
    """Cycle through the pool until ``seconds`` have passed and at least
    ``MIN_CYCLES`` cycles ran, so every input is called equally often.
    Latency percentiles and throughput are taken over every timed call."""
    gc.collect()
    times: list[int] = []
    failures: list[str] = []
    cycles = 0
    started = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - started < seconds:
        t, f = run_pass(cli, pool)
        times += t
        failures += f
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency = [ms(t) for t in times]
    p50, p90 = statistics.median(latency), statistics.quantiles(latency, n=10)[8]
    print(f"{len(times)} calls: {cycles} cycles over {len(pool)} inputs; "
          f"p50 {p50:.3f} ms, p90 {p90:.3f} ms")
    metrics = {
        "e2e_ms_p50": (p50, "ms"),
        "e2e_ms_p90": (p90, "ms"),
        "edges_per_s": (cycles * sum(c.edges for c in pool) / (sum(times) / 1e9), "edges/s"),
        "ok_ratio": (1.0 - len(failures) / len(times), "ratio"),
        "setup_s": (measure_setup(), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, len(times), failures, []


def ms(ns: int) -> float:
    return ns / 1e6


def _layer_metrics(tr: Tracer, wall_ns: int) -> dict:
    c = tr.counts
    m = {}
    for k in LADDER_STEPS:
        name = f"maxdef.step{k}"
        calls, fires = tr.calls[name], c[name + ".fires"]
        m[name + ".ms"] = (ms(tr.total_ns[name]), "ms")
        m[name + ".calls"] = (calls, "count")
        m[name + ".fires"] = (fires, "count")
        m[name + ".hit_ratio"] = (fires / calls if calls else 0.0, "ratio")
    for k in PAIR_STEPS:
        m[f"maxdef.step{k}.pairs_removed"] = (c[f"maxdef.step{k}.pairs_removed"], "count")
    m["maxdef.passes"] = (sum(c[f"trace.step{k}"] for k in (3, 4, 5, 6, 7, 8, 9, 10, 12)),
                          "count")
    m["maxdef.maxdef.self_ms"] = (ms(tr.self_ns["maxdef.maxdef"]), "ms")
    m["maxdef.forcing.ms"] = (ms(tr.total_ns["maxdef.forcing"]), "ms")
    m["maxdef.forcing.builds"] = (tr.calls["maxdef.forcing"], "count")
    m["maxdef.forcing.vertices"] = (c["maxdef.forcing.vertices"], "count")
    m["maxdef.forcing.edges"] = (c["maxdef.forcing.edges"], "count")
    m["maxdef.step12.ms"] = (ms(tr.total_ns["maxdef.step12"]), "ms")
    m["maxdef.step12.calls"] = (tr.calls["maxdef.step12"], "count")
    m["maxdef.flatten.ms"] = (ms(tr.total_ns["maxdef.flatten"]), "ms")
    m["sgio.parse_sg.self_ms"] = (ms(tr.self_ns["sgio.parse_sg"]), "ms")
    m["sgio.parse_sg.edges"] = (c["sgio.parse_sg.edges"], "count")
    m["core.build_graph.ms"] = (ms(tr.total_ns["core.build_graph"]), "ms")
    m["core.certify.ms"] = (ms(tr.total_ns["core.certify"]), "ms")
    m["core.certify.calls"] = (tr.calls["core.certify"], "count")
    m["oracle.chromatic_number.ms"] = (ms(tr.total_ns["oracle.chromatic_number"]), "ms")
    m["oracle.chromatic_number.calls"] = (tr.calls["oracle.chromatic_number"], "count")
    m["oracle.deficiency_report.self_ms"] = (
        ms(tr.self_ns["oracle.deficiency_report"]), "ms")
    m["oracle.deficiency_report.calls"] = (tr.calls["oracle.deficiency_report"], "count")
    m["cli.main.self_ms"] = (ms(tr.self_ns["cli.main"]), "ms")
    m["cli.main.calls"] = (tr.calls["cli.main"], "count")
    m["trace.missing"] = (len(tr.missing), "count")
    m["trace.wall_ms"] = (ms(wall_ns), "ms")
    return m


def _shares(m: dict) -> str:
    wall = m["trace.wall_ms"][0]
    steps = sum(m[f"maxdef.step{k}.ms"][0] for k in LADDER_STEPS)
    parts = {
        "steps 3-9": steps,
        "step8": m["maxdef.step8.ms"][0],
        "forcing+step12": m["maxdef.forcing.ms"][0] + m["maxdef.step12.ms"][0],
        "flatten": m["maxdef.flatten.ms"][0],
        "parse_sg+build_graph": m["sgio.parse_sg.self_ms"][0] + m["core.build_graph.ms"][0],
        "certify": m["core.certify.ms"][0],
        "oracle": m["oracle.chromatic_number.ms"][0]
        + m["oracle.deficiency_report.self_ms"][0],
        "cli self": m["cli.main.self_ms"][0],
    }
    return ", ".join(f"{k} {100 * v / wall:.1f}%" for k, v in parts.items())


def traced(cli, pool: list[Call], seconds: float):
    """Alternate untraced and traced passes.  Per-layer values are medians
    over the traced passes; counts must repeat exactly across them and
    agree with the runs' own traces, else a problem is reported."""
    gc.collect()
    plain_ns, traced_ns, layer_runs = [], [], []
    failures: list[str] = []
    problems: list[str] = []
    attempted = 0
    started = time.perf_counter()
    while not layer_runs or time.perf_counter() - started < seconds:
        t, f = run_pass(cli, pool)
        plain_ns.append(sum(t))
        failures += f
        tr = Tracer()
        tr.install()
        try:
            t, f = run_pass(cli, pool)
        finally:
            tr.uninstall()
        traced_ns.append(sum(t))
        failures += f
        attempted += 2 * len(pool)
        problems += [f"trace disagrees with wrappers: {x}" for x in tr.mismatches()]
        layer_runs.append(_layer_metrics(tr, sum(t)))
    for name in tr.missing:
        print(f"missing layer function: {name}", file=sys.stderr)
    metrics = {}
    for name, (first, unit) in layer_runs[0].items():
        values = [run[name][0] for run in layer_runs]
        if unit == "count" and any(v != first for v in values):
            problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = (first if unit == "count" else statistics.median(values), unit)
    metrics["trace.overhead_ratio"] = (sum(traced_ns) / sum(plain_ns), "ratio")
    print(f"{len(layer_runs)} traced passes of {len(pool)} calls; shares of traced "
          f"wall time: {_shares(metrics)}")
    return metrics, attempted, failures, problems


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import sigdef.cli as cli
    except ImportError as exc:
        print(f"cannot import sigdef from {SRC}: {exc}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        graphs = WORKLOADS[args.workload].traced_graphs if args.trace else None
        pool = build_pool(args.workload, args.seed, workdir, graphs)
        run = traced if args.trace else end_to_end
        metrics, attempted, failures, problems = run(cli, pool, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in failures[:20] + problems:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": not (failures or problems),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
