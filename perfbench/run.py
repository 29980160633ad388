"""Benchmark of khfront through its command-line entry point.

    python3 perfbench/run.py --workload {oracle,census,long-front} --seed N
                             --seconds S --trace {0,1}

Run from the root of a checkout; khfront is imported from ``src/``.  An op
is one in-process ``khfront.cli.main([..., "--json", "--out", FILE])``
call.  The workload's ops repeat in whole rounds of a seeded order, in a
closed loop on one thread, until S seconds have passed; every output is
checked (see ``checks``).  The last line of standard output is one JSON
object:

--trace 0  end-to-end metrics: setup_s, op_s_p50, op_s_tail, ops_per_s,
           peak_rss_mb and ok_frac (1 - failed ops / attempted ops).
--trace 1  per-layer metrics.  Each op runs twice, untraced and with every
           layer boundary wrapped (see ``layertrace``), which gives the
           tracing overhead from the same ops.  Self times are thread CPU
           seconds per traced op.

The process caps its own address space, so a runaway op fails with
MemoryError instead of exhausting the machine.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import Checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
ADDRESS_SPACE_LIMIT = 2 << 30
SETUP_PROBES = 11
#: op_s_tail percentile per workload.  Each leaves at least 10 ops
#: beyond it in a 25 s run that completes only two rounds (oracle,
#: long-front) or three (census), and falls inside a group of ops of
#: similar cost (see ``workloads``).  It is fixed, not recomputed from each
#: run's op count, so a faster program that completes more rounds is
#: judged at the same rank.
TAIL_PERCENTILE = {"oracle": 85, "census": 87, "long-front": 70}

#: per-layer metric -> unit; the values are per traced op unless the
#: unit says otherwise
PER_LAYER = {
    "front.parse_front.self_s": "s/op",
    "front.desingularize.self_s": "s/op",
    "front.desingularize.calls_per_op": "calls/op",
    "tait.checkerboard.self_s": "s/op",
    "tait.checkerboard.calls_per_op": "calls/op",
    "tait.tait_graph.self_s": "s/op",
    "tait.edges": "count/op",
    "trees.spanning_trees.self_s": "s/op",
    "trees.spanning_trees.trees": "count/op",
    "trees.classify_activities.self_s": "s/op",
    "trees.classify_activities.calls_per_tree": "calls/tree",
    "bounds.sharpness_report.self_s": "s/op",
    "oracle.khovanov_homology.self_s": "s/op",
    "oracle.cube_states": "count/op",
    "oracle.kauffman_jones.self_s": "s/op",
    "snf.invariant_factors.self_s": "s/op",
    "snf.invariant_factors.calls": "calls/op",
    "snf.nnz_in": "count/op",
    "snf.torsion_factors": "count/op",
    "cli.main.self_s": "s/op",
    "cli.output_bytes": "bytes/op",
    "corpus.pool_speedup": "ratio",
    "trace_overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}
LAYERS = ("front", "tait", "trees", "bounds", "oracle", "snf", "cli", "corpus")
PER_LAYER.update({f"layer.{m}.self_s": "s/op" for m in LAYERS})
PREDICTED_DOMINANT = {"oracle": {"oracle", "snf"}, "census": {"trees"}, "long-front": {"tait"}}


class BenchError(Exception):
    pass


def _limit_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_LIMIT)
    if soft == resource.RLIM_INFINITY or soft > cap:
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def _import_khfront():
    """khfront.cli and khfront.corpus from this checkout's ``src``."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        cli = importlib.import_module("khfront.cli")
        corpus = importlib.import_module("khfront.corpus")
    except ImportError as exc:
        raise BenchError(f"cannot import khfront from {ROOT / 'src'}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"khfront resolved to {cli.__file__}, outside this checkout")
    return cli, corpus


def _setup(workload: str, seed: int, workdir: Path):
    """Everything between process start and the first op."""
    cli, corpus = _import_khfront()
    return cli, corpus, workloads.build(workload, seed, workdir, corpus)


def _measure_setup(args, workdir: Path) -> float:
    """Median time from spawning a fresh interpreter on this script to the
    moment it could run its first op."""
    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = workdir / f"probe{k}"
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--probe", str(probe_dir),
        ]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe exited {rc}")
        samples.append(t1 - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    return statistics.median(samples)


class Runner:
    """Executes ops, times them and checks their outputs."""

    def __init__(self, cli, checker, workdir: Path):
        self.cli = cli
        self.checker = checker
        self.out = workdir / "out.json"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, op) -> tuple[float, bool, int]:
        """(wall seconds, passed, output bytes) of one op."""
        self.out.unlink(missing_ok=True)
        argv = [*op.argv, "--json", "--out", str(self.out)]
        problems: list[str] = []
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # the op failed; the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        size = 0
        if rc != 0:
            problems.append(f"{op.command}: exit {rc}")
        else:
            try:
                text = self.out.read_text()
                size = len(text.encode())
                problems += self.checker.check(op, json.loads(text))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{op.command}: unreadable output ({exc!r})")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors += problems
        return wall, not problems, size


def _schedule(round_ops, seconds: float):
    """Whole rounds of ops until ``seconds`` have passed.  Whole rounds
    keep the mix of ops, and so every statistic over them, the same in
    every run, whatever the number of rounds."""
    deadline = time.perf_counter() + seconds
    while True:
        yield from round_ops
        if time.perf_counter() >= deadline:
            return


def run_untraced(args, runner, round_ops, setup_s: float) -> dict:
    times: list[float] = []
    t_start = time.perf_counter()
    for op in _schedule(round_ops, args.seconds):
        wall, ok, _ = runner.execute(op)
        times.append(wall if ok else float("inf"))
    elapsed = time.perf_counter() - t_start
    # a failed op counts as slower than any op that succeeded
    times = [t if t != float("inf") else elapsed for t in times]
    n = len(times)
    pct = TAIL_PERCENTILE[args.workload]
    tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    beyond = sum(1 for t in times if t > tail)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail, "s"),
        "ops_per_s": (n / elapsed, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((n - runner.failed) / n, "ratio"),
    }
    print(f"workload {args.workload}, seed {args.seed}: {n} ops in {elapsed:.2f} s")
    for name, (value, unit) in metrics.items():
        note = f"  (p{pct} of N={n}, {beyond} ops beyond)" if name == "op_s_tail" else ""
        print(f"  {name:<13} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<13} {runner.failed / n:.6g} ratio  ({runner.failed} of {n})")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _hooks():
    def edges(table, args, kwargs, result):
        table.add("tait.edges", len(result.edges))

    def trees(table, args, kwargs, n_items):
        table.add("trees.spanning_trees.trees", n_items)

    def cube(table, args, kwargs, result):
        table.add("oracle.cube_states", 1 << args[0].n)

    def snf(table, args, kwargs, result):
        entries = args[0] if args else kwargs["entries"]
        table.add("snf.nnz_in", sum(1 for v in entries.values() if v))
        table.add("snf.torsion_factors", sum(1 for f in result if f > 1))

    return {
        "tait.tait_graph": edges,
        "trees.spanning_trees": trees,
        "oracle.khovanov_homology": cube,
        "oracle.kauffman_jones": cube,
        "snf.invariant_factors": snf,
    }


def run_traced(args, runner, round_ops) -> dict:
    from layertrace import LayerTracer, Table

    tracer = LayerTracer("khfront", _hooks())
    tables: dict[str, Table] = {}
    plain = traced = out_bytes = 0.0
    corpus_wall = analyze_trees = 0.0
    n = 0
    for op in _schedule(round_ops, args.seconds):
        tracer.table = tables.setdefault(op.command, Table())
        # alternate which run of the pair goes first, so warm-up effects
        # do not bias the overhead estimate
        if n % 2 == 0:
            wall0, _, _ = runner.execute(op)
        tracer.install()
        try:
            wall1, _, size = runner.execute(op)
        finally:
            tracer.uninstall()
        if n % 2 == 1:
            wall0, _, _ = runner.execute(op)
        plain += wall0
        traced += wall1
        out_bytes += size
        n += 1
        if op.command == "corpus":
            corpus_wall += wall1
        elif op.command == "analyze":
            analyze_trees += op.case.trees

    def total(fn, what):
        return sum(getattr(t, what)(fn) for t in tables.values())

    def count(name):
        return sum(t.counters.get(name, 0.0) for t in tables.values())

    self_by_layer = {m: 0.0 for m in LAYERS}
    for t in tables.values():
        for fn, (_, self_s, _) in t.stats.items():
            layer = fn.partition(".")[0]
            self_by_layer[layer] = self_by_layer.get(layer, 0.0) + self_s
    analyze = tables.get("analyze", Table())
    corpus = tables.get("corpus", Table())
    values = {
        "front.desingularize.calls_per_op": total("front.desingularize", "calls") / n,
        "tait.checkerboard.calls_per_op": total("tait.checkerboard", "calls") / n,
        "trees.classify_activities.calls_per_tree": (
            analyze.calls("trees.classify_activities") / analyze_trees if analyze_trees else 0.0
        ),
        "snf.invariant_factors.calls": total("snf.invariant_factors", "calls") / n,
        "cli.output_bytes": out_bytes / n,
        "corpus.pool_speedup": (
            corpus.total_s("bounds.sharpness_report") / corpus_wall if corpus_wall else 0.0
        ),
        "trace_overhead_frac": traced / plain - 1,
        "trace.accounted_frac": sum(self_by_layer.values()) / traced,
    }
    for name in ("tait.edges", "trees.spanning_trees.trees", "oracle.cube_states",
                 "snf.nnz_in", "snf.torsion_factors"):
        values[name] = count(name) / n
    for name in PER_LAYER:
        if name.endswith(".self_s") and name not in values:
            fn = name[: -len(".self_s")]
            if fn.startswith("layer."):
                values[name] = self_by_layer[fn[len("layer."):]] / n
            else:
                values[name] = total(fn, "self_s") / n

    busiest = max(self_by_layer, key=self_by_layer.get)
    share = self_by_layer[busiest] / (sum(self_by_layer.values()) or 1)
    predicted = PREDICTED_DOMINANT[args.workload]
    print(f"workload {args.workload}, seed {args.seed}: {n} op pairs, "
          f"tracing overhead {values['trace_overhead_frac']:+.1%}")
    print(f"  dominant layer {busiest} ({share:.0%} of self time); predicted "
          f"{' + '.join(sorted(predicted))}: {'match' if busiest in predicted else 'MISMATCH'}")
    print(f"  layer self times account for {values['trace.accounted_frac']:.1%} "
          "of traced op wall time")
    for name in PER_LAYER:
        print(f"  {name:<42} {values[name]:.6g} {PER_LAYER[name]}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _limit_address_space()

    if args.probe:  # set-up probe: stop where the first op would start
        _setup(args.workload, args.seed, args.probe)
        print("ready", flush=True)
        return 0

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = 0.0 if args.trace else _measure_setup(args, workdir)
        cli, corpus, round_ops = _setup(args.workload, args.seed, workdir)
        runner = Runner(cli, Checker({e.name: e.tb for e in corpus.BUNDLED}), workdir)
        if args.trace:
            metrics = run_traced(args, runner, round_ops)
        else:
            metrics = run_untraced(args, runner, round_ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    for line in runner.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
