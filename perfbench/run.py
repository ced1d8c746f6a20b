#!/usr/bin/env python3
"""Benchmark of the epquery engine: three seeded workloads, checked against oracles.

Run from the root of a checkout (standard library only; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out results.jsonl
    python3 perfbench/run.py --compare before.jsonl after.jsonl

One run sets the workload up several times (each in a fresh interpreter, so
start-up and import count), then loops over the instances of one pass as a
closed loop with one client and no threads until ``--seconds`` are used,
checks every outcome against the workload's oracle, and prints each metric by
name and unit.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run spends
half its time untraced and half with spans recorded around the package's
public functions (see ``tracing.py``); the spans are written to
``.perfbench_work/``.  See ``NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("reductions", "grid", "compile")
SETUP_REPEATS = 9
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100
# The end-to-end metrics of the result line.  The verdict-time percentiles are
# printed but left out: which instances sit at the median changes with the
# seed, so they move by 10-20 % between seeds on the same code.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print per-metric ratios B/A of two --out files")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.compare and not args.workload:
        parser.error("--workload is required")
    return args


class Phase:
    """One timed phase: latencies, pass times, and per instance the first
    non-failed outcome plus the digest of every non-failed outcome."""

    def __init__(self, count):
        self.latencies = []
        self.pass_walls = []
        self.by_instance = [[] for _ in range(count)]
        self.firsts = [None] * count
        self.digests = [[] for _ in range(count)]
        self.failures = []


def _timed_phase(workloads, instances, budget_s, tracer=None):
    """Whole passes over ``instances`` until the next one would overrun the budget."""
    phase = Phase(len(instances))
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i, instance in enumerate(instances):
            if tracer is not None:
                tracer.instance = f"{len(phase.pass_walls)}:{instance['id']}"
            t0 = time.perf_counter()
            try:
                outcome = workloads.run_instance(instance)
            except Exception as exc:  # a crash is a failure, never a "false"
                outcome = {"code": None, "error": f"{type(exc).__name__}: {exc}"[:200]}
            phase.latencies.append(time.perf_counter() - t0)
            phase.by_instance[i].append(phase.latencies[-1])
            if workloads.failed(outcome):
                phase.failures.append((instance["id"], outcome.get("error") or outcome["code"]))
                continue
            if phase.firsts[i] is None:
                phase.firsts[i] = outcome
            phase.digests[i].append(workloads.digest(outcome))
        phase.pass_walls.append(time.perf_counter() - pass_start)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(phase.pass_walls) > budget_s:
            return phase


def _setup_reps(args, work):
    """Median wall time of fresh-interpreter set-ups; returns (seconds, last dir).

    No timeout: with one, ``subprocess`` polls the child in steps of up to
    50 ms, which quantizes the measurement.
    """
    times = []
    directory = None
    for i in range(SETUP_REPEATS):
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        directory = work / f"setup{i}"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        str(directory), "--workload", args.workload, "--seed", str(args.seed)],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), directory


def _traced(tracing, workloads, args, work, instances, budget, untraced_wall):
    """One traced set-up and a traced timed phase; returns (phase, layer metrics)."""
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        t0 = time.perf_counter()
        workloads.setup(args.workload, args.seed, work / "traced-setup")
        setup_wall = time.perf_counter() - t0
    finally:
        setup_tracer.uninstall()
    pass_tracer = tracing.Tracer()
    pass_tracer.install()
    try:
        phase = _timed_phase(workloads, instances, budget, pass_tracer)
    finally:
        pass_tracer.uninstall()
    pass_tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    passes = len(phase.pass_walls)
    layer = tracing.layer_metrics(setup_tracer.spans, pass_tracer.spans, passes, setup_wall,
                                  sum(phase.pass_walls) / passes)
    layer["trace.overhead_frac"] = statistics.median(phase.pass_walls) / untraced_wall - 1
    return phase, {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in layer.items()}


def _count_wrong(phases, flags):
    """Runs whose instance failed the oracle or that differ from its first outcome."""
    wrong = 0
    for i, ok in enumerate(flags):
        digests = sum((p.digests[i] for p in phases), [])
        wrong += sum(1 for d in digests if not ok or d != digests[0])
    return wrong


def _run_workload(args):
    import tracing
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s, directory = _setup_reps(args, work)
        manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
        instances = manifest["instances"]
        budget = args.seconds / 2 if args.trace else args.seconds
        plain = _timed_phase(workloads, instances, budget)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = statistics.median(plain.pass_walls)
        phases = [plain]
        if args.trace:
            traced, layer_metrics = _traced(tracing, workloads, args, work, instances, budget,
                                            wall_s)
            phases.append(traced)

        firsts = [next((p.firsts[i] for p in phases if p.firsts[i] is not None), None)
                  for i in range(len(instances))]
        flags, notes = workloads.check(args.workload, args.seed, instances, firsts)
        wrong = _count_wrong(phases, flags)
        attempted = sum(len(p.latencies) for p in phases)
        failures = sum((p.failures for p in phases), [])

        print(f"workload {args.workload} seed {args.seed}: {len(instances)} instances per pass, "
              f"closed loop, 1 client")
        for instance, first, times in zip(instances, firsts, plain.by_instance):
            props = workloads.properties(instance, first) if first else {"failed": True}
            props["ms"] = f"{statistics.median(times) * 1000:.1f}"
            print(f"  instance {instance['id']} seed {args.seed} "
                  + " ".join(f"{k}={v}" for k, v in props.items()))
        for note in notes:
            print(f"  WRONG: {note}")
        for instance_id, error in failures:
            print(f"  FAILED: {instance_id}: {error}")

        lat = plain.latencies
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        print(f"  passes {len(plain.pass_walls)}, verdicts {len(lat)}")
        for name, value in metrics.items():
            print(f"  {name} {value:.6g} {END_TO_END[name]}")
        print(f"  verdict_p50_ms {statistics.median(lat) * 1000:.6g} ms (n={len(lat)})")
        if len(lat) >= P90_MIN_SAMPLES:
            print(f"  verdict_p90_ms {statistics.quantiles(lat, n=10)[-1] * 1000:.6g} ms "
                  f"(n={len(lat)})")
        else:
            print(f"  verdict_p90_ms not reported: {len(lat)} samples < {P90_MIN_SAMPLES}")
        print(f"  wrong_verdicts {wrong}")
        print(f"  failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")

        if args.trace:
            result_metrics = layer_metrics
            for name, entry in result_metrics.items():
                print(f"  {name} {entry['value']:.6g} {entry['unit']}")
        else:
            result_metrics = {name: {"value": value, "unit": END_TO_END[name]}
                              for name, value in metrics.items()}
        result = {"correct": wrong == 0, "attempted": attempted,
                  "failed": len(failures), "metrics": result_metrics}
        if args.out:
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "trace": args.trace, "result": result}) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _compare(path_a, path_b):
    """Per workload and metric: each side's median and quartiles, and B/A."""
    sides = []
    for path in (path_a, path_b):
        grouped = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            for name, entry in record["result"]["metrics"].items():
                key = (record["workload"], name, entry["unit"])
                grouped.setdefault(key, []).append(entry["value"])
        sides.append(grouped)
    print(f"{'workload':<11} {'metric':<44} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} B/A")
    for key in sorted(set(sides[0]) | set(sides[1])):
        cells = []
        for grouped in sides:
            if key in grouped:
                q1, q2, q3 = _quartiles(grouped[key])
                cells.append((q2, f"{q2:.4g} [{q1:.4g}, {q3:.4g}] n={len(grouped[key])}"))
            else:
                cells.append((None, "-"))
        (a, text_a), (b, text_b) = cells
        ratio = f"{b / a:.3f}" if a and b is not None else "-"
        print(f"{key[0]:<11} {key[1] + ' ' + key[2]:<44} {text_a:<32} {text_b:<32} {ratio}")
    return 0


def main(argv=None):
    args = _parse_args(argv)
    if args.compare:
        return _compare(*args.compare)
    if not (SRC / "epquery" / "__init__.py").is_file():
        print(f"error: no epquery package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import workloads

        workloads.setup(args.workload, args.seed, args.setup_only)
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
