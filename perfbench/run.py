"""Benchmark of the modforms library and CLI.

    python3 perfbench/run.py --workload {mlde,free_basis,series,cli,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root (the sources are imported from ``src/``).
With ``--trace 0`` the run measures the end-to-end metrics (set-up time,
median and tail latency of one op, throughput, peak memory); with
``--trace 1`` it runs a fixed number of whole op cycles, drawn from the
seed, once untraced and once with every layer's public functions wrapped in
spans, and reports the per-layer metrics.  Every op's output is checked
exactly, outside its timed span.  ``--workload all`` runs each workload in
a process of its own, so each reports its own peak memory.

The end-to-end times are wall times scaled to a machine of fixed speed: a
probe of ``calibration.py``, timed often between ops through the run,
gives the factor (``speed_scale`` in the record line, which also holds the
unscaled ``wall`` values).  The library workloads use a plain-Python
kernel, the cli workload a fresh interpreter start.  The shared VM the
benchmark was written on switches between a faster and a slower phase,
about 40% apart, which the scaling takes out.

The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run: seed, op-list digest, N of every op run, per-N medians,
failures and the Python/numpy/nproc environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import ROOT, SRC  # noqa: E402

#: Fresh set-up processes timed in one run, spread evenly through the timed
#: phase so that they meet the same load as the ops; setup_s is their median.
SETUP_SAMPLES = 15
#: Speed probes in one run, spread likewise: the calibration kernel (about
#: 20 ms) for library workloads, an interpreter start that runs it (about
#: 200 ms) for cli.  Their mean, not their median, gives the speed scale: the VM's
#: slower phase lasts seconds, so a mean over many samples follows the
#: share of the run spent in it, where a median of a few flips between the
#: two phases.
SPEED_PROBES = {
    "library": (100, calibration.sample, calibration.REFERENCE_S),
    "cli": (30, calibration.startup_sample, calibration.STARTUP_REFERENCE_S),
}


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(workload: str, seed: int, sizes):
    """Imports, seeded op generation and a warm-up on tiny inputs."""
    runner = workloads.runner_for(workload, sizes)
    cycles = workloads.make_cycles(workload, seed, sizes)
    # the same small ops for every seed: one per op kind (one process for cli)
    tiny = workloads.Sizes.tiny()
    warm_ops = {}
    for op in workloads.make_ops(workload, 0, tiny):
        warm_ops.setdefault("cli" if workload == "cli" else op["kind"], op)
    warm = workloads.runner_for(workload, tiny)
    for op in warm_ops.values():
        warm.execute(op)
    return runner, cycles


def setup_sample(workload: str, seed: int) -> float:
    """Time one fresh process from spawn until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited with {proc.returncode}")
    return elapsed


def timed_pass(runner, cycles, seconds, probes):
    """Closed loop over the op cycles until ``seconds`` have passed; the
    cycle running at the deadline completes, so every run measures whole
    cycles, each with the same mix of op templates and sizes.  ``probes``
    maps a name to (count, function); each function is called between ops,
    ``count`` times spread evenly over the ``seconds``.  The time those
    calls take does not count towards ``seconds``.

    Returns the list of (op, seconds, error or None) and, by name, the
    list of each probe's results.
    """
    runner.clear_caches()
    results = []
    probed = {name: [] for name in probes}
    start = time.perf_counter()
    paused = 0.0

    def run_due_probes(elapsed):
        nonlocal paused
        t0 = time.perf_counter()
        for name, (count, fn) in probes.items():
            while len(probed[name]) < count and elapsed >= seconds * len(probed[name]) / count:
                probed[name].append(fn())
        paused += time.perf_counter() - t0

    for c in itertools.count():
        for op in cycles[c % len(cycles)]:
            run_due_probes(time.perf_counter() - start - paused)
            results.append((op, *workloads.run_op(runner, op)))
        if time.perf_counter() - start - paused >= seconds:
            break
    run_due_probes(seconds)
    return results, probed


def fixed_pass(runner, ops, tracer=None):
    """Every op of ``ops`` once, in order."""
    runner.clear_caches()
    return [(op, *workloads.run_op(runner, op, tracer)) for op in ops]


def tail(latencies):
    """Value at the highest percentile that has at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "nproc": os.cpu_count()}


def record(workload, seed, args, ops, results, extra) -> dict:
    by_n: dict[int, list[float]] = {}
    for op, elapsed, _ in results:
        by_n.setdefault(op["n"], []).append(elapsed)
    failures = [f"{op['kind']} {json.dumps(op)[:160]}: {err}" for op, _, err in results if err]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_digest": workloads.op_digest(ops),
        "ops_generated": len(ops),
        "op_n": [op["n"] for op, _, _ in results],
        "by_n": {f"by_n.{n}.p50_s": statistics.median(v) for n, v in sorted(by_n.items())},
        "fail_ratio": len(failures) / len(results),
        "failures": failures[:5],
        **environment(),
        **extra,
    }


def result_line(results, values, unit_of) -> dict:
    """The result object printed as the last line of stdout."""
    failed = sum(1 for *_, err in results if err)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in values.items()},
    }


def run_workload(workload: str, args, sizes=None):
    """Run one workload; returns (record, result) dicts."""
    sizes = sizes or workloads.Sizes()
    runner, cycles = setup(workload, args.seed, sizes)
    if args.trace:
        return traced_run(workload, args, runner, sizes)
    ops = [op for cycle in cycles for op in cycle]
    count, probe, reference_s = SPEED_PROBES["cli" if workload == "cli" else "library"]
    results, probed = timed_pass(runner, cycles, args.seconds, {
        "speed": (count, probe),
        "setup": (SETUP_SAMPLES, lambda: setup_sample(workload, args.seed)),
    })
    probe_s = statistics.fmean(probed["speed"])
    setup_samples = probed["setup"]
    latencies = [elapsed for _, elapsed, _ in results]
    failed = sum(1 for *_, err in results if err)
    tail_s, tail_pct = tail(latencies)
    if workload == "cli":
        peak_kib = runner.peak_rss_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "ops_per_s": (len(results) - failed) / sum(latencies),
    }
    scale = reference_s / probe_s
    values = {name: v / scale if name == "ops_per_s" else v * scale for name, v in wall.items()}
    values["peak_rss_mib"] = peak_kib / 1024
    extra = {
        "wall": wall,
        "calibration_s": probe_s,
        "speed_scale": scale,
        "setup_samples_s": setup_samples,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
    }
    return record(workload, args.seed, args, ops, results, extra), result_line(results, values, units("end_to_end"))


def traced_run(workload, args, runner, sizes):
    """The first ``workloads.TRACE_CYCLES`` op cycles of the seed, run
    untraced, traced, and untraced again.

    The op count depends on the seed only, not on how fast the ops run, so
    the per-layer totals describe the same work on any machine.  The first
    pass only warms the process (its heap grows while it runs);
    ``trace_overhead_ratio`` compares the traced pass with the second
    untraced one.
    """
    ops = workloads.make_ops(workload, args.seed, sizes, cycles=workloads.TRACE_CYCLES[workload])
    warm = fixed_pass(runner, ops)
    if workload == "cli":
        runner.traced = True
        traced = fixed_pass(runner, ops)
        runner.traced = False
        summary = spans.merge(runner.summaries)
    else:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            traced = fixed_pass(runner, ops, tracer=tracer)
        finally:
            uninstall()
        summary = spans.summarize(tracer)
    plain = fixed_pass(runner, ops)
    plain_wall = sum(e for _, e, _ in plain)
    traced_wall = sum(e for _, e, _ in traced)
    values = spans.per_layer_metrics(summary, traced_wall / plain_wall)
    results = warm + traced + plain
    extra = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "layer_self_sum_s": spans.self_time_total(summary),
        "span_calls": summary["calls"],
    }
    return record(workload, args.seed, args, ops, results, extra), result_line(results, values, units("per_layer"))


def run_all(args) -> int:
    """Each workload in a child process of its own; their records and
    results are passed through, then the combined result is printed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(*lines, sep="\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "modforms" / "__init__.py").is_file():
        print(f"error: modforms sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup(args.workload, args.seed, workloads.Sizes())
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    rec, result = run_workload(args.workload, args)
    print(json.dumps(rec, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
