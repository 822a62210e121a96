"""fneg benchmark: one workload per invocation, end to end or traced per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload bipartite_n10 --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the same operations twice, untraced and then traced with spans around the
public functions of each layer, and reports the per-layer metrics and the cost
of tracing.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, the machine record and (when traced) the spans are written under
``bench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: Every workload this script runs.  BENCHMARK.json lists all but
#: tripartite_mixed, which is run by hand (see README.md).
WORKLOADS = ("bipartite_n10", "tripartite_mixed", "cli_defaults")

#: End-to-end metrics printed by an untraced run: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

#: ``setup_s`` (and ``cli.import_s``) is the median over fresh processes: at
#: least SETUP_MIN_REPEATS of them, more while they took under SETUP_MIN_SECONDS
#: in all, at most SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_REPEATS = 20

#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass
class Record:
    label: str
    round: int
    latency: float
    failure: str | None


# -- environment ----------------------------------------------------------------


def pin_blas_threads() -> int:
    """Pin BLAS threads to the CPUs this process may use; children inherit it.

    Must run before numpy is imported.
    """
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_revision() -> dict:
    """Git commit when the tree is a checkout, and a digest of the fneg sources."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "fneg")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def machine_record(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def threads_now() -> int | None:
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


# -- measurement ----------------------------------------------------------------


def fresh_setup_seconds(workload: str) -> list[float]:
    """Wall time of fresh interpreters doing the workload's import and set-up."""
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "warmup.py"), workload],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{proc.stderr}")
    return times


def run_phase(units, round_units: int, seconds: float = 0.0, min_rounds: int = 1,
              tracer=None) -> tuple[list[Record], int]:
    """Run whole rounds of units until ``seconds`` have passed and at least
    ``min_rounds`` are done.

    Each operation is timed alone; drawing a unit (which makes its inputs) and
    checking its outputs happen outside the timers.
    """
    records: list[Record] = []
    done = 0
    start = time.perf_counter()
    while done < min_rounds or time.perf_counter() - start < seconds:
        for _ in range(round_units):
            unit = next(units)
            values, latencies, errors = [], [], []
            for op in unit.ops:
                t0 = time.perf_counter()
                try:
                    value = tracer.call_op(op.call) if tracer is not None else op.call()
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    value, error = None, f"raised {exc!r}"
                latencies.append(time.perf_counter() - t0)
                values.append(value)
                errors.append(error)
            reasons = unit.check(values)
            for op, latency, error, reason in zip(unit.ops, latencies, errors, reasons):
                records.append(Record(op.label, done, latency, error or reason))
        done += 1
    return records, done


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that has at
    least TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, TAIL_BEYOND


def ops_per_second(records: list[Record]) -> float:
    """Median over rounds of operations per second of operation time.

    A round always holds the same mix of operations, so the median discards a
    round slowed by other load on the machine without changing the mix.
    """
    busy: dict[int, float] = {}
    count: dict[int, int] = {}
    for r in records:
        busy[r.round] = busy.get(r.round, 0.0) + r.latency
        count[r.round] = count.get(r.round, 0) + 1
    return statistics.median(count[k] / busy[k] for k in busy)


def kind_median(records: list[Record]) -> float:
    """Median of operation time, taken over kinds of operation.

    Operations of one kind (one label) take about the same time, while kinds
    differ widely.  The plain median then often falls on the fastest or slowest
    sample of a kind, which swings with the noise of one sample.  Here each kind
    stands for its count of samples at its own median time.  When the middle
    falls exactly between two kinds, as it does when eight commands run equally
    often, the result is the mean of their two medians, as for an even count.
    """
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.label, []).append(r.latency)
    kinds = sorted((statistics.median(v), len(v)) for v in by_kind.values())
    seen = 0
    for i, (median, count) in enumerate(kinds):
        seen += count
        if 2 * seen == len(records):
            return (median + kinds[i + 1][0]) / 2
        if 2 * seen > len(records):
            return median
    raise ValueError("no records")


def end_to_end_metrics(records: list[Record], setup_times: list[float], peak_rss_mb: float):
    latencies = [r.latency for r in records]
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_second(records),
        "op_p50_s": kind_median(records),
        "op_tail_s": tail_value,
        "peak_rss_mb": peak_rss_mb,
    }
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.label, []).append(r.latency)
    details = {
        "setup_samples_s": setup_times,
        "latency_by_kind_s": {k: sorted(v) for k, v in sorted(by_kind.items())},
        "operations": len(records),
        "busy_s": sum(latencies),
        "op_tail_percentile": tail_pct,
        "op_tail_samples": len(latencies),
        "op_tail_samples_beyond": beyond,
    }
    return metrics, details


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli_defaults" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def make_units(workload: str, seed: int, in_process_cli: bool):
    import workloads

    if workload == "bipartite_n10":
        return workloads.bipartite_units(seed)
    if workload == "tripartite_mixed":
        return workloads.tripartite_units(seed)
    if in_process_cli:
        return workloads.cli_units(seed, workloads.cli_inprocess)
    return workloads.cli_units(seed, lambda argv: workloads.cli_subprocess(argv, ROOT))


# -- runs -----------------------------------------------------------------------


def untraced_run(workload: str, seed: int, seconds: float):
    import warmup
    import workloads

    setup_times = fresh_setup_seconds(workload)
    if workload != "cli_defaults":
        warmup.warm_up(workload)
    round_units, min_rounds = workloads.ROUNDS[workload]
    records, rounds = run_phase(make_units(workload, seed, False), round_units,
                                seconds=seconds, min_rounds=min_rounds)
    metrics, details = end_to_end_metrics(records, setup_times, peak_rss_mb(workload))
    details["rounds"] = rounds
    return records, metrics, details, None


def traced_run(workload: str, seed: int, seconds: float):
    import tracing
    import warmup
    import workloads

    import_times = fresh_setup_seconds("cli_defaults")
    warmup.warm_up(workload)
    round_units = workloads.ROUNDS[workload][0]
    plain, rounds = run_phase(make_units(workload, seed, True), round_units,
                              seconds=seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run_phase(make_units(workload, seed, True), round_units,
                              min_rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    plain_busy = sum(r.latency for r in plain)
    traced_busy = sum(r.latency for r in traced)
    overhead = 1.0 - ops_per_second(traced) / ops_per_second(plain)
    metrics = tracing.per_layer_metrics(tracer.spans, len(traced), statistics.median(import_times),
                                        overhead)
    details = {
        "rounds": rounds,
        "operations_untraced": len(plain),
        "operations_traced": len(traced),
        "busy_untraced_s": plain_busy,
        "busy_traced_s": traced_busy,
        "spans": tracer.span_count,
        "bindings_patched": tracer.bindings,
        "missing_layers": tracer.missing,
        "import_samples_s": import_times,
    }
    return plain + traced, metrics, details, tracer


def report(workload, seed, trace, records, metrics, details, units, revision, machine):
    failed = sum(1 for r in records if r.failure)
    print(f"fneg benchmark: workload={workload} seed={seed} trace={trace} "
          f"commit={revision['git_commit']} source={revision['source_sha256'][:12]}")
    print(f"  machine: nproc={machine['nproc']} python={machine['python']} "
          f"numpy={machine['numpy']} blas={machine['blas'].get('name')} "
          f"{machine['blas'].get('version')} blas_threads={machine['blas_threads']}")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {units[name]}")
    if trace == 0:
        print(f"  {'op_tail_s is':<{width}}  p{details['op_tail_percentile']:.1f} of "
              f"{details['op_tail_samples']} samples, {details['op_tail_samples_beyond']} beyond")
    else:
        covered = metrics["trace.covered_frac"]
        print(f"  layers' self time covers {100 * covered:.1f}% of the traced wall time; "
              f"the uncovered remainder is {100 * (1 - covered):.1f}% "
              f"({metrics['trace.uncovered_s']:.6g} s/op)")
        missing = details["missing_layers"]
        print(f"  missing layers: {', '.join(missing) if missing else 'none'}")
    print(f"  {'failed_frac':<{width}}  {failed / len(records):.6g} "
          f"({failed} of {len(records)} operations)")
    for r in [r for r in records if r.failure][:5]:
        print(f"  FAILED {r.label}: {r.failure}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "fneg", "__init__.py")):
        print(f"error: fneg sources not found under {SRC}", file=sys.stderr)
        return 2

    blas_threads = pin_blas_threads()
    # numpy and fneg are imported only now, after the BLAS thread pin.
    sys.path[:0] = [SRC, BENCH_DIR]
    compileall.compile_dir(os.path.join(SRC, "fneg"), quiet=1)
    import fneg

    if not os.path.abspath(fneg.__file__).startswith(os.path.join(SRC, "fneg")):
        print(f"error: imported fneg from {fneg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing

    revision = source_revision()
    machine = machine_record(blas_threads)
    if args.trace:
        records, metrics, details, tracer = traced_run(args.workload, args.seed, args.seconds)
        units = tracing.PER_LAYER_UNITS
    else:
        records, metrics, details, tracer = untraced_run(args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
    machine["threads_at_end"] = threads_now()

    failed = report(args.workload, args.seed, args.trace, records, metrics, details, units,
                    revision, machine)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl.gz")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **revision, "machine": machine,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "failed_frac": failed / len(records), "attempted": len(records), "failed": failed,
            "details": details,
            "failures": [{"op": r.label, "reason": r.failure} for r in records if r.failure],
        }, fh, indent=2)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
