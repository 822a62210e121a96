"""Self-tests of the benchmark: span arithmetic, layer wrapping, output checks
and the names it prints.  Run from the repository root with
``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import numpy as np  # noqa: E402

import fneg  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, per_layer_metrics, self_times  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- span arithmetic --------------------------------------------------------------


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span("op", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 9.5, 0),  # overlaps b: the covered time is counted once
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5])


def test_per_layer_metrics_from_fake_spans():
    spans = [
        Span("op", 0.0, 10.0, -1),
        Span("fneg.measures.trace_norm", 1.0, 5.0, 0),
        Span("fneg.fock.FockOperator.require_density_matrix", 2.0, 3.0, 1),
        Span("fneg.measures.three_tangle", 6.0, 7.0, 0, ok=False),
        Span("op", 10.0, 12.0, -1),
        Span("fneg.verify.conjecture_scan", 10.0, 12.0, 4, trials=4),
        Span("fneg.ptranspose.fermionic_pt", 10.5, 11.0, 5),
    ]
    m = per_layer_metrics(spans, ops=2, import_s=0.25, overhead_frac=0.01)
    assert m["measures.spectral.self_s"] == pytest.approx(3.0 / 2)
    assert m["fock.validate.calls_per_op"] == pytest.approx(0.5)
    assert m["measures.three_tangle.useful_ratio"] == 0.0
    assert m["verify.self_s_per_trial"] == pytest.approx(1.5 / 4)
    assert m["verify.trials"] == pytest.approx(2.0)
    assert m["ptranspose.fermionic_pt.self_s"] == pytest.approx(0.25)
    # 12 s of operations, 3 + 1 + 1 + 1.5 + 0.5 s of it inside layers
    assert m["trace.covered_frac"] == pytest.approx(7.0 / 12)
    assert m["trace.uncovered_s"] == pytest.approx(5.0 / 2)
    assert set(m) == set(tracing.PER_LAYER_UNITS)


# -- wrapping ---------------------------------------------------------------------


def _state(num_modes: int, seed: int = 0) -> fneg.FockOperator:
    labels = tuple("ABC"[min(i, 2)] for i in range(num_modes))
    rng = np.random.default_rng(seed)
    return fneg.FockOperator(fneg.ModeLayout(num_modes, labels),
                             workloads.random_density_matrix(rng, num_modes), copy=False)


def test_wrappers_cover_imported_names_and_methods():
    import fneg.measures
    import fneg.ptranspose
    import fneg.verify

    rho = _state(3)
    fneg.measures.negativity(rho, (1,))  # builds the cached tables before tracing
    original_pt = fneg.ptranspose.fermionic_pt
    original_method = fneg.FockOperator.__dict__["require_density_matrix"]
    tracer = Tracer()
    tracer.install()
    try:
        for module in (fneg, fneg.ptranspose, fneg.verify):
            assert module.fermionic_pt.__wrapped__ is original_pt
        assert tracer.bindings["fneg.ptranspose.fermionic_pt"] >= 3
        assert fneg.FockOperator.__dict__["require_density_matrix"].__wrapped__ is original_method
        assert tracer.missing == []
        tracer.call_op(lambda: fneg.measures.negativity(rho, (1,)))
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names == ["op", "fneg.fock.FockOperator.require_density_matrix",
                     "fneg.ptranspose.fermionic_pt", "fneg.measures.trace_norm"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, 0]
    assert fneg.verify.fermionic_pt is original_pt
    assert fneg.FockOperator.__dict__["require_density_matrix"] is original_method


def test_missing_layer_function_is_reported():
    tracer = Tracer()
    tracer.install({"ptranspose.fermionic_pt": ("fneg.ptranspose", ("fermionic_pt",
                                                                    "_gone_kernel"))})
    tracer.uninstall()
    assert tracer.missing == ["fneg.ptranspose._gone_kernel"]


# -- output checks ------------------------------------------------------------------


def test_bipartite_check_rejects_corrupted_values():
    n = 0.125
    good = [n, n, math.log(2 * n + 1), math.log(2 * n + 1)]
    assert workloads.check_bipartite(good) == [None] * 4
    assert workloads.check_bipartite([n, n + 1e-6] + good[2:])[:2] != [None, None]
    assert workloads.check_bipartite(good[:2] + [good[2] + 1e-9, good[3]])[2] is not None
    assert workloads.check_bipartite([None] + good[1:])[0] is not None
    assert workloads.check_bipartite([-0.1, -0.1, 0.0, 0.0])[0] is not None


def test_tripartite_check_rejects_corrupted_reports():
    pure = fneg.FockOperator(
        fneg.ModeLayout(3, ("A", "B", "C")),
        workloads.random_pure_matrix(np.random.default_rng(1), 3, 0), copy=False)
    mixed = _state(3, seed=2)
    for rho, is_pure in ((pure, True), (mixed, False)):
        report = fneg.tripartite_report(rho)
        assert workloads.check_tripartite(report, is_pure) is None
        entries = dict(report.entries)
        bad = dict(entries, n_abc=entries["n_abc"] + 1e-6)
        assert workloads.check_tripartite(replace(report, entries=bad), is_pure)
        bad = dict(entries, negativity_B=-1e-6)
        assert workloads.check_tripartite(replace(report, entries=bad), is_pure)
        assert workloads.check_tripartite(report, not is_pure)


@pytest.mark.parametrize("command", [c for c in workloads.CLI_COMMANDS
                                     if c[1] not in ("locc", "conjecture")])
def test_cli_check_accepts_real_output_and_rejects_corruption(command):
    code, out = workloads.cli_inprocess(["--seed", "3", *command])
    assert workloads.check_cli(command, (code, out)) is None
    assert workloads.check_cli(command, (1 - code, out)) is not None
    if command[0] == "verify":
        report = json.loads(out)
        report["passed"] = not report["passed"]
        assert workloads.check_cli(command, (code, json.dumps(report))) is not None
    else:
        header, first, *rest = out.splitlines()
        cells = first.split(",")
        cells[-1 if command[1] != "psi_p" else 1] = "0.5"
        corrupted = "\n".join([header, ",".join(cells), *rest])
        assert workloads.check_cli(command, (code, corrupted)) is not None
    assert workloads.check_cli(command, (code, "")) is not None


def test_cli_subprocess_runs_the_sources_of_this_tree():
    command = ("reproduce", "table1")
    result = workloads.cli_subprocess(["--seed", "0", *command], ROOT)
    assert workloads.check_cli(command, result) is None


def test_cli_check_of_passing_verify_reports():
    for subject in ("locc", "conjecture"):
        code, passed, trials = workloads.VERIFY_EXPECTED[subject]
        report = {"trials": trials, "passed": passed, "max_violation": 0.0, "tolerance": 0.0}
        command = ("verify", subject)
        assert workloads.check_cli(command, (code, json.dumps(report))) is None
        assert workloads.check_cli(command, (2, json.dumps(report))) is not None
        report["trials"] = trials - 1
        assert workloads.check_cli(command, (code, json.dumps(report))) is not None


# -- metric arithmetic and names ------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(30)])
    assert (value, beyond) == (19.0, 10) and pct == pytest.approx(200 / 3)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_kind_median_takes_the_median_of_the_middle_kind():
    records = [run.Record(label, 0, t, None) for label, t in
               [("a", 1.0), ("a", 1.2), ("b", 2.0), ("b", 2.2), ("b", 9.0), ("c", 3.0)]]
    assert run.kind_median(records) == pytest.approx(2.2)
    records += [run.Record("a", 1, 1.1, None)] * 3
    assert run.kind_median(records) == pytest.approx(1.1)
    records = [run.Record(label, 0, t, None) for label, t in
               [("a", 1.0), ("a", 1.2), ("b", 2.0), ("b", 4.0)]]
    assert run.kind_median(records) == pytest.approx((1.1 + 3.0) / 2)  # between two kinds


def test_ops_per_second_is_the_median_round():
    records = [run.Record("x", k, t, None) for k, t in [(0, 1.0), (0, 1.0), (1, 4.0),
                                                         (1, 4.0), (2, 2.0), (2, 2.0)]]
    assert run.ops_per_second(records) == pytest.approx(0.5)


def test_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == [w for w in run.WORKLOADS
                                                      if w != "tripartite_mixed"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS
    assert set(workloads.ROUNDS) == set(run.WORKLOADS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace,names", [
    ("bipartite_n10", "0", "end_to_end"),
    ("cli_defaults", "1", "per_layer"),
])
def test_printed_result_matches_benchmark_json(workload, trace, names):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _benchmark_json()[names]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in want:
        assert name in proc.stdout.splitlines()[2 + list(want).index(name)]


def test_refuses_to_run_without_sources():
    # A tree holding only BENCHMARK.json and bench/, kept under the ignored results/.
    tree = os.path.join(BENCH_DIR, "results", "tree-without-sources")
    shutil.rmtree(tree, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, os.path.join(tree, "bench"),
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli_defaults", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tree, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(tree, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
