"""The three benchmark workloads: seeded inputs, operations and output checks.

A workload is an endless sequence of units.  A unit is a few operations whose
outputs are checked together (a negativity and its complement, one report, one
CLI command).  Inputs are made with numpy from the benchmark seed when the unit
is drawn, before any operation of the unit is timed; fneg receives only the
finished matrices.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from warmup import (
    BIPARTITE_MODES,
    BIPARTITE_PAIRS,
    BIPARTITE_TARGETS,
    FLAVORS,
    TRIPARTITE_MIXED_ROUND,
    TRIPARTITE_PURE_SIZES,
    tripartite_labels,
)

#: Tolerances of the output checks.
PAIR_TOL = 1e-9  # N(target) against N(complement)
LOG_TOL = 1e-12  # log_negativity against log(2 N + 1)
NEG_TOL = 1e-9  # a negativity may not fall below -NEG_TOL
NABC_TOL = 1e-12  # n_abc against the geometric mean of the one-vs-rest negativities
CLI_TOL = 1e-9  # closed-form values printed by the CLI (its default tolerance)

#: Every default command, in the order one pass runs them.
CLI_COMMANDS: tuple[tuple[str, ...], ...] = (
    ("reproduce", "paper-values"),
    ("reproduce", "table1"),
    ("sweep", "psi_p", "--steps", "99"),
    ("sweep", "werner"),
    ("verify", "identities"),
    ("verify", "locc"),
    ("verify", "perturbation"),
    ("verify", "conjecture"),
)

#: verify subject -> (expected exit code, expected "passed", default trials).
#: Perturbation fails by design: the residual is quartic, not cubic (README).
VERIFY_EXPECTED = {
    "identities": (0, True, 100),
    "locc": (0, True, 200),
    "perturbation": (1, False, 50),
    "conjecture": (0, True, 10000),
}

PURE3_LABELS = {"A-B-C", "A-BC", "B-AC", "C-AB", "W", "GHZ"}


@dataclass
class Op:
    label: str
    call: Callable[[], object]


@dataclass
class Unit:
    """Operations run back to back; ``check`` maps their outputs to a failure
    reason per operation (``None`` when it passed).  An operation that raised
    has output ``None``."""

    ops: list[Op]
    check: Callable[[list], list]


# -- inputs ---------------------------------------------------------------------


def _parity(dim: int) -> np.ndarray:
    idx = np.arange(dim)
    bits = np.zeros(dim, dtype=np.int64)
    while idx.any():
        bits ^= idx & 1
        idx = idx >> 1
    return bits


def random_density_matrix(rng: np.random.Generator, num_modes: int) -> np.ndarray:
    """Full-rank parity-even density matrix ``G G^+ / Tr`` with Gaussian G."""
    dim = 1 << num_modes
    parity = _parity(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    g[parity[:, None] != parity[None, :]] = 0.0
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def random_pure_matrix(rng: np.random.Generator, num_modes: int, sector: int) -> np.ndarray:
    """Projector on a Gaussian random vector in one global parity sector."""
    dim = 1 << num_modes
    support = _parity(dim) == sector
    vec = np.zeros(dim, dtype=complex)
    vec[support] = rng.normal(size=support.sum()) + 1j * rng.normal(size=support.sum())
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


# -- checks ---------------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def check_bipartite(values: list) -> list:
    """Outputs ``[N(T), N(T^c), logN(T), logN(T^c)]`` of one state and flavor."""
    reasons: list = [None] * 4
    for i, v in enumerate(values):
        if not _finite(v):
            reasons[i] = f"non-finite or missing value {v!r}"
    for i in (0, 1):
        if reasons[i] is None and values[i] < -NEG_TOL:
            reasons[i] = f"negative negativity {values[i]!r}"
    if reasons[0] is None and reasons[1] is None and abs(values[0] - values[1]) > PAIR_TOL:
        msg = f"N(target)={values[0]!r} differs from N(complement)={values[1]!r}"
        reasons[0] = reasons[1] = msg
    for log_i, neg_i in ((2, 0), (3, 1)):
        if reasons[log_i] is None and _finite(values[neg_i]):
            want = math.log(2 * values[neg_i] + 1)
            if abs(values[log_i] - want) > LOG_TOL:
                reasons[log_i] = f"log_negativity {values[log_i]!r} != log(2N+1) = {want!r}"
    return reasons


def check_tripartite(report, pure: bool) -> str | None:
    """One ``tripartite_report`` output; ``pure`` says whether its input was pure."""
    if report is None:
        return "no report"
    entries = report.entries
    negs = [entries.get(f"negativity_{p}") for p in "ABC"]
    if not all(_finite(v) for v in negs):
        return f"non-finite one-vs-rest negativities {negs!r}"
    if min(negs) < -NEG_TOL:
        return f"negative one-vs-rest negativity {negs!r}"
    want = (max(negs[0], 0.0) * max(negs[1], 0.0) * max(negs[2], 0.0)) ** (1.0 / 3.0)
    got = entries.get("n_abc")
    if not _finite(got) or abs(got - want) > NABC_TOL * max(1.0, want):
        return f"n_abc {got!r} != geometric mean {want!r}"
    tangle = entries.get("three_tangle")
    if pure and (not _finite(tangle) or not -NEG_TOL <= tangle <= 1.0 + NEG_TOL):
        return f"pure input has three_tangle {tangle!r}"
    if not pure and tangle is not None:
        return "mixed input reported a three_tangle"
    return None


def _csv_rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _close(a: float, b: float, tol: float = CLI_TOL) -> bool:
    return abs(a - b) <= tol


def check_cli(command: tuple[str, ...], result) -> str | None:
    """Exit code and printed verdicts of one default command."""
    if result is None:
        return "command did not run"
    code, stdout = result
    try:
        if command[0] == "verify":
            want_code, want_passed, want_trials = VERIFY_EXPECTED[command[1]]
            if code != want_code:
                return f"exit code {code}, expected {want_code}"
            report = json.loads(stdout)
            if report.get("passed") is not want_passed:
                return f"passed={report.get('passed')!r}, expected {want_passed}"
            if report.get("trials") != want_trials:
                return f"trials={report.get('trials')!r}, expected {want_trials}"
            if want_passed and not report["max_violation"] <= report["tolerance"]:
                return "max_violation above tolerance in a passing report"
            return None
        if code != 0:
            return f"exit code {code}, expected 0"
        rows = _csv_rows(stdout)
        target = command[1]
        if target == "paper-values":
            if len(rows) != 22:
                return f"{len(rows)} paper values, expected 22"
            for r in rows:
                computed, expected, delta = (float(r[k]) for k in ("computed", "expected",
                                                                    "abs_delta"))
                if not (delta <= CLI_TOL and _close(delta, abs(computed - expected), 1e-15)):
                    return f"paper value {r['name']} off by {delta!r}"
            return None
        if target == "table1":
            if len(rows) != 6:
                return f"{len(rows)} table rows, expected 6"
            bad = [r["state"] for r in rows if r["match"] != "true"
                   or r["computed"] != r["expected"]]
            return f"table1 mismatch for {bad}" if bad else None
        if target == "psi_p":
            return _check_psi_p(rows)
        if target == "werner":
            return _check_werner(rows)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    return f"no check for command {command!r}"


def _check_psi_p(rows: list[dict]) -> str | None:
    grid = np.linspace(0.0, 1.0, 99)
    if len(rows) != grid.size:
        return f"{len(rows)} psi_p rows, expected {grid.size}"
    for r, p in zip(rows, grid):
        vals = [float(r[k]) for k in ("p", "j_abc", "three_tangle", "n_abc", "pi_abc")]
        if not all(math.isfinite(v) for v in vals) or not _close(vals[0], p, 1e-15):
            return f"bad psi_p row {r!r}"
        if min(vals[1:4]) < -CLI_TOL or r["label"] not in PURE3_LABELS:
            return f"bad psi_p row {r!r}"
    first, last = rows[0], rows[-1]
    # p = 0 is the W state, p = 1 the GHZ state (closed forms of the paper).
    if not (first["label"] == "W" and _close(float(first["j_abc"]), 0.0)
            and _close(float(first["three_tangle"]), 0.0)):
        return f"psi_p endpoint p=0 is not the W state: {first!r}"
    if not (last["label"] == "GHZ" and _close(float(last["j_abc"]), 0.25)
            and _close(float(last["three_tangle"]), 0.25)
            and _close(float(last["n_abc"]), 0.5)):
        return f"psi_p endpoint p=1 is not the GHZ state: {last!r}"
    return None


def _check_werner(rows: list[dict]) -> str | None:
    grid = np.linspace(0.0, 1.0, 101)
    if len(rows) != grid.size:
        return f"{len(rows)} werner rows, expected {grid.size}"
    for r, p in zip(rows, grid):
        got_p, neg, logneg = float(r["p"]), float(r["negativity"]), float(r["log_negativity"])
        want = math.log((1 + p) / 2 + math.sqrt(5 * p * p - 2 * p + 1) / 2)
        if not (_close(got_p, p, 1e-15) and _close(logneg, want)
                and _close(neg, (math.exp(want) - 1) / 2)):
            return f"werner row {r!r} differs from the closed form {want!r}"
    return None


# -- workloads ------------------------------------------------------------------


def bipartite_units(seed: int) -> Iterator[Unit]:
    """negativity and log_negativity at N = 10 over complementary target pairs."""
    from fneg import FockOperator, ModeLayout, SubsystemSpec, log_negativity, negativity

    n = BIPARTITE_MODES
    layout = ModeLayout(n, ("A",) * (n // 2) + ("B",) * (n - n // 2))
    specs = {name: SubsystemSpec(t) for name, t in BIPARTITE_TARGETS.items()}
    for i in itertools.count():
        rho = FockOperator(layout, random_density_matrix(_rng(seed, 0, i), n), copy=False)
        for target, complement in BIPARTITE_PAIRS:
            for flavor in FLAVORS:
                ops = [
                    Op(f"{fn.__name__}/{flavor}/{name}",
                       lambda fn=fn, rho=rho, name=name, flavor=flavor: float(
                           fn(rho, specs[name], flavor)))
                    for fn in (negativity, log_negativity)
                    for name in (target, complement)
                ]
                yield Unit(ops, check_bipartite)


def tripartite_units(seed: int) -> Iterator[Unit]:
    """tripartite_report on pure three-mode and mixed A|B|C states, both flavors."""
    from fneg import FockOperator, ModeLayout, tripartite_report

    def unit(rho, flavor, pure, tag):
        return Unit([Op(f"tripartite_report/{flavor}/{tag}",
                        lambda: tripartite_report(rho, flavor))],
                    lambda values: [check_tripartite(values[0], pure)])

    pure_layout = ModeLayout(3, tripartite_labels(TRIPARTITE_PURE_SIZES))
    layouts = {s: ModeLayout(sum(s), tripartite_labels(s)) for s in TRIPARTITE_MIXED_ROUND}
    for i in itertools.count():
        sector = i % 2
        rho = FockOperator(pure_layout, random_pure_matrix(_rng(seed, 0, i), 3, sector),
                           copy=False)
        for flavor in FLAVORS:
            yield unit(rho, flavor, True, ("pure_even", "pure_odd")[sector])
        for k, sizes in enumerate(TRIPARTITE_MIXED_ROUND):
            layout = layouts[sizes]
            rho = FockOperator(layout, random_density_matrix(_rng(seed, 1 + k, i),
                                                             layout.num_modes), copy=False)
            for flavor in FLAVORS:
                yield unit(rho, flavor, False, "mixed_" + "".join(map(str, sizes)))


def cli_subprocess(argv: list[str], root: str):
    """Run ``python -m fneg.cli`` as a user would; returns (exit code, stdout)."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "fneg.cli", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def cli_inprocess(argv: list[str]):
    """Call ``fneg.cli.main`` in this process, capturing what it prints."""
    import fneg.cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = fneg.cli.main(argv)
    return code, out.getvalue()


def cli_units(seed: int, runner: Callable[[list[str]], tuple]) -> Iterator[Unit]:
    """Every default command in turn, each one operation."""
    for command in itertools.cycle(CLI_COMMANDS):
        argv = ["--seed", str(seed), *command]
        yield Unit([Op(" ".join(command), lambda argv=argv: runner(argv))],
                   lambda values, command=command: [check_cli(command, values[0])])


#: Units per round and the fewest rounds a run measures.  A run measures whole
#: rounds, so every run sees the same mix of operations: a target pair in both
#: flavors, one draw of inputs, one pass over the commands.  The slowest kinds
#: (the two (3,3,3) reports; verify conjecture, then verify locc) have one
#: sample a round each.  With seven rounds or more, the tail, with 10 samples
#: beyond it, falls near the middle of the second-slowest kind in every run.
ROUNDS = {
    "bipartite_n10": (len(FLAVORS), 1),
    "tripartite_mixed": ((1 + len(TRIPARTITE_MIXED_ROUND)) * len(FLAVORS), 7),
    "cli_defaults": (len(CLI_COMMANDS), 7),
}
