"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 brackets the halving ratio of the residual against the
second-order trace-norm prediction around 16, i.e. a quartic residual.  The
perturbation is odd in the parity of mode A, so conjugating by the subsystem
parity ``P_A`` maps ``rho(eps)`` to ``rho(-eps)`` and leaves the spectrum of
the transposed state unchanged: the trace norm is even in eps, every odd order
vanishes and the first term past second order is eps**4.  The bracket
[12, 20] is 16 +- 25 %; a wrong second-order coefficient (ratio ~4), a
surviving odd order (~8) or a round-off floor (~1) all fall outside it.
"""

import numpy as np
from click.testing import CliRunner

from fneg.cli import cli
from fneg.classify import mixed3_classify, off_diagonal_norm
from fneg.fock import ModeLayout, SubsystemSpec
from fneg.measures import (
    amplitude_tensor,
    cayley_hdet,
    negativity,
    trace_norm,
)
from fneg.ptranspose import fermionic_pt, fermionic_pt_majorana, partial_trace
from fneg.states import (
    biseparable_example,
    canonical_state,
    pure_vector_from_coeffs,
    PureCoeffs,
    random_density,
    random_separable,
)
from fneg.verify import (
    _paper_value_rows,
    check_identity_suite,
    check_locc_monotonicity,
    check_perturbation_expansion,
    conjecture_scan,
)
from conftest import random_biseparable, random_even_operator


def _verdict(number: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {description}: {detail}")
    assert ok, f"criterion {number} ({description}): {detail}"


def _random_lambdas(rng, count):
    lams = rng.normal(size=count) + 1j * rng.normal(size=count)
    return lams / np.linalg.norm(lams)


def test_criterion_01_closed_form_regression():
    rows = _paper_value_rows()
    worst = max(abs(computed - expected) for _, computed, expected in rows)
    _verdict(
        1,
        "closed-form regression vs cited formulas (tol 1e-9)",
        worst <= 1e-9,
        f"{len(rows)} values, max |delta| = {worst:.3e}",
    )


def test_criterion_02_pure_state_formulas():
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(1000):
        lams = _random_lambdas(rng, 2)
        parity = "even" if k % 2 else "odd"
        rho = canonical_state("two_mode_pure", lambdas=lams, parity=parity)
        value = negativity(rho, SubsystemSpec((1,)))
        worst = max(worst, abs(value - abs(lams[0] * lams[1])))
    for k in range(1000):
        lams = _random_lambdas(rng, 4)
        parity = "even" if k % 2 else "odd"
        rho = canonical_state("three_mode_pure", lambdas=lams, parity=parity)
        closed = np.sqrt(
            (abs(lams[0]) ** 2 + abs(lams[2]) ** 2)
            * (abs(lams[1]) ** 2 + abs(lams[3]) ** 2)
        )
        worst = max(worst, abs(negativity(rho, SubsystemSpec((1,))) - closed))
        vec, _ = pure_vector_from_coeffs(PureCoeffs(tuple(lams), parity))
        tangle = abs(cayley_hdet(amplitude_tensor(vec)))
        worst = max(worst, abs(tangle - 4 * np.prod(np.abs(lams))))
    _verdict(
        2,
        "pure-state negativity and hyperdeterminant closed forms (tol 1e-10)",
        worst <= 1e-10,
        f"2000 states, max |delta| = {worst:.3e}",
    )


def test_criterion_03_definition_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    count = 0
    for n in (2, 3, 4):
        layout = ModeLayout(n, ("A",) * n)
        subsets = [
            tuple(m for m in range(1, n + 1) if (mask >> (m - 1)) & 1)
            for mask in range(1, 1 << n)
        ]
        subsets = [s for s in subsets if len(s) < n]
        target = 334 if n == 2 else 333
        for k in range(target):
            op = random_even_operator(layout, rng)
            spec = SubsystemSpec(subsets[k % len(subsets)])
            dev = np.abs(
                fermionic_pt(op, spec).matrix - fermionic_pt_majorana(op, spec).matrix
            ).max()
            worst = max(worst, dev)
            count += 1
    _verdict(
        3,
        "occupation-rule vs Majorana-rule transpose agreement (tol 1e-12)",
        worst <= 1e-12,
        f"{count} operators over N=2,3,4, max elementwise |delta| = {worst:.3e}",
    )


def test_criterion_04_identity_suite():
    rep3 = check_identity_suite(seed=404, trials=100, modes=(3,), tolerance=1e-11)
    rep4 = check_identity_suite(seed=405, trials=50, modes=(4,), tolerance=1e-11)
    worst = max(rep3.max_violation, rep4.max_violation)
    _verdict(
        4,
        "transpose identity suite, 100 trials N=3 + 50 trials N=4 (tol 1e-11)",
        rep3.passed and rep4.passed,
        f"max elementwise violation = {worst:.3e}",
    )


def test_criterion_05_locc_monotonicity():
    report = check_locc_monotonicity(seed=505, trials=200, tolerance=1e-10)
    _verdict(
        5,
        "LOCC monotonicity suite, 200 trials (one-sided slack 1e-10)",
        report.passed,
        f"max violation = {report.max_violation:.3e}",
    )


def test_criterion_06_two_mode_biconditional():
    rng = np.random.default_rng(606)
    layout = ModeLayout.bipartite(1, 1)
    spec = SubsystemSpec((1,))
    disagreements = 0
    for k in range(10_000):
        if k % 10 == 0:
            from fneg.fock import FockOperator

            rho = FockOperator(layout, np.diag(rng.dirichlet(np.ones(4))).astype(complex))
        else:
            rho = random_density(layout, rng)
        neg = (trace_norm(fermionic_pt(rho, spec)) - 1.0) / 2.0
        structural = off_diagonal_norm(rho) > 1e-8
        if structural != (neg > 1e-10):
            disagreements += 1
    _verdict(
        6,
        "two-mode separability: negativity vs structural test, 1e4 states",
        disagreements == 0,
        f"{disagreements} disagreements",
    )


def test_criterion_07_mixed_three_mode_classification():
    rng = np.random.default_rng(707)
    layout = ModeLayout.tripartite()
    parts = [SubsystemSpec((1,)), SubsystemSpec((2,)), SubsystemSpec((3,))]
    wrong = 0
    for _ in range(1000):
        rho = random_separable(layout, parts, num_terms=int(rng.integers(1, 4)), seed=rng)
        if mixed3_classify(rho).label != "fully_separable":
            wrong += 1
    parties = ("A", "B", "C")
    for k in range(1000):
        party = parties[k % 3]
        rho = random_biseparable(
            layout, layout.spec(party), num_terms=int(rng.integers(1, 4)), seed=rng
        )
        if mixed3_classify(rho).label != f"biseparable({party})":
            wrong += 1
    example = biseparable_example(0.8)
    label = mixed3_classify(example).label
    reduced = partial_trace(example, SubsystemSpec((2, 3)))
    n_bc = negativity(reduced, reduced.layout.spec("B"))
    example_ok = label == "biseparable(A)" and abs(n_bc) <= 1e-10
    _verdict(
        7,
        "mixed 3-mode: 1e3 separable + 1e3 biseparable classified, mixture example",
        wrong == 0 and example_ok,
        f"{wrong} misclassifications; example label {label}, N_BC = {n_bc:.2e}",
    )


def test_criterion_08_perturbation_scaling():
    report = check_perturbation_expansion(
        seed=808, trials=50, epsilons=(1e-2, 5e-3, 2.5e-3),
        ratio_bounds=(12.0, 20.0), min_pass_fraction=0.9,
    )
    ratios = [r for d in report.diagnostics for r in d["ratios"]]
    _verdict(
        8,
        "quartic residual: halving ratio in [12,20] for >=90% of 50 instances",
        report.passed,
        f"failing fraction = {report.max_violation:.2f}, measured ratios in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], median {np.median(ratios):.2f}",
    )


def test_criterion_09_conjecture_scan():
    report = conjecture_scan(seed=909, samples=10_000, num_modes=(2, 3), threshold=1e-10)
    summary = report.diagnostics[0]
    _verdict(
        9,
        "type-II positivity scan: 1e4 states, no negativity below 1e-10",
        report.passed and not summary["counterexamples"],
        f"min negativity = {summary['min_negativity']:.3e}",
    )


def test_criterion_10_fig3_sweep():
    runner = CliRunner()
    result = runner.invoke(
        cli,
        ["sweep", "psi_p", "--min", "0", "--max", "1", "--steps", "99", "--normalized"],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {name: i for i, name in enumerate(header)}
    by_p = {float(r[cols["p"]]): r for r in rows}
    measures = ("j_abc", "three_tangle", "n_abc", "pi_abc")

    at_one = [abs(float(by_p[1.0][cols[m]]) - 1.0) for m in measures]
    p_sep = 56.0 / 98.0  # = 4/7, on the grid exactly
    at_sep = [abs(float(by_p[p_sep][cols[m]])) for m in measures]
    w_rows = [r for r in rows if r[cols["label"]] == "W"]
    w_ok = all(
        abs(float(r[cols["j_abc"]])) <= 1e-9
        and abs(float(r[cols["three_tangle"]])) <= 1e-9
        for r in w_rows
    )
    ok = max(at_one) <= 1e-9 and max(at_sep) <= 1e-9 and w_ok and len(w_rows) >= 1
    _verdict(
        10,
        "interpolation sweep: normalized measures 1 at p=1, 0 at p=4/7, W rows clean",
        ok,
        f"max |1-value| at p=1: {max(at_one):.2e}, max at p=4/7: {max(at_sep):.2e}, "
        f"{len(w_rows)} W-class rows",
    )
