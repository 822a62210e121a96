import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_even_operator, record_calls
from fneg import measures as measures_mod
from fneg import states as states_mod
from fneg.errors import ParityError, SamplingError, StateValidationError
from fneg import verify as verify_mod
from fneg.cli import main as cli_main
from fneg.fock import FLAG_TOL, FockOperator, ModeLayout, SubsystemSpec, embed_local, \
    graded_tensor, parity_op
from fneg.measures import log_negativity, negativity, pairwise_negativity, trace_norm
from fneg.ptranspose import fermionic_pt, fermionic_pt_majorana, full_transpose, partial_trace
from fneg.states import random_density
from fneg.verify import (
    CheckReport,
    check_identity_suite,
    check_locc_monotonicity,
    check_perturbation_expansion,
    conjecture_scan,
    perturbed_state,
    pi_inequality_scan,
    trace_norm_prediction,
    _draw_projector_set,
    _even_hermitians,
    _fingerprint,
    _hermitian_part,
    _measured_branches,
    _parity_eigh,
    _parity_projectors,
    _perturbation_instance,
    _projector_set,
    _unitaries,
)


def _even_unitary(layout: ModeLayout, rng) -> FockOperator:
    """One local unitary as ``verify locc`` draws and builds it."""
    normals = rng.normal(size=(2, layout.dim, layout.dim))
    return FockOperator(layout, _unitaries(normals, layout.num_modes))


def _even_projector_set(layout: ModeLayout, rng) -> list[FockOperator]:
    """One set of at most three local projectors as ``verify locc`` draws and builds it."""
    normals, n_groups, assignment = _draw_projector_set(rng, layout.num_modes)
    _, vecs = _parity_eigh(_even_hermitians(normals, layout.num_modes), layout.num_modes)
    return [FockOperator(layout, p) for p in _projector_set(vecs, n_groups, assignment)]


def _parity_pair(layout: ModeLayout) -> list[FockOperator]:
    """The even/odd projectors ``(1 +- (-1)^F)/2`` of a whole local system."""
    modes = tuple(range(1, layout.num_modes + 1))
    return [FockOperator(layout, p) for p in _parity_projectors(layout, modes)]


class TestHelpers:
    def test_unitary_is_unitary_and_even(self, rng):
        # a stack of three, as the LOCC build draws them; exactly zero off the parity blocks
        lay = ModeLayout(2, ("A", "A"))
        for u in _unitaries(rng.normal(size=(3, 2, 4, 4)), 2):
            assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-12
            assert FockOperator(lay, u)._parity_leak() == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_parity_eigh_is_eigh_on_the_blocks(self, rng, m):
        # ascending eigenvalues as eigh returns them, each eigenvector in one sector
        herm = _even_hermitians(rng.normal(size=(3, 2, 1 << m, 1 << m)), m)
        evals, vecs = _parity_eigh(herm, m)
        assert np.abs(evals - np.linalg.eigvalsh(herm)).max() <= 1e-12
        assert (np.diff(evals, axis=-1) >= 0).all()
        assert np.abs(herm @ vecs - vecs * evals[..., None, :]).max() <= 1e-12
        assert np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - np.eye(1 << m)).max() <= 1e-12
        parity = verify_mod._sign_vector(m, (1 << m) - 1)
        for column in vecs.swapaxes(-1, -2).reshape(-1, 1 << m):
            assert len(set(parity[column != 0.0])) == 1

    def test_projector_set_complete_orthogonal(self, rng):
        lay = ModeLayout(2, ("A", "A"))
        projs = _even_projector_set(lay, rng)
        total = sum(p.matrix for p in projs)
        assert np.abs(total - np.eye(4)).max() <= 1e-12
        for i, p in enumerate(projs):
            assert np.abs(p.matrix @ p.matrix - p.matrix).max() <= 1e-12
            assert p._parity_leak() == 0.0
            for q in projs[i + 1:]:
                assert np.abs(p.matrix @ q.matrix).max() <= 1e-12

    def test_parity_projector_pair(self):
        lay = ModeLayout(2, ("A", "A"))
        even, odd = _parity_pair(lay)
        assert np.allclose(np.diag(even.matrix), [1, 0, 0, 1])
        assert np.allclose(np.diag(odd.matrix), [0, 1, 1, 0])
        # on a subset of the modes: the parity of mode 2 alone
        even, odd = _parity_projectors(lay, (2,))
        assert np.array_equal(np.diag(even).real, [1, 1, 0, 0])
        assert np.array_equal(np.diag(odd).real, [0, 0, 1, 1])

    def test_report_invariant(self):
        rep = CheckReport("demo", 1, 2e-11, 1e-11, passed=(2e-11 <= 1e-11))
        assert rep.passed == (rep.max_violation <= rep.tolerance)

    def test_to_dict_dumps_as_a_deep_copy(self):
        # the fields in order, nested diagnostics included, without copying them
        rep = conjecture_scan(seed=5, samples=30, num_modes=(2,), threshold=1.0)
        assert json.dumps(rep.to_dict(), indent=2) == json.dumps(dataclasses.asdict(rep), indent=2)
        assert rep.to_dict()["diagnostics"] is rep.diagnostics


#: SHA-256 of ``fneg --seed <seed> verify locc`` as printed once its local unitaries and
#: projectors were built on parity blocks, its product states were taken as their Hermitian
#: parts, and every norm below five modes came from the Hermitian twin's blocks.
#: ``test_batched_report_equals_per_call_reference`` ties them to a trial-by-trial run with
#: one ``negativity`` call per value.
_LOCC_SHA256 = {
    0: "f681b369bcf8d548af926f6662c40cf37bb1c3acca7f052cbc0e4781f8fa8340",
    7: "eecf44d339eb8b38afed86c3948352074cd3c0683f0bc20ad5748dca7aca292d",
    505: "64c13069178cb603c9b571fd8ab0a6df0a4d99150c72f66ab56300b12670db28",
}

#: SHA-256 of ``fneg --seed <seed> verify identities [--modes ...]`` as printed when every
#: transpose of a trial was one ``fermionic_pt`` or ``full_transpose`` call.
_IDENTITY_SHA256 = {
    (7, None): "b8709c9e253bff6be2461ddfd39d73aa1727956f680cf23ff4af12f0d02761ad",
    (1234, None): "b1cca5b22f0c95e01037d4636ee03b718333643fe739a14bcaa57adba107512d",
    (7, "2,3,4,5,6"): "e432fd4be17710c58e925382fc0b1e25b7c758471e08c9d5c0b329d691094f42",
}


def _per_call_locc_trial(rng) -> dict:
    """One LOCC trial's diagnostics with one ``negativity`` or ``log_negativity`` call per value.

    Each state formed by a product is replaced by its Hermitian part, as ``verify locc`` forms it.
    """
    n = int(rng.integers(2, 5))
    m_a = int(rng.integers(1, n))
    layout = ModeLayout.bipartite(m_a, n - m_a)
    spec_a, modes_b = layout.spec("A"), layout.spec("B").target_modes
    sub_a, sub_b = ModeLayout(m_a, ("A",) * m_a), ModeLayout(n - m_a, ("A",) * (n - m_a))
    rho = random_density(layout, rng)
    base_neg = negativity(rho, spec_a)
    base_logneg = float(np.log(2.0 * base_neg + 1.0))
    viol = {}
    u = embed_local(_even_unitary(sub_a, rng), layout, spec_a.target_modes).matrix
    u = u @ embed_local(_even_unitary(sub_b, rng), layout, modes_b).matrix
    rotated = FockOperator(layout, _hermitian_part(u @ rho.matrix @ u.conj().T))
    viol["local_unitary"] = abs(negativity(rotated, spec_a) - base_neg)
    appended = graded_tensor(rho, random_density(ModeLayout(1, ("A",)), rng))
    appended = FockOperator(appended.layout, _hermitian_part(appended.matrix))
    viol["ancilla_append"] = abs(negativity(appended, appended.layout.spec("A")) - base_neg)
    if rng.integers(0, 2):
        proj_a, proj_b = _even_projector_set(sub_a, rng), _even_projector_set(sub_b, rng)
    else:
        proj_a, proj_b = _parity_pair(sub_a), _parity_pair(sub_b)
    avg = 0.0
    for pa in proj_a:
        for pb in proj_b:
            op = (embed_local(pa, layout, spec_a.target_modes).matrix
                  @ embed_local(pb, layout, modes_b).matrix)
            projected = _hermitian_part(op @ rho.matrix @ op)
            weight = float(np.real(np.trace(projected)))
            if weight > FLAG_TOL:
                avg += weight * negativity(FockOperator(layout, projected / weight), spec_a)
    viol["projective"] = max(0.0, avg - base_neg)
    sigma = graded_tensor(rho, random_density(ModeLayout(1, ("A",)), rng))
    big, tilde_spec = sigma.layout, sigma.layout.spec("A")
    r_mode = tilde_spec.target_modes[-1]
    u_ar = embed_local(_even_unitary(ModeLayout(m_a + 1, ("A",) * (m_a + 1)), rng), big,
                       tilde_spec.target_modes).matrix
    evolved = FockOperator(big, _hermitian_part(u_ar @ sigma.matrix @ u_ar.conj().T))
    viol["unilocal_unitary"] = abs(negativity(evolved, tilde_spec) - base_neg)
    keep = SubsystemSpec(tuple(m for m in range(1, big.num_modes + 1) if m != r_mode))
    branches = []
    for p in _parity_pair(ModeLayout(1, ("A",))):  # dense occupation projectors
        e = embed_local(p, big, (r_mode,)).matrix
        projected = e @ evolved.matrix @ e
        weight = float(np.real(np.trace(projected)))
        if weight > FLAG_TOL:
            branches.append((weight, partial_trace(FockOperator(big, projected / weight), keep)))
    avg_neg = avg_logneg = 0.0  # left to right, as np.bincount adds; not a compensated sum
    for w, red in branches:
        avg_neg += w * negativity(red, spec_a)
        avg_logneg += w * log_negativity(red, spec_a)
    mixed = FockOperator(layout, sum(w * red.matrix for w, red in branches))
    viol["ancilla_trace_selective"] = max(0.0, avg_neg - base_neg)
    viol["ancilla_trace_averaged"] = max(0.0, negativity(mixed, spec_a) - base_neg)
    viol["ancilla_trace_logneg"] = max(0.0, avg_logneg - base_logneg)
    other = random_density(ModeLayout.bipartite(1, 1), rng)
    stacked = graded_tensor(rho, other)
    viol["additivity"] = abs(log_negativity(stacked, stacked.layout.spec("A"))
                             - log_negativity(rho, spec_a)
                             - log_negativity(other, other.layout.spec("A")))
    worst = max(viol, key=viol.get)
    return {"n": n, "m_a": m_a, "state": _fingerprint(rho.matrix),
            "base_negativity": float(base_neg), "max_violation": float(viol[worst]),
            "worst_check": worst}


def _corrupt_first_branch(monkeypatch, kind: str) -> list:
    """Make the first measured branch of every trial fail one check; log the states made."""
    bad = []

    def corrupted(evolved, big, r_mode):
        owners, weights, states, residuals = _measured_branches(evolved, big, r_mode)
        states = states.copy()
        for first in np.unique(owners, return_index=True)[1]:  # one row of branches per trial
            m = states[first]
            if kind == "trace":
                m *= 1.5
            elif kind == "psd":  # a negative diagonal entry; |00..> and |11..> are both even
                shift = m[0, 0].real + 0.1
                m[0, 0] -= shift
                m[3, 3] += shift
            else:  # couples |00..> to the odd |10..>
                m[0, 1] += 1e-6
                m[1, 0] += 1e-6
            bad.append(FockOperator(ModeLayout.bipartite(r_mode - 1, big.num_modes - r_mode), m))
        return owners, weights, states, residuals

    monkeypatch.setattr(verify_mod, "_measured_branches", corrupted)
    return bad


def _odd_member(matrix: np.ndarray) -> np.ndarray:
    """A copy of a matrix that couples the even ``|0..0>`` to the odd ``|10..0>``."""
    out = matrix.copy()
    out[..., 0, 1] += 1e-3
    out[..., 1, 0] += 1e-3
    return out


def _flushes(groups) -> list[tuple[int, list[int]]]:
    """``(n, trials)`` of each bucket ``verify locc`` or ``verify identities`` builds, in
    build order, for the ``(n, m_A)`` of each trial: each trial is counted at ``2**(2n + 8)``
    bytes, so a bucket is built once it holds ``max(1, _STACK_BYTES // 2**(2n + 8))``
    trials, the rest when the trials run out."""
    open_buckets, built = {}, []
    for k, (n, m_a) in enumerate(groups):
        open_buckets.setdefault((n, m_a), []).append(k)
        if len(open_buckets[n, m_a]) == max(1, verify_mod._STACK_BYTES // (1 << (2 * n + 8))):
            built.append((n, open_buckets.pop((n, m_a))))
    return built + [(n, ks) for (n, _), ks in open_buckets.items()]


def _per_call_identity_draws(rng, n: int) -> tuple[ModeLayout, FockOperator, list]:
    """The layout, state and local operators X_A, Y_A, X_B, Y_B of one per-call identity trial."""
    m_a = int(rng.integers(1, n))
    layout = ModeLayout.bipartite(m_a, n - m_a)
    rho = random_density(layout, rng)
    return layout, rho, [random_even_operator(ModeLayout(m, ("A",) * m), rng)
                         for m in (m_a, m_a, n - m_a, n - m_a)]


def _per_call_identity_trial(rng, n: int) -> tuple[float, dict]:
    """One identity trial with one ``embed_local``, ``fermionic_pt`` or ``full_transpose`` call
    per operator."""
    layout, rho, (x_a, y_a, x_b, y_b) = _per_call_identity_draws(rng, n)
    m_a = x_a.layout.num_modes
    spec_a = layout.spec("A")
    spec_b = layout.spec("B")
    modes_a = spec_a.target_modes
    modes_b = spec_b.target_modes

    ea = embed_local(x_a, layout, modes_a).matrix
    eya = embed_local(y_a, layout, modes_a).matrix
    eb = embed_local(x_b, layout, modes_b).matrix
    eyb = embed_local(y_b, layout, modes_b).matrix
    ea_t = embed_local(full_transpose(x_a), layout, modes_a).matrix
    eya_t = embed_local(full_transpose(y_a), layout, modes_a).matrix
    eb_t = embed_local(full_transpose(x_b), layout, modes_b).matrix
    eyb_t = embed_local(full_transpose(y_b), layout, modes_b).matrix

    def pt_a(mat: np.ndarray) -> np.ndarray:
        return fermionic_pt(FockOperator(layout, mat, copy=False), spec_a).matrix

    def pt_b(mat: np.ndarray) -> np.ndarray:
        return fermionic_pt(FockOperator(layout, mat, copy=False), spec_b).matrix

    def tr_full(mat: np.ndarray) -> np.ndarray:
        return full_transpose(FockOperator(layout, mat, copy=False)).matrix

    r = rho.matrix
    p_a = verify_mod._sign_vector(n, spec_a.mask())
    t_a = pt_a(r)
    t_b = pt_b(r)
    deviations = {
        "rho_xb_right": np.abs(pt_a(r @ eb) - t_a @ eb).max(),
        "rho_xb_left": np.abs(pt_a(eb @ r) - eb @ t_a).max(),
        "rho_xa_right": np.abs(pt_a(r @ ea) - ea_t @ t_a).max(),
        "rho_xa_left": np.abs(pt_a(ea @ r) - t_a @ ea_t).max(),
        "rho_xaxb_right": np.abs(pt_a(r @ ea @ eb) - ea_t @ t_a @ eb).max(),
        "rho_xaxb_left": np.abs(pt_a(ea @ eb @ r) - eb @ t_a @ ea_t).max(),
        "sandwich_ta": np.abs(
            pt_a(ea @ eb @ r @ eya @ eyb) - eya_t @ eb @ t_a @ ea_t @ eyb
        ).max(),
        "sandwich_tb": np.abs(
            pt_b(ea @ eb @ r @ eya @ eyb) - ea @ eyb_t @ t_b @ eya @ eb_t
        ).max(),
        "successive_plain": np.abs(pt_b(t_a) - tr_full(r)).max(),
        "successive_xb": np.abs(pt_b(pt_a(r @ eb)) - tr_full(r @ eb)).max(),
        "successive_xa": np.abs(pt_b(pt_a(r @ ea)) - tr_full(r @ ea)).max(),
        "successive_xaxb": np.abs(pt_b(pt_a(r @ ea @ eb)) - tr_full(r @ ea @ eb)).max(),
        "successive_sandwich": np.abs(
            pt_b(pt_a(ea @ eb @ r @ eya @ eyb)) - tr_full(ea @ eb @ r @ eya @ eyb)
        ).max(),
        "double_ta": np.abs(pt_a(t_a) - p_a[:, None] * r * p_a[None, :]).max(),
        "identity_fixed": np.abs(pt_a(np.eye(layout.dim, dtype=complex))
                                 - np.eye(layout.dim)).max(),
    }
    worst_name = max(deviations, key=deviations.get)
    diag = {
        "n": n,
        "m_a": m_a,
        "state": _fingerprint(r),
        "max_violation": float(deviations[worst_name]),
        "worst_identity": worst_name,
    }
    return float(max(deviations.values())), diag


class TestIdentitySuite:
    def test_small_run_passes(self):
        report = check_identity_suite(seed=5, trials=15, modes=(2, 3))
        assert report.passed
        assert report.max_violation <= 1e-11
        assert len(report.diagnostics) == 15

    def test_identity_operator_trivial_case(self):
        # X_A = X_B = identity reduces every family to PT(rho) = PT(rho)
        report = check_identity_suite(seed=1, trials=4, modes=(2,))
        assert report.passed

    @pytest.mark.parametrize("m_a", [1, 2])
    def test_parity_operator_as_local(self, m_a, rng):
        # X_A = (-1)^{F_A} transposes to (-1)^{m_A} X_A under Majorana reversal
        # (each mode contributes i c c whose reversal flips sign), so
        # [rho X_A]^{T_A} = (-1)^{m_A} X_A rho^{T_A}.
        from fneg.fock import FockOperator, parity_op
        from fneg.ptranspose import full_transpose

        lay = ModeLayout.bipartite(m_a, 2)
        spec = lay.spec("A")
        sub = ModeLayout(m_a, ("A",) * m_a)
        local_t = full_transpose(parity_op(sub)).matrix
        assert np.abs(local_t - ((-1.0) ** m_a) * parity_op(sub).matrix).max() == 0.0
        rho = random_density(lay, rng)
        pa = parity_op(lay, spec).matrix
        lhs = fermionic_pt(FockOperator(lay, rho.matrix @ pa), spec).matrix
        rhs = ((-1.0) ** m_a) * pa @ fermionic_pt(rho, spec).matrix
        assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize("seed,modes", list(_IDENTITY_SHA256))
    def test_cli_output_is_pinned(self, capsys, seed, modes):
        args = ["--seed", str(seed), "verify", "identities"] + (["--modes", modes] if modes else [])
        assert cli_main(args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _IDENTITY_SHA256[seed, modes]

    @pytest.mark.parametrize("seed", range(24))
    def test_stacked_trials_equal_per_call_reference(self, seed):
        modes = (2, 3, 4, 5, 6)
        report = check_identity_suite(seed=seed, trials=len(modes), modes=modes)
        rng = np.random.default_rng(seed)
        for t, diag in enumerate(report.diagnostics):
            dev, want = _per_call_identity_trial(rng, modes[t])
            assert diag == {**want, "trial": t, "seed": seed}
            assert diag["max_violation"] == dev

    def test_transposes_are_a_fixed_set_of_gathers_per_bucket(self, monkeypatch):
        # 24 a bucket of any size (the per-call suite took 30 a trial): one for each
        # side's local operators, one over A for each of the nine inputs, one over B
        # and one over all modes for each of the five successive checks, two over B
        # for sandwich_tb and one for the double transpose.  The per-call functions
        # run only to raise an error.
        log = record_calls(monkeypatch, "fneg.ptranspose._signed_gather",
                           "fneg.ptranspose.fermionic_pt", "fneg.ptranspose.full_transpose",
                           "fneg.fock.embed_local")
        report = check_identity_suite(seed=7)
        assert log and all(name == "_signed_gather" for name, _ in log)
        buckets = _flushes([(d["n"], d["m_a"]) for d in report.diagnostics])
        assert len(log) == 24 * len(buckets) == 24 * 8
        assert max(shape[0] for _, shape in log) > 10  # members of several trials

    def test_one_trial_holds_few_matrices(self):
        # An eight-mode trial is a bucket of its own.  Its nine transpose inputs are
        # built, transposed and scored one at a time, each released before the next
        # is built, so it peaks near 15 of its d x d matrices (14.5 MB); all nine in
        # one stack hold about 46.
        check_identity_suite(seed=1, trials=1, modes=(8,))  # the cached gather plans
        tracemalloc.start()
        try:
            check_identity_suite(seed=1, trials=1, modes=(8,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 16 * 4 ** 8

    @pytest.mark.parametrize("index", range(4))
    def test_odd_local_operator_raises_embed_locals_error(self, monkeypatch, index):
        # X_A, Y_A, X_B or Y_B of the first trial is built parity-odd.  The bucketed
        # run raises, and its replay builds the first trial alone and raises what
        # embed_local raises on that per-call draw made odd.  Without the stacked
        # check of the local operators, the products would fail the transpose check,
        # which raises fermionic_pt's message.
        draw, real = verify_mod._draw_identity_trial, verify_mod._block_gaussian
        name = ("x_a", "y_a", "x_b", "y_b")[index]
        target, made = [], []

        def tagged(rng, n):
            drawn = draw(rng, n)
            target.append(drawn[name])
            return drawn

        def odd(draws, allowed):
            out = real(draws, allowed)
            for i in np.ndindex(draws.shape[:-3]):
                if np.array_equal(draws[i], target[0]):
                    out[i] = _odd_member(out[i])
                    made.append(out[i].copy())
            return out

        monkeypatch.setattr(verify_mod, "_draw_identity_trial", tagged)
        monkeypatch.setattr(verify_mod, "_block_gaussian", odd)
        with pytest.raises(Exception) as batched:
            check_identity_suite(seed=7, trials=2, modes=(3,))
        layout, _, ops = _per_call_identity_draws(np.random.default_rng(7), 3)
        want = FockOperator(ops[index].layout, _odd_member(ops[index].matrix))
        assert len(made) == 2 and all(np.array_equal(m, want.matrix) for m in made)
        with pytest.raises(Exception) as per_call:
            embed_local(want, layout, layout.spec("AB"[index // 2]).target_modes)
        assert batched.type is per_call.type is ParityError
        assert str(batched.value) == str(per_call.value)

    def test_odd_transpose_input_raises_fermionic_pts_error(self, monkeypatch):
        # The state of each bucket's first trial is built parity-odd, so every
        # transpose input of it is.  The bucketed run raises, and its replay builds
        # the first trial alone and raises what fermionic_pt raises on that per-call
        # draw made odd.  Without the stacked check the trial would not raise at all.
        real, made = verify_mod._gram, []

        def odd(normals, num_modes):
            out = real(normals, num_modes)
            out[0] = _odd_member(out[0])
            made.append(out[0].copy())
            return out

        monkeypatch.setattr(verify_mod, "_gram", odd)
        with pytest.raises(Exception) as batched:
            check_identity_suite(seed=7, trials=2, modes=(3,))
        layout, rho, _ = _per_call_identity_draws(np.random.default_rng(7), 3)
        want = FockOperator(layout, _odd_member(rho.matrix))
        assert len(made) == 2 and all(np.array_equal(m, want.matrix) for m in made)
        with pytest.raises(Exception) as per_call:
            fermionic_pt(want, layout.spec("A"))
        assert batched.type is per_call.type is ParityError
        assert str(batched.value) == str(per_call.value)


class TestLoccMonotonicity:
    @pytest.mark.parametrize("seed", sorted(_LOCC_SHA256))
    def test_cli_output_is_pinned(self, capsys, seed):
        assert cli_main(["--seed", str(seed), "verify", "locc"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == _LOCC_SHA256[seed]

    # Up to 33 trials every bucket is built when the trials run out; at 65 a bucket of
    # eight n = 4 trials fills first (at every seed), and part-filled ones are left.
    # 30 is the CLI's `verify locc --trials 30`.
    @pytest.mark.parametrize("trials", [1, 2, 3, 30, 33, 65])
    @pytest.mark.parametrize("seed", [0, 7, 505])
    def test_batched_report_equals_per_call_reference(self, seed, trials):
        report = check_locc_monotonicity(seed=seed, trials=trials)
        assert len(report.diagnostics) == trials
        rng = np.random.default_rng(seed)
        for t, diag in enumerate(report.diagnostics):
            assert diag == {**_per_call_locc_trial(rng), "trial": t, "seed": seed}

    @pytest.mark.parametrize("seed", [0, 7, 505])
    def test_reference_seeds_stack_several_trials(self, seed):
        # The seeds above put two or more trials of one (n, m_A) group into one bucket,
        # and draw both measurements of (c), so the reference sees stacks of several
        # members, with random projector sets and parity projectors in one stack.
        rng = np.random.default_rng(seed)
        drawn = [verify_mod._draw_locc_trial(rng) for _ in range(30)]
        buckets = [[drawn[k]["proj"] is None for k in ks]
                   for _, ks in _flushes([(t["n"], t["m_a"]) for t in drawn])]
        assert max(len(coins) for coins in buckets) >= 2
        assert any(set(coins) == {True, False} for coins in buckets)

    def test_one_odd_unitary_raises_embed_locals_error(self, monkeypatch):
        # Trial 2's local unitary on B is made parity-odd.  At seed 7 trials 0, 2 and 3
        # make the (n, m_A) = (4, 2) bucket, the first built when the trials run out, so
        # the odd member sits behind a good one.  The replay builds and solves trials 0 and 1,
        # then raises at trial 2 what embed_local raises; without the stacked check a
        # norm would raise a StateValidationError, as the rotated state is no longer
        # unit-trace.
        draw, real = verify_mod._draw_locc_trial, verify_mod._unitaries
        drawn, target, made = [], [], []

        def tagged(rng):
            drawn.append(draw(rng))
            target.append(drawn[-1]["u_b"])
            return drawn[-1]

        def odd(normals, m):
            out = real(normals, m)
            for i, member in enumerate(normals):
                if np.array_equal(member, target[2]):
                    out[i] = _odd_member(out[i])
                    made.append(out[i])
            return out

        monkeypatch.setattr(verify_mod, "_draw_locc_trial", tagged)
        monkeypatch.setattr(verify_mod, "_unitaries", odd)
        with pytest.raises(ParityError) as batched:
            check_locc_monotonicity(seed=7, trials=4)
        n, m_a = drawn[2]["n"], drawn[2]["m_a"]
        assert [(t["n"], t["m_a"]) for t in drawn[:3]].count((n, m_a)) == 2
        assert len(drawn) == 4 + 3
        assert np.array_equal(made[-1], made[0])
        layout = ModeLayout.bipartite(m_a, n - m_a)
        with pytest.raises(ParityError) as direct:
            embed_local(FockOperator(ModeLayout(n - m_a, ("A",) * (n - m_a)), made[-1]), layout,
                        layout.spec("B").target_modes)
        assert str(batched.value) == str(direct.value)

    @pytest.mark.parametrize("factor", ["ancilla", "state"])
    def test_odd_graded_operand_raises_graded_tensors_error(self, monkeypatch, factor):
        # Every one-mode ancilla, or every state and stacking partner, is made
        # parity-odd.  The stacked check raises what graded_tensor raises on it;
        # without it, the measurement would raise a ParityError with another message.
        made = []
        real = verify_mod._normalised_gram

        def odd(g):
            out = real(g)
            if (out.shape[-1] == 2) == (factor == "ancilla"):
                out = _odd_member(out)
                made.append(out[0])
            return out

        monkeypatch.setattr(verify_mod, "_normalised_gram", odd)
        with pytest.raises(ParityError) as batched:
            check_locc_monotonicity(seed=7, trials=3)
        one = ModeLayout(1, ("A",))
        with pytest.raises(ParityError) as direct:
            if factor == "ancilla":
                graded_tensor(random_density(ModeLayout.bipartite(1, 1), 0),
                              FockOperator(one, made[-1]))
            else:
                m = made[-1].shape[-1].bit_length() - 1
                graded_tensor(FockOperator(ModeLayout.bipartite(1, m - 1), made[-1]),
                              random_density(one, 0))
        assert str(batched.value) == str(direct.value)

    def test_evolved_state_is_validated_by_the_measurement(self, monkeypatch):
        # Unitaries scaled by 1.1 stay parity-even, so every evolved state passes the
        # embedding checks but has trace 1.21.  Per call, parity_project rejects it
        # before any norm of its trial is taken; a norm would raise the same message.
        real = verify_mod._unitaries
        monkeypatch.setattr(verify_mod, "_unitaries", lambda *args: 1.1 * real(*args))
        with pytest.raises(StateValidationError) as batched:
            check_locc_monotonicity(seed=7, trials=3)
        assert str(batched.value) == "operator is not a unit-trace Hermitian matrix"
        assert "_measured_branches" in [entry.name for entry in batched.traceback]

    @pytest.mark.parametrize("kind", ["trace", "psd", "parity"])
    def test_failing_member_raises_negativitys_error(self, monkeypatch, kind):
        bad = _corrupt_first_branch(monkeypatch, kind)
        with pytest.raises(Exception) as batched:
            check_locc_monotonicity(seed=7, trials=3)
        with pytest.raises(Exception) as direct:
            negativity(bad[0], bad[0].layout.spec("A"))
        assert batched.type is direct.type
        assert str(batched.value) == str(direct.value)
        # the bucketed run stopped at the first bucket it built, trials 0 and 2 at seed 7,
        # which failed; its replay stopped at the first trial, rebuilt bit for bit
        assert len(bad) == 3
        assert np.array_equal(bad[2].matrix, bad[0].matrix)
        assert kind != "parity" or batched.type is ParityError

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_build_error_is_raised_after_earlier_trials_errors(self, monkeypatch, corrupt):
        # Building the third trial raises, in the bucketed run and in its replay.  Per
        # call, the first trial's norms are taken before that, so a bad first trial
        # raises negativity's error first.
        bad = _corrupt_first_branch(monkeypatch, "trace") if corrupt else []
        draw, build = verify_mod._draw_locc_trial, verify_mod._build_locc_group
        drawn = []

        def tagged(rng):  # the run draws 0-4 and builds trial 0's bucket, with trial 2, first;
            drawn.append(draw(rng))  # its replay draws 5, 6, ..., so trial 2 is tag 2 or 7
            drawn[-1]["tag"] = len(drawn) - 1
            return drawn[-1]

        def failing_third(n, m_a, trials):
            if any(t["tag"] % 5 == 2 for t in trials):
                raise RuntimeError("third build")
            return build(n, m_a, trials)

        monkeypatch.setattr(verify_mod, "_draw_locc_trial", tagged)
        monkeypatch.setattr(verify_mod, "_build_locc_group", failing_third)
        with pytest.raises(Exception) as batched:
            check_locc_monotonicity(seed=7, trials=5)
        if corrupt:
            with pytest.raises(Exception) as direct:
                negativity(bad[0], bad[0].layout.spec("A"))
            assert (batched.type, str(batched.value)) == (direct.type, str(direct.value))
            assert len(drawn) == 5 + 1  # the replay stopped at the first trial
        else:
            assert str(batched.value) == "third build"
            assert len(drawn) == 5 + 3  # the replay built two trials, then raised again

    def test_one_kernel_call_per_stack_of_each_slice(self, monkeypatch):
        # Each (n, m_A) bucket is built once it holds _STACK_BYTES >> (2n + 6)
        # trials, or when the trials run out, and solved as soon as it is built,
        # one _pt_norms call per (modes, target mask) stack of its one stage, the
        # validated evolved states in a stack of their own.  No norm goes through
        # the per-call _pt_norm.
        log = record_calls(monkeypatch, "fneg.measures._pt_norms", "fneg.measures._pt_norm")
        report = check_locc_monotonicity(seed=7, trials=131)
        assert all(name == "_pt_norms" for name, _ in log)
        kernel = [(shape[-1].bit_length() - 1, shape[0]) for _, shape in log]
        want = []  # (modes, members) of each stack, in solve order
        for n, ks in _flushes([(d["n"], d["m_a"]) for d in report.diagnostics]):
            # rho, the rotated, measured and mixed states, at least five a trial, with
            # the stacking partners when they share rho's layout (n = 2, m_A = 1); the
            # appended and the evolved states; the stacked states; the other partners
            partners_first = (n, report.diagnostics[ks[0]]["m_a"]) == (2, 1)
            first = kernel[len(want)][1]
            assert first >= (6 if partners_first else 5) * len(ks)
            want += [(n, first), (n + 1, len(ks)), (n + 1, len(ks)), (n + 2, len(ks))]
            want += [] if partners_first else [(2, len(ks))]
        assert kernel == want
        assert len(kernel) < 5 * len(_flushes([(d["n"], d["m_a"]) for d in report.diagnostics]))
        assert max(members for _, members in kernel) > 10  # members of several trials

    def test_every_state_takes_the_block_path(self, monkeypatch):
        # The local unitaries and projector sets are built on parity blocks, and each
        # product state is taken as its Hermitian part, so every state of every stage
        # has exactly zero off-parity blocks and residual 0.0: every norm is |eigvalsh|
        # of the twin's blocks.  With eigh of whole matrices each stack had members with
        # a round-off leak, which took the dense SVD, and most products took the block SVD.
        real, verdicts = measures_mod._spectra, []

        def spectra(t, n, marked, herm):
            verdicts.append((np.asarray(marked).tolist(), (np.asarray(herm) == 0.0).tolist()))
            return real(t, n, marked, herm)

        monkeypatch.setattr(measures_mod, "_spectra", spectra)
        log = record_calls(monkeypatch, "svd")
        check_locc_monotonicity(seed=7, trials=65)
        assert len(verdicts) > 10 and all(all(e) and all(h) for e, h in verdicts)
        assert log == []

    def test_default_run_builds_few_buckets(self, monkeypatch):
        # Each bucket pays a fixed set of kernel calls: at seed 7 the default run built 43
        # buckets of at most 2, 8 and 32 trials (n = 4, 3, 2), and builds 12 of 8, 32 and 128.
        log = record_calls(monkeypatch, "fneg.verify._build_locc_group")
        check_locc_monotonicity(seed=7)
        assert len(log) <= 15

    def test_five_mode_stacks_are_validated_once(self, monkeypatch):
        # One PSD verdict per stack of five-mode states in each bucket: the evolved
        # states of n = 4 in _measured_branches, whose residuals their norms reuse,
        # and in the kernel the appended states of n = 4 and the stacked states of
        # n = 3.  Every verdict factors a stack: a (k, d, d) stack, or
        # (k, 2, d/2, d/2) parity blocks when every member has exact blocks.
        log = record_calls(monkeypatch, "fneg.fock._cholesky_psd")
        report = check_locc_monotonicity(seed=7, trials=9)
        assert all(len(shape) == 3 or len(shape) == 4 and shape[1] == 2 for _, shape in log)
        five = [shape for _, shape in log
                if shape[1:] == (32, 32) or shape[1:] == (2, 16, 16)]
        built = [n for n, _ in _flushes([(d["n"], d["m_a"]) for d in report.diagnostics])]
        assert built.count(3) and built.count(4)
        assert len(five) == 2 * built.count(4) + built.count(3)

    def test_peak_memory_stays_bounded(self):
        # The tracemalloc peak of a warm check_locc_monotonicity(seed=7) was 1.15 MB with
        # chunks of 8 trials whose small states lived until the end of the chunk, and is
        # 1.0 MB with chunks of 64 whose slices release their states once solved.  A
        # chunk of 64 that held its states peaked near 5 MB.
        check_locc_monotonicity(seed=7)  # the cached gather plans and sign tables
        tracemalloc.start()
        try:
            check_locc_monotonicity(seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (1.15 + 1.0) * 1e6

    @pytest.mark.parametrize("slice_bytes", [0, 1 << 30])  # one trial; a whole group
    def test_report_does_not_depend_on_the_slice_size(self, monkeypatch, slice_bytes):
        want = check_locc_monotonicity(seed=7, trials=69).to_dict()
        monkeypatch.setattr(verify_mod, "_STACK_BYTES", slice_bytes)
        assert check_locc_monotonicity(seed=7, trials=69).to_dict() == want

    def test_occupation_projectors_are_the_one_mode_parity_pair(self):
        one_mode = ModeLayout(1, ("A",))
        even, odd = _parity_pair(one_mode)
        assert np.array_equal(even.matrix, np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(odd.matrix, np.diag([0.0, 1.0]).astype(complex))

    def test_small_run_passes(self):
        report = check_locc_monotonicity(seed=7, trials=25)
        assert report.passed
        assert report.max_violation <= 1e-10

    def test_diagnostics_label_checks(self):
        report = check_locc_monotonicity(seed=8, trials=5)
        names = {d["worst_check"] for d in report.diagnostics}
        assert names <= {
            "local_unitary", "ancilla_append", "projective", "unilocal_unitary",
            "ancilla_trace_selective", "ancilla_trace_averaged",
            "ancilla_trace_logneg", "additivity",
        }

    def test_parity_projectors_on_dimer(self):
        # measuring subsystem parity on both halves of the GHZ-reduced state:
        # the averaged branch negativity may not exceed the original
        from fneg.fock import FockOperator, embed_local
        from fneg.measures import negativity
        from fneg.states import canonical_state

        rho = canonical_state("majorana_dimer")
        lay = rho.layout
        spec_a = lay.spec("A")
        base = negativity(rho, spec_a)
        avg = 0.0
        one_mode = ModeLayout(1, ("A",))
        for pa in _parity_pair(one_mode):
            for pb in _parity_pair(one_mode):
                op = embed_local(pa, lay, (1,)).matrix @ embed_local(pb, lay, (2,)).matrix
                projected = op @ rho.matrix @ op
                weight = float(np.real(np.trace(projected)))
                if weight < 1e-12:
                    continue
                avg += weight * negativity(
                    FockOperator(lay, projected / weight), spec_a
                )
        assert avg <= base + 1e-12
        assert base - avg >= 0.0  # measured slack is nonnegative


class TestPerturbationExpansion:
    def test_zero_perturbation_gives_unit_norm(self, rng):
        w, rho0, rho1, delta = _perturbation_instance(rng, 2, 1e-2)
        rho = perturbed_state(w, rho0, rho1, delta, 0.0)
        assert abs(trace_norm(fermionic_pt(rho, SubsystemSpec((1,)))) - 1.0) <= 1e-12

    def test_prediction_tracks_quadratic_term(self, rng):
        w, rho0, rho1, delta = _perturbation_instance(rng, 1, 1e-2)
        eps = 1e-3
        rho = perturbed_state(w, rho0, rho1, delta, eps)
        actual = trace_norm(fermionic_pt(rho, SubsystemSpec((1,))))
        predicted = trace_norm_prediction(w, rho0, rho1, delta, eps)
        assert abs(actual - predicted) <= 1e-9  # residual is quartic in eps

    def test_each_trial_decomposes_its_factors_once(self, rng, monkeypatch):
        w, rho0, rho1, delta = _perturbation_instance(rng, 2, 1e-2)
        epsilons = (1e-2, 5e-3, 2.5e-3)
        predicted = trace_norm_prediction(w, rho0, rho1, delta, epsilons)
        assert predicted == [trace_norm_prediction(w, rho0, rho1, delta, e) for e in epsilons]
        log = record_calls(monkeypatch, "eigh")
        check_perturbation_expansion(seed=3, trials=4, epsilons=epsilons)
        assert len(log) == 2 * 4  # rho0 and rho1 of each trial, not once per epsilon

    def test_residual_scaling_is_quartic(self):
        # The harness measures halving ratios near 16 (quartic), so the cubic
        # bracket [6, 10] of the library default is never met: conjugating by
        # the subsystem parity flips the sign of the perturbation while
        # preserving the spectrum, killing all odd orders.
        report = check_perturbation_expansion(seed=11, trials=10)
        ratios = [r for d in report.diagnostics for r in d["ratios"]]
        assert all(12.0 <= r <= 20.0 for r in ratios)
        assert not report.passed
        assert report.max_violation == 1.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_trace_norm_is_even_in_eps(self, rng, m):
        # P_A rho(eps) P_A = rho(-eps), and the conjugation leaves the spectrum
        # of the transposed state unchanged: the trace norm is even in eps, so
        # no odd order survives and the residual is quartic.
        spec = SubsystemSpec((1,))
        for _ in range(5):
            w, rho0, rho1, delta = _perturbation_instance(rng, m, 1e-2)
            plus = perturbed_state(w, rho0, rho1, delta, 1e-2)
            minus = perturbed_state(w, rho0, rho1, delta, -1e-2)
            p_a = parity_op(plus.layout, spec).matrix
            assert np.abs(p_a @ plus.matrix @ p_a - minus.matrix).max() <= 1e-12
            norms = []
            for r in (plus, minus):
                pt = fermionic_pt(r, spec)
                oracle = fermionic_pt_majorana(r, spec).matrix
                assert np.abs(pt.matrix - oracle).max() <= 1e-12
                norms.append(trace_norm(pt))
            assert abs(norms[0] - norms[1]) <= 1e-12

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_residuals_equal_per_call_norms(self, seed):
        # each epsilon's norm is the one negativity's per-call path takes, bit for bit:
        # trace_norm of the Hermitian twin, fermionic_pt(...) times its column sign
        epsilons = (1e-2, 5e-3, 2.5e-3)
        rng = states_mod._rng(seed)
        report = check_perturbation_expansion(seed=seed)

        def twin_norm(state: FockOperator) -> float:
            t = fermionic_pt(state, SubsystemSpec((1,))).matrix
            sign = verify_mod._sign_vector(state.layout.num_modes, 1)
            return trace_norm(FockOperator(state.layout, t * sign))

        for t, diag in enumerate(report.diagnostics):
            w, rho0, rho1, delta = _perturbation_instance(rng, 1 + t % 2, max(epsilons))
            predicted = trace_norm_prediction(w, rho0, rho1, delta, epsilons)
            residuals = [abs(twin_norm(perturbed_state(w, rho0, rho1, delta, eps)) - prediction)
                         for eps, prediction in zip(epsilons, predicted)]
            assert diag["residuals"] == residuals
            assert diag["ratios"] == [residuals[0] / residuals[1], residuals[1] / residuals[2]]

    @pytest.mark.parametrize("trials,stacks", [
        (50, [(75, 4, 4), (75, 8, 8)]),
        (350, [(510, 8, 8), (525, 4, 4), (15, 8, 8)]),
    ])
    def test_one_kernel_call_per_bucket(self, monkeypatch, trials, stacks):
        # Trial t is one of (n, m_A) = (2 + t % 2, 1), and each bucket's trials solve their
        # three epsilon states in one stack.  Each trial is counted at its three states'
        # 48 * 4**n bytes, so a bucket of n = 3 fills at 170 trials (its 510 states) and
        # one of n = 2 at 682; the others are built when the trials run out.  Counted at a
        # LOCC trial's bytes, n = 3 filled at 32 trials; one call a trial before that.
        log = record_calls(monkeypatch, "fneg.measures._pt_norms", "fneg.measures._pt_norm")
        check_perturbation_expansion(seed=7, trials=trials)
        assert log == [("_pt_norms", shape) for shape in stacks]

    @pytest.mark.parametrize("slice_bytes", [0, 1 << 30])  # one trial; every trial
    def test_report_does_not_depend_on_the_bucket_size(self, monkeypatch, slice_bytes):
        want = check_perturbation_expansion(seed=3, trials=70).to_dict()
        monkeypatch.setattr(verify_mod, "_STACK_BYTES", slice_bytes)
        assert check_perturbation_expansion(seed=3, trials=70).to_dict() == want

    def test_replay_raises_the_per_call_errors_in_trial_order(self, monkeypatch):
        # Trial 1's instance is not unit-trace, and trial 3's draw exhausts its budget.  The
        # bucketed run meets the SamplingError while drawing, before it builds a bucket; its
        # replay builds each trial as it is drawn, so trial 1's norm error comes first, as a
        # per-call loop raises it.
        real, calls, bad = verify_mod._perturbation_instance, [], []

        def faulty(rng, m, eps_max):
            calls.append(m)
            trial = (len(calls) - 1) % 4  # the run draws trials 0-3, its replay 0 and 1
            if trial == 3:
                raise SamplingError("perturbation instance resampling budget exhausted")
            w, rho0, rho1, delta = real(rng, m, eps_max)
            if trial == 1:
                bad.append(perturbed_state(1.5 * w, rho0, rho1, delta, 1e-2))
                return 1.5 * w, rho0, rho1, delta
            return w, rho0, rho1, delta

        monkeypatch.setattr(verify_mod, "_perturbation_instance", faulty)
        with pytest.raises(StateValidationError) as batched:
            check_perturbation_expansion(seed=7, trials=6)
        assert len(calls) == 4 + 2
        assert np.array_equal(bad[0].matrix, bad[1].matrix)
        with pytest.raises(StateValidationError) as per_call:
            negativity(bad[1], SubsystemSpec((1,)))
        assert str(batched.value) == str(per_call.value)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_one_mode_theorem_near_its_boundary(self, monkeypatch, m):
        # The paper's theorem across mode 1 and the rest: a state diagonal in mode 1 is
        # separable (N_F = 0), and a perturbation that mixes mode 1's parity makes it
        # entangled (N_F > 0) at every eps != 0.  Only the prediction needs the gap guard,
        # under which the draw exhausts its budget from three remainder modes, so those
        # bases are drawn without it and are not checked against the prediction.
        if m > 2:
            monkeypatch.setattr(verify_mod, "_GAP_GUARD", 0.0)
        spec = SubsystemSpec((1,))
        for seed in range(3):
            instance = _perturbation_instance(np.random.default_rng(seed), m, 1e-2)
            assert abs(negativity(perturbed_state(*instance, 0.0), spec)) <= 1e-14
            for eps in (1e-2, 1e-3, 1e-4):
                found = negativity(perturbed_state(*instance, eps), spec)
                assert found > 0.0
                if m <= 2:  # the relative gap read at most 16 eps^2 here
                    predicted = (trace_norm_prediction(*instance, eps) - 1.0) / 2.0
                    assert abs(found - predicted) <= 100 * eps**2 * predicted

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            check_perturbation_expansion(trials=1, epsilons=(1e-3, 1e-2))
        with pytest.raises(ValueError):
            check_perturbation_expansion(trials=1, epsilons=(1e-2,))

    def test_state_stays_physical(self, rng):
        w, rho0, rho1, delta = _perturbation_instance(rng, 2, 1e-2)
        rho = perturbed_state(w, rho0, rho1, delta, 1e-2)
        assert rho.is_density_matrix()


#: ``fneg --seed 7 verify conjecture`` as printed once every norm below five modes was taken
#: from the parity blocks of the Hermitian twin.  The minimum moved by 1.1e-16 from the value
#: printed before the scan ran in chunks (0.0011608826338441736, the dense SVD).
_CONJECTURE_SEED7 = """{
  "check_name": "conjecture_type_II",
  "trials": 10000,
  "max_violation": 0.0,
  "tolerance": 0.0,
  "passed": true,
  "diagnostics": [
    {
      "min_negativity": 0.0011608826338440625,
      "minimum_at": {
        "trial": 156,
        "n": 2,
        "m_a": 1,
        "state": "af89fbacfe92"
      },
      "counterexamples": []
    }
  ]
}
"""


#: The traced peak of a warm ``conjecture_scan(seed=7)`` at chunks of 512 KB, 1.96 MB,
#: rounded up to the next 64 KB (0.70 MB at chunks of 128 KB; 2.48 MB while a chunk's draws
#: were kept through its Gram stage).
_CONJECTURE_PEAK_BYTES = 30 << 16


def _per_sample_scan(seed, samples, num_modes, threshold=1e-10) -> dict:
    """The scan's diagnostics computed one ``random_density`` and ``negativity`` at a time."""
    rng = np.random.default_rng(seed)
    configs = [(ModeLayout.bipartite(m_a, n - m_a), m_a) for n in num_modes for m_a in range(1, n)]
    min_neg, min_info, dumps = np.inf, None, []
    for t in range(samples):
        layout, m_a = configs[t % len(configs)]
        spec = layout.spec("A")
        rho = random_density(layout, rng, constraint="type_II", spec=spec)
        neg = negativity(rho, spec)
        if neg < min_neg:
            min_neg = neg
            min_info = {"trial": t, "n": layout.num_modes, "m_a": m_a,
                        "state": _fingerprint(rho.matrix)}
        if neg < threshold:
            dumps.append({"trial": t, "n": layout.num_modes, "m_a": m_a, "negativity": float(neg),
                          "matrix": [[z.real, z.imag] for z in rho.matrix.ravel()]})
    return {"min_negativity": float(min_neg), "minimum_at": min_info, "counterexamples": dumps}


def _count_replays(monkeypatch) -> list:
    """Log every sample the scan draws through ``random_density`` instead of a stack."""
    calls = []
    monkeypatch.setattr(verify_mod, "random_density",
                        lambda *a, **k: calls.append(a[0].num_modes) or random_density(*a, **k))
    return calls


class TestConjectureScan:
    def test_cli_output_is_pinned(self, capsys):
        assert cli_main(["--seed", "7", "verify", "conjecture"]) == 0
        assert capsys.readouterr().out == _CONJECTURE_SEED7

    @pytest.mark.parametrize("seed", [0, 3, 909])
    @pytest.mark.parametrize("num_modes,samples", [((2, 3), 700), ((2, 3, 4, 5), 120)])
    def test_chunks_equal_per_sample_scan(self, monkeypatch, seed, num_modes, samples):
        # threshold 1.0 dumps every sample, so every matrix and negativity is compared;
        # each sample count spans two chunks (682 samples of (2, 3), 65 of (2, 3, 4, 5))
        calls = _count_replays(monkeypatch)
        chunks = record_calls(monkeypatch, "fneg.verify._scan_stacked")
        report = conjecture_scan(seed=seed, samples=samples, num_modes=num_modes, threshold=1.0)
        want = _per_sample_scan(seed, samples, num_modes, threshold=1.0)
        assert len(want["counterexamples"]) == samples
        assert report.diagnostics[0] == want
        assert len(chunks) == 2
        # five-mode samples are stacked too: no sample goes through random_density
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 3, 909])
    def test_minimum_matches_per_sample_scan(self, seed):
        report = conjecture_scan(seed=seed, samples=700, num_modes=(2, 3))
        assert report.diagnostics[0] == _per_sample_scan(seed, 700, (2, 3))

    # no stack; chunks of 2, 170 and 682 samples; one chunk
    @pytest.mark.parametrize("budget", [0, 1 << 11, 1 << 17, 1 << 30])
    def test_report_bytes_do_not_depend_on_the_chunk_budget(self, monkeypatch, budget):
        want = json.dumps(conjecture_scan(seed=7, samples=700).to_dict(), indent=2)
        monkeypatch.setattr(verify_mod, "_STACK_BYTES", budget)
        assert json.dumps(conjecture_scan(seed=7, samples=700).to_dict(), indent=2) == want

    def test_peak_memory_stays_bounded(self):
        # A larger chunk budget has to show its memory here (_CONJECTURE_PEAK_BYTES).
        conjecture_scan(seed=7)  # the cached gather plans and sign tables
        tracemalloc.start()
        try:
            conjecture_scan(seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _CONJECTURE_PEAK_BYTES

    def test_forced_resample_replays_the_chunk(self, monkeypatch):
        # A few draws in a thousand now fail the type-II test, so some chunks of about
        # 170 samples replay, and others do not.
        monkeypatch.setattr(verify_mod, "_STACK_BYTES", 1 << 17)
        monkeypatch.setattr(states_mod, "TYPE_II_THRESHOLD", 0.09)
        calls = _count_replays(monkeypatch)
        report = conjecture_scan(seed=5, samples=600, num_modes=(2, 3), threshold=1.0)
        assert 0 < len(calls) < 600
        assert report.diagnostics[0] == _per_sample_scan(5, 600, (2, 3), threshold=1.0)

    def test_stacked_error_replays_the_chunk(self, monkeypatch):
        # The first chunk's stacked run draws, then raises; its samples are replayed
        # from the saved generator state one random_density at a time.  The parent
        # let the error through.  Chunks of about 170 samples, so the others stack.
        monkeypatch.setattr(verify_mod, "_STACK_BYTES", 1 << 17)
        want = conjecture_scan(seed=5, samples=300, num_modes=(2, 3), threshold=1.0).to_dict()
        real, raised = verify_mod._scan_stacked, []

        def failing_once(*args):
            result = real(*args)  # the draws are made either way
            if raised:
                return result
            raised.append(True)
            raise np.linalg.LinAlgError("stacked")

        monkeypatch.setattr(verify_mod, "_scan_stacked", failing_once)
        calls = _count_replays(monkeypatch)
        report = conjecture_scan(seed=5, samples=300, num_modes=(2, 3), threshold=1.0)
        assert raised and 0 < len(calls) < 300
        assert json.dumps(report.to_dict()) == json.dumps(want)
        assert report.diagnostics[0] == _per_sample_scan(5, 300, (2, 3), threshold=1.0)

    def test_forced_counterexample_dump(self):
        report = conjecture_scan(seed=11, samples=30, threshold=1.0)
        want = _per_sample_scan(11, 30, (2, 3), threshold=1.0)
        assert report.diagnostics[0]["counterexamples"] == want["counterexamples"]
        assert not report.passed and report.max_violation == 1.0 - want["min_negativity"]

    def test_small_scan_finds_no_counterexample(self):
        report = conjecture_scan(seed=13, samples=400, num_modes=(2, 3))
        assert report.passed
        summary = report.diagnostics[0]
        assert summary["counterexamples"] == []
        assert summary["min_negativity"] > 1e-10

    def test_dimer_value_consistent_with_conjecture(self):
        from fneg.measures import negativity
        from fneg.states import canonical_state

        neg = negativity(canonical_state("majorana_dimer"), SubsystemSpec((1,)))
        assert abs(neg - (np.sqrt(2) - 1) / 2) <= 1e-12

    def test_population_is_type_two(self, rng):
        from fneg.states import subsystem_parity_commutator_norm

        lay = ModeLayout.bipartite(1, 2)
        spec = lay.spec("A")
        for _ in range(20):
            rho = random_density(lay, rng, constraint="type_II", spec=spec)
            assert subsystem_parity_commutator_norm(rho, spec) > 1e-6


def _pi_scan_per_call(seed, samples: int, flavor: str) -> dict:
    """``pi_inequality_scan``'s report as a loop of ``negativity`` and ``pairwise_negativity``."""
    rng = states_mod._rng(seed)
    layout = ModeLayout.tripartite()
    violations, worst = 0, np.inf
    for t in range(samples):
        if t % 3 < 2:
            rho = states_mod.random_pure(layout, ("even", "odd")[t % 3], rng)
        else:
            rho = random_density(layout, rng)
        slack = (negativity(rho, layout.spec("A"), flavor) ** 2
                 - pairwise_negativity(rho, "A", "B", flavor) ** 2
                 - pairwise_negativity(rho, "A", "C", flavor) ** 2)
        worst = min(worst, slack)
        violations += slack < -1e-10
    return {"check_name": "pi_inequality_monitor", "trials": samples, "max_violation": 0.0,
            "tolerance": float("inf"), "passed": True, "diagnostics": [
                {"violations": violations, "worst_slack": float(worst), "flavor": flavor}]}


class TestPiInequalityScan:
    def test_monitor_reports_without_gating(self):
        report = pi_inequality_scan(seed=17, samples=60)
        assert report.passed  # informational: never gates
        summary = report.diagnostics[0]
        assert "violations" in summary and "worst_slack" in summary

    @pytest.mark.parametrize("samples", [1, 2, 60, 300])
    @pytest.mark.parametrize("flavor", ["fermionic", "bosonic"])
    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_equals_a_loop_of_the_public_measures(self, seed, flavor, samples):
        report = pi_inequality_scan(seed=seed, samples=samples, flavor=flavor)
        assert json.dumps(report.to_dict()) == json.dumps(_pi_scan_per_call(seed, samples, flavor))

    @pytest.mark.parametrize("samples", [1, 7, 300])
    def test_takes_three_stacked_norms(self, monkeypatch, samples):
        # N_A(BC) on the samples, N_AB and N_AC on their reductions: one stack each
        log = record_calls(monkeypatch, "fneg.measures._pt_norms")
        pi_inequality_scan(seed=3, samples=samples)
        assert log == [("_pt_norms", (samples, 8, 8))] + [("_pt_norms", (samples, 4, 4))] * 2

    def test_an_unknown_flavor_is_refused(self):
        with pytest.raises(ValueError, match="flavor"):
            pi_inequality_scan(seed=0, samples=2, flavor="anyonic")


@pytest.mark.parametrize("call,message", [
    (lambda: conjecture_scan(samples=1, num_modes=(1,)), "mode count"),
    (lambda: conjecture_scan(samples=1, num_modes=()), "mode count"),
    (lambda: conjecture_scan(samples=1, num_modes=(2, 13)), "mode count"),
    (lambda: conjecture_scan(samples=1, num_modes=(2.5,)), "mode count"),
    (lambda: check_identity_suite(trials=1, modes=()), "mode count"),
    (lambda: check_identity_suite(trials=1, modes=(1,)), "mode count"),
    (lambda: pi_inequality_scan(samples=0), "samples must be at least 1"),
    (lambda: check_locc_monotonicity(trials=1, tolerance=np.nan), "tolerance must be"),
    (lambda: check_locc_monotonicity(trials=1, tolerance=-1.0), "tolerance must be"),
    (lambda: check_identity_suite(trials=1, tolerance=np.nan), "tolerance must be"),
    (lambda: check_perturbation_expansion(trials=1, min_pass_fraction=np.nan), "min_pass_fraction"),
    (lambda: check_perturbation_expansion(trials=1, min_pass_fraction=2.0), "min_pass_fraction"),
    # these four returned passing reports, and a NaN epsilon raised a ParityError
    (lambda: conjecture_scan(samples=1, threshold=np.nan), "threshold must be a finite number"),
    (lambda: conjecture_scan(samples=1, threshold=-1.0), "threshold must be a finite number"),
    (lambda: check_perturbation_expansion(trials=1, epsilons=(np.nan, 1e-3)), "epsilons"),
    # an infinite epsilon is in order, but no instance has eigenvalues above 1.5 * inf
    (lambda: check_perturbation_expansion(trials=1, epsilons=(np.inf, 1e-3)), "epsilons"),
    (lambda: check_perturbation_expansion(trials=1, ratio_bounds=(np.nan, 10.0)), "ratio_bounds"),
    (lambda: check_perturbation_expansion(trials=1, ratio_bounds=(10.0, 6.0)), "ratio_bounds"),
], ids=["conjecture_one_mode", "conjecture_no_modes", "conjecture_too_many_modes",
        "conjecture_float_modes", "identities_no_modes", "identities_one_mode", "pi_no_samples",
        "locc_nan_tolerance", "locc_negative_tolerance", "identities_nan_tolerance",
        "perturbation_nan_fraction", "perturbation_fraction_above_one",
        "conjecture_nan_threshold", "conjecture_negative_threshold", "perturbation_nan_epsilon",
        "perturbation_infinite_epsilon",
        "perturbation_nan_ratio_bound", "perturbation_inverted_ratio_bounds"])
def test_degenerate_inputs_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: check_identity_suite(trials=True), "trials"),
    (lambda: check_identity_suite(trials=2.5), "trials"),
    (lambda: check_locc_monotonicity(trials=2.5), "trials"),
    (lambda: check_perturbation_expansion(trials=2.5), "trials"),
    (lambda: conjecture_scan(samples=2.5), "samples"),
    (lambda: pi_inequality_scan(samples=2.5), "samples"),
], ids=["identities_bool", "identities_float", "locc_float", "perturbation_float",
        "conjecture_float", "pi_float"])
def test_non_integer_counts_raise_type_error(call, name):
    # a bool ran as one trial, samples=2.5 passed, the other floats raised numpy's TypeError
    with pytest.raises(TypeError, match=f"{name} must be an integer, got"):
        call()


def test_numpy_integer_counts_are_accepted():
    assert check_identity_suite(seed=3, trials=np.int64(2)).trials == 2
    assert conjecture_scan(seed=3, samples=np.int32(5)).passed
