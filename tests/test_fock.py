import itertools
import re

import numpy as np
import pytest

from conftest import basis_vector, max_abs, random_even_operator, record_calls
from fneg.errors import LayoutError, ParityError, StateValidationError
from fneg.fock import (
    _BLOCK_MIN_MODES,
    FLAG_TOL,
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _density_verdicts,
    _exact,
    _graded_product,
    _kron,
    _parity_leak,
    _permute_matrix,
    _popcount_array,
    _sign_vector,
    annihilation_op,
    creation_op,
    embed_local,
    graded_tensor,
    identity_op,
    majorana_op,
    number_op,
    parity_op,
    permute_modes,
)
from fneg.measures import log_negativity, negativity
from fneg.states import canonical_state, random_density, subsystem_parity_commutator_norm


class TestModeLayout:
    def test_basic(self):
        lay = ModeLayout.tripartite()
        assert lay.dim == 8
        assert lay.subsystems == ("A", "B", "C")
        assert lay.modes_with_label("B") == (2,)
        assert lay.spec("C").target_modes == (3,)

    def test_rejects_non_contiguous_labels(self):
        with pytest.raises(LayoutError):
            ModeLayout(3, ("A", "B", "A"))

    def test_rejects_out_of_order_blocks(self):
        with pytest.raises(LayoutError):
            ModeLayout(2, ("B", "A"))

    def test_mode_cap(self):
        with pytest.raises(LayoutError):
            ModeLayout(13, ("A",) * 13)

    def test_spec_validation(self):
        lay = ModeLayout.bipartite(1, 1)
        with pytest.raises(LayoutError):
            SubsystemSpec(()).validate(lay)
        with pytest.raises(LayoutError):
            SubsystemSpec((3,)).validate(lay)
        with pytest.raises(LayoutError):
            SubsystemSpec((1, 1))

    @pytest.mark.parametrize("modes", [(1.9,), (True,), ("1",), (np.float64(1.0),)])
    def test_spec_rejects_non_integer_modes(self, modes):
        # int() would truncate each of these to mode 1
        with pytest.raises(LayoutError, match=re.escape(repr(modes[0]))):
            SubsystemSpec(modes)
        with pytest.raises(LayoutError):
            negativity(canonical_state("singlet"), modes)

    def test_spec_takes_numpy_integers(self):
        spec = SubsystemSpec((np.int64(2), np.uint8(1)))
        assert spec.target_modes == (2, 1)
        assert all(type(m) is int for m in spec.target_modes)
        rho = canonical_state("singlet")
        assert negativity(rho, np.int64(1)) == negativity(rho, 1)


class TestCreationOperators:
    def test_single_mode_matrix(self):
        lay = ModeLayout(1, ("A",))
        assert max_abs(creation_op(lay, 1), np.array([[0, 0], [1, 0]])) == 0.0

    def test_jordan_wigner_sign(self):
        # f_2^+ |10> = -|11>
        lay = ModeLayout.bipartite(1, 1)
        out = creation_op(lay, 2).matrix @ basis_vector(lay, (1, 0))
        expected = -basis_vector(lay, (1, 1))
        assert np.abs(out - expected).max() == 0.0

    def test_creation_anticommute(self):
        lay = ModeLayout.tripartite()
        f2 = creation_op(lay, 2).matrix
        f3 = creation_op(lay, 3).matrix
        assert max_abs(f2 @ f3 + f3 @ f2) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_canonical_anticommutation(self, n):
        lay = ModeLayout(n, ("A",) * n)
        create = [creation_op(lay, j).matrix for j in range(1, n + 1)]
        destroy = [annihilation_op(lay, j).matrix for j in range(1, n + 1)]
        eye = np.eye(lay.dim)
        for j in range(n):
            for k in range(n):
                anti = destroy[j] @ create[k] + create[k] @ destroy[j]
                target = eye if j == k else 0 * eye
                assert max_abs(anti - target) <= 1e-12
                assert max_abs(create[j] @ create[k] + create[k] @ create[j]) <= 1e-12

    def test_out_of_range(self):
        lay = ModeLayout.bipartite(1, 1)
        with pytest.raises(LayoutError):
            creation_op(lay, 3)
        with pytest.raises(LayoutError):
            majorana_op(lay, 5)


class TestMajoranaOperators:
    def test_single_mode_matrices(self):
        lay = ModeLayout(1, ("A",))
        assert max_abs(majorana_op(lay, 1), np.array([[0, 1], [1, 0]])) == 0.0
        # c_2 = -i(f^+ - f) sends |0> to -i|1>
        assert max_abs(majorana_op(lay, 2), np.array([[0, 1j], [-1j, 0]])) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_clifford_relations(self, n):
        lay = ModeLayout(n, ("A",) * n)
        cs = [majorana_op(lay, k).matrix for k in range(1, 2 * n + 1)]
        eye = np.eye(lay.dim)
        for j, cj in enumerate(cs):
            assert max_abs(cj - cj.conj().T) == 0.0
            for k, ck in enumerate(cs):
                target = 2 * eye if j == k else 0 * eye
                assert max_abs(cj @ ck + ck @ cj - target) <= 1e-12

    def test_parity_odd(self):
        lay = ModeLayout.bipartite(2, 1)
        par = parity_op(lay).matrix
        for k in range(1, 7):
            c = majorana_op(lay, k).matrix
            assert max_abs(par @ c @ par + c) <= 1e-12
        for j in range(1, 4):
            f = creation_op(lay, j).matrix
            assert max_abs(par @ f @ par + f) <= 1e-12


class TestParityOperator:
    def test_two_mode_diagonals(self):
        lay = ModeLayout.bipartite(1, 1)
        full = np.diag(parity_op(lay, SubsystemSpec((1, 2))).matrix)
        assert np.allclose(full, [1, -1, -1, 1])
        sub = np.diag(parity_op(lay, SubsystemSpec((1,))).matrix)
        assert np.allclose(sub, [1, -1, 1, -1])

    def test_squares_to_identity(self):
        lay = ModeLayout.tripartite()
        p = parity_op(lay, SubsystemSpec((1, 3))).matrix
        assert max_abs(p @ p - np.eye(8)) == 0.0

    def test_ghz_is_parity_odd(self):
        # brute force: apply the full parity to the GHZ amplitudes
        lay = ModeLayout.tripartite()
        from fneg.states import canonical_vector

        vec, _ = canonical_vector("ghz")
        out = parity_op(lay).matrix @ vec
        assert np.abs(out + vec).max() <= 1e-12

    def test_full_parity_is_product_of_locals(self):
        lay = ModeLayout.tripartite()
        prod = np.eye(8, dtype=complex)
        for j in (1, 2, 3):
            prod = prod @ parity_op(lay, SubsystemSpec((j,))).matrix
        assert max_abs(prod - parity_op(lay).matrix) == 0.0

    def test_popcount_fallback_without_bitwise_count(self, monkeypatch):
        # numpy < 2.0 has no bitwise_count; every sign then comes from the fallback
        monkeypatch.delattr(np, "bitwise_count")
        for n in range(1, 7):
            idx = np.arange(2**n)
            for mask in range(2**n):
                counts = [int(v).bit_count() for v in idx & mask]
                assert _popcount_array(idx & mask).tolist() == counts
                assert _sign_vector.__wrapped__(n, mask).tolist() == [(-1.0) ** c for c in counts]

    def test_number_op(self):
        lay = ModeLayout.bipartite(1, 1)
        assert np.allclose(np.diag(number_op(lay, 2).matrix), [0, 0, 1, 1])


class TestFockOperatorFlags:
    def test_density_flags(self, rng):
        rho = random_density(ModeLayout.tripartite(), rng)
        assert rho.is_hermitian()
        assert rho.is_parity_even()
        assert rho.is_unit_trace()
        assert rho.min_eigenvalue() >= -1e-12
        assert rho.is_density_matrix()

    def test_parity_flag_detects_odd(self):
        lay = ModeLayout(1, ("A",))
        f = creation_op(lay, 1)
        assert not f.is_parity_even()
        with pytest.raises(ParityError):
            f.require_parity_even()

    @pytest.mark.parametrize("scale, even", [(0.4, True), (0.6, False)])
    def test_parity_tolerance_boundary(self, scale, even):
        # (-1)^F M (-1)^F - M is -2 M on an entry coupling |00> to |10>
        mat = np.eye(4) / 4
        mat[0, 1] = scale * FLAG_TOL
        assert FockOperator(ModeLayout.bipartite(1, 1), mat).is_parity_even() is even

    def test_leak_in_odd_even_block_only(self):
        mat = np.eye(4) / 4
        mat[1, 0] = 0.1  # row |10> is odd, column |00> even; the even-odd block is zero
        op = FockOperator(ModeLayout.bipartite(1, 1), mat)
        assert not op.is_parity_even()
        assert subsystem_parity_commutator_norm(op, SubsystemSpec((1, 2))) == 0.2

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_entry_in_even_block(self, value):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 3] = value  # |00> and |11> share every parity of modes (1, 2)
        op = FockOperator(ModeLayout.bipartite(1, 1), mat)
        assert not op.is_parity_even()
        assert not np.isfinite(subsystem_parity_commutator_norm(op, SubsystemSpec((1, 2))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_commutator_norm_matches_dense(self, n, rng):
        lay = ModeLayout(n, ("A",) * n)
        for _ in range(3):
            m = rng.normal(size=(lay.dim, lay.dim)) + 1j * rng.normal(size=(lay.dim, lay.dim))
            op = FockOperator(lay, m)
            for mask in range(1, lay.dim):
                spec = SubsystemSpec(tuple(j + 1 for j in range(n) if mask >> j & 1))
                p = parity_op(lay, spec).matrix
                dense = np.abs(p @ m - m @ p).max()
                assert subsystem_parity_commutator_norm(op, spec) == dense

    @pytest.mark.parametrize("pos", [(127, 127), (127, 3), (3, 127), (64, 100)])
    def test_hermitian_flag_sees_nan_in_every_band(self, pos):
        # d = 128 is read in two row bands; (127, 3) sits in the first band's column part
        mat = np.eye(128, dtype=complex) / 128
        mat[pos] = np.nan
        assert not FockOperator(ModeLayout(7, ("A",) * 7), mat).is_hermitian()

    @pytest.mark.parametrize("pos", [(0, 1), (5, 100), (100, 5), (127, 64), (70, 70)])
    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_hermitian_flag_matches_dense_residual(self, pos, scale, rng):
        g = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        mat = g + g.conj().T  # exactly Hermitian
        i, j = pos
        mat[i, j] += scale * FLAG_TOL * (0.5j if i == j else 1.0)  # residual scale * tol
        dense = bool(np.abs(mat - mat.conj().T).max() <= FLAG_TOL)
        assert FockOperator(ModeLayout(7, ("A",) * 7), mat).is_hermitian() is dense
        assert dense is (scale < 1)

    def test_not_psd_and_not_even_raises_state_error_twice(self):
        mat = np.diag([0.6, 0.6, -0.2, 0.0]).astype(complex)
        mat[0, 1] = mat[1, 0] = 0.1  # couples |00> to |10>: not parity-even either
        op = FockOperator(ModeLayout.bipartite(1, 1), mat)
        for _ in range(2):  # the second call reads the cached verdict
            with pytest.raises(StateValidationError) as info:
                op.require_density_matrix()
            assert info.type is StateValidationError
        assert op._flags[f"psd@{FLAG_TOL}"] is False
        assert not op.is_density_matrix()

    def test_psd_verdict_is_cached_per_tolerance(self, monkeypatch, rng):
        rho = random_density(ModeLayout.bipartite(2, 3), rng)
        log = record_calls(monkeypatch, "cholesky", "eigvalsh")
        rho.require_density_matrix()
        rho.require_density_matrix()
        assert rho.is_density_matrix()
        # one PSD decision, a Cholesky factorization of the two parity blocks, no fallback
        assert log == [("cholesky", (2, 16, 16))]
        negativity(rho, SubsystemSpec((1, 2)))
        negativity(rho, SubsystemSpec((1, 3)), "bosonic")
        # no second PSD decision; each negativity makes one eigensolve of its transpose's
        # blocks, in the stacked kernel on a stack of one state
        assert log[1:] == [("eigvalsh", (1, 2, 16, 16))] * 2
        rho.require_density_matrix(tol=1e-8)
        assert log[3:] == [("cholesky", (2, 16, 16))]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("shift, psd, fallback", [
        (-1.1, False, True), (-0.9, True, True), (0.0, True, False),
    ])
    def test_cholesky_verdict_matches_min_eigenvalue(self, monkeypatch, n, shift, psd, fallback):
        # a unit-trace state whose smallest eigenvalue sits at shift * tol; shift 0
        # makes it rank-deficient.  The shifted Cholesky proves lambda_min >= -tol/2,
        # so it decides alone at 0 and leaves -0.9 and -1.1 to the eigenvalue fallback.
        # It factors the parity blocks from _BLOCK_MIN_MODES on, the whole matrix below.
        rho = random_density(ModeLayout(n, ("A",) * n), 40 + n).matrix
        lam, target, d = np.linalg.eigvalsh(rho)[0], shift * FLAG_TOL, rho.shape[0]
        mat = rho + (target - lam) / (1 - d * target) * np.eye(d)
        op = FockOperator(ModeLayout(n, ("A",) * n), mat / np.trace(mat).real)
        assert abs(op.min_eigenvalue() - target) <= 1e-14
        log = record_calls(monkeypatch, "cholesky", "eigvalsh")
        assert op.is_density_matrix() is psd
        shape = (2, d // 2, d // 2) if n >= _BLOCK_MIN_MODES else (d, d)
        assert log == [("cholesky", shape)] + [("eigvalsh", shape)] * fallback
        assert op.is_density_matrix() is (op.min_eigenvalue() >= -FLAG_TOL)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_is_each_block_test_it_replaced(self, n):
        # _exact_blocks, _density_verdicts and _pt_norms each tested N >= _BLOCK_MIN_MODES
        # and a leak of exactly 0.0 themselves; a small operator's leak was never read
        lay = ModeLayout(n, ("A",) * n)
        state = random_density(lay, 60 + n).matrix
        leaky, broken = state.copy(), state.copy()
        leaky[0, 1] = leaky[1, 0] = 1e-300  # |0..0> is even, |10..0> odd
        broken[0, 0] = np.nan
        blocked = n >= _BLOCK_MIN_MODES
        for members in ([state, state], [leaky], [broken], [state, leaky, broken, state]):
            stack = np.stack(members)
            leak = _parity_leak(stack, n, lay.dim - 1)
            exact = _exact(leak, n)
            assert np.broadcast_to(exact, leak.shape).tolist() == ((leak == 0.0) & blocked).tolist()
            assert bool(np.all(exact)) is (blocked and bool((leak == 0.0).all()))
            want = [blocked and float(x) == 0.0 for x in leak]
            assert [FockOperator(lay, m)._exact_blocks() for m in stack] == want
        if not blocked:
            assert _exact(lambda: pytest.fail("a small operator's leak was read"), n) is False

    @pytest.mark.parametrize("n", [2, 7])
    def test_infinite_diagonal_entry_fails_validation(self, n):
        # inf - inf in the Hermiticity residual warned (an error under this suite's
        # filterwarnings) before the validation error could be raised
        rho = canonical_state("singlet") if n == 2 else random_density(ModeLayout.bipartite(1, 6), 3)
        bad = rho.matrix.copy()
        bad[0, 0] = np.inf
        with pytest.raises(StateValidationError, match="not a unit-trace Hermitian matrix"):
            negativity(FockOperator(rho.layout, bad), SubsystemSpec((1,)))
        verdicts, _, herm = _density_verdicts(np.stack([rho.matrix, bad]), n, FLAG_TOL)
        assert verdicts.tolist() == [True, False]
        assert herm[0] <= FLAG_TOL and np.isnan(herm[1])

    def test_matrix_read_only(self):
        op = identity_op(ModeLayout(1, ("A",)))
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 2.0

    def test_uncopied_matrix_turns_read_only(self, rng):
        # the residuals and the norm memo are kept per operator: its matrix may not change
        arr = random_density(ModeLayout(5, ("A",) * 5), rng).matrix.copy()
        op = FockOperator(ModeLayout(5, ("A",) * 5), arr, copy=False)
        assert op.matrix is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0

    @pytest.mark.parametrize("matrix", [np.eye(2) / 2, [[0.5, 0], [0, 0.5]]])
    def test_uncopied_real_or_list_input_is_converted(self, matrix):
        op = FockOperator(ModeLayout(1, ("A",)), matrix, copy=False)
        assert op.matrix.dtype == complex
        assert np.array_equal(op.matrix, np.eye(2) / 2)

    def test_residuals_read_once_for_any_tolerance(self, monkeypatch, rng):
        op = random_density(ModeLayout(6, ("A",) * 6), rng)
        log = record_calls(monkeypatch, "fneg.fock._hermitian_residual", "fneg.fock._parity_leak")
        for tol in (FLAG_TOL, 0.0, 1e-3):
            assert op.is_hermitian(tol) and op.is_parity_even(tol)
            op.require_density_matrix(max(tol, FLAG_TOL))
        assert sorted(log) == [("_hermitian_residual", (64, 64)), ("_parity_leak", (64, 64))]
        assert type(op._flags["herm"]) is float and op._flags["leak"] == 0.0
        assert op._exact_blocks()


class TestPermuteModes:
    def test_four_site_normal_ordering_sign(self):
        # |1011> on modes (1,2,3,4) regrouped as (1,4 | 2,3) picks up a minus sign
        lay = ModeLayout(4, ("A",) * 4)
        ket = basis_vector(lay, (1, 0, 1, 1))
        op = FockOperator(lay, np.outer(ket, basis_vector(lay, (0, 0, 0, 0)).conj()))
        moved = permute_modes(op, (1, 4, 2, 3), labels=("A", "A", "B", "B"))
        new_ket = basis_vector(moved.layout, (1, 1, 0, 1))
        expected = -np.outer(new_ket, basis_vector(moved.layout, (0, 0, 0, 0)).conj())
        assert max_abs(moved, expected) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_order_matches_inversion_count(self, n, rng):
        # brute force per basis state: bit k of the new index is old mode
        # order[k], and every inverted pair of occupied modes gives a -1
        lay = ModeLayout(n, ("A",) * n)
        op = FockOperator(lay, rng.normal(size=(lay.dim, lay.dim)) + 1j * rng.normal(
            size=(lay.dim, lay.dim)))
        for order in itertools.permutations(range(1, n + 1)):
            new_index = np.zeros(lay.dim, dtype=int)
            sign = np.ones(lay.dim)
            for i in range(lay.dim):
                occupied = [k for k, m in enumerate(order) if (i >> (m - 1)) & 1]
                new_index[i] = sum(1 << k for k in occupied)
                modes = [order[k] for k in occupied]
                sign[i] = (-1.0) ** sum(a > b for a, b in itertools.combinations(modes, 2))
            expected = np.empty_like(op.matrix)
            expected[np.ix_(new_index, new_index)] = sign[:, None] * op.matrix * sign[None, :]
            assert max_abs(permute_modes(op, order), expected) == 0.0

    def test_inverse_round_trip(self, rng):
        lay = ModeLayout.tripartite()
        op = random_even_operator(lay, rng)
        there = permute_modes(op, (3, 1, 2), labels=("A", "B", "C"))
        back = permute_modes(there, (2, 3, 1), labels=("A", "B", "C"))
        assert max_abs(back, op) == 0.0

    def test_permutation_is_unitary_on_spectra(self, rng):
        lay = ModeLayout.bipartite(2, 1)
        rho = random_density(lay, rng)
        moved = permute_modes(rho, (2, 3, 1), labels=("A", "A", "B"))
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(moved.matrix)),
            np.sort(np.linalg.eigvalsh(rho.matrix)),
            atol=1e-12,
        )


class TestGradedTensor:
    def test_identity_times_identity(self):
        a = identity_op(ModeLayout(1, ("A",)))
        b = identity_op(ModeLayout(2, ("B", "B")))
        out = graded_tensor(a, b)
        assert out.layout.labels == ("A", "B", "B")
        assert max_abs(out, np.eye(8)) == 0.0

    def test_rejects_parity_odd_factor(self):
        lay = ModeLayout(1, ("A",))
        with pytest.raises(ParityError):
            graded_tensor(creation_op(lay, 1), identity_op(lay))

    def test_label_interleaving(self, rng):
        lhs = random_density(ModeLayout.bipartite(1, 1), rng)
        rhs = random_density(ModeLayout.bipartite(1, 1), rng)
        out = graded_tensor(lhs, rhs)
        assert out.layout.labels == ("A", "A", "B", "B")
        assert out.is_density_matrix()

    def test_density_properties_preserved(self, rng):
        lhs = random_density(ModeLayout.bipartite(1, 1), rng)
        rhs = random_density(ModeLayout(1, ("A",)), rng)
        out = graded_tensor(lhs, rhs)
        assert out.is_parity_even()
        assert out.is_unit_trace()
        assert out.min_eigenvalue() >= -1e-12

    def test_dimer_stack_logneg_adds(self):
        dimer = canonical_state("majorana_dimer")
        stacked = graded_tensor(dimer, dimer)
        value = log_negativity(stacked, stacked.layout.spec("A"))
        assert abs(value - np.log(2)) <= 1e-12

    def test_ancilla_append_keeps_negativity(self, rng):
        rho = random_density(ModeLayout.bipartite(1, 1), rng)
        base = negativity(rho, SubsystemSpec((1,)))
        anc = FockOperator(ModeLayout(1, ("A",)), np.diag([0.7, 0.3]).astype(complex))
        out = graded_tensor(rho, anc)
        assert abs(negativity(out, out.layout.spec("A")) - base) <= 1e-12

    def test_associativity(self, rng):
        a = random_density(ModeLayout(1, ("A",)), rng)
        b = random_density(ModeLayout.bipartite(1, 1), rng)
        c = random_density(ModeLayout(1, ("B",)), rng)
        left = graded_tensor(graded_tensor(a, b), c)
        right = graded_tensor(a, graded_tensor(b, c))
        assert left.layout == right.layout
        assert max_abs(left, right) <= 1e-12


    @pytest.mark.parametrize("lhs_labels, rhs_labels", [
        ("AABB", "A"), ("AB", "AB"), ("ABC", "ABBC"), ("BB", "AC"), ("A", "AA"), ("C", "AB"),
    ])
    def test_equals_the_reordered_kronecker_product(self, rng, lhs_labels, rhs_labels):
        # The product is formed straight in the target mode order; the reference forms
        # kron(rhs, lhs), rhs on the high bits, and reorders it with Jordan-Wigner signs.
        lhs_layout = ModeLayout(len(lhs_labels), tuple(lhs_labels))
        rhs_layout = ModeLayout(len(rhs_labels), tuple(rhs_labels))
        lhs = np.stack([random_even_operator(lhs_layout, rng).matrix for _ in range(3)])
        rhs = np.stack([random_even_operator(rhs_layout, rng).matrix for _ in range(3)])
        labels = lhs_labels + rhs_labels
        order = tuple(sorted(range(1, len(labels) + 1), key=lambda m: labels[m - 1]))
        want = _permute_matrix(_kron(rhs, lhs), len(labels), order)
        got = [graded_tensor(FockOperator(lhs_layout, a), FockOperator(rhs_layout, b))
               for a, b in zip(lhs, rhs)]
        assert got[0].layout.labels == tuple(sorted(labels))
        assert np.array_equal(np.stack([op.matrix for op in got]), want)
        assert np.array_equal(_graded_product(lhs_layout, rhs_layout, lhs, rhs)[1], want)


class TestEmbedLocal:
    def test_number_operator_embedding(self):
        lay = ModeLayout.tripartite()
        local = number_op(ModeLayout(1, ("A",)), 1)
        assert max_abs(embed_local(local, lay, (2,)), number_op(lay, 2)) == 0.0

    def test_nonlocal_even_operator_embedding(self, rng):
        # hopping between modes 1 and 3 embedded from a 2-mode local operator
        lay = ModeLayout.tripartite()
        sub = ModeLayout(2, ("A", "A"))
        hop_local = FockOperator(
            sub,
            creation_op(sub, 1).matrix @ annihilation_op(sub, 2).matrix
            + creation_op(sub, 2).matrix @ annihilation_op(sub, 1).matrix,
        )
        embedded = embed_local(hop_local, lay, (1, 3))
        direct = (
            creation_op(lay, 1).matrix @ annihilation_op(lay, 3).matrix
            + creation_op(lay, 3).matrix @ annihilation_op(lay, 1).matrix
        )
        assert max_abs(embedded, direct) <= 1e-12

    def test_rejects_odd_local(self):
        lay = ModeLayout.bipartite(1, 1)
        with pytest.raises(ParityError):
            embed_local(creation_op(ModeLayout(1, ("A",)), 1), lay, (2,))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_leading_modes_embed_bitwise_as_through_the_permutation(self, n, rng):
        # The identity order returns the Kronecker product itself; the permutation
        # it skips made a plain copy with signs all +1.
        lay = ModeLayout.bipartite(n, 2)
        local = random_even_operator(ModeLayout(n, ("A",) * n), rng)
        big = np.kron(np.eye(4, dtype=complex), local.matrix)
        want = _permute_matrix(big, n + 2, tuple(range(1, n + 3)))
        got = embed_local(local, lay, tuple(range(1, n + 1))).matrix
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shapes", [((2, 2), (4, 4)), ((4, 4), (2, 2)), ((3, 2), (2, 5))])
def test_kron_is_np_kron_bit_for_bit(shapes, rng):
    # negative, zero and -0.0 parts, so the signs of zero products are compared too
    values = np.array([-1.5, -0.0, 0.0, 2.25, -3.0, 1e-300])
    a, b = (np.empty(s, dtype=complex) for s in shapes)
    for m in (a, b):
        m.real, m.imag = rng.choice(values, size=m.shape), rng.choice(values, size=m.shape)
    assert (np.signbit(a.view(float)) & (a.view(float) == 0.0)).any()  # a -0.0 part
    assert _kron(a, b).tobytes() == np.kron(a, b).tobytes()
    assert _kron(a, b).shape == np.kron(a, b).shape
