import itertools

import numpy as np
import pytest

from conftest import max_abs, random_even_operator
from fneg.errors import LayoutError, ParityError
from fneg.fock import (
    FockOperator,
    ModeLayout,
    SubsystemSpec,
    _parity_leak,
    creation_op,
    graded_tensor,
    identity_op,
    majorana_op,
    parity_op,
)
from fneg.measures import negativity, trace_norm
from fneg.ptranspose import (
    bosonic_pt,
    fermionic_pt,
    fermionic_pt_majorana,
    full_transpose,
    parity_project,
    partial_trace,
    partial_transpose,
)
from fneg.states import canonical_state, random_density, random_pure


class TestFermionicPT:
    def test_requires_parity_even(self):
        lay = ModeLayout.bipartite(1, 1)
        with pytest.raises(ParityError):
            fermionic_pt(creation_op(lay, 1), SubsystemSpec((1,)))
        with pytest.raises(ParityError):
            fermionic_pt_majorana(creation_op(lay, 1), SubsystemSpec((1,)))

    def test_full_set_rejected(self):
        rho = canonical_state("majorana_dimer")
        with pytest.raises(LayoutError):
            fermionic_pt(rho, SubsystemSpec((1, 2)))

    def test_diagonal_state_transposes_to_particle_hole_flip(self):
        # The phase is trivial on diagonals, so the canonical (Majorana-rule)
        # output is the particle-hole conjugation U_A rho U_A^+: the diagonal
        # with subsystem-A occupations flipped.  Spectrum and trace norm are
        # untouched, which is the form the separability arguments rely on.
        lay = ModeLayout.bipartite(1, 1)
        rho = FockOperator(lay, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        out = fermionic_pt(rho, SubsystemSpec((1,)))
        assert max_abs(out, np.diag([0.3, 0.4, 0.1, 0.2])) <= 1e-15
        ua = majorana_op(lay, 1).matrix
        assert max_abs(ua @ out.matrix @ ua.conj().T, rho) <= 1e-15
        assert abs(trace_norm(out) - 1.0) <= 1e-14

    def test_majorana_bilinear_example(self):
        # (1 - i a b)/4 with a on mode 1, b on mode 2 maps to (1 + a b)/4
        lay = ModeLayout.bipartite(1, 1)
        a = majorana_op(lay, 1).matrix
        b = majorana_op(lay, 3).matrix
        rho = FockOperator(lay, (np.eye(4) - 1j * a @ b) / 4)
        out = fermionic_pt(rho, SubsystemSpec((1,)))
        assert max_abs(out, (np.eye(4) + a @ b) / 4) <= 1e-15

    def test_identity_coefficient_only(self):
        lay = ModeLayout.bipartite(2, 1)
        rho = FockOperator(lay, np.eye(8, dtype=complex) / 8)
        out = fermionic_pt_majorana(rho, SubsystemSpec((1, 2)))
        assert max_abs(out, np.eye(8) / 8) <= 1e-14

    def test_trace_preserved(self, rng):
        lay = ModeLayout.bipartite(2, 2)
        op = random_even_operator(lay, rng)
        out = fermionic_pt(op, SubsystemSpec((1, 2)))
        assert abs(np.trace(out.matrix) - np.trace(op.matrix)) <= 1e-12

    def test_dimer_trace_norm(self):
        rho = canonical_state("majorana_dimer")
        assert abs(trace_norm(fermionic_pt(rho, SubsystemSpec((1,)))) - np.sqrt(2)) <= 1e-12

    @pytest.mark.parametrize("n,m_a", [(n, m_a) for n in range(2, 6) for m_a in range(1, n)])
    def test_definition_equivalence(self, n, m_a, rng):
        # Every target of m_a modes, contiguous or not: the oracle pins the
        # phase on every pattern of target and remainder occupations.
        lay = ModeLayout(n, ("A",) * n)
        for modes in itertools.combinations(range(1, n + 1), m_a):
            spec = SubsystemSpec(modes)
            for _ in range(3):
                op = random_even_operator(lay, rng)
                assert max_abs(
                    fermionic_pt(op, spec), fermionic_pt_majorana(op, spec)
                ) <= 1e-12

    def test_definition_equivalence_non_contiguous(self, rng):
        lay = ModeLayout(4, ("A", "A", "B", "B"))
        for spec_modes in [(2,), (1, 3), (2, 4), (2, 3)]:
            spec = SubsystemSpec(spec_modes)
            op = random_even_operator(lay, rng)
            assert max_abs(
                fermionic_pt(op, spec), fermionic_pt_majorana(op, spec)
            ) <= 1e-12


class TestInvolutionStructure:
    def test_successive_transposes_give_full(self, rng):
        lay = ModeLayout.bipartite(2, 2)
        rho = random_density(lay, rng)
        lhs = fermionic_pt(fermionic_pt(rho, lay.spec("A")), lay.spec("B"))
        assert max_abs(lhs, full_transpose(rho)) <= 1e-12

    def test_double_transpose_is_parity_conjugation(self, rng):
        lay = ModeLayout.bipartite(2, 2)
        rho = random_density(lay, rng)
        spec = lay.spec("A")
        twice = fermionic_pt(fermionic_pt(rho, spec), spec)
        p = parity_op(lay, spec).matrix
        assert max_abs(twice, p @ rho.matrix @ p) <= 1e-12

    def test_interleaved_target_at_ten_modes(self, rng):
        # Beyond the reach of the Majorana oracle: a non-contiguous target at
        # N = 10 must still satisfy the transpose's composition identities.
        lay = ModeLayout(10, ("A",) * 10)
        op = random_even_operator(lay, rng)
        spec = SubsystemSpec((1, 3, 5, 7, 9))
        once = fermionic_pt(op, spec)
        assert max_abs(fermionic_pt(once, spec.complement(lay)), full_transpose(op)) <= 1e-12
        p = np.diag(parity_op(lay, spec).matrix)
        assert max_abs(fermionic_pt(once, spec), p[:, None] * op.matrix * p[None, :]) <= 1e-12
        assert max_abs(bosonic_pt(bosonic_pt(op, spec), spec), op) == 0.0

    def test_identity_invariant(self):
        lay = ModeLayout.bipartite(2, 1)
        eye = identity_op(lay)
        assert max_abs(fermionic_pt(eye, lay.spec("A")), np.eye(8)) <= 1e-15

    def test_full_transpose_preserves_spectrum(self, rng):
        lay = ModeLayout.bipartite(2, 1)
        rho = random_density(lay, rng)
        a = np.sort(np.linalg.eigvals(full_transpose(rho).matrix).real)
        b = np.sort(np.linalg.eigvalsh(rho.matrix))
        assert np.abs(a - b).max() <= 1e-10

    def test_tensor_product_distribution(self, rng):
        lhs = random_density(ModeLayout.bipartite(1, 1), rng)
        rhs = random_density(ModeLayout.bipartite(1, 1), rng)
        prod = graded_tensor(lhs, rhs)
        spec = prod.layout.spec("A")
        direct = fermionic_pt(prod, spec)
        factorized = graded_tensor(
            fermionic_pt(lhs, lhs.layout.spec("A")),
            fermionic_pt(rhs, rhs.layout.spec("A")),
        )
        assert max_abs(direct, factorized) <= 1e-12


class TestParityBlockStructure:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_transposes_leave_the_parity_off_blocks_exactly_zero(self, n):
        # The spectra take their block path only on exact zeros (measures.singular_values):
        # round-off leaked between the global-parity sectors would fall back to the dense SVD.
        rho = random_density(ModeLayout(n, ("A",) * n), 300 + n)
        full = rho.dim - 1
        assert _parity_leak(rho.matrix, n, full) == 0.0
        outs = [full_transpose(rho)]
        half = n // 2
        for target in (range(1, half + 1), range(half + 1, n + 1), range(1, n + 1, 2)):
            spec = SubsystemSpec(tuple(target))
            outs += [fermionic_pt(rho, spec), bosonic_pt(rho, spec)]
        for out in outs:
            assert _parity_leak(out.matrix, n, full) == 0.0


class TestBosonicPT:
    def test_diagonal_fixed_point(self, rng):
        lay = ModeLayout.bipartite(1, 1)
        rho = FockOperator(lay, np.diag(rng.dirichlet(np.ones(4))).astype(complex))
        assert max_abs(bosonic_pt(rho, SubsystemSpec((1,))), rho) == 0.0

    def test_plain_transposition_blocks(self):
        lay = ModeLayout.bipartite(1, 1)
        rho = canonical_state("majorana_dimer")
        out = bosonic_pt(rho, SubsystemSpec((1,)))
        # (0b00, 0b11) element moves to (0b01, 0b10)
        assert out.matrix[0b01, 0b10] == rho.matrix[0b00, 0b11]
        assert abs(trace_norm(out) - 1.0) <= 1e-12

    def test_werner_boundary(self):
        rho = canonical_state("werner", p=1 / 3)
        assert abs(trace_norm(bosonic_pt(rho, SubsystemSpec((1,)))) - 1.0) <= 1e-12

    def test_accepts_parity_odd_operators(self):
        lay = ModeLayout.bipartite(1, 1)
        odd = creation_op(lay, 1)
        bosonic_pt(odd, SubsystemSpec((1,)))  # no parity requirement

    @pytest.mark.parametrize("flavor", ["x", "Fermionic", None])
    def test_unknown_flavor_is_one_error(self, flavor):
        # the transpose dispatch and the measures refuse a flavor with one message
        rho = canonical_state("majorana_dimer")
        with pytest.raises(ValueError) as direct:
            partial_transpose(rho, SubsystemSpec((1,)), flavor)
        with pytest.raises(ValueError) as measured:
            negativity(rho, SubsystemSpec((1,)), flavor)
        assert str(direct.value) == str(measured.value) == (
            f"transpose flavor must be one of ('fermionic', 'bosonic'), got {flavor!r}")


class TestPartialTrace:
    def test_ghz_reduces_to_dimer(self):
        ghz = canonical_state("ghz")
        reduced = partial_trace(ghz, SubsystemSpec((1, 2)))
        assert max_abs(reduced, canonical_state("majorana_dimer")) <= 1e-15
        assert reduced.layout.labels == ("A", "B")

    def test_product_state_reduces_to_factor(self, rng):
        lhs = random_density(ModeLayout(1, ("A",)), rng)
        rhs = random_density(ModeLayout(2, ("B", "B")), rng)
        prod = graded_tensor(lhs, rhs)
        assert max_abs(partial_trace(prod, SubsystemSpec((1,))), lhs) <= 1e-12

    def test_majorana_triple_reduction(self):
        triple = canonical_state("majorana_triple")
        reduced = partial_trace(triple, SubsystemSpec((1, 2)))
        lay2 = ModeLayout.bipartite(1, 1)
        m1 = majorana_op(lay2, 1).matrix
        m2 = majorana_op(lay2, 3).matrix
        expected = (np.eye(4) + 1j / np.sqrt(3) * m1 @ m2) / 4
        assert max_abs(reduced, expected) <= 1e-14

    def test_trace_and_parity_preserved(self, rng):
        rho = random_density(ModeLayout.tripartite(), rng)
        reduced = partial_trace(rho, SubsystemSpec((1, 3)))
        assert abs(np.trace(reduced.matrix) - 1.0) <= 1e-12
        assert reduced.is_parity_even()

    def test_duality_with_embedded_observables(self, rng):
        # Tr(rho_S X) == Tr(rho embed(X)) for every local even X, including a
        # non-contiguous kept subset where naive bit surgery would drop signs.
        from fneg.fock import embed_local

        lay = ModeLayout(4, ("A", "A", "B", "B"))
        rho = random_density(lay, rng)
        keep = SubsystemSpec((2, 4))
        reduced = partial_trace(rho, keep)
        sub = ModeLayout(2, ("A", "A"))
        for _ in range(10):
            x = random_even_operator(sub, rng)
            lhs = np.trace(reduced.matrix @ x.matrix)
            rhs = np.trace(rho.matrix @ embed_local(x, lay, (2, 4)).matrix)
            assert abs(lhs - rhs) <= 1e-10

    def test_keep_must_be_subset(self):
        rho = canonical_state("majorana_dimer")
        with pytest.raises(LayoutError):
            partial_trace(rho, SubsystemSpec((1, 5)))


class TestParityProject:
    def test_weights_sum_to_one(self, rng):
        rho = random_density(ModeLayout.tripartite(), rng)
        spec = SubsystemSpec((3,))
        even = parity_project(rho, spec, "even")
        odd = parity_project(rho, spec, "odd")
        assert abs(even.weight + odd.weight - 1.0) <= 1e-12
        assert even.state.is_density_matrix()

    def test_w_mode3_odd_weight(self):
        w = canonical_state("w")
        proj = parity_project(w, SubsystemSpec((3,)), "odd")
        assert abs(proj.weight - 1 / 3) <= 1e-12

    def test_pure_even_state_has_empty_odd_sector(self, rng):
        lay = ModeLayout.tripartite()
        rho = random_pure(lay, "even", rng)
        proj = parity_project(rho, SubsystemSpec((1, 2, 3)), "odd")
        assert proj.state is None
        assert proj.weight == 0.0

    def test_ghz_projection_gives_half_negativity(self):
        from fneg.measures import negativity

        ghz = canonical_state("ghz")
        proj = parity_project(ghz, SubsystemSpec((3,)), "even")
        reduced = partial_trace(proj.state, SubsystemSpec((1, 2)))
        assert abs(negativity(reduced, SubsystemSpec((1,))) - 0.5) <= 1e-12

    def test_invalid_sector_name(self):
        rho = canonical_state("ghz")
        with pytest.raises(ValueError):
            parity_project(rho, SubsystemSpec((3,)), "both")


class TestPerturbedSeparableState:
    def test_unperturbed_trace_norm_is_one(self, rng):
        from fneg.verify import _perturbation_instance, perturbed_state

        w, rho0, rho1, delta = _perturbation_instance(rng, 1, 1e-2)
        rho = perturbed_state(w, rho0, rho1, delta, 0.0)
        assert abs(trace_norm(fermionic_pt(rho, SubsystemSpec((1,)))) - 1.0) <= 1e-12

    def test_transposed_perturbation_structure(self, rng):
        # rho_off^{T_A} keeps the off-blocks, multiplied by i
        from fneg.verify import _perturbation_instance, perturbed_state

        w, rho0, rho1, delta = _perturbation_instance(rng, 1, 1e-2)
        eps = 1e-3
        rho = perturbed_state(w, rho0, rho1, delta, eps)
        base = perturbed_state(w, rho0, rho1, delta, 0.0)
        diff = fermionic_pt(rho, SubsystemSpec((1,))).matrix - fermionic_pt(
            base, SubsystemSpec((1,))
        ).matrix
        off = rho.matrix - base.matrix
        assert max_abs(diff - 1j * off) <= 1e-12
