import numpy as np
import pytest

import fneg.states
from conftest import basis_vector, max_abs
from fneg.errors import LayoutError, StateValidationError
from fneg.fock import ModeLayout, SubsystemSpec, creation_op, majorana_op
from fneg.states import (
    PureCoeffs,
    biseparable_example,
    canonical_state,
    canonical_vector,
    random_density,
    random_pure,
    random_pure_vector,
    random_separable,
    subsystem_parity_commutator_norm,
)

ALL_CANONICAL = [
    ("singlet", {}),
    ("werner", {"p": 0.37}),
    ("majorana_dimer", {}),
    ("w", {}),
    ("ghz", {}),
    ("majorana_triple", {}),
    ("psi_p", {"p": 0.61}),
    ("two_mode_pure", {"lambdas": (0.6, 0.8j), "parity": "odd"}),
    ("three_mode_pure", {"lambdas": (0.5, 0.5, 0.5, 0.5), "parity": "even"}),
]


class TestCanonicalStates:
    @pytest.mark.parametrize("name,kwargs", ALL_CANONICAL)
    def test_all_outputs_are_physical(self, name, kwargs):
        rho = canonical_state(name, **kwargs)
        assert rho.is_hermitian()
        assert rho.is_unit_trace()
        assert rho.is_parity_even()
        assert rho.min_eigenvalue() >= -1e-12

    def test_dimer_matrix_entries(self):
        rho = canonical_state("majorana_dimer")
        expected = np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]]
        ) / 4.0
        assert max_abs(rho, expected) == 0.0

    def test_werner_zero_is_maximally_mixed(self):
        assert max_abs(canonical_state("werner", p=0.0), np.eye(4) / 4) <= 1e-15

    def test_ghz_amplitudes(self):
        vec, layout = canonical_vector("ghz")
        assert layout.labels == ("A", "B", "C")
        assert np.allclose(vec[[0b001, 0b010, 0b100, 0b111]], 0.5)
        assert np.abs(vec).sum() == pytest.approx(2.0)

    def test_psi_p_separable_point_is_triple_occupation(self):
        vec, _ = canonical_vector("psi_p", p=4 / 7)
        expected = np.zeros(8)
        expected[0b111] = 1.0
        assert np.abs(np.abs(vec) - expected).max() <= 1e-12

    def test_majorana_triple_matches_direct_build(self):
        layout = ModeLayout.tripartite()
        m1 = majorana_op(layout, 1).matrix
        m2 = majorana_op(layout, 3).matrix
        m3 = majorana_op(layout, 5).matrix
        direct = (np.eye(8) + 1j / np.sqrt(3) * (m1 @ m2 + m2 @ m3 + m3 @ m1)) / 8
        assert max_abs(canonical_state("majorana_triple"), direct) == 0.0

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            canonical_state("bell")

    def test_parameter_validation(self):
        with pytest.raises(StateValidationError):
            canonical_state("werner", p=1.5)
        with pytest.raises(StateValidationError):
            canonical_state("psi_p", p=-0.1)
        with pytest.raises(StateValidationError):
            canonical_state("two_mode_pure", lambdas=(1.0, 1.0), parity="even")
        with pytest.raises(StateValidationError):
            canonical_state("three_mode_pure", lambdas=(1.0, 0, 0, 0), parity="up")

    def test_phase_fixing(self):
        vec, _ = canonical_vector(
            "two_mode_pure", lambdas=(-0.6, 0.8j), parity="even"
        )
        first = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
        assert abs(first.imag) <= 1e-12 and first.real > 0

    def test_biseparable_example_structure(self):
        rho = biseparable_example(0.8)
        assert rho.is_density_matrix()
        assert rho.layout.labels == ("A", "B", "C")


# The literal per-sector builders that ``states._SECTOR_BASIS`` replaced, kept as
# the reference: bit j-1 of a basis index is the occupation n_j.


def _two_mode_pure_vector(coeffs: PureCoeffs) -> np.ndarray:
    l0, l1 = coeffs.lambdas
    vec = np.zeros(4, dtype=complex)
    if coeffs.parity_sector == "even":
        vec[0b00] = l0  # |00>
        vec[0b11] = l1  # f1+ f2+ |0>
    else:
        vec[0b01] = l0  # f1+ |0>
        vec[0b10] = l1  # f2+ |0>
    return vec


def _three_mode_pure_vector(coeffs: PureCoeffs) -> np.ndarray:
    l0, l1, l2, l3 = coeffs.lambdas
    vec = np.zeros(8, dtype=complex)
    if coeffs.parity_sector == "even":
        vec[0b000] = l0
        vec[0b011] = l1  # f1+ f2+ |0>
        vec[0b110] = l2  # f2+ f3+ |0>
        vec[0b101] = l3  # f1+ f3+ |0>
    else:
        vec[0b100] = l0  # f3+ |0>
        vec[0b111] = l1  # f1+ f2+ f3+ |0>
        vec[0b010] = l2  # f2+ |0>
        vec[0b001] = l3  # f1+ |0>
    return vec


def _w_vector() -> np.ndarray:
    vec = np.zeros(8, dtype=complex)
    vec[0b001] = vec[0b010] = vec[0b100] = 1.0 / np.sqrt(3.0)
    return vec


def _ghz_vector() -> np.ndarray:
    vec = np.zeros(8, dtype=complex)
    vec[0b001] = vec[0b010] = vec[0b100] = vec[0b111] = 0.5
    return vec


def _singlet_vector() -> np.ndarray:
    vec = np.zeros(4, dtype=complex)
    vec[0b01] = 1.0 / np.sqrt(2.0)
    vec[0b10] = -1.0 / np.sqrt(2.0)
    return fneg.states._fix_phase(vec)


def _psi_p_vector(p: float) -> np.ndarray:
    vec = np.sqrt(p) * _ghz_vector() - np.sqrt(1.0 - p) * _w_vector()
    return fneg.states._fix_phase(vec / np.linalg.norm(vec))


class TestSectorTable:
    """``canonical_vector`` is bit for bit the literal builders above."""

    @pytest.mark.parametrize("name,reference", [
        ("singlet", _singlet_vector), ("w", _w_vector), ("ghz", _ghz_vector)])
    def test_named_points(self, name, reference):
        vec, layout = canonical_vector(name)
        assert vec.tobytes() == reference().tobytes()
        assert layout.num_modes == (2 if name == "singlet" else 3)

    def test_psi_p_grid(self):
        for p in np.linspace(0.0, 1.0, 101):
            assert canonical_vector("psi_p", p=p)[0].tobytes() == _psi_p_vector(p).tobytes()

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("name,count,reference", [
        ("two_mode_pure", 2, _two_mode_pure_vector),
        ("three_mode_pure", 4, _three_mode_pure_vector)])
    def test_random_amplitudes(self, rng, name, count, reference, parity):
        for _ in range(20):
            lams = rng.normal(size=count) + 1j * rng.normal(size=count)
            coeffs = PureCoeffs(tuple(lams / np.linalg.norm(lams)), parity)
            want = fneg.states._fix_phase(reference(coeffs))
            vec, _ = canonical_vector(name, lambdas=coeffs.lambdas, parity=parity)
            assert vec.tobytes() == want.tobytes()

    @pytest.mark.parametrize("alpha", [0.8, 0.0, -0.5, 2.0, 0.6 + 0.2j, 1j, 0.8 + 0j])
    def test_biseparable_example_matches_creation_operators(self, alpha):
        layout = ModeLayout.tripartite()
        vac = basis_vector(layout, (0, 0, 0))
        f1, f2, f3 = (creation_op(layout, j).matrix for j in (1, 2, 3))
        norm = 1.0 / np.sqrt(1.0 + abs(alpha) ** 2)
        top = f1 @ (norm * (vac + alpha * f2 @ f3 @ vac))
        psi_minus = norm * (vac - alpha * f2 @ f3 @ vac)
        mat = 0.5 * (np.outer(top, top.conj()) + np.outer(psi_minus, psi_minus.conj()))
        assert biseparable_example(alpha).matrix.tobytes() == mat.tobytes()

    def test_named_vectors_are_fresh(self):
        vec, _ = canonical_vector("ghz")
        vec[0] = 1.0
        assert canonical_vector("ghz")[0].tobytes() == _ghz_vector().tobytes()


class TestPureCoeffs:
    def test_validation(self):
        with pytest.raises(StateValidationError):
            PureCoeffs((1.0, 0.0, 0.0), "even")
        with pytest.raises(StateValidationError):
            PureCoeffs((0.9, 0.1), "even")
        with pytest.raises(StateValidationError, match="not normalized"):  # returned a NaN state
            canonical_state("two_mode_pure", lambdas=(np.nan, 1.0), parity="even")
        coeffs = PureCoeffs((0.6, 0.8), "odd")
        assert coeffs.num_modes == 2


class TestRandomPure:
    def test_sector_support(self, rng):
        lay = ModeLayout.bipartite(1, 1)
        vec = random_pure_vector(lay, "even", rng)
        assert np.abs(vec[[0b01, 0b10]]).max() <= 1e-15

    def test_parity_eigenvalue(self, rng):
        lay = ModeLayout.tripartite()
        from fneg.fock import parity_op

        vec = random_pure_vector(lay, "odd", rng)
        assert np.abs(parity_op(lay).matrix @ vec + vec).max() <= 1e-12

    def test_seed_determinism(self):
        lay = ModeLayout.tripartite()
        a = random_pure(lay, "even", 99).matrix
        b = random_pure(lay, "even", 99).matrix
        assert max_abs(a, b) == 0.0


class TestRandomDensity:
    def test_basic_properties(self, rng):
        lay = ModeLayout.bipartite(2, 1)
        rho = random_density(lay, rng)
        assert rho.min_eigenvalue() >= -1e-12
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert rho.is_parity_even()

    def test_type_constraints(self):
        lay = ModeLayout.bipartite(1, 1)
        spec = SubsystemSpec((1,))
        type_i = random_density(lay, 5, constraint="type_I", spec=spec)
        assert subsystem_parity_commutator_norm(type_i, spec) <= 1e-12
        type_ii = random_density(lay, 5, constraint="type_II", spec=spec)
        assert subsystem_parity_commutator_norm(type_ii, spec) > 1e-6

    def test_spec_required_for_constraints(self):
        with pytest.raises(LayoutError):
            random_density(ModeLayout.bipartite(1, 1), 0, constraint="type_I")

    def test_unknown_constraint(self):
        with pytest.raises(ValueError):
            random_density(ModeLayout.bipartite(1, 1), 0, constraint="gaussian",
                           spec=SubsystemSpec((1,)))

    def test_unknown_constraint_is_named_before_the_spec(self):
        # it raised LayoutError("constraint 'gaussian' requires a subsystem spec")
        with pytest.raises(ValueError, match="unknown constraint 'gaussian'") as raised:
            random_density(ModeLayout.bipartite(1, 1), 0, constraint="gaussian")
        assert raised.type is ValueError

    def test_seed_determinism(self):
        lay = ModeLayout.tripartite()
        assert max_abs(random_density(lay, 3).matrix, random_density(lay, 3).matrix) == 0.0

    @pytest.mark.parametrize("seed", [1.5, 2.0, "7"])
    def test_non_integer_seed_is_rejected(self, seed):
        # numpy's SeedSequence raised a TypeError
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            random_density(ModeLayout.bipartite(1, 1), seed)

    @pytest.mark.parametrize("constraint", ["any_physical", "type_I", "type_II"])
    def test_bits_match_the_where_of_a_complex_sum(self, monkeypatch, constraint):
        # _block_gaussian writes both parts into one output; the old form built
        # draws[0] + 1j * draws[1] and then np.where: every sample keeps its bits
        def summed(draws, allowed):
            return np.where(allowed, draws[..., 0, :, :] + 1j * draws[..., 1, :, :], 0.0)

        for n in range(2, 11):
            lay = ModeLayout.bipartite(1, n - 1)
            spec = None if constraint == "any_physical" else SubsystemSpec((1,))
            for seed in (0, 3, 909):
                new = random_density(lay, seed, constraint, spec).matrix
                with monkeypatch.context() as patch:
                    patch.setattr(fneg.states, "_block_gaussian", summed)
                    old = random_density(lay, seed, constraint, spec).matrix
                assert new.tobytes() == old.tobytes()


class TestRandomSeparable:
    def test_two_mode_samples_are_diagonal(self, rng):
        lay = ModeLayout.bipartite(1, 1)
        rho = random_separable(lay, SubsystemSpec((1,)), num_terms=4, seed=rng)
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.abs(off).max() <= 1e-12

    def test_physicality(self, rng):
        lay = ModeLayout.bipartite(2, 2)
        rho = random_separable(lay, lay.spec("A"), num_terms=3, seed=rng)
        assert rho.is_density_matrix()

    def test_three_part_partition(self, rng):
        lay = ModeLayout.tripartite()
        rho = random_separable(
            lay, [SubsystemSpec((1,)), SubsystemSpec((2,)), SubsystemSpec((3,))], 2, rng
        )
        assert rho.is_density_matrix()

    def test_interleaved_partition_has_zero_negativity(self, rng):
        # separability across a non-contiguous cut exercises the sign-tracked
        # mode reordering in both the constructor and the transpose
        from fneg.measures import negativity

        lay = ModeLayout.tripartite()
        spec = SubsystemSpec((1, 3))
        for _ in range(5):
            rho = random_separable(lay, spec, num_terms=3, seed=rng)
            assert rho.is_density_matrix()
            assert abs(negativity(rho, spec)) <= 1e-10

    @pytest.mark.parametrize("spec, modes", [
        ((np.int64(1), np.int64(2)), (1, 2)), (np.array([1, 2]), (1, 2)), (iter([1, 2]), (1, 2)),
        (2, (2,)), (np.int64(2), (2,))], ids=["numpy_ints", "numpy_array", "iterator", "int",
                                                "numpy_int"])
    def test_any_form_of_one_spec_is_one_subsystem(self, spec, modes):
        # numpy integers were read as a partition into one-mode parts, an array failed
        # numpy's truth test, an iterator lost its first mode and an integer raised
        lay = ModeLayout.tripartite()
        want = random_separable(lay, SubsystemSpec(modes), num_terms=2, seed=5).matrix
        assert random_separable(lay, spec, num_terms=2, seed=5).matrix.tobytes() == want.tobytes()

    def test_partition_must_cover(self, rng):
        lay = ModeLayout.tripartite()
        with pytest.raises(LayoutError):
            random_separable(lay, [SubsystemSpec((1,)), SubsystemSpec((2,))], 2, rng)

    def test_num_terms_validation(self, rng):
        with pytest.raises(ValueError):
            random_separable(ModeLayout.bipartite(1, 1), SubsystemSpec((1,)), 0, rng)
        with pytest.raises(TypeError, match="num_terms must be an integer"):
            random_separable(ModeLayout.bipartite(1, 1), SubsystemSpec((1,)), 2.5, rng)

    def test_vacuum_product(self):
        from fneg.fock import FockOperator, graded_tensor

        a = FockOperator(ModeLayout(1, ("A",)), np.diag([1.0, 0.0]).astype(complex))
        b = FockOperator(ModeLayout(1, ("B",)), np.diag([1.0, 0.0]).astype(complex))
        prod = graded_tensor(a, b)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert max_abs(prod, expected) == 0.0
